import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(pair, side, **metrics):
    return {"pair": pair, "side": side, "final_line": {"metrics": {m: {"value": v} for m, v in metrics.items()}}}


def test_summary_counts_wins_in_each_metrics_direction():
    # pairs won by the change: lower wall_s in pairs 0 and 2, higher
    # ops_per_s in pair 1 only; a tie counts for neither side
    runs = [
        _run(0, "parent", wall_s=1.0, ops_per_s=10.0),
        _run(0, "change", wall_s=0.8, ops_per_s=10.0),
        _run(1, "change", wall_s=1.1, ops_per_s=12.0),
        _run(1, "parent", wall_s=1.0, ops_per_s=11.0),
        _run(2, "parent", wall_s=1.2, ops_per_s=10.0),
        _run(2, "change", wall_s=0.9, ops_per_s=9.0),
    ]
    out = ab.summarize(runs, {"wall_s": "lower", "ops_per_s": "higher"})
    assert out["wall_s"]["change_wins"] == "2/3"
    assert out["ops_per_s"]["change_wins"] == "1/3"
    assert out["wall_s"]["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert out["wall_s"]["change"]["median"] == 0.9
    assert out["wall_s"]["change_vs_parent"] == pytest.approx(-0.1)


def test_one_pair_reads_its_value_as_every_quartile():
    out = ab.summarize([_run(0, "parent", wall_s=2.0), _run(0, "change", wall_s=1.0)], {"wall_s": "lower"})
    assert out["wall_s"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert out["wall_s"]["change_wins"] == "1/1"
    assert out["wall_s"]["change_vs_parent"] == -0.5


def _claim_runs(parent, change):
    return [_run(p, side, wall_s=v) for p, pair in enumerate(zip(parent, change)) for side, v in zip(ab.SIDES, pair)]


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.8] * 9 + [1.2], True),  # 9/10 pairs, medians 0.2 apart
        ([0.8] * 8 + [1.2] * 2, False),  # 8/10 pairs
        ([0.99] * 10, False),  # 10/10, but 0.01 apart, inside the parent's q1-q3 (0.985-1.015)
        ([1.2] * 10, False),  # worse in every pair
    ],
)
def test_claim_met_needs_nine_tenths_and_medians_apart(change, met):
    parent = [0.96, 0.98, 0.98, 1.0, 1.0, 1.0, 1.0, 1.02, 1.02, 1.04]
    summary = ab.summarize(_claim_runs(parent, change), {"wall_s": "lower"})["wall_s"]
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == pytest.approx(0.03)
    assert ab.claim_met(summary, "lower") is met


def test_claim_met_in_the_higher_direction():
    parent, change = [10.0, 10.5, 11.0] * 3 + [10.0], [12.0] * 10
    summary = ab.summarize(_claim_runs(parent, change), {"wall_s": "higher"})["wall_s"]
    assert ab.claim_met(summary, "higher")
    assert not ab.claim_met(summary, "lower")


@pytest.mark.parametrize("item", ["bulk-trees", "bulk-trees=0", "bulk-trees=x"])
def test_pair_counts_must_be_positive(item):
    with pytest.raises(SystemExit, match="NAME=PAIRS"):
        ab.parse_counts([item], "--workload")


def test_both_sides_run_from_one_path(tmp_path, monkeypatch):
    # each side's checkout is moved to the same path for its runs, so the
    # directory's name cannot tell the sides apart
    def checkout(rev, dest):
        dest.mkdir()
        (dest / "rev").write_text(rev)
        return dest

    spec = json.loads((ab.ROOT / "BENCHMARK.json").read_text())
    line = {"failed": 0, "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}
    seen = []

    def run_once(tree, workload, seed, seconds):
        seen.append((tree, (tree / "rev").read_text()))
        return line

    monkeypatch.setattr(ab, "checkout", checkout)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "out.json"
    argv = ["ab.py", "--parent", "P", "--change", "C", "--out", str(out), "--workload", "bulk-trees=2"]
    monkeypatch.setattr(sys, "argv", argv)
    assert ab.main() == 0
    assert [rev for _, rev in seen] == ["P", "C", "C", "P"]
    assert len({tree for tree, _ in seen}) == 1 and seen[0][0].name == "tree"
    assert json.loads(out.read_text())["workloads"]["bulk-trees"]["failed"] == {"parent": 0, "change": 0}
