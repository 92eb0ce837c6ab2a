"""A/B runs of the benchmark: two git revisions in alternating pairs.

Usage:
    python3 tools/ab.py --parent REV --change REV --out BENCH_N.json
        [--workload NAME=PAIRS ...] [--seconds S] [--seed N]
        [--check NAME=PAIRS] [--check-seed N] [--claim NAME:METRIC]
        [--what TEXT] [--note NAME=TEXT ...]

Each side is a ``git archive`` of its revision, unpacked into its own
temporary directory, and every run is that side's unmodified
``python3 perfbench/run.py --workload NAME --seed N --seconds S``, one at a
time.  For each run the side's directory is renamed to one path,
``<tmp>/tree``, and back after it, so both sides run from the same path:
the name of the checkout directory alone moves ``peak_rss_mb``.  Pair p
runs the parent first when p is even and the change first when p is odd.
Workloads run in the order given, then the seed check (``--check``, at
``--check-seed``).

The output is a JSON file: per workload, each end-to-end metric's
quartiles on each side (``statistics.quantiles(n=4, method='inclusive')``
and the median), the number of pairs in which the change did better
(``change_wins``, in the direction ``BENCHMARK.json`` gives) and the
relative change of the medians (``change_vs_parent``), with every run's
last JSON line.  With ``--claim``, ``claim`` states the claimed metric's
summary and ``claim_met`` whether the gain holds: the change won at least
nine tenths of the pairs run and its median is better than the parent's
by more than the parent's q1-q3 distance.  The file is rewritten after
each pair, so a stopped session keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def checkout(rev: str, dest: Path) -> Path:
    """Unpack ``git archive rev`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one run of ``perfbench/run.py``: its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, better) -> dict:
    """Per metric: each side's quartiles, the pairs the change won and the
    relative change of the medians.  ``runs`` holds both sides' runs of
    each finished pair; ``better`` maps a metric to "lower" or "higher"."""
    pairs = sorted({run["pair"] for run in runs})
    value = {(run["pair"], run["side"]): run["final_line"]["metrics"] for run in runs}
    out = {}
    for metric, direction in better.items():
        sides = {side: [value[p, side][metric]["value"] for p in pairs] for side in SIDES}
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        summary = {side: quartiles(sides[side]) for side in SIDES}
        parent, change = summary["parent"]["median"], summary["change"]["median"]
        summary["change_wins"] = f"{wins}/{len(pairs)}"
        summary["change_vs_parent"] = change / parent - 1 if parent else None
        out[metric] = summary
    return out


def claim_met(summary, direction) -> bool:
    """Whether the change won at least 9/10 of the pairs run and its median
    beats the parent's, in ``direction``, by more than the parent's q3 - q1."""
    wins, pairs = map(int, summary["change_wins"].split("/"))
    p, c = summary["parent"], summary["change"]
    gain = p["median"] - c["median"] if direction == "lower" else c["median"] - p["median"]
    return 10 * wins >= 9 * pairs and gain > p["q3"] - p["q1"]


def claim_text(workload, metric, summary, unit) -> str:
    p, c = summary["parent"], summary["change"]
    return (
        f"{workload} {metric}: parent median {p['median']:.4g} {unit} (q1-q3 {p['q1']:.4g}-{p['q3']:.4g}), "
        f"change {c['median']:.4g} {unit} ({c['q1']:.4g}-{c['q3']:.4g}), "
        f"{summary['change_vs_parent']:+.1%}, change wins {summary['change_wins']} pairs"
    )


def parse_counts(items, option) -> list:
    out = []
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"error: {option} wants NAME=PAIRS, got {item!r}")
        out.append((name, int(count)))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", required=True, help="git revision of the change side")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--workload", action="append", default=[], help="NAME=PAIRS; repeat for several")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--check", action="append", default=[], help="NAME=PAIRS run again at --check-seed")
    ap.add_argument("--check-seed", type=int, default=2)
    ap.add_argument("--claim", help="NAME:METRIC whose summary is the claim")
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--note", action="append", default=[], help="NAME=TEXT, a note on one workload")
    args = ap.parse_args()
    plan = [(name, n, args.seed, "workloads") for name, n in parse_counts(args.workload, "--workload")]
    plan += [(name, n, args.check_seed, "seed_%d_check" % args.check_seed) for name, n in parse_counts(args.check, "--check")]
    if not plan:
        raise SystemExit("error: give at least one --workload NAME=PAIRS")

    claim_name, _, claim_metric = (args.claim or "").partition(":")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "host": (
            f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, Python {platform.python_version()}, "
            f"one run at a time; each side from a git archive of its revision "
            f"(parent {args.parent}, change {args.change}), run from one path, <tmp>/tree"
        ),
        "order": "pairs alternate which side runs first: pair 0 parent then change, pair 1 change then parent, ...; "
        "workloads run one after another in the order " + ", ".join(name for name, *_ in plan),
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pair runs of each side",
        "claim": None,
        "claim_met": None,
        "notes": dict(item.partition("=")[::2] for item in args.note),
    }
    with tempfile.TemporaryDirectory(prefix="opetree-ab-") as tmp:
        trees = {side: checkout(rev, Path(tmp) / side) for side, rev in zip(SIDES, (args.parent, args.change))}
        for name, pairs, seed, section in plan:
            entry = result.setdefault(section, {})[name] = {
                "seed": seed,
                "seconds": args.seconds,
                "pairs": pairs,
                "failed": dict.fromkeys(SIDES, 0),
                "summary": {},
            }
            runs = entry["runs"] = []
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    tree = trees[side].rename(Path(tmp) / "tree")  # one path for both sides
                    try:
                        line = run_once(tree, name, seed, args.seconds)
                    finally:
                        tree.rename(trees[side])
                    entry["failed"][side] += line["failed"]
                    runs.append({"pair": pair, "position": position, "side": side, "final_line": line})
                entry["summary"] = summarize(runs, better)
                if section == "workloads" and name == claim_name:
                    summary = entry["summary"][claim_metric]
                    result["claim"] = claim_text(name, claim_metric, summary, units[claim_metric])
                    result["claim_met"] = claim_met(summary, better[claim_metric])
                args.out.write_text(json.dumps(result, indent=1) + "\n")
                print(f"{section} {name} pair {pair + 1}/{pairs}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
