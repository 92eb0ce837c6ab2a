import json
import os
import subprocess
import sys

import pytest

import opetree
from opetree.cli import dumps_canonical, main, parse_power_product
from opetree.series import PowerProduct


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTreeCommands:
    def test_compose(self, capsys):
        code, out, _ = run_cli(["tree", "compose", "3((12)4)", "2", "2(13)"], capsys)
        assert code == 0
        assert json.loads(out) == {"tree": "5((1(3(24)))6)"}

    def test_compose_empty(self, capsys):
        code, out, _ = run_cli(["tree", "compose", "3((12)4)", "2", ""], capsys)
        assert code == 0
        assert json.loads(out) == {"tree": "2(13)"}

    def test_double(self, capsys):
        code, out, _ = run_cli(["tree", "double", "t(c1) o2"], capsys)
        assert code == 0
        assert json.loads(out) == {"tree": "(12)3"}

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run_cli(["tree", "parse", "((12)"], capsys)
        assert code == 2
        assert "error" in err

    def test_permute(self, capsys):
        code, out, _ = run_cli(["tree", "permute", "1(23)", "2,1,3"], capsys)
        assert code == 0
        assert json.loads(out) == {"tree": "2(13)"}


class TestCoordsCommand:
    def test_five_leaf_coordinates(self, capsys):
        code, out, _ = run_cli(["coords", "(23)((15)4)"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["coordinates"]["zA"] == "z4"
        assert obj["coordinates"]["ze0"] == "(z2 - z3) / (z3 - z4)"

    def test_numeric_values(self, capsys):
        code, out, _ = run_cli(
            ["coords", "(23)((15)4)", "--at", "[4, 3, 2, 0, 1]"], capsys
        )
        obj = json.loads(out)
        assert obj["values"]["xA"] == [2.0, 0.0]
        assert obj["values"]["ze0"] == [0.5, 0.0]


class TestExpandCommand:
    def test_worked_expansion(self, capsys):
        code, out, _ = run_cli(
            ["expand", "(23)((15)4)", "(z2-z1)^-1", "--N", "2"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        terms = {
            tuple(sorted(t["exponents"].items())): t["re"] + 1j * t["im"]
            for t in obj["terms"]
        }
        assert terms[(("xA", "-1"),)] == 1
        assert terms[(("xA", "-1"), ("ze0", "1"))] == -1
        assert terms[(("xA", "-1"), ("ze1", "1"), ("ze2", "1"))] == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["(12)3", "(z1-z2)^1", "--N", "-5"], "error: truncation order must be >= 0, got -5"),
            (["(12)3", "(z1-z2)^1/0"], "error: zero denominator in factor '(z1-z2)^1/0'"),
        ],
    )
    def test_bad_input_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(["expand", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == message

    def test_power_product_parser(self):
        f = parse_power_product("(z2-z1)^-1 * z3^2 * (z1-z4)^1/2")
        assert f.diffs[0][0] == (2, 1)
        assert f.powers == ((3, 2),)
        with pytest.raises(Exception):
            parse_power_product("(z1+z2)")


class TestBraidCommands:
    def test_perm(self, capsys):
        code, out, _ = run_cli(["braid", "perm", "s1 s2 s1"], capsys)
        assert json.loads(out) == {"permutation": [3, 2, 1]}

    def test_cable(self, capsys):
        code, out, _ = run_cli(["braid", "cable", "s1", "2", "s1"], capsys)
        obj = json.loads(out)
        assert obj["strands"] == 3
        assert obj["permutation"] == [3, 2, 1]

    def test_generator(self, capsys):
        code, out, _ = run_cli(["braid", "generator", "q"], capsys)
        obj = json.loads(out)
        assert obj["source"] == "t(c1c2)"
        assert obj["word"] == ""


class TestVerifyCommand:
    def test_bootstrap_passes(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "R_squared": "2",
                    "reflection": "+1",
                    "charges": [[1, 0], [0, 1]],
                    "truncation": 10,
                    "tolerance": 1e-6,
                    "seed": 3,
                    "box": 3,
                }
            )
        )
        code, out, _ = run_cli(["verify", "bootstrap", "--config", str(cfg)], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True

    def test_regions(self, capsys):
        code, out, _ = run_cli(["verify", "regions", "--seed", "5"], capsys)
        assert code == 0

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = ["verify", "skew", "--seed", "11"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_boundary_consistency_small(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "R_squared": "2",
                    "reflection": "-1",
                    "charges": [[1, 0], [0, 1]],
                    "truncation": 15,
                    "tolerance": 1e-4,
                    "seed": 7,
                    "points": 3,
                }
            )
        )
        code, out, _ = run_cli(
            ["verify", "boundary-consistency", "--config", str(cfg)], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert len(obj["checks"]) == 2

    def test_failure_exit_code(self, capsys, tmp_path):
        # impossible tolerance forces a failing report, exit code 1
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "R_squared": "2",
                    "reflection": "+1",
                    "charges": [[1, 0], [0, 1]],
                    "truncation": 4,
                    "tolerance": 1e-30,
                    "seed": 7,
                    "points": 2,
                }
            )
        )
        code, out, _ = run_cli(
            ["verify", "bulk-consistency", "--config", str(cfg)], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("box", [-1, 2.7, 3.0, True, "3", None])
    def test_bootstrap_rejects_bad_box(self, capsys, tmp_path, box):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"box": box}))
        code, out, err = run_cli(["verify", "bootstrap", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: box must be a non-negative integer")

    def test_bootstrap_box_zero(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"box": 0}))
        code, out, _ = run_cli(["verify", "bootstrap", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["checks"][0]["params"]["box"] == 0

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"R_squared": "2/0"}, "error: bad R_squared '2/0'"),
            ({"R_squared": [2]}, "error: bad R_squared [2]"),
            ([["box", 3]], "error: config must be a JSON object"),
            ([1, 2], "error: config must be a JSON object"),
        ],
    )
    def test_bad_config_exit_2(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["verify", "bootstrap", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == message

    @pytest.mark.parametrize(
        "suite, config, message",
        [
            ("boundary-consistency", {"truncation": -3}, "error: truncation order must be >= 0, got -3"),
            ("bulk-consistency", {"truncation": -3}, "error: truncation order must be >= 0, got -3"),
            ("boundary-consistency", {"charges": []}, "error: boundary-consistency needs at least one charge"),
        ],
    )
    def test_consistency_bad_config_exit_2(self, capsys, tmp_path, suite, config, message):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({**config, "points": 2}))
        code, out, err = run_cli(["verify", suite, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == message

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["--out", str(dest), "verify", "regions", "--seed", "5"], capsys
        )
        assert code == 0
        assert out == ""
        obj = json.loads(dest.read_text())
        assert obj["passed"] is True


class TestCanonicalJson:
    def test_float_digits(self):
        s = dumps_canonical({"x": 0.1, "y": [1.5, 2]})
        assert s == '{"x": 0.10000000000000001, "y": [1.5, 2]}'

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_entry_point_runs(self):
        # the child imports opetree from wherever this process found it
        src = os.path.dirname(os.path.dirname(opetree.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "opetree.cli", "tree", "parse", "1(23)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"tree": "1(23)"}
