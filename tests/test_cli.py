import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opetree
from opetree.cli import dumps_canonical, main, parse_power_product
from opetree.series import PowerProduct


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment for a child interpreter that imports opetree from
    wherever this process found it."""
    src = os.path.dirname(os.path.dirname(opetree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


_SUITES = ("bootstrap", "boundary-consistency", "bulk-consistency", "skew", "regions")


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

    def test_deep_nesting_exit_2(self, capsys):
        code, out, err = run_cli(["tree", "parse", "(" * 3000 + "1" + ")" * 3000], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: nesting deeper than 256 (at position 256)"

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

    def test_complex_string_entries(self, capsys):
        code, out, _ = run_cli(["coords", "(12)3", "--at", '["3+2j", 2, 1.0]'], capsys)
        assert code == 0
        assert json.loads(out)["values"]["ze0"] == [1.0, 2.0]

    def test_text_values(self, capsys):
        code, out, _ = run_cli(["--format", "text", "coords", "(12)3", "--at", "[1,2,3]"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "zA = z3",
            "xA = z2 - z3",
            "ze0 = (z1 - z2) / (z2 - z3)",
            "value of zA = (3+0j)",
            "value of xA = (-1+0j)",
            "value of ze0 = (1-0j)",
        ]

    @pytest.mark.parametrize(
        "at, message",
        [
            ("[[1], 2, 3]", "error: --at entry 1 must be a number or a complex string, got [1]"),
            ("[1, 2, null]", "error: --at entry 3 must be a number or a complex string, got None"),
            ("[true, 2, 3]", "error: --at entry 1 must be a number or a complex string, got True"),
            ('["z", 2, 3]', "error: --at entry 1 must be a number or a complex string, got 'z'"),
            ("5", "error: --at must be a JSON list, got 5"),
            ("[" + "9" * 400 + ", 2, 3]", "error: --at entry 1 must be finite"),
            ("[1, 1e400, 3]", "error: --at entry 2 must be finite"),
            ('[1, 2, "inf"]', "error: --at entry 3 must be finite"),
            ('["nan", 2, 3]', "error: --at entry 1 must be finite"),
            ('[1, "1+infj", 3]', "error: --at entry 2 must be finite"),
        ],
        ids=["list", "null", "bool", "string", "scalar", "huge-int", "1e400", "inf", "nan", "infj"],
    )
    def test_bad_at_exit_2(self, capsys, at, message):
        code, out, err = run_cli(["coords", "(12)3", "--at", at], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == message


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
            (["(12)3", "z9^2"], "error: no leaf labeled 9"),
            # a binomial C(2000, m) beyond the largest double
            (["(12)3", "z1^2000", "--N", "2"], "error: series coefficient out of floating-point range"),
            # every factor fits, but their product does not
            (
                ["(12)3", "(z1-z2)^-400 * z1^1020", "--N", "3"],
                "error: series coefficient out of floating-point range",
            ),
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

    @pytest.mark.parametrize(
        "suite, flag",
        [
            ("bootstrap", ["--tol", "1e-30"]),
            ("bootstrap", ["--N", "3"]),
            ("bootstrap", ["--seed", "2"]),
            ("skew", ["--tol", "1e-30"]),
            ("skew", ["--N", "3"]),
            ("regions", ["--tol", "1e-30"]),
            ("regions", ["--N", "3"]),
        ],
    )
    def test_unread_flag_exit_2(self, capsys, suite, flag):
        # the suite would run with its own value and pass
        code, out, err = run_cli(["verify", suite, *flag], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: verify {suite} does not read {flag[0]}\n"

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
            ({"R_squared": True}, "error: bad R_squared True"),
            ({"R_squared": None}, "error: bad R_squared None"),
            ({"R_squared": float("inf")}, "error: bad R_squared inf"),
            ({"reflection": True}, "error: bad reflection True"),
            ({"reflection": False}, "error: bad reflection False"),
            ({"reflection": 1.0}, "error: bad reflection 1.0"),
            ({"reflection": -1.0}, "error: bad reflection -1.0"),
            ({"reflection": 0}, "error: bad reflection 0"),
            ({"reflection": "1"}, "error: bad reflection '1'"),
            ({"reflection": [1]}, "error: bad reflection [1]"),
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
            ("boundary-consistency", {"truncation": 4.7}, "error: truncation order must be an integer, got 4.7"),
            ("bulk-consistency", {"truncation": "4"}, "error: truncation order must be an integer, got '4'"),
            ("bulk-consistency", {"truncation": True}, "error: truncation order must be an integer, got True"),
            ("boundary-consistency", {"points": 0}, "error: points must be >= 1, got 0"),
            ("bulk-consistency", {"points": 0}, "error: points must be >= 1, got 0"),
            ("regions", {"points": 0}, "error: points must be >= 1, got 0"),
            ("regions", {"points": 2.5}, "error: points must be an integer, got 2.5"),
            ("boundary-consistency", {"seed": "5"}, "error: seed must be an integer, got '5'"),
            ("bulk-consistency", {"seed": 1.5}, "error: seed must be an integer, got 1.5"),
            ("skew", {"seed": None}, "error: seed must be an integer, got None"),
            ("regions", {"seed": [1]}, "error: seed must be an integer, got [1]"),
            ("skew", {"pairs": 0}, "error: pairs must be >= 1, got 0"),
            ("skew", {"pairs": False}, "error: pairs must be an integer, got False"),
            ("bulk-consistency", {"charges": [[1, "x"]]}, "error: a charge must be a pair of integers [n, m], got [1, 'x']"),
            ("boundary-consistency", {"charges": [[1, "x"]]}, "error: a charge must be a pair of integers [n, m], got [1, 'x']"),
            ("bulk-consistency", {"charges": [[True, 0]]}, "error: a charge must be a pair of integers [n, m], got [True, 0]"),
            ("bulk-consistency", {"charges": [[1, 0, 0]]}, "error: a charge must be a pair of integers [n, m], got [1, 0, 0]"),
            ("boundary-consistency", {"charges": [[1.0, 0]]}, "error: a charge must be a pair of integers [n, m], got [1.0, 0]"),
            ("boundary-consistency", {"charges": {"n": 1}}, "error: charges must be a list of [n, m] integer pairs, got {'n': 1}"),
            ("bulk-consistency", {"charges": [[1, 0]] * 5}, "error: bulk-consistency takes at most 4 charges, got 5"),
            ("boundary-consistency", {"charges": [[1, 0]] * 3}, "error: boundary-consistency takes at most 2 charges, got 3"),
            ("bulk-consistency", {"tolerance": True, "R_squared": True}, "error: tolerance must be a number, got True"),
            ("boundary-consistency", {"tolerance": False}, "error: tolerance must be a number, got False"),
            ("boundary-consistency", {"tolerance": "1e-3"}, "error: tolerance must be a number, got '1e-3'"),
            ("bulk-consistency", {"tolerance": None}, "error: tolerance must be a number, got None"),
            ("bulk-consistency", {"R_squared": True}, "error: bad R_squared True"),
            ("boundary-consistency", {"R_squared": False}, "error: bad R_squared False"),
            ("skew", {"R_squared": True}, "error: bad R_squared True"),
            # the report would hold a non-finite number, which JSON has not
            ("boundary-consistency", {"tolerance": float("inf")}, "error: tolerance must be finite, got inf"),
            ("bulk-consistency", {"tolerance": float("nan")}, "error: tolerance must be finite, got nan"),
            ("boundary-consistency", {"tolerance": 10**400}, "error: tolerance must be finite, got inf"),
            # an order-1 expansion that sums to 0 at the base point: no phase ratio
            (
                "bulk-consistency",
                {"truncation": 1, "points": 1, "charges": [[0, 0], [0, 2], [0, 2]]},
                "error: expansion on (12)(34) vanishes at its base point at order 1: no phase to measure",
            ),
        ],
    )
    def test_consistency_bad_config_exit_2(self, capsys, tmp_path, suite, config, message):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"points": 2, **config}))
        code, out, err = run_cli(["verify", suite, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == message

    @given(case=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_malformed_config_fuzz(self, capsys, tmp_path, case):
        # only invalid values, so every call stops before a suite runs
        suite, key = case.draw(st.sampled_from(_FIELDS_READ))
        value = case.draw(_invalid(key, suite))
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(["verify", suite, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("suite", _SUITES)
    def test_unknown_config_field_exit_2(self, capsys, tmp_path, suite):
        # a misspelled field must not run the suite at its default value
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"points": 1, "truncaton": 5}))
        code, out, err = run_cli(["verify", suite, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: unknown config field 'truncaton'\n"

    @given(case=st.data())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_valid_config_fuzz(self, capsys, tmp_path, case):
        # valid, small configs: a verdict (exit 0 or 1) or one error line
        suite = case.draw(st.sampled_from(_SUITES))
        config = case.draw(_valid_config(suite))
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["verify", suite, "--config", str(cfg)], capsys)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert json.loads(out)["passed"] is (code == 0)

    @pytest.mark.parametrize("sign", ["+1", "-1"])
    def test_integer_reflection(self, capsys, tmp_path, sign):
        # the JSON integers 1 and -1 run exactly like the strings "+1", "-1"
        outs = []
        for value in (sign, int(sign)):
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps({"reflection": value, "box": 1}))
            code, out, _ = run_cli(["verify", "bootstrap", "--config", str(cfg)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["checks"][0]["params"]["rho"] == int(sign)

    def test_numeric_r_squared_and_tolerance(self, capsys, tmp_path):
        # JSON numbers are as good as strings and floats for these fields
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"R_squared": 2, "tolerance": 1, "truncation": 2, "points": 1}))
        code, out, _ = run_cli(["verify", "bulk-consistency", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["checks"][0]["tolerance"] == 1.0

    @pytest.mark.parametrize(
        "config",
        [
            {"charges": [[1200, 0]], "truncation": 2, "points": 1},
            {"charges": [[200, 0]], "truncation": 2, "points": 1},
            {"charges": [[0, 200]], "truncation": 4, "points": 2},
            {"R_squared": 3, "charges": [[300, 1]], "truncation": 2, "points": 1},
        ],
    )
    def test_power_out_of_range_exit_2(self, capsys, tmp_path, config):
        # a coordinate power beyond the largest double, integer or not, in
        # the series or in the closed form: one error line, no traceback
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["verify", "boundary-consistency", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.rstrip().endswith("out of floating-point range") and "Traceback" not in err

    @pytest.mark.parametrize(
        "config, digest",
        [
            (None, "ada03591d4c5588b02b63888dee69063c1052534bedf8e43a387fdea94940dca"),
            (
                {"R_squared": "11/6", "reflection": -1, "box": 4},
                "16ba58a4c85b59c698531d0b344235c609232bda3c2841cf6748f717d4781433",
            ),
            (
                {"R_squared": "5/7", "reflection": 1, "box": 3},
                "286c3c767f1fa57c18d18d70107cba30916f84cb2d6c2e09e248c0b66fa6b282",
            ),
            (
                {"R_squared": 3, "reflection": "-1", "box": 2},
                "0c35d177ec3ec10d37b4945a21e0ccf093e55c5c4b7c7ed3c6bf68e6995af392",
            ),
        ],
    )
    def test_bootstrap_stdout_bytes(self, capsys, tmp_path, config, digest):
        # sha256 of stdout as the greedy sigma solve printed it
        argv = ["verify", "bootstrap"]
        if config is not None:
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_config_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(["verify", "bootstrap", "--config", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_broken_pipe_exit_2(self, unbuffered):
        # stdout is a pipe whose reader is already gone; buffered, the
        # write fails at the final flush, unbuffered inside print
        env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "opetree.cli", "verify", "regions", "--seed", "5"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["--out", str(dest), "verify", "regions", "--seed", "5"], capsys
        )
        assert code == 0
        assert out == ""
        obj = json.loads(dest.read_text())
        assert obj["passed"] is True


# (suite, config key) for every field a suite validates
_FIELDS_READ = [
    ("bootstrap", "box"),
    *[(suite, key) for suite in ("boundary-consistency", "bulk-consistency")
      for key in ("truncation", "points", "seed", "charges", "tolerance")],
    *[(suite, "R_squared") for suite in ("bootstrap", "boundary-consistency", "bulk-consistency", "skew")],
    *[(suite, "reflection") for suite in ("bootstrap", "boundary-consistency", "bulk-consistency", "skew")],
    ("skew", "seed"),
    ("skew", "pairs"),
    ("regions", "seed"),
    ("regions", "points"),
]
_MINIMUM = {"box": 0, "truncation": 0, "points": 1, "pairs": 1}
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_not_int = _json.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))


def _invalid(key, suite):
    """Values of ``key`` that ``suite`` must reject."""
    if key == "charges":
        return _invalid_charges(suite)
    if key == "tolerance":
        return _json.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
    if key == "R_squared":
        # strings are parsed, so only the other JSON types are sure to fail
        return _json.filter(lambda v: isinstance(v, bool) or not isinstance(v, (str, int, float)))
    if key == "reflection":
        # only "+1", "-1" and the non-boolean integers 1 and -1 are valid
        return _json.filter(
            lambda v: v not in ("+1", "-1")
            and (isinstance(v, bool) or not isinstance(v, int) or v not in (1, -1))
        )
    if key in _MINIMUM:
        return _not_int | st.integers(max_value=_MINIMUM[key] - 1)
    return _not_int


def _valid_config(suite):
    """Small valid configs for ``suite``; the fields it does not read are
    valid too, and the optional ones fall back to their defaults."""
    pair = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    most = {"boundary-consistency": 2, "bulk-consistency": 4}.get(suite, 2)
    return st.fixed_dictionaries(
        {
            "truncation": st.integers(0, 6),
            "points": st.integers(1, 20 if suite == "regions" else 2),
            "pairs": st.integers(1, 2),
            "box": st.integers(0, 2),
        },
        optional={
            "R_squared": st.sampled_from(["1/2", "2", "3", "2/3", 1, 0.5]),
            "reflection": st.sampled_from(["+1", "-1", 1, -1]),
            "charges": st.lists(pair, min_size=suite == "boundary-consistency", max_size=most),
            "tolerance": st.floats(),
            "seed": st.integers(),
        },
    )


def _invalid_charges(suite):
    pair = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    bad_pair = _json.filter(
        lambda v: not (
            isinstance(v, list) and len(v) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in v)
        )
    )
    most = 2 if suite == "boundary-consistency" else 4
    shapes = [
        _json.filter(lambda v: not isinstance(v, list)),
        st.tuples(st.lists(pair, max_size=2), bad_pair, st.lists(pair, max_size=2)).map(
            lambda t: t[0] + [t[1]] + t[2]
        ),
        st.lists(pair, min_size=most + 1, max_size=most + 3),
    ]
    if suite == "boundary-consistency":
        shapes.append(st.just([]))
    return st.one_of(shapes)


class TestCanonicalJson:
    def test_float_digits(self):
        s = dumps_canonical({"x": 0.1, "y": [1.5, 2]})
        assert s == '{"x": 0.10000000000000001, "y": [1.5, 2]}'

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_entry_point_runs(self):
        # -W error: runpy warns if importing the package already imported cli
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "opetree.cli", "tree", "parse", "1(23)"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"tree": "1(23)"}


# Each subcommand imports only the opetree modules it uses, so a one-shot
# call compiles nothing else; a new top-level import shows up here.  None
# imports dataclasses or inspect (about 9 ms of a call's start-up).
_BASE = {"opetree", "opetree.cli", "opetree.trees"}
_LATTICE = _BASE | {"opetree.coords", "opetree.series", "opetree.latticecft"}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["tree", "parse", "(12)3"], 0, _BASE),
        (["tree", "double", "t(c1) o2"], 0, _BASE),
        (["tree", "parse", "((12)"], 2, _BASE),
        (["coords", "(12)3", "--at", "[1, 2, 3]"], 0, _BASE | {"opetree.coords"}),
        (["expand", "(12)3", "(z2-z1)^-1", "--N", "2"], 0, _BASE | {"opetree.coords", "opetree.series"}),
        (["braid", "perm", "s1 s2 s1"], 0, _BASE | {"opetree.braids"}),
        (["braid", "cable", "s1", "2", "s1"], 0, _BASE | {"opetree.braids"}),
        (["braid", "generator", "sigma"], 0, _BASE | {"opetree.braids", "opetree.coords"}),
        (["verify", "skew", "--seed", "3"], 0, _LATTICE),
        (["verify", "regions", "--seed", "5"], 0, _LATTICE),
    ],
)
def test_import_footprint(argv, code, loaded):
    child = (
        "import contextlib, io, json, sys\n"
        "from opetree import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'opetree'),\n"
        "                  sorted({'dataclasses', 'inspect'} & set(sys.modules))]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, sorted(loaded), []]
