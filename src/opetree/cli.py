"""Command-line front end.

Subcommands: ``tree`` (parse/compose/permute/double), ``coords``,
``expand``, ``braid`` (perm/mirror/cable/generator), ``verify``
(bulk-consistency / boundary-consistency / bootstrap / skew / regions).

Every verify report is built by a check in :mod:`opetree.latticecft`;
the CLI validates the config and flags, calls the checks and prints
their reports.

Exit codes: 0 on success/pass, 1 on a failed verification, 2 on invalid
input (including unreadable files and a closed stdout pipe).  JSON output
is canonical: sorted keys, floats at 17 significant digits, so identical
invocations are byte-identical.

Start-up: the module level imports only ``argparse``, ``json`` and
``sys``.  Each subcommand imports the opetree modules it uses (``tree``
only :mod:`opetree.trees`, ``braid perm`` adds :mod:`opetree.braids`),
so a one-shot call compiles and runs nothing else.  The records are
plain classes (:class:`opetree.trees.Record`), so no module generates
per-class code at import or loads ``inspect``; ``tests/test_cli.py``
pins the modules per subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Canonical JSON: sorted keys, floats at 17 significant digits


def dumps_canonical(obj) -> str:
    parts = []
    _write_canonical(obj, parts)
    return "".join(parts)


def _write_canonical(obj, parts):
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(sorted(obj.items(), key=lambda kv: str(kv[0]))):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _write_canonical(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _write_canonical(v, parts)
        parts.append("]")
    elif isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, float):
        parts.append(f"{obj:.17g}")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, complex):
        parts.append(f"[{obj.real:.17g}, {obj.imag:.17g}]")
    else:
        parts.append(json.dumps(str(obj)))


def _emit(args, obj, text: str | None = None):
    if args.format == "text" and text is not None:
        payload = text
    else:
        payload = dumps_canonical(obj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


# ---------------------------------------------------------------------------
# Power-product mini-grammar: "(z2-z1)^-1 * z3^2"

_DIFF_RE = r"^\(\s*z(\d+)\s*-\s*z(\d+)\s*\)(?:\^(-?\d+(?:/\d+)?))?$"
_POW_RE = r"^z(\d+)(?:\^(\d+))?$"


def parse_power_product(text: str):
    """``text`` as a :class:`opetree.series.PowerProduct`."""
    import re
    from fractions import Fraction

    from opetree.series import PowerProduct

    diffs, powers = [], []
    for raw in text.split("*"):
        factor = raw.strip()
        if not factor:
            raise CliError("empty factor in power product")
        m = re.match(_DIFF_RE, factor)
        if m:
            i, j, exp = int(m.group(1)), int(m.group(2)), m.group(3)
            try:
                exponent = Fraction(exp) if exp else Fraction(1)
            except ZeroDivisionError:
                raise CliError(f"zero denominator in factor {factor!r}") from None
            diffs.append(((i, j), exponent))
            continue
        m = re.match(_POW_RE, factor)
        if m:
            powers.append((int(m.group(1)), int(m.group(2) or 1)))
            continue
        raise CliError(f"cannot parse factor {factor!r}")
    return PowerProduct(diffs=tuple(diffs), powers=tuple(powers))


# ---------------------------------------------------------------------------
# Model configuration

DEFAULT_CONFIG = {
    "R_squared": "2",
    "reflection": "+1",
    "charges": [[1, 0], [0, 1]],
    "truncation": 30,
    "tolerance": 1e-6,
    "seed": 1,
}
SUITE_FIELDS = {"points", "pairs", "box"}  # read by some suites, with their own defaults
# (attribute, flag, config field) of the verify flags; SUITES says which
# suite reads which
FLAGS = (("order", "--N", "truncation"), ("tol", "--tol", "tolerance"), ("seed", "--seed", "seed"))


def load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise CliError("config must be a JSON object")
        for key in loaded:
            if key not in DEFAULT_CONFIG and key not in SUITE_FIELDS:
                raise CliError(f"unknown config field {key!r}")
        cfg.update(loaded)
    for attr, flag, key in FLAGS:
        value = getattr(args, attr)
        if value is None:
            continue
        if flag not in SUITES[args.suite][1]:
            raise CliError(f"verify {args.suite} does not read {flag}")
        cfg[key] = value
    return cfg


def model_from_config(cfg):
    from fractions import Fraction

    from opetree import latticecft

    value = cfg["R_squared"]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError(f"bad R_squared {value!r}")
    try:
        rsq = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise CliError(f"bad R_squared {value!r}") from None
    model = latticecft.NarainModel(rsq)
    value = cfg["reflection"]
    if value in ("+1", "-1"):
        return model, int(value)
    if _is_int(value) and value in (1, -1):
        return model, value
    raise CliError(f"bad reflection {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _tolerance(cfg) -> float:
    """``cfg["tolerance"]`` as a float; it must be a finite JSON number
    (no boolean, string, inf or nan: reports hold the tolerance, and JSON
    has no non-finite number)."""
    value = cfg["tolerance"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"tolerance must be a number, got {value!r}")
    try:
        tol = float(value)
    except OverflowError:  # an integer beyond the largest double
        tol = math.inf
    if not math.isfinite(tol):
        raise CliError(f"tolerance must be finite, got {tol!r}")
    return tol


def _int_field(cfg, key, default=None, minimum=None, name=None) -> int:
    """``cfg[key]`` as a JSON integer (no boolean, float or string), at
    least ``minimum`` when one is given."""
    value = cfg.get(key, default)
    name = name or key
    if not _is_int(value):
        raise CliError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise CliError(f"{name} must be >= {minimum}, got {value}")
    return value


def _point(text: str) -> list:
    """``coords --at``: a JSON list of finite numbers (no boolean) or strings
    that ``complex()`` reads; the output is JSON, which has no inf or nan."""
    values = json.loads(text)
    if not isinstance(values, list):
        raise CliError(f"--at must be a JSON list, got {values!r}")
    point = []
    for k, value in enumerate(values, start=1):
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise TypeError
            z = complex(value)
        except (TypeError, ValueError):
            raise CliError(
                f"--at entry {k} must be a number or a complex string, got {value!r}"
            ) from None
        except OverflowError:  # an integer beyond the largest double
            z = complex(math.inf)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise CliError(f"--at entry {k} must be finite")
        point.append(z)
    return point


def _charges(cfg, most, suite) -> list:
    """The config's charges as tuples: at most ``most`` [n, m] integer pairs."""
    charges = cfg["charges"]
    if not isinstance(charges, list):
        raise CliError(f"charges must be a list of [n, m] integer pairs, got {charges!r}")
    for c in charges:
        if not (isinstance(c, list) and len(c) == 2 and all(map(_is_int, c))):
            raise CliError(f"a charge must be a pair of integers [n, m], got {c!r}")
    if len(charges) > most:
        raise CliError(f"{suite} takes at most {most} charges, got {len(charges)}")
    return [tuple(c) for c in charges]


# ---------------------------------------------------------------------------
# Subcommands


# The operands of each tree and braid action (PERM: comma separated
# images; a cable WORD may be '-', the empty word); a call with any other
# count exits 2, so no operand is silently dropped.
ACTIONS = {
    "tree": {"parse": "TREE", "compose": "TREE SLOT TREE", "permute": "TREE PERM", "double": "TREE"},
    "braid": {"perm": "WORD", "mirror": "WORD", "cable": "WORD SLOT WORD", "generator": "NAME"},
}


def _operands(args) -> list:
    """``args.expr``, checked against the action's operands in ACTIONS."""
    usage = ACTIONS[args.command][args.action]
    if len(args.expr) != len(usage.split()):
        raise CliError(f"{args.command} {args.action} takes {usage}, got {len(args.expr)} operands")
    return args.expr


def cmd_tree(args) -> int:
    from opetree import trees

    expr = _operands(args)
    if args.action == "parse":
        out = trees.parse_tree(expr[0])
    elif args.action == "compose":
        out = trees.compose(trees.parse_tree(expr[0]), int(expr[1]), trees.parse_tree(expr[2]))
    elif args.action == "permute":
        out = trees.permute(trees.parse_tree(expr[0]), [int(x) for x in expr[1].split(",")])
    else:  # double
        out = trees.doubling(trees.parse_tree(expr[0]))
    text = trees.format_tree(out)
    _emit(args, {"tree": text}, text)
    return 0


def cmd_coords(args) -> int:
    from opetree import coords, trees

    a = trees.parse_tree(args.tree)
    cs = coords.a_coordinates(a)
    desc = cs.describe()
    obj = {"tree": trees.format_tree(a), "coordinates": desc}
    if args.at:
        cv = coords.psi(cs, _point(args.at))
        obj["values"] = {
            "zA": cv.z,
            "xA": cv.x,
            **{f"ze{k}": z for k, z in enumerate(cv.zeta)},
        }
    lines = [f"{k} = {v}" for k, v in desc.items()]
    lines += [f"value of {k} = {v}" for k, v in obj.get("values", {}).items()]
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_expand(args) -> int:
    from opetree import series, trees

    a = trees.parse_tree(args.tree)
    f = parse_power_product(args.function)
    ex = series.expand(a, f, args.order if args.order is not None else 8)
    obj = {
        "tree": trees.format_tree(a),
        "function": args.function,
        "order": ex.series.order,
        "negative_sign_pairs": [list(p) for p in ex.negative_pairs],
        "terms": series.series_to_obj(ex.series),
    }
    text = None
    if args.format == "text":
        text = "\n".join(
            f"{t['exponents']}  logs={t['logs']}  {t['re']:+.6g}{t['im']:+.6g}i"
            for t in obj["terms"]
        )
    _emit(args, obj, text)
    return 0


def cmd_braid(args) -> int:
    # text forms: a permutation as PERM operands, a word as WORD ones ('-' if empty)
    from opetree import braids, trees

    expr = _operands(args)
    if args.action == "perm":
        w = braids.parse_braid_word(expr[0], strands=args.strands)
        perm = list(braids.braid_permutation(w))
        _emit(args, {"permutation": perm}, ",".join(map(str, perm)))
        return 0
    if args.action == "mirror":
        w = braids.parse_braid_word(expr[0], strands=args.strands)
        out = braids.mirror(w)
        word = braids.format_braid_word(out)
        _emit(args, {"word": word, "strands": out.strands}, word or "-")
        return 0
    if args.action == "cable":
        g = braids.parse_braid_word("" if expr[0] == "-" else expr[0], strands=args.strands)
        p = int(expr[1])
        h_text = expr[2]
        if h_text == "0":
            h = braids.BraidWord(0, ())
        else:
            h = braids.parse_braid_word("" if h_text == "-" else h_text)
        out = braids.cable_compose(g, p, h)
        word = braids.format_braid_word(out)
        _emit(
            args,
            {
                "word": word,
                "strands": out.strands,
                "permutation": list(braids.braid_permutation(out)),
            },
            word or "-",
        )
        return 0
    # generator: the word's strands follow from the tree
    if args.strands is not None:
        raise CliError("braid generator does not read --strands")
    g = braids.papb_generator(expr[0])
    source, target = trees.format_tree(g.source), trees.format_tree(g.target)
    word = braids.format_braid_word(g.word)
    _emit(
        args,
        {
            "source": source,
            "target": target,
            "word": word,
            "strands": g.word.strands,
            "coloring": [list(map(str, tag)) for tag in g.source_frame],
        },
        f"{source} -> {target}: {word or '-'}",
    )
    return 0


def _verify_bootstrap(cfg):
    from opetree import latticecft

    model, rho = model_from_config(cfg)
    bd = latticecft.build_boundary(model, rho)
    return [latticecft.bootstrap_check(model, bd, cfg.get("box", 5))]


def _verify_boundary(cfg):
    from opetree import latticecft, trees

    charges = _charges(cfg, 2, "boundary-consistency")
    if not charges:
        raise CliError("boundary-consistency needs at least one charge")
    alpha = charges[0]
    beta = charges[1] if len(charges) > 1 else (0, 1)
    seed = _int_field(cfg, "seed")
    order = _int_field(cfg, "truncation", minimum=0, name="truncation order")
    tol = _tolerance(cfg)
    pts = _int_field(cfg, "points", 10, minimum=1)
    model, rho = model_from_config(cfg)
    bd = latticecft.build_boundary(model, rho)
    rep1 = latticecft.expansion_consistency_check(
        model,
        [trees.parse_tree("t(c1)o2"), trees.parse_tree("o2t(c1)")],
        [alpha],
        order,
        tol,
        pts,
        seed,
        bd=bd,
        bdry_charges=[bd.t_coeff(beta)],
    )
    rep2 = latticecft.expansion_consistency_check(
        model,
        [trees.parse_tree("(t(c1))(t(c2))"), trees.parse_tree("t(c1c2)")],
        [alpha, beta],
        order,
        tol,
        pts,
        seed + 1,
        bd=bd,
    )
    return [rep1, rep2]


def _verify_bulk(cfg):
    from opetree import latticecft, trees

    charges = _charges(cfg, 4, "bulk-consistency")
    charges += [(0, 0)] * (4 - len(charges))
    seed = _int_field(cfg, "seed")
    order = _int_field(cfg, "truncation", minimum=0, name="truncation order")
    tol = _tolerance(cfg)
    pts = _int_field(cfg, "points", 6, minimum=1)
    model, _ = model_from_config(cfg)
    tree_list = [
        trees.parse_tree("1(2(34))"),
        trees.parse_tree("(12)(34)"),
        trees.parse_tree("((12)3)4"),
    ]
    rep = latticecft.expansion_consistency_check(
        model,
        tree_list,
        charges,
        order,
        tol,
        pts,
        seed,
    )
    rep2 = latticecft.single_valuedness_check(model, charges, n_samples=4, seed=seed + 1)
    return [rep, rep2]


def _verify_skew(cfg):
    import random

    from opetree import latticecft

    seed = _int_field(cfg, "seed")
    n_pairs = _int_field(cfg, "pairs", 10, minimum=1)
    model, _ = model_from_config(cfg)
    rng = random.Random(seed)
    pairs = [
        ((rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(-2, 2), rng.randint(-2, 2)))
        for _ in range(n_pairs)
    ]
    return [latticecft.skew_symmetry_check(model, pairs, n_samples=10, seed=seed + 1)]


def _verify_regions(cfg):
    from opetree import latticecft

    seed = _int_field(cfg, "seed")
    n = _int_field(cfg, "points", 1000, minimum=1)
    return [latticecft.regions_check(seed, n)]


# verify suite -> (runner, the FLAGS it reads); a suite rejects the others,
# so a requested value is never dropped
SUITES = {
    "bulk-consistency": (_verify_bulk, ("--N", "--tol", "--seed")),
    "boundary-consistency": (_verify_boundary, ("--N", "--tol", "--seed")),
    "bootstrap": (_verify_bootstrap, ()),
    "skew": (_verify_skew, ("--seed",)),
    "regions": (_verify_regions, ("--seed",)),
}


def cmd_verify(args) -> int:
    cfg = load_config(args)
    reports = SUITES[args.suite][0](cfg)
    passed = all(r.passed for r in reports)
    obj = {
        "suite": args.suite,
        "passed": passed,
        "checks": [r.to_obj() for r in reports],
    }
    text = "\n".join(r.text() for r in reports)
    _emit(args, obj, text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opetree",
        description="Tree-operad OPE calculus: trees, coordinates, series, braids, lattice model verification",
    )
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--out", help="write output to a file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p_tree = sub.add_parser("tree", help="parse/compose/permute/double trees")
    p_tree.add_argument("action", choices=ACTIONS["tree"])
    p_tree.add_argument("expr", nargs="+")
    p_tree.set_defaults(func=cmd_tree)

    p_coords = sub.add_parser("coords", help="tree coordinate system")
    p_coords.add_argument("tree")
    p_coords.add_argument("--at", help="JSON list of complex coordinates to evaluate at")
    p_coords.set_defaults(func=cmd_coords)

    p_expand = sub.add_parser("expand", help="expand a power product in tree coordinates")
    p_expand.add_argument("tree")
    p_expand.add_argument("function", help='e.g. "(z2-z1)^-1 * z3^2"')
    p_expand.add_argument("--N", dest="order", type=int)
    p_expand.set_defaults(func=cmd_expand)

    p_braid = sub.add_parser("braid", help="braid word operations")
    p_braid.add_argument("action", choices=ACTIONS["braid"])
    p_braid.add_argument("expr", nargs="+")
    p_braid.add_argument("--strands", type=int)
    p_braid.set_defaults(func=cmd_braid)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--config", help="model config JSON path")
    p_verify.add_argument("--N", dest="order", type=int)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    # every opetree error and CliError is a ValueError
    except (OSError, ValueError) as err:
        if isinstance(err, BrokenPipeError):
            import os

            # the reader is gone: send what is still buffered, and the
            # interpreter's flush at exit, to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
