"""Seeded ``opetree`` CLI invocations and the checks on their output.

A round is a fixed mix of one-shot calls covering trees, coords, braids,
series expansion and three verify suites.  Every call must exit 0 with
canonical JSON on stdout and nothing on stderr; each kind of call also has
a check on its content, computed here with the library.  For the default
seed, stdout must also match the recorded golden digests byte for byte.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from opetree import braids, coords, trees

GOLDEN = Path(__file__).with_name("golden_cli.json")
DEFAULT_SEED = 1
EXPAND_TOL = 1e-6
ROUNDTRIP_TOL = 1e-12

COLORED_TREES = (
    "t(c1)o2",
    "o2t(c1)",
    "t(c1c2)",
    "t(c2c1)",
    "(t(c1))(t(c2))",
    "t(c1)(o2o3)",
    "t((c1c2)c3)",
    "(o1o2)o3",
    "(t(c1)o2)o3",
    "t(c1)(t(c2)o3)",
    "t(c1(c2c3))o4",
)
GENERATORS = ("alpha_o", "alpha_c", "sigma", "p", "q")
EXPONENTS = ("-2", "-1", "-1/2", "1/2", "3/2", "1/3", "-2/3")
EXPAND_ORDERS = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16)


def tree_text(rng, labels) -> str:
    """Random binary bracketing of a shuffled label list, compact grammar."""

    def build(ls):
        if len(ls) == 1:
            return str(ls[0]), True
        k = rng.randint(1, len(ls) - 1)
        left, right = build(ls[:k]), build(ls[k:])
        return "".join(s if leaf else f"({s})" for s, leaf in (left, right)), False

    labels = list(labels)
    rng.shuffle(labels)
    return build(labels)[0]


def braid_text(rng, strands, length) -> str:
    return " ".join(
        f"s{rng.randint(1, strands - 1)}" + rng.choice(("", "^-1")) for _ in range(length)
    )


def leaf_order(text: str) -> list:
    return [int(ch) for ch in text if ch.isdigit()]


def make_round(rng) -> list:
    """The seeded calls of one round: a list of (kind, argv) pairs."""
    calls = []
    for _ in range(4):
        calls.append(("parse", ["tree", "parse", tree_text(rng, range(1, rng.randint(4, 8)))]))
    for _ in range(4):
        n, m = rng.randint(3, 5), rng.randint(2, 4)
        calls.append(
            (
                "compose",
                ["tree", "compose", tree_text(rng, range(1, n + 1)), str(rng.randint(1, n)),
                 tree_text(rng, range(1, m + 1))],
            )
        )
    for text in rng.sample(COLORED_TREES, 3):
        calls.append(("double", ["tree", "double", text]))
    for _ in range(4):
        n = rng.randint(4, 6)
        point = [f"{rng.uniform(-2, 2):.3f}{rng.uniform(-2, 2):+.3f}j" for _ in range(n)]
        calls.append(
            ("coords", ["coords", tree_text(rng, range(1, n + 1)), "--at", json.dumps(point)])
        )
    for _ in range(3):
        n = rng.randint(3, 5)
        calls.append(("perm", ["braid", "perm", braid_text(rng, n, rng.randint(4, 10)),
                               "--strands", str(n)]))
    for _ in range(4):
        n, m = rng.randint(2, 4), rng.randint(2, 3)
        calls.append(
            (
                "cable",
                ["braid", "cable", braid_text(rng, n, rng.randint(2, 6)), str(rng.randint(1, n)),
                 braid_text(rng, m, rng.randint(1, 4)), "--strands", str(n)],
            )
        )
    for name in rng.sample(GENERATORS, 3):
        calls.append(("generator", ["braid", "generator", name]))
    # The expand calls and the verify suites are the round's slowest quarter;
    # their sizes follow a fixed pattern so that every seed's round does
    # about the same work.
    for idx, order_n in enumerate(EXPAND_ORDERS):
        n = 4 + idx % 3
        text = tree_text(rng, range(1, n + 1))
        order = leaf_order(text)
        factors = []
        for _ in range(2 + idx % 2):
            a, b = sorted(rng.sample(range(n), 2))
            factors.append(f"(z{order[a]}-z{order[b]})^{rng.choice(EXPONENTS)}")
        if idx % 4 < 2:
            factors.append(f"z{rng.randint(1, n)}^2")
        calls.append(("expand", ["expand", text, " * ".join(factors), "--N", str(order_n)]))
    calls.append(("verify", ["verify", "regions", "--seed", str(rng.randrange(1000))]))
    calls.append(("verify", ["verify", "skew", "--seed", str(rng.randrange(1000))]))
    calls.append(("verify", ["verify", "bulk-consistency", "--seed", str(rng.randrange(1000))]))
    return calls


# ---------------------------------------------------------------------------
# Checks: each returns (ok, relative error or None) for one call's stdout.


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _check_parse(argv, obj):
    return trees.parse_tree(obj["tree"]) == trees.parse_tree(argv[2]), None


def _check_compose(argv, obj):
    want = trees.compose(trees.parse_tree(argv[2]), int(argv[3]), trees.parse_tree(argv[4]))
    return trees.parse_tree(obj["tree"]) == want, None


def _check_double(argv, obj):
    return trees.parse_tree(obj["tree"]) == trees.doubling(trees.parse_tree(argv[2])), None


def _check_coords(argv, obj):
    cs = coords.a_coordinates(trees.parse_tree(argv[1]))
    vals = obj["values"]
    cv = coords.CoordValues(
        x=_complex(vals["xA"]),
        z=_complex(vals["zA"]),
        zeta=tuple(_complex(vals[f"ze{k}"]) for k in range(cs.n_edges)),
    )
    point = [complex(w) for w in json.loads(argv[3])]
    back = coords.psi_inverse(cs, cv)
    err = max(abs(a - b) for a, b in zip(back, point)) / max(abs(z) for z in point)
    return err <= ROUNDTRIP_TOL, err


def _check_perm(argv, obj):
    word = braids.parse_braid_word(argv[2], strands=int(argv[4]))
    return obj["permutation"] == list(braids.braid_permutation(word)), None


def _check_cable(argv, obj):
    # cabling functoriality: the permutation of the cable is the block
    # substitution of the two permutations
    g = braids.parse_braid_word(argv[2], strands=int(argv[6]))
    h = braids.parse_braid_word(argv[4])
    want = braids.block_substitution(
        braids.braid_permutation(g), int(argv[3]), braids.braid_permutation(h)
    )
    return obj["permutation"] == list(want) and obj["strands"] == len(want), None


def _check_generator(argv, obj):
    r, s, _ = trees.validate_colored(trees.parse_tree(obj["source"]))
    r2, s2, _ = trees.validate_colored(trees.parse_tree(obj["target"]))
    return (r, s) == (r2, s2) and obj["strands"] == 2 * r + s, None


def _check_expand(argv, obj):
    """The printed series, summed at a deep nested point, matches the
    closed form there.  Factors follow the leaf order, so every difference
    is positive real at that point and no branch choice is involved."""
    tree = trees.parse_tree(argv[1])
    point = coords.nested_configuration(tree, shrink=0.05)
    cs = coords.a_coordinates(tree)
    values = coords.psi(cs, point).as_dict(cs.var_names())
    got = 0j
    for term in obj["terms"]:
        value = complex(term["re"], term["im"])
        for var, q in term["exponents"].items():
            value *= _power(values[var], Fraction(q))
        got += value
    want = 1.0 + 0j
    for factor in argv[2].split(" * "):
        if factor.startswith("("):
            pair, q = factor[1:].split(")^")
            i, j = (int(v) for v in pair.replace("z", "").split("-"))
            want *= _power(point[i - 1] - point[j - 1], Fraction(q))
        else:
            i, k = factor[1:].split("^")
            want *= point[int(i) - 1] ** int(k)
    err = abs(got - want) / abs(want)
    return err <= EXPAND_TOL and not obj["negative_sign_pairs"], err


def _power(value: complex, q: Fraction) -> complex:
    if q.denominator == 1:
        return value ** int(q)
    return cmath.exp(q * cmath.log(value))


def _check_verify(argv, obj):
    errs = [c["max_rel_err"] for c in obj["checks"]]
    return obj["passed"] is True, max(errs)


CHECKS = {
    "parse": _check_parse,
    "compose": _check_compose,
    "double": _check_double,
    "coords": _check_coords,
    "perm": _check_perm,
    "cable": _check_cable,
    "generator": _check_generator,
    "expand": _check_expand,
    "verify": _check_verify,
}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def check_call(kind, argv, code, stdout, stderr, golden=None):
    """Verdict on one call: exit 0, empty stderr, canonical JSON that passes
    the kind's check and, when a golden entry is given, the same argv and
    stdout digest.  Returns (ok, relative error or None)."""
    if code != 0 or stderr:
        return False, None
    if golden is not None and (golden["argv"] != argv or golden["sha256"] != digest(stdout)):
        return False, None
    try:
        obj = json.loads(stdout)
        return CHECKS[kind](argv, obj)
    except (ValueError, KeyError, TypeError, IndexError):
        return False, None
