"""Second routes the tests compare the library against.

Each helper computes independently something the library computes one
way only: the doubled composite, the doubled-label convention, tree
shapes, pure braids, the discrete invariants of a braid morphism and
the coefficient of one term of a series.
"""

from fractions import Fraction

from opetree.braids import BraidWord, PaPBMorphism, braid_permutation
from opetree.trees import (
    Leaf,
    Node,
    Tree,
    TreeError,
    _Empty,
    all_trees,
    compose,
    doubling,
    map_leaves,
    validate_colored,
)


def doubled_labels(e: Tree) -> dict[int, tuple[str, int]]:
    """Map each doubled-tree label to its coordinate meaning.

    Closed label k of the colored tree becomes ('z', k) at 2k-1 and
    ('zbar', k) at 2k; open label r+j becomes ('x', j) at 2r+j.
    """
    r, s, color = validate_colored(e)
    if color != "o":
        raise TreeError("doubling is defined for o-colored trees")
    out = {}
    for k in range(1, r + 1):
        out[2 * k - 1] = ("z", k)
        out[2 * k] = ("zbar", k)
    for j in range(1, s + 1):
        out[2 * r + j] = ("x", j)
    return out


def doubled_compose(e: Tree, p: int, x: Tree) -> Tree:
    """Compose the doubled trees directly, with the canonical relabeling.

    This is the image of colored composition under the doubling map,
    computed independently: plain compose at the doubled slot(s), then
    the coordinate-tracking renumbering back to the fixed convention.
    ``x`` = EMPTY at a closed slot erases both doubled leaves.  The
    second route in the doubling-functoriality tests.
    """
    re_, se, _ = validate_colored(e)
    rx, sx, xcol = (0, 0, "c") if isinstance(x, _Empty) else validate_colored(x)
    etil = doubling(e)

    if p <= re_:
        if xcol == "o":
            raise TreeError("closed slot needs a plain or c-colored argument")
        t = rx
        plain_x = map_leaves(x, lambda lf: Leaf(lf.label))
        step1 = compose(etil, 2 * p - 1, plain_x)
        step2 = compose(step1, 2 * p + t - 1, plain_x)
        # interleave the two contiguous copies back into z/zbar pairs
        relabel = {}
        for i in range(1, t + 1):
            relabel[2 * p - 2 + i] = 2 * p + 2 * i - 3
            relabel[2 * p + t - 2 + i] = 2 * p + 2 * i - 2
        return map_leaves(step2, lambda lf: Leaf(relabel.get(lf.label, lf.label)))

    if xcol != "o":
        raise TreeError("open slot needs an o-colored argument")
    j = p - re_
    q = 2 * re_ + j
    xtil = doubling(x)
    plain = compose(etil, q, xtil)
    r_new = re_ + rx
    relabel = {}
    for jp in range(1, j):  # earlier open leaves of e
        relabel[2 * re_ + jp] = 2 * r_new + jp
    for k in range(1, rx + 1):  # closed pairs of x
        relabel[q - 1 + 2 * k - 1] = 2 * (re_ + k) - 1
        relabel[q - 1 + 2 * k] = 2 * (re_ + k)
    for jpp in range(1, sx + 1):  # open leaves of x
        relabel[q - 1 + 2 * rx + jpp] = 2 * r_new + j + jpp - 1
    for jp in range(j + 1, se + 1):  # later open leaves of e, already shifted
        relabel[2 * re_ + jp + 2 * rx + sx - 1] = 2 * r_new + jp + sx - 1
    return map_leaves(plain, lambda lf: Leaf(relabel.get(lf.label, lf.label)))


def shape_of(t: Tree):
    """Shape with labels erased, as a nested tuple."""
    if isinstance(t, Leaf):
        return "*"
    if isinstance(t, Node):
        return (shape_of(t.left), shape_of(t.right))
    raise TreeError(f"not a plain tree: {t!r}")


def all_shapes(n: int) -> set:
    return {shape_of(t) for t in all_trees(range(1, n + 1))}


def is_pure(w: BraidWord) -> bool:
    return braid_permutation(w) == tuple(range(1, w.strands + 1))


def abelianization(w: BraidWord) -> dict:
    """Signed crossing counts per (unordered) strand pair, strands named
    by their starting positions."""
    at = list(range(w.strands + 1))
    counts: dict = {}
    for x in w.word:
        i = abs(x)
        a, b = at[i], at[i + 1]
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + (1 if x > 0 else -1)
        at[i], at[i + 1] = b, a
    return {k: v for k, v in counts.items() if v}


def invariants(m: PaPBMorphism) -> tuple:
    """Equality is not decided up to homotopy; these are the stored
    discrete invariants of a morphism: the permutation and the signed
    crossing counts per strand pair."""
    return (
        braid_permutation(m.word),
        tuple(sorted(abelianization(m.word).items())),
    )


def coefficient(s, exponents: dict) -> complex:
    """The coefficient of the log-free term of the series ``s`` with these
    exponents (zeros left out), or 0j: a scan of ``s.terms()``."""
    want = {v: Fraction(q) for v, q in exponents.items() if q}
    return next((c for exps, logs, c in s.terms() if exps == want and not logs), 0j)
