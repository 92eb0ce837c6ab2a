"""Braid words, cabling, and braid morphisms between plain and colored trees.

Conventions, fixed once and used consistently with the numeric
continuation tests: words apply left to right (first letter = first
crossing); the positive generator s_i takes the strand at position i
over the strand at position i+1, i.e. a counterclockwise half-rotation
of the two points in the plane; complex conjugation of paths is
:func:`mirror` (negate every crossing).

A morphism, :class:`PaPBMorphism`, is two trees and a braid word
between them.  Its *frames*, the tag each strand position carries at
the two ends, are computed from the trees by :func:`rank_frame` in one
leaf walk and checked against the word at construction: leaf labels for
plain trees (PaB), and for o-colored trees (PaPB) the doubled tags
('z', k), ('zbar', k), ('x', j) in leaf order, each bulk point before
its conjugate.  One operadic composition, :func:`papb_compose`,
composes both, and its composites chain with :meth:`PaPBMorphism.then`.
Morphisms are equal when their trees and words are; equality is not
decided up to homotopy.
"""

from __future__ import annotations

from opetree.trees import (
    ClosedLeaf,
    Frozen,
    OpenLeaf,
    Tree,
    compose,
    map_leaves,
    parse_tree,
    require_int,
    validate_colored,
)


class BraidError(ValueError):
    """Invalid braid word or morphism data."""


class BraidWord(Frozen):
    """A word in the braid group on ``strands`` strands.

    ``word`` is a tuple of signed generator indices: +i for s_i, -i for
    its inverse, 1 <= i <= strands-1.
    """

    __slots__ = _fields = ("strands", "word")
    _defaults = {"word": ()}

    def __post_init__(self):
        if require_int(self.strands, "strand count", BraidError) < 0:
            raise BraidError("negative strand count")
        word = tuple(require_int(x, "braid letter", BraidError) for x in self.word)
        object.__setattr__(self, "word", word)
        for x in self.word:
            if x == 0 or not 1 <= abs(x) <= self.strands - 1:
                raise BraidError(
                    f"generator {x} out of range for {self.strands} strands"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise BraidError("strand count mismatch in concatenation")
        return BraidWord(self.strands, self.word + other.word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.word)))


def identity_braid(n: int) -> BraidWord:
    return BraidWord(n, ())


def braid_permutation(w: BraidWord) -> tuple:
    """One-line permutation: entry i-1 is where strand starting at i ends."""
    pos = list(range(w.strands + 1))  # pos[k] = current position of strand k
    at = list(range(w.strands + 1))  # at[p] = strand currently at position p
    for x in w.word:
        i = abs(x)
        a, b = at[i], at[i + 1]
        at[i], at[i + 1] = b, a
        pos[a], pos[b] = i + 1, i
    return tuple(pos[1:])


def mirror(w: BraidWord) -> BraidWord:
    """Complex conjugation of the underlying paths: negate every crossing."""
    return BraidWord(w.strands, tuple(-x for x in w.word))


def cable_compose(g: BraidWord, p: int, h: BraidWord) -> BraidWord:
    """Replace strand ``p`` of ``g`` by ``h`` made thin (m parallel strands).

    Each crossing of the wide strand with a thin strand expands to m
    adjacent crossings of the same sign; crossings of two thin strands
    stay single; ``h`` is appended at the wide strand's final position.
    With m = 0 the strand is deleted: its crossings are removed and
    higher indices decrement.
    """
    n, m = g.strands, h.strands
    if not 1 <= require_int(p, "strand", BraidError) <= n:
        raise BraidError(f"strand {p} out of range 1..{n}")
    wide = p
    out = []
    for x in g.word:
        i, sgn = abs(x), (1 if x > 0 else -1)
        if i == wide:
            # wide block [i .. i+m-1] crosses the thin strand at i+m
            out.extend(sgn * (i + m - 1 - k) for k in range(m))
            wide = i + 1
        elif i + 1 == wide:
            # thin strand at i crosses the wide block [i+1 .. i+m]
            out.extend(sgn * (i + k) for k in range(m))
            wide = i
        else:
            out.append(sgn * (i + (m - 1 if i > wide else 0)))
    shift = wide - 1
    out.extend((abs(x) + shift) * (1 if x > 0 else -1) for x in h.word)
    return BraidWord(n + m - 1, tuple(out))


def block_substitution(pg: tuple, p: int, ph: tuple) -> tuple:
    """Substitute permutation ``ph`` into slot ``p`` of ``pg`` blockwise.

    The permutation-level shadow of :func:`cable_compose`.
    """
    n, m = len(pg), len(ph)
    gp = pg[p - 1]

    def widen(v):
        return v + (m - 1 if v > gp else 0)

    out = []
    for x in range(1, p):
        out.append(widen(pg[x - 1]))
    for k in range(1, m + 1):
        out.append(gp - 1 + ph[k - 1])
    for x in range(p + 1, n + 1):
        out.append(widen(pg[x - 1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Braid morphisms between trees


def rank_frame(e: Tree) -> tuple:
    """The tag each strand position of a plain or o-colored tree carries,
    read in one leaf walk: a plain leaf gives its label, closed leaf k
    gives ('z', k), ('zbar', k) and open leaf r+j gives ('x', j).  For an
    o-colored tree this is the rank order of the doubled coordinates at
    the canonical base configuration: decreasing real part, bulk point
    before its conjugate.  A c-colored tree has no frame."""
    r, _, color = validate_colored(e)
    if color == "c":
        raise BraidError("a c-colored tree has no braid frame")
    tags = []

    def tag(x):
        if isinstance(x, ClosedLeaf):
            tags.extend((("z", x.label), ("zbar", x.label)))
        else:
            tags.append(("x", x.label - r) if isinstance(x, OpenLeaf) else x.label)

    map_leaves(e, tag)
    return tuple(tags)


class PaPBMorphism(Frozen):
    """A braid word between two trees, plain (PaB) or o-colored (PaPB).

    The fields are ``source``, ``target`` and ``word``.  Construction
    computes the trees' :func:`rank_frame`s, the tag carried by each
    strand position at the two ends, and keeps them as ``source_frame``
    and ``target_frame``; it raises :class:`BraidError` unless the word's
    permutation carries every source tag to the same tag in the target
    frame.  So every morphism, unpickled ones too, is checked when built.
    """

    __slots__ = ("source", "target", "word", "source_frame", "target_frame")
    _fields = ("source", "target", "word")

    def __post_init__(self):
        src, tgt = rank_frame(self.source), rank_frame(self.target)
        n = self.word.strands
        if len(src) != n or len(tgt) != n:
            raise BraidError("frame length does not match strand count")
        if sorted(src) != sorted(tgt):
            raise BraidError("source and target frames carry different tags")
        perm = braid_permutation(self.word)
        for i in range(n):
            if src[i] != tgt[perm[i] - 1]:
                raise BraidError(f"strand {i+1} carries {src[i]} but lands on {tgt[perm[i]-1]}")
        object.__setattr__(self, "source_frame", src)
        object.__setattr__(self, "target_frame", tgt)

    def then(self, other: "PaPBMorphism") -> "PaPBMorphism":
        if self.target != other.source:
            raise BraidError("composition needs matching middle tree")
        return PaPBMorphism(self.source, other.target, self.word * other.word)


def papb_identity(e: Tree) -> PaPBMorphism:
    return PaPBMorphism(e, e, identity_braid(len(rank_frame(e))))


_GENERATORS = {
    "alpha_o": ("(o1o2)o3", "o1(o2o3)", ()),
    "alpha_c": ("t((c1c2)c3)", "t(c1(c2c3))", ()),
    "sigma": ("t(c1c2)", "t(c2c1)", (-2, 1, -3, 2)),
    "p": ("t(c1)o2", "o2t(c1)", (-2, 1)),
    "q": ("t(c1c2)", "t(c1)t(c2)", ()),
}


def papb_generator(name: str) -> PaPBMorphism:
    """One of the five operadic generators of the colored braid groupoid.

    sigma is the doubled half-twist (positive over the bulk strands,
    negative over their conjugates); p moves a bulk pair past a boundary
    strand (positive above, negative below); alpha_o, alpha_c and the
    contraction q are crossingless in the rank frames.
    """
    key = name.replace("αo", "alpha_o").replace("αc", "alpha_c").replace("σ", "sigma")
    if key not in _GENERATORS:
        raise BraidError(f"unknown generator {name!r}; choose from {sorted(_GENERATORS)}")
    src, tgt, word = _GENERATORS[key]
    e = parse_tree(src)
    return PaPBMorphism(e, parse_tree(tgt), BraidWord(len(rank_frame(e)), word))


def _pairing(n: int, p: int, m: int) -> BraidWord:
    """The positive permutation braid on n strands that takes the block
    z1..zm zbar1..zbarm at positions p..p+2m-1 to z1 zbar1 ... zm zbarm:
    each zbar_i moves left past z_(i+1)..z_m."""
    letters = (p - 1 + j for i in range(1, m) for j in range(m + i - 1, 2 * i - 1, -1))
    return BraidWord(n, tuple(letters))


def papb_compose(mu: PaPBMorphism, slot: int, nu: PaPBMorphism) -> PaPBMorphism:
    """Operadic composition: cable the strands of ``mu``'s slot by ``nu``.

    A plain ``mu`` takes a plain ``nu`` at the leaf labeled ``slot``
    (PaB), a colored ``mu`` a colored ``nu`` at an open slot, and a plain
    m-strand ``nu`` at a closed slot: doubled as (nu, mirror nu), cabled
    at z_slot, then zbar_slot, with the block z1..zm zbar1..zbarm this
    leaves at each end paired by :func:`_pairing`.  The empty plain ``nu``
    deletes the leaf, or the bulk point with both its strands.  Trees
    compose via :func:`compose`, and the composite is checked against
    their rank frames when built.
    """
    r, s, color = validate_colored(mu.source)
    if not 1 <= require_int(slot, "slot", BraidError) <= r + s:
        raise BraidError(f"slot {slot} out of range 1..{r + s}")
    if (validate_colored(nu.source)[2] != "plain") != (slot > r):
        raise BraidError(f"slot {slot} needs a {'colored' if slot > r else 'plain'} argument")
    ends = (compose(mu.source, slot, nu.source), compose(mu.target, slot, nu.target))
    if color == "plain" or slot > r:
        hole = slot if color == "plain" else ("x", slot - r)
        word = cable_compose(mu.word, mu.source_frame.index(hole) + 1, nu.word)
        return PaPBMorphism(*ends, word)
    m = nu.word.strands
    p, q = (f.index(("z", slot)) + 1 for f in (mu.source_frame, mu.target_frame))
    word = cable_compose(cable_compose(mu.word, p, nu.word), p + m, mirror(nu.word))
    n = word.strands
    return PaPBMorphism(*ends, _pairing(n, p, m).inverse() * word * _pairing(n, q, m))


# ---------------------------------------------------------------------------
# Text format: "s1 s2^-1 s1"


def parse_braid_word(text: str, strands: int | None = None) -> BraidWord:
    letters = []
    maxi = 0
    for tok in text.split():
        body = tok
        sign = 1
        if "^" in tok:
            body, exp = tok.split("^", 1)
            if exp not in ("-1", "1"):
                raise BraidError(f"unsupported exponent {exp!r} in {tok!r}")
            sign = -1 if exp == "-1" else 1
        if not body.startswith("s") or not body[1:].isdecimal():
            raise BraidError(f"bad braid letter {tok!r}")
        i = int(body[1:])
        if i < 1:
            raise BraidError(f"bad generator index in {tok!r}")
        maxi = max(maxi, i)
        letters.append(sign * i)
    n = strands if strands is not None else (maxi + 1 if letters else 1)
    return BraidWord(n, tuple(letters))


def format_braid_word(w: BraidWord) -> str:
    return " ".join(f"s{abs(x)}" + ("^-1" if x < 0 else "") for x in w.word)
