"""Braid words, cabling, and braid morphisms between plain and colored trees.

Conventions, fixed once and used consistently with the numeric
continuation tests: words apply left to right (first letter = first
crossing); the positive generator s_i takes the strand at position i
over the strand at position i+1, i.e. a counterclockwise half-rotation
of the two points in the plane; complex conjugation of paths is
:func:`mirror` (negate every crossing).

One record, :class:`PaPBMorphism`, holds a braid word between two trees
and a *frame* at each end: the tag each strand position carries.  For
plain trees (PaB) the frame is the leaf labels in leaf order; for
o-colored trees (PaPB) it is the doubled tags ('z', k), ('zbar', k),
('x', j), in the *rank frame* of the canonical base configurations:
coordinates sorted by decreasing real part, bulk point before its
conjugate.  One operadic composition, :func:`papb_compose`, composes
both.  Morphism equality is not decided up to homotopy; the stored
invariants are the permutation and the signed crossing counts per
strand pair.
"""

from __future__ import annotations

from opetree.trees import (
    Frozen,
    Tree,
    compose,
    doubled_labels,
    leaf_order,
    parse_tree,
    require_int,
    validate_colored,
    validate_tree,
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


def is_pure(w: BraidWord) -> bool:
    return braid_permutation(w) == tuple(range(1, w.strands + 1))


def mirror(w: BraidWord) -> BraidWord:
    """Complex conjugation of the underlying paths: negate every crossing."""
    return BraidWord(w.strands, tuple(-x for x in w.word))


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


def cable_compose(g: BraidWord, p: int, h: BraidWord) -> BraidWord:
    """Replace strand ``p`` of ``g`` by ``h`` made thin (m parallel strands).

    Each crossing of the wide strand with a thin strand expands to m
    adjacent crossings of the same sign; crossings of two thin strands
    stay single; ``h`` is appended at the wide strand's final position.
    With m = 0 the strand is deleted: its crossings are removed and
    higher indices decrement.
    """
    n, m = g.strands, h.strands
    if not 1 <= p <= n:
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
    """Strand order of the doubled coordinates at the canonical base
    configuration: decreasing real part, bulk point before conjugate.

    Returns a tuple of tags ('z', k) / ('zbar', k) / ('x', j).
    """
    # coords is needed only here, so braid-word commands never load it
    from opetree.coords import nested_configuration_open, phi_embedding

    r, s, _ = validate_colored(e)
    tags = doubled_labels(e)
    base = phi_embedding(nested_configuration_open(e), r, s)
    order = sorted(
        range(1, 2 * r + s + 1), key=lambda k: (-base[k - 1].real, -base[k - 1].imag)
    )
    return tuple(tags[k] for k in order)


class PaPBMorphism(Frozen):
    """A braid word between two trees, plain (PaB) or o-colored (PaPB).

    ``source_frame``/``target_frame`` give the tag carried by each strand
    position at the two ends: leaf labels in leaf order for plain trees,
    doubled coordinate tags for colored ones.  Validity means the word's
    permutation transports every source tag to the same tag in the
    target frame.
    """

    __slots__ = _fields = ("source", "target", "word", "source_frame", "target_frame")

    def then(self, other: "PaPBMorphism") -> "PaPBMorphism":
        if (self.target, self.target_frame) != (other.source, other.source_frame):
            raise BraidError("composition needs matching middle tree and frame")
        frames = (self.source_frame, other.target_frame)
        return _validate(PaPBMorphism(self.source, other.target, self.word * other.word, *frames))

    def invariants(self) -> tuple:
        """Equality is not decided up to homotopy; these are the stored
        discrete invariants: the permutation and the signed crossing
        counts per strand pair."""
        return (
            braid_permutation(self.word),
            tuple(sorted(abelianization(self.word).items())),
        )


def _validate(m: PaPBMorphism) -> PaPBMorphism:
    n = m.word.strands
    if len(m.source_frame) != n or len(m.target_frame) != n:
        raise BraidError("frame length does not match strand count")
    if sorted(m.source_frame) != sorted(m.target_frame):
        raise BraidError("source and target frames carry different tags")
    perm = braid_permutation(m.word)
    for i in range(n):
        if m.source_frame[i] != m.target_frame[perm[i] - 1]:
            raise BraidError(
                f"strand {i+1} carries {m.source_frame[i]} but lands on "
                f"{m.target_frame[perm[i]-1]}"
            )
    return m


def pab_morphism(a: Tree, b: Tree, w: BraidWord) -> PaPBMorphism:
    """Build and validate a morphism of plain trees, framed by leaf order."""
    validate_tree(a)
    validate_tree(b)
    return _validate(PaPBMorphism(a, b, w, tuple(leaf_order(a)), tuple(leaf_order(b))))


def papb_morphism(e: Tree, e2: Tree, w: BraidWord) -> PaPBMorphism:
    """Build and validate a morphism presented in the rank frames."""
    return _validate(PaPBMorphism(e, e2, w, rank_frame(e), rank_frame(e2)))


def papb_identity(e: Tree) -> PaPBMorphism:
    r, s, _ = validate_colored(e)
    return papb_morphism(e, e, identity_braid(2 * r + s))


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
    e, e2 = parse_tree(src), parse_tree(tgt)
    r, s, _ = validate_colored(e)
    return papb_morphism(e, e2, BraidWord(2 * r + s, word))


_CONJUGATE = {"z": "zbar", "zbar": "z"}


def conjugation_swapped(m: PaPBMorphism) -> PaPBMorphism:
    """Swap every z_k/zbar_k tag and negate crossings; validates that the
    result is again a morphism (structural sanity check)."""

    def swap(tag):
        kind, k = _split(tag)
        return _tag(_CONJUGATE.get(kind, kind), k)

    frames = (tuple(map(swap, f)) for f in (m.source_frame, m.target_frame))
    return _validate(PaPBMorphism(m.source, m.target, mirror(m.word), *frames))


def _split(tag) -> tuple:
    """(kind, index) of a frame tag; a plain leaf label has kind None."""
    return tag if isinstance(tag, tuple) else (None, tag)


def _tag(kind, i):
    return i if kind is None else (kind, i)


def _splice(frame: tuple, hole, inner: tuple, r: int) -> tuple:
    """``frame`` with the tag ``hole`` replaced by the tags of ``inner``.

    Inner leaf labels and inner tags of the hole's kind count on from the
    hole's index; other inner tags (the bulk tags of a colored ``inner``)
    follow the r bulk points of ``frame``.  Later tags of the hole's kind
    shift past the new ones.
    """
    kind, k = _split(hole)
    new = [
        _tag(kind, k - 1 + i) if ik in (None, kind) else (ik, r + i)
        for ik, i in map(_split, inner)
    ]
    shift = sum(_split(t)[0] == kind for t in new) - 1
    out = []
    for tag in frame:
        tk, i = _split(tag)
        if tag == hole:
            out.extend(new)
        else:
            out.append(_tag(kind, i + shift) if tk == kind and i > k else tag)
    return tuple(out)


def papb_compose(mu: PaPBMorphism, slot: int, nu: PaPBMorphism) -> PaPBMorphism:
    """Operadic composition: cable the strands of ``mu``'s slot by ``nu``.

    A plain ``mu`` takes a plain ``nu`` at the leaf labeled ``slot``
    (PaB).  A colored ``mu`` takes a plain ``nu`` at a closed slot,
    doubled as (nu, mirror nu) and cabled at z_slot, then zbar_slot, and
    a colored ``nu`` at an open slot.  The empty plain ``nu`` deletes the
    leaf, or the bulk point with both its strands.  Trees compose via
    :func:`compose`, frames via :func:`_splice`; the result is
    revalidated.
    """
    r, s, color = validate_colored(mu.source)
    if not 1 <= require_int(slot, "slot", BraidError) <= r + s:
        raise BraidError(f"slot {slot} out of range 1..{r + s}")
    if (validate_colored(nu.source)[2] != "plain") != (slot > r):
        raise BraidError(f"slot {slot} needs a {'colored' if slot > r else 'plain'} argument")
    if color == "plain":
        holes = ((slot, nu.word),)
    elif slot > r:
        holes = ((("x", slot - r), nu.word),)
    else:
        holes = ((("z", slot), nu.word), (("zbar", slot), mirror(nu.word)))

    word, sf, tf = mu.word, mu.source_frame, mu.target_frame
    for hole, w in holes:
        word = cable_compose(word, sf.index(hole) + 1, w)
        sf = _splice(sf, hole, nu.source_frame, r)
        tf = _splice(tf, hole, nu.target_frame, r)
    ends = (compose(mu.source, slot, nu.source), compose(mu.target, slot, nu.target))
    return _validate(PaPBMorphism(*ends, word, sf, tf))


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
        if not body.startswith("s") or not body[1:].isdigit():
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
