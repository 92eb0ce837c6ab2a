"""Braid words, cabling, and colored doubled-braid morphisms.

Conventions, fixed once and used consistently with the numeric
continuation tests: words apply left to right (first letter = first
crossing); the positive generator s_i takes the strand at position i
over the strand at position i+1, i.e. a counterclockwise half-rotation
of the two points in the plane; complex conjugation of paths is
:func:`mirror` (negate every crossing).

Morphisms between doubled trees present their words in the *rank frame*
of the canonical base configurations: strand order = coordinates sorted
by decreasing real part, bulk point before its conjugate.  Morphism
equality is not decided up to homotopy; the stored invariants are the
permutation and the signed crossing counts per strand pair.
"""

from __future__ import annotations

from opetree.trees import (
    ClosedLeaf,
    Frozen,
    Tree,
    compose,
    compose_colored,
    doubled_labels,
    leaf_order,
    map_leaves,
    parse_tree,
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
        if self.strands < 0:
            raise BraidError("negative strand count")
        object.__setattr__(self, "word", tuple(int(x) for x in self.word))
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
    if m == 0:
        for x in g.word:
            i = abs(x)
            if i == wide:
                wide = i + 1
            elif i + 1 == wide:
                wide = i
            else:
                out.append(x if i < wide else (abs(x) - 1) * (1 if x > 0 else -1))
        return BraidWord(n - 1, tuple(out))

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
# Parenthesized braid morphisms (plain trees)


class PaBMorphism(Frozen):
    """A braid word between two r-leaf trees.

    Valid when the strand starting at source position i carries the leaf
    label found at its ending position in the target leaf order.
    """

    __slots__ = _fields = ("source", "target", "word")

    def then(self, other: "PaBMorphism") -> "PaBMorphism":
        if self.target != other.source:
            raise BraidError("composition needs matching middle tree")
        return pab_morphism(self.source, other.target, self.word * other.word)


def pab_morphism(a: Tree, b: Tree, w: BraidWord) -> PaBMorphism:
    ra, rb = validate_tree(a), validate_tree(b)
    if ra != rb:
        raise BraidError(f"leaf counts differ: {ra} vs {rb}")
    if w.strands != ra:
        raise BraidError(f"word has {w.strands} strands, trees have {ra} leaves")
    ga, gb = leaf_order(a), leaf_order(b)
    perm = braid_permutation(w)
    for i in range(ra):
        if ga[i] != gb[perm[i] - 1]:
            raise BraidError(
                f"permutation mismatch: strand {i+1} carries leaf {ga[i]} "
                f"but lands on leaf {gb[perm[i]-1]}"
            )
    return PaBMorphism(a, b, w)


def pab_compose(g: PaBMorphism, p: int, h: PaBMorphism) -> PaBMorphism:
    """Operadic composition: cable strand of leaf ``p`` by ``h``."""
    ga = leaf_order(g.source)
    if p not in ga:
        raise BraidError(f"no leaf labeled {p}")
    slot = ga.index(p) + 1
    word = cable_compose(g.word, slot, h.word)
    return pab_morphism(
        compose(g.source, p, h.source), compose(g.target, p, h.target), word
    )


# ---------------------------------------------------------------------------
# Colored doubled morphisms


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
    """A doubled braid word between o-colored trees.

    ``source_frame``/``target_frame`` give the coordinate tag carried by
    each strand position at the two ends; validity means the word's
    permutation transports every source tag to the same tag in the
    target frame.
    """

    __slots__ = _fields = ("source", "target", "word", "source_frame", "target_frame")

    def invariants(self) -> tuple:
        """Equality is not decided up to homotopy; these are the stored
        discrete invariants: the permutation and the signed crossing
        counts per strand pair."""
        return (
            braid_permutation(self.word),
            tuple(sorted(abelianization(self.word).items())),
        )


def _validate_papb(m: PaPBMorphism) -> PaPBMorphism:
    n = m.word.strands
    if len(m.source_frame) != n or len(m.target_frame) != n:
        raise BraidError("frame length does not match strand count")
    if sorted(m.source_frame) != sorted(m.target_frame):
        raise BraidError("source and target frames carry different coordinates")
    perm = braid_permutation(m.word)
    for i in range(n):
        if m.source_frame[i] != m.target_frame[perm[i] - 1]:
            raise BraidError(
                f"strand {i+1} carries {m.source_frame[i]} but lands on "
                f"{m.target_frame[perm[i]-1]}"
            )
    return m


def papb_morphism(e: Tree, e2: Tree, w: BraidWord) -> PaPBMorphism:
    """Build and validate a morphism presented in the rank frames."""
    re1, se1, _ = validate_colored(e)
    re2, se2, _ = validate_colored(e2)
    if (re1, se1) != (re2, se2):
        raise BraidError("source and target arities differ")
    if w.strands != 2 * re1 + se1:
        raise BraidError("word strand count must be 2r+s")
    return _validate_papb(
        PaPBMorphism(e, e2, w, rank_frame(e), rank_frame(e2))
    )


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


def conjugation_swapped(m: PaPBMorphism) -> PaPBMorphism:
    """Swap every z_k/zbar_k tag and negate crossings; validates that the
    result is again a morphism (structural sanity check)."""

    def swap(tag):
        kind, k = tag
        if kind == "z":
            return ("zbar", k)
        if kind == "zbar":
            return ("z", k)
        return tag

    out = PaPBMorphism(
        m.source,
        m.target,
        mirror(m.word),
        tuple(swap(t) for t in m.source_frame),
        tuple(swap(t) for t in m.target_frame),
    )
    return _validate_papb(out)


def papb_compose(mu: PaPBMorphism, slot: int, nu) -> PaPBMorphism:
    """Colored operadic composition of doubled morphisms.

    An open slot takes a PaPBMorphism, cabled at the boundary strand; a
    closed slot takes a PaBMorphism gamma, doubled as (gamma, mirror
    gamma) and cabled at the two strands of the bulk pair.  Trees
    compose via :func:`compose_colored`; the result is revalidated.
    """
    r, s, _ = validate_colored(mu.source)

    if slot <= r:
        if not isinstance(nu, PaBMorphism):
            raise BraidError("closed slot needs a PaBMorphism argument")
        t = validate_tree(nu.source)
        i1 = mu.source_frame.index(("z", slot)) + 1
        i2 = mu.source_frame.index(("zbar", slot)) + 1
        word = cable_compose(mu.word, i1, nu.word)
        word = cable_compose(word, i2 + (t - 1 if i2 > i1 else 0), mirror(nu.word))

        def expand_frame(frame, tree):
            # the z and the zbar copy of the slot both follow tree's leaf order
            out = []
            for kind, k in frame:
                if kind == "x" or k < slot:
                    out.append((kind, k))
                elif k == slot:
                    out.extend((kind, slot - 1 + lbl) for lbl in leaf_order(tree))
                else:
                    out.append((kind, k + t - 1))
            return tuple(out)

        source, target = (
            compose_colored(m, slot, map_leaves(n, lambda lf: ClosedLeaf(lf.label)))
            for m, n in ((mu.source, nu.source), (mu.target, nu.target))
        )
        return _validate_papb(
            PaPBMorphism(
                source,
                target,
                word,
                expand_frame(mu.source_frame, nu.source),
                expand_frame(mu.target_frame, nu.target),
            )
        )

    if not isinstance(nu, PaPBMorphism):
        raise BraidError("open slot needs a PaPBMorphism argument")
    t, u, _ = validate_colored(nu.source)
    j = slot - r
    i1 = mu.source_frame.index(("x", j)) + 1
    word = cable_compose(mu.word, i1, nu.word)

    def retag(tag):
        kind, k = tag
        if kind == "z":
            return ("z", r + k)
        return ("x", j + k - 1)

    def splice(frame, inner):
        out = []
        for tag in frame:
            kind, k = tag
            if tag == ("x", j):
                out.extend(retag(tg) for tg in inner)
            elif kind == "x" and k > j:
                out.append(("x", k + u - 1))
            else:
                out.append(tag)
        return tuple(out)

    source = compose_colored(mu.source, slot, nu.source)
    target = compose_colored(mu.target, slot, nu.target)
    return _validate_papb(
        PaPBMorphism(
            source,
            target,
            word,
            splice(mu.source_frame, nu.source_frame),
            splice(mu.target_frame, nu.target_frame),
        )
    )


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
