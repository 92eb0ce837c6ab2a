"""Truncated multivariate generalized power series and tree expansions.

A series is a finite sum of sectors.  A sector is a base monomial
(exact rational exponents on every variable, integer log powers) times
a polynomial tail in the *graded* variables (the edge ratios) with
nonnegative integer exponents of total degree at most the truncation
order N.  Ungraded variables (the root difference x_A and the
translation z_A) are never truncated.  Exponent arithmetic is exact
rational; coefficients are complex doubles.  The one operation between
series is their truncated product.

A tail is stored packed (Monagan & Pearce's packed exponent vectors):
``{key: coeff}``, the exponent vector as one integer in base N + 1 with
the first graded variable in the lowest digit.  Every digit of a kept
term is <= N, so keys whose degrees sum to at most N add without carry.
A key's degree is its digit sum; as N + 1 = 1 (mod N) that is
``key % N``, or N for a nonzero key with ``key % N == 0``.  Tuples
appear only at the boundary: :meth:`GenSeries.from_tails` packs them;
``terms``, :func:`series_to_obj` and the re-keying for another variable
set or order decode them.

Every truncated tail product goes through one kernel, :func:`_tail_mul`.
It keeps the tuple-keyed loop's order (left operand outer, right operand
inner, both in dict order, first-touch insertion), and a packed key only
renames a term, so every coefficient comes out bit for bit as that loop
gives it.  :func:`_powers` is the one loop making repeated powers u, u^2,
... (the memoized powers of a pair tail and :func:`expand`'s plain powers).
:func:`expand_pairs`, under :func:`expand` and ``tree_expansion``, builds
a difference product as one packed tail chain, skipping the unit factors
that would give the chain back unchanged and, from the constant 1, taking
the first factor's tail as it is.  A pair plan made once per tree, order
and conjugate holds each pair's monomial, sign and packed tail; exponents
are summed as integers over one denominator; (1 + P)^s is read from the
one binomial memo, keyed on the packed tail, s in lowest terms as two
integers, and N, which reads the powers of P from their own memo, keyed
on the tail and N alone.

:func:`evaluate_series` is table-driven.  For each graded variable and
integer base b of a sector it reads one lazily filled power table, keyed
by the tail exponent n and holding value ** (b + n), shared by the
sectors with that base and by every call at the same value bits.  Each
term is its coefficient times the entries picked by the key's digits, in
graded order, as the per-term loop that skipped zero exponents
multiplied them; one summation path, lazy maps
summed left to right from +0j, serves every tail.  The digits come apart
from the sum, in digit blocks: runs of terms in tail order, each with,
per graded variable, one digit for the whole run or a column of digits.
Without blocks each call decodes every key lazily, one run a sector.  A
caller that evaluates one series at many points
(``latticecft.TreeExpansion``) builds :func:`digit_columns` once and
passes them in.  A product of two single-sector factors over disjoint
variables (a bulk tree's z and z-bar parts) gets them read off its two
factors, in :func:`_tail_mul`'s term order, without decoding the
product: one block per z term, with that term's z digits as constants,
each looked up once a block, and the z-bar columns of the terms that fit
its room, shared per room.  Those columns depend only on the z-bar
factor's graded names, the order and its keys, so a small memo keeps
them for the next charge set of the tree.  A call looks up each room's
column once, into a list that every block of the room streams; if a
lookup raises there, that column is looked up term by term instead, so
the error raised is the one the per-term order meets first.  Either way
each term multiplies the same table entries in the same order, so
results and errors are the same.  A zero total
exponent reads 1+0j instead of being skipped.  Times 1+0j a finite
complex keeps its nonzero parts and at most flips the sign of a zero
part, and the sector sum starts at +0j, so a zero part of either sign
adds as +0.0: the sum is bit for bit the skipping loop's.

Evaluation uses the principal logarithm, Arg in (-pi, pi); a variable
raised to a non-integer power (or carrying a log factor) must evaluate
off the cut R_{<=0}.
"""

from __future__ import annotations

import cmath
import math
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress, islice, repeat
from operator import add, attrgetter, floordiv, mod, mul
from typing import Mapping, Sequence

from opetree.coords import (
    CoordError,
    CoordSystem,
    a_coordinates,
    on_cut,
    pair_difference,
)
from opetree.trees import Frozen, Tree, require_int

ZERO = Fraction(0)


class SeriesError(ValueError):
    """Invalid series operation (bad leading term, missing value, cut)."""


def binomial(q, k: int) -> Fraction:
    """Generalized binomial coefficient C(q, k) with exact arithmetic."""
    q = Fraction(q)
    out = Fraction(1)
    for i in range(k):
        out = out * (q - i) / (i + 1)
    return out


def phase_pi(nu) -> complex:
    """exp(i*pi*nu) for rational nu, reduced mod 2 before evaluation."""
    nu = Fraction(nu) % 2
    if nu == 0:
        return 1.0 + 0.0j
    if 2 * nu == 1:
        return 1j
    if nu == 1:
        return -1.0 + 0.0j
    if 2 * nu == 3:
        return -1j
    return cmath.exp(1j * math.pi * float(nu))


def _logs_key(logs: Mapping) -> tuple:
    return tuple(sorted((v, int(k)) for v, k in logs.items() if k))


def _check_order(order) -> int:
    order = require_int(order, "truncation order", SeriesError)
    if order < 0:
        raise SeriesError(f"truncation order must be >= 0, got {order}")
    return order


def _ungraded_key(exps: Mapping) -> tuple:
    return tuple(sorted((v, Fraction(q)) for v, q in exps.items() if q))


class GenSeries:
    """Truncated generalized power series over a fixed graded variable set.

    ``*`` of two series is its one arithmetic operation; a series does not
    add, negate or scale.
    """

    __slots__ = ("graded", "order", "sectors")

    def __init__(self, graded: Sequence[str], order: int):
        self.graded = tuple(graded)
        self.order = _check_order(order)
        # key: (logs, ungraded, base) with base a Fraction tuple over graded
        # value: tail {packed exponent vector: complex coeff}
        self.sectors = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_tails(cls, graded: Sequence[str], order: int, sectors: Mapping) -> "GenSeries":
        """A series from ``{(logs, ungraded, base): {exponent tuple: coeff}}``,
        in the same order; terms of degree above ``order`` are dropped, and
        so is a sector left with no term."""
        s = cls(graded, order)
        for key, tail in sectors.items():
            packed = {}
            for vec, c in tail.items():
                if len(vec) != len(s.graded) or min(vec, default=0) < 0:
                    raise SeriesError(f"bad tail exponent vector {vec}")
                if sum(vec) <= s.order:
                    packed[_pack(vec, s.order + 1)] = c
            if packed:
                s.sectors[key] = packed
        return s

    @classmethod
    def monomial(
        cls,
        coeff,
        exponents: Mapping,
        graded: Sequence[str],
        order: int,
        logs: Mapping | None = None,
    ) -> "GenSeries":
        """coeff * prod v^{q_v} * prod (log v)^{k_v}."""
        s = cls(graded, order)
        if coeff == 0:
            return s
        base = tuple(Fraction(exponents.get(g, 0)) for g in s.graded)
        ungraded = _ungraded_key(
            {v: q for v, q in exponents.items() if v not in s.graded}
        )
        s.sectors[(_logs_key(logs or {}), ungraded, base)] = {0: complex(coeff)}
        return s

    # -- bookkeeping -------------------------------------------------------

    def n_terms(self) -> int:
        return sum(len(t) for t in self.sectors.values())

    def _prune(self) -> "GenSeries":
        for key, tail in list(self.sectors.items()):
            if not all(tail.values()):
                tail = self.sectors[key] = dict(compress(tail.items(), tail.values()))
            if not tail:
                del self.sectors[key]
        return self

    def _aligned(self, other: "GenSeries"):
        """Both operands over the union of graded variables, at the lower order."""
        order = min(self.order, other.order)
        a, b = self._at_order(order), other._at_order(order)
        if a.graded == b.graded:
            return a, b
        union = tuple(sorted(set(a.graded) | set(b.graded)))
        return a._embed(union), b._embed(union)

    def _at_order(self, order: int) -> "GenSeries":
        """The series re-keyed in base ``order`` + 1, higher terms dropped."""
        if order == self.order:
            return self
        n = len(self.graded)
        tails = {
            key: {_unpack_key(k, self.order + 1, n): c for k, c in tail.items()}
            for key, tail in self.sectors.items()
        }
        return GenSeries.from_tails(self.graded, order, tails)

    def _embed(self, union: tuple) -> "GenSeries":
        if union == self.graded:
            return self
        base = self.order + 1
        # digit i of a key moves to the place of self.graded[i] in union
        places = [base ** union.index(g) for g in self.graded]
        out = GenSeries(union, self.order)
        for (logs, ungraded, b), tail in self.sectors.items():
            ung = dict(ungraded)
            newbase = tuple(
                b[self.graded.index(g)] if g in self.graded else Fraction(ung.pop(g, 0))
                for g in union
            )
            keys = repeat(0)
            for i, place in enumerate(places):
                digits = map(mod, map(floordiv, tail, repeat(base**i)), repeat(base))
                keys = map(add, keys, map(mul, digits, repeat(place)))
            # 0 + c, as terms were added into a fresh tail: zero parts -> +0.0
            newtail = dict(zip(keys, map(add, repeat(0), tail.values())))
            out._merge_sector((logs, tuple(sorted(ung.items())), newbase), newtail)
        return out._prune()

    def _merge_sector(self, key, tail):
        """Add a sector, folding integer shifts of the graded base (a new
        sector keeps ``tail`` itself)."""
        logs, ungraded, base = key
        target = None
        if key in self.sectors:
            target = key
        else:
            for (l2, u2, b2) in self.sectors:
                if l2 == logs and u2 == ungraded and all(
                    (q1 - q2).denominator == 1 for q1, q2 in zip(base, b2)
                ):
                    target = (l2, u2, b2)
                    break
        if target is None:
            self.sectors[key] = tail
            return
        _, _, b2 = target
        common = tuple(min(q1, q2) for q1, q2 in zip(base, b2))
        if common != b2:
            old = self.sectors.pop(target)
            target = (logs, ungraded, common)
            self.sectors[target] = self._add_shifted({}, old, b2, common)
        self._add_shifted(self.sectors[target], tail, base, common)

    def _add_shifted(self, dest, tail, base, common):
        """Add ``tail`` times zeta^(base - common) into ``dest``, truncated."""
        shift = [int(q - qc) for q, qc in zip(base, common)]
        room = self.order - sum(shift)
        if room >= 0:
            step = _pack(shift, self.order + 1)
            get = dest.get
            for k, c in tail.items():
                if _degree(k, self.order) <= room:
                    dest[k + step] = get(k + step, 0) + c
        return dest

    # -- product -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GenSeries):
            return NotImplemented
        a, b = self._aligned(other)
        disjoint = _disjoint(self, other)
        out = GenSeries(a.graded, a.order)
        for (l1, u1, b1), t1 in a.sectors.items():
            for (l2, u2, b2), t2 in b.sectors.items():
                base = tuple(q1 + q2 for q1, q2 in zip(b1, b2))
                # zeros stay until out._prune(): _merge_sector adds them
                tail = _tail_mul(t1, t2, a.order, prune=False, disjoint=disjoint)
                if tail:
                    out._merge_sector((_merge_keys(l1, l2), _merge_keys(u1, u2), base), tail)
        return out._prune()

    # -- introspection ------------------------------------------------------

    def terms(self) -> list:
        """Flatten to (exponents dict, logs dict, coeff), lexicographic."""
        flat = []
        n = len(self.graded)
        for (logs, ungraded, base), tail in self.sectors.items():
            shifted = [{} for _ in base]  # per graded variable: digit d -> b + d
            for k, c in tail.items():
                exps = dict(ungraded)
                for g, b, d, memo in zip(self.graded, base, _unpack_key(k, self.order + 1, n), shifted):
                    q = memo.get(d)
                    if q is None:
                        q = memo[d] = b + d
                    if q:
                        exps[g] = q
                key = (tuple(sorted(exps.items())), logs)
                flat.append((key, exps, dict(logs), c))
        flat.sort(key=lambda it: it[0])
        return [(exps, logs, c) for _, exps, logs, c in flat]

    def __repr__(self):
        return (
            f"GenSeries(graded={self.graded}, order={self.order}, "
            f"terms={self.n_terms()})"
        )


def _finite_result(arg, out):
    """``out``, computed from ``arg``; a coefficient that is not finite
    although every coefficient of ``arg`` is raises :class:`SeriesError`."""

    def finite(s):
        return all(_all_finite(t.values()) for t in s.sectors.values())

    if not finite(out) and finite(arg):
        raise SeriesError("series coefficient out of floating-point range")
    return out


def _all_finite(coeffs) -> bool:
    return all(map(cmath.isfinite, coeffs))


def _ungraded_names(s) -> set:
    return {v for _, ungraded, _ in s.sectors for v, _ in ungraded}


def _disjoint(a, b) -> bool:
    """Whether the keys of a and b use disjoint digits in their product:
    neither one's graded variables meet the other's graded or ungraded
    ones.  Embedding moves an ungraded variable that the other operand
    grades into the sector base, and folding sectors may then shift it
    into the tail keys."""
    mine, theirs = set(a.graded), set(b.graded)
    return mine.isdisjoint(theirs | _ungraded_names(b)) and theirs.isdisjoint(_ungraded_names(a))


def _merge_keys(k1, k2):
    """Sum two sorted ``(variable, power)`` keys of a sector, log counts or
    ungraded exponents, dropping the variables whose powers cancel."""
    d = dict(k1)
    for v, q in k2:
        d[v] = d.get(v, 0) + q
    return tuple(sorted((v, q) for v, q in d.items() if q))


def _pack(vec, base) -> int:
    key = 0
    for e in reversed(vec):
        key = key * base + e
    return key


def _unpack_key(key, base, nvars) -> tuple:
    return tuple(key // base**i % base for i in range(nvars))


def _degree(key, order) -> int:
    """Digit sum of a key of degree <= ``order``: base order + 1 is 1 mod order."""
    return (key % order or order) if key else 0  # key != 0 needs order >= 1


def _tail_mul(t1, t2, order, prune=True, disjoint=False):
    """Product of two packed tails truncated at total degree ``order``.

    A left term meets only right terms that fit in its room, so keys add
    without carries.  The sums run left term outer, right term inner, both
    in dict order, with first-touch insertion: the result, zeros included
    when ``prune`` is false, is that of the tuple-keyed double loop.  When
    no key is touched twice, one comprehension builds each coefficient as
    the loop's first touch: with a one-term operand on either side, or
    with ``disjoint`` operands, whose keys use disjoint digits (graded
    variables) so that k1 + k2 is one to one.
    """
    right = list(zip(t2.items(), map(_degree, t2, repeat(order))))
    fitting = {}  # room -> right terms of degree <= room, in dict order
    if disjoint or len(t1) == 1 or len(right) == 1:
        # every output key is touched once: its first touch, 0 + c1 * c2
        left = [(k, order - _degree(k, order), c) for k, c in t1.items()]
        for _, room, _ in left:
            if room not in fitting:
                fitting[room] = _fitting(t2, right, room, order)
        out = {k1 + k2: 0 + c1 * c2 for k1, room, c1 in left for k2, c2 in fitting[room]}
    else:
        out = {}
        get = out.get
        for k1, c1 in t1.items():
            room = order - _degree(k1, order)
            terms = fitting.get(room)
            if terms is None:
                terms = fitting[room] = _fitting(t2, right, room, order)
            for k2, c2 in terms:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    if prune:
        return dict(compress(out.items(), out.values()))
    return out


def _fitting(t2, right, room, order):
    """The (key, coeff) terms of ``t2`` of degree <= ``room``, in dict order,
    read from ``right``, its list of ((key, coeff), degree), whose pairs the
    lists share rather than copy: all of them when room == order, as no key
    of a tail at that order has a higher degree."""
    return t2.items() if room == order else [term for term, d in right if d <= room]


def _powers(u, order):
    """u, u^2, ... truncated at degree ``order`` until a power vanishes; a u
    with a constant term never does, so the caller bounds the count."""
    power = {0: 1.0 + 0j}
    while power := _tail_mul(power, u, order):
        yield power


@lru_cache(maxsize=256)
def _powers_memo(items, order):
    """u, ..., u^N of the packed tail u given as ``items``, in dict order,
    truncated at degree N = ``order``, stopping at the first power that
    vanishes.  An entry holds up to N tails, so the memo is kept small; a
    miss costs what building the powers always cost.

    As in :func:`_binomial_tail_memo`, the key's complex equality does not
    tell 0.0 from -0.0, and need not: every sum in :func:`_tail_mul` starts
    at ``0 +``, so a part that sums to zero comes out +0.0 and no other bit
    depends on the sign of a zero.  Callers only read the tails.
    """
    return tuple(islice(_powers(dict(items), order), order))


@lru_cache(maxsize=4096)
def _binomial_tail_memo(items, qn, qd, order):
    """(1+u)^q truncated, q = qn/qd in lowest terms with qd > 0: sum_k
    C(q,k) u^k, for u of positive degree given as its packed ``items``, in
    dict order, which fixes the summation order; the powers of u are read
    from :func:`_powers_memo`.

    The key's complex equality does not tell 0.0 from -0.0, and need not:
    every sum starts from int 0 or 1+0j, so a part that sums to zero comes
    out +0.0 and no other bit depends on the sign of a zero.  Every caller
    gets the memo's own dict, which no caller may change.
    """
    out = {0: 1.0 + 0j}
    num = den = 1
    for k, power in enumerate(_powers_memo(items, order), start=1):
        # C(q, k) = num / den from C(q, k-1), the steps binomial(q, k) takes,
        # left unreduced: int true division rounds the exact rational
        # correctly, as float(Fraction) does, so ck is complex(binomial(q, k))
        num *= qn - (k - 1) * qd
        den *= k * qd
        try:
            ck = complex(num / den)
        except OverflowError:
            raise SeriesError("series coefficient out of floating-point range") from None
        for vec, c in power.items():
            out[vec] = out.get(vec, 0) + ck * c
    return {v: c for v, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# Formal products of configuration-space functions


class PowerProduct(Frozen):
    """constant * prod (z_i - z_j)^{s_ij} * prod z_i^{k_i}.

    ``diffs`` lists ((i, j), exponent) factors with exact rational
    exponents; ``powers`` lists (i, k) with nonnegative integer k.
    """

    __slots__ = _fields = ("diffs", "powers", "constant")
    _defaults = {"diffs": (), "powers": (), "constant": 1.0 + 0j}

    def __post_init__(self):
        def whole(value, what="leaf label"):
            return require_int(value, what, SeriesError)

        diffs = tuple(((whole(i), whole(j)), Fraction(s)) for (i, j), s in self.diffs)
        object.__setattr__(self, "diffs", diffs)
        powers = tuple((whole(i), whole(k, "power")) for i, k in self.powers)
        object.__setattr__(self, "powers", powers)
        for (i, j), _ in self.diffs:
            if i == j:
                raise SeriesError(f"difference factor with i == j == {i}")
        for i, k in self.powers:
            if k < 0:
                raise SeriesError("plain powers must be nonnegative")

    def variables(self) -> set:
        out = set()
        for (i, j), _ in self.diffs:
            out |= {i, j}
        for i, _ in self.powers:
            out.add(i)
        return out

    def __mul__(self, other: "PowerProduct") -> "PowerProduct":
        return PowerProduct(
            self.diffs + other.diffs,
            self.powers + other.powers,
            self.constant * other.constant,
        )


class BranchPlan(Frozen):
    """Branch assignment for closed evaluation.

    ``paired`` lists pairs of indices into the difference factors that
    are evaluated jointly as the single-valued combination
    |z|^{2*s2} * z^{s1-s2} (requires the second value conjugate to the
    first and s1 - s2 an integer).  All other factors use the principal
    branch.  Each index names a factor of the product, at most once.
    """

    __slots__ = _fields = ("paired",)
    _defaults = {"paired": ()}


def evaluate_closed(f: PowerProduct, point: Sequence[complex], plan: BranchPlan | None = None) -> complex:
    """Evaluate a power product at a configuration point: the closed form
    of :func:`prepare_closed` at ``point``, with its errors."""
    return prepare_closed(f, plan)(point)


def prepare_closed(f: PowerProduct, plan: BranchPlan | None = None):
    """The power product under the branch plan as a function of a point.

    The plan is checked here, once: an index out of range, a factor
    paired with itself or used twice, or paired exponents that do not
    differ by an integer raise :class:`SeriesError`.  Each exponent is
    kept as an int, or as the complex that ``Fraction * complex``
    multiplies by, so a point costs only complex arithmetic, bit for bit
    as with the Fraction.  At a point, a missing coordinate, paired values
    that are not conjugate, a non-integer power on the cut and a power
    beyond the double range raise :class:`SeriesError`.
    """
    plan = plan or BranchPlan()
    paired_idx = set()
    paired = []
    for a, b in plan.paired:
        for idx in (a, b):
            if idx not in range(len(f.diffs)):
                raise SeriesError(f"branch plan index {idx} out of range for {len(f.diffs)} factors")
        if a == b:
            raise SeriesError(f"branch plan pairs factor {a} with itself")
        if a in paired_idx or b in paired_idx:
            raise SeriesError(f"branch plan uses factor {a if a in paired_idx else b} twice")
        ((i1, j1), s1), ((i2, j2), s2) = f.diffs[a], f.diffs[b]
        if (s1 - s2).denominator != 1:
            raise SeriesError("paired exponents must differ by an integer")
        paired_idx |= {a, b}
        paired.append((i1, j1, i2, j2, float(2 * s2), int(s1 - s2)))
    single = [
        (i, j, s, s.denominator == 1, int(s) if s.denominator == 1 else complex(s))
        for idx, ((i, j), s) in enumerate(f.diffs)
        if idx not in paired_idx
    ]
    variables = tuple(f.variables())
    constant = complex(f.constant)

    def at(point: Sequence[complex]) -> complex:
        z = {}
        for v in variables:
            if not 1 <= v <= len(point):
                raise SeriesError(f"point has no coordinate z{v}")
            z[v] = complex(point[v - 1])
        total = constant
        try:
            for i1, j1, i2, j2, two_s2, ds in paired:
                v1 = z[i1] - z[j1]
                v2 = z[i2] - z[j2]
                if abs(v2 - v1.conjugate()) > 1e-12 * (1 + abs(v1)):
                    raise SeriesError("paired factors are not complex conjugates")
                total *= abs(v1) ** two_s2 * v1**ds
            for i, j, s, whole, e in single:
                v = z[i] - z[j]
                if whole:
                    total *= v**e
                    continue
                if on_cut(v):
                    raise SeriesError(f"factor (z{i} - z{j}) on the cut with exponent {s}")
                total *= cmath.exp(e * cmath.log(v))
            for i, k in f.powers:
                total *= z[i] ** k
        except OverflowError:  # a power beyond the largest double
            raise SeriesError("closed-form value out of floating-point range") from None
        return total

    return at


# ---------------------------------------------------------------------------
# The expansion homomorphism into tree coordinates


class ExpandedProduct(Frozen):
    """Result of expanding a power product in tree coordinates;
    ``negative_pairs`` lists the (i, j) factors whose leading sign was -1."""

    __slots__ = _fields = ("series", "negative_pairs")


def expand(
    a: Tree | CoordSystem,
    f: PowerProduct,
    order: int,
    conjugate: bool = False,
    negative_branch: str = "upper",
) -> ExpandedProduct:
    """Expand a power product as a truncated series in the A-coordinates.

    Each factor (z_i - z_j)^s is rewritten via the factored difference
    x_A^s c^s zeta^{s m} (1 + P)^s and expanded binomially; plain powers
    use z_i = z_A + x_A Q_i.  A leading sign c = -1 contributes
    exp(i pi s) for the upper convention, exp(-i pi s) for the lower;
    affected factors are reported in ``negative_pairs``.  Plain powers
    whose coefficients leave the double range raise :class:`SeriesError`.
    The difference factors go through :func:`expand_pairs`.
    """
    cs = a if isinstance(a, CoordSystem) else a_coordinates(a)
    den = math.lcm(*(s.denominator for _, s in f.diffs))
    terms = [(i, j, s.numerator * (den // s.denominator)) for (i, j), s in f.diffs]
    ex = expand_pairs(cs, terms, den, order, conjugate, f.constant, negative_branch)
    out, names = ex.series, cs.var_names(conjugate=conjugate)
    zero_base = tuple([ZERO] * len(out.graded))
    for i, k in f.powers:
        if i not in cs.q_polys:
            raise CoordError(f"no leaf labeled {i}")
        # z_i^k = sum_m C(k, m) z_A^(k-m) x_A^m Q_i^m; the ungraded keys all
        # differ, so no two sectors fold.  Q_i has a constant term: take k powers.
        qpows = islice(_powers(_packed_poly(cs.q_polys[i], order), order), k)
        piece = GenSeries(out.graded, order)
        for m, qpow in enumerate(chain([{0: 1.0 + 0j}], qpows)):
            ungraded = _ungraded_key({names["z"]: k - m, names["x"]: m})
            try:
                binom = complex(math.comb(k, m))
            except OverflowError:
                raise SeriesError("series coefficient out of floating-point range") from None
            piece.sectors[((), ungraded, zero_base)] = _scale_tail(qpow, binom)
        out = _finite_result(out, out * piece)
    return ExpandedProduct(out, ex.negative_pairs)


def expand_pairs(
    cs: CoordSystem, terms, den: int, order: int, conjugate=False, constant=1.0 + 0j, negative_branch="upper"
) -> ExpandedProduct:
    """``constant`` times the factors (z_i - z_j)^(num/den), for the
    ``(i, j, num)`` of ``terms`` in order, expanded as :func:`expand` does,
    with each pair read from its :func:`_pair_plan` and the x_A and base
    exponents summed as integers over ``den`` > 0, made Fractions at the end."""
    if negative_branch not in ("upper", "lower"):
        raise SeriesError("negative_branch must be 'upper' or 'lower'")
    # the order is checked first: 4.0 == 4 would find order 4's plan
    graded, x_name, pairs = _pair_plan(cs.tree, _check_order(order), conjugate)
    out = GenSeries(graded, order)
    tail = {0: complex(constant)} if constant != 0 else {}
    x_num, base, negative = 0, [0] * len(graded), []
    # A unit factor (no pair tail, leading coefficient 1) is {0: 1+0j}, and
    # 0 + c * (1+0j) is c for a finite c with no -0.0 part.  So units are
    # skipped from the start for such a constant, and otherwise, from a
    # finite constant, once the tail has been through one product: a tail
    # out of _tail_mul holds no -0.0 (each first touch is 0 + ...), and a
    # coefficient that is not finite then raises below.
    finite = _all_finite(tail.values())
    skip_units = finite and not any(
        p == 0 and math.copysign(1.0, p) < 0 for c in tail.values() for p in (c.real, c.imag)
    )
    # From the tail {0: 1+0j}, +0.0 imaginary part included, a factor with
    # coefficient 1 is its memo tail itself: 0 + (1+0j) * c is c for a memo
    # coefficient, which is never zero and has no -0.0 part, and a
    # coefficient that is not finite raises below either way.
    one = skip_units and tail == {0: 1}
    shared = None  # the memo's own dict, while it is the tail
    # one packed tail, the product so far on the left as in GenSeries.__mul__;
    # a factor's tail is the binomial memo's own dict, which _tail_mul only reads
    for i, j, num in terms:
        monomial, sign, packed = pairs.get((i, j)) or pair_difference(cs, i, j)  # raises: no such pair
        x_num += num
        for idx, m in monomial:
            base[idx] += num * m
        coeff = 1.0 + 0j
        if sign == -1:
            negative.append((i, j))
            coeff = phase_pi(Fraction(num if negative_branch == "upper" else -num, den))
        if skip_units and coeff == 1 and not packed:  # a unit
            continue
        g = math.gcd(num, den)  # the memo key is Fraction(num, den), as integers
        factor = _binomial_tail_memo(packed, num // g, den // g, order)
        if one and coeff == 1:
            tail = shared = factor
        else:
            tail = _tail_mul(tail, _scale_tail(factor, coeff), order)
        one = False
        skip_units = finite
    if finite and not _all_finite(tail.values()):
        raise SeriesError("series coefficient out of floating-point range")
    if tail is shared:
        tail = dict(tail)
    if tail:
        ungraded = ((x_name, Fraction(x_num, den)),) if x_num else ()
        out.sectors[((), ungraded, tuple(Fraction(b, den) for b in base))] = tail
    return ExpandedProduct(out, tuple(negative))


@lru_cache(maxsize=4096)
def _pair_plan(tree: Tree, order: int, conjugate) -> tuple:
    """(graded names, x_A name, pairs) of a tree's coordinates at ``order``:
    each ordered leaf pair maps to its nonzero monomial digits as (index,
    power), its leading sign and its packed pair tail in the binomial memo's
    key form, empty for a tail with no term up to the order."""
    cs = a_coordinates(tree)
    names = cs.var_names(conjugate=conjugate)
    pairs = {
        pair: (
            tuple((idx, m) for idx, m in enumerate(fac.monomial) if m),
            fac.sign,
            tuple(_packed_poly(fac.tail, order).items()),
        )
        for pair, fac in cs.pairs.items()
    }
    return names["zeta"], names["x"], pairs


def _packed_poly(poly, order):
    return {_pack(v, order + 1): complex(c) for v, c in poly.items() if sum(v) <= order}


def _scale_tail(tail, c):
    """``tail`` times ``c``: a new dict, or ``tail`` itself when c == 1."""
    if c == 1:
        return tail
    return {v: c * x for v, x in tail.items()}


# ---------------------------------------------------------------------------
# Evaluation of series

_lookup = attrgetter("__getitem__")  # a power table's lookup of one digit
_pack_complex = struct.Struct("dd").pack


def evaluate_series(s: GenSeries, values: Mapping, columns=None) -> complex:
    """Sum the series at numeric variable values, principal branches.

    ``columns``, if given, are :func:`digit_columns` of ``s``, read
    instead of decoding every key again; blocks of another shape raise
    :class:`SeriesError`.  Raises :class:`SeriesError` for a missing
    variable, a variable on the cut raised to a non-integer power or
    carrying a log factor, or a power beyond the double range.  A power
    is computed, a cut checked and a missing value reported only when some
    term needs it, so columns change no result and no error.  Integer
    powers come from tables shared by every call at the same value.
    """
    logv = {}

    def log_of(v):
        if v not in logv:
            val = _value_of(values, v)
            if on_cut(val):
                raise SeriesError(f"variable {v} on the cut")
            logv[v] = cmath.log(val)
        return logv[v]

    tables = {}

    def table(v, offset=0):
        tab = tables.get((v, offset))
        if tab is None:
            tab = tables[v, offset] = _power_table(values, v, offset)
        return tab

    # Cheaper, same values: an exponent with denominator 1 is its
    # numerator, and Fraction * complex is complex(q) * complex.
    def power(v, q):
        if q.denominator == 1:
            return table(v)[q.numerator]
        return cmath.exp(complex(q) * log_of(v))

    n = len(s.graded)
    if columns is None:
        columns = repeat(None)
    elif len(columns) != len(s.sectors):
        raise SeriesError("digit columns do not match the series")
    total = 0j
    try:
        for ((logs, ungraded, offsets), tail), blocks in zip(s.sectors.items(), columns):
            sector_val = 1.0 + 0j
            for v, k in logs:
                sector_val *= log_of(v) ** k
            for v, q in ungraded:
                sector_val *= power(v, q)
            row = []
            for g, q in zip(s.graded, offsets):
                if q.denominator == 1:
                    row.append(table(g, q.numerator))
                else:
                    sector_val *= power(g, q)
                    row.append(table(g))
            if blocks is None:
                factors = map(map, map(_lookup, row), _digits(tail, s.order + 1, n))
            else:
                factors = _block_factors(len(tail), row, blocks)
            total += sector_val * _tail_sum(tail, factors)
    except OverflowError:  # a power beyond the largest double, here or in a _PowerTable
        raise SeriesError("series value out of floating-point range") from None
    return total


def digit_columns(s: GenSeries, factors=()) -> tuple:
    """The decoded keys of ``s``, for :func:`evaluate_series`: per sector,
    digit blocks that cover its tail in tail order.

    A block is ``(count, digits)``: ``count`` terms and, per graded
    variable, either one digit (an int) shared by every term of the block
    or a column of ``count`` digits, ``bytes`` while every digit fits one
    (N < 256) and a list above that; a variable has a digit in every block
    of a sector or a column in every block.  A sector is one block of columns
    decoded from its keys, except when ``factors=(a, b)`` are given with
    ``s = a * b`` (in that order) a product of single-sector series over
    disjoint graded variables: then its sector gets one block per term of
    ``a``, that term's digits as ints and the columns of the terms of
    ``b`` that fit its room, one column object per room, shared by the
    blocks of that room and read from :func:`_room_columns`, a memo keyed
    on ``b``'s graded names, the order and its keys.  A product that
    dropped a zero term, or factors of another shape, are decoded.  The
    blocks describe ``s`` as it is now; a series changed afterwards needs
    new ones.
    """
    if factors:
        blocks = _product_blocks(s, *factors)
        if blocks is not None:
            return (blocks,)
    column, n = _column(s.order), len(s.graded)
    return tuple(
        ((len(tail), tuple(map(column, _digits(tail, s.order + 1, n)))),) for tail in s.sectors.values()
    )


def _product_blocks(s, a, b):
    """The digit blocks of the one sector of ``s`` = ``a`` * ``b``, read
    off ``a`` and ``b``, or None unless ``s`` is their disjoint
    single-sector product term for term."""
    order = s.order
    if not (
        len(s.sectors) == len(a.sectors) == len(b.sectors) == 1
        and a.order == b.order == order
        and s.graded == tuple(sorted({*a.graded, *b.graded}))
        and _disjoint(a, b)
    ):
        return None
    (t1,), (t2,), (tail,) = a.sectors.values(), b.sectors.values(), s.sectors.values()
    base, places = order + 1, {g: i for i, g in enumerate(s.graded)}
    # list columns are mutable, so only bytes columns are shared
    room_columns = _room_columns if _column(order) is bytes else _room_columns.__wrapped__
    columns = room_columns(b.graded, order, tuple(t2))
    rooms = {}  # room -> count and digit row: b's columns, a's places set per term
    blocks = []
    for k1, own in zip(t1, zip(*_digits(t1, base, len(a.graded)))):
        room = order - _degree(k1, order)
        if room not in rooms:
            count, cols = columns[room]
            digits = [None] * len(s.graded)
            for g, col in zip(b.graded, cols):
                digits[places[g]] = col
            rooms[room] = count, digits
        count, digits = rooms[room]
        if count:
            for g, d in zip(a.graded, own):
                digits[places[g]] = d
            blocks.append((count, tuple(digits)))
    # the product drops zero terms (say, an underflow): then the blocks overrun it
    if sum(count for count, _ in blocks) != len(tail):
        return None
    return tuple(blocks)


@lru_cache(maxsize=8)
def _room_columns(graded, order, keys):
    """Per room 0, ..., ``order``: the number of the packed ``keys`` over
    ``graded`` of degree <= room, and their digit columns, in key order,
    one per graded variable.  These are the columns of the right factor's
    terms that fit a room in a disjoint product, the part of its digit
    blocks that costs; the charge sets of one plain tree at one order
    mostly share their factor keys, so the few most recent are kept.  An
    entry holds only ints, bytes and tuples, so callers share nothing
    mutable."""
    column, base, n = _column(order), order + 1, len(graded)
    right = list(zip(keys, map(_degree, keys, repeat(order))))
    out = []
    for room in range(order + 1):
        fit = [k for k, d in right if d <= room]
        out.append((len(fit), tuple(map(column, _digits(fit, base, n)))))
    return tuple(out)


def _column(order):
    """The type of a digit column at ``order``: bytes while every digit
    fits one."""
    return bytes if order < 256 else list


def _digits(tail, base, n):
    """Lazy iterables, one per graded variable: digit i of every key of
    ``tail`` in base ``base``, in tail order.  The top digit needs no
    mod, as every key is below base ** n, and digit 0 no floordiv."""
    out = []
    for i in range(n):
        digits = map(floordiv, tail, repeat(base**i)) if i else tail
        out.append(map(mod, digits, repeat(base)) if i + 1 < n else digits)
    return out


def _block_factors(length, row, blocks):
    """Per graded variable, the lazy stream of its table entries over a
    tail of ``length`` terms that ``blocks`` describe; blocks of another
    shape raise :class:`SeriesError`."""
    n = len(row)
    if len(blocks) == 1:
        try:  # one block of columns, checked at the cost of decoded columns
            ((count, digits),) = blocks
            if count == length and list(map(len, digits)) == [length] * n:
                return map(map, map(_lookup, row), digits)
        except (TypeError, ValueError):  # a digit that is an int, a block that is no pair
            pass
    if set(map(len, blocks)) == {2}:
        counts, rows = zip(*blocks)
        if sum(counts) == length and set(map(len, rows)) == {n}:
            factors = list(map(_block_factor, row, zip(*rows), repeat(counts)))
            if None not in factors:
                return factors
    raise SeriesError("digit columns do not match the series")


def _block_factor(tab, digits, counts):
    """The entries of ``tab`` picked by one variable's ``digits``, one
    digit or one column a block of ``counts`` terms, or None for digits
    of another shape.  A block's one digit is looked up when the block's
    first term reaches it, where the per-term lookup would first look it
    up; a block of no terms would look up a digit no term uses.  Each
    distinct column object (a room of :func:`_room_columns`) is looked up
    once, into a list that its blocks stream: the same entries, as the
    tables are pure caches, in another order.  That order decides which
    error comes first, so a column whose lookup raises here is streamed
    with a lookup per term instead."""
    kinds = set(map(type, digits))
    lookup = tab.__getitem__
    if kinds == {int}:
        if min(counts) > 0:
            return chain.from_iterable(map(repeat, map(lookup, digits), counts))
    elif int not in kinds and tuple(map(len, digits)) == counts:
        entries = {}  # id of a column -> its entries
        try:
            for col in digits:
                if id(col) not in entries:
                    entries[id(col)] = list(map(lookup, col))
        except Exception:  # retried per term below, where it raises in order
            return chain.from_iterable(map(map, repeat(lookup), digits))
        return chain.from_iterable([entries[id(col)] for col in digits])
    return None


def _tail_sum(tail, factors):
    """Sum over the tail, from +0j, of c * f0 * f1 * ..., with one stream
    of factors per graded variable, in graded order.

    Lazy maps, one chain per variable, read the streams and multiply, so
    no Python code runs per term.
    """
    terms = tail.values()
    for factor in factors:
        terms = map(mul, terms, factor)
    return reduce(add, terms, 0j)


class _PowerTable(dict):
    """n -> value ** (offset + n), filled on first use; offset + n == 0
    reads 1+0j.  One table serves every call at the same value and offset
    (:func:`_power_table`)."""

    __slots__ = ("value", "offset")

    def __init__(self, value, offset):
        self[-offset] = 1.0 + 0j
        self.value, self.offset = value, offset

    def __missing__(self, n):
        power = self[n] = self.value ** (self.offset + n)
        return power


class _Unvalued(dict):
    """The table of a variable with no value: only offset + n == 0 reads,
    as 1+0j; any other entry raises :class:`SeriesError`."""

    __slots__ = ("var",)

    def __init__(self, var, offset):
        self[-offset] = 1.0 + 0j
        self.var = var

    def __missing__(self, n):
        raise SeriesError(f"no value for variable {self.var}")


_TABLES = {}  # (value bits, offset) -> _PowerTable, at most 4096 of them


def _power_table(values, v, offset):
    """The power table of ``v``'s value, shared by every call at that value
    and offset.  The key holds the value's bits, as a power's zero parts
    follow the signs of the value's."""
    if v not in values:
        return _Unvalued(v, offset)
    value = complex(values[v])
    key = _pack_complex(value.real, value.imag), offset
    tab = _TABLES.get(key)
    if tab is None:
        if len(_TABLES) >= 4096:
            _TABLES.clear()
        tab = _TABLES[key] = _PowerTable(value, offset)
    return tab


def bits_of(values) -> bytes:
    """The bits of complex numbers, a key that tells -0.0 from +0.0 (as
    ``cmath.log`` and powers do, where ``==`` does not)."""
    return b"".join([_pack_complex(z.real, z.imag) for z in values])


def _value_of(values, v):
    if v not in values:
        raise SeriesError(f"no value for variable {v}")
    return complex(values[v])


# ---------------------------------------------------------------------------
# JSON form (canonical ordering by lexicographic key)


def series_to_obj(s: GenSeries) -> list:
    return [
        {
            "exponents": {v: str(Fraction(q)) for v, q in sorted(exps.items())},
            "logs": {v: int(k) for v, k in sorted(logs.items())},
            "re": c.real,
            "im": c.imag,
        }
        for exps, logs, c in s.terms()
    ]
