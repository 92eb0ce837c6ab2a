"""Truncated multivariate generalized power series and tree expansions.

A series is a finite sum of sectors.  A sector is a base monomial
(exact rational exponents on every variable, integer log powers) times
a polynomial tail in the *graded* variables (the edge ratios) with
nonnegative integer exponents of total degree at most the truncation
order N.  Ungraded variables (the root difference x_A and the
translation z_A) are never truncated.  Exponent arithmetic is exact
rational; coefficients are complex doubles.

A tail is stored packed (Monagan & Pearce's packed exponent vectors):
``{key: coeff}``, the exponent vector as one integer in base N + 1 with
the first graded variable in the lowest digit.  Every digit of a kept
term is <= N, so keys whose degrees sum to at most N add without carry.
A key's degree is its digit sum; as N + 1 = 1 (mod N) that is
``key % N``, or N for a nonzero key with ``key % N == 0``.  Tuples
appear only at the boundary: :meth:`GenSeries.from_tails` packs them;
``terms``, ``coefficient``, :func:`series_to_obj` and the re-keying for
another variable set or order decode them.

Every truncated tail product goes through one kernel, :func:`_tail_mul`.
It keeps the tuple-keyed loop's order (left operand outer, right operand
inner, both in dict order, first-touch insertion), and a packed key only
renames a term, so every coefficient comes out bit for bit as that loop
gives it.  :func:`_powers` is the one loop making repeated powers u, u^2,
... (memoized binomial tails, ``log1p``, :func:`expand`'s plain powers),
and :func:`expand` builds its difference product as one packed tail chain.
It reads each factor's factorization from the tree's coordinate system
and its (1 + P)^s from the one binomial memo, keyed on the packed tail,
s and N: there is no memo per tree and pair.

:func:`evaluate_series` is table-driven.  For each graded variable and
integer base b of a sector it keeps one lazily filled power table, keyed
by the tail exponent n and holding value ** (b + n), shared by the
sectors with that base.  Each term is its coefficient times the entries
picked by the key's digits, in graded order, as the per-term loop that
skipped zero exponents multiplied them; one summation path, lazy maps
summed left to right, serves every tail.  A zero total exponent reads
1+0j instead of being skipped.  Times 1+0j a finite complex keeps its
nonzero parts and at most flips the sign of a zero part, and the sector
sum starts at +0j, so a zero part of either sign adds as +0.0: the sum
is bit for bit the skipping loop's.

Evaluation uses the principal logarithm, Arg in (-pi, pi); a variable
raised to a non-integer power (or carrying a log factor) must evaluate
off the cut R_{<=0}.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress, islice, repeat
from operator import add, floordiv, mod, mul
from typing import Mapping, Sequence

from opetree.coords import (
    CoordError,
    CoordSystem,
    a_coordinates,
    minimal_monomials,
    on_cut,
    pair_difference,
)
from opetree.trees import Frozen, Tree

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


def _ungraded_key(exps: Mapping) -> tuple:
    return tuple(sorted((v, Fraction(q)) for v, q in exps.items() if q))


class GenSeries:
    """Truncated generalized power series over a fixed graded variable set."""

    __slots__ = ("graded", "order", "sectors")

    def __init__(self, graded: Sequence[str], order: int):
        self.graded = tuple(graded)
        self.order = int(order)
        if self.order < 0:
            raise SeriesError(f"truncation order must be >= 0, got {self.order}")
        # key: (logs, ungraded, base) with base a Fraction tuple over graded
        # value: tail {packed exponent vector: complex coeff}
        self.sectors = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_tails(cls, graded: Sequence[str], order: int, sectors: Mapping) -> "GenSeries":
        """A series from ``{(logs, ungraded, base): {exponent tuple: coeff}}``,
        in the same order; terms of degree above ``order`` are dropped."""
        s = cls(graded, order)
        for key, tail in sectors.items():
            packed = s.sectors[key] = {}
            for vec, c in tail.items():
                if len(vec) != len(s.graded) or min(vec, default=0) < 0:
                    raise SeriesError(f"bad tail exponent vector {vec}")
                if sum(vec) <= s.order:
                    packed[_pack(vec, s.order + 1)] = c
        return s

    @classmethod
    def constant(cls, c, graded: Sequence[str], order: int) -> "GenSeries":
        return cls.monomial(c, {}, graded, order)

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

    def copy(self) -> "GenSeries":
        out = GenSeries(self.graded, self.order)
        out.sectors = {k: dict(t) for k, t in self.sectors.items()}
        return out

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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GenSeries):
            other = GenSeries.constant(other, self.graded, self.order)
        a, b = self._aligned(other)
        out = GenSeries(a.graded, a.order)
        for key, tail in [*a.sectors.items(), *b.sectors.items()]:
            out._merge_sector(key, dict(tail))
        return out._prune()

    __radd__ = __add__

    def __neg__(self):
        out = self.copy()
        for tail in out.sectors.values():
            for vec in tail:
                tail[vec] = -tail[vec]
        return out

    def __sub__(self, other):
        if not isinstance(other, GenSeries):
            other = GenSeries.constant(other, self.graded, self.order)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GenSeries):
            out = self.copy()
            c = complex(other)
            for tail in out.sectors.values():
                for vec in tail:
                    tail[vec] *= c
            return out._prune()
        a, b = self._aligned(other)
        out = GenSeries(a.graded, a.order)
        for (l1, u1, b1), t1 in a.sectors.items():
            for (l2, u2, b2), t2 in b.sectors.items():
                base = tuple(q1 + q2 for q1, q2 in zip(b1, b2))
                # zeros stay until out._prune(): _merge_sector adds them
                tail = _tail_mul(t1, t2, a.order, prune=False)
                if tail:
                    out._merge_sector((_merge_keys(l1, l2), _merge_keys(u1, u2), base), tail)
        return out._prune()

    __rmul__ = __mul__

    def truncate(self, order: int) -> "GenSeries":
        out = GenSeries(self.graded, min(self.order, order))
        for key, tail in self._at_order(out.order).sectors.items():
            if tail:
                out._merge_sector(key, dict(tail))
        return out._prune()

    # -- leading-term operations -------------------------------------------

    def _leading(self):
        """For c*(monomial)*(1+u) series: (key, c, u as a packed tail).

        A unique divisibility-minimal tail monomial is factored into the
        sector base first, so z + z^2 is accepted as z*(1 + z).
        """
        if len(self.sectors) != 1:
            raise SeriesError("operation needs a single-sector series")
        (key,) = self.sectors
        logs, ungraded, base = key
        tail = self.sectors[key]
        if not tail:
            raise SeriesError("zero series has no leading term")
        n = len(self.graded)
        minimal = minimal_monomials([_unpack_key(k, self.order + 1, n) for k in tail])
        if len(minimal) != 1:
            raise SeriesError("leading term is not an invertible monomial")
        m0 = minimal[0]
        if any(m0):
            # every key is digitwise >= m0, so subtracting never borrows
            base = tuple(b + m for b, m in zip(base, m0))
            key = (logs, ungraded, base)
            k0 = _pack(m0, self.order + 1)
            tail = {k - k0: c for k, c in tail.items()}
        c = tail[0]
        if c == 0:
            raise SeriesError("zero leading coefficient")
        u = {k: coeff / c for k, coeff in tail.items() if k}
        return key, c, u

    def pow(self, q) -> "GenSeries":
        """Raise a c*(monomial)*(1+u) series to an exact rational power.

        The leading constant uses the principal branch c^q = exp(q Log c).
        """
        q = Fraction(q)
        key, c, u = self._leading()
        logs, ungraded, base = key
        if logs:
            raise SeriesError("cannot exponentiate a series with log factors")
        if on_cut(c) and q.denominator != 1:
            raise SeriesError("leading coefficient on the cut")
        try:
            cq = c ** int(q) if q.denominator == 1 else cmath.exp(q * cmath.log(c))
        except (ZeroDivisionError, OverflowError):
            raise SeriesError("leading coefficient to this power out of range") from None
        newkey = ((), tuple((v, e * q) for v, e in ungraded), tuple(e * q for e in base))
        out = GenSeries(self.graded, self.order)
        out._merge_sector(newkey, _scale_tail(_binomial_tail(u, q, self.order), cq))
        return _finite_result(self, out._prune())

    def log1p(self) -> "GenSeries":
        """log of a series with unit constant term and trivial base."""
        key, c, u = self._leading()
        logs, ungraded, base = key
        if logs or ungraded or any(base) or c != 1:
            raise SeriesError("log1p needs a series of the form 1 + u")
        tail = {}
        for k, power in enumerate(islice(_powers(u, self.order), self.order), start=1):
            sign = (-1.0) ** (k + 1) / k
            for vec, coeff in power.items():
                tail[vec] = tail.get(vec, 0) + sign * coeff
        out = GenSeries(self.graded, self.order)
        out._merge_sector(((), (), tuple([0] * len(self.graded))), tail)
        return _finite_result(self, out._prune())

    # -- introspection ------------------------------------------------------

    def terms(self) -> list:
        """Flatten to (exponents dict, logs dict, coeff), lexicographic."""
        flat = []
        n = len(self.graded)
        for (logs, ungraded, base), tail in self.sectors.items():
            for k, c in tail.items():
                exps = {v: q for v, q in ungraded}
                for g, b, d in zip(self.graded, base, _unpack_key(k, self.order + 1, n)):
                    q = b + d
                    if q:
                        exps[g] = q
                key = (tuple(sorted(exps.items())), logs)
                flat.append((key, exps, dict(logs), c))
        flat.sort(key=lambda it: it[0])
        return [(exps, logs, c) for _, exps, logs, c in flat]

    def coefficient(self, exponents: Mapping, logs: Mapping | None = None) -> complex:
        want = {v: Fraction(q) for v, q in exponents.items() if q}
        want_logs = {v: k for v, k in (logs or {}).items() if k}
        for exps, lg, c in self.terms():
            if exps == want and lg == want_logs:
                return c
        return 0j

    def __repr__(self):
        return (
            f"GenSeries(graded={self.graded}, order={self.order}, "
            f"terms={self.n_terms()})"
        )


def _finite_result(arg, out):
    """``out``, computed from ``arg``; a coefficient that is not finite
    although every coefficient of ``arg`` is raises :class:`SeriesError`."""

    def finite(s):
        return all(cmath.isfinite(c) for t in s.sectors.values() for c in t.values())

    if not finite(out) and finite(arg):
        raise SeriesError("series coefficient out of floating-point range")
    return out


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


def _tail_mul(t1, t2, order, prune=True):
    """Product of two packed tails truncated at total degree ``order``.

    A left term meets only right terms that fit in its room, so keys add
    without carries.  The sums run left term outer, right term inner, both
    in dict order, with first-touch insertion: the result, zeros included
    when ``prune`` is false, is that of the tuple-keyed double loop.
    """
    right = [(k, _degree(k, order), c) for k, c in t2.items()]
    fitting = {}  # room -> right terms of degree <= room, in dict order
    out = {}
    get = out.get
    for k1, c1 in t1.items():
        room = order - _degree(k1, order)
        terms = fitting.get(room)
        if terms is None:
            terms = fitting[room] = [(k, c) for k, d, c in right if d <= room]
        for k2, c2 in terms:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    if prune:
        return dict(compress(out.items(), out.values()))
    return out


def _powers(u, order):
    """u, u^2, ... truncated at degree ``order`` until a power vanishes; a u
    with a constant term never does, so the caller bounds the count."""
    power = {0: 1.0 + 0j}
    while power := _tail_mul(power, u, order):
        yield power


def _binomial_tail(u, q, order):
    """(1+u)^q truncated: sum_k C(q,k) u^k with u of positive degree.

    Memoized on u's items in dict order, which fixes the summation order.
    The key's complex equality does not tell 0.0 from -0.0, and need not:
    every sum starts from int 0 or 1+0j, so a part that sums to zero comes
    out +0.0 and no other bit depends on the sign of a zero.  Returns a
    fresh dict, so a caller may change it.
    """
    return dict(_binomial_tail_memo(tuple(u.items()), Fraction(q), order))


@lru_cache(maxsize=4096)
def _binomial_tail_memo(items, q, order):
    out = {0: 1.0 + 0j}
    coeff = Fraction(1)
    for k, power in enumerate(islice(_powers(dict(items), order), order), start=1):
        # C(q, k) from C(q, k-1): the steps binomial(q, k) takes
        coeff = coeff * (q - (k - 1)) / k
        ck = complex(coeff)
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
        object.__setattr__(
            self,
            "diffs",
            tuple(((int(i), int(j)), Fraction(s)) for (i, j), s in self.diffs),
        )
        object.__setattr__(
            self, "powers", tuple((int(i), int(k)) for i, k in self.powers)
        )
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
    """Evaluate a power product at a configuration point.

    The plan is checked before the point: an index out of range, a factor
    paired with itself or used twice, or paired exponents that do not
    differ by an integer raise :class:`SeriesError`; so does a power
    beyond the double range.
    """
    plan = plan or BranchPlan()
    paired_idx = set()
    for a, b in plan.paired:
        for idx in (a, b):
            if idx not in range(len(f.diffs)):
                raise SeriesError(f"branch plan index {idx} out of range for {len(f.diffs)} factors")
        if a == b:
            raise SeriesError(f"branch plan pairs factor {a} with itself")
        if a in paired_idx or b in paired_idx:
            raise SeriesError(f"branch plan uses factor {a if a in paired_idx else b} twice")
        if (f.diffs[a][1] - f.diffs[b][1]).denominator != 1:
            raise SeriesError("paired exponents must differ by an integer")
        paired_idx |= {a, b}
    z = {}
    for v in f.variables():
        if v - 1 >= len(point):
            raise SeriesError(f"point has no coordinate z{v}")
        z[v] = complex(point[v - 1])
    total = complex(f.constant)
    try:
        for a, b in plan.paired:
            (i1, j1), s1 = f.diffs[a]
            (i2, j2), s2 = f.diffs[b]
            v1 = z[i1] - z[j1]
            v2 = z[i2] - z[j2]
            if abs(v2 - v1.conjugate()) > 1e-12 * (1 + abs(v1)):
                raise SeriesError("paired factors are not complex conjugates")
            total *= abs(v1) ** float(2 * s2) * v1 ** int(s1 - s2)
        for idx, ((i, j), s) in enumerate(f.diffs):
            if idx in paired_idx:
                continue
            v = z[i] - z[j]
            if s.denominator == 1:
                total *= v ** int(s)
                continue
            if on_cut(v):
                raise SeriesError(f"factor (z{i} - z{j}) on the cut with exponent {s}")
            total *= cmath.exp(s * cmath.log(v))
        for i, k in f.powers:
            total *= z[i] ** k
    except OverflowError:  # a power beyond the largest double
        raise SeriesError("closed-form value out of floating-point range") from None
    return total


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
    """
    cs = a if isinstance(a, CoordSystem) else a_coordinates(a)
    if negative_branch not in ("upper", "lower"):
        raise SeriesError("negative_branch must be 'upper' or 'lower'")
    names = cs.var_names(conjugate=conjugate)
    graded = names["zeta"]
    out = GenSeries(graded, order)
    zero_base = tuple([ZERO] * len(graded))
    tail = {0: complex(f.constant)} if f.constant != 0 else {}
    x_exp, base, negative = ZERO, list(zero_base), []
    # one packed tail, the product so far on the left as in GenSeries.__mul__;
    # a factor's tail is the binomial memo's own dict, copied by _scale_tail
    for (i, j), s in f.diffs:
        fac = pair_difference(cs, i, j)
        factor = _binomial_tail_memo(tuple(_packed_poly(fac.tail, order).items()), s, order)
        x_exp += s
        for idx, m in enumerate(fac.monomial):
            if m:
                base[idx] += s * m
        coeff = 1.0 + 0j
        if fac.sign == -1:
            negative.append((i, j))
            coeff = phase_pi(s if negative_branch == "upper" else -s)
        tail = _tail_mul(tail, _scale_tail(factor, coeff), order)
    if tail:
        out.sectors[((), _ungraded_key({names["x"]: x_exp}), tuple(base))] = tail
    for i, k in f.powers:
        if i not in cs.q_polys:
            raise CoordError(f"no leaf labeled {i}")
        # z_i^k = sum_m C(k, m) z_A^(k-m) x_A^m Q_i^m; the ungraded keys all
        # differ, so no two sectors fold.  Q_i has a constant term: take k powers.
        qpows = islice(_powers(_packed_poly(cs.q_polys[i], order), order), k)
        piece = GenSeries(graded, order)
        for m, qpow in enumerate(chain([{0: 1.0 + 0j}], qpows)):
            ungraded = _ungraded_key({names["z"]: k - m, names["x"]: m})
            try:
                binom = complex(math.comb(k, m))
            except OverflowError:
                raise SeriesError("series coefficient out of floating-point range") from None
            piece.sectors[((), ungraded, zero_base)] = _scale_tail(qpow, binom)
        out = _finite_result(out, out * piece)
    return ExpandedProduct(out, tuple(negative))


def _packed_poly(poly, order):
    return {_pack(v, order + 1): complex(c) for v, c in poly.items() if sum(v) <= order}


def _scale_tail(tail, c):
    if c == 1:
        return dict(tail)
    return {v: c * x for v, x in tail.items()}


# ---------------------------------------------------------------------------
# Evaluation of series


def evaluate_series(s: GenSeries, values: Mapping) -> complex:
    """Sum the series at numeric variable values, principal branches.

    Raises :class:`SeriesError` for a missing variable, a variable on
    the cut raised to a non-integer power or carrying a log factor, or a
    power beyond the double range.  A
    value is looked up, a power computed and a cut checked only when some
    term needs it.
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
        if (v, offset) not in tables:
            tables[v, offset] = _PowerTable(values, v, offset)
        return tables[v, offset]

    def power(v, q):
        if q.denominator == 1:
            return table(v)[int(q)]
        return cmath.exp(q * log_of(v))

    total = 0j
    base = s.order + 1
    try:
        for (logs, ungraded, offsets), tail in s.sectors.items():
            sector_val = 1.0 + 0j
            for v, k in logs:
                sector_val *= log_of(v) ** k
            for v, q in ungraded:
                sector_val *= power(v, q)
            row = []
            for g, q in zip(s.graded, offsets):
                if q.denominator == 1:
                    row.append(table(g, int(q)))
                else:
                    sector_val *= power(g, q)
                    row.append(table(g))
            total += sector_val * _tail_sum(tail, row, base)
    except OverflowError:  # a power beyond the largest double, here or in a _PowerTable
        raise SeriesError("series value out of floating-point range") from None
    return total


def _tail_sum(tail, row, base):
    """Sum over the tail, from +0j, of c * row[0][digit 0] * row[1][digit 1]...

    Lazy maps, one chain per variable, decode the digits and multiply, so
    no Python code runs per term.
    """
    terms = iter(tail.values())
    for i, tab in enumerate(row):
        digits = map(floordiv, tail, repeat(base**i)) if i else iter(tail)
        if i + 1 < len(row):
            digits = map(mod, digits, repeat(base))
        terms = map(mul, terms, map(tab.__getitem__, digits))
    return reduce(add, terms, 0j)


class _PowerTable(dict):
    """n -> value ** (offset + n) of one variable, filled on first use.

    offset + n == 0 reads 1+0j; any other entry looks the value up the
    first time one is needed.
    """

    __slots__ = ("values", "var", "offset", "value")

    def __init__(self, values, var, offset):
        self[-offset] = 1.0 + 0j
        self.values, self.var, self.offset, self.value = values, var, offset, None

    def __missing__(self, n):
        if self.value is None:
            self.value = _value_of(self.values, self.var)
        power = self[n] = self.value ** (self.offset + n)
        return power


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
