import cmath
import math
import random
import re
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetree import series
from opetree.coords import CoordError, a_coordinates, pair_difference, psi
from opetree.series import (
    ZERO,
    BranchPlan,
    GenSeries,
    PowerProduct,
    SeriesError,
    _tail_mul,
    binomial,
    evaluate_closed,
    evaluate_series,
    expand,
    phase_pi,
    series_to_obj,
)
from opetree.trees import parse_tree
from tests.test_trees import random_tree


def one_plus(graded, order, tail):
    """Series 1 + sum tail[vec]*zeta^vec."""
    ones = {tuple([0] * len(graded)): 1.0 + 0j}
    for vec, c in tail.items():
        ones[vec] = ones.get(vec, 0) + complex(c)
    return GenSeries.from_tails(graded, order, {((), (), tuple([ZERO] * len(graded))): ones})


def _packed(tail, order):
    """A tuple-keyed tail packed in base order + 1, in dict order; terms
    above the order are dropped, as GenSeries.from_tails drops them."""
    return {series._pack(v, order + 1): c for v, c in tail.items() if sum(v) <= order}


def _decoded(tail, order, nvars):
    return {series._unpack_key(k, order + 1, nvars): c for k, c in tail.items()}


def _one_plus_to(u, q, order):
    """(1 + u)^q from the binomial memo, for a tuple-keyed u, decoded."""
    nvars = len(next(iter(u)))
    q = Fraction(q)
    tail = series._binomial_tail_memo(tuple(_packed(u, order).items()), q.numerator, q.denominator, order)
    return _decoded(tail, order, nvars)


class TestArithmetic:
    def test_geometric(self):
        assert _one_plus_to({(1,): 1 + 0j}, -1, 3) == {(0,): 1, (1,): -1, (2,): 1, (3,): -1}

    def test_binomial_sqrt(self):
        got = _one_plus_to({(1,): 1 + 0j}, Fraction(1, 2), 2)
        assert got[(0,)] == 1
        assert abs(got[(1,)] - 0.5) < 1e-15
        assert abs(got[(2,)] + 0.125) < 1e-15

    def test_mul_matches_dense_convolution(self):
        rng = random.Random(21)
        for _ in range(40):
            nv = rng.randint(1, 3)
            graded = tuple(f"z{k}" for k in range(nv))
            order = rng.randint(2, 8)

            def rand_tail():
                tail = {}
                for _ in range(rng.randint(1, 6)):
                    vec = tuple(rng.randint(0, order) for _ in range(nv))
                    if sum(vec) <= order:
                        tail[vec] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                return tail

            t1, t2 = rand_tail(), rand_tail()
            f = one_plus(graded, order, t1)
            g = one_plus(graded, order, t2)
            prod = f * g
            # dense oracle
            t1[tuple([0] * nv)] = t1.get(tuple([0] * nv), 0) + 1
            t2[tuple([0] * nv)] = t2.get(tuple([0] * nv), 0) + 1
            dense = {}
            for v1, c1 in t1.items():
                for v2, c2 in t2.items():
                    vec = tuple(a + b for a, b in zip(v1, v2))
                    if sum(vec) <= order:
                        dense[vec] = dense.get(vec, 0) + c1 * c2
            got = {
                tuple(int(e.get(z, 0)) for z in graded): c
                for e, _, c in prod.terms()
            }
            for vec, c in dense.items():
                assert abs(got.get(vec, 0) - c) <= 1e-13 * (1 + abs(c))

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError):
            GenSeries(("z",), -1)
        with pytest.raises(SeriesError):
            expand(parse_tree("(12)3"), PowerProduct(diffs=(((1, 2), 1),)), -5)

    @pytest.mark.parametrize("order", [2.5, 2.0, True, "3"])
    def test_order_must_be_an_int(self, order):
        # 2.5 once escaped expand as a bare ValueError, and True read as 1
        message = re.escape(f"truncation order must be an int, got {order!r}")
        with pytest.raises(SeriesError, match=message):
            GenSeries(("z",), order)
        with pytest.raises(SeriesError, match=message):
            expand(parse_tree("(12)3"), PowerProduct(diffs=(((1, 2), 1),)), order)

    def test_only_series_multiply(self):
        # the one series arithmetic is * of two series
        s = GenSeries.monomial(2.0, {}, ("z",), 3)
        assert (s * s).terms() == [({}, {}, 4 + 0j)]
        for bad in (
            lambda: s + s,
            lambda: s + 1,
            lambda: 1 + s,
            lambda: s - s,
            lambda: -s,
            lambda: s * 3.0,
            lambda: 3.0 * s,
        ):
            with pytest.raises(TypeError):
                bad()

    @given(
        q=st.fractions(
            min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
        ).filter(lambda x: x != 0)
    )
    @settings(max_examples=40, deadline=None)
    def test_pow_inverse_property(self, q):
        # (1 + u)^q times (1 + u)^-q, both from the binomial memo, is 1
        u = {(1, 0): 0.5 + 0j, (0, 1): -0.25 + 0j, (1, 1): 0.125 + 0j}
        zero = ((), (), (ZERO, ZERO))
        s, t = (GenSeries.from_tails(("a", "b"), 6, {zero: _one_plus_to(u, e, 6)}) for e in (q, -q))
        terms = (s * t).terms()
        for exps, logs, c in terms:
            if exps:
                assert abs(c) < 1e-12
            else:
                assert abs(c - 1) < 1e-12

    def test_binomial_coefficients_exact(self):
        assert binomial(-1, 3) == -1
        assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert binomial(5, 2) == 10

def _loop_tail_mul(t1, t2, order, prune=True):
    """The tuple-keyed double loop that _tail_mul replaced, kept as the
    reference: left operand outer, right inner, first-touch insertion."""
    out = {}
    for v1, c1 in t1.items():
        d1 = sum(v1)
        for v2, c2 in t2.items():
            if d1 + sum(v2) > order:
                continue
            nv = tuple(x + y for x, y in zip(v1, v2))
            out[nv] = out.get(nv, 0) + c1 * c2
    return {v: c for v, c in out.items() if c != 0 or not prune}


def _loop_binomial_tail(u, q, order, nvars):
    """The tuple-keyed (1+u)^q, without the memo."""
    zero = tuple([0] * nvars)
    out = {zero: 1.0 + 0j}
    power = {zero: 1.0 + 0j}
    coeff = Fraction(1)
    for k in range(1, order + 1):
        power = _loop_tail_mul(power, u, order)
        if not power:
            break
        coeff = coeff * (q - (k - 1)) / k
        ck = complex(coeff)
        for vec, c in power.items():
            out[vec] = out.get(vec, 0) + ck * c
    return {v: c for v, c in out.items() if c != 0}


class _TupleSeries:
    """GenSeries as it was with tuple-keyed tails, kept as the bit-exact
    reference for the packed series (the operations the tests compare)."""

    def __init__(self, graded, order, sectors=None):
        self.graded = tuple(graded)
        self.order = int(order)
        self.sectors = {} if sectors is None else sectors

    def _prune(self):
        for key in list(self.sectors):
            tail = self.sectors[key]
            for vec in list(tail):
                if tail[vec] == 0:
                    del tail[vec]
            if not tail:
                del self.sectors[key]
        return self

    def _aligned(self, other):
        if self.graded == other.graded:
            return self, other
        union = tuple(sorted(set(self.graded) | set(other.graded)))
        return self._embed(union), other._embed(union)

    def _embed(self, union):
        if union == self.graded:
            return self
        idx = [self.graded.index(g) if g in self.graded else None for g in union]
        out = _TupleSeries(union, self.order)
        for (logs, ungraded, base), tail in self.sectors.items():
            ung = dict(ungraded)
            newbase = tuple(
                base[i] if i is not None else Fraction(ung.pop(union[k], 0))
                for k, i in enumerate(idx)
            )
            newtail = {}
            for vec, c in tail.items():
                nv = tuple(vec[i] if i is not None else 0 for i in idx)
                newtail[nv] = newtail.get(nv, 0) + c
            key = (logs, tuple(sorted(ung.items())), newbase)
            out._merge_sector(key, newtail)
        return out._prune()

    def _merge_sector(self, key, tail):
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
            self.sectors[key] = dict(tail)
            return
        _, _, b2 = target
        common = tuple(min(q1, q2) for q1, q2 in zip(base, b2))
        if common != b2:
            old = self.sectors.pop(target)
            shift = tuple(int(q2 - qc) for q2, qc in zip(b2, common))
            moved = {}
            for vec, c in old.items():
                nv = tuple(v + s for v, s in zip(vec, shift))
                if sum(nv) <= self.order:
                    moved[nv] = moved.get(nv, 0) + c
            target = (logs, ungraded, common)
            self.sectors[target] = moved
        dest = self.sectors[target]
        shift = tuple(int(q1 - qc) for q1, qc in zip(base, target[2]))
        for vec, c in tail.items():
            nv = tuple(v + s for v, s in zip(vec, shift))
            if sum(nv) <= self.order:
                dest[nv] = dest.get(nv, 0) + c

    def __mul__(self, other):
        a, b = self._aligned(other)
        order = min(a.order, b.order)
        out = _TupleSeries(a.graded, order)
        for (l1, u1, b1), t1 in a.sectors.items():
            for (l2, u2, b2), t2 in b.sectors.items():
                logs = series._merge_keys(l1, l2)
                ungraded = series._merge_keys(u1, u2)
                base = tuple(q1 + q2 for q1, q2 in zip(b1, b2))
                tail = _loop_tail_mul(t1, t2, order, prune=False)
                if tail:
                    out._merge_sector((logs, ungraded, base), tail)
        return out._prune()

    def terms(self):
        flat = []
        for (logs, ungraded, base), tail in self.sectors.items():
            for vec, c in tail.items():
                exps = {v: q for v, q in ungraded}
                for g, b, n in zip(self.graded, base, vec):
                    q = b + n
                    if q:
                        exps[g] = q
                key = (tuple(sorted(exps.items())), logs)
                flat.append((key, exps, dict(logs), c))
        flat.sort(key=lambda it: it[0])
        return [(exps, logs, c) for _, exps, logs, c in flat]


def _pair(graded, order, sectors):
    """The same tuple-keyed sectors as a packed series and as the reference.

    Terms above the order are left out of both, and so are the sectors
    left with no term, as from_tails drops them."""
    kept = {
        key: {v: c for v, c in tail.items() if sum(v) <= order}
        for key, tail in sectors.items()
    }
    ref = _TupleSeries(graded, order, {k: dict(t) for k, t in kept.items() if t})
    return GenSeries.from_tails(graded, order, sectors), ref


def _bits(tail):
    """Terms in dict order with the exact bits of each coefficient."""
    return [(v, struct.pack("<dd", c.real, c.imag)) for v, c in tail.items()]


def _term_bits(s):
    return [(repr(e), repr(l), struct.pack("<dd", c.real, c.imag)) for e, l, c in s.terms()]


def _assert_same(got, want):
    """A packed series and a reference agree bit for bit: sector keys in
    order, each tail's terms in dict order, and terms()."""
    assert (got.graded, got.order) == (want.graded, want.order)
    assert repr(list(got.sectors)) == repr(list(want.sectors))
    for key, tail in want.sectors.items():
        assert _bits(_decoded(got.sectors[key], got.order, len(got.graded))) == _bits(tail)
    assert _term_bits(got) == _term_bits(want)


def _result(fn, *args):
    """A series result, or the exception it raised."""
    try:
        return fn(*args)
    except SeriesError as err:
        return type(err), str(err)


# Parts that cancel exactly, signed zeros, and arbitrary doubles.
_parts = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0]),
    st.floats(-4, 4, allow_nan=False),
)
_coeffs = st.one_of(
    st.sampled_from([0j, complex(-0.0, -0.0), 1 + 0j, -1 + 0j]),
    st.builds(complex, _parts, _parts),
)
# ... and parts that are infinite or nan
_special_coeffs = st.one_of(
    _coeffs,
    st.builds(complex, st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1.0]), _parts),
    st.builds(complex, _parts, st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1.0])),
)


def _vecs(nvars, order):
    """Exponent vectors, some above the order; small entries are common so
    that many vectors fit even at large orders."""
    entry = st.one_of(st.integers(0, 2), st.integers(0, order + 1))
    return st.tuples(*[entry] * nvars)


@st.composite
def _tails(draw, nvars, order):
    """Tails whose terms may exceed the order; they must be skipped."""
    return draw(st.dictionaries(_vecs(nvars, order), _coeffs, max_size=12))


_orders = st.one_of(st.integers(0, 12), st.integers(13, 200))


@st.composite
def _tail_pairs(draw):
    # 1-7 variables, orders up to 200
    nvars = draw(st.integers(1, 7))
    order = draw(_orders)
    return nvars, order, draw(_tails(nvars, order)), draw(_tails(nvars, order))


_HALF_OR_ZERO = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])


@st.composite
def _series_pair(draw, nvars, order, graded=None, ungraded=()):
    """A multi-sector series over ``graded``: bases 0, 1/2 and 1 on the
    first variable (so sectors merge by integer shifts), optional ungraded
    factors; returned packed and as the reference."""
    graded = graded or tuple(f"z{k}" for k in range(nvars))
    sectors = {}
    for _ in range(draw(st.integers(1, 3))):
        base = (draw(_HALF_OR_ZERO),) + tuple([Fraction(0)] * (len(graded) - 1))
        names = draw(st.lists(st.sampled_from(ungraded), unique=True, max_size=1)) if ungraded else []
        ung = tuple(sorted((v, draw(_HALF_OR_ZERO.filter(bool))) for v in names))
        sectors[((), ung, base)] = draw(_tails(len(graded), order))
    return _pair(graded, order, sectors)


class TestPackedKernel:
    @given(case=_tail_pairs(), prune=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tail_mul_bit_identical_to_loop(self, case, prune):
        nvars, order, t1, t2 = case
        got = _tail_mul(_packed(t1, order), _packed(t2, order), order, prune=prune)
        want = _loop_tail_mul(t1, t2, order, prune=prune)
        assert _bits(_decoded(got, order, nvars)) == _bits(want)

    @given(case=_tail_pairs(), extra=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mul_bit_identical_to_loop(self, case, extra):
        # bases 0 and 1/2 on both sides: the two cross products share the
        # sector 1/2, and 1/2 + 1/2 folds into sector 0, so the product's
        # zeros reach _merge_sector
        nvars, order, t1, t2 = case
        t3, t4 = extra.draw(_tails(nvars, order)), extra.draw(_tails(nvars, order))
        graded = tuple(f"z{k}" for k in range(nvars))
        zero = tuple([Fraction(0)] * nvars)
        half = tuple([Fraction(1, 2)] + [Fraction(0)] * (nvars - 1))
        a, ref_a = _pair(graded, order, {((), (), zero): t1, ((), (), half): t3})
        b, ref_b = _pair(
            graded,
            extra.draw(st.integers(order, order + 2)),
            {((), (), half): t2, ((), (), zero): t4},
        )
        _assert_same(a * b, ref_a * ref_b)

    @given(data=st.data(), nvars=st.integers(1, 4), order=st.integers(0, 12), left=st.booleans(), prune=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_term_operand_bit_identical_to_loop(self, data, nvars, order, left, prune):
        # the one-term kernel path, with the one term on either side and of
        # any degree up to the order, against coefficients that include
        # signed zeros, infinities and nans
        vec = data.draw(_vecs(nvars, order).filter(lambda v: sum(v) <= order))
        one = {vec: data.draw(_special_coeffs)}
        many = data.draw(st.dictionaries(_vecs(nvars, order), _special_coeffs, max_size=12))
        t1, t2 = (one, many) if left else (many, one)
        got = _tail_mul(_packed(t1, order), _packed(t2, order), order, prune=prune)
        assert _bits(_decoded(got, order, nvars)) == _bits(_loop_tail_mul(t1, t2, order, prune=prune))

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("left", [True, False])
    def test_one_term_operand_of_positive_degree(self, left, prune):
        # a degree-3 term at order 6 cuts the other side's terms of degree
        # above 3; zero, signed-zero, inf and nan products on the way
        inf, nan = math.inf, math.nan
        one = {(1, 2): complex(-0.0, 2.0)}
        many = {
            (0, 0): complex(-0.0, -0.0),
            (1, 0): complex(inf, 0.0),
            (0, 1): complex(nan, 1.0),
            (2, 1): 0j,
            (1, 3): 1 + 1j,
            (3, 0): complex(1.0, -0.0),
            (0, 4): complex(-inf, nan),
        }
        t1, t2 = (one, many) if left else (many, one)
        got = _tail_mul(_packed(t1, 6), _packed(t2, 6), 6, prune=prune)
        want = _loop_tail_mul(t1, t2, 6, prune=prune)
        assert _bits(_decoded(got, 6, 2)) == _bits(want)
        assert (1 + 1, 3 + 2) not in want and (1 + 2, 2 + 2) not in want
        assert ((1, 2) in want) is not prune  # (0, 0) * one sums to a zero

    @given(data=st.data(), split=st.integers(1, 3), nvars=st.integers(2, 5), order=_orders, prune=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_disjoint_operands_bit_identical_to_get_and_add(self, data, split, nvars, order, prune):
        # the left tail uses the first `split` digits only and the right the
        # others, so k1 + k2 is one to one and the one-pass branch applies;
        # signed zeros, infinities and nans, and terms cut by the order
        split = min(split, nvars - 1)
        vecs = _vecs(nvars, order)
        left_vecs = vecs.map(lambda v: v[:split] + (0,) * (nvars - split))
        right_vecs = vecs.map(lambda v: (0,) * split + v[split:])
        t1 = _packed(data.draw(st.dictionaries(left_vecs, _special_coeffs, max_size=12)), order)
        t2 = _packed(data.draw(st.dictionaries(right_vecs, _special_coeffs, max_size=12)), order)
        want = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                if series._degree(k1, order) + series._degree(k2, order) <= order:
                    want[k1 + k2] = want.get(k1 + k2, 0) + c1 * c2
        if prune:
            want = {k: c for k, c in want.items() if c != 0}
        for disjoint in (True, False):
            got = _tail_mul(t1, t2, order, prune=prune, disjoint=disjoint)
            assert [(k, repr(c)) for k, c in got.items()] == [(k, repr(c)) for k, c in want.items()]
            assert _bits(got) == _bits(want)

    @given(data=st.data(), order=st.integers(0, 8), cross=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_disjoint_series_product_bit_identical_to_loop(self, data, order, cross):
        # GenSeries.__mul__ over disjoint graded variables, against the
        # tuple-keyed reference: several sectors and bases fold.  With
        # `cross`, each operand may carry one of the other's graded
        # variables ungraded; embedding may fold it into the tails, so the
        # keys need not be disjoint
        a, ref_a = data.draw(_series_pair(2, order, ("a0", "a1"), ("b0", "b1") if cross else ()))
        b, ref_b = data.draw(_series_pair(2, order, ("b0", "b1"), ("a0", "a1") if cross else ()))
        _assert_same(a * b, ref_a * ref_b)
        _assert_same(b * a, ref_b * ref_a)

    def test_ungraded_variable_folded_into_the_tail(self):
        # z3 is graded on the left and ungraded on the right, whose sectors
        # z3^0 and z3^1 fold into one tail with a z3 digit on embedding:
        # key (0, 1) is touched twice and sums 1 + 1
        zero, one = Fraction(0), Fraction(1)
        a = GenSeries.from_tails(("z3",), 1, {((), (), (zero,)): {(0,): 1 + 0j, (1,): 1 + 0j}})
        b = GenSeries.from_tails(
            ("z0",), 1, {((), (), (zero,)): {(0,): 1 + 0j}, ((), (("z3", one),), (zero,)): {(0,): 1 + 0j}}
        )
        assert (a * b).terms() == [({}, {}, 1 + 0j), ({"z3": 1}, {}, 2 + 0j)]

    @pytest.mark.parametrize("order", [0, 1, 4, 9])
    @pytest.mark.parametrize(
        "constant",
        [1 + 0j, complex(1.0, -0.0), complex(-0.0, 2.0), complex("inf"), 0j, 2 - 3j, complex(2, -0.0), complex("nan")],
    )
    @pytest.mark.parametrize("units_only", [False, True])
    def test_expand_skips_unit_factors_bit_exactly(self, order, constant, units_only, monkeypatch):
        # on ((12)3)4 the pairs (1,2), (2,3), (3,4) and their reverses factor
        # with no tail; (2,1)^(-1/2) is a sign -1 unit with a phase and
        # (4,3)^2 one whose phase is 1; at N = 0 every pair is a unit.  A
        # finite constant with no -0.0 part skips every unit; one with a
        # -0.0 part meets the first unit, which turns it into +0.0, and a
        # constant that is not finite meets them all.  With units only, a
        # -0.0, an infinity or a nan in the constant reaches the result.  The
        # products are counted on a second expansion, as the first fills the
        # binomial memo with _tail_mul's help.
        products = []
        real = series._tail_mul
        monkeypatch.setattr(series, "_tail_mul", lambda *args, **kw: products.append(args) or real(*args, **kw))
        cs = a_coordinates(parse_tree("((12)3)4"))
        diffs = (
            ((1, 2), Fraction(1, 2)),
            ((2, 1), Fraction(-1, 2)),
            ((1, 3), Fraction(-3, 2)),
            ((3, 4), Fraction(-1)),
            ((4, 3), Fraction(2)),
            ((2, 4), Fraction(1, 3)),
            ((2, 3), Fraction(3)),
        )
        if units_only:
            diffs = tuple(d for d in diffs if d[0] in [(1, 2), (3, 4), (4, 3), (2, 3)])
        f = PowerProduct(diffs=diffs, constant=constant)
        finite = cmath.isfinite(constant)
        negative_zero = any(p == 0 and math.copysign(1.0, p) < 0 for p in (constant.real, constant.imag))
        for conjugate, branch in [(False, "upper"), (True, "lower")]:
            expand(cs, f, order, conjugate=conjugate, negative_branch=branch)
            products.clear()
            ex = expand(cs, f, order, conjugate=conjugate, negative_branch=branch)
            if units_only:
                assert len(products) == (len(diffs) if not finite else 1 if negative_zero else 0)
            want, negative = _per_factor_expand(cs, f, order, conjugate, branch)
            assert ex.negative_pairs == negative == (((4, 3),) if units_only else ((2, 1), (4, 3)))
            assert repr(list(ex.series.sectors)) == repr(list(want.sectors))
            for key, tail in want.sectors.items():
                assert [repr(c) for c in ex.series.sectors[key].values()] == [repr(c) for c in tail.values()]
                assert _bits(ex.series.sectors[key]) == _bits(tail)

    def test_zero_order_keeps_constants_only(self):
        t = {(0, 0): 2 + 0j, (1, 0): 1 + 0j, (0, 1): 3 + 0j}
        assert _tail_mul(_packed(t, 0), _packed(t, 0), 0) == {0: 4 + 0j}
        s = GenSeries.from_tails(("a", "b"), 0, {((), (), (ZERO, ZERO)): t})
        assert (s * s).terms() == [({}, {}, 4 + 0j)]

    @pytest.mark.parametrize("order", [62, 63, 64, 200])
    def test_large_orders_bit_identical_to_loop(self, order):
        # keys in base order + 1 with up to six digits, decoded back
        rng = random.Random(order)
        for nvars in (1, 2, 3, 6):
            tails = [
                {
                    tuple(rng.randint(0, order // nvars) for _ in range(nvars)): complex(
                        rng.uniform(-1, 1), rng.uniform(-1, 1)
                    )
                    for _ in range(30)
                }
                for _ in range(2)
            ]
            got = _tail_mul(*[_packed(t, order) for t in tails], order)
            assert _bits(_decoded(got, order, nvars)) == _bits(_loop_tail_mul(*tails, order))
            assert all(0 <= k < (order + 1) ** nvars for k in got)

    @pytest.mark.parametrize("order", [1, 2, 7, 30, 200])
    def test_degree_is_digit_sum(self, order):
        rng = random.Random(order)
        for nvars in (1, 3, 7):
            for _ in range(200):
                vec = [0] * nvars
                for _ in range(rng.randint(0, order)):
                    vec[rng.randrange(nvars)] += 1
                assert series._degree(series._pack(vec, order + 1), order) == sum(vec)
        assert series._degree(0, 0) == 0


class TestPackedSeries:
    """Packed GenSeries against the tuple-keyed reference, bit for bit."""

    @given(data=st.data(), nvars=st.integers(1, 7), order=_orders)
    @settings(max_examples=60, deadline=None)
    def test_mul_at_unequal_orders_drops_terms_above_the_order(self, data, nvars, order):
        # the longer operand is re-keyed at the lower order, on either side,
        # its terms above that order dropped as the reference's loop skips them
        a, ref_a = data.draw(_series_pair(nvars, order + data.draw(st.integers(1, 3))))
        b, ref_b = data.draw(_series_pair(nvars, order))
        for got, want in ((a * b, ref_a * ref_b), (b * a, ref_b * ref_a)):
            assert got.order == order
            _assert_same(got, want)

    @given(data=st.data(), order=_orders)
    @settings(max_examples=120, deadline=None)
    def test_embed_across_variable_sets(self, data, order):
        # z3 is graded on one side and an ungraded factor on the other, so
        # embedding moves it into the sector base
        names = ("z0", "z1", "z2", "z3", "z4", "z5", "z6")
        ga = tuple(sorted(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))))
        gb = tuple(sorted(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))))
        a, ref_a = data.draw(_series_pair(len(ga), order, ga, ("z3",) if "z3" not in ga else ()))
        b, ref_b = data.draw(_series_pair(len(gb), order, gb, ("z3",) if "z3" not in gb else ()))
        union = tuple(sorted(set(ga) | set(gb)))
        _assert_same(a._embed(union), ref_a._embed(union))
        _assert_same(a * b, ref_a * ref_b)

class TestBinomialTail:
    def test_matches_exact_rational_expansion(self):
        # integer-coefficient u, as the pair-difference tails have: every
        # double coefficient of (1+u)^q is within 1e-13 relative of the
        # exact rational one, and exact zeros come out zero
        rng = random.Random(43)
        checked = 0
        while checked < 120:
            nvars, order = rng.randint(1, 3), rng.randint(1, 12)
            u = {}
            for _ in range(rng.randint(1, 5)):
                vec = tuple(rng.randint(0, 3) for _ in range(nvars))
                if 0 < sum(vec) <= order:
                    u[vec] = rng.choice([-3, -2, -1, 1, 2, 3])
            if not u:
                continue
            q = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6, 7]))
            got = _one_plus_to({v: complex(c) for v, c in u.items()}, q, order)
            zero = tuple([0] * nvars)
            exact, power = {zero: Fraction(1)}, {zero: Fraction(1)}
            for k in range(1, order + 1):
                nxt = {}
                for v1, c1 in power.items():
                    for v2, c2 in u.items():
                        v = tuple(x + y for x, y in zip(v1, v2))
                        if sum(v) <= order:
                            nxt[v] = nxt.get(v, Fraction(0)) + c1 * c2
                power = nxt
                for v, c in power.items():
                    exact[v] = exact.get(v, Fraction(0)) + binomial(q, k) * c
            for v in set(exact) | set(got):
                want, have = exact.get(v, Fraction(0)), got.get(v, 0j)
                assert abs(have - float(want)) <= 1e-13 * abs(float(want)), (u, q, v)
            checked += 1

    def test_memo_results_are_not_aliased(self):
        # a hit hands back the memo's own dict, which the library only
        # reads: scaling it and multiplying by it make new dicts, and
        # changing those leaves the memo intact
        u = _packed({(1, 0): 0.5 + 0j, (0, 1): -0.25 + 0j, (1, 1): 0.125 + 0j}, 8)
        key = (tuple(u.items()), -5, 3, 8)
        first = series._binomial_tail_memo(*key)
        want = _bits(first)
        before = series._binomial_tail_memo.cache_info().hits
        assert series._binomial_tail_memo(*key) is first
        assert series._binomial_tail_memo.cache_info().hits == before + 1
        scaled = series._scale_tail(first, 3.0)
        product = _tail_mul({0: 1.0 + 0j}, first, 8)
        assert scaled is not first and product is not first
        assert _bits(product) == want
        for tail in (scaled, product):
            tail[0] = 99.0 + 0j
        assert _bits(series._binomial_tail_memo(*key)) == want

    @pytest.mark.parametrize(
        "q",
        [
            Fraction(-7, 3),
            Fraction(-1, 2),
            Fraction(5, 2),
            Fraction(-3),
            Fraction(4),
            Fraction(-1, 10**9 + 7),
            Fraction(-(10**12) - 1, 10**6 + 3),
            Fraction(-123456789, 2**61 - 1),
            Fraction(987654321987, 2**40 + 15),
            Fraction(-(2**53) - 1, 3**20),
        ],
    )
    def test_integer_recurrence_is_complex_of_exact_binomial(self, q):
        # (1 + z)^q at order 60: the coefficient of z^k is C(q, k) times
        # 1+0j, so it must be complex(binomial(q, k)) bit for bit
        got = series._binomial_tail_memo.__wrapped__(((1, 1.0 + 0j),), q.numerator, q.denominator, 60)
        for k in range(61):
            want = complex(binomial(q, k))
            c = got.get(k, 0j)
            assert (c.real.hex(), c.imag.hex()) == (want.real.hex(), want.imag.hex()), (q, k)

    def test_coefficient_beyond_double_range_raises(self):
        # C(q, k) overflows a double before k = 60 for |q| ~ 10^12
        for q in (Fraction(10**12), Fraction(-(10**13), 3)):
            with pytest.raises(OverflowError):
                float(binomial(q, 60))
            with pytest.raises(SeriesError, match="^series coefficient out of floating-point range$"):
                series._binomial_tail_memo.__wrapped__(((1, 1.0 + 0j),), q.numerator, q.denominator, 60)

    def test_memo_exact_across_signed_zeros(self):
        # the memo key merges 0.0 and -0.0 parts; the tail it returns must
        # still be the one computed from the tail asked for
        plus = {1: complex(0.5, 0.0), 2: complex(-1.0, 0.0), 3: 0j}
        minus = {1: complex(0.5, -0.0), 2: complex(-1.0, -0.0), 3: -0j}
        for q in (Fraction(1, 2), Fraction(-3), Fraction(2)):
            for u in (plus, minus):
                fresh = series._binomial_tail_memo.__wrapped__(tuple(u.items()), q.numerator, q.denominator, 6)
                assert _bits(series._binomial_tail_memo(tuple(u.items()), q.numerator, q.denominator, 6)) == _bits(fresh)
                want = _loop_binomial_tail({(k,): c for k, c in u.items()}, q, 6, 1)
                assert _bits(_decoded(fresh, 6, 1)) == _bits(want)
        # so must the powers, which both keys share
        for u in (plus, minus):
            fresh = series._powers_memo.__wrapped__(tuple(u.items()), 6)
            assert [_bits(p) for p in series._powers_memo(tuple(u.items()), 6)] == [_bits(p) for p in fresh]
            power = {(0,): 1.0 + 0j}
            for p in fresh:
                power = _loop_tail_mul(power, {(k,): c for k, c in u.items()}, 6)
                assert _bits(_decoded(p, 6, 1)) == _bits(power)


def _per_factor_expand(cs, f, order, conjugate, negative_branch):
    """expand as it was, kept as the bit-exact reference: each difference
    factor a monomial with its binomial tail through GenSeries.__mul__,
    each plain power a sum of sectors, one per m, with Q_i^m rebuilt per m.
    Those sectors have distinct ungraded keys, so merging them folds none."""
    names = cs.var_names(conjugate=conjugate)
    graded = names["zeta"]
    out = GenSeries.monomial(f.constant, {}, graded, order)
    negative = []
    for (i, j), s in f.diffs:
        fac = pair_difference(cs, i, j)
        exps = {names["x"]: s}
        for idx, m in enumerate(fac.monomial):
            if m:
                exps[graded[idx]] = s * m
        coeff = 1.0 + 0j
        if fac.sign == -1:
            negative.append((i, j))
            coeff = phase_pi(s if negative_branch == "upper" else -s)
        piece = GenSeries.monomial(coeff, exps, graded, order)
        (key,) = piece.sectors
        tail_u = series._packed_poly(fac.tail, order)
        q = Fraction(s)
        tail = dict(series._binomial_tail_memo(tuple(tail_u.items()), q.numerator, q.denominator, order))
        piece.sectors[key] = series._scale_tail(tail, coeff)
        out = out * piece
    for i, k in f.powers:
        qi = series._packed_poly(cs.q_polys[i], order)
        piece = GenSeries(graded, order)
        for m in range(k + 1):
            coeff = complex(math.comb(k, m))
            exps = {names["z"]: Fraction(k - m), names["x"]: Fraction(m)}
            ((key, tail),) = GenSeries.monomial(coeff, exps, graded, order).sectors.items()
            if m:
                qpow = {0: 1.0 + 0j}
                for _ in range(m):
                    qpow = _tail_mul(qpow, qi, order)
                tail = series._scale_tail(qpow, coeff)
            if tail:
                piece._merge_sector(key, dict(tail))
        out = out * piece._prune()
    return out, tuple(negative)


_DIFF_EXPONENTS = [Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "3/2", "1/3", "-2/3", "2")]


class TestExpand:
    def test_missing_leaf_raises_coord_error(self):
        a = parse_tree("(12)3")
        for f in (PowerProduct(powers=((9, 2),)), PowerProduct(diffs=(((9, 1), 2),))):
            with pytest.raises(CoordError, match="no leaf labeled 9"):
                expand(a, f, 4)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"diffs": (((1.9, 2), 1),)}, "leaf label must be an int, got 1.9"),
            ({"diffs": (((1, 2.0), 1),)}, "leaf label must be an int, got 2.0"),
            ({"powers": ((1, 1.5),)}, "power must be an int, got 1.5"),
            ({"powers": ((True, 2),)}, "leaf label must be an int, got True"),
        ],
    )
    def test_non_integer_labels_and_powers_raise(self, fields, message):
        with pytest.raises(SeriesError) as err:
            PowerProduct(**fields)
        assert str(err.value) == message

    def test_overflowing_factor_chain_raises(self):
        # each binomial factor fits a double, but their product overflows
        cs = a_coordinates(parse_tree("((12)3)4"))
        s = Fraction(10**11)
        diffs = (((1, 3), s), ((2, 4), s), ((1, 4), s))
        with pytest.raises(SeriesError, match="^series coefficient out of floating-point range$"):
            expand(cs, PowerProduct(diffs=diffs), 30)
        # from a constant that is not finite, the product may not be either
        (tail,) = expand(cs, PowerProduct(diffs=diffs, constant=complex("nan")), 30).series.sectors.values()
        assert not any(map(cmath.isfinite, tail.values()))

    def test_binomial_coefficient_beyond_double_raises(self):
        # C(10^12, k) leaves the double range before k = 30
        f = PowerProduct(diffs=(((1, 3), 10**12),))
        with pytest.raises(SeriesError, match="^series coefficient out of floating-point range$"):
            expand(parse_tree("(12)3"), f, 30)

    def test_worked_expansion_against_oracle(self):
        # (z2 - z1)^{-1} on (23)((15)4) equals x^{-1} sum (-za+zc+zb*zc)^l
        a = parse_tree("(23)((15)4)")
        ex = expand(a, PowerProduct(diffs=(((2, 1), -1),)), 6)
        # independent oracle: dense powers of the tail polynomial
        tail = {(1, 0, 0): -1, (0, 1, 0): 1, (0, 1, 1): 1}
        acc = {(0, 0, 0): 1}
        power = {(0, 0, 0): 1}
        for _ in range(6):
            nxt = {}
            for v1, c1 in power.items():
                for v2, c2 in tail.items():
                    v = tuple(x + y for x, y in zip(v1, v2))
                    if sum(v) <= 6:
                        nxt[v] = nxt.get(v, 0) + c1 * c2
            power = nxt
            for v, c in power.items():
                acc[v] = acc.get(v, 0) + c
        acc = {v: c for v, c in acc.items() if c}
        got = {}
        for exps, logs, c in ex.series.terms():
            assert exps.get("xA") == Fraction(-1)
            vec = tuple(int(exps.get(f"ze{k}", 0)) for k in range(3))
            got[vec] = c
        assert set(got) == set(acc)
        for v, c in acc.items():
            assert abs(got[v] - c) <= 1e-14 * max(1, abs(c))

    def test_root_difference_is_exactly_x(self):
        rng = random.Random(31)
        for _ in range(30):
            r = rng.randint(2, 6)
            t = random_tree(rng, range(1, r + 1))
            cs = a_coordinates(t)
            i, j = cs.left_leaf[()], cs.right_leaf[()]
            ex = expand(cs, PowerProduct(diffs=(((i, j), 1),)), 5)
            terms = ex.series.terms()
            assert len(terms) == 1
            exps, logs, c = terms[0]
            assert exps == {"xA": Fraction(1)} and c == 1

    def test_homomorphism_unit(self):
        a = parse_tree("(23)((15)4)")
        f = PowerProduct(diffs=(((1, 2), 1), ((1, 2), -1)))
        ex = expand(a, f, 5)
        terms = ex.series.terms()
        assert len(terms) == 1 and terms[0][2] == 1

    def test_homomorphism_products(self):
        # expand(f*g, N) = trunc_N(expand(f,N) * expand(g,N))
        rng = random.Random(33)
        a = parse_tree("1(2(34))")
        for _ in range(20):
            f = _random_product(rng, 4)
            g = _random_product(rng, 4)
            n = 6
            lhs = expand(a, f * g, n).series
            rhs = expand(a, f, n).series * expand(a, g, n).series
            _assert_series_close(lhs, rhs)

    def test_negative_sign_metadata(self):
        # orient a pair against the leaf order: leading sign -1 is flagged
        a = parse_tree("1(2(34))")
        ex = expand(a, PowerProduct(diffs=(((4, 1), Fraction(1, 2)),)), 4)
        assert ex.negative_pairs == ((4, 1),)
        exu = expand(
            a,
            PowerProduct(diffs=(((4, 1), Fraction(1, 2)),)),
            4,
            negative_branch="lower",
        )
        # upper and lower conventions differ by exp(2 pi i s)
        t_up = ex.series.terms()
        t_lo = exu.series.terms()
        ratio = t_up[0][2] / t_lo[0][2]
        want = cmath.exp(2j * math.pi * 0.5)
        assert abs(ratio - want) < 1e-14

    def test_plain_powers(self):
        a = parse_tree("1(2(34))")
        ex = expand(a, PowerProduct(powers=((2, 2),)), 6)
        cs = a_coordinates(a)
        rng = random.Random(35)
        for _ in range(10):
            pt = [complex(rng.uniform(1, 2) * 8 / 2**k, rng.uniform(-0.1, 0.1)) for k in range(4)]
            cv = psi(cs, pt)
            vals = cv.as_dict(cs.var_names())
            got = evaluate_series(ex.series, vals)
            want = pt[1] ** 2
            assert abs(got - want) <= 1e-8 * abs(want)

    @given(data=st.data(), r=st.integers(2, 6), order=st.integers(0, 14))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_factor_path(self, data, r, order):
        cs = a_coordinates(random_tree(random.Random(data.draw(st.integers(0, 2**32))), range(1, r + 1)))
        leaves = st.integers(1, r)
        pairs = st.tuples(leaves, leaves).filter(lambda p: p[0] != p[1])
        diffs = data.draw(st.lists(st.tuples(pairs, st.sampled_from(_DIFF_EXPONENTS)), max_size=3))
        powers = data.draw(st.lists(st.tuples(leaves, st.integers(0, 3)), max_size=2))
        constant = data.draw(st.sampled_from([1 + 0j, 0j, 2.5 - 1j, -1 + 0j]))
        conjugate = data.draw(st.booleans())
        branch = data.draw(st.sampled_from(["upper", "lower"]))
        f = PowerProduct(diffs=tuple(diffs), powers=tuple(powers), constant=constant)
        ex = expand(cs, f, order, conjugate=conjugate, negative_branch=branch)
        want, negative = _per_factor_expand(cs, f, order, conjugate, branch)
        assert ex.negative_pairs == negative
        assert repr(list(ex.series.sectors)) == repr(list(want.sectors))
        for key, tail in want.sectors.items():
            assert _bits(ex.series.sectors[key]) == _bits(tail)
        assert _term_bits(ex.series) == _term_bits(want)

    def test_first_factor_tail_is_a_copy_of_the_memo(self):
        # from the constant 1+0j, the one non-unit factor's memo tail is the
        # result's tail, copied: changing it leaves the memo intact
        cs = a_coordinates(parse_tree("((12)3)4"))
        packed = series._pair_plan(cs.tree, 9, False)[2][(1, 3)][2]
        memo = series._binomial_tail_memo(packed, -3, 2, 9)
        want = _bits(memo)
        (tail,) = expand(cs, PowerProduct(diffs=(((1, 3), Fraction(-3, 2)),)), 9).series.sectors.values()
        assert tail is not memo and _bits(tail) == want
        for k in tail:
            tail[k] = 99.0 + 0j
        assert _bits(series._binomial_tail_memo(packed, -3, 2, 9)) == want

    def test_memo_key_is_the_exponent_in_lowest_terms(self):
        # alone, (1,3)^(1/2) and (2,4)^(1/3) sum their exponents over 2 and
        # 3; together over 6, and both factors still read the same entries
        cs = a_coordinates(parse_tree("((12)3)4"))
        diffs = (((1, 3), Fraction(1, 2)), ((2, 4), Fraction(1, 3)))
        for diff in diffs:
            expand(cs, PowerProduct(diffs=(diff,)), 9)
        before = series._binomial_tail_memo.cache_info()
        expand(cs, PowerProduct(diffs=diffs), 9)
        after = series._binomial_tail_memo.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

    @given(data=st.data(), r=st.integers(2, 5), order=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_factor_memo_is_bit_exact_and_unaliased(self, data, r, order):
        # repeated expansions read the memoized factors; a caller changing
        # the tails of a returned series in place must not reach a later
        # expansion of the same inputs
        cs = a_coordinates(random_tree(random.Random(data.draw(st.integers(0, 2**32))), range(1, r + 1)))
        leaves = st.integers(1, r)
        pairs = st.tuples(leaves, leaves).filter(lambda p: p[0] != p[1])
        diffs = data.draw(st.lists(st.tuples(pairs, st.sampled_from(_DIFF_EXPONENTS)), min_size=1, max_size=3))
        f = PowerProduct(diffs=tuple(diffs))
        want, negative = _per_factor_expand(cs, f, order, False, "upper")
        # a unit factor (no pair tail up to the order, leading coefficient
        # 1) is skipped before the memo is read; every other factor reads it
        # once a call
        facs = [(pair_difference(cs, i, j), s) for (i, j), s in diffs]
        non_units = sum(
            bool(series._packed_poly(fac.tail, order)) or (fac.sign == -1 and phase_pi(s) != 1) for fac, s in facs
        )
        before = series._binomial_tail_memo.cache_info()
        for _ in range(3):
            ex = expand(cs, f, order)
            assert ex.negative_pairs == negative
            assert repr(list(ex.series.sectors)) == repr(list(want.sectors))
            for key, tail in want.sectors.items():
                assert _bits(ex.series.sectors[key]) == _bits(tail)
            for tail in ex.series.sectors.values():
                for k in tail:
                    tail[k] = -3 * tail[k]
        after = series._binomial_tail_memo.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 3 * non_units
        assert after.hits >= before.hits + 2 * non_units


def _random_product(rng, r):
    diffs = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(1, r)
        j = rng.randint(1, r)
        if i == j:
            continue
        if sorted((i, j)) != [i, j]:
            i, j = j, i  # keep leaf order on the comb so signs stay +1
        diffs.append(((i, j), Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))))
    return PowerProduct(diffs=tuple(diffs))


def _assert_series_close(s1, s2, tol=1e-12):
    t1 = {(tuple(sorted(e.items())), tuple(sorted(l.items()))): c for e, l, c in s1.terms()}
    t2 = {(tuple(sorted(e.items())), tuple(sorted(l.items()))): c for e, l, c in s2.terms()}
    keys = set(t1) | set(t2)
    for k in keys:
        a, b = t1.get(k, 0), t2.get(k, 0)
        assert abs(a - b) <= tol * max(1.0, abs(a), abs(b)), (k, a, b)


def _loop_evaluate(s, values):
    """evaluate_series as it was, a per-term loop that skips each factor
    with a zero total exponent; kept as the bit-exact reference."""
    logv = {}

    def value_of(v):
        if v not in values:
            raise SeriesError(f"no value for variable {v}")
        return complex(values[v])

    def log_of(v):
        if v not in logv:
            val = value_of(v)
            if series.on_cut(val):
                raise SeriesError(f"variable {v} on the cut")
            logv[v] = cmath.log(val)
        return logv[v]

    pow_tables = {}

    def int_pow(v, n):
        table = pow_tables.setdefault(v, {0: 1.0 + 0j})
        if n not in table:
            table[n] = value_of(v) ** n
        return table[n]

    def frac_pow(v, q):
        if q.denominator == 1:
            return int_pow(v, int(q))
        return cmath.exp(q * log_of(v))

    total = 0j
    for (logs, ungraded, base), tail in s.sectors.items():
        sector_val = 1.0 + 0j
        for v, k in logs:
            sector_val *= log_of(v) ** k
        for v, q in ungraded:
            sector_val *= frac_pow(v, q)
        base_int = []
        for g, q in zip(s.graded, base):
            if q.denominator == 1:
                base_int.append(int(q))
            else:
                sector_val *= frac_pow(g, q)
                base_int.append(0)
        acc = 0j
        for vec, c in tail.items():
            term = c
            for g, b, n in zip(s.graded, base_int, vec):
                if b + n:
                    term *= int_pow(g, b + n)
            acc += term
        total += sector_val * acc
    return total


def _outcome(fn, *args):
    """Exact bits of a complex result, or the exception it raised."""
    try:
        z = fn(*args)
    except (SeriesError, ZeroDivisionError, OverflowError) as err:
        return type(err), str(err)
    return z.real.hex(), z.imag.hex()


_GRADED = ("a", "b", "c", "d", "e", "f", "g")
_UNGRADED = ("x", "y")
# exactly zero, or at least 0.1 in size, so no power overflows
_value_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(0.1, 3),
    st.floats(-3, -0.1),
)
_values = st.builds(complex, _value_parts, _value_parts)
_exponents = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(Fraction(-3), Fraction(3), max_denominator=4),
)


# moduli 0.5-1.5 or exactly zero: no power up to 203 overflows
_unit_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(0.5, 1.0), st.floats(-1.0, -0.5)
)
_unit_values = st.builds(complex, _unit_parts, _unit_parts)


@st.composite
def _series_and_values(draw, max_vars=3, orders=st.integers(0, 8), values=_values):
    """Multi-sector series over up to ``max_vars`` graded variables with
    negative and fractional bases, ungraded factors and log factors, and
    values that may be zero, on the cut or missing.  Returns the packed
    series, the tuple-keyed reference and the values."""
    nvars = draw(st.integers(1, max_vars))
    graded = _GRADED[:nvars]
    order = draw(orders)
    sectors = {}
    for _ in range(draw(st.integers(1, 4))):
        base = tuple(draw(_exponents) for _ in graded)
        names = draw(st.lists(st.sampled_from(_UNGRADED), unique=True, max_size=2))
        ungraded = tuple(sorted((v, draw(_exponents.filter(bool))) for v in names))
        log_names = draw(st.lists(st.sampled_from(graded + _UNGRADED), unique=True, max_size=2))
        logs = tuple(sorted((v, draw(st.integers(1, 2))) for v in log_names))
        vecs = _vecs(nvars, order)
        sectors[(logs, ungraded, base)] = draw(
            st.dictionaries(vecs, _coeffs, min_size=1, max_size=10)
        )
    s, ref = _pair(graded, order, sectors)
    missing = draw(st.lists(st.sampled_from(graded + _UNGRADED), max_size=1))
    return s, ref, {v: draw(values) for v in graded + _UNGRADED if v not in missing}


class TestEvaluate:
    @given(case=_series_and_values())
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_loop(self, case):
        s, ref, values = case
        assert _outcome(evaluate_series, s, values) == _outcome(_loop_evaluate, ref, values)

    @given(case=_series_and_values(7, _orders, _unit_values))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_loop_wide(self, case):
        # 1-7 variables and orders up to 200: keys of up to seven digits
        s, ref, values = case
        assert _outcome(evaluate_series, s, values) == _outcome(_loop_evaluate, ref, values)

    def test_long_tail_bit_identical_to_loop(self):
        # tails of every length from 1 to 40 at orders 12 and 60
        rng = random.Random(47)
        graded = _GRADED[:4]
        values = {g: complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for g in graded}
        for order in (12, 60):
            for size in range(1, 41):
                tail = {}
                while len(tail) < size:
                    vec = tuple(rng.randint(0, order // 4) for _ in graded)
                    tail[vec] = complex(rng.uniform(-1, 1), rng.choice([0.0, -0.0, rng.uniform(-1, 1)]))
                base = (Fraction(-1), ZERO, Fraction(2), ZERO)
                s, ref = _pair(graded, order, {((), (), base): tail})
                assert _outcome(evaluate_series, s, values) == _outcome(_loop_evaluate, ref, values)

    def test_shared_tables_tell_signed_zeros_apart(self):
        # value ** 150 takes the polar path, whose phase follows the sign of
        # a zero imaginary part: a table found by == would hand the twin
        # the first value's powers
        s = GenSeries.monomial(1, {"a": 150}, ("a",), 2)
        twins = ({"a": complex(-1.0, 0.0)}, {"a": complex(-1.0, -0.0)})
        fresh = []
        for values in twins:
            series._TABLES.clear()
            fresh.append(_outcome(evaluate_series, s, values))
        assert fresh[0] != fresh[1]
        for _ in range(2):
            assert [_outcome(evaluate_series, s, values) for values in twins] == fresh

    def test_shared_tables_stay_bounded(self):
        # every call at a new value adds tables; the cache never holds more
        # than 4096, and a call after it was emptied reads what it did before
        s = GenSeries.from_tails(("a",), 3, {((), (("x", Fraction(2)),), (Fraction(-1),)): {(1,): 2j, (3,): 1 + 0j}})
        ref = _reference(s)
        series._TABLES.clear()
        for n in range(2100):
            values = {"a": complex(1, n), "x": complex(n, 1)}
            assert _outcome(evaluate_series, s, values) == _outcome(_loop_evaluate, ref, values)
            assert len(series._TABLES) <= 4096
        assert len(series._TABLES) == 2 * 2100 - 4096

    def test_constant(self):
        s = GenSeries.monomial(1.0, {}, ("z",), 3)
        assert evaluate_series(s, {"z": 123.0}) == 1
        assert evaluate_series(s, {}) == 1

    def test_unused_missing_variable(self):
        # every exponent of b is zero, so b needs no value
        s = GenSeries.from_tails(("a", "b"), 4, {((), (), (Fraction(-1), ZERO)): {(1, 0): 2j, (3, 0): 1 + 0j}})
        assert evaluate_series(s, {"a": 2.0}) == 2j + 4
        with pytest.raises(SeriesError, match="no value for variable b"):
            evaluate_series(
                GenSeries.from_tails(("a", "b"), 4, {((), (), (ZERO, ZERO)): {(0, 1): 1 + 0j}}),
                {"a": 2.0},
            )

    def test_sector_above_the_order_is_dropped(self):
        # its one term lies above the order, so the sector is gone and its
        # ungraded x needs no value
        s = GenSeries.from_tails(("a",), 1, {((), (("x", Fraction(1, 2)),), (0,)): {(2,): 1}})
        assert s.sectors == {}
        assert evaluate_series(s, {"a": 1.0}) == 0

    def test_zero_value_with_nonnegative_exponents(self):
        # base -1 with tail exponents >= 1: a^0 and a^2 at a = 0; the
        # negative powers no term uses are never computed
        s = GenSeries.from_tails(("a",), 4, {((), (), (Fraction(-1),)): {(1,): 3 + 0j, (3,): 5 + 0j}})
        assert evaluate_series(s, {"a": 0j}) == 3
        with pytest.raises(ZeroDivisionError):
            evaluate_series(
                GenSeries.from_tails(("a",), 4, {((), (), (Fraction(-1),)): {(0,): 1 + 0j}}),
                {"a": 0j},
            )

    def test_cut_variable_with_integer_power(self):
        sectors = {((), (("x", Fraction(3)),), (Fraction(-2),)): {(0,): 1 + 0j, (3,): 1 + 0j}}
        s, ref = _pair(("a",), 4, sectors)
        got = evaluate_series(s, {"a": -2.0, "x": -1.0})
        assert got == -(0.25 - 2)
        assert _outcome(evaluate_series, s, {"a": -2.0, "x": -1.0}) == _outcome(
            _loop_evaluate, ref, {"a": -2.0, "x": -1.0}
        )

    def test_cut_error(self):
        s = GenSeries.monomial(1.0, {"x": Fraction(1, 2)}, (), 3)
        with pytest.raises(SeriesError):
            evaluate_series(s, {"x": -1.0 + 0j})

    def test_missing_variable(self):
        s = GenSeries.monomial(1.0, {"x": Fraction(1, 2)}, (), 3)
        with pytest.raises(SeriesError):
            evaluate_series(s, {})

    def test_principal_branch(self):
        s = GenSeries.monomial(1.0, {"x": Fraction(1, 2)}, (), 3)
        val = evaluate_series(s, {"x": 1j})
        assert abs(val - cmath.exp(0.5 * cmath.log(1j))) < 1e-15

    def test_expansion_convergence_rate(self):
        # rel err <= 1e-8 at N = 40 for margin >= 0.5, decreasing in N
        a = parse_tree("1(2(34))")
        cs = a_coordinates(a)
        rng = random.Random(41)
        f = PowerProduct(diffs=(((1, 2), Fraction(-3, 2)), ((2, 4), Fraction(1, 3))))
        from opetree.coords import region_membership

        pts = []
        while len(pts) < 5:
            scale = rng.uniform(0.8, 1.2)
            pt = [
                complex(v * scale + rng.gauss(0, 0.02), rng.gauss(0, 0.02))
                for v in (8.0, 4.0, 2.0, 0.0)
            ]
            memb = region_membership(cs, pt)
            if memb.in_u and memb.margin >= 0.5:
                pts.append(pt)
        errs = {}
        for order in (10, 20, 40):
            ex = expand(cs, f, order)
            worst = 0.0
            for pt in pts:
                cv = psi(cs, pt)
                got = evaluate_series(ex.series, cv.as_dict(cs.var_names()))
                want = evaluate_closed(f, pt)
                worst = max(worst, abs(got - want) / abs(want))
            errs[order] = worst
        assert errs[40] <= 1e-8
        assert errs[20] <= errs[10] * 1.1
        assert errs[40] <= errs[20] * 1.1


def _reference(s):
    """A packed series as the tuple-keyed reference _loop_evaluate reads."""
    n = len(s.graded)
    return _TupleSeries(s.graded, s.order, {k: _decoded(t, s.order, n) for k, t in s.sectors.items()})


def _raw_expansion(s, factors=()):
    """A TreeExpansion around ``s``, the product of ``factors`` if given,
    whose points are its variable values."""
    from opetree.latticecft import NarainModel, TreeExpansion

    texp = TreeExpansion(NarainModel(2), parse_tree("12"), None, s, 0, False, factors)
    texp.coordinate_values = dict
    return texp


def _one_sector(graded, order, base, tail, ungraded=()):
    return GenSeries.from_tails(graded, order, {((), ungraded, base): tail})


class TestDigitColumns:
    """Evaluation on cached digit columns against the decoding call and the
    per-term loop, bit for bit."""

    def _assert_columns_exact(self, s, points):
        columns = series.digit_columns(s)
        ref = _reference(s)
        for values in points:
            want = _outcome(_loop_evaluate, ref, values)
            assert isinstance(want[0], str)  # a value, not an error
            assert _outcome(evaluate_series, s, values) == want
            assert _outcome(evaluate_series, s, values, columns) == want
        return columns

    def test_tree_expansion_decodes_once(self, monkeypatch):
        # the first evaluation decodes the keys of the z and z-bar factors,
        # never the 46,376 keys of their product; later ones decode nothing,
        # and another charge set with the same keys decodes only the z keys
        from opetree import latticecft

        model = latticecft.NarainModel(Fraction(2))
        charges = [(-1, 0), (1, -1), (1, 0), (-1, 1)]
        texp = latticecft.tree_expansion(model, parse_tree("1(2(34))"), charges, 30)
        points = latticecft._sample_bulk_points(texp.tree, random.Random(3), 3, margin_min=0.45)
        ref = _reference(texp.series)
        wants = [_outcome(_loop_evaluate, ref, texp.coordinate_values(pt)) for pt in points]
        assert all(isinstance(want[0], str) for want in wants) and len(set(wants)) == 3
        assert [_outcome(evaluate_series, texp.series, texp.coordinate_values(pt)) for pt in points] == wants
        (z_tail,), (zbar_tail,) = (f.sectors.values() for f in texp.factors)
        assert len(z_tail) == len(zbar_tail) == 496
        decodes = []
        real = series._digits
        monkeypatch.setattr(series, "_digits", lambda *args: decodes.append(list(args[0])) or real(*args))
        series._room_columns.cache_clear()
        assert _outcome(texp.evaluate_raw, points[0]) == wants[0]
        assert all(set(keys) <= zbar_tail.keys() for keys in decodes[:-1])  # z-bar keys, once a room
        assert decodes[-1] == list(z_tail)  # the z keys, once
        assert len(decodes) == 31 + 1 and texp.factors == ()
        first = len(decodes)
        assert [_outcome(texp.evaluate_raw, pt) for pt in points] == wants
        assert len(decodes) == first
        other = latticecft.tree_expansion(model, texp.tree, [(1, 1), (1, 1), (-1, -1), (-1, -1)], 30)
        del decodes[:]
        assert len(other.columns[0]) == 496 and decodes == [list(z_tail)]
        (blocks,) = texp.columns
        assert len(blocks) == 496 and sum(count for count, _ in blocks) == texp.series.n_terms() == 46376
        kinds = {tuple(type(d).__name__ for d in digits) for _, digits in blocks}
        assert kinds == {("int", "bytes", "int", "bytes")}  # ze0, ze0c, ze1, ze1c

    @pytest.mark.parametrize(
        "tree, charges, orders",
        [
            ("1(23)", [(1, 0), (-1, 1), (0, -1)], (0, 1, 2, 6, 30)),
            ("(12)3", [(1, 1), (0, -1), (-1, 0)], (0, 1, 2, 6, 30)),
            ("1(2(34))", [(-1, 0), (1, -1), (1, 0), (-1, 1)], (0, 1, 2, 6, 30)),
            ("(12)(34)", [(1, 1), (1, 1), (-1, -1), (-1, -1)], (0, 1, 2, 6, 30)),
            # at N = 30 a 5-leaf product has 1.9 million terms
            ("((12)3)(45)", [(1, 1), (-1, 0), (0, -1), (1, 0), (-1, 0)], (0, 1, 2, 6, 14)),
            ("1(2(3(45)))", [(0, 1), (1, -1), (-1, 0), (1, 0), (-1, 0)], (0, 1, 2, 6)),
        ],
    )
    def test_block_path_bit_identical(self, tree, charges, orders):
        # plain trees of 3-5 leaves: the blocks read off the factors give the
        # decoding call's and the per-term loop's value, by repr and bits
        from opetree import latticecft

        model = latticecft.NarainModel(Fraction(5, 7))
        t = parse_tree(tree)
        points = latticecft._sample_bulk_points(t, random.Random(len(tree)), 2, margin_min=0.45)
        for order in orders:
            texp = latticecft.tree_expansion(model, t, charges, order)
            (z_tail,), _ = (f.sectors.values() for f in texp.factors)
            ref = _reference(texp.series)
            for pt in points:
                values = texp.coordinate_values(pt)
                got = texp.evaluate_raw(pt)
                assert repr(got) == repr(evaluate_series(texp.series, values))
                want = _outcome(_loop_evaluate, ref, values)
                assert (got.real.hex(), got.imag.hex()) == _outcome(evaluate_series, texp.series, values) == want
            # one block per z term, with the z digits as ints
            (blocks,) = texp.columns
            assert len(blocks) == len(z_tail)
            z_names = texp.coords.var_names()["zeta"]
            for _, digits in blocks:
                assert [isinstance(d, int) for d in digits] == [g in z_names for g in texp.series.graded]

    @pytest.mark.parametrize(
        "bad",
        [
            {"b": 0.5, "x": 2.0},  # no value for a
            {"a": 0.5, "x": 2.0},  # no value for b
            {"x": 2.0},  # neither: a is looked up first
            {"a": 0.5, "b": 0.5, "x": -1.0},  # x on the cut
            {"a": 1e200, "b": 0.5, "x": 2.0},  # a ** 3 overflows
            {"a": 0.5, "b": 1e200, "x": 2.0},  # b ** 3 overflows
            {"a": 1e200, "x": 2.0},  # a ** 3 overflows before b is missed
            {"a": 0j, "b": 0.5, "x": 2.0},  # a ** -1 at a = 0
        ],
    )
    def test_block_path_same_error_on_first_and_later_evaluation(self, bad):
        # z over b (one digit per block) times z-bar over a (columns), with
        # a first in graded order: a term reads a's power, then b's.  The
        # first block uses b ** 0 only, so a b that is missing or overflows
        # is met only after a's powers in the first block
        z = _one_sector(
            ("b",), 4, (ZERO,), {(0,): 1 + 0j, (1,): 0.5j, (3,): 2 + 0j}, (("x", Fraction(1, 2)),)
        )
        zbar = _one_sector(("a",), 4, (Fraction(-1),), {(0,): 1 + 0j, (2,): -1 + 0j, (4,): 0.25 + 0j})
        s = z * zbar
        good = {"a": 0.5, "b": 0.25j, "x": 2.0}
        want = _outcome(evaluate_series, s, bad)
        assert not isinstance(want[0], str)
        texp = _raw_expansion(s, (z, zbar))
        outcomes = [_outcome(texp.evaluate_raw, values) for values in (bad, good, bad)]
        assert outcomes == [want, _outcome(evaluate_series, s, good), want]
        (blocks,) = texp.columns
        assert [count for count, _ in blocks] == [3, 2, 1] and [digits[1] for _, digits in blocks] == [0, 1, 3]

    def test_block_path_keeps_the_per_term_error_order(self):
        # the first term reads a ** -1, then b, which has no value; the
        # first block's room, read whole, would meet a ** 3, which
        # overflows, before b: the per-term error comes first all the same
        z = _one_sector(
            ("b",), 6, (ZERO,), {(1,): 0.5j, (0,): 1 + 0j, (3,): 2 + 0j}, (("x", Fraction(1, 2)),)
        )
        zbar = _one_sector(("a",), 6, (Fraction(-1),), {(0,): 1 + 0j, (2,): -1 + 0j, (4,): 0.25 + 0j})
        s = z * zbar
        bad = {"a": 1e200, "x": 2.0}
        want = (SeriesError, "no value for variable b")
        assert _outcome(evaluate_series, s, bad) == _outcome(_loop_evaluate, _reference(s), bad) == want
        texp = _raw_expansion(s, (z, zbar))
        assert _outcome(texp.evaluate_raw, bad) == want
        (blocks,) = texp.columns
        assert [count for count, _ in blocks] == [3, 3, 2] and [digits[1] for _, digits in blocks] == [1, 0, 3]

    def test_room_columns_are_memoized_per_factor_keys(self):
        # another charge set of the same tree and order has the same factor
        # keys: its z-bar room columns are a hit of the memo, and its blocks
        # evaluate as the decoding call does
        from opetree import latticecft

        model = latticecft.NarainModel(Fraction(2))
        t = parse_tree("1(2(34))")
        first = latticecft.tree_expansion(model, t, [(-1, 0), (1, -1), (1, 0), (-1, 1)], 12)
        second = latticecft.tree_expansion(model, t, [(1, 1), (1, 1), (-1, -1), (-1, -1)], 12)

        def keys(texp):
            return [tuple(tail) for f in texp.factors for tail in f.sectors.values()]

        assert keys(first) == keys(second)
        assert list(first.series.sectors.values()) != list(second.series.sectors.values())
        (blocks,) = first.columns
        hits = series._room_columns.cache_info().hits
        assert second.columns == (blocks,)
        assert series._room_columns.cache_info().hits == hits + 1
        assert series._room_columns.cache_info().maxsize == 8
        # the z-bar columns (ze0c, ze1c) are the memo's own bytes
        (other,) = second.columns
        assert all(x[1][i] is y[1][i] for x, y in zip(blocks, other) for i in (1, 3))
        for pt in latticecft._sample_bulk_points(t, random.Random(2), 2, margin_min=0.45):
            want = _outcome(evaluate_series, second.series, second.coordinate_values(pt))
            assert isinstance(want[0], str) and _outcome(second.evaluate_raw, pt) == want

    def test_product_with_a_pruned_term_is_decoded(self):
        # 1e-200 * 1e-200 underflows to zero and the product prunes it: the
        # blocks would overrun the tail, so the keys are decoded
        order, base = 3, (ZERO,)
        z = _one_sector(("a",), order, base, {(0,): 1e-200 + 0j, (1,): 2 + 0j, (2,): 1 + 1j})
        zbar = _one_sector(("b",), order, base, {(0,): 1e-200 + 0j, (2,): 1 + 0j})
        s = z * zbar
        assert s.n_terms() == 4  # of 5
        assert series.digit_columns(s, (z, zbar)) == series.digit_columns(s)
        rng = random.Random(11)
        for _ in range(3):
            values = {"a": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), "b": complex(rng.uniform(-2, 2), 1)}
            texp = _raw_expansion(s, (z, zbar))
            want = _outcome(_loop_evaluate, _reference(s), values)
            assert _outcome(texp.evaluate_raw, values) == _outcome(evaluate_series, s, values) == want
        # no underflow at 1e-100: one block per z term
        z.sectors[((), (), base)][0] = 1e-100 + 0j
        s = z * zbar
        (blocks,) = series.digit_columns(s, (z, zbar))
        assert [count for count, _ in blocks] == [2, 2, 1] and s.n_terms() == 5
        assert evaluate_series(s, values, (blocks,)) == evaluate_series(s, values)
        # the pruned product again, on a hit of the room-columns memo: decoded too
        z.sectors[((), (), base)][0] = 1e-200 + 0j
        s = z * zbar
        hits = series._room_columns.cache_info().hits
        assert series.digit_columns(s, (z, zbar)) == series.digit_columns(s)
        assert series._room_columns.cache_info().hits == hits + 1 and s.n_terms() == 4

    def test_factors_of_another_shape_are_decoded(self):
        a = _one_sector(("a",), 3, (ZERO,), {(0,): 1 + 0j, (1,): 2 + 0j})
        b = _one_sector(("b",), 3, (ZERO,), {(0,): 1 + 0j, (2,): 3 + 0j})
        ab = _one_sector(("a", "b"), 3, (ZERO, ZERO), {(0, 0): 1 + 0j, (1, 1): 3 + 0j})
        b2 = _one_sector(("b",), 2, (ZERO,), {(0,): 1 + 0j, (2,): 3 + 0j})
        b_over_a = _one_sector(("b",), 3, (ZERO,), {(0,): 1 + 0j, (1,): 3 + 0j}, (("a", Fraction(1)),))
        two = GenSeries.from_tails(
            ("a",), 3, {((), (), (ZERO,)): {(0,): 1 + 0j, (1,): 2 + 0j}, ((), (), (Fraction(1, 2),)): {(0,): 1 + 0j}}
        )
        assert len(two.sectors) == 2
        # shared graded variables, another order, b carrying a ungraded, two sectors
        for x, y in [(a, a), (a, ab), (a, b2), (a, b_over_a), (two, b)]:
            s = x * y
            assert series.digit_columns(s, (x, y)) == series.digit_columns(s)
        assert len(series.digit_columns(a * b, (a, b))[0]) == 2  # the blocks

    def test_multi_sector_expansion(self):
        # z2^2 in the coordinates of (1(23))4: one sector per power of x_A
        diffs = (((1, 2), Fraction(-1, 2)), ((3, 4), Fraction(1, 3)), ((1, 4), Fraction(3, 2)))
        s = expand(parse_tree("(1(23))4"), PowerProduct(diffs=diffs, powers=((2, 2),)), 12).series
        assert len(s.sectors) == 3 and s.n_terms() > 200
        rng = random.Random(5)
        names = {v for logs, ung, _ in s.sectors for v, _ in logs + ung} | set(s.graded)
        points = [
            {v: complex(rng.uniform(0.2, 1.2), rng.uniform(-1, 1)) for v in sorted(names)}
            for _ in range(4)
        ]
        self._assert_columns_exact(s, points)

    def test_wide_digits(self):
        # N = 300: a digit up to 300 does not fit a byte
        rng = random.Random(7)
        sectors = {}
        for base in ((ZERO, ZERO, ZERO), (Fraction(1, 2), Fraction(-1), ZERO)):
            tail = {}
            while len(tail) < 40:
                a = rng.randint(0, 300)
                b = rng.randint(0, 300 - a)
                tail[(a, b, rng.randint(0, 300 - a - b))] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            tail[(0, 0, 300)] = 1 + 0j
            sectors[((), (), base)] = tail
        s = GenSeries.from_tails(("a", "b", "c"), 300, sectors)
        points = [
            {g: cmath.rect(rng.uniform(0.9, 1.0), rng.uniform(-3, 3)) for g in s.graded} for _ in range(3)
        ]
        columns = self._assert_columns_exact(s, points)
        assert all(type(col) is list for blocks in columns for _, cols in blocks for col in cols)
        assert max(columns[0][0][1][2]) == 300

    @pytest.mark.parametrize(
        "bad, loop_raises_it",
        [
            ({"a": 0.5, "x": 2.0}, True),  # no value for b
            ({"a": 0.5, "b": 0.5, "x": -1.0}, True),  # x on the cut
            ({"a": 1e200, "b": 0.5, "x": 2.0}, False),  # a ** 3 overflows
        ],
    )
    def test_same_error_on_first_and_later_evaluation(self, bad, loop_raises_it):
        sectors = {
            ((), (), (ZERO, ZERO)): {(0, 0): 1 + 0j, (2, 0): 0.5j},
            ((), (("x", Fraction(1, 2)),), (ZERO, ZERO)): {(0, 0): 1 + 0j, (3, 1): 2 + 0j},
        }
        s = GenSeries.from_tails(("a", "b"), 8, sectors)
        good = {"a": 0.5, "b": 0.25j, "x": 2.0}
        want = _outcome(evaluate_series, s, bad)
        assert want[0] is SeriesError
        texp = _raw_expansion(s)
        outcomes = [_outcome(texp.evaluate_raw, values) for values in (bad, good, bad)]
        assert outcomes == [want, _outcome(evaluate_series, s, good), want]
        if loop_raises_it:  # the loop lets an OverflowError through
            assert want == _outcome(_loop_evaluate, _reference(s), bad)

    def test_columns_of_another_shape_raise(self):
        s = GenSeries.from_tails(
            ("a", "b"), 4, {((), (), (ZERO, ZERO)): {(0, 0): 1 + 0j, (1, 2): 2 + 0j}}
        )
        values = {"a": 0.5, "b": 0.5}
        ((block,),) = series.digit_columns(s)
        count, (a, b) = block
        assert count == 2 and (a, b) == (b"\0\1", b"\0\2")
        for columns in [
            (),  # no sector
            ((block,), (block,)),  # two sectors
            ((),),  # no block
            ((a, b),),  # columns, not blocks
            (((2, (a, b), 0),),),  # not a (count, digits) pair
            (((2, (a,)),),),  # one variable of two
            (((2, (a, b, a)),),),  # three
            (((1, (a[:1], b[:1])),),),  # counts sum to 1, not 2
            (((1, (a[:1], b[:1])), (2, (a, b))),),  # to 3
            (((2, (a, b[:1])),),),  # a column shorter than its block
            (((2, (a, b + b"\0")),),),  # longer
            (((0, (0, 0)), (1, (0, 0)), (1, (1, 2))),),  # a digit for a block of no terms
            (((1, (0, 0)), (1, (a[1:], 2))),),  # a digit in one block, a column in another
        ]:
            with pytest.raises(SeriesError, match="digit columns do not match the series"):
                evaluate_series(s, values, columns)
        want = evaluate_series(s, values)
        assert evaluate_series(s, values, ((block,),)) == want
        assert evaluate_series(s, values, (((1, (0, 0)), (1, (1, 2))),)) == want
class TestEvaluateClosed:
    def test_exact_square(self):
        f = PowerProduct(diffs=(((1, 2), 2),))
        val = evaluate_closed(f, [3 + 1j, 1])
        assert val == (2 + 1j) ** 2

    def test_paired_on_cut(self):
        # z^{1/2} zbar^{-1/2} at z = -1: single-valued combination gives -1
        f = PowerProduct(
            diffs=(((1, 3), Fraction(1, 2)), ((2, 3), Fraction(-1, 2)))
        )
        plan = BranchPlan(paired=((0, 1),))
        val = evaluate_closed(f, [-1.0 + 0j, -1.0 - 0j, 0j], plan)
        assert abs(val - (-1)) < 1e-14

    def test_unpaired_cut_error(self):
        f = PowerProduct(diffs=(((1, 2), Fraction(1, 2)),))
        with pytest.raises(SeriesError):
            evaluate_closed(f, [-1.0, 0.0])

    def test_plan_validation(self):
        f = PowerProduct(
            diffs=(((1, 3), Fraction(1, 2)), ((2, 3), Fraction(-1, 4)))
        )
        with pytest.raises(SeriesError):
            evaluate_closed(f, [1j, -1j, 0], BranchPlan(paired=((0, 1),)))

    @pytest.mark.parametrize(
        "paired, message",
        [
            (((0, 5),), "index 5 out of range"),
            (((-1, 0),), "index -1 out of range"),
            (((1, 1),), "pairs factor 1 with itself"),
            (((0, 1), (1, 0)), "uses factor 1 twice"),
        ],
    )
    def test_bad_plan_rejected(self, paired, message):
        # ((z1 - z2)(z3 - z4))^(1/2) with z3 - z4 the conjugate of z1 - z2:
        # the pair evaluated twice read 1.2500000000000002
        f = PowerProduct(diffs=(((1, 2), Fraction(1, 2)), ((3, 4), Fraction(1, 2))))
        point = [1 + 1j, 2 + 0.5j, 1 - 1j, 2 - 0.5j]
        with pytest.raises(SeriesError, match=message):
            evaluate_closed(f, point, BranchPlan(paired=paired))
        assert evaluate_closed(f, point, BranchPlan(paired=((0, 1),))) == 1.118033988749895

    def test_point_checks_in_order(self):
        f = PowerProduct(
            diffs=(((1, 2), Fraction(1, 2)), ((3, 4), Fraction(1, 2)), ((5, 6), Fraction(1, 3)))
        )
        plan = BranchPlan(paired=[(0, 1)])
        z0 = PowerProduct(diffs=(((0, 1), 1),))  # label 0 must not index from the end
        checks = [
            (f, plan, [1j, 0, -1j, 0, -1], "point has no coordinate z6"),
            (f, plan, [1j, 0, 1j, 0, -1, 0], "paired factors are not complex conjugates"),
            (f, plan, [1j, 0, -1j, 0, -1, 0], r"factor \(z5 - z6\) on the cut with exponent 1/3"),
            (z0, None, [1, 2], "point has no coordinate z0"),
        ]
        for g, g_plan, point, message in checks:
            for _ in range(2):  # the prepared table checks every point alike
                with pytest.raises(SeriesError, match=message):
                    evaluate_closed(g, point, g_plan)


class TestSerialization:
    def test_canonical_terms(self):
        s = one_plus(("z",), 3, {(1,): 2.0})
        obj = series_to_obj(s)
        assert obj == [
            {"exponents": {}, "logs": {}, "re": 1.0, "im": 0.0},
            {"exponents": {"z": "1"}, "logs": {}, "re": 2.0, "im": 0.0},
        ]

    def test_exact_rational_exponents(self):
        a = parse_tree("1(2(34))")
        ex = expand(a, PowerProduct(diffs=(((1, 4), Fraction(2, 3)),)), 3)
        for term in series_to_obj(ex.series):
            for q in term["exponents"].values():
                Fraction(q)  # parses exactly


class TestPhasePi:
    def test_special_values(self):
        assert phase_pi(Fraction(0)) == 1
        assert phase_pi(Fraction(1, 2)) == 1j
        assert phase_pi(1) == -1
        assert phase_pi(Fraction(3, 2)) == -1j
        assert phase_pi(Fraction(7, 2)) == -1j
        assert abs(phase_pi(Fraction(1, 3)) - cmath.exp(1j * math.pi / 3)) < 1e-15
