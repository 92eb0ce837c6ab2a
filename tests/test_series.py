import cmath
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetree import series
from opetree.coords import a_coordinates, psi
from opetree.series import (
    ZERO,
    BranchPlan,
    GenSeries,
    PowerProduct,
    SeriesError,
    _binomial_tail,
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
    s = GenSeries.constant(1.0, graded, order)
    (key,) = s.sectors
    for vec, c in tail.items():
        s.sectors[key][vec] = s.sectors[key].get(vec, 0) + complex(c)
    return s


class TestArithmetic:
    def test_geometric(self):
        s = one_plus(("z",), 3, {(1,): 1})
        inv = s.pow(-1)
        got = {e.get("z", 0): c for e, _, c in inv.terms()}
        assert got == {0: 1, 1: -1, 2: 1, 3: -1}

    def test_binomial_sqrt(self):
        s = one_plus(("z",), 2, {(1,): 1})
        half = s.pow(Fraction(1, 2))
        got = {e.get("z", 0): c for e, _, c in half.terms()}
        assert got[0] == 1
        assert abs(got[1] - 0.5) < 1e-15
        assert abs(got[2] + 0.125) < 1e-15

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

    def test_pow_requires_invertible_leading(self):
        # z1 + z2 has no unique minimal monomial: not invertible
        s = GenSeries.monomial(1.0, {"z1": 1}, ("z1", "z2"), 4)
        (key,) = s.sectors
        s.sectors[key] = {(0, 0): 1.0, (-0 + 0, 0): 1.0}
        s = GenSeries.monomial(1.0, {}, ("z1", "z2"), 4)
        (key,) = s.sectors
        s.sectors[key] = {(1, 0): 1.0, (0, 1): 1.0}
        with pytest.raises(SeriesError):
            s.pow(Fraction(1, 2))
        # z*(1 + z) is accepted and normalized
        s2 = GenSeries.monomial(1.0, {}, ("z",), 4)
        (k2,) = s2.sectors
        s2.sectors[k2] = {(1,): 1.0, (2,): 1.0}
        inv = s2.pow(-1)
        got = {e.get("z", 0): c for e, _, c in inv.terms()}
        assert got[Fraction(-1)] == 1 and got[Fraction(0)] == -1

    def test_log1p(self):
        s = one_plus(("z",), 6, {(1,): 1})
        lg = s.log1p()
        got = {int(e.get("z", 0)): c for e, _, c in lg.terms()}
        for k in range(1, 7):
            assert abs(got[k] - (-1) ** (k + 1) / k) < 1e-14

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError):
            GenSeries(("z",), -1)
        with pytest.raises(SeriesError):
            expand(parse_tree("(12)3"), PowerProduct(diffs=(((1, 2), 1),)), -5)

    def test_log1p_requires_unit(self):
        s = GenSeries.monomial(2.0, {}, ("z",), 3)
        with pytest.raises(SeriesError):
            s.log1p()

    @given(
        q=st.fractions(
            min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
        ).filter(lambda x: x != 0)
    )
    @settings(max_examples=40, deadline=None)
    def test_pow_inverse_property(self, q):
        s = one_plus(("a", "b"), 6, {(1, 0): 0.5, (0, 1): -0.25, (1, 1): 0.125})
        prod = s.pow(q) * s.pow(-q)
        terms = prod.terms()
        for exps, logs, c in terms:
            if exps:
                assert abs(c) < 1e-12
            else:
                assert abs(c - 1) < 1e-12

    def test_binomial_coefficients_exact(self):
        assert binomial(-1, 3) == -1
        assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert binomial(5, 2) == 10

    def test_coefficients_against_exact_rational_recomputation(self):
        # spot check: double-precision tail coefficients of (1+P)^q agree
        # with an all-Fraction recomputation to a few ulps
        q = Fraction(-7, 3)
        tail = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (1, 1): Fraction(1, 5)}
        order = 6
        s = one_plus(("a", "b"), order, {k: float(v) for k, v in tail.items()})
        got = {
            tuple(int(e.get(v, 0)) for v in ("a", "b")): c
            for e, _, c in s.pow(q).terms()
        }
        exact = {(0, 0): Fraction(1)}
        power = {(0, 0): Fraction(1)}
        for k in range(1, order + 1):
            nxt = {}
            for v1, c1 in power.items():
                for v2, c2 in tail.items():
                    v = tuple(x + y for x, y in zip(v1, v2))
                    if sum(v) <= order:
                        nxt[v] = nxt.get(v, Fraction(0)) + c1 * c2
            power = nxt
            coeff = binomial(q, k)
            for v, c in power.items():
                exact[v] = exact.get(v, Fraction(0)) + coeff * c
        for v, c in exact.items():
            assert abs(got[v] - float(c)) <= 1e-13 * max(1.0, abs(float(c)))


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


def _loop_mul(a, b):
    """GenSeries.__mul__ as it was, with its own copy of the loop."""
    a, b = a._aligned(b)
    order = min(a.order, b.order)
    out = GenSeries(a.graded, order)
    for (l1, u1, b1), t1 in a.sectors.items():
        for (l2, u2, b2), t2 in b.sectors.items():
            base = tuple(q1 + q2 for q1, q2 in zip(b1, b2))
            tail = _loop_tail_mul(t1, t2, order, prune=False)
            if tail:
                key = (series._merge_counts(l1, l2), series._merge_fracs(u1, u2), base)
                out._merge_sector(key, tail)
    return out._prune()


def _bits(tail):
    """Terms in dict order with the exact bits of each coefficient."""
    return [(v, struct.pack("<dd", c.real, c.imag)) for v, c in tail.items()]


# Parts that cancel exactly, signed zeros, and arbitrary doubles.
_parts = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0]),
    st.floats(-4, 4, allow_nan=False),
)
_coeffs = st.one_of(
    st.sampled_from([0j, complex(-0.0, -0.0), 1 + 0j, -1 + 0j]),
    st.builds(complex, _parts, _parts),
)


@st.composite
def _tails(draw, nvars, order):
    """Tails whose terms may exceed the order; they must be skipped."""
    vecs = st.tuples(*[st.integers(0, order + 1)] * nvars)
    return draw(st.dictionaries(vecs, _coeffs, max_size=12))


@st.composite
def _tail_pairs(draw):
    # 5-7 variables take three digit-pair chunks; odd counts end on one digit
    nvars = draw(st.integers(1, 7))
    order = draw(st.integers(0, 12))
    return nvars, order, draw(_tails(nvars, order)), draw(_tails(nvars, order))


class TestPackedKernel:
    @given(case=_tail_pairs(), prune=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tail_mul_bit_identical_to_loop(self, case, prune):
        nvars, order, t1, t2 = case
        got = _tail_mul(t1, t2, order, prune=prune)
        assert _bits(got) == _bits(_loop_tail_mul(t1, t2, order, prune=prune))

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
        a = GenSeries(graded, order, {((), (), zero): t1, ((), (), half): t3})
        b = GenSeries(
            graded,
            extra.draw(st.integers(order, order + 2)),
            {((), (), half): t2, ((), (), zero): t4},
        )
        got, want = a * b, _loop_mul(a, b)
        assert list(got.sectors) == list(want.sectors)
        for key in want.sectors:
            assert _bits(got.sectors[key]) == _bits(want.sectors[key])

    def test_zero_order_keeps_constants_only(self):
        t = {(0, 0): 2 + 0j, (1, 0): 1 + 0j, (0, 1): 3 + 0j}
        assert _tail_mul(t, t, 0) == {(0, 0): 4 + 0j}

    @pytest.mark.parametrize("order", [62, 63, 64, 200])
    def test_large_orders_bit_identical_to_loop(self, order):
        # base order + 1 above 64 decodes one digit per lookup, not pairs
        rng = random.Random(order)
        series._digit_table.cache_clear()
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
            got = _tail_mul(*tails, order)
            assert _bits(got) == _bits(_loop_tail_mul(*tails, order))
        if order >= 64:
            # only the order + 1 one-digit tuples, no (order + 1)**2 pairs
            assert series._digit_table.cache_info().currsize == 1
            assert len(series._digit_table(order + 1, 1)) == order + 1


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
            got = _binomial_tail({v: complex(c) for v, c in u.items()}, q, order, nvars)
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
        u = {(1, 0): 0.5 + 0j, (0, 1): -0.25 + 0j, (1, 1): 0.125 + 0j}
        q = Fraction(-5, 3)
        first = one_plus(("a", "b"), 8, u).pow(q)
        before = series._binomial_tail_memo.cache_info().hits
        # same tail, other leading constant: pow scales its copy in place
        scaled = (one_plus(("a", "b"), 8, u) * 3.0).pow(q)
        assert series._binomial_tail_memo.cache_info().hits == before + 1
        again = one_plus(("a", "b"), 8, u).pow(q)
        ((key, tail),) = first.sectors.items()
        assert list(again.sectors) == [key]
        assert _bits(again.sectors[key]) == _bits(tail)
        ratio = cmath.exp(q * cmath.log(3.0))
        for vec, c in tail.items():
            assert abs(scaled.sectors[key][vec] - ratio * c) <= 1e-14 * abs(ratio * c)
        # a caller mutating its tail leaves the memo intact
        mine = _binomial_tail(u, q, 8, 2)
        want = _bits(mine)
        mine[(0, 0)] = 99.0 + 0j
        assert _bits(_binomial_tail(u, q, 8, 2)) == want

    def test_memo_exact_across_signed_zeros(self):
        # the memo key merges 0.0 and -0.0 parts; the tail it returns must
        # still be the one computed from the tail asked for
        plus = {(1,): complex(0.5, 0.0), (2,): complex(-1.0, 0.0), (3,): 0j}
        minus = {(1,): complex(0.5, -0.0), (2,): complex(-1.0, -0.0), (3,): -0j}
        for q in (Fraction(1, 2), Fraction(-3), Fraction(2)):
            for u in (plus, minus):
                fresh = series._binomial_tail_memo.__wrapped__(tuple(u.items()), q, 6, 1)
                assert _bits(_binomial_tail(u, q, 6, 1)) == _bits(fresh)


class TestExpand:
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
            m = cs.meta
            i, j = m.left_leaf[m.root_vertex], m.right_leaf[m.root_vertex]
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
            rhs = (expand(a, f, n).series * expand(a, g, n).series).truncate(n)
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
    except (SeriesError, ZeroDivisionError) as err:
        return type(err), str(err)
    return z.real.hex(), z.imag.hex()


_GRADED = ("a", "b", "c")
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


@st.composite
def _series_and_values(draw):
    """Multi-sector series over three graded variables with negative and
    fractional bases, ungraded factors and log factors, and values that
    may be zero, on the cut or missing."""
    nvars = draw(st.integers(1, 3))
    graded = _GRADED[:nvars]
    order = draw(st.integers(0, 8))
    sectors = {}
    for _ in range(draw(st.integers(1, 4))):
        base = tuple(draw(_exponents) for _ in graded)
        names = draw(st.lists(st.sampled_from(_UNGRADED), unique=True, max_size=2))
        ungraded = tuple(sorted((v, draw(_exponents.filter(bool))) for v in names))
        log_names = draw(st.lists(st.sampled_from(graded + _UNGRADED), unique=True, max_size=2))
        logs = tuple(sorted((v, draw(st.integers(1, 2))) for v in log_names))
        vecs = st.tuples(*[st.integers(0, order)] * nvars)
        sectors[(logs, ungraded, base)] = draw(
            st.dictionaries(vecs, _coeffs, min_size=1, max_size=10)
        )
    s = GenSeries(graded, order, sectors)
    missing = draw(st.lists(st.sampled_from(graded + _UNGRADED), max_size=1))
    return s, {v: draw(_values) for v in graded + _UNGRADED if v not in missing}


class TestEvaluate:
    @given(case=_series_and_values())
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_loop(self, case):
        s, values = case
        assert _outcome(evaluate_series, s, values) == _outcome(_loop_evaluate, s, values)

    def test_constant(self):
        s = GenSeries.constant(1.0, ("z",), 3)
        assert evaluate_series(s, {"z": 123.0}) == 1
        assert evaluate_series(s, {}) == 1

    def test_unused_missing_variable(self):
        # every exponent of b is zero, so b needs no value
        s = GenSeries(("a", "b"), 4, {((), (), (Fraction(-1), ZERO)): {(1, 0): 2j, (3, 0): 1 + 0j}})
        assert evaluate_series(s, {"a": 2.0}) == 2j + 4
        with pytest.raises(SeriesError, match="no value for variable b"):
            evaluate_series(
                GenSeries(("a", "b"), 4, {((), (), (ZERO, ZERO)): {(0, 1): 1 + 0j}}), {"a": 2.0}
            )

    def test_zero_value_with_nonnegative_exponents(self):
        # base -1 with tail exponents >= 1: a^0 and a^2 at a = 0; the
        # negative powers no term uses are never computed
        s = GenSeries(("a",), 4, {((), (), (Fraction(-1),)): {(1,): 3 + 0j, (3,): 5 + 0j}})
        assert evaluate_series(s, {"a": 0j}) == 3
        with pytest.raises(ZeroDivisionError):
            evaluate_series(
                GenSeries(("a",), 4, {((), (), (Fraction(-1),)): {(0,): 1 + 0j}}), {"a": 0j}
            )

    def test_cut_variable_with_integer_power(self):
        s = GenSeries(("a",), 4, {((), (("x", Fraction(3)),), (Fraction(-2),)): {(0,): 1 + 0j, (3,): 1 + 0j}})
        got = evaluate_series(s, {"a": -2.0, "x": -1.0})
        assert got == -(0.25 - 2)
        assert _outcome(evaluate_series, s, {"a": -2.0, "x": -1.0}) == _outcome(
            _loop_evaluate, s, {"a": -2.0, "x": -1.0}
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
