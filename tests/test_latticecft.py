import cmath
import copy
import itertools
import math
import pickle
import random
import re
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetree import latticecft, series
from opetree.coords import (
    CoordError,
    a_coordinates,
    nested_configuration,
    nested_configuration_open,
    phi_embedding,
    validate_halfplane_point,
)
from opetree.latticecft import (
    BoundaryData,
    LatticeError,
    NarainModel,
    bootstrap_check,
    build_boundary,
    bulk_correlator,
    consistency_sweep,
    continue_bulk,
    epsilon_cocycle,
    epsilon_exponent,
    expansion_consistency_check,
    lattice_pairing,
    mixed_correlator,
    mixed_power_product,
    ope_prefactor_num,
    reference_tree,
    regions_check,
    single_valuedness_check,
    skew_symmetry_check,
    tree_expansion,
    _loop_path,
    _random_loop_sample,
    _sample_open_points,
)
from opetree.series import SeriesError, evaluate_closed, phase_pi
from opetree.trees import (
    EMPTY,
    ClosedLeaf,
    Leaf,
    Node,
    OpenLeaf,
    Tau,
    TreeError,
    all_colored_trees,
    doubling,
    format_tree,
    parse_tree,
)
from tests.oracles import coefficient


@pytest.fixture(scope="module")
def model():
    return NarainModel(Fraction(2))


@pytest.fixture(scope="module")
def boundaries(model):
    return {rho: build_boundary(model, rho) for rho in (1, -1)}


class TestLattice:
    def test_gram_even_unimodular(self):
        for a in [(1, 0), (0, 1), (2, -3)]:
            assert lattice_pairing(a, a) % 2 == 0

    def test_epsilon_basis_table(self):
        assert epsilon_cocycle((1, 0), (0, 1)) == 1
        assert epsilon_cocycle((0, 1), (1, 0)) == -1
        assert epsilon_cocycle((3, -2), (0, 0)) == 1
        assert epsilon_cocycle((0, 0), (3, -2)) == 1

    def test_epsilon_commutator_and_diagonal(self, model):
        for n in range(-3, 4):
            for m in range(-3, 4):
                a = (n, m)
                for n2 in range(-3, 4):
                    for m2 in range(-3, 4):
                        b = (n2, m2)
                        lhs = epsilon_cocycle(a, b) * epsilon_cocycle(b, a)
                        assert lhs == (-1) ** lattice_pairing(a, b)
                assert epsilon_cocycle(a, a) == (-1) ** (lattice_pairing(a, a) // 2)

    def test_charge_identity_exact(self):
        for rsq in (Fraction(2), Fraction(1, 2), Fraction(7, 3)):
            model = NarainModel(rsq)
            for n in range(-4, 5):
                for m in range(-4, 5):
                    for n2 in range(-4, 5):
                        for m2 in range(-4, 5):
                            a, b = (n, m), (n2, m2)
                            assert model.aa(a, b) - model.abarbar(a, b) == lattice_pairing(a, b)

    def test_spin_integrality(self, model):
        for n in range(-5, 6):
            for m in range(-5, 6):
                h, hbar = model.aa((n, m), (n, m)) / 2, model.abarbar((n, m), (n, m)) / 2
                assert (h - hbar).denominator == 1
                assert int(h - hbar) == n * m

    def test_bad_radius(self):
        with pytest.raises(LatticeError):
            NarainModel(Fraction(-1))


class TestBulkCorrelator:
    def test_vacuum_one_point(self, model):
        assert bulk_correlator(model, (0, 0), [((0, 0), 0.3 + 1j)]) == 1

    def test_charge_conservation(self, model):
        assert bulk_correlator(model, (0, 0), [((1, 0), 0j), ((0, 1), 1j)]) == 0

    def test_two_point_half_charges(self, model):
        # R^2 = 2, alpha1 = (1,0), alpha2 = (0,1): eps z^{1/2} zbar^{-1/2}
        assert model.aa((1, 0), (0, 1)) == Fraction(1, 2)
        assert model.abarbar((1, 0), (0, 1)) == Fraction(-1, 2)
        z1, z2 = 0.7 + 0.2j, -0.1 + 0.9j
        got = bulk_correlator(model, (1, 1), [((1, 0), z1), ((0, 1), z2)])
        v = z1 - z2
        assert abs(got - v / abs(v)) < 1e-14

    def test_coincident_points(self, model):
        with pytest.raises(LatticeError):
            bulk_correlator(model, (1, 1), [((1, 0), 1j), ((0, 1), 1j)])

    def test_non_integer_charge(self, model):
        # a half-integer charge was once evaluated (and 1.0 raised
        # TypeError from fractions); an integral value of any type is read
        # as its integer
        z1, z2 = 0.7 + 0.2j, -0.1 + 0.9j
        path = _loop_path((z1, z2), 0, 1, turns=1.0)
        for pair in (((Fraction(3, 2), 0), (Fraction(-3, 2), 0)), ((1.5, 0), (-1.5, 0))):
            with pytest.raises(LatticeError, match="integer pair"):
                bulk_correlator(model, (0, 0), [(pair[0], z1), (pair[1], z2)])
            with pytest.raises(LatticeError, match="integer pair"):
                continue_bulk(model, (0, 0), pair, path)
        want = bulk_correlator(model, (1, 1), [((1, 0), z1), ((0, 1), z2)])
        got = bulk_correlator(model, (1, 1), [((1.0, 0), z1), ((0, Fraction(1)), z2)])
        assert got == want
        want = continue_bulk(model, (1, 1), [(1, 0), (0, 1)], path)
        assert continue_bulk(model, (1, 1), [(1.0, 0), (0, Fraction(1))], path) == want

    @pytest.mark.parametrize("dual", ((1.5, 0), (1,)))
    def test_invalid_dual_raises(self, model, dual):
        # both read each dual as a charge total not conserved: 0j
        ins, path = [((1, 0), 0.3 + 0.5j)], [[0.3 + 0.5j], [0.4 + 0.5j]]
        assert bulk_correlator(model, (1.0, 0), ins) == bulk_correlator(model, (1, 0), ins) != 0
        assert continue_bulk(model, (1.0, 0), [(1, 0)], path) == continue_bulk(model, (1, 0), [(1, 0)], path) != 0
        message = re.escape(f"dual charge must be an integer pair, got {dual!r}")
        with pytest.raises(LatticeError, match=message):
            bulk_correlator(model, dual, ins)
        with pytest.raises(LatticeError, match=message):
            continue_bulk(model, dual, [(1, 0)], path)

    def test_loop_sampler_gives_up(self):
        # coincident points never give a clear loop; this once looped forever
        class Stuck(random.Random):
            def uniform(self, a, b):
                return 0.0

        with pytest.raises(LatticeError, match="loop sampler"):
            _random_loop_sample(Stuck(0), 3)

    def test_single_valued_under_loop(self, model):
        pts = (1.2 + 0.1j, -0.3 - 0.4j)
        charges = [(2, -1), (-1, 1)]
        dual = (1, 0)
        start = bulk_correlator(model, dual, list(zip(charges, pts)))
        path = _loop_path(pts, 0, 1, turns=1.0)
        end = continue_bulk(model, dual, charges, path)
        assert abs(end - start) <= 1e-12 * abs(start)

    def test_insertion_order_symmetry(self, model):
        # the epsilon prefactor change under reordering cancels against the
        # sign of the paired power, so the correlator is symmetric
        rng = random.Random(71)
        for _ in range(20):
            charges = [
                (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)
            ]
            pts = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)
            ]
            if any(
                abs(pts[i] - pts[j]) < 0.1 for i in range(3) for j in range(i + 1, 3)
            ):
                continue
            dual = tuple(sum(c) for c in zip(*charges))
            ins = list(zip(charges, pts))
            base = bulk_correlator(model, dual, ins)
            perm = ins[:]
            rng.shuffle(perm)
            got = bulk_correlator(model, dual, perm)
            assert abs(got - base) <= 1e-12 * max(abs(base), 1e-300)


class TestBoundaryData:
    def test_kernel_and_group(self, boundaries):
        assert boundaries[1].kernel_generator == (0, 1)
        assert boundaries[1].m_generator == (1, 0)
        assert boundaries[-1].kernel_generator == (1, 0)
        assert boundaries[1].t_coeff((3, 5)) == 3
        assert boundaries[-1].t_coeff((3, 5)) == 5

    def test_sigma_normalized(self, boundaries):
        for bd in boundaries.values():
            assert bd.model.phase(bd.sigma_num((0, 0))) == 1

    def test_commutator_trivial_on_box(self, boundaries):
        # (alpha,beta) + (alpha,phi beta) is even for the rank-one model
        for bd in boundaries.values():
            for n in range(-3, 4):
                for m in range(-3, 4):
                    for n2 in range(-3, 4):
                        for m2 in range(-3, 4):
                            k = bd.commutator_num((n, m), (n2, m2))
                            assert k % (2 * bd.model.D) == 0

    def test_bootstrap_passes(self, model, boundaries):
        for rho, bd in boundaries.items():
            rep = bootstrap_check(model, bd, box=3)
            assert rep.passed, rep.text()

    def test_bootstrap_rejects_other_model(self):
        # valid data of R^2 = 2 read as R^2 = 3 once reported FAIL (error 1.73)
        with pytest.raises(LatticeError, match=r"boundary data for R\^2 = 2, not 3"):
            bootstrap_check(NarainModel(3), build_boundary(NarainModel(2), 1), 2)

    @pytest.mark.parametrize(
        "box, message",
        [
            (-1, "box must be >= 0, got -1"),
            (1.5, "box must be an int, got 1.5"),
            (True, "box must be an int, got True"),
        ],
    )
    def test_bootstrap_rejects_bad_box(self, model, boundaries, box, message):
        # a negative box once read no pair and passed a perturbed control
        with pytest.raises(LatticeError, match=message):
            bootstrap_check(model, boundaries[1].perturbed((1, 0), 2), box)

    def test_bootstrap_other_radii(self):
        for rsq in (Fraction(1, 2), Fraction(3)):
            model = NarainModel(rsq)
            for rho in (1, -1):
                bd = build_boundary(model, rho)
                assert bootstrap_check(model, bd, box=3).passed

    def test_perturbed_sigma_fails(self, model, boundaries):
        for rho, bd in boundaries.items():
            bad = bd.perturbed((1, 0), box=3)
            rep = bootstrap_check(model, bad, box=3)
            assert not rep.passed

    def test_kernel_property(self, boundaries):
        for bd in boundaries.values():
            gen = bd.kernel_generator
            for k in range(-5, 6):
                a = (gen[0] * k, gen[1] * k)
                for n2 in range(-5, 6):
                    for m2 in range(-5, 6):
                        assert bd.model.phase(bd.commutator_num(a, (n2, m2))) == 1

    @pytest.mark.parametrize("rho", (1, -1))
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_bootstrap_reads_commutator_on_generators(self, monkeypatch, model, rho, i, j):
        # a bilinear commutator that is D, not 0 mod 2D, on the basis pair
        # (e_i, e_j) alone: (3) fails, and the kernel property fails
        # exactly when e_i generates ker t
        monkeypatch.setattr(
            BoundaryData, "commutator_num", lambda self, a, b: a[i] * b[j] * self.model.D
        )
        bd = build_boundary(model, rho)
        e_i = ((1, 0), (0, 1))[i]
        for box in (0, 1, 2):
            rep = bootstrap_check(model, bd, box=box)
            assert not rep.passed
            assert rep.max_rel_err == 2.0
            kernel_error = rep.samples[0]["kernel_error"]
            assert kernel_error == (2.0 if e_i == bd.kernel_generator else 0.0)


def _ref_frame_product(rsq, v1, v2):
    """x1 x2 u^2 + y1 y2 w^2 + (x1 y2 + x2 y1) uw in Fractions."""
    (x1, y1), (x2, y2) = v1, v2
    return x1 * x2 / (2 * rsq) + y1 * y2 * rsq / 2 + Fraction(x1 * y2 + x2 * y1, 2)


class _FractionBoundary:
    """Reference cocycles in Fraction exponents mod 2 (value exp(i pi nu)):
    sigma solved greedily, one lattice step at a time (n first, then m),
    written against the rational frame form."""

    def __init__(self, bd):
        self.rho = bd.rho
        self.rsq = bd.model.r_squared
        self.t_coeff = bd.t_coeff
        self.phi_abar_vec = bd.phi_abar_vec
        self.table = {(0, 0): Fraction(0), (1, 0): Fraction(0), (0, 1): Fraction(0)}

    def eta(self, k1, k2):
        """Trivial: the boundary charge group is rank one."""
        return Fraction(0)

    def alpha_phi_beta(self, a, b):
        rho_b = (self.rho * b[0], self.rho * b[1])
        return _ref_frame_product(self.rsq, a, self.phi_abar_vec(b)) - _ref_frame_product(
            self.rsq, (a[0], -a[1]), rho_b
        )

    def commutator(self, a, b):
        return -(lattice_pairing(a, b) + self.alpha_phi_beta(a, b))

    def epsilon_prime(self, a, b):
        return (epsilon_exponent(a, b) + _ref_frame_product(self.rsq, self.phi_abar_vec(a), b)) % 2

    def sigma(self, a):
        if a in self.table:
            return self.table[a]
        n, m = a
        if n > 0:
            prev = (n - 1, m)
            nu = self.sigma(prev) + self.sigma((1, 0)) - self.epsilon_prime(prev, (1, 0))
        elif n < 0:
            nu = self.epsilon_prime(a, (1, 0)) + self.sigma((n + 1, m)) - self.sigma((1, 0))
        elif m > 0:
            prev = (0, m - 1)
            nu = self.sigma(prev) + self.sigma((0, 1)) - self.epsilon_prime(prev, (0, 1))
        else:
            nu = self.epsilon_prime(a, (0, 1)) + self.sigma((0, m + 1)) - self.sigma((0, 1))
        self.table[a] = nu % 2
        return self.table[a]


class _FlippedReference:
    """A negative control's reference: the greedy oracle with sigma(alpha)
    sign-flipped and every other entry as solved."""

    def __init__(self, bd, alpha):
        self.ref, self.alpha = _FractionBoundary(bd), alpha

    def __getattr__(self, name):
        return getattr(self.ref, name)

    def sigma(self, a):
        return (self.ref.sigma(a) + (a == self.alpha)) % 2


def _eps_prime_symmetric_on_box(bd, box=6):
    """eps'(a, b) = eps'(b, a) for |n|, |m| <= box and four generators b."""
    gens = [(1, 0), (0, 1), (1, 1), (-1, 2)]
    return all(
        bd.epsilon_prime_num((n, m), b) == bd.epsilon_prime_num(b, (n, m))
        for n in range(-box, box + 1)
        for m in range(-box, box + 1)
        for b in gens
    )


def _reference_prefactor(ref, e, bulk_charges, bdry_charges):
    """The OPE prefactor exponent mod 2 walked in Fractions (value
    exp(i pi nu)): epsilon at closed vertices, sigma at Tau, eta at open
    vertices."""
    r = len(bulk_charges)

    def walk(t):
        if isinstance(t, ClosedLeaf):
            return Fraction(0), "c", tuple(bulk_charges[t.label - 1])
        if isinstance(t, OpenLeaf):
            return Fraction(0), "o", bdry_charges[t.label - r - 1]
        if isinstance(t, Tau):
            nu, _, ch = walk(t.child)
            return nu + ref.sigma(ch), "o", ref.t_coeff(ch)
        nu1, kind, c1 = walk(t.left)
        nu2, _, c2 = walk(t.right)
        if kind == "c":
            return nu1 + nu2 + epsilon_exponent(c1, c2), "c", (c1[0] + c2[0], c1[1] + c2[1])
        return nu1 + nu2 + ref.eta(c1, c2), "o", c1 + c2

    return walk(e)[0] % 2


def _reference_bootstrap(ref, box, tol=1e-12):
    """(passed, max_rel_err, samples) of the Fraction and phase_pi loop;
    eta is trivial for the rank-one model."""
    worst = abs(phase_pi(ref.sigma((0, 0))) - 1)
    kernel_worst = 0.0
    rng_box = range(-box, box + 1)
    for n in rng_box:
        for m in rng_box:
            a = (n, m)
            for n2 in rng_box:
                for m2 in rng_box:
                    b = (n2, m2)
                    lhs2 = (
                        epsilon_exponent(a, b)
                        + ref.sigma((n + n2, m + m2))
                        + _ref_frame_product(ref.rsq, ref.phi_abar_vec(a), b)
                    )
                    rhs2 = ref.sigma(a) + ref.sigma(b)
                    worst = max(worst, abs(phase_pi(lhs2) - phase_pi(rhs2)))
                    comm = ref.commutator(a, b)
                    worst = max(worst, abs(phase_pi(0) - phase_pi(comm)))
                    if ref.t_coeff(a) == 0:
                        kernel_worst = max(kernel_worst, abs(phase_pi(comm) - 1))
    worst = max(worst, kernel_worst)
    samples = [{"worst_identity_error": worst, "kernel_error": kernel_worst}]
    return worst <= tol, worst, samples


class TestExactPhases:
    """The integer phases mod 2D against a Fraction reference."""

    RADII = ("2", "5/7", "11/6", "3/8")
    SIGMA_RADII = ("1/2", "2", "3", "5/7", "7/5", "11/6", "3/8", "1", "13/4")

    def _compare(self, model, bd, ref, box):
        want = _reference_bootstrap(ref, box)
        rep = bootstrap_check(model, bd, box)
        assert (rep.passed, rep.max_rel_err, rep.samples) == want
        return rep

    def _compare_control(self, model, bd, alpha, box):
        bad = bd.perturbed(alpha, box)
        assert bad.sigma_table == {alpha: (bd.sigma_num(alpha) + model.D) % (2 * model.D)}
        return self._compare(model, bad, _FlippedReference(bd, alpha), box)

    def test_sigma_matches_fraction_solve(self):
        # the closed form against the greedy solve, entry by entry
        for rsq in self.SIGMA_RADII:
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                bd = build_boundary(model, rho)
                assert bd.sigma_table == {}
                ref = _FractionBoundary(bd)
                for n in range(-12, 13):
                    for m in range(-12, 13):
                        assert Fraction(bd.sigma_num((n, m)), model.D) == ref.sigma((n, m))
                assert bd.sigma_table == {}

    def test_sigma_far_from_origin(self):
        model = NarainModel(Fraction(2))
        bd = build_boundary(model, 1)
        two_d, e1 = 2 * model.D, (1, 0)
        assert 0 <= bd.sigma_num((1004, 0)) < two_d
        for n, m in ((1003, 0), (-700, 450)):
            want = bd.sigma_num((n, m)) + bd.sigma_num(e1) - bd.epsilon_prime_num((n, m), e1)
            assert (bd.sigma_num((n + 1, m)) - want) % two_d == 0

    def test_symmetry_check_matches_box_sweep(self, monkeypatch):
        for rsq in self.SIGMA_RADII:
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                assert _eps_prime_symmetric_on_box(build_boundary(model, rho))
        exact = BoundaryData.epsilon_prime_num
        monkeypatch.setattr(
            BoundaryData,
            "epsilon_prime_num",
            lambda bd, a, b: (exact(bd, a, b) + a[0] * b[1] * bd.model.D) % (2 * bd.model.D),
        )
        for rsq in self.SIGMA_RADII:
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                assert not _eps_prime_symmetric_on_box(BoundaryData(model, rho))
                with pytest.raises(LatticeError, match="not symmetric"):
                    build_boundary(model, rho)

    def test_reports_match_fraction_loop(self):
        for rsq in self.RADII:
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                for box in (2, 3):
                    bd = build_boundary(model, rho)
                    rep = self._compare(model, bd, _FractionBoundary(bd), box)
                    assert rep.passed and rep.max_rel_err == 0
                    assert not self._compare_control(model, bd, (1, 0), box).passed

    def test_controls_fail_at_several_charges(self):
        for rsq in ("1/2", "5/7"):
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                bd = build_boundary(model, rho)
                for alpha in ((0, 0), (0, 1), (1, 1), (-2, 1), (2, -2)):
                    rep = self._compare_control(model, bd, alpha, 2)
                    assert not rep.passed
                    assert abs(rep.max_rel_err - 2) < 1e-12  # a sign flip

    @pytest.mark.parametrize("alpha", ((4, -4), (-4, 4), (9, 0)))
    def test_controls_at_sigma_table_edges(self, alpha):
        # box 2 reads sigma on |n|, |m| <= 4: an override at a corner of
        # that table is read by one pair only, one outside it never
        outside = max(map(abs, alpha)) > 4
        for rsq in ("1/2", "2", "5/7"):
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                rep = self._compare_control(model, build_boundary(model, rho), alpha, 2)
                if outside:
                    assert rep.passed and rep.max_rel_err == 0
                else:
                    assert not rep.passed
                    assert abs(rep.max_rel_err - 2) < 1e-12  # a sign flip

    # the models and boxes of perfbench's cocycles workload: a box-2 check
    # and (1, 0) control for every model, box-4 pairs at R^2 = 2
    COCYCLE_RADII = ("1/2", "2", "3", "5/7", "7/5", "11/6")

    @pytest.mark.parametrize("rsq", COCYCLE_RADII)
    def test_reports_match_fraction_loop_on_cocycle_models(self, rsq):
        model = NarainModel(Fraction(rsq))
        cases = [(2, (2, -1)), (2, (-1, -2))]
        if rsq not in self.RADII:  # else test_reports_match_fraction_loop has them
            cases += [(2, None), (2, (1, 0))]
        if rsq == "2":
            cases += [(4, None), (4, (1, 0))]
        for rho in (1, -1):
            bd = build_boundary(model, rho)
            for box, alpha in cases:
                if alpha is None:
                    rep = self._compare(model, bd, _FractionBoundary(bd), box)
                    assert rep.passed and rep.max_rel_err == 0
                else:
                    assert not self._compare_control(model, bd, alpha, box).passed

    @pytest.mark.parametrize("rsq", (*COCYCLE_RADII, "3/8"))
    def test_phase_table_is_bit_exact(self, rsq):
        model = NarainModel(Fraction(rsq))
        d = model.D
        for k in range(-6 * d, 6 * d):
            got, want = model.phase(k), phase_pi(Fraction(k, d))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert len(model._phases) <= 2 * d
        for clone in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert clone == model and hash(clone) == hash(model)
            assert [clone.phase(k) for k in range(-2 * d, 2 * d)] == [
                model.phase(k) for k in range(-2 * d, 2 * d)
            ]

    def test_perturbed_flips_by_d(self, boundaries):
        bd = boundaries[1]
        d = bd.model.D
        bad = bd.perturbed((2, 1), 2)
        assert bad.sigma_num((2, 1)) == (bd.sigma_num((2, 1)) + d) % (2 * d)
        phases = [x.model.phase(x.sigma_num((2, 1))) for x in (bad, bd)]
        assert abs(phases[0] + phases[1]) < 1e-15

    def test_perturbed_keys_overrides_by_ints(self, boundaries):
        # (1.0, 0) was stored as it came, and the bootstrap check then
        # indexed a list with a float
        bd = boundaries[1]
        want = bd.perturbed((1, 0), 2)
        want_rep = bootstrap_check(bd.model, want, 2)
        for alpha in ((1.0, 0), (Fraction(1), 0), (1, 0.0)):
            bad = bd.perturbed(alpha, 2)
            assert bad.sigma_table == want.sigma_table
            assert [type(k) for key in bad.sigma_table for k in key] == [int, int]
            rep = bootstrap_check(bd.model, bad, 2)
            assert (rep.passed, rep.max_rel_err, rep.samples) == (
                want_rep.passed, want_rep.max_rel_err, want_rep.samples
            )

    def test_non_integral_sigma_charge_raises(self, boundaries):
        # (1.5, 0) was read as sigma(1, 0)
        bd = boundaries[1]
        assert bd.sigma_num((Fraction(1), 0)) == bd.sigma_num((1.0, 0)) == bd.sigma_num((1, 0))
        for alpha in ((1.5, 0), (0, Fraction(1, 2)), (1, -0.5)):
            with pytest.raises(LatticeError, match="integer pair"):
                bd.sigma_num(alpha)
            with pytest.raises(LatticeError, match="integer pair"):
                bd.perturbed(alpha, 2)

    @pytest.mark.parametrize("alpha", ((math.inf, 0), (math.nan, 0), (1,), (None, 0), (True, 0)))
    def test_invalid_sigma_charge_raises(self, boundaries, alpha):
        # these raised OverflowError, ValueError, IndexError and TypeError,
        # and (True, 0) read as sigma(1, 0)
        with pytest.raises(LatticeError, match="charge must be an integer pair"):
            boundaries[1].sigma_num(alpha)

    @given(
        p=st.integers(1, 40),
        q=st.integers(1, 40),
        vecs=st.lists(st.integers(-30, 30), min_size=4, max_size=4),
        rho=st.sampled_from((1, -1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_forms_match_fractions(self, p, q, vecs, rho):
        rsq = Fraction(p, q)
        model = NarainModel(rsq)
        assert model.D == 2 * rsq.numerator * rsq.denominator
        v1, v2 = tuple(vecs[:2]), tuple(vecs[2:])
        want = _ref_frame_product(rsq, v1, v2)
        assert model.frame_product_num(v1, v2) == model.D * want
        assert model.frame_product(v1, v2) == want
        bd = BoundaryData(model, rho)
        ref = _FractionBoundary(bd)
        assert bd.alpha_phi_beta(v1, v2) == ref.alpha_phi_beta(v1, v2)
        assert bd.commutator_num(v1, v2) == model.D * ref.commutator(v1, v2)
        assert bd.epsilon_prime_num(v1, v2) == model.D * ref.epsilon_prime(v1, v2)
        assert bd.sigma_exponent(v1) == ref.sigma(v1)


def _flat_table_bootstrap(model, bd, box, tol=1e-12):
    """(passed, max_rel_err, samples) of the full-box integer sweep: sigma
    over |n|, |m| <= 2 box in one flat list, eps' read on the basis per a,
    and identity (2) compared on every pair of the box."""
    two_d = 2 * model.D
    r = 2 * box
    w, centre, span = 2 * r + 1, r * (2 * r + 2), range(-r, r + 1)
    flat = [bd.sigma_num((n, m)) for n in span for m in span]
    basis = ((1, 0), (0, 1))
    comm = {
        (a, b): abs(model.phase(0) - model.phase(bd.commutator_num(a, b)))
        for a in basis
        for b in basis
    }
    kernel_worst = max(comm[bd.kernel_generator, b] for b in basis)
    worst = max(abs(model.phase(flat[centre]) - model.phase(0)), *comm.values())
    rng_box = range(-box, box + 1)
    rows = [(n, m, n * w + m, flat[centre + n * w + m]) for n in rng_box for m in rng_box]
    for n, m, lin_a, sigma_a in rows:
        x1, x2 = [bd.epsilon_prime_num((n, m), e) for e in basis]
        for n2, m2, lin_b, sigma_b in rows:
            lhs = x1 * n2 + x2 * m2 + flat[centre + lin_a + lin_b]
            rhs = sigma_a + sigma_b
            if (lhs - rhs) % two_d:
                worst = max(worst, abs(model.phase(lhs) - model.phase(rhs)))
    samples = [{"worst_identity_error": worst, "kernel_error": kernel_worst}]
    return worst <= tol, worst, samples


def _override_controls(bd, box):
    """Boundary data with no override, one, two, one at the origin, ones
    that only a + b reaches (box < max(|n|, |m|) <= 2 box) and ones
    outside 2 box."""
    out = {"none": bd, "one": bd.perturbed((1, 0), box), "origin": bd.perturbed((0, 0), box)}
    out["two"] = bd.perturbed((1, -1), box).perturbed((-box, box), box)
    if box:
        out["sum only"] = bd.perturbed((2 * box, -box), box).perturbed((-box - 1, 0), box)
    out["outside"] = bd.perturbed((2 * box + 1, 0), box).perturbed((0, -2 * box - 1), box)
    return out


class TestOverridePairs:
    """bootstrap_check reads (2) only on pairs through an override when
    eps' is symmetric, and on every box pair when it is not; both match
    the full-box sweep bit for bit."""

    RADII = ("1/2", "2", "5/7", "11/6", "3/8")

    def _assert_matches_sweep(self, model, bd, box):
        rep = bootstrap_check(model, bd, box)
        want = _flat_table_bootstrap(model, bd, box)
        assert (rep.passed, rep.max_rel_err, rep.samples) == want
        assert rep.max_rel_err.hex() == want[1].hex()
        return rep

    def test_matches_full_box_sweep(self):
        for rsq in self.RADII:
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                bd = build_boundary(model, rho)
                for box in range(6):
                    for name, control in _override_controls(bd, box).items():
                        rep = self._assert_matches_sweep(model, control, box)
                        # box 0 reads sigma at (0, 0) only: (1, 0) is outside it
                        unread = ("none", "outside", "one") if box == 0 else ("none", "outside")
                        assert rep.passed == (name in unread), (rsq, rho, box, name)

    def test_matches_full_box_sweep_with_asymmetric_eps_prime(self, monkeypatch):
        exact = BoundaryData.epsilon_prime_num
        monkeypatch.setattr(
            BoundaryData,
            "epsilon_prime_num",
            lambda bd, a, b: (exact(bd, a, b) + a[0] * b[1] * bd.model.D) % (2 * bd.model.D),
        )
        for rsq in self.RADII:
            model = NarainModel(Fraction(rsq))
            for rho in (1, -1):
                bd = BoundaryData(model, rho)
                for box in range(6):
                    for control in (bd, bd.perturbed((1, 0), box)):
                        rep = self._assert_matches_sweep(model, control, box)
                        assert rep.passed == (box == 0)  # B(a, b) = n m2 D here

    def test_work_without_overrides_does_not_grow_with_box(self, monkeypatch):
        import opetree.latticecft as lc

        model = NarainModel(Fraction(5, 7))
        for rho in (1, -1):
            bd = build_boundary(model, rho)
            errors, sigmas = [], []
            phase_error, sigma_num = lc._phase_error, BoundaryData.sigma_num
            monkeypatch.setattr(lc, "_phase_error", lambda *a: errors.append(a) or phase_error(*a))
            monkeypatch.setattr(BoundaryData, "sigma_num", lambda *a: sigmas.append(a) or sigma_num(*a))
            rep = bootstrap_check(model, bd, 50)
            monkeypatch.undo()
            assert rep.passed and rep.max_rel_err == 0
            assert len(errors) <= 5
            assert [alpha for _, alpha in sigmas] == [(0, 0)]

    @given(
        p=st.integers(1, 12),
        q=st.integers(1, 12),
        rho=st.sampled_from((1, -1)),
        box=st.integers(0, 6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_box_sweep_on_drawn_overrides(self, p, q, rho, box, data):
        # each override shifts sigma by a drawn k, as perturbed shifts it by
        # D: sign flips alone read the same error 2 at every override
        model = NarainModel(Fraction(p, q))
        two_d, edge = 2 * model.D, 2 * box + 1  # inside, on and just outside what a + b reaches
        charge = st.tuples(st.integers(-edge, edge), st.integers(-edge, edge))
        overrides = data.draw(st.lists(st.tuples(charge, st.integers(1, two_d - 1)), max_size=3))
        bd = BoundaryData(model, rho)
        table = {alpha: (bd.sigma_num(alpha) + k) % two_d for alpha, k in overrides}
        self._assert_matches_sweep(model, BoundaryData(model, rho, table), box)

    def test_one_override_reads_three_box_squares(self, monkeypatch):
        model = NarainModel(Fraction(2))
        box = 4
        for rho in (1, -1):
            control = build_boundary(model, rho).perturbed((1, 0), box)
            reads, sigmas, errors = [], [], []
            exact, sigma_num, phase_error = BoundaryData.epsilon_prime_num, BoundaryData.sigma_num, latticecft._phase_error
            monkeypatch.setattr(BoundaryData, "epsilon_prime_num", lambda *a: reads.append(a) or exact(*a))
            monkeypatch.setattr(BoundaryData, "sigma_num", lambda bd, a: sigmas.append(a) or sigma_num(bd, a))
            monkeypatch.setattr(latticecft, "_phase_error", lambda *a: errors.append(a) or phase_error(*a))
            rep = bootstrap_check(model, control, box)
            monkeypatch.undo()
            assert not rep.passed
            # two reads decide the symmetry of eps'; four are its basis table
            assert len(reads) == 2 + 4
            # sigma once per distinct charge, each in the box or its shift by the override
            assert len(sigmas) == len(set(sigmas)) <= 2 * (2 * box + 1) ** 2
            # five errors for (1) and (3); the sweep's, at most one per residue pair mod 2D
            assert 0 < len(errors) - 5 <= (2 * model.D) ** 2


_O_TREES = [
    (r, s, e)
    for r in range(5)
    for s in range(5 - r)
    for e in all_colored_trees(r, s)
]


class TestIntegerPrefactor:
    """The integer OPE prefactor walk against the Fraction walk."""

    @given(
        tree=st.sampled_from(_O_TREES),
        charges=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=4, max_size=4
        ),
        ks=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        p=st.integers(1, 12),
        q=st.integers(1, 12),
        rho=st.sampled_from((1, -1)),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefactor_matches_fraction_walk(self, tree, charges, ks, p, q, rho):
        r, s, e = tree
        model = NarainModel(Fraction(p, q))
        d = model.D
        bd = BoundaryData(model, rho)
        bulk, bdry = charges[:r], ks[:s]
        want = _reference_prefactor(_FractionBoundary(bd), e, bulk, bdry)
        got = ope_prefactor_num(bd, e, bulk)
        assert 0 <= got < 2 * d
        assert got == d * want % (2 * d)
        if 2 * r + s >= 2:  # the doubled tree needs two leaves
            texp = tree_expansion(model, e, bulk, 0, bd=bd, bdry_charges=bdry)
            assert texp.prefactor_num == got
            assert repr(texp.prefactor) == repr(phase_pi(want))


def _per_call_mixed(model, bd, dual, bulk_insertions, bdry_insertions):
    """mixed_correlator without its per-charge-set memo: product, plan and
    prefactor rebuilt on every call; kept as the bit-exact reference."""
    bulk_charges = [tuple(a) for a, _ in bulk_insertions]
    bdry_charges = [int(k) for k, _ in bdry_insertions]
    zs = [complex(z) for _, z in bulk_insertions]
    xs = [complex(x) for _, x in bdry_insertions]
    validate_halfplane_point(zs + xs, len(zs), len(xs))
    if len(set(zs)) != len(zs):
        raise LatticeError("coincident insertion points")
    if bd.model != model:
        raise LatticeError(f"boundary data for R^2 = {bd.model.r_squared}, not {model.r_squared}")
    if int(dual) != dual:
        raise LatticeError(f"dual charge must be an integer, got {dual!r}")
    if sum(bd.t_coeff(a) for a in bulk_charges) + sum(bdry_charges) != int(dual):
        return 0j
    product, plan = mixed_power_product(bd, bulk_charges, bdry_charges)
    point = phi_embedding(zs + xs, len(zs), len(xs))
    pref = ope_prefactor_num(bd, reference_tree(len(zs), len(xs)), bulk_charges)
    return model.phase(pref) * evaluate_closed(product, point, plan)


def _outcome(fn, *args):
    """repr of a result, or the type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, CoordError, LatticeError, SeriesError) as err:
        return type(err).__name__, str(err)


class TestMixedCorrelator:
    @given(
        data=st.data(),
        p=st.integers(1, 7),
        q=st.integers(1, 7),
        rho=st.sampled_from((1, -1)),
        rs=st.sampled_from([(r, s) for r in range(3) for s in range(3) if r + s]),
    )
    @settings(max_examples=80, deadline=None)
    def test_prepared_matches_per_call_path(self, data, p, q, rho, rs):
        # first and repeated calls at new points, under two model arguments
        # (boundary data of the other model raises), on the boundary data
        # and on a perturbed copy of it
        r, s = rs
        model = NarainModel(Fraction(p, q))
        bd = BoundaryData(model, rho)
        charge = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        bulk = data.draw(st.lists(charge, min_size=r, max_size=r))
        bdry = data.draw(st.lists(st.integers(-2, 2), min_size=s, max_size=s))
        dual = sum(bd.t_coeff(a) for a in bulk) + sum(bdry) + data.draw(st.sampled_from((0, 0, 1, 0.5)))
        control = bd.perturbed(bulk[0] if bulk else (1, 0), 2)
        models = (model, NarainModel(Fraction(p, q) + 1))
        upper = st.builds(complex, st.floats(-3, 3), st.floats(0.01, 3))
        real = st.lists(st.floats(-3, 3), min_size=s, max_size=s)
        for _ in range(2):
            for b in (bd, control):
                for m in models:
                    zs = data.draw(st.lists(upper, min_size=r, max_size=r))
                    xs = sorted(data.draw(real), reverse=True)
                    args = (m, b, dual, list(zip(bulk, zs)), list(zip(bdry, xs)))
                    assert _outcome(mixed_correlator, *args) == _outcome(_per_call_mixed, *args)

    def test_closed_forms_memo_is_bounded(self, model):
        # a sweep over many charge sets on one BoundaryData keeps at most
        # 4096 prepared closed forms, and a charge set met again reads them
        bd = BoundaryData(model, 1)
        for n in range(1, 4101):  # no charge, dual n: not conserved
            assert mixed_correlator(model, bd, n, [], [(0, 0.5)]) == 0j
        assert bd.prepare_mixed.cache_info()[2:] == (4096, 4096)
        args = (bd.t_coeff((1, 0)), [((1, 0), 0.5 + 0.5j)], [])
        got = [mixed_correlator(model, bd, *args) for _ in range(2)]
        assert bd.prepare_mixed.cache_info()[:] == (1, 4101, 4096, 4096)
        assert repr(got) == repr([_per_call_mixed(model, bd, *args)] * 2)

    def test_non_integral_dual_raises(self, model):
        # a dual is an integer, as a boundary charge is; 1 and 1.0 are one
        bd = BoundaryData(model, 1)
        want = mixed_correlator(model, bd, 1, [((1, 0), 0.3 + 0.5j)], [])
        assert want != 0j
        assert mixed_correlator(model, bd, 1.0, [((1, 0), 0.3 + 0.5j)], []) == want
        for dual in (1.5, 1.9, Fraction(3, 2)):
            args = (model, bd, dual, [((1, 0), 0.3 + 0.5j)], [])
            want = ("LatticeError", f"dual charge must be an integer, got {dual!r}")
            assert _outcome(mixed_correlator, *args) == _outcome(_per_call_mixed, *args) == want

    @pytest.mark.parametrize(
        "dual, bdry, message",
        (
            (math.inf, [], "dual charge must be an integer, got inf"),  # was OverflowError
            (1, [(math.nan, -0.5)], r"boundary charges must be integers, got \[nan\]"),  # was ValueError
        ),
        ids=("inf dual", "nan boundary charge"),
    )
    def test_non_finite_charge_raises(self, model, dual, bdry, message):
        bd = BoundaryData(model, 1)
        with pytest.raises(LatticeError, match=message):
            mixed_correlator(model, bd, dual, [((1, 0), 0.3 + 0.5j)], bdry)

    def test_reproduces_G(self, model, boundaries):
        # (r,s) = (1,1): sigma eta (z1-zb1)^{(pa,phi pba)} (z1-x2)^{(pa,tb)}
        # (zb1-x2)^{(phi pba, tb)}
        for rho, bd in boundaries.items():
            alpha, beta = (1, 2), (1, 1)
            k = bd.t_coeff(beta)
            z1, x2 = 0.4 + 0.6j, -0.8
            dual = bd.t_coeff(alpha) + k
            got = mixed_correlator(model, bd, dual, [(alpha, z1)], [(k, x2)])
            s1 = model.frame_product(model.a_vec(alpha), bd.phi_abar_vec(alpha))
            s2 = model.frame_product(model.a_vec(alpha), bd.t_vec(k))
            s3 = model.frame_product(bd.phi_abar_vec(alpha), bd.t_vec(k))
            g = cmath.exp(
                float(s1) * cmath.log(z1 - z1.conjugate())
                + float(s2) * cmath.log(z1 - x2)
                + float(s3) * cmath.log(z1.conjugate() - x2)
            )
            pref = bd.sigma_num(alpha)
            want = model.phase(pref) * g
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_reproduces_F_exponents(self, model, boundaries):
        # symbolic factor-by-factor comparison of the (2,0) closed form
        for rho, bd in boundaries.items():
            alpha, beta = (1, -1), (2, 1)
            product, plan = mixed_power_product(bd, [alpha, beta], [])
            exps = dict(product.diffs)
            assert exps.get((1, 3), 0) == model.aa(alpha, beta)
            assert exps.get((2, 4), 0) == model.abarbar(alpha, beta)
            assert exps.get((1, 4), 0) == model.frame_product(
                model.a_vec(alpha), bd.phi_abar_vec(beta)
            )
            assert exps.get((2, 3), 0) == model.frame_product(
                bd.phi_abar_vec(alpha), model.a_vec(beta)
            )
            assert exps.get((1, 2), 0) == model.frame_product(
                model.a_vec(alpha), bd.phi_abar_vec(alpha)
            )
            assert exps.get((3, 4), 0) == model.frame_product(
                model.a_vec(beta), bd.phi_abar_vec(beta)
            )
            # a bulk pair present on both sides is branch-paired
            pairs = [(product.diffs[a][0], product.diffs[b][0]) for a, b in plan.paired]
            if (1, 3) in exps and (2, 4) in exps:
                assert ((1, 3), (2, 4)) in pairs

    def test_all_zero_charges(self, model, boundaries):
        bd = boundaries[1]
        got = mixed_correlator(
            model, bd, 0, [((0, 0), 0.5 + 0.5j)], [(0, -0.5)]
        )
        assert got == 1

    def test_charge_conservation(self, model, boundaries):
        bd = boundaries[1]
        assert mixed_correlator(model, bd, 5, [((1, 0), 1j)], [(0, 0.0)]) == 0

    def test_coincident_bulk_points(self, model, boundaries):
        # at R^2 = 2 these charges once divided by zero in the closed form
        bd = boundaries[1]
        for charges in (((1, 0), (-1, 0)), ((1, 0), (1, 0))):
            dual = sum(bd.t_coeff(a) for a in charges)
            with pytest.raises(LatticeError, match="coincident insertion points"):
                mixed_correlator(model, bd, dual, [(a, 0.5j) for a in charges], [])

    def test_other_model_raises(self, model, boundaries):
        # the check runs when a charge set is prepared; the memo is keyed by
        # the model, so a prepared set of the right model is no way round it
        bd = boundaries[1]
        bulk = [((1, 0), 0.3 + 0.5j)]
        assert mixed_correlator(model, bd, bd.t_coeff((1, 0)), bulk, []) != 0
        with pytest.raises(LatticeError, match=r"boundary data for R\^2 = 2, not 3"):
            mixed_correlator(NarainModel(3), bd, bd.t_coeff((1, 0)), bulk, [])

    def test_non_integer_boundary_charge(self, model, boundaries):
        # 1.5 was read as int(1.5) = 1; it is rejected whether or not the
        # charges are conserved, and whether or not charge 1 is prepared
        bd = BoundaryData(model, 1)
        assert mixed_correlator(model, bd, 1, [], [(1, 0.0)]) == 1
        for dual in (1, 2):
            with pytest.raises(LatticeError, match="boundary charges must be integers"):
                mixed_correlator(model, bd, dual, [], [(1.5, 0.0)])
        assert mixed_correlator(model, bd, 1, [], [(1.0, 0.0)]) == 1
        with pytest.raises(LatticeError, match="boundary charges must be integers"):
            tree_expansion(model, parse_tree("t(c1)o2"), [(1, 0)], 2, bd=bd, bdry_charges=[0.5])
        with pytest.raises(LatticeError, match="boundary charges must be integers"):
            expansion_consistency_check(
                model, [parse_tree("t(c1)o2")], [(1, 0)], 2, 1e-6, 1, 0, bd=bd, bdry_charges=["1"]
            )

    def test_non_integer_bulk_charge(self, model):
        # (1.5, 0) once returned 0j as a non-conserving charge set; it is
        # rejected before the memo, and (1.0, 0) reads as (1, 0)
        bd = BoundaryData(model, 1)
        z = 0.2 + 0.7j
        with pytest.raises(LatticeError, match="integer pair"):
            mixed_correlator(model, bd, bd.t_coeff((1, 0)), [((1.5, 0), z)], [])
        want = mixed_correlator(model, bd, bd.t_coeff((1, 0)), [((1, 0), z)], [])
        fresh = BoundaryData(model, 1)
        assert mixed_correlator(model, fresh, bd.t_coeff((1, 0)), [((1.0, 0), z)], []) == want

    def test_F_single_valued_in_bulk_pair(self, model, boundaries):
        # continuing z1 around z2 inside H returns the same value
        bd = boundaries[-1]
        alpha, beta = (1, 0), (0, 1)
        dual = bd.t_coeff(alpha) + bd.t_coeff(beta)
        z2 = 0.0 + 1.0j
        vals = []
        for ang in (0.0, 2 * math.pi):
            z1 = z2 + 0.1 * cmath.exp(1j * (0.3 + ang))
            vals.append(
                mixed_correlator(model, bd, dual, [(alpha, z1), (beta, z2)], [])
            )
        assert abs(vals[0] - vals[1]) <= 1e-12 * abs(vals[0])


class TestRegionExpansionOracles:
    """Independent scalar binomial-series oracles for the two region
    expansions of the one-bulk-one-boundary correlator, including the
    explicit inter-region phase factor."""

    def test_right_region_series(self, model, boundaries):
        from opetree.series import binomial

        for rho, bd in boundaries.items():
            alpha, k = (1, 1), 2
            s1 = model.frame_product(model.a_vec(alpha), bd.phi_abar_vec(alpha))
            s2 = model.frame_product(model.a_vec(alpha), bd.t_vec(k))
            s3 = model.frame_product(bd.phi_abar_vec(alpha), bd.t_vec(k))
            z1, x2 = 0.8 + 0.04j, -0.5  # Re z1 > x2, 2y << |zbar - x|
            w = z1.conjugate() - x2
            two_iy = z1 - z1.conjugate()
            series = sum(
                complex(binomial(s2, j)) * (two_iy / w) ** j for j in range(80)
            )
            want = (
                model.phase(bd.sigma_num(alpha))
                * cmath.exp(float(s1) * cmath.log(two_iy))
                * cmath.exp(float(s2 + s3) * cmath.log(w))
                * series
            )
            dual = bd.t_coeff(alpha) + k
            got = mixed_correlator(model, bd, dual, [(alpha, z1)], [(k, x2)])
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_left_region_series_and_phase(self, model, boundaries):
        from opetree.series import binomial

        for rho, bd in boundaries.items():
            alpha, k = (1, 1), 2
            beta = (k * bd.m_generator[0], k * bd.m_generator[1])
            s1 = model.frame_product(model.a_vec(alpha), bd.phi_abar_vec(alpha))
            s2 = model.frame_product(model.a_vec(alpha), bd.t_vec(k))
            s3 = model.frame_product(bd.phi_abar_vec(alpha), bd.t_vec(k))
            z1, x2 = -0.8 + 0.04j, 0.5  # x2 > Re z1
            w = x2 - z1.conjugate()
            two_iy = z1 - z1.conjugate()
            series = sum(
                complex(binomial(s2, j)) * (-two_iy / w) ** j for j in range(80)
            )
            exchange = phase_pi(
                lattice_pairing(alpha, beta) + bd.alpha_phi_beta(alpha, beta)
            )
            want = (
                model.phase(bd.sigma_num(alpha))
                * exchange
                * cmath.exp(float(s1) * cmath.log(two_iy))
                * cmath.exp(float(s2 + s3) * cmath.log(w))
                * series
            )
            dual = bd.t_coeff(alpha) + k
            got = mixed_correlator(model, bd, dual, [(alpha, z1)], [(k, x2)])
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_two_bulk_leading_terms_and_phase(self, model, boundaries):
        # deep-point leading-order checks of the two expansions of the
        # two-bulk correlator, with the bulk exchange phase
        for rho, bd in boundaries.items():
            alpha, beta = (1, 1), (2, -1)
            pref = model.phase(bd.sigma_num(alpha) + bd.sigma_num(beta))
            dual = bd.t_coeff(alpha) + bd.t_coeff(beta)
            # boundary channel: y1, y2 << |zbar12|; the y1 exponent is
            # (p alpha, phi pbar alpha): the separation factors keep their
            # exponents in the limit
            eps = 1e-4
            z1, z2 = 0.5 + eps * 1j, -0.5 + eps * 1j
            got = mixed_correlator(model, bd, dual, [(alpha, z1), (beta, z2)], [])
            zb12 = z1.conjugate() - z2.conjugate()
            lead = (
                pref
                * cmath.exp(
                    float(
                        model.frame_product(
                            model.a_vec(alpha), bd.phi_abar_vec(alpha)
                        )
                    )
                    * cmath.log(z1 - z1.conjugate())
                )
                * cmath.exp(
                    float(
                        model.frame_product(
                            model.a_vec(beta), bd.phi_abar_vec(beta)
                        )
                    )
                    * cmath.log(z2 - z2.conjugate())
                )
                * cmath.exp(
                    float(
                        model.frame_product(
                            tuple(
                                a + b
                                for a, b in zip(
                                    model.a_vec(alpha), bd.phi_abar_vec(alpha)
                                )
                            ),
                            tuple(
                                a + b
                                for a, b in zip(
                                    model.a_vec(beta), bd.phi_abar_vec(beta)
                                )
                            ),
                        )
                    )
                    * cmath.log(zb12)
                )
            )
            assert abs(got / lead - 1) < 50 * eps
            # bulk channel: |z12| << y2, with the exchange phase
            z2 = 1j
            z1 = z2 + eps * cmath.exp(0.4j)
            got2 = mixed_correlator(model, bd, dual, [(alpha, z1), (beta, z2)], [])
            phase = phase_pi(
                -model.frame_product(bd.phi_abar_vec(alpha), model.a_vec(beta))
            )
            total = tuple(a + b for a, b in zip(alpha, beta))
            z12 = z1 - z2
            zb12 = z1.conjugate() - z2.conjugate()
            aa = model.aa(alpha, beta)
            bb = model.abarbar(alpha, beta)
            lead2 = (
                pref
                * phase
                * abs(z12) ** float(2 * bb)
                * z12 ** int(aa - bb)
                * cmath.exp(
                    float(
                        model.frame_product(
                            model.a_vec(total), bd.phi_abar_vec(total)
                        )
                    )
                    * cmath.log(z2 - z2.conjugate())
                )
            )
            assert abs(got2 / lead2 - 1) < 50 * eps


class TestOpePrefactor:
    def test_reference_tree_shapes(self):
        assert format_tree(reference_tree(1, 1)) == "t(c1)o2"
        assert format_tree(reference_tree(2, 0)) == "t(c1)t(c2)"
        assert format_tree(reference_tree(0, 2)) == "o1o2"

    def test_bb_channel_constants(self, model, boundaries):
        # tau(c1 c2): eps(a,b) sigma(a+b); tau(c1) o tau(c2):
        # sigma(a) sigma(b) eta(ta,tb)
        d = model.D
        for rho, bd in boundaries.items():
            a, b = (1, 0), (1, 1)
            nu1 = ope_prefactor_num(bd, parse_tree("t(c1c2)"), [a, b])
            want1 = (
                (0 if epsilon_cocycle(a, b) == 1 else 1) * d + bd.sigma_num((2, 1))
            ) % (2 * d)
            assert nu1 == want1
            nu2 = ope_prefactor_num(bd, parse_tree("(t(c1))(t(c2))"), [a, b])
            want2 = (bd.sigma_num(a) + bd.sigma_num(b)) % (2 * d)
            assert nu2 == want2

    def test_bb3_channels(self, model, boundaries):
        for rho, bd in boundaries.items():
            a = (2, 1)
            nu1 = ope_prefactor_num(bd, parse_tree("t(c1)o2"), [a])
            assert nu1 == bd.sigma_num(a) % (2 * model.D)
            nu2 = ope_prefactor_num(bd, parse_tree("o2t(c1)"), [a])
            assert nu2 == bd.sigma_num(a) % (2 * model.D)  # eta trivial here

    @pytest.mark.parametrize(
        "tree",
        [
            parse_tree("c1c2"),  # closed leaves outside any Tau
            parse_tree("(12)3"),  # a plain tree
            Tau(OpenLeaf(2)),
            Tau(Tau(ClosedLeaf(1))),
            Node(Tau(ClosedLeaf(1)), ClosedLeaf(2)),
        ],
        ids=format_tree,
    )
    def test_rejects_trees_not_o_colored(self, boundaries, tree):
        with pytest.raises(LatticeError):
            ope_prefactor_num(boundaries[1], tree, [(1, 0), (0, 1), (1, 1)])

    def test_predicted_phases_are_the_exchange_factors(self):
        # The inter-region phases that consistency_sweep predicts from the
        # OPE prefactors, against the exchange factors that criterion 9
        # measures, as integers mod 2D: exp(i pi ((a, b) + (a, phi b)))
        # for (1,1) and exp(-i pi (phibar a, b)) for (2,0).
        box = range(-2, 3)
        tree_11, tree_11_swapped = parse_tree("t(c1)o2"), parse_tree("o2t(c1)")
        tree_20, tree_20_joined = parse_tree("(t(c1))(t(c2))"), parse_tree("t(c1c2)")
        combos = 0
        for rsq in (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 7)):
            model = NarainModel(rsq)
            d = model.D
            for rho in (1, -1):
                bd = build_boundary(model, rho)
                for alpha in itertools.product(box, box):
                    for k in box:
                        beta = (k * bd.m_generator[0], k * bd.m_generator[1])
                        got = ope_prefactor_num(bd, tree_11_swapped, [alpha])
                        got -= ope_prefactor_num(bd, tree_11, [alpha])
                        want = d * (lattice_pairing(alpha, beta) + bd.alpha_phi_beta(alpha, beta))
                        assert (got - want) % (2 * d) == 0, (rsq, rho, alpha, k)
                        combos += 1
                    for beta in itertools.product(box, box):
                        got = ope_prefactor_num(bd, tree_20_joined, [alpha, beta])
                        got -= ope_prefactor_num(bd, tree_20, [alpha, beta])
                        want = -model.frame_product_num(bd.phi_abar_vec(alpha), model.a_vec(beta))
                        assert (got - want) % (2 * d) == 0, (rsq, rho, alpha, beta)
                        combos += 1
        assert combos == 6000


class TestTreeExpansion:
    @pytest.mark.parametrize("order", [4.5, 4.0, True, "4"])
    def test_order_must_be_an_int(self, model, order):
        with pytest.raises(SeriesError, match="truncation order must be an int"):
            tree_expansion(model, parse_tree("(12)3"), [(1, 0), (0, 1), (-1, -1)], order)

    def test_repeated_colored_expansion_compares_no_trees(self, model, boundaries, monkeypatch):
        # doubling and a_coordinates are memoized and an expansion keeps
        # its coordinate system: once a colored tree is expanded, expanding,
        # evaluating and sampling it again looks no tree up by value.  The
        # memos are cleared first, as an equal tree cached by an earlier
        # test would be a key found by value.
        doubling.cache_clear()
        a_coordinates.cache_clear()
        latticecft.expansion_plan.cache_clear()
        series._pair_plan.cache_clear()
        e, charges, bd = parse_tree("t(c1c2)o3"), [(1, 0), (0, 1)], boundaries[1]
        tree_expansion(model, e, charges, 4, bd=bd, bdry_charges=[1])
        calls = []
        eq = Node.__eq__
        monkeypatch.setattr(Node, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
        texp = tree_expansion(model, e, charges, 4, bd=bd, bdry_charges=[1])
        texp.evaluate_raw(phi_embedding(nested_configuration_open(e), 2, 1))
        _sample_open_points(e, random.Random(5), 2)
        assert calls == []

    def test_new_exponents_reuse_the_tail_powers(self, model):
        # the powers of a pair tail depend on the tail alone: expanding a
        # tree again with other charges, so other exponents, builds new
        # binomial tails from the powers already kept
        series._binomial_tail_memo.cache_clear()
        series._powers_memo.cache_clear()
        e = parse_tree("(12)3")
        tree_expansion(model, e, [(1, 0), (0, 1), (-1, -1)], 6)
        binomial, powers = series._binomial_tail_memo.cache_info(), series._powers_memo.cache_info()
        assert powers.misses > 0
        tree_expansion(model, e, [(2, 0), (0, 1), (-2, -1)], 6)
        assert series._binomial_tail_memo.cache_info().misses > binomial.misses
        assert series._powers_memo.cache_info().misses == powers.misses

    def test_point_caches_tell_signed_zeros_apart(self, model, boundaries):
        # coordinate values, power tables and closed forms are kept per
        # point bits and charge set: a point and its twin whose zero part
        # has the other sign evaluate, in any order and again, as they do
        # with every cache cleared, and their coordinate values keep their
        # own zero signs
        bd = boundaries[-1]

        def fresh(fn, *args):
            latticecft._coordinate_values.cache_clear()
            series._shared_table.cache_clear()
            bd.prepare_mixed.cache_clear()
            return _outcome(fn, *args)

        def bits(values):
            return {v: (z.real.hex(), z.imag.hex()) for v, z in values.items()}

        plain = tree_expansion(model, parse_tree("(12)3"), [(1, 0), (0, 1), (-1, -1)], 6)
        colored = tree_expansion(model, parse_tree("t(c1)o2"), [(1, 1)], 8, bd=bd, bdry_charges=[1])
        dual = bd.t_coeff((1, 1)) + 1
        cases = [
            (plain, [0.5 + 0.5j, -0.5 + 0.25j, 2 + 0j], [0.5 + 0.5j, -0.5 + 0.25j, complex(2, -0.0)]),
            (colored, phi_embedding((0.5j, 0.0), 1, 1), phi_embedding((0.5j, -0.0), 1, 1)),
        ]
        for texp, point, twin in cases:
            calls = [(texp.evaluate_raw, pt) for pt in (point, twin)] + [(texp.evaluate, pt) for pt in (point, twin)]
            if texp is colored:
                calls += [(mixed_correlator, model, bd, dual, [((1, 1), pt[0])], [(1, pt[2])]) for pt in (point, twin)]
            want = [fresh(*call) for call in calls]
            values = [bits(texp.coordinate_values(pt)) for pt in (point, twin)]
            latticecft._coordinate_values.cache_clear()
            assert values == [bits(texp.coordinate_values(pt)) for pt in (point, twin)]
            assert values[0] != values[1]
            for step in (1, -1, 1):
                assert [_outcome(*call) for call in calls[::step]] == want[::step]
            # a caller changing its values leaves the cache intact
            texp.coordinate_values(point).clear()
            assert bits(texp.coordinate_values(point)) == values[0]
        for x in (0.0, -0.0):
            args = (model, bd, dual, [((1, 1), 0.5j)], [(1, x)])
            assert _outcome(mixed_correlator, *args) == _outcome(_per_call_mixed, *args)

    def test_coordinate_values_cache_is_bounded(self, model):
        texp = tree_expansion(model, parse_tree("(12)3"), [(1, 0), (0, 1), (-1, -1)], 4)
        point = [0.31 + 0.1j, 0.3 + 0.12j, -0.2 + 0.4j]
        want = texp.coordinate_values(point)
        latticecft._coordinate_values.cache_clear()
        for n in range(4100):
            texp.coordinate_values([p + n for p in point])
        assert latticecft._coordinate_values.cache_info()[2:] == (4096, 4096)
        assert [texp.coordinate_values(point) for _ in range(2)] == [want, want]
        assert latticecft._coordinate_values.cache_info()[:2] == (1, 4101)

    def test_two_point_closed_form_no_zeta(self, model):
        # r = 2: no edge variables; the expansion is the closed form
        charges = [(1, 0), (0, 1)]
        texp = tree_expansion(model, parse_tree("12"), charges, order=10)
        assert all(
            not any(Fraction(q) for v, q in exps.items() if v.startswith("ze"))
            for exps, _, _ in texp.series.terms()
        )
        pt = (0.9 + 0.3j, -0.2 - 0.1j)
        got = texp.evaluate(pt)
        want = bulk_correlator(model, (1, 1), list(zip(charges, pt)))
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_bb3_leading_terms(self, model, boundaries):
        # leading coefficients match the two boundary OPE channels
        for rho, bd in boundaries.items():
            alpha = (1, 1)
            k = 2
            e1 = tree_expansion(
                model, parse_tree("t(c1)o2"), [alpha], 6, bd=bd, bdry_charges=[k]
            )
            s1 = model.frame_product(model.a_vec(alpha), bd.phi_abar_vec(alpha))
            t_ab = model.frame_product(
                tuple(
                    x + y
                    for x, y in zip(model.a_vec(alpha), bd.phi_abar_vec(alpha))
                ),
                bd.t_vec(k),
            )
            lead = {"xA": s1 + t_ab, "ze0": s1}
            got = coefficient(e1.series, lead)
            assert abs(got - 1) < 1e-13
            ref = _FractionBoundary(bd)
            assert e1.prefactor == phase_pi(
                ref.sigma(alpha) + ref.eta(bd.t_coeff(alpha), k)
            )
            e2 = tree_expansion(
                model, parse_tree("o2t(c1)"), [alpha], 6, bd=bd, bdry_charges=[k]
            )
            got2 = coefficient(e2.series, lead)
            assert abs(got2 - 1) < 1e-13
            assert e2.prefactor == phase_pi(
                ref.sigma(alpha) + ref.eta(k, bd.t_coeff(alpha))
            )

    def test_non_integer_charge_raises(self, model, boundaries):
        bd = boundaries[1]
        with pytest.raises(LatticeError, match="integer pair"):
            tree_expansion(model, parse_tree("12"), [(1.5, 0), (-1, 0)], 2)
        with pytest.raises(LatticeError, match="integer pair"):
            tree_expansion(model, parse_tree("t(c1)o2"), [(Fraction(1, 2), 0)], 2, bd=bd, bdry_charges=[1])
        tree = parse_tree("(12)3")
        want = tree_expansion(model, tree, [(1, 0), (0, 1), (-1, 1)], 2)
        got = tree_expansion(model, tree, [(1.0, 0), (0, Fraction(1)), (-1, 1)], 2)
        point = [0.31 + 0.1j, 0.3 + 0.12j, -0.2 + 0.4j]
        assert got.evaluate(point) == want.evaluate(point)
        assert got.series.n_terms() == want.series.n_terms() > 1

    @pytest.mark.parametrize(
        "tree, charges, bdry, with_bd, error, message",
        [
            (parse_tree("c1c2"), [(1, 0), (0, 1)], [], True, LatticeError, "must be plain or o-colored"),
            (parse_tree("c1c2"), [(1, 0), (0, 1)], [], False, LatticeError, "must be plain or o-colored"),
            (parse_tree("t(c1)o2"), [(1, 0)], [1], False, LatticeError, "needs boundary data"),
            (parse_tree("12"), [(1, 0), (0, 1)], [1], False, LatticeError, "charge count mismatch"),
            (Node(Tau(Leaf(1)), Leaf(2)), [(1, 0), (0, 1)], [], False, TreeError, "Tau child must be c-colored"),
        ],
        ids=["c-colored-bd", "c-colored", "o-colored-no-bd", "plain-bdry-charges", "tau-over-plain"],
    )
    def test_tree_and_data_mismatch_raises(self, model, boundaries, tree, charges, bdry, with_bd, error, message):
        bd = boundaries[1] if with_bd else None
        with pytest.raises(error, match=message):
            tree_expansion(model, tree, charges, 4, bd=bd, bdry_charges=bdry)

    @pytest.mark.parametrize(
        "tree, charges, bdry",
        [("t(c1)o2", [(1, 0)], [1]), ("(12)3", [(1, 0), (0, 1), (-1, 1)], [])],
    )
    def test_other_model_boundary_data_raises(self, boundaries, tree, charges, bdry):
        # the boundary data of one model never expands a tree of another
        model3, e = NarainModel(3), parse_tree(tree)
        with pytest.raises(LatticeError, match=r"boundary data for R\^2 = 2, not 3"):
            tree_expansion(model3, e, charges, 4, bd=boundaries[1], bdry_charges=bdry)

    def test_plain_tree_needs_no_boundary_data(self, model, boundaries):
        tree, charges = parse_tree("(12)3"), [(1, 0), (0, 1), (-1, 1)]
        want = tree_expansion(model, tree, charges, 4)
        assert tree_expansion(model, tree, charges, 4, bd=boundaries[1]).series.terms() == want.series.terms()

    def test_uncertifiable_tree_raises(self, model):
        # no plain tree with distinct leaves fails on the lattice products,
        # but charge mismatch must raise
        with pytest.raises(LatticeError):
            tree_expansion(model, parse_tree("12"), [(1, 0)], 4)

    def test_single_leaf_trees_raise_lattice_error(self, model, boundaries, monkeypatch):
        # one leaf to expand has no pair product; the error names the tree
        # and comes before any coordinate system is built
        import opetree.latticecft as lc

        def no_coords(*args, **kwargs):
            raise AssertionError("coordinates built for a single-leaf tree")

        monkeypatch.setattr(lc, "a_coordinates", no_coords)
        monkeypatch.setattr(lc, "doubling", no_coords)
        with pytest.raises(LatticeError, match=r"tree 1 has one leaf"):
            tree_expansion(model, parse_tree("1"), [(1, 0)], 4)
        with pytest.raises(LatticeError, match=r"tree o1 doubles to one leaf"):
            tree_expansion(model, parse_tree("o1"), [], 4, bd=boundaries[1], bdry_charges=[1])
        # one bulk leaf doubles to two leaves and still expands
        monkeypatch.undo()
        texp = tree_expansion(model, parse_tree("t(c1)"), [(1, 0)], 4, bd=boundaries[1])
        assert texp.series.n_terms() == 1


def _series_bits(s):
    """Sector keys by repr, in order, and each tail's keys and coefficient bits."""
    return repr(list(s.sectors)), [[(k, struct.pack("<dd", c.real, c.imag)) for k, c in t.items()] for t in s.sectors.values()]


def _charge_frames(model, bd, charges, bdry_charges):
    """tree_expansion's (frames, conjugate) parts: the doubled frames with
    boundary data, else left movers and conjugated right movers."""
    if bd is not None:
        return [(latticecft._doubled_charge_frames(bd, charges, bdry_charges), False)]
    return [({i: vec(a) for i, a in enumerate(charges, 1)}, conj) for vec, conj in ((model.a_vec, False), (model.abar_vec, True))]


def _generic_expansion(model, bd, e, charges, bdry_charges, order):
    """tree_expansion's coordinates, series, negative pairs and factors
    through ``series.expand`` of a PowerProduct of Fraction frame products."""
    cs = a_coordinates(e if bd is None else doubling(e))
    pairs = list(itertools.combinations(latticecft.leaf_order(cs.tree), 2))
    expanded = []
    for frames, conj in _charge_frames(model, bd, charges, bdry_charges):
        diffs = [((k, l), model.frame_product(frames[k], frames[l])) for k, l in pairs]
        f = series.PowerProduct(diffs=tuple((pair, q) for pair, q in diffs if q != 0))
        expanded.append(series.expand(cs, f, order, conjugate=conj))
    factors = [ex.series for ex in expanded]
    product = factors[0] if bd is not None else factors[0] * factors[1]
    return cs, product, [ex.negative_pairs for ex in expanded], () if bd is not None else factors


class TestExpansionPlan:
    TREES = ["t(c1)o2", "o2t(c1)", "(t(c1))(t(c2))", "t(c1c2)", "t(c1c2)o3", "(12)3", "((12)3)4", "1(2(34))"]

    def test_plan_is_bit_identical_to_generic_expand(self):
        # all-zero charges, two seeded charge sets and the first set with a
        # zero pair exponent (that pair is left out), on two models and both
        # reflections, at orders up to 30 on trees of at most 3 leaves
        rng = random.Random(31)
        box = list(itertools.product(range(-2, 3), repeat=2))
        for rsq, rho in itertools.product((Fraction(2), Fraction(5, 7)), (1, -1)):
            model = NarainModel(rsq)
            bd = build_boundary(model, rho)
            for text in self.TREES:
                e = parse_tree(text)
                r, s, color = latticecft.validate_colored(e)
                if color == "plain" and rho == -1:
                    continue  # a plain tree reads no boundary data
                tbd = bd if color == "o" else None
                sets = [([(0, 0)] * r, [0] * s)]
                sets += [([rng.choice(box) for _ in range(r)], [rng.randint(-2, 2) for _ in range(s)]) for _ in range(2)]
                sets += [
                    next(
                        (list(c), list(b))
                        for c in itertools.product(box[1:], repeat=r)
                        for b in itertools.product(range(1, 3), repeat=s)
                        if any(
                            model.frame_product_num(f[k], f[l]) == 0
                            for f, _ in _charge_frames(model, tbd, c, b)
                            for k, l in itertools.combinations(sorted(f), 2)
                        )
                    )
                ]
                n = 2 * r + s if tbd else r
                for order in (0, 1, 2, 6, 14) + ((30,) if n <= 3 else ()):
                    for charges, bdry in sets:
                        texp = tree_expansion(model, e, charges, order, bd=tbd, bdry_charges=bdry)
                        cs, want, negative, factors = _generic_expansion(model, tbd, e, charges, bdry, order)
                        assert negative == [()] * len(negative)
                        assert texp.coords is cs
                        assert _series_bits(texp.series) == _series_bits(want)
                        assert [_series_bits(f) for f in texp.factors] == [_series_bits(f) for f in factors]
                        keys = list(texp.series.sectors)
                        assert all(type(q) is Fraction for _, ungraded, base in keys for q in [q for _, q in ungraded] + list(base))

    def test_errors_keep_text_and_precedence_once_planned(self, model, boundaries):
        # each error, and which of two comes first, is the same on a first
        # call and once plans exist for the tree at orders 4 and 1: 4.0 and
        # True hash and compare equal to 4 and 1, so the order is checked
        # before a plan is looked up
        bd, other = boundaries[1], build_boundary(NarainModel(3), 1)
        t11, plain = parse_tree("t(c1)o2"), parse_tree("(12)3")
        ok = {t11: ([(1, 0)], bd, [1]), plain: ([(1, 0), (0, 1), (-1, 1)], None, [])}
        cases = [
            (plain, ok[plain][0], 4.0, None, [], "truncation order must be an int, got 4.0"),
            (plain, ok[plain][0], True, None, [], "truncation order must be an int, got True"),
            (t11, [(1, 0)], "4", bd, [1], "truncation order must be an int, got '4'"),
            (t11, [(1, 0)], True, bd, [1], "truncation order must be an int, got True"),
            (t11, [(1, 0)], -1, bd, [1], "truncation order must be >= 0, got -1"),
            (parse_tree("c1c2"), [(1, 0), (0, 1)], 4.0, bd, [], "expansion tree must be plain or o-colored"),
            (t11, [(1, 0)], 4.0, None, [1], "colored expansion needs boundary data"),
            (t11, [(1, 0)], 4, None, [1, 2], "colored expansion needs boundary data"),
            (t11, [(1, 0)], 4.0, bd, [1, 2], "charge count mismatch"),
            (plain, ok[plain][0], 4, None, [1], "charge count mismatch"),
            (plain, [(1, 0), (0.5, 1), (-1, 1)], 4.0, None, [1], "must be an integer pair"),
            (t11, [(1, 0)], -1, bd, [1.5], r"boundary charges must be integers, got \[1.5\]"),
            (t11, [(0.5, 0)], 4, other, [1], r"boundary data for R\^2 = 3, not 2"),
            (EMPTY, [(1, 0)], 4, None, [], "charge count mismatch"),
            (EMPTY, [], 4, None, [], "needs r >= 2, got r = 0"),
        ]

        def outcomes():
            out = []
            for e, charges, order, cbd, bdry, message in cases:
                with pytest.raises((LatticeError, SeriesError, TreeError), match=message) as err:
                    tree_expansion(model, e, charges, order, bd=cbd, bdry_charges=bdry)
                out.append((type(err.value), str(err.value)))
            return out

        def expansions():
            return [
                _series_bits(tree_expansion(model, e, charges, order, bd=cbd, bdry_charges=bdry).series)
                for e, (charges, cbd, bdry) in ok.items()
                for order in (4, 1)
            ]

        def clear():
            latticecft.expansion_plan.cache_clear()
            series._pair_plan.cache_clear()

        clear()
        want = expansions()
        clear()
        first = outcomes()  # these calls meet no plan
        assert expansions() == want  # and leave none behind
        assert outcomes() == first

    def test_returned_series_do_not_reach_a_later_expansion(self, model, boundaries):
        # the plan and the memos hold no series: changing every tail of an
        # expansion in place leaves a later expansion of the same inputs as
        # it was; a unit-only colored product (all-zero charges) included
        bd = boundaries[-1]
        calls = [
            (parse_tree("(12)3"), [(1, 0), (0, 1), (-1, 1)], None, []),
            (parse_tree("t(c1c2)"), [(1, 2), (-1, 0)], bd, []),
            (parse_tree("t(c1)o2"), [(1, 1)], bd, [2]),
            (parse_tree("t(c1)o2"), [(0, 0)], bd, [0]),
        ]
        for e, charges, cbd, bdry in calls:
            want = tree_expansion(model, e, charges, 6, bd=cbd, bdry_charges=bdry)
            wants = [_series_bits(s) for s in (want.series, *want.factors)]
            for _ in range(2):
                texp = tree_expansion(model, e, charges, 6, bd=cbd, bdry_charges=bdry)
                assert [_series_bits(s) for s in (texp.series, *texp.factors)] == wants
                for s in (texp.series, *texp.factors):
                    for tail in s.sectors.values():
                        for k in tail:
                            tail[k] = -3 * tail[k]
                        tail[10**9] = 1j
                    s.sectors.clear()

    def test_plans_hold_no_series(self, model, boundaries):
        # a plan is charge-independent and small: it holds no GenSeries (a
        # bulk series is megabytes) and no expansion
        for text, charges, bd, bdry in [
            ("((12)3)4", [(1, 0), (0, 1), (-1, 1), (0, -2)], None, []),
            ("t(c1c2)o3", [(1, 0), (0, 1)], boundaries[1], [1]),
        ]:
            e = parse_tree(text)
            tree_expansion(model, e, charges, 6, bd=bd, bdry_charges=bdry)
            plan = latticecft.expansion_plan(e)
            seen, todo = [], [plan] + [series._pair_plan(plan[3].tree, 6, conj) for conj in (False, True)]
            while todo:
                x = todo.pop()
                assert not isinstance(x, (series.GenSeries, series.ExpandedProduct, latticecft.TreeExpansion))
                seen.append(x)
                if isinstance(x, dict):
                    todo += list(x.keys()) + list(x.values())
                elif isinstance(x, (tuple, list)):
                    todo += list(x)
                elif hasattr(x, "_fields"):
                    todo += [getattr(x, f) for f in x._fields]
            assert len(seen) > 20


class TestConsistency:
    def test_boundary_11_and_20(self, model, boundaries):
        for rho, bd in boundaries.items():
            alpha, beta = (1, 1), (0, 1)
            rep = expansion_consistency_check(
                model,
                [parse_tree("t(c1)o2"), parse_tree("o2t(c1)")],
                [alpha],
                order=25,
                tol=1e-6,
                n_points=6,
                seed=17,
                bd=bd,
                bdry_charges=[bd.t_coeff(beta)],
            )
            assert rep.passed, rep.text()
            rep2 = expansion_consistency_check(
                model,
                [parse_tree("(t(c1))(t(c2))"), parse_tree("t(c1c2)")],
                [alpha, beta],
                order=25,
                tol=1e-6,
                n_points=6,
                seed=19,
                bd=bd,
            )
            assert rep2.passed, rep2.text()

    def test_bulk_three_trees(self, model):
        charges = [(1, 0), (0, 1), (-1, 1), (1, -1)]
        rep = expansion_consistency_check(
            model,
            [parse_tree("1(2(34))"), parse_tree("(12)(34)"), parse_tree("((12)3)4")],
            charges,
            order=25,
            tol=1e-6,
            n_points=4,
            seed=23,
        )
        assert rep.passed, rep.text()

    def test_sweep_rejects_other_model(self, boundaries):
        trees = [parse_tree("t(c1)o2"), parse_tree("o2t(c1)")]
        with pytest.raises(LatticeError, match=r"boundary data for R\^2 = 2, not 3"):
            consistency_sweep(
                NarainModel(3), trees, [([(1, 1)], [1])], 4, [[], []], [None, None], bd=boundaries[1]
            )

    def test_errors_decrease_with_order(self, model, boundaries):
        bd = boundaries[-1]
        alpha, beta = (1, 1), (0, 1)
        errs = {}
        for order in (10, 20, 30):
            rep = expansion_consistency_check(
                model,
                [parse_tree("(t(c1))(t(c2))")],
                [alpha, beta],
                order=order,
                tol=1.0,
                n_points=8,
                seed=29,
                bd=bd,
            )
            errs[order] = rep.max_rel_err
        assert errs[20] <= errs[10] * 1.1
        assert errs[30] <= errs[20] * 1.1

    def test_truncation_dominates_near_the_margin(self):
        # A sampler point of certificate margin 0.479 (criterion 9 draws at
        # margin >= 0.45) where R^2 = 3, rho = +1 and the charges (0,2),
        # (0,2) make N = 30 far too low on t(c1c2): the relative error is
        # about 9 there and falls to ~4e-12 at N = 80, so the gap is
        # truncation, not a branch choice.
        model = NarainModel(Fraction(3))
        bd = build_boundary(model, 1)
        point = (
            0.9248007496166556 + 0.08164621604528477j,
            0.9166560194572417 + 0.05447271028226874j,
        )
        charges = [(0, 2), (0, 2)]
        dual = sum(bd.t_coeff(a) for a in charges)
        want = mixed_correlator(model, bd, dual, list(zip(charges, point)), [])
        errs = []
        for order in (30, 40, 60, 80):
            texp = tree_expansion(model, parse_tree("t(c1c2)"), charges, order, bd=bd)
            got = texp.evaluate(phi_embedding(point, 2, 0))
            errs.append(abs(got - want) / abs(want))
        assert errs[0] > 1.0
        assert all(later < earlier for earlier, later in zip(errs, errs[1:]))
        assert errs[-1] < 1e-10

    def test_sweep_phases_need_no_points(self, model, boundaries):
        # the phases come from the base points alone; a colored sweep needs
        # boundary data
        bd = boundaries[-1]
        trees = [parse_tree("(t(c1))(t(c2))"), parse_tree("t(c1c2)")]
        bases = [nested_configuration_open(t) for t in trees]
        points = [_sample_open_points(t, random.Random(3), 2) for t in trees]
        sets = [([(1, 1), (0, 1)], []), ([(2, -1), (1, 0)], [])]
        with_points = consistency_sweep(model, trees, sets, 12, points, bases, bd)
        without = consistency_sweep(model, trees, sets, 12, [[], []], bases, bd)
        for (errs, measured, predicted), (none, measured2, predicted2) in zip(with_points, without):
            assert [len(e) for e in errs] == [2, 2] and none == [[], []]
            assert measured == measured2 and predicted == predicted2
            assert abs(measured[0] - predicted[0]) <= 1e-10
        with pytest.raises(LatticeError, match="colored expansion needs boundary data"):
            consistency_sweep(model, trees, sets, 12, [[], []], bases)

    def test_sweeps_need_trees(self, model):
        with pytest.raises(LatticeError, match="no trees to compare"):
            expansion_consistency_check(model, [], [(1, 0)], 4, 1e-6, 1, 0)
        with pytest.raises(LatticeError, match="no trees to compare"):
            consistency_sweep(model, [], [([(1, 0)], [])], 4, [], [])
        # one point list and one base point per tree, none cut off
        trees = [parse_tree(t) for t in ("1(23)", "(12)3", "(13)2")]
        bases = [nested_configuration(t) for t in trees]
        sets = [([(1, 0), (-1, 0), (0, 0)], [])]
        for points, base in (([[]], bases), ([[]] * 3, bases[:2]), ([[]] * 4, bases)):
            with pytest.raises(LatticeError, match="3 trees need as many point lists and base"):
                consistency_sweep(model, trees, sets, 4, points, base)

    def test_sample_counts_below_one(self, model):
        trees, pair = [parse_tree("12")], [(1, 0), (-1, 0)]
        checks = [
            ("n_points", lambda n: expansion_consistency_check(model, trees, pair, 4, 1e-6, n, 0)),
            ("n_samples", lambda n: single_valuedness_check(model, pair, n, 0)),
            ("n_samples", lambda n: skew_symmetry_check(model, [pair], n, 0)),
        ]
        for name, check in checks:
            for n in (0, -1):
                with pytest.raises(LatticeError, match=f"{name} must be at least 1, got {n}"):
                    check(n)
            assert check(1).samples

    def test_determinism(self, model, boundaries):
        bd = boundaries[1]
        kwargs = dict(order=12, tol=1e-3, n_points=3, seed=31, bd=bd, bdry_charges=[1])
        r1 = expansion_consistency_check(
            model, [parse_tree("t(c1)o2")], [(1, 0)], **kwargs
        )
        r2 = expansion_consistency_check(
            model, [parse_tree("t(c1)o2")], [(1, 0)], **kwargs
        )
        assert r1.to_obj() == r2.to_obj()


class TestSkewAndLoops:
    def test_equal_charges_trivial_ratio(self, model):
        rep = skew_symmetry_check(model, [((1, 1), (1, 1))], n_samples=4, seed=37)
        assert rep.passed
        assert rep.samples[0]["epsilon_ratio"] == 1
        assert rep.samples[0]["pairing_parity"] == 0

    def test_basis_pair_ratio(self, model):
        rep = skew_symmetry_check(model, [((1, 0), (0, 1))], n_samples=4, seed=41)
        assert rep.passed
        assert rep.samples[0]["epsilon_ratio"] == -1
        assert rep.samples[0]["pairing_parity"] == 1

    def test_random_pairs(self, model):
        rng = random.Random(43)
        pairs = [
            ((rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(-2, 2), rng.randint(-2, 2)))
            for _ in range(10)
        ]
        rep = skew_symmetry_check(model, pairs, n_samples=10, seed=47)
        assert rep.passed, rep.text()

    @pytest.mark.parametrize("charges", [[(0, 0)], []])
    def test_single_valuedness_needs_two_charges(self, model, charges):
        with pytest.raises(LatticeError, match="a loop needs at least two charges"):
            single_valuedness_check(model, charges, 1, 0)

    def test_single_valuedness(self, model):
        rep = single_valuedness_check(
            model, [(1, 0), (0, 1), (-1, 1), (1, -1)], n_samples=4, seed=53
        )
        assert rep.passed, rep.text()


class TestRegions:
    def test_default_seed_report(self):
        rep = regions_check(1, 1000)
        assert rep.name == "regions" and rep.passed
        assert rep.params == {"tree": "1(2(3(45)))", "points": 1000, "seed": 1}
        assert rep.samples == [{"mismatches": 0, "two_comb_reduction": True}]
        assert rep.max_rel_err == 0.0 and rep.tolerance == 0.0

    def test_point_count_checked(self):
        with pytest.raises(LatticeError, match="n_points must be at least 1, got 0"):
            regions_check(1, 0)
