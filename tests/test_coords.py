import cmath
import random
from fractions import Fraction

import pytest

from opetree import coords
from opetree.coords import (
    CertificateError,
    CoordError,
    RegionMembership,
    a_coordinates,
    admissibility_certificate,
    nested_configuration,
    nested_configuration_open,
    on_cut,
    pair_difference,
    phi_embedding,
    psi,
    psi_inverse,
    region_membership,
    region_membership_open,
    validate_halfplane_point,
)
from opetree.series import PowerProduct, expand
from opetree.trees import TreeError, all_colored_trees, all_trees, doubling, leaf_order, parse_tree
from tests.test_trees import random_tree


def poly_equal(p, q):
    return {k: v for k, v in p.items() if v} == {k: v for k, v in q.items() if v}


class TestCoordinateSystem:
    def test_five_leaf_coordinate_functions(self):
        cs = a_coordinates(parse_tree("(23)((15)4)"))
        desc = cs.describe()
        assert desc["zA"] == "z4"
        assert desc["xA"] == "z3 - z4"
        assert desc["ze0"] == "(z2 - z3) / (z3 - z4)"
        assert desc["ze1"] == "(z5 - z4) / (z3 - z4)"
        assert desc["ze2"] == "(z1 - z5) / (z5 - z4)"

    def test_five_leaf_polynomial_inverse(self):
        # (z1..z5) = (x zc(1+zb) + zA, (1+za)x + zA, x + zA, zA, zc x + zA)
        # with edge names ze0 = a, ze1 = c, ze2 = b
        cs = a_coordinates(parse_tree("(23)((15)4)"))
        q = cs.q_polys
        assert poly_equal(q[1], {(0, 1, 0): 1, (0, 1, 1): 1})
        assert poly_equal(q[2], {(0, 0, 0): 1, (1, 0, 0): 1})
        assert poly_equal(q[3], {(0, 0, 0): 1})
        assert poly_equal(q[4], {})
        assert poly_equal(q[5], {(0, 1, 0): 1})

    def test_two_leaf_case(self):
        cs = a_coordinates(parse_tree("12"))
        assert cs.n_edges == 0
        cv = psi(cs, [1, 0])
        assert cv.x == 1 and cv.z == 0

    def test_r1_rejected(self):
        with pytest.raises(TreeError, match=r"tree metadata needs r >= 2, got r = 1"):
            a_coordinates(parse_tree("1"))

    def test_root_identity_zv_equals_x_times_path(self):
        # z_i - z_j = x_A (Q_i - Q_j) as exact polynomial identity, r <= 6
        rng = random.Random(2)
        for _ in range(60):
            r = rng.randint(2, 6)
            t = random_tree(rng, range(1, r + 1))
            cs = a_coordinates(t)
            pt = _random_point(rng, r)
            cv = psi(cs, pt)
            from opetree.coords import eval_poly

            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if i == j:
                        continue
                    lhs = pt[i - 1] - pt[j - 1]
                    diff = dict(cs.q_polys[i])
                    for e, c in cs.q_polys[j].items():
                        diff[e] = diff.get(e, 0) - c
                    rhs = cv.x * eval_poly(diff, cv.zeta)
                    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_vertex_difference_polynomial_identity(self):
        # symbolic: for every internal vertex v, Q_{L(v)} - Q_{R(v)} equals
        # the root-path monomial of v, for all labeled trees with r <= 5
        # and all shapes at r = 6
        def check(t):
            cs = a_coordinates(t)
            for v in ((),) + cs.edges:
                diff = dict(cs.q_polys[cs.left_leaf[v]])
                for e, c in cs.q_polys[cs.right_leaf[v]].items():
                    diff[e] = diff.get(e, 0) - c
                diff = {k: c for k, c in diff.items() if c}
                path = [0] * cs.n_edges
                for cut in range(1, len(v) + 1):
                    path[cs.edges.index(v[:cut])] += 1
                assert diff == {tuple(path): 1}, (t, v)

        for r in range(2, 6):
            for t in all_trees(range(1, r + 1)):
                check(t)
        rng = random.Random(77)
        for _ in range(300):
            check(random_tree(rng, range(1, 7)))


class TestTreeData:
    def test_seven_leaf_vertex_data(self):
        cs = a_coordinates(parse_tree("(5(23))((17)(64))"))
        assert cs.r == 7
        assert len(cs.left_leaf) == len(cs.right_leaf) == 6
        assert cs.edges == (("l",), ("l", "r"), ("r",), ("r", "l"), ("r", "r"))
        assert cs.left_leaf[()] == 3
        assert cs.right_leaf[()] == 4

    def test_counts(self):
        rng = random.Random(9)
        for _ in range(50):
            r = rng.randint(2, 8)
            cs = a_coordinates(random_tree(rng, range(1, r + 1)))
            assert len(cs.left_leaf) == r - 1
            assert len(cs.edges) == r - 2
            assert set(cs.edges) | {()} == set(cs.left_leaf)
            assert list(cs.q_polys) == leaf_order(cs.tree)


def _random_point(rng, r):
    while True:
        pt = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(r)]
        ok = all(
            abs(pt[i] - pt[j]) > 1e-3
            for i in range(r)
            for j in range(i + 1, r)
        )
        if ok:
            return pt


class TestPsi:
    def test_five_leaf_numeric_values(self):
        cv = psi(parse_tree("(23)((15)4)"), [4, 3, 2, 0, 1])
        assert cv.x == 2 and cv.z == 0
        assert cv.zeta == (0.5 + 0j, 0.5 + 0j, 3 + 0j)  # (a, c, b)

    def test_coincident_points(self):
        with pytest.raises(CoordError):
            psi(parse_tree("12"), [1, 1])

    def test_round_trip(self):
        rng = random.Random(4)
        trees = [random_tree(rng, range(1, rng.randint(3, 8))) for _ in range(50)]
        count = 0
        for t in trees:
            cs = a_coordinates(t)
            for _ in range(20):
                pt = _random_point(rng, cs.r)
                cv = psi(cs, pt)
                back = psi_inverse(cs, cv)
                err = max(abs(a - b) for a, b in zip(pt, back))
                assert err <= 1e-12 * max(1.0, max(abs(z) for z in pt))
                count += 1
        assert count >= 1000


class TestPairDifference:
    def test_factored_pair_21(self):
        fac = pair_difference(parse_tree("(23)((15)4)"), 2, 1)
        assert fac.sign == 1
        assert fac.monomial == (0, 0, 0)
        assert fac.tail == {(1, 0, 0): 1, (0, 1, 0): -1, (0, 1, 1): -1}

    def test_root_pair_exact(self):
        rng = random.Random(6)
        for _ in range(50):
            r = rng.randint(2, 7)
            t = random_tree(rng, range(1, r + 1))
            cs = a_coordinates(t)
            i, j = cs.left_leaf[()], cs.right_leaf[()]
            fac = pair_difference(cs, i, j)
            assert fac.sign == 1
            assert not any(fac.monomial)
            assert fac.tail == {}

    def test_comb_structure(self):
        # z_2 - z_5 = z_25 with tail -z2 z3 z4 pattern on the comb
        comb = parse_tree("1(2(3(45)))")
        fac = pair_difference(comb, 2, 5)
        assert fac.sign == 1
        assert fac.tail == {}
        fac2 = pair_difference(comb, 2, 4)
        assert list(fac2.tail.values()) == [-1]

    def test_every_pair_factors(self):
        # a_coordinates factors every ordered pair with a unit sign, so no
        # certificate can fail on a pair that does not factor
        plain = [t for r in range(2, 6) for t in all_trees(range(1, r + 1))]
        doubled = [
            doubling(e)
            for r in range(3)
            for s in range(4)
            if 2 * r + s >= 2
            for e in all_colored_trees(r, s)
        ]
        for t in plain + doubled:
            cs = a_coordinates(t)
            labels = range(1, cs.r + 1)
            assert len(cs.pairs) == cs.r * (cs.r - 1)
            for i in labels:
                for j in labels:
                    if i != j:
                        fac = cs.pairs[i, j]
                        assert (fac.i, fac.j) == (i, j) and fac.sign in (1, -1)

    def test_no_factoring_per_point(self, monkeypatch):
        cs = a_coordinates(parse_tree("1(2(3(45)))"))
        calls = []
        factor = coords._factor_pair
        monkeypatch.setattr(coords, "_factor_pair", lambda *args: calls.append(args) or factor(*args))
        rng = random.Random(4)
        for _ in range(100):
            region_membership(cs, _random_point(rng, 5))
        expand(cs, PowerProduct(diffs=(((1, 2), Fraction(1, 2)), ((5, 3), -1))), 4)
        assert calls == []


class TestCertificate:
    def test_comb_all_small(self):
        comb = parse_tree("1(2(3(45)))")
        cert = admissibility_certificate(comb, [0.9, 0.9, 0.9])
        assert cert.admissible

    def test_comb_reduces_to_unit_radii(self):
        comb = parse_tree("1(2(3(45)))")
        assert not admissibility_certificate(comb, [1.01, 0.5, 0.5]).admissible
        assert admissibility_certificate(comb, [0.999, 0.999, 0.999]).admissible

    def test_two_comb_condition(self):
        # (1(23))(4(56)): admissible iff chains < 1 and p_l + p_r < 1
        t = parse_tree("(1(23))(4(56))")
        cs = a_coordinates(t)
        # the two edges meeting the root, by their paths
        root_edges = [cs.edges.index(("l",)), cs.edges.index(("r",))]
        vec = [0.4] * cs.n_edges
        for k in root_edges:
            vec[k] = 0.45
        assert admissibility_certificate(cs, vec).admissible
        for k in root_edges:
            vec[k] = 0.55
        assert not admissibility_certificate(cs, vec).admissible

    def test_r2_empty_radii(self):
        cert = admissibility_certificate(parse_tree("12"), [])
        assert cert.admissible and cert.margin == 1.0

    def test_monotone_under_shrinking(self):
        rng = random.Random(8)
        for _ in range(40):
            r = rng.randint(3, 6)
            t = random_tree(rng, range(1, r + 1))
            cs = a_coordinates(t)
            radii = [rng.uniform(0.05, 1.2) for _ in range(cs.n_edges)]
            cert = admissibility_certificate(cs, radii)
            if not cert.admissible:
                continue
            smaller = [p * rng.uniform(0.3, 1.0) for p in radii]
            assert admissibility_certificate(cs, smaller).admissible


class TestRegions:
    def test_comb_agreement_with_chain(self):
        # certificate accepts/rejects identically with the modulus chain
        comb = parse_tree("1(2(3(45)))")
        cs = a_coordinates(comb)
        rng = random.Random(10)
        agree = 0
        for _ in range(1000):
            pt = _random_point(rng, 5)
            chain = all(
                abs(pt[i] - pt[4]) > abs(pt[i + 1] - pt[4]) for i in range(3)
            )
            member = region_membership(cs, pt).in_ubar
            assert member == chain
            agree += 1
        assert agree == 1000

    def test_cut_separates_u_from_ubar(self):
        comb = parse_tree("1(2(34))")
        # positive real ratios: in U and Ubar
        pt = [8.0, 4.0, 2.0, 0.0]
        memb = region_membership(comb, pt)
        assert memb.in_ubar and memb.in_u
        # rotate z1 so the first ratio is negative real: still Ubar, not U
        pt2 = [-8.0 + 0j, 4.0, 2.0, 0.0]
        cv = psi(comb, pt2)
        assert on_cut(cv.zeta[0]) or cv.zeta[0].real < 0
        memb2 = region_membership(comb, pt2)
        assert memb2.in_ubar and not memb2.in_u

    def test_violating_order_not_member(self):
        comb = parse_tree("1(2(3(45)))")
        pt = [1.0, 10.0, 2.0, 1.5, 0.0]
        assert not region_membership(comb, pt).in_ubar


class TestOpenRegions:
    def test_one_bulk_one_boundary_domain(self):
        e = parse_tree("t(c1)o2")
        # Re z1 > x2 and 2 y1 < |zbar1 - x2|
        assert region_membership_open(e, [0.5 + 0.1j, -0.5]).in_ubar
        assert not region_membership_open(e, [0.5 + 2.0j, -0.5]).in_ubar

    def test_two_bulk_domain(self):
        e = parse_tree("t(c1c2)")
        z1, z2 = 0.1 + 0.5j, -0.1 + 0.5j
        lhs = abs(z1 - z2) / abs(z2 - z2.conjugate()) + abs(
            z1.conjugate() - z2.conjugate()
        ) / abs(z2 - z2.conjugate())
        assert lhs < 1
        assert region_membership_open(e, [z1, z2]).in_ubar
        z1b, z2b = 1.5 + 0.1j, -1.5 + 0.1j
        assert not region_membership_open(e, [z1b, z2b]).in_ubar

    def test_record_is_the_doubled_trees(self):
        e = parse_tree("(t(c1)o2)o3")
        pt = [0.5 + 0.1j, -0.5, -1.5]
        assert region_membership_open(e, pt) == region_membership(
            doubling(e), phi_embedding(pt, 1, 2)
        )
        # a lone boundary point has no coordinates: everything is its region
        assert region_membership_open(parse_tree("o1"), [0.0]) == RegionMembership(True, True, 1.0)

    def test_degenerate_single_tau(self):
        e = parse_tree("t(c1)")
        assert region_membership_open(e, [0.3 + 0.7j]).in_ubar

    def test_malformed_points(self):
        e = parse_tree("t(c1)o2")
        with pytest.raises(CoordError):
            region_membership_open(e, [0.5 - 0.1j, 0.0])  # lower half plane
        e2 = parse_tree("(t(c1)o2)o3")
        with pytest.raises(CoordError):
            region_membership_open(e2, [0.5 + 0.1j, -1.0, 0.0])  # x order

    def test_phi_lands_in_configuration_space(self):
        rng = random.Random(12)
        for _ in range(100):
            r, s = rng.randint(0, 3), rng.randint(0, 3)
            if r + s == 0:
                continue
            zs = [complex(rng.uniform(-1, 1), rng.uniform(0.05, 1)) for _ in range(r)]
            xs = sorted((rng.uniform(-1, 1) for _ in range(s)), reverse=True)
            if len(set(xs)) < s or len(set(zs)) < r:
                continue
            try:
                validate_halfplane_point(zs + xs, r, s)
            except CoordError:
                continue
            pt = phi_embedding(zs + xs, r, s)
            for i in range(len(pt)):
                for j in range(i + 1, len(pt)):
                    assert pt[i] != pt[j]


class TestBaseConfigurations:
    def test_bulk_base_in_region(self):
        rng = random.Random(14)
        for _ in range(60):
            r = rng.randint(2, 7)
            t = random_tree(rng, range(1, r + 1))
            pt = nested_configuration(t)
            memb = region_membership(t, pt)
            assert memb.in_ubar and memb.in_u
            assert memb.margin > 0.5

    def test_open_base_in_region(self):
        from opetree.trees import all_colored_trees

        for r in range(0, 4):
            for s in range(0, 4):
                if not 1 <= r + s <= 3:
                    continue
                for e in all_colored_trees(r, s):
                    pt = nested_configuration_open(e)
                    assert region_membership_open(e, pt).in_ubar
