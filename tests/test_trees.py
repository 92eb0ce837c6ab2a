import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetree.coords import a_coordinates, nested_configuration
from opetree.trees import (
    EMPTY,
    MAX_NESTING,
    ClosedLeaf,
    Leaf,
    Node,
    OpenLeaf,
    ParseError,
    Tau,
    TreeError,
    all_colored_trees,
    all_trees,
    compose,
    doubling,
    format_tree,
    leaf_order,
    map_leaves,
    parse_tree,
    permute,
    validate_colored,
    validate_tree,
)
from tests.oracles import all_shapes, doubled_compose, doubled_labels


def random_tree(rng, labels):
    labels = list(labels)
    if not labels:
        return EMPTY
    if len(labels) == 1:
        return Leaf(labels[0])
    k = rng.randint(1, len(labels) - 1)
    rng.shuffle(labels)
    return Node(random_tree(rng, labels[:k]), random_tree(rng, labels[k:]))


def _nest(depth, opener, inner):
    return opener * depth + inner + ")" * depth


C1, C2, O2, O3 = ClosedLeaf(1), ClosedLeaf(2), OpenLeaf(2), OpenLeaf(3)
THREE = "more than two juxtaposed subtrees; parenthesize"

# (id, text, tree) or (id, text, (exception type, message, position)); a
# TreeError from label validation has no position
PARSE_CASES = [
    ("bare-c-start", "c", (ParseError, "'c' must be followed by a label", 0)),
    ("bare-o-start", "o", (ParseError, "'o' must be followed by a label", 0)),
    ("bare-c-mid", "1c", (ParseError, "'c' must be followed by a label", 1)),
    ("bare-o-mid", "12 o", (ParseError, "'o' must be followed by a label", 3)),
    ("bare-o-in-tau", "t(o)", (ParseError, "'o' must be followed by a label", 2)),
    ("t-alone", "t", (ParseError, "unexpected character 't'", 0)),
    ("t-then-label", "tc1", (ParseError, "unexpected character 't'", 0)),
    ("t-space-paren", "t (c1)", (ParseError, "unexpected character 't'", 0)),
    ("t-trailing", "(1)t", (ParseError, "unexpected character 't'", 3)),
    # a prefixed digit run splits into leaves at the prefix's position,
    # a bare one into leaves at each digit's own position
    ("split-prefixed", "t(c12)o3", Node(Tau(Node(C1, C2)), O3)),
    ("split-closed-pos", "c1234", (ParseError, THREE, 0)),
    ("split-open-pos", "o1234", (ParseError, THREE, 0)),
    ("split-bare-pos", "1234", (ParseError, THREE, 3)),
    ("tab", "t(c1)\to2", Node(Tau(C1), O2)),
    ("tab-newline", "1\n(2\t3)", Node(Leaf(1), Node(Leaf(2), Leaf(3)))),
    ("tab-pos", "\t(1", (ParseError, "missing ')'", 3)),
    ("newline-pos", "1\t\n)", (ParseError, "expected a leaf or '('", 3)),
    ("fullwidth", "\uff11", Leaf(1)),
    ("fullwidth-split", "\uff11\uff12", Node(Leaf(1), Leaf(2))),
    ("superscript", "1\u00b2", (ParseError, "unexpected character '\u00b2'", 1)),
    ("superscript-after-c", "c\u00b2", (ParseError, "'c' must be followed by a label", 0)),
    ("missing-paren", "(c12", (ParseError, "missing ')'", 4)),
    ("missing-paren-tau", "t(c1", (ParseError, "missing ')' after Tau", 4)),
    ("paren-256", _nest(256, "(", "1"), Leaf(1)),
    ("paren-257", _nest(257, "(", "1"), (ParseError, "nesting deeper than 256", 256)),
    ("paren-255-tau", _nest(255, "(", "t(c1)"), Tau(C1)),
    ("paren-256-tau", _nest(256, "(", "t(c1)"), (ParseError, "nesting deeper than 256", 256)),
    ("tau-255-paren", "t(" + _nest(255, "(", "c1") + ")o2", Node(Tau(C1), O2)),
    ("tau-256-paren", "t(" + _nest(256, "(", "c1") + ")o2", (ParseError, "nesting deeper than 256", 257)),
    ("tau-256", _nest(256, "t(", "c1"), (TreeError, "nested Tau", None)),
    ("tau-257", _nest(257, "t(", "c1"), (ParseError, "nesting deeper than 256", 512)),
]


TAU_OVER_PLAIN = Node(Tau(Leaf(1)), Leaf(2))

# (id, call, message): every label, slot and permutation entry must be an int
NON_INT_CASES = [
    ("slot-float", lambda: compose(parse_tree("12"), 1.5, Leaf(1)), "slot must be an int, got 1.5"),
    ("slot-integral-float", lambda: compose(parse_tree("12"), 2.0, parse_tree("12")), "slot must be an int, got 2.0"),
    ("slot-bool", lambda: compose(parse_tree("12"), True, Leaf(1)), "slot must be an int, got True"),
    ("image-float", lambda: permute(parse_tree("12"), [2.0, 1.0]), "permutation entry must be an int, got 2.0"),
    ("key-float", lambda: permute(parse_tree("12"), {1.0: 2, 2: 1}), "permutation entry must be an int, got 1.0"),
    ("label-float", lambda: validate_tree(Node(Leaf(2.0), Leaf(True))), "leaf label must be an int, got 2.0"),
    ("label-bool", lambda: validate_tree(Node(Leaf(1), Leaf(True))), "leaf label must be an int, got True"),
    ("closed-label", lambda: validate_colored(Tau(ClosedLeaf(1.0))), "leaf label must be an int, got 1.0"),
    ("open-label", lambda: validate_colored(OpenLeaf(1.0)), "leaf label must be an int, got 1.0"),
]


class TestValidate:
    @pytest.mark.parametrize("r", range(5))
    def test_plain_trees_type_as_plain(self, r):
        for t in all_trees(range(1, r + 1)):  # r = 0 is EMPTY alone
            assert validate_colored(t) == (r, 0, "plain")
            assert validate_tree(t) == r

    @pytest.mark.parametrize(
        "check",
        [validate_tree, a_coordinates, nested_configuration, lambda t: permute(t, [2, 1])],
        ids=["validate_tree", "a_coordinates", "nested_configuration", "permute"],
    )
    def test_tau_over_plain_leaves_raises(self, check):
        with pytest.raises(TreeError, match="Tau child must be c-colored"):
            check(TAU_OVER_PLAIN)

    def test_mismatched_colors(self):
        with pytest.raises(TreeError, match="node joins mismatched colors 'o' and 'plain'"):
            validate_colored(Node(Tau(ClosedLeaf(1)), Leaf(2)))
        with pytest.raises(TreeError, match="o-colored tree where a plain tree is needed"):
            validate_tree(parse_tree("t(c1)o2"))

    @pytest.mark.parametrize(
        "call, message", [case[1:] for case in NON_INT_CASES], ids=[case[0] for case in NON_INT_CASES]
    )
    def test_non_integer_values_raise(self, call, message):
        with pytest.raises(TreeError) as err:
            call()
        assert str(err.value) == message


class TestParseFormat:
    def test_seven_leaf_word(self):
        t = parse_tree("(5(23))((17)(64))")
        assert format_tree(t) == "(5(23))((17)(64))"
        assert leaf_order(t) == [5, 2, 3, 1, 7, 6, 4]

    def test_single_leaf(self):
        assert parse_tree("1") == Leaf(1)
        assert format_tree(Leaf(1)) == "1"

    def test_empty(self):
        assert parse_tree("") is EMPTY
        assert format_tree(EMPTY) == ""

    def test_colored_five_leaf_word(self):
        t = parse_tree("(t(c2) o4)(t(c3 c1) o5)")
        assert t == Node(
            Node(Tau(ClosedLeaf(2)), OpenLeaf(4)),
            Node(Tau(Node(ClosedLeaf(3), ClosedLeaf(1))), OpenLeaf(5)),
        )
        assert validate_colored(t) == (3, 2, "o")

    @pytest.mark.parametrize(
        "text, expected", [case[1:] for case in PARSE_CASES], ids=[case[0] for case in PARSE_CASES]
    )
    def test_parse_table(self, text, expected):
        if not isinstance(expected, tuple):
            assert parse_tree(text) == expected
            return
        kind, message, position = expected
        with pytest.raises(kind) as err:
            parse_tree(text)
        assert type(err.value) is kind
        suffix = "" if position is None else f" (at position {position})"
        assert str(err.value) == message + suffix
        assert getattr(err.value, "position", None) == position

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_tree("(12")
        assert err.value.position >= 0

    def test_triple_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_tree("123")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(TreeError):
            parse_tree("1(12)")

    def test_open_label_order_violation(self):
        with pytest.raises(TreeError):
            parse_tree("o2o1")

    def test_multidigit_labels(self):
        text = "1(2(3(4(5(6(7(8(9(10 11)))))))))"
        t = parse_tree(text)
        assert validate_tree(t) == 11
        assert parse_tree(format_tree(t)) == t

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(10_000):
            r = rng.randint(0, 9)
            t = random_tree(rng, range(1, r + 1))
            assert parse_tree(format_tree(t)) == t

    def test_nesting_limit(self):
        deepest = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
        assert parse_tree(deepest) == Leaf(1)
        for depth in (MAX_NESTING + 1, 3000):
            with pytest.raises(ParseError) as err:
                parse_tree("(" * depth + "1" + ")" * depth)
            assert err.value.position == MAX_NESTING
            assert f"nesting deeper than {MAX_NESTING}" in str(err.value)
        # Tau counts as a level too
        with pytest.raises(ParseError) as err:
            parse_tree("t(" * 2000 + "c1" + ")" * 2000 + "o2")
        assert err.value.position == 2 * MAX_NESTING
        # a comb whose last leaves sit MAX_NESTING levels deep round-trips
        comb = Leaf(MAX_NESTING + 1)
        for label in range(MAX_NESTING, 0, -1):
            comb = Node(Leaf(label), comb)
        assert parse_tree(format_tree(comb)) == comb

    def test_round_trip_large_labels(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randint(10, 14)
            t = random_tree(rng, range(1, r + 1))
            assert parse_tree(format_tree(t)) == t


class TestCompose:
    def test_partial_composition_worked(self):
        a = parse_tree("3((12)4)")
        b = parse_tree("2(13)")
        assert format_tree(compose(a, 2, b)) == "5((1(3(24)))6)"

    def test_empty_composition_worked(self):
        a = parse_tree("3((12)4)")
        assert format_tree(compose(a, 2, EMPTY)) == "2(13)"

    def test_unit_law(self):
        rng = random.Random(1)
        for _ in range(100):
            r = rng.randint(1, 6)
            a = random_tree(rng, range(1, r + 1))
            p = rng.randint(1, r)
            assert compose(a, p, Leaf(1)) == a

    def test_out_of_range(self):
        with pytest.raises(TreeError):
            compose(parse_tree("12"), 3, Leaf(1))
        with pytest.raises(TreeError):
            compose(EMPTY, 1, Leaf(1))

    def test_sequential_associativity_t3_exhaustive(self):
        # (A o_p B) o_{p-1+q} C = A o_p (B o_q C) over all of T_3
        t3 = list(all_trees([1, 2, 3]))
        assert len(t3) == 12
        t2 = list(all_trees([1, 2]))
        for a in t3:
            for b in t2 + t3:
                rb = len(leaf_order(b))
                for c in t2:
                    rc = len(leaf_order(c))
                    for p in range(1, 4):
                        for q in range(1, rb + 1):
                            lhs = compose(compose(a, p, b), p - 1 + q, c)
                            rhs = compose(a, p, compose(b, q, c))
                            assert lhs == rhs

    def test_parallel_commutation_t3(self):
        # disjoint slots commute (with the index shift)
        t3 = list(all_trees([1, 2, 3]))
        t2 = list(all_trees([1, 2]))
        for a in t3:
            for b in t2:
                for c in t2:
                    for p in range(1, 4):
                        for q in range(p + 1, 4):
                            lhs = compose(compose(a, q, c), p, b)
                            rhs = compose(compose(a, p, b), q + 1, c)
                            assert lhs == rhs

    def test_operad_laws_randomized(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 6)
            m = rng.randint(1, 4)
            k = rng.randint(1, 3)
            a = random_tree(rng, range(1, n + 1))
            b = random_tree(rng, range(1, m + 1))
            c = random_tree(rng, range(1, k + 1))
            p = rng.randint(1, n)
            q = rng.randint(1, m)
            lhs = compose(compose(a, p, b), p - 1 + q, c)
            rhs = compose(a, p, compose(b, q, c))
            assert lhs == rhs

    def test_equivariance(self):
        # compose(permute(A,g), g(p), B) = permute(compose(A,p,B), g')
        # with g' the block substitution of the identity into slot p of g
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 6)
            m = rng.randint(1, 4)
            a = random_tree(rng, range(1, n + 1))
            b = random_tree(rng, range(1, m + 1))
            p = rng.randint(1, n)
            g = list(range(1, n + 1))
            rng.shuffle(g)
            gp = g[p - 1]
            lhs = compose(permute(a, g), gp, b)

            def widen(v):
                return v + (m - 1 if v > gp else 0)

            gprime = (
                [widen(g[x - 1]) for x in range(1, p)]
                + [gp - 1 + k for k in range(1, m + 1)]
                + [widen(g[x - m]) for x in range(p + m, n + m)]
            )
            rhs = permute(compose(a, p, b), gprime)
            assert lhs == rhs


class TestPermute:
    def test_identity(self):
        t = parse_tree("1(23)")
        assert permute(t, [1, 2, 3]) == t

    def test_transposition(self):
        assert format_tree(permute(parse_tree("1(23)"), [2, 1, 3])) == "2(13)"

    def test_group_action_law(self):
        rng = random.Random(3)
        for _ in range(200):
            r = rng.randint(1, 7)
            a = random_tree(rng, range(1, r + 1))
            g = list(range(1, r + 1))
            h = list(range(1, r + 1))
            rng.shuffle(g)
            rng.shuffle(h)
            hg = [h[g[i] - 1] for i in range(r)]
            assert permute(permute(a, g), h) == permute(a, hg)

    def test_size_mismatch(self):
        with pytest.raises(TreeError):
            permute(parse_tree("12"), [1, 2, 3])


class TestShapes:
    def test_four_leaf_shapes(self):
        assert len(all_shapes(4)) == 5

    def test_t3_has_twelve_elements(self):
        assert len(set(all_trees([1, 2, 3]))) == 12


class TestColoredCompose:
    def test_unit_open(self):
        e = parse_tree("t(c1)o2")
        unit = OpenLeaf(1)
        assert compose(e, 2, unit) == e

    def test_unit_closed(self):
        e = parse_tree("t(c1)o2")
        assert compose(e, 1, ClosedLeaf(1)) == e

    def test_open_closed_relabeling_worked(self):
        e = parse_tree("t(c1)o2")
        x = parse_tree("c2c1")
        out = compose(e, 1, x)
        assert format_tree(out) == "t(c2c1)o3"
        assert validate_colored(out) == (2, 1, "o")

    def test_color_mismatch(self):
        e = parse_tree("t(c1)o2")
        with pytest.raises(TreeError):
            compose(e, 1, parse_tree("o1"))
        with pytest.raises(TreeError):
            compose(e, 2, parse_tree("c1c2"))
        with pytest.raises(TreeError):
            compose(e, 2, parse_tree("12"))
        with pytest.raises(TreeError):
            compose(parse_tree("12"), 1, parse_tree("t(c1)o2"))

    @pytest.mark.parametrize("host", ["t(c1)o2", "t(c1c2)", "c1c2", "o1o2"])
    @pytest.mark.parametrize("p", [0, -1])
    def test_slot_below_one(self, host, p):
        with pytest.raises(TreeError, match="out of range"):
            compose(parse_tree(host), p, ClosedLeaf(1))

    def test_plain_argument_takes_the_slot_kind(self):
        e = parse_tree("t(c1)o2")
        assert compose(e, 1, parse_tree("21")) == compose(e, 1, parse_tree("c2c1"))
        assert compose(parse_tree("12"), 2, parse_tree("c1c2")) == parse_tree("1(23)")

    def test_erase(self):
        cases = {
            ("t(c1c2)o3", 1): "t(c1)o2",
            ("t(c1)o2", 1): "o1",
            ("t(c1)o2", 2): "t(c1)",
            ("(t(c2)o4)(t(c3c1)o5)", 3): "(t(c2)o3)(t(c1)o4)",
            ("(t(c2)o4)(t(c3c1)o5)", 4): "t(c2)(t(c3c1)o4)",
            ("c1(c2c3)", 2): "c1c2",
            ("t(c1)", 1): "",
            ("o1", 1): "",
        }
        for (host, p), want in cases.items():
            assert format_tree(compose(parse_tree(host), p, EMPTY)) == want, (host, p)

    def test_figure_composition_shape(self):
        # leaf counts and color pattern survive composition
        e = parse_tree("(t(c2) o4)(t(c3 c1) o5)")
        f = parse_tree("t(c1)o2")
        out = compose(e, 4, f)
        r, s, color = validate_colored(out)
        assert (r, s, color) == (4, 2, "o")


class TestDoubling:
    def test_single_tau(self):
        assert format_tree(doubling(parse_tree("t(c1)"))) == "12"

    def test_five_leaf_doubling_shape(self):
        e = parse_tree("(t(c2) o4)(t(c3 c1) o5)")
        d = doubling(e)
        assert format_tree(d) == "((34)7)(((51)(62))8)"

    def test_labels(self):
        e = parse_tree("t(c1)o2")
        assert doubled_labels(e) == {1: ("z", 1), 2: ("zbar", 1), 3: ("x", 1)}

    def test_not_o_colored(self):
        with pytest.raises(TreeError):
            doubling(parse_tree("c1c2"))

    def test_injective_up_to_five(self):
        # exhaustive injectivity of the doubling map for r + s <= 5
        seen = {}
        for r in range(0, 6):
            for s in range(0, 6):
                if 1 <= r + s <= 5:
                    for e in all_colored_trees(r, s):
                        d = doubling(e)
                        key = (r, s, format_tree(d))
                        assert key not in seen, (e, seen[key])
                        seen[key] = e
        assert len(seen) > 3000

    def test_functoriality_exhaustive(self):
        # doubling(E o_p F) equals the doubled composition, for all
        # composites with r+s <= 4; F = EMPTY deletes a point, and deleting
        # the only point of a host leaves EMPTY, which doubles to EMPTY
        cases = 0
        colored = {
            (r, s): list(all_colored_trees(r, s))
            for r in range(0, 5)
            for s in range(0, 5)
            if 1 <= r + s <= 4
        }
        closed = {t: list(all_trees(range(1, t + 1))) for t in range(0, 4)}
        for (re_, se), es in colored.items():
            for e in es:
                # open slots
                for (rf, sf), fs in colored.items():
                    if (re_ + rf) + (se + sf - 1) > 4 or se == 0 or sf == 0:
                        continue
                    for f in fs:
                        for j in range(1, se + 1):
                            p = re_ + j
                            lhs = doubling(compose(e, p, f))
                            rhs = doubled_compose(e, p, f)
                            assert lhs == rhs
                            cases += 1
                # open-slot deletion
                for j in range(1, se + 1):
                    lhs = doubling(compose(e, re_ + j, EMPTY))
                    assert lhs == compose(doubling(e), 2 * re_ + j, EMPTY)
                    cases += 1
                # closed slots take plain and c-colored arguments; t = 0 is
                # the empty tree
                for t in closed:
                    if (re_ + t - 1) + se > 4 or re_ == 0:
                        continue
                    for a_plain in closed[t]:
                        a_closed = map_leaves(a_plain, lambda lf: ClosedLeaf(lf.label))
                        for a in {a_plain, a_closed}:
                            for p in range(1, re_ + 1):
                                lhs = doubling(compose(e, p, a))
                                rhs = doubled_compose(e, p, a)
                                assert lhs == rhs
                                cases += 1
        assert cases > 100

    def test_plain_argument_at_closed_slot(self):
        e = parse_tree("t(c1)o2")
        assert format_tree(doubled_compose(e, 1, parse_tree("12"))) == "((13)(24))5"
        assert doubled_compose(e, 1, parse_tree("12")) == doubled_compose(e, 1, parse_tree("c1c2"))
        with pytest.raises(TreeError, match="closed slot needs a plain or c-colored argument"):
            doubled_compose(e, 1, parse_tree("o1"))
