import copy
import itertools
import pickle
import random

import pytest

from opetree.braids import (
    BraidError,
    BraidWord,
    PaPBMorphism,
    block_substitution,
    braid_permutation,
    cable_compose,
    format_braid_word,
    identity_braid,
    mirror,
    papb_compose,
    papb_generator,
    papb_identity,
    parse_braid_word,
    rank_frame,
)
from opetree.coords import nested_configuration_open, phi_embedding
from opetree.trees import (
    EMPTY,
    all_colored_trees,
    compose,
    leaf_order,
    parse_tree,
    validate_colored,
)
from tests.oracles import abelianization, doubled_labels, invariants, is_pure


def all_words(n, max_len):
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield BraidWord(n, combo)


def random_word(rng, n, max_len=6):
    if n < 2:
        return BraidWord(n, ())
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


class TestPermutation:
    def test_sigma1_on_two(self):
        assert braid_permutation(BraidWord(2, (1,))) == (2, 1)

    def test_pure_square(self):
        w = BraidWord(2, (1, 1))
        assert braid_permutation(w) == (1, 2)
        assert is_pure(w)

    def test_braid_relation_permutation(self):
        a = braid_permutation(BraidWord(3, (1, 2, 1)))
        b = braid_permutation(BraidWord(3, (2, 1, 2)))
        assert a == b == (3, 2, 1)

    def test_generator_range(self):
        with pytest.raises(BraidError):
            BraidWord(2, (2,))
        with pytest.raises(BraidError):
            BraidWord(3, (0,))

    @pytest.mark.parametrize(
        "strands, word, message",
        [
            (3, (1.5, -2.7), "braid letter must be an int, got 1.5"),
            (3, (1, True), "braid letter must be an int, got True"),
            (2.5, (1,), "strand count must be an int, got 2.5"),
            (2.0, (), "strand count must be an int, got 2.0"),
        ],
    )
    def test_non_integer_values_raise(self, strands, word, message):
        with pytest.raises(BraidError) as err:
            BraidWord(strands, word)
        assert str(err.value) == message


class TestMirror:
    def test_single(self):
        assert mirror(BraidWord(2, (1,))).word == (-1,)

    def test_involution(self):
        rng = random.Random(51)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 5))
            assert mirror(mirror(w)) == w

    def test_permutation_preserved(self):
        rng = random.Random(52)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 5))
            assert braid_permutation(mirror(w)) == braid_permutation(w)

    def test_homomorphism(self):
        rng = random.Random(53)
        for _ in range(100):
            u = random_word(rng, 4)
            v = random_word(rng, 4)
            assert mirror(u * v) == mirror(u) * mirror(v)

    def test_negates_abelianization(self):
        rng = random.Random(54)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 5))
            ab = abelianization(w)
            mab = abelianization(mirror(w))
            assert mab == {k: -v for k, v in ab.items()}


class TestCable:
    def test_identity_times_identity(self):
        for n in (1, 2, 4):
            for m in (1, 2, 3):
                for p in range(1, n + 1):
                    out = cable_compose(identity_braid(n), p, identity_braid(m))
                    assert out == identity_braid(n + m - 1)

    def test_widening_worked_example(self):
        # sigma_1 on 2 strands, slot 2 widened by sigma_1 on 2 strands:
        # two positive expansion crossings at indices {1,2} plus the inner
        # word at the wide strand's final position; block-substituted
        # permutation
        out = cable_compose(BraidWord(2, (1,)), 2, BraidWord(2, (1,)))
        assert out.strands == 3
        assert sorted(abs(x) for x in out.word) == [1, 1, 2]
        assert all(x > 0 for x in out.word)
        assert braid_permutation(out) == block_substitution((2, 1), 2, (2, 1))

    @pytest.mark.parametrize(
        "strand, message",
        [
            (2.0, "strand must be an int, got 2.0"),
            (True, "strand must be an int, got True"),
            (1.5, "strand must be an int, got 1.5"),
        ],
    )
    def test_non_integer_strand_raises(self, strand, message):
        with pytest.raises(BraidError) as err:
            cable_compose(BraidWord(2, (1,)), strand, BraidWord(2, (1,)))
        assert str(err.value) == message

    def test_strand_deletion(self):
        out = cable_compose(BraidWord(2, (1, 1)), 1, BraidWord(0, ()))
        assert out == BraidWord(1, ())
        out2 = cable_compose(BraidWord(3, (1, 2, -1)), 2, BraidWord(0, ()))
        assert out2.strands == 2

    def test_strand_counts(self):
        rng = random.Random(55)
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(0, 4)
            g = random_word(rng, n)
            h = random_word(rng, m) if m else BraidWord(0, ())
            p = rng.randint(1, n)
            assert cable_compose(g, p, h).strands == n + m - 1

    def test_functoriality_moderate_exhaustive(self):
        # exhaustive over short words; the full sweep runs in acceptance
        for n in (2, 3):
            for g in all_words(n, 2):
                pg = braid_permutation(g)
                for m in (2, 3):
                    for h in all_words(m, 1):
                        ph = braid_permutation(h)
                        for p in range(1, n + 1):
                            cab = cable_compose(g, p, h)
                            assert braid_permutation(cab) == block_substitution(
                                pg, p, ph
                            )

    def test_pure_times_pure_is_pure(self):
        rng = random.Random(56)
        found = 0
        while found < 50:
            g = random_word(rng, rng.randint(2, 4))
            h = random_word(rng, rng.randint(2, 4))
            if not (is_pure(g) and is_pure(h)):
                continue
            p = rng.randint(1, g.strands)
            assert is_pure(cable_compose(g, p, h))
            found += 1

    def test_deletion_matches_strand_removal(self):
        # the general cabling loop at m = 0 against a direct deletion loop:
        # the deleted strand's crossings go, higher indices decrement
        def delete(g, p):
            wide, out = p, []
            for x in g.word:
                i = abs(x)
                if i == wide:
                    wide = i + 1
                elif i + 1 == wide:
                    wide = i
                else:
                    out.append(x if i < wide else (abs(x) - 1) * (1 if x > 0 else -1))
            return BraidWord(g.strands - 1, tuple(out))

        for n in range(1, 6):
            for g in all_words(n, 4):
                for p in range(1, n + 1):
                    assert cable_compose(g, p, BraidWord(0, ())) == delete(g, p)

    def test_deletion_permutation(self):
        rng = random.Random(57)
        for _ in range(200):
            n = rng.randint(2, 5)
            g = random_word(rng, n)
            p = rng.randint(1, n)
            out = cable_compose(g, p, BraidWord(0, ()))
            pg = braid_permutation(g)
            gp = pg[p - 1]
            want = tuple(
                v - (1 if v > gp else 0)
                for i, v in enumerate(pg)
                if i != p - 1
            )
            assert braid_permutation(out) == want


def interleave(n, p, m):
    """One-line permutation taking the block z1..zm zbar1..zbarm at
    positions p..p+2m-1 to z1 zbar1 ... zm zbarm."""
    out = list(range(1, n + 1))
    for k in range(1, m + 1):
        out[p + k - 2] = p + 2 * k - 2
        out[p + m + k - 2] = p + 2 * k - 1
    return tuple(out)


def then_perm(a, b):
    """The one-line permutation of a word with permutation ``a`` followed
    by a word with permutation ``b``."""
    return tuple(b[x - 1] for x in a)


def inverse_perm(a):
    out = [0] * len(a)
    for i, x in enumerate(a, start=1):
        out[x - 1] = i
    return tuple(out)


class TestPaB:
    def test_pure_endomorphism(self):
        a = parse_tree("12")
        m = PaPBMorphism(a, a, BraidWord(2, (1, 1)))
        assert is_pure(m.word)

    def test_sigma_example(self):
        m = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        assert braid_permutation(m.word) == (2, 1)

    def test_alpha_example(self):
        PaPBMorphism(parse_tree("(12)3"), parse_tree("1(23)"), identity_braid(3))

    def test_permutation_mismatch(self):
        # every morphism is checked when built: its word must carry the
        # trees' frames
        cases = [
            ("12", "21", identity_braid(2), r"strand 1 carries 1 but lands on 2"),
            ("12", "12", BraidWord(2, (1,)), r"strand 1 carries 1 but lands on 2"),
            ("t(c1)", "t(c1)", BraidWord(2, (1,)), r"strand 1 carries \('z', 1\)"),
            ("12", "12", identity_braid(3), "frame length"),
            ("t(c1)", "o1o2", identity_braid(2), "different tags"),
            ("t(c1)o2", "t(c1)o2", BraidWord(3, (2,)), r"lands on \('x', 1\)"),
        ]
        for a, b, w, message in cases:
            with pytest.raises(BraidError, match=message):
                PaPBMorphism(parse_tree(a), parse_tree(b), w)

    def test_record_is_its_trees_and_word(self):
        g = papb_generator("p")
        assert PaPBMorphism._fields == ("source", "target", "word")
        assert repr(g).startswith("PaPBMorphism(source=") and "frame" not in repr(g)
        assert hash(g) == hash((g.source, g.target, g.word))
        for clone in (copy.copy(g), pickle.loads(pickle.dumps(g))):
            assert clone == g and clone is not g
            assert clone.source_frame == rank_frame(g.source) == g.source_frame
            assert clone.target_frame == rank_frame(g.target) == g.target_frame
        with pytest.raises(AttributeError):
            g.source_frame = ()

        class Forged:  # pickles as p's word on its source at both ends
            def __reduce__(self):
                return PaPBMorphism, (g.source, g.source, g.word)

        with pytest.raises(BraidError):  # unpickling builds the morphism again
            pickle.loads(pickle.dumps(Forged()))

    def test_composition(self):
        g = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        h = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        out = papb_compose(g, 2, h)
        assert out.source == parse_tree("1(23)")
        assert out.target == parse_tree("(32)1")
        assert out.word == BraidWord(3, (1, 2, 1))
        # a plain morphism's frames are its trees' leaf orders
        assert (out.source_frame, out.target_frame) == ((1, 2, 3), (3, 2, 1))

    def test_leaf_out_of_range(self):
        g = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        for slot in (0, -1, 3):
            with pytest.raises(BraidError, match=r"out of range 1\.\.2"):
                papb_compose(g, slot, g)

    def test_then(self):
        g = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        back = PaPBMorphism(parse_tree("21"), parse_tree("12"), BraidWord(2, (1,)))
        assert is_pure(g.then(back).word)
        with pytest.raises(BraidError):
            g.then(g)
        for name in ("alpha_o", "alpha_c", "sigma", "p", "q"):
            g = papb_generator(name)
            assert g.then(papb_identity(g.target)) == g == papb_identity(g.source).then(g)


class TestGenerators:
    def test_all_five_validate(self):
        for name in ("alpha_o", "alpha_c", "sigma", "p", "q"):
            g = papb_generator(name)
            assert g == PaPBMorphism(g.source, g.target, g.word)
            assert g.source_frame == rank_frame(g.source)
            assert g.target_frame == rank_frame(g.target)

    def test_alpha_o(self):
        g = papb_generator("alpha_o")
        assert g.word.strands == 3 and is_pure(g.word)
        assert g.source == parse_tree("(o1o2)o3")
        assert g.target == parse_tree("o1(o2o3)")

    def test_sigma_blockwise(self):
        g = papb_generator("sigma")
        assert g.word.strands == 4
        assert braid_permutation(g.word) == (3, 4, 1, 2)
        # signs: + on the bulk strands, - on the conjugates
        ab = abelianization(g.word)
        assert ab[(1, 3)] == 1 and ab[(2, 4)] == -1

    def test_p_signs(self):
        g = papb_generator("p")
        ab = abelianization(g.word)
        # bulk strand above the boundary strand: positive; conjugate: negative
        assert ab[(1, 3)] == 1 and ab[(2, 3)] == -1

    def test_q_identity_word(self):
        g = papb_generator("q")
        assert g.word.word == ()
        assert g.source == parse_tree("t(c1c2)")
        assert g.target == parse_tree("t(c1)t(c2)")

    def test_unknown_name(self):
        with pytest.raises(BraidError):
            papb_generator("nope")


class TestPaPBCompose:
    def test_identity_compose_identity(self):
        i1 = papb_identity(parse_tree("t(c1)o2"))
        i2 = papb_identity(parse_tree("o1"))
        out = papb_compose(i1, 2, i2)
        assert out.word.word == ()

    def test_trees_follow_colored_composition(self):
        mu = papb_generator("p")
        nu = papb_identity(parse_tree("t(c1)o2"))
        out = papb_compose(mu, 2, nu)
        assert out.source == compose(mu.source, 2, nu.source)
        assert out.target == compose(mu.target, 2, nu.target)

    def test_p_with_closed_sigma(self):
        mu = papb_generator("p")
        gamma = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        out = papb_compose(mu, 1, gamma)
        assert out.word.strands == 5
        # the doubled argument's strands end paired: z1 zbar1 z2 zbar2
        assert braid_permutation(out.word) == (4, 5, 2, 3, 1)

    def test_block_permutation_oracle(self):
        # brute-force oracle: the composite's permutation is the block
        # substitution of the factors' permutations at the cabled strands

        gens = [papb_generator(n) for n in ("sigma", "p", "q", "alpha_o")]
        gamma = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        nu_open = papb_generator("p")  # nontrivial word at an open slot
        for mu in gens:
            r, s, _ = validate_colored(mu.source)
            for slot in range(1, r + s + 1):
                if slot <= r:
                    out = papb_compose(mu, slot, gamma)
                    i1 = mu.source_frame.index(("z", slot)) + 1
                    i2 = mu.source_frame.index(("zbar", slot)) + 1
                    want = block_substitution(
                        braid_permutation(mu.word), i1, braid_permutation(gamma.word)
                    )
                    want = block_substitution(
                        want, i2 + 1, braid_permutation(mirror(gamma.word))
                    )
                    # pair the cabled block z1 z2 zbar1 zbar2 at both ends
                    n, q = len(want), mu.target_frame.index(("z", slot)) + 1
                    want = then_perm(inverse_perm(interleave(n, i1, 2)), want)
                    want = then_perm(want, interleave(n, q, 2))
                else:
                    out = papb_compose(mu, slot, nu_open)
                    i1 = mu.source_frame.index(("x", slot - r)) + 1
                    want = block_substitution(
                        braid_permutation(mu.word), i1, braid_permutation(nu_open.word)
                    )
                assert braid_permutation(out.word) == want
                assert sorted(out.source_frame) == sorted(out.target_frame)

    def test_invariants_api(self):
        g = papb_generator("sigma")
        perm, ab = invariants(g)
        assert perm == (3, 4, 1, 2)
        # bulk strands cross everything from above (+), conjugates from
        # below (-): four crossings in the doubled half-twist
        assert dict(ab) == {(1, 3): 1, (1, 4): 1, (2, 3): -1, (2, 4): -1}
        # free insertion of a cancelling pair leaves the invariants fixed
        padded = PaPBMorphism(
            g.source, g.target, BraidWord(4, (1, -1) + g.word.word)
        )
        assert invariants(padded) == invariants(g)

    def test_frames_carry_every_doubled_tag_once(self):
        # every composite frame is a permutation of the doubled tags of its
        # source, over the five generators, every slot and five arguments
        # per slot kind; an open-slot argument with bulk strands once had
        # its zbar tags renamed to boundary tags
        closed = [
            PaPBMorphism(parse_tree(a), parse_tree(b), BraidWord(n, w))
            for a, b, n, w in (
                ("1", "1", 1, ()),
                ("12", "21", 2, (1,)),
                ("12", "12", 2, (1, 1)),
                ("(12)3", "1(23)", 3, ()),
                ("12", "21", 2, (-1,)),
            )
        ]
        opened = [
            papb_identity(parse_tree("o1")),
            papb_generator("alpha_o"),
            papb_generator("p"),
            papb_identity(parse_tree("t(c1)o2")),
            papb_generator("sigma"),
        ]
        count = 0
        for name in ("alpha_o", "alpha_c", "sigma", "p", "q"):
            mu = papb_generator(name)
            r, s, _ = validate_colored(mu.source)
            for slot in range(1, r + s + 1):
                for nu in closed if slot <= r else opened:
                    out = papb_compose(mu, slot, nu)
                    want = sorted(doubled_labels(out.source).values())
                    assert sorted(out.source_frame) == want
                    assert sorted(out.target_frame) == want
                    count += 1
        assert count == 60

    def test_open_slot_keeps_conjugate_tags(self):
        out = papb_compose(papb_generator("p"), 2, papb_identity(parse_tree("t(c1)o2")))
        assert out.source_frame == (("z", 1), ("zbar", 1), ("z", 2), ("zbar", 2), ("x", 1))

    def test_slot_out_of_range(self):
        mu = papb_generator("p")  # r = s = 1
        for slot in (0, -1, 3):
            with pytest.raises(BraidError, match=r"out of range 1\.\.2"):
                papb_compose(mu, slot, papb_identity(parse_tree("o1")))
        with pytest.raises(BraidError, match="slot must be an int, got 2.0"):
            papb_compose(mu, 2.0, papb_identity(parse_tree("o1")))

    def test_color_mismatch(self):
        mu = papb_generator("p")
        with pytest.raises(BraidError):
            papb_compose(mu, 1, papb_identity(parse_tree("o1")))
        gamma = PaPBMorphism(parse_tree("1"), parse_tree("1"), identity_braid(1))
        with pytest.raises(BraidError):
            papb_compose(mu, 2, gamma)
        with pytest.raises(BraidError, match="needs a colored argument"):
            papb_compose(mu, 2, PaPBMorphism(EMPTY, EMPTY, identity_braid(0)))

    def test_bulk_point_deletion(self):
        # the empty plain morphism at a closed slot deletes z_slot and
        # zbar_slot: every generator then reduces to an identity
        empty = PaPBMorphism(EMPTY, EMPTY, identity_braid(0))
        want = {
            ("alpha_c", 1): ("t(c1c2)", "t(c1c2)"),
            ("alpha_c", 2): ("t(c1c2)", "t(c1c2)"),
            ("alpha_c", 3): ("t(c1c2)", "t(c1c2)"),
            ("sigma", 1): ("t(c1)", "t(c1)"),
            ("sigma", 2): ("t(c1)", "t(c1)"),
            ("p", 1): ("o1", "o1"),
            ("q", 1): ("t(c1)", "t(c1)"),
            ("q", 2): ("t(c1)", "t(c1)"),
        }
        for (name, slot), (source, target) in want.items():
            mu = papb_generator(name)
            out = papb_compose(mu, slot, empty)
            assert (out.source, out.target) == (parse_tree(source), parse_tree(target))
            assert out.source_frame == rank_frame(out.source)
            assert out.target_frame == rank_frame(out.target)
            z, zbar = ("z", slot), ("zbar", slot)
            rest = tuple(t for t in mu.source_frame if t != z)
            word = cable_compose(mu.word, mu.source_frame.index(z) + 1, empty.word)
            assert out.word == cable_compose(word, rest.index(zbar) + 1, empty.word)
            assert out.word.word == ()
        sigma = papb_compose(papb_generator("sigma"), 1, empty)
        assert sigma.source_frame == sigma.target_frame == (("z", 1), ("zbar", 1))


class TestTextFormat:
    def test_round_trip(self):
        w = BraidWord(4, (1, -2, 3, -1))
        assert parse_braid_word(format_braid_word(w), strands=4) == w

    def test_parse(self):
        w = parse_braid_word("s1 s2^-1 s1")
        assert w.word == (1, -2, 1)

    def test_bad_tokens(self):
        with pytest.raises(BraidError):
            parse_braid_word("x2")
        with pytest.raises(BraidError):
            parse_braid_word("s1^2")

    @pytest.mark.parametrize("token", ["s²", "s1²", "s²^-1"])
    def test_non_decimal_digit(self, token):
        # str.isdigit accepts superscripts that int() rejects
        with pytest.raises(BraidError, match="bad braid letter"):
            parse_braid_word(token)


class TestRankFrames:
    def test_sorted_tree_is_interleaved(self):
        f = rank_frame(parse_tree("t(c1c2)"))
        assert f == (("z", 1), ("zbar", 1), ("z", 2), ("zbar", 2))

    def test_permuted_tree(self):
        f = rank_frame(parse_tree("t(c2c1)"))
        assert f == (("z", 2), ("zbar", 2), ("z", 1), ("zbar", 1))

    def test_boundary_order(self):
        f = rank_frame(parse_tree("o2t(c1)"))
        assert f == (("x", 1), ("z", 1), ("zbar", 1))

    def test_plain_tree_is_leaf_order(self):
        e = parse_tree("(31)(42)")
        assert rank_frame(e) == tuple(leaf_order(e)) == (3, 1, 4, 2)
        assert rank_frame(EMPTY) == ()

    def test_c_colored_tree_has_no_frame(self):
        with pytest.raises(BraidError, match="c-colored"):
            rank_frame(parse_tree("c1c2"))

    def test_float_sort_oracle(self):
        # the rank order of the canonical base configuration, sorted in
        # floating point, is the leaf walk on every small o-colored tree
        def float_rank_frame(e):
            r, s, _ = validate_colored(e)
            tags = doubled_labels(e)
            base = phi_embedding(nested_configuration_open(e), r, s)
            order = sorted(
                range(1, 2 * r + s + 1),
                key=lambda k: (-base[k - 1].real, -base[k - 1].imag),
            )
            return tuple(tags[k] for k in order)

        count = 0
        for r in range(5):
            for s in range(5 - r):
                for e in all_colored_trees(r, s):
                    assert rank_frame(e) == float_rank_frame(e), e
                    count += 1
        assert count == 886

    def test_deep_comb_is_interleaved(self):
        # on the one-block comb t(c1(c2(...c20))) the float offsets of the
        # base configuration tie; the leaf walk pairs every z_k with zbar_k
        text = "c20"
        for k in range(19, 0, -1):
            text = f"c{k} ({text})"
        f = rank_frame(parse_tree(f"t({text})"))
        assert f == tuple(tag for k in range(1, 21) for tag in (("z", k), ("zbar", k)))


class TestCompositeFrames:
    CLOSED = [  # plain arguments, for closed slots
        ("", "", 0, ()),
        ("1", "1", 1, ()),
        ("12", "21", 2, (1,)),
        ("12", "21", 2, (-1,)),
        ("12", "12", 2, (1, 1)),
        ("(12)3", "1(23)", 3, ()),
        ("(12)3", "3(12)", 3, (2, 1)),
        ("(12)(34)", "(21)(43)", 4, (1, -3)),
    ]
    OPEN = ["o1", "t(c1)", "t(c1)o2"]  # identities, and four generators, for open slots

    def test_cable_into_identity_is_sigma(self):
        s1 = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        out = papb_compose(papb_identity(parse_tree("t(c1)")), 1, s1)
        assert out == papb_generator("sigma")
        assert out.word.word == (-2, 1, -3, 2)

    def test_cable_of_associator_is_alpha_c(self):
        alpha = PaPBMorphism(parse_tree("(12)3"), parse_tree("1(23)"), identity_braid(3))
        out = papb_compose(papb_identity(parse_tree("t(c1)")), 1, alpha)
        alpha_c = papb_generator("alpha_c")
        assert (out.source, out.target) == (alpha_c.source, alpha_c.target)
        assert invariants(out) == invariants(alpha_c)

    def arguments(self, closed_slot):
        if closed_slot:
            return [
                PaPBMorphism(parse_tree(a), parse_tree(b), BraidWord(n, w))
                for a, b, n, w in self.CLOSED
            ]
        gens = [papb_generator(name) for name in ("alpha_o", "p", "sigma", "q")]
        return [papb_identity(parse_tree(x)) for x in self.OPEN] + gens

    def test_composites_are_framed_by_their_trees_and_chain(self):
        # every composite's frames are its trees' rank frames, it chains
        # with its identities, and the interchange law holds on invariants
        count = 0
        for name in ("alpha_o", "alpha_c", "sigma", "p", "q"):
            mu = papb_generator(name)
            r, s, _ = validate_colored(mu.source)
            for slot in range(1, r + s + 1):
                for nu in self.arguments(slot <= r):
                    out = papb_compose(mu, slot, nu)
                    assert out.source_frame == rank_frame(out.source)
                    assert out.target_frame == rank_frame(out.target)
                    want = invariants(out)
                    assert invariants(papb_identity(out.source).then(out)) == want
                    assert invariants(out.then(papb_identity(out.target))) == want
                    id_mu = (papb_identity(mu.source), papb_identity(mu.target))
                    id_nu = (papb_identity(nu.source), papb_identity(nu.target))
                    first = papb_compose(id_mu[0], slot, nu).then(papb_compose(mu, slot, id_nu[1]))
                    second = papb_compose(mu, slot, id_nu[0]).then(papb_compose(id_mu[1], slot, nu))
                    assert invariants(first) == invariants(second) == want
                    count += 1
        assert count == 8 * 8 + 7 * 4

    def test_pab_composites_chain(self):
        # plain composites are framed by leaf order and chain too
        s1 = PaPBMorphism(parse_tree("12"), parse_tree("21"), BraidWord(2, (1,)))
        for slot in (1, 2):
            for a, b, n, w in self.CLOSED[1:]:
                nu = PaPBMorphism(parse_tree(a), parse_tree(b), BraidWord(n, w))
                out = papb_compose(s1, slot, nu)
                assert out.source_frame == tuple(leaf_order(out.source))
                back = papb_compose(papb_identity(s1.target), slot, papb_identity(nu.target))
                assert invariants(out.then(back)) == invariants(out)
