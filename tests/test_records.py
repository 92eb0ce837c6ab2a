"""Value semantics of the record classes: construction, equality, hashing,
immutability and repr, as callers and memo keys rely on them."""

import copy
import pickle
from fractions import Fraction

import pytest

from opetree.braids import BraidWord
from opetree.coords import Certificate, CoordValues
from opetree.latticecft import BoundaryData, NarainModel, VerifyReport, mixed_correlator, tree_expansion
from opetree.series import BranchPlan, PowerProduct
from opetree.trees import EMPTY, ClosedLeaf, Leaf, Node, OpenLeaf, Tau, parse_tree


def test_separately_built_trees_are_equal_keys():
    built = Node(Node(Leaf(1), Leaf(2)), Leaf(3))
    parsed = parse_tree("(12)3")
    assert built == parsed and built is not parsed
    assert {parsed: "v"}[built] == "v"
    assert parse_tree("t(c1c2)o3") == Node(Tau(Node(ClosedLeaf(1), ClosedLeaf(2))), OpenLeaf(3))
    assert parse_tree("(12)3") != parse_tree("1(23)")


def test_equality_is_false_across_classes():
    assert Leaf(1) != ClosedLeaf(1)
    assert ClosedLeaf(1) != OpenLeaf(1)
    assert Leaf(1) != (1,)
    assert Node(Leaf(1), Leaf(2)) != (Leaf(1), Leaf(2))
    assert PowerProduct() != BranchPlan()


def test_hash_is_the_hash_of_the_field_tuple():
    a, b = parse_tree("12"), Leaf(3)
    assert hash(Node(a, b)) == hash((a, b))
    assert hash(Tau(ClosedLeaf(1))) == hash((ClosedLeaf(1),))
    assert hash(Leaf(4)) == hash((4,))
    assert hash(EMPTY) == hash(())
    assert hash(NarainModel(2)) == hash((Fraction(2),))
    assert hash(BraidWord(3, (1, -2))) == hash((3, (1, -2)))
    assert hash(Certificate(True, 0.5, (1, 2))) == hash((True, 0.5, (1, 2)))


@pytest.mark.parametrize(
    "record, field",
    [
        (Leaf(1), "label"),
        (Node(Leaf(1), Leaf(2)), "left"),
        (Tau(ClosedLeaf(1)), "child"),
        (NarainModel(2), "r_squared"),
        (PowerProduct(), "constant"),
        (Certificate(True, 0.5, None), "margin"),
        (BraidWord(2), "word"),
        (CoordValues(1j, 0j, ()), "x"),
    ],
)
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_repr_is_unchanged():
    assert repr(parse_tree("t(c1)o2")) == "Node(Tau(ClosedLeaf(1)), OpenLeaf(2))"
    assert repr(EMPTY) == "EMPTY"
    assert repr(NarainModel(2)) == "NarainModel(r_squared=Fraction(2, 1))"
    assert repr(PowerProduct(diffs=(((2, 1), -1),), powers=((3, 2),))) == (
        "PowerProduct(diffs=(((2, 1), Fraction(-1, 1)),), powers=((3, 2),), constant=(1+0j))"
    )
    assert repr(Certificate(True, 0.5, (1, 2))) == (
        "Certificate(admissible=True, margin=0.5, worst_pair=(1, 2))"
    )
    assert repr(BraidWord(3, [1, -2])) == "BraidWord(strands=3, word=(1, -2))"


def test_keyword_construction_and_defaults():
    assert PowerProduct(powers=((1, 2),)) == PowerProduct((), ((1, 2),), 1.0 + 0j)
    assert PowerProduct(constant=2.0).diffs == ()
    cert = Certificate(admissible=True, margin=0.25, worst_pair=None)
    assert cert == Certificate(True, 0.25, None)
    assert BraidWord(strands=3) == BraidWord(3, ())
    # __post_init__ normalizes keyword arguments too
    assert BraidWord(3, word=[1, -2]).word == (1, -2)
    assert PowerProduct(diffs=[((2, 1), "1/2")]).diffs == (((2, 1), Fraction(1, 2)),)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3, 4), {}), ((), {"strands": 2, "bogus": 1}), ((2,), {"strands": 2})],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        BraidWord(*args, **kwargs)


def test_post_init_checks_run():
    with pytest.raises(ValueError):
        BraidWord(strands=2, word=(3,))
    with pytest.raises(ValueError):
        NarainModel(0)


def test_mutable_records_are_unhashable_values():
    model = NarainModel(2)
    bd = BoundaryData(model, 1)
    same = BoundaryData(model, 1)
    mixed_correlator(model, same, 1, [((1, 0), 0.5j)], [])  # fills a cache, not a field
    assert same.prepare_mixed.cache_info().currsize == 1
    assert bd == same and bd.sigma_table is not same.sigma_table
    assert "prepare_mixed" not in repr(same)
    for clone in (copy.copy(same), copy.deepcopy(same), pickle.loads(pickle.dumps(same))):
        assert clone == same and clone.prepare_mixed.cache_info().currsize == 0
    report = VerifyReport("x", {}, [], 0.0, 1.0, True, 0.1)
    assert report.notes == [] and report.notes is not VerifyReport("y", {}, [], 0, 1, 1, 0).notes
    report.passed = False
    texp = tree_expansion(model, parse_tree("12"), [(1, 0), (-1, 0)], 2)
    for record in (bd, report, texp):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record", [parse_tree("t(c1c2)o3"), NarainModel(Fraction(3, 2)), EMPTY])
def test_copy_and_pickle_round_trip(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record)
