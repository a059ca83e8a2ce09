"""The small record classes keep the behaviour their callers rely on:
constructor signatures and defaults, equality and hashing by value where
instances are compared or used as cache keys, refusal to assign where the
class is immutable, and ``Signature``'s overlap check."""

import copy
import pickle

import pytest

from swapkit._frozen import Frozen, Value
from swapkit.boolalg import A2, BaHom, BoolAlg, powerset_algebra
from swapkit.formula import LOGIC_SIGNATURE, Signature, parse
from swapkit.hilbert import (Axiom, ModusPonens, Premise, Proof,
                             ProofCheck)
from swapkit.logics import LogicId
from swapkit.multialg import EquivRel, MaMap
from swapkit.nmatrix import Verdict, _compile
from swapkit.swap import BINARY_BA, _CLAUSES, Representation, full_swap


def _value_pairs():
    """Pairs of distinct objects made from equal fields."""
    A1, A2 = powerset_algebra(1), powerset_algebra(2)
    return [
        (BoolAlg(2), BoolAlg(2)),
        (Signature(unary=("f",), binary=("g",)),
         Signature((), ("f",), ("g",))),
        (BaHom(A1, A2, (0, 3)), BaHom(BoolAlg(1), BoolAlg(2), (0, 3))),
        (Premise(0), Premise(0)),
        (Axiom("Ax1", parse("p -> q -> p")), Axiom("Ax1", parse("p -> q -> p"))),
        (ModusPonens(0, 1), ModusPonens(0, 1)),
        (Proof((parse("p"),), (Premise(0),)), Proof((parse("p"),), (Premise(0),))),
    ]


@pytest.mark.parametrize("a, b", _value_pairs(),
                         ids=lambda x: type(x).__name__)
def test_equal_fields_mean_equal_and_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_multialgebra_maps_are_equal_by_value_and_unhashable():
    # a MultiAlg is compared by value but refuses hashing, and so do the maps
    m = full_swap(LogicId.MBC, powerset_algebra(1)).malg
    f, g = (MaMap(m, m, tuple(range(m.size))) for _ in range(2))
    assert f is not g and f == g
    assert f != MaMap(m, m, (0,) * m.size)
    with pytest.raises(TypeError):
        hash(f)


def test_multialgebras_are_unhashable():
    m = full_swap(LogicId.MBC, powerset_algebra(1)).malg
    with pytest.raises(TypeError):
        hash(m)


def test_different_fields_or_classes_are_unequal():
    assert BoolAlg(1) != BoolAlg(2)
    assert Signature(unary=("f",)) != Signature(binary=("f",))
    assert LOGIC_SIGNATURE == Signature(unary=("~", "@"),
                                        binary=("&", "|", "->"))
    A1 = powerset_algebra(1)
    assert BaHom(A1, A1, (0, 1)) != BaHom(A1, A1, (1, 0))
    assert Premise(0) != Premise(1) and ModusPonens(0, 1) != ModusPonens(1, 0)
    assert Premise(0) != ModusPonens(0, 0)
    assert BoolAlg(1) != 1 and Premise(0) != (0,)


def test_boolalg_is_a_cache_key():
    cache = {BoolAlg(2): "two"}
    assert cache[powerset_algebra(2)] == "two"
    assert full_swap(LogicId.MBC, BoolAlg(2)) is full_swap(LogicId.MBC,
                                                           powerset_algebra(2))


def _frozen_instances():
    A1 = powerset_algebra(1)
    m = full_swap(LogicId.MBC, A1).malg
    return [
        (BoolAlg(1), "atoms"),
        (BaHom(A1, A1, (0, 1)), "mapping"),
        (Signature(unary=("f",)), "unary"),
        (Premise(0), "index"),
        (Axiom("Ax1", parse("p -> q -> p")), "name"),
        (ModusPonens(0, 1), "first"),
        (Proof((), ()), "steps"),
        (MaMap(m, m, tuple(range(m.size))), "mapping"),
        (EquivRel((0, 0), ("b0",)), "block_of"),
        (_CLAUSES[LogicId.MBC], "neg_bounded"),
        (_compile((parse("p"),), parse("~p | q")), "ops"),
    ]


@pytest.mark.parametrize("obj, field", _frozen_instances(),
                         ids=lambda x: type(x).__name__ if not isinstance(
                             x, str) else x)
def test_immutable_classes_refuse_assignment(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unheard_of = 1
    assert getattr(obj, field) is before


def test_signature_rejects_overlapping_arity_groups():
    for groups in ({"unary": ("~",), "binary": ("~", "&")},
                   {"constants": ("e",), "unary": ("e",)},
                   {"constants": ("e",), "binary": ("e",)}):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            Signature(**groups)
    assert Signature().operators() == []
    assert Signature(("e",), ("f",), ("g",)).operators() == [
        ("e", 0), ("f", 1), ("g", 2)]


def test_constructor_defaults():
    assert Verdict(True).countermodel is None
    assert Verdict(holds=False, countermodel=None).holds is False
    check = ProofCheck(True, [])
    assert check.step is None and check.reason is None
    clauses = _CLAUSES[LogicId.CPLE_PLUS]
    assert not clauses.neg_bounded and not clauses.circ_pinned
    assert clauses.second is None
    rep = Representation(index_size=1, hmap=None, product=None)
    assert rep.index_size == 1


def test_mutable_records_take_assignment():
    verdict = Verdict(True)
    verdict.holds = False
    assert verdict.holds is False
    check = ProofCheck(False, [], 0, "why")
    check.reason = "because"
    assert check.reason == "because"


def _fields_of(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def _same(a, b) -> bool:
    """Equal, or, for records compared by identity, of one class with the
    same fields."""
    if isinstance(a, Frozen) and not isinstance(a, Value):
        return type(a) is type(b) and all(
            _same(x, y) for x, y in zip(_fields_of(a), _fields_of(b)))
    return a == b


@pytest.mark.parametrize("obj, field", _frozen_instances(),
                         ids=lambda x: type(x).__name__ if not isinstance(
                             x, str) else x)
def test_records_copy_and_pickle(obj, field):
    shallow = copy.copy(obj)
    assert type(shallow) is type(obj) and shallow is not obj
    assert all(x is y for x, y in zip(_fields_of(shallow), _fields_of(obj)))
    for copied in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is type(obj) and _same(copied, obj)


@pytest.mark.parametrize("obj", [*_CLAUSES.values(), BINARY_BA],
                         ids=[*(logic.name for logic in _CLAUSES), "BINARY_BA"])
def test_clauses_and_binary_operations_copy_and_pickle(obj):
    # every clause function and Boolean operation is a module-level name
    for copied in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is type(obj) and _same(copied, obj)


def test_a_pickled_multialgebra_equals_the_original():
    m = full_swap(LogicId.MBC, A2).malg
    copied = pickle.loads(pickle.dumps(m))
    assert copied is not m and copied == m
    assert copied.signature == LOGIC_SIGNATURE


def _record_fields():
    """A record of each class built from its fields alone, as (class,
    field values in slot order)."""
    A1 = powerset_algebra(1)
    m = full_swap(LogicId.MBC, A1).malg
    return [
        (BaHom, (A1, A1, (0, 1))),
        (MaMap, (m, m, tuple(range(m.size)))),
        (EquivRel, ((0, 0), ("b0",))),
        (Premise, (0,)),
        (Axiom, ("Ax1", parse("p -> q -> p"))),
        (ModusPonens, (0, 1)),
        (Proof, ((parse("p"),), (Premise(0),))),
    ]


_RECORDS = _record_fields()


@pytest.mark.parametrize("cls, values", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_build_from_positional_or_keyword_fields(cls, values):
    names = cls.__slots__
    assert len(names) == len(values)
    by_position = cls(*values)
    by_name = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_name, mixed):
        assert type(record) is cls
        assert _fields_of(record) == values


@pytest.mark.parametrize("cls, values", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_refuse_a_missing_extra_repeated_or_unknown_field(cls,
                                                                  values):
    names = cls.__slots__
    with pytest.raises(TypeError, match=names[-1]):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=names[0]):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match=names[0]):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="unheard_of"):
        cls(*values, unheard_of=1)
