"""The library's records: repr text, equality, immutability, pickling and
the validation messages, pinned for every record the modules define."""

import copy
import pickle

import pytest

from fortdesign.cardinal import ALEPH0, ALEPH1, Cardinal, LambdaValue, _Validated
from fortdesign.cli import Query
from fortdesign.concrete import (
    BlockCount, ConcreteSet, DesignCheckReport, OddTailBlock, PointMap, ProbeReport,
)
from fortdesign.descriptors import SpaceDescriptor, SubsetDescriptor
from fortdesign.designs import (
    ClassL, ClassW, DesignType, OddTail, Singleton, SweepReport, Verdict,
)
from fortdesign.finitebrute import BruteOutcome, FiniteInstance

F = Cardinal.finite
D = SubsetDescriptor(F(3), True, ALEPH0)
C = SubsetDescriptor(F(2), True, ALEPH0)
D_TEXT = "SubsetDescriptor(size=Cardinal.finite(3), contains_b=True, cosize=Cardinal.aleph(0))"
C_TEXT = "SubsetDescriptor(size=Cardinal.finite(2), contains_b=True, cosize=Cardinal.aleph(0))"
PROBE_TEXT = (
    "ProbeReport(probe=ConcreteSet(cofinite=False, support=(0, 5)), "
    "count=BlockCount(value=4, saturated=True), global_exact=None)"
)


def probe_report():
    return ProbeReport(ConcreteSet.finite((5, 0)), BlockCount.at_least(4), None)


# (make a fresh record, its repr, a field to assign); make() builds an
# equal-valued record each call
RECORDS = [
    (lambda: ClassW(D), f"ClassW(base={D_TEXT})", "base"),
    (lambda: ClassL(D), f"ClassL(base={D_TEXT})", "base"),
    (OddTail, "OddTail()", "base"),
    (lambda: Singleton(D), f"Singleton(member={D_TEXT})", "member"),
    (lambda: SweepReport(3, ("x",)), "SweepReport(cases=3, violations=('x',))", "cases"),
    (lambda: ConcreteSet(True, (3, 0)), "ConcreteSet(cofinite=True, support=(0, 3))",
     "support"),
    (lambda: OddTailBlock(2), "OddTailBlock(index=2)", "index"),
    (lambda: BlockCount(3, True), "BlockCount(value=3, saturated=True)", "value"),
    (probe_report, PROBE_TEXT, "global_exact"),
    (lambda: DesignCheckReport(
        family=ClassW(D), blocks_checked=10, block_failures=("fin:1: not shaped like D",),
        probes=(probe_report(),), rejected=(ConcreteSet.finite((1,)),),
        refutation=(probe_report(), probe_report())),
     f"DesignCheckReport(family=ClassW(base={D_TEXT}), blocks_checked=10, "
     f"block_failures=('fin:1: not shaped like D',), probes=({PROBE_TEXT},), "
     f"rejected=(ConcreteSet(cofinite=False, support=(1,)),), "
     f"refutation=({PROBE_TEXT}, {PROBE_TEXT}))",
     "refutation"),
    (lambda: FiniteInstance(4, ((1, 0), (2, 1)), 1, 2),
     "FiniteInstance(n=4, blocks=(frozenset({0, 1}), frozenset({1, 2})), c_size=1, "
     "d_size=2)",
     "c_size"),
    (lambda: BruteOutcome.exactly(3),
     "BruteOutcome(uniform=True, lambda_=3, first=None, first_count=None, second=None, "
     "second_count=None)",
     "lambda_"),
    (lambda: BruteOutcome.non_uniform((0,), 1, (1,), 2),
     "BruteOutcome(uniform=False, lambda_=None, first=(0,), first_count=1, second=(1,), "
     "second_count=2)",
     "second"),
    (lambda: Query(SpaceDescriptor(ALEPH0), C, D, DesignType.TYPE2),
     f"Query(space=SpaceDescriptor(size=Cardinal.aleph(0)), c={C_TEXT}, d={D_TEXT}, "
     f"design_type=<DesignType.TYPE2: 2>)",
     "design_type"),
]
IDS = [text.partition("(")[0] for _, text, _ in RECORDS]


@pytest.mark.parametrize("make, text, field", RECORDS, ids=IDS)
def test_repr_is_pinned(make, text, field):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text, field", RECORDS, ids=IDS)
def test_equal_values_make_equal_records(make, text, field):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_witness_families_differ_across_classes():
    families = [ClassW(D), ClassL(D), Singleton(D)]
    for i, a in enumerate(families):
        for j, b in enumerate(families):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    assert len(set(families)) == 3
    assert ClassW(D) != ClassW(C)
    assert OddTail() == OddTail() and OddTail() != ClassW(D)


@pytest.mark.parametrize("make, text, field", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(make, text, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == text


@pytest.mark.parametrize("make, text, field", RECORDS, ids=IDS)
def test_survives_pickle_and_copy(make, text, field):
    record = make()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)
        assert repr(clone) == text


@pytest.mark.parametrize("cofinite, holds_b, text", [
    (False, True, "ConcreteSet(cofinite=False, support=(0, 3))"),
    (True, False, "ConcreteSet(cofinite=True, support=(0, 3))"),
])
def test_concrete_set_keeps_its_derived_field(cofinite, holds_b, text):
    # contains_b is derived by the constructor, never given, and is a field
    # like the other two: read-only, kept by copies, absent from the repr
    record = ConcreteSet(cofinite, (3, 0))
    assert record.contains_b is holds_b
    with pytest.raises(AttributeError):
        record.contains_b = not holds_b
    with pytest.raises(AttributeError):
        del record.contains_b
    assert record.contains_b is holds_b and repr(record) == text
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert clone.contains_b is holds_b and repr(clone) == text


@pytest.mark.parametrize("make, message", [
    (lambda: ConcreteSet(1, ()), "cofinite must be bool, got 1"),
    (lambda: ConcreteSet(False, (1.5,)), "a ground-set element must be int, got 1.5"),
    (lambda: ConcreteSet(True, (True,)), "a ground-set element must be int, got True"),
    (lambda: ConcreteSet.finite((2, -1)), "ground-set elements are naturals"),
    (lambda: SubsetDescriptor(3, True, ALEPH0), "size must be Cardinal, got 3"),
    (lambda: SubsetDescriptor(F(3), 1, ALEPH0), "contains_b must be bool, got 1"),
    (lambda: SubsetDescriptor(F(3), True, (True, 0)), "cosize must be Cardinal, got (True, 0)"),
    (lambda: SpaceDescriptor(3), "the space size must be a Cardinal, got 3"),
    (lambda: SpaceDescriptor(None), "the space size must be a Cardinal, got None"),
    (lambda: SpaceDescriptor((True, 0)), "the space size must be a Cardinal, got (True, 0)"),
    (lambda: LambdaValue.exact(3), "design multiplicity must be Cardinal, got 3"),
    (lambda: LambdaValue.exact((False, 3)),
     "design multiplicity must be Cardinal, got (False, 3)"),
    (lambda: LambdaValue.family_size(5), "family-size label must be str, got 5"),
    (lambda: OddTailBlock(True), "an odd-tail block index must be int, got True"),
    (lambda: OddTailBlock(2.0), "an odd-tail block index must be int, got 2.0"),
    (lambda: OddTailBlock(0), "odd-tail blocks are numbered from 1"),
    (lambda: FiniteInstance(4.0, (), 1, 2), "n must be int, got 4.0"),
    (lambda: FiniteInstance(4, (), True, 2), "c_size must be int, got True"),
    (lambda: FiniteInstance(4, (), 1, "2"), "d_size must be int, got '2'"),
    (lambda: FiniteInstance(1, (), 1, 1), "ground set needs at least 2 elements"),
    (lambda: FiniteInstance(4, (), 0, 2),
     "sizes must satisfy 1 <= c_size <= d_size <= n"),
    (lambda: FiniteInstance(4, (), 3, 2),
     "sizes must satisfy 1 <= c_size <= d_size <= n"),
    (lambda: FiniteInstance(4, (), 1, 5),
     "sizes must satisfy 1 <= c_size <= d_size <= n"),
    (lambda: FiniteInstance(4, ((0, 1), (1, 4)), 1, 2), "block 1 leaves the ground set at 4"),
    (lambda: FiniteInstance(4, ((0, True),), 1, 2), "block 0 leaves the ground set at True"),
    (lambda: FiniteInstance(4, ((0, -1),), 1, 2), "block 0 leaves the ground set at -1"),
    (lambda: FiniteInstance(4, ((0, 1), (1, 0)), 1, 2), "blocks must be pairwise distinct"),
    (lambda: FiniteInstance(3, None, 1, 2), "blocks must be an iterable of sets, got None"),
    (lambda: FiniteInstance(3, (5,), 1, 2), "blocks must be an iterable of sets, got (5,)"),
    (lambda: FiniteInstance(3, ((0,), [[0]]), 1, 1),
     "blocks must be an iterable of sets, got ((0,), [[0]])"),
])
def test_validation_messages_are_pinned(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


NO = Verdict.no("t3-case1", "b is in C but not in D")
INSTANCE = FiniteInstance(4, ((0, 1), (1, 2)), 1, 2)


# (record, bad fields, the constructor's message, good fields, the record
# they make) for every record that validates on construction
REPLACEMENTS = [
    (F(3), {"value": -1}, "cardinal value must be >= 0, got -1", {"value": 4}, F(4)),
    (F(5), {"infinite": 1}, "cardinal flag infinite must be bool, got 1",
     {"infinite": True, "value": 1}, ALEPH1),
    (LambdaValue.exact(ALEPH0), {"family": "W"},
     "LambdaValue is either exact or a family size", {"value": ALEPH1},
     LambdaValue.exact(ALEPH1)),
    (D, {"size": (False, 3)}, "size must be Cardinal, got (False, 3)", {"size": F(2)}, C),
    (D, {"contains_b": "no"}, "contains_b must be bool, got 'no'", {"contains_b": False},
     SubsetDescriptor(F(3), False, ALEPH0)),
    (D, {"cosize": 0}, "cosize must be Cardinal, got 0", {"cosize": F(4)},
     SubsetDescriptor(F(3), True, F(4))),
    (SpaceDescriptor(ALEPH0), {"size": F(3)}, "the ambient space must be infinite",
     {"size": ALEPH1}, SpaceDescriptor(ALEPH1)),
    (NO, {"case_tag": "bogus"}, "unknown case tag 'bogus'", {"case_tag": "t3-case2"},
     Verdict.no("t3-case2", "b is in C but not in D")),
    (NO, {"exists": True}, "existence verdicts carry a multiplicity and a witness",
     {"reason": "r"}, Verdict.no("t3-case1", "r")),
    (PointMap(), {"exceptions": ((1, 2), (1, 3))},
     "exception table must map each source point once", {"exceptions": ((2, 1), (1, 2))},
     PointMap(True, ((1, 2), (2, 1)))),
    (OddTailBlock(2), {"index": 0}, "odd-tail blocks are numbered from 1", {"index": 5},
     OddTailBlock(5)),
    (INSTANCE, {"c_size": 3}, "sizes must satisfy 1 <= c_size <= d_size <= n",
     {"c_size": 2}, FiniteInstance(4, ((0, 1), (1, 2)), 2, 2)),
    (INSTANCE, {"blocks": ((0, 4),)}, "block 0 leaves the ground set at 4",
     {"blocks": [[2, 3]]}, FiniteInstance(4, (frozenset({2, 3}),), 1, 2)),
]


def test_every_validated_record_has_a_replacement_row():
    # a record that validates in __new__ has a _make and a _replace that
    # validate too, and its rows below check that they do
    rows = {type(record) for record, *_ in REPLACEMENTS}
    assert set(_Validated.__subclasses__()) - rows == set()


@pytest.mark.parametrize("record, bad, message, good, expected", REPLACEMENTS, ids=[
    f"{type(record).__name__}-{'-'.join(bad)}" for record, bad, *_ in REPLACEMENTS
])
def test_replace_and_make_validate_like_the_constructor(record, bad, message, good, expected):
    with pytest.raises(ValueError) as raised:
        record._replace(**bad)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        type(record)._make({**record._asdict(), **bad}.values())
    assert str(raised.value) == message
    for made in (record._replace(**good), type(record)._make(tuple(expected))):
        assert made == expected and type(made) is type(record)
        assert repr(made) == repr(expected)
