import copy
import functools
import hashlib
import itertools
import pickle
import re

import pytest
from hypothesis import example, given, strategies as st

from fortdesign.cardinal import ALEPH0, ALEPH1, Cardinal, LambdaValue, csum
from fortdesign import designs
from fortdesign.descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    cosize_minus_b,
    descriptor_grid,
    size_minus_b,
)
from fortdesign.designs import (
    CASE_TAGS,
    ClassL,
    ClassW,
    CrosscheckReport,
    DescriptorError,
    DesignType,
    FamilyDescriptor,
    OddTail,
    Singleton,
    Verdict,
    crosscheck,
    decide,
    decide_type1,
    decide_type2,
    decide_type3,
    decide_type4,
    sweep,
    witness_violations,
)

X0 = SpaceDescriptor(ALEPH0)
X1 = SpaceDescriptor(ALEPH1)
F = Cardinal.finite


def sd(size, b, cosize):
    return SubsetDescriptor(size, b, cosize)


class TestType1:
    def test_finite_c_without_b_fails(self):
        v = decide_type1(sd(F(3), False, ALEPH0), sd(F(7), False, ALEPH0), X0)
        assert not v.exists and v.case_tag == "a1"

    def test_countable_split_gives_odd_tail(self):
        v = decide_type1(sd(F(2), True, ALEPH0), sd(ALEPH0, True, ALEPH0), X0)
        assert v.exists and v.case_tag == "c1-case2"
        assert v.lambda_ == LambdaValue.exact(ALEPH0)
        assert v.witness == OddTail()

    def test_bound_failure(self):
        v = decide_type1(sd(F(3), True, ALEPH0), sd(F(4), True, ALEPH0), X0)
        assert not v.exists and v.case_tag == "c1-bound"

    def test_space_minus_b_witness(self):
        v = decide_type1(sd(ALEPH0, False, F(1)), sd(ALEPH0, False, F(1)), X0)
        assert v.exists and v.case_tag == "a3"
        assert v.lambda_ == LambdaValue.exact(F(1))
        assert v.witness == Singleton(sd(ALEPH0, False, F(1)))

    def test_finite_d_multiplicity_is_the_space_size(self):
        v = decide_type1(sd(F(3), True, ALEPH1), sd(F(6), True, ALEPH1), X1)
        assert v.exists and v.case_tag == "c1-case5"
        assert v.lambda_ == LambdaValue.exact(ALEPH1)
        assert v.witness == ClassW(sd(F(6), True, ALEPH1))

    def test_remaining_branches(self):
        # card(C) > card(D) is refused before anything else
        v = decide_type1(sd(F(5), True, ALEPH0), sd(F(2), True, ALEPH0), X0)
        assert not v.exists and v.case_tag == "remark-card"
        # b in C only
        v = decide_type1(sd(F(2), True, ALEPH0), sd(F(9), False, ALEPH0), X0)
        assert not v.exists and v.case_tag == "b"
        # infinite C below the space size with b in D
        v = decide_type1(sd(ALEPH0, True, ALEPH1), sd(ALEPH0, True, ALEPH1), X1)
        assert v.exists and v.case_tag == "c2"
        # full-size C with b in D: only D = X works
        v = decide_type1(sd(ALEPH0, True, ALEPH0), sd(ALEPH0, True, F(0)), X0)
        assert v.exists and v.case_tag == "c3"
        assert v.witness == Singleton(sd(ALEPH0, True, F(0)))
        v = decide_type1(sd(ALEPH0, True, ALEPH0), sd(ALEPH0, True, ALEPH0), X0)
        assert not v.exists and v.case_tag == "c3"
        # infinite C without b, below the space size
        v = decide_type1(sd(ALEPH0, False, ALEPH1), sd(ALEPH0, False, ALEPH1), X1)
        assert v.exists and v.case_tag == "a2"
        assert v.lambda_ == LambdaValue.family_size("W")

    def test_uncountable_space_with_infinite_d(self):
        v = decide_type1(sd(F(2), True, ALEPH1), sd(ALEPH0, True, ALEPH1), X1)
        assert v.exists and v.case_tag == "c1-case1"
        assert v.lambda_ == LambdaValue.family_size("W")
        # countable cofinite D and D = X
        v = decide_type1(sd(F(2), True, ALEPH0), sd(ALEPH0, True, F(3)), X0)
        assert v.exists and v.case_tag == "c1-case3"
        assert v.lambda_ == LambdaValue.exact(ALEPH0)
        v = decide_type1(sd(F(2), True, ALEPH0), sd(ALEPH0, True, F(0)), X0)
        assert v.exists and v.case_tag == "c1-case4"
        assert v.lambda_ == LambdaValue.exact(F(1))


class TestType2:
    def test_equal_finite_sizes_have_multiplicity_one(self):
        v = decide_type2(sd(F(5), False, ALEPH0), sd(F(5), True, ALEPH0), X0)
        assert v.exists and v.case_tag == "t2-finite"
        assert v.lambda_ == LambdaValue.exact(F(1))
        assert v.witness == ClassL(sd(F(5), True, ALEPH0))

    def test_smaller_finite_c_gets_the_class_size(self):
        v = decide_type2(sd(F(2), False, ALEPH0), sd(F(5), True, ALEPH0), X0)
        assert v.exists and v.lambda_ == LambdaValue.family_size("L")

    def test_oversized_c_fails(self):
        v = decide_type2(sd(ALEPH0, True, ALEPH0), sd(F(9), False, ALEPH0), X0)
        assert not v.exists and v.case_tag == "remark-card"

    def test_full_size_c_single_block(self):
        v = decide_type2(sd(ALEPH1, True, ALEPH1), sd(ALEPH1, True, F(0)), X1)
        assert v.exists and v.case_tag == "t2-full"
        assert v.lambda_ == LambdaValue.exact(F(1))
        assert v.witness == Singleton(sd(ALEPH1, True, F(0)))
        # when D misses b the block is the space without b
        v = decide_type2(sd(ALEPH0, False, ALEPH0), sd(ALEPH0, False, ALEPH0), X0)
        assert v.exists and v.witness == Singleton(sd(ALEPH0, False, F(1)))

    def test_delegation_to_type1(self):
        v = decide_type2(sd(ALEPH0, True, ALEPH1), sd(ALEPH0, True, ALEPH1), X1)
        assert v.exists and v.case_tag == "t2-small"
        inner = decide_type1(sd(ALEPH0, True, ALEPH1), sd(ALEPH0, True, ALEPH1), X1)
        assert v.lambda_ == inner.lambda_ and v.witness == inner.witness


class TestType3:
    def test_singleton_probe_with_b(self):
        v = decide_type3(sd(F(1), True, ALEPH0), sd(ALEPH0, True, ALEPH0), X0)
        assert v.exists and v.case_tag == "t3"
        assert v.lambda_ == LambdaValue.family_size("{E in W : C subset E}")
        assert v.witness == ClassW(sd(ALEPH0, True, ALEPH0))

    def test_complement_condition(self):
        v = decide_type3(sd(ALEPH0, True, F(2)), sd(ALEPH0, True, ALEPH0), X0)
        assert not v.exists and v.case_tag == "t3-case4"

    def test_b_in_c_only(self):
        v = decide_type3(sd(F(2), True, ALEPH0), sd(F(10), False, ALEPH0), X0)
        assert not v.exists and v.case_tag == "t3-case1"

    def test_size_cases(self):
        v = decide_type3(sd(F(5), True, ALEPH0), sd(F(3), True, ALEPH0), X0)
        assert not v.exists and v.case_tag == "t3-case2"
        v = decide_type3(sd(F(5), False, ALEPH0), sd(F(5), True, ALEPH0), X0)
        assert not v.exists and v.case_tag == "t3-case3"


class TestType4:
    def test_reuses_type2_witness(self):
        c, d = sd(F(2), False, ALEPH0), sd(F(5), True, ALEPH0)
        v2, v4 = decide_type2(c, d, X0), decide_type4(c, d, X0)
        assert v4.exists and v4.case_tag == "t4"
        assert (v4.lambda_, v4.witness) == (v2.lambda_, v2.witness)

    def test_embedding_failure(self):
        v = decide_type4(sd(ALEPH0, True, ALEPH0), sd(ALEPH0, False, ALEPH0), X0)
        assert not v.exists

    def test_singleton_into_singleton(self):
        v = decide_type4(sd(F(1), False, ALEPH0), sd(F(1), False, ALEPH0), X0)
        assert v.exists and v.lambda_ == LambdaValue.exact(F(1))
        assert v.witness == ClassL(sd(F(1), False, ALEPH0))


class TestCrosscheck:
    def test_all_true_when_no_design(self):
        report = crosscheck(sd(ALEPH0, True, ALEPH0), sd(F(3), True, ALEPH0), X0)
        assert tuple(report) == (True, True, True, True)
        assert report.consistent and report.disagreements() == []

    def test_all_false_when_design_exists(self):
        report = crosscheck(sd(F(2), True, ALEPH0), sd(F(4), False, ALEPH0), X0)
        assert tuple(report) == (False, False, False, False)

    def test_grid_sweep_is_clean(self):
        report = sweep()
        assert report.cases > 0
        assert report.violations == ()

    def test_fault_injection_is_detected(self):
        report = sweep(inject_fault=True)
        assert report.violations


def test_every_grid_pair_gets_a_verdict():
    for space in (X0, X1):
        grid = descriptor_grid(space)
        for c, d in itertools.product(grid, repeat=2):
            for t in DesignType:
                v = decide(t, c, d, space)
                assert isinstance(v, Verdict)
                assert v.case_tag in CASE_TAGS
                assert decide(t, c, d, space) == v  # deterministic


def test_witness_sanity_on_the_grid():
    grid = descriptor_grid(X0, max_finite=4)
    for c, d in itertools.product(grid, repeat=2):
        for t in DesignType:
            v = decide(t, c, d, X0)
            if v.exists:
                assert witness_violations(v.witness, d, X0) == []


PUBLIC_ENTRIES = [
    *(
        pytest.param(functools.partial(decide, t), id=f"decide-{t.name}")
        for t in DesignType
    ),
    decide_type1,
    decide_type2,
    decide_type3,
    decide_type4,
    crosscheck,
]
VALID = sd(F(3), True, ALEPH0)
INVALID_INPUTS = [
    pytest.param(sd(ALEPH1, True, ALEPH1), VALID, "C: ", id="invalid-C"),
    pytest.param(VALID, sd(F(3), True, F(5)), "D: ", id="invalid-D"),
    pytest.param(sd(F(0), False, ALEPH0), VALID, "C: must be nonempty", id="empty-C"),
    # a plain tuple or None raised AttributeError reading .size
    pytest.param((F(3), True, ALEPH0), VALID, "C: must be a SubsetDescriptor, got "
                 "(Cardinal.finite(3), True, Cardinal.aleph(0))", id="tuple-C"),
    pytest.param(None, VALID, "C: must be a SubsetDescriptor, got None", id="None-C"),
    pytest.param(VALID, None, "D: must be a SubsetDescriptor, got None", id="None-D"),
]


@pytest.mark.parametrize("c, d, expected", INVALID_INPUTS)
@pytest.mark.parametrize("entry", PUBLIC_ENTRIES)
def test_invalid_inputs_are_rejected(entry, c, d, expected):
    with pytest.raises(DescriptorError) as caught:
        entry(c, d, X0)
    assert caught.value.violations
    assert all(v.startswith(expected) for v in caught.value.violations)


@pytest.mark.parametrize("space", [(ALEPH0,), None])
@pytest.mark.parametrize("entry", PUBLIC_ENTRIES)
def test_a_space_of_the_wrong_type_is_refused_before_c_and_d(entry, space):
    # reading .size off it raised AttributeError
    message = f"space: must be a SpaceDescriptor, got {space!r}"
    with pytest.raises(DescriptorError) as caught:
        entry(None, None, space)
    assert caught.value.violations == (message,)
    assert str(caught.value) == message


BAD_COSIZE = "max(size, cosize) must equal card(X)=aleph0, got size=3, cosize=5"


def test_violations_are_listed_descriptor_by_descriptor():
    # C's invariant violations and its emptiness, then D's
    with pytest.raises(DescriptorError) as caught:
        decide(1, sd(F(0), True, ALEPH0), sd(F(3), True, F(5)), X0)
    assert caught.value.violations == (
        "C: the empty set cannot contain b",
        "C: must be nonempty",
        f"D: {BAD_COSIZE}",
    )
    assert str(caught.value) == "; ".join(caught.value.violations)


def test_witness_violations_name_the_invalid_part():
    empty = sd(F(0), False, ALEPH0)
    for family in (ClassW(empty), ClassL(empty)):
        assert witness_violations(family, VALID, X0) == ["class base: must be nonempty"]
    assert witness_violations(Singleton(sd(F(3), True, F(5))), VALID, X0) == [
        f"singleton member: {BAD_COSIZE}"
    ]
    assert witness_violations(ClassW(None), VALID, X0) == [
        "class base: must be a SubsetDescriptor, got None"
    ]


@pytest.mark.parametrize("index", range(4))
def test_a_class_family_is_checked_by_its_base_alone(index):
    # sweep runs one check for W(D) and L(D): it rests on this
    space = SpaceDescriptor(Cardinal.aleph(index))
    malformed = [None, sd(F(0), False, space.size)]
    for base in [*descriptor_grid(space, 6), *malformed]:
        for d in (base, VALID):
            problems = witness_violations(ClassW(base), d, space)
            assert problems == witness_violations(ClassL(base), d, space)
            assert bool(problems) == (base in malformed)


NO_SPACE = ["space: must be a SpaceDescriptor, got None"]


@pytest.mark.parametrize("witness, d, space, problems", [
    (OddTail(), sd(ALEPH0, True, ALEPH0), None, NO_SPACE),
    (OddTail(), None, None, NO_SPACE),
    (ClassW(VALID), VALID, None, NO_SPACE),
    (Singleton(VALID), VALID, ALEPH0,
     ["space: must be a SpaceDescriptor, got Cardinal.aleph(0)"]),
    (OddTail(), None, X0, ["D: must be a SubsetDescriptor, got None"]),
    (OddTail(), sd(F(3), True, F(5)), X0, [f"D: {BAD_COSIZE}"]),
    # a valid D reaches the family's own conditions; W reads no D
    (OddTail(), VALID, X0, ["odd-tail family needs countably infinite D"]),
    # validate accepts an empty D: the family's conditions name what it lacks
    (OddTail(), sd(F(0), False, ALEPH0), X0,
     ["odd-tail family needs b in D", "odd-tail family needs countably infinite D"]),
    (ClassW(VALID), None, X0, []),
    # a descriptor is not a family
    (VALID, VALID, X0, [f"unknown family {VALID!r}"]),
], ids=["odd-tail", "odd-tail-no-d", "class-w", "singleton", "no-d", "bad-cosize",
        "finite-d", "empty-d", "class-w-reads-no-d", "unknown-family"])
def test_witness_violations_report_wrong_typed_arguments(witness, d, space, problems):
    assert witness_violations(witness, d, space) == problems


def test_sweep_case_count_is_the_grid_closed_form():
    for m in range(30):
        for finite_only in (False, True):
            total = 0
            for index in range(13):
                grid = descriptor_grid(SpaceDescriptor(Cardinal.aleph(index)), m, finite_only)
                total += len(grid) ** 2
                assert designs._sweep_cases(index, m, finite_only) == total


@pytest.fixture
def no_case_runs(monkeypatch):
    """Any grid built or case run fails the test."""
    monkeypatch.setattr(designs, "descriptor_grid", None)
    monkeypatch.setattr(designs, "_obstruction", None)


@pytest.mark.parametrize("max_finite, finite_sizes_only, cases", [
    (1000, False, 32_080_058),
    (10**5, False, 320_008_000_058),
    (10**5, True, 8 * 10**10),
])
def test_sweep_over_budget_is_refused_before_any_case(
    no_case_runs, max_finite, finite_sizes_only, cases
):
    with pytest.raises(ValueError, match=f"a sweep of {cases} cases exceeds the budget"):
        sweep(max_finite=max_finite, finite_sizes_only=finite_sizes_only)


@pytest.mark.parametrize("max_aleph, cases", [
    (20, 106_589),
    (10**12, 5_333_333_333_449_333_333_334_173_000_000_000_729),
])
def test_sweep_of_a_ladder_over_budget_is_refused_before_any_space(
    no_case_runs, monkeypatch, max_aleph, cases
):
    # any aleph index is a space, so the budget alone bounds the ladder,
    # counted before a space is built
    monkeypatch.setattr(designs, "SpaceDescriptor", None)
    with pytest.raises(ValueError, match=f"^a sweep of {cases} cases exceeds the budget"):
        sweep(max_aleph=max_aleph)


@pytest.mark.parametrize("args, message", [
    # the first three once ran as other input: a vacuous 0-case sweep, 4
    # cases after a budget check of 81, and max_aleph 1
    ((-1, 6), "max_aleph must be >= 0, got -1"),
    ((0, -3), "max_finite must be >= 1, got -3"),
    ((True, 2), "max_aleph must be int, got True"),
    ((0, 0), "max_finite must be >= 1, got 0"),
    ((1, True), "max_finite must be int, got True"),
    ((1.0, 2), "max_aleph must be int, got 1.0"),
    ((0, 2, 1), "finite_sizes_only must be bool, got 1"),
    ((0, 2, False, None), "inject_fault must be bool, got None"),
])
def test_sweep_bad_arguments_are_refused_before_any_case(no_case_runs, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(*args)


LATTICE_EDGES = [(1, 2), (1, 3), (2, 4), (3, 4)]


def strength(t):
    """Where t holds the stronger condition: II over I, III over IV."""
    return t.condition_ii, not t.condition_iv


@pytest.mark.parametrize("t, conditions", [
    (DesignType.TYPE1, (True, False)),
    (DesignType.TYPE2, (False, False)),
    (DesignType.TYPE3, (True, True)),
    (DesignType.TYPE4, (False, True)),
])
def test_each_type_names_its_conditions_and_implies_each_weakening(t, conditions):
    assert (t.condition_ii, t.condition_iv) == conditions
    # the lattice's edges out of t go to the types that weaken exactly one of
    # its conditions, II to I or III to IV
    weakenings = {
        u for u in DesignType
        if [a - b for a, b in zip(strength(t), strength(u))] in ([1, 0], [0, 1])
    }
    assert {u for s, u in designs._IMPLIED_TYPES if s == t} == weakenings
    assert len(set(designs._IMPLIED_TYPES)) == len(designs._IMPLIED_TYPES)


def refusal_only(t):
    """A table for type t whose one row refuses every case, with a known tag."""
    table = designs._RULES[DesignType(t)]
    tag = next(tag for tag, _, _, outcome in table if isinstance(outcome, str))
    return ((tag, 0, 0, "never"),)


@pytest.mark.parametrize("s, t", LATTICE_EDGES)
def test_sweep_checks_each_edge_of_the_condition_lattice(monkeypatch, s, t):
    monkeypatch.setitem(designs._RULES, DesignType(t), refusal_only(t))
    report = sweep(max_aleph=0, max_finite=2)
    assert any(
        v.endswith(f": type {s} exists but type {t} does not") for v in report.violations
    )


@pytest.mark.parametrize("outcome", [
    "never",
    (designs._ALEPH0_BLOCKS, ClassW),
], ids=["refusal", "existence"])
def test_sweep_rejects_an_unknown_case_tag(monkeypatch, outcome):
    monkeypatch.setitem(designs._RULES, DesignType.TYPE3, (("t5", 0, 0, outcome),))
    with pytest.raises(ValueError, match="unknown case tag 't5'"):
        sweep(max_aleph=0, max_finite=1)


def test_sweep_plans_follow_the_rule_set(monkeypatch):
    before = sweep(max_aleph=0, max_finite=2)
    with monkeypatch.context() as patch:
        patch.setitem(designs._RULES, DesignType.TYPE3, refusal_only(3))
        patched = sweep(max_aleph=0, max_finite=2)
    assert sweep(max_aleph=0, max_finite=2) == before
    assert before.consistent
    assert any(
        v.endswith(": type 1 exists but type 3 does not") for v in patched.violations
    )


def test_sweep_plans_each_mask_of_one_rule_set_once(monkeypatch):
    monkeypatch.setattr(designs, "_plans", ((), {}))
    sweep(max_aleph=3, max_finite=10)
    rules, plans = designs._plans
    assert rules == tuple(designs._RULES.items())
    masks = set()
    for index in range(4):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space, 10)
        masks |= {case_mask(c, d, space) for c, d in itertools.product(grid, repeat=2)}
    assert set(plans) == masks and len(masks) == 160


def counted(monkeypatch, name):
    """The argument tuples of every later call of ``designs.<name>``."""
    calls, call = [], getattr(designs, name)

    def wrapper(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(designs, name, wrapper)
    return calls


def test_faulted_sweeps_in_one_process_keep_their_own_text(monkeypatch):
    # a violation's parts, a descriptor's text and a crosscheck clause, are
    # made once per call: a second faulted sweep, over another grid that
    # shares descriptors with the first, equals the same sweep run first
    configs = [(1, 2, False, True), (2, 3, True, True)]
    first = {}
    for config in configs:
        monkeypatch.setattr(designs, "_plans", ((), {}))
        first[config] = sweep(*config)
        assert first[config].violations
    for order in (configs, configs[::-1]):
        monkeypatch.setattr(designs, "_plans", ((), {}))
        assert [sweep(*config) for config in order] == [first[config] for config in order]


def test_a_second_sweep_decides_no_row(monkeypatch):
    # lists compare unequal to the tuples they copy: a fresh rule set
    monkeypatch.setattr(
        designs, "_RULES", {t: list(table) for t, table in designs._RULES.items()}
    )
    calls = counted(monkeypatch, "_deciding_row")
    first = sweep()
    planned = len(calls)
    assert sweep() == first and first.consistent
    assert planned > 0 and len(calls) == planned


def check_key(kind, d, space):
    """(what a check of kind's family over D reads, X): D for W and L alike,
    D's b flag for the singleton, D for odd-tail."""
    if kind is ClassW or kind is ClassL:
        return "class base", d, space
    if kind is Singleton:
        return "singleton", d.contains_b, space
    return "odd-tail", d, space


def witness_keys(max_aleph, max_finite, finite_sizes_only=False):
    """The check key of every existence verdict a sweep meets -> the (kind,
    D) pairs behind it, read off each case's deciding row."""
    keys = {}
    for index in range(max_aleph + 1):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space, max_finite, finite_sizes_only)
        for c, d in itertools.product(grid, repeat=2):
            for table in designs._RULES.values():
                outcome = table[deciding_row(table, c, d, space)][3]
                if not isinstance(outcome, str):
                    keys.setdefault(check_key(outcome[1], d, space), set()).add(
                        (outcome[1], d)
                    )
    return keys


def counted_builds(monkeypatch):
    """The (kind, D, X) of every later family built from ``designs._KINDS``."""
    builds = []
    for kind, (build, reads) in list(designs._KINDS.items()):
        def counted_build(d, x, kind=kind, build=build):
            builds.append((kind, d, x))
            return build(d, x)
        monkeypatch.setitem(designs._KINDS, kind, (counted_build, reads))
    return builds


def built_verdicts(monkeypatch):
    """The arguments of every later ``Verdict`` construction."""
    verdicts, build = [], Verdict.__new__

    def counted_build(cls, *args, **kwargs):
        verdicts.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Verdict, "__new__", counted_build)
    return verdicts


@pytest.mark.parametrize("config", [(1, 6, False), (3, 2, True), (0, 1, False)])
def test_a_sweep_checks_each_witness_once_per_descriptor(monkeypatch, config):
    # a check reads D for W and L, D's b flag for the singleton, D for
    # odd-tail: one witness_violations call, and at most one family built,
    # per (what the kind reads, X), so W(D) and L(D) share one check, and
    # every D with b shares one singleton check
    expected = witness_keys(*config)
    kinds_per_key = [{kind for kind, _ in pairs} for pairs in expected.values()]
    assert {ClassW, ClassL} in kinds_per_key
    # the finite-sizes grid has no singleton witness
    assert config[2] or any(
        key[0] == "singleton" and len(pairs) > 1 for key, pairs in expected.items()
    )
    grids = [
        (d, space)
        for space in (SpaceDescriptor(Cardinal.aleph(i)) for i in range(config[0] + 1))
        for d in descriptor_grid(space, *config[1:])
    ]
    calls = {name: counted(monkeypatch, name) for name in ("_facts", "witness_violations")}
    builds = counted_builds(monkeypatch)
    verdicts = built_verdicts(monkeypatch)

    def work():
        return list(calls["witness_violations"]), list(builds), list(calls["_facts"])

    assert sweep(*config).consistent
    checked, built, facts = work()
    keys = [check_key(type(family), d, space) for family, d, space in checked]
    assert len(keys) == len(set(keys)) and set(keys) == set(expected)
    built_keys = [check_key(*args) for args in built]
    assert len(built_keys) == len(set(built_keys)) and set(built_keys) == set(expected)
    assert facts == grids
    # nothing is kept across calls: a second sweep does the same work again
    sweep(*config)
    assert work() == (checked * 2, built * 2, facts * 2)
    # and neither sweep builds a verdict, as decide does
    assert verdicts == []
    d, space = grids[0]
    decide(1, d, d, space)
    assert len(verdicts) == 1


def test_crosscheck_builds_no_verdict(monkeypatch):
    # crosscheck reads no_type2 and no_type4 from the case's plan, as sweep
    # does, and agrees with decide's verdicts
    grid = descriptor_grid(X0, 3)
    expected = {
        (c, d): (not decide(2, c, d, X0).exists, not decide(4, c, d, X0).exists)
        for c, d in itertools.product(grid, repeat=2)
    }
    verdicts = built_verdicts(monkeypatch)
    for (c, d), statements in expected.items():
        report = crosscheck(c, d, X0)
        assert (report.no_type2, report.no_type4) == statements
    assert verdicts == []
    # the plan checks the tag of each deciding row, as a verdict would
    relabelled = tuple(
        row if isinstance(row[3], str) else ("t5", *row[1:])
        for row in designs._RULES[DesignType.TYPE2]
    )
    monkeypatch.setitem(designs._RULES, DesignType.TYPE2, relabelled)
    c, d = sd(F(1), True, ALEPH0), sd(ALEPH0, True, ALEPH0)
    with pytest.raises(ValueError, match="unknown case tag 't5'"):
        crosscheck(c, d, X0)


def test_sweep_checks_the_tag_of_a_row_that_shares_its_outcome(monkeypatch):
    # type 4's rows keep type 2's outcomes, so type 2 checks each witness
    # first; the unknown tag must still be refused
    relabelled = tuple(
        row if isinstance(row[3], str) else ("t5", *row[1:])
        for row in designs._RULES[DesignType.TYPE4]
    )
    monkeypatch.setitem(designs._RULES, DesignType.TYPE4, relabelled)
    with pytest.raises(ValueError, match="unknown case tag 't5'"):
        sweep(max_aleph=0, max_finite=1)


def test_a_patched_rule_set_meets_a_warm_slot(monkeypatch):
    sweep()
    before = sweep(max_aleph=1, max_finite=2)
    assert before.consistent
    odd_tail = (designs._ALEPH0_BLOCKS, OddTail)
    patched = tuple(
        row if isinstance(row[3], str) else (*row[:3], odd_tail)
        for row in designs._RULES[DesignType.TYPE3]
    )
    with monkeypatch.context() as patch:
        patch.setitem(designs._RULES, DesignType.TYPE3, patched)
        report = sweep(max_aleph=1, max_finite=2)
    assert any(
        v.startswith("X=aleph1 ")
        and v.endswith(": type 3 witness: odd-tail family needs a countable space")
        for v in report.violations
    )
    assert sweep(max_aleph=1, max_finite=2) == before


def test_sweep_reports_an_existing_type_with_a_larger_c(monkeypatch):
    always = (("t3", 0, 0, (designs._CARD_W_CONTAINING_C, ClassW)),)
    monkeypatch.setitem(designs._RULES, DesignType.TYPE3, always)
    c, d = sd(F(2), False, ALEPH0), sd(F(1), False, ALEPH0)
    assert (
        f"X=aleph0 C={c} D={d}: type 3 exists with card(C) > card(D)"
    ) in sweep(max_aleph=0, max_finite=2).violations


@pytest.mark.parametrize("kind", [
    # a family class that is not a kind, a function of (D, X) that builds a
    # kind's family, and a kind's name
    FamilyDescriptor, lambda d, x: ClassW(d), "W",
], ids=["family-base-class", "function", "name"])
def test_a_row_naming_an_unknown_kind_is_refused(monkeypatch, kind):
    always = (("t3", 0, 0, (designs._CARD_W_CONTAINING_C, kind)),)
    monkeypatch.setitem(designs._RULES, DesignType.TYPE3, always)
    d = sd(F(1), False, ALEPH0)
    message = re.escape(f"unknown witness kind {kind!r}")
    for refused in (
        lambda: sweep(max_aleph=0, max_finite=1),
        lambda: decide(3, d, d, X0),
        lambda: crosscheck(d, d, X0),
    ):
        with pytest.raises(ValueError, match=message):
            refused()


WITNESS_KINDS = {ClassW, ClassL, Singleton, OddTail}


def test_every_existence_row_names_one_of_the_four_witnesses():
    assert set(designs._KINDS) == WITNESS_KINDS
    used = set()
    for table in designs._RULES.values():
        for tag, _, _, outcome in table:
            if isinstance(outcome, str):
                continue
            assert type(outcome) is tuple and len(outcome) == 2, tag
            multiplicity, kind = outcome
            # a multiplicity is a value; card(X), the one that reads the
            # space, is the placeholder decide resolves
            if tag == "c1-case5":
                assert multiplicity is designs._CARD_X, tag
            else:
                assert type(multiplicity) is LambdaValue, tag
            # a kind is a family class, never a function of D and X
            assert kind in WITNESS_KINDS, tag
            used.add(kind)
    assert used == WITNESS_KINDS


def with_kind(t, tag, kind):
    """Type t's table with the existence row(s) tagged ``tag`` naming kind."""
    return tuple(
        (*row[:3], (row[3][0], kind)) if row[0] == tag and not isinstance(row[3], str)
        else row
        for row in designs._RULES[DesignType(t)]
    )


@pytest.mark.parametrize("t, tag", dict.fromkeys(
    (int(t), tag)
    for t, table in designs._RULES.items()
    for tag, _, _, outcome in table
    if not isinstance(outcome, str) and outcome[1] is not OddTail
))
def test_sweep_flags_a_row_whose_kind_becomes_odd_tail(monkeypatch, t, tag):
    # odd-tail needs X, D and X \ D countable and b in D; every other
    # existence row decides some case where one of these fails, as c1-case5
    # does in every case: its D is finite
    monkeypatch.setitem(designs._RULES, DesignType(t), with_kind(t, tag, OddTail))
    assert any(
        f": type {t} witness: odd-tail family needs " in v
        for v in sweep(max_aleph=1, max_finite=3).violations
    )


def reference_sweep(max_aleph, max_finite, inject_fault):
    """sweep's violations at the grid's default finite sizes, case by case
    from the public decide, crosscheck and witness_violations."""
    violations = []
    cases = 0
    for index in range(max_aleph + 1):
        space = SpaceDescriptor(Cardinal.aleph(index))
        for c, d in itertools.product(descriptor_grid(space, max_finite), repeat=2):
            cases += 1
            verdicts = {t: decide(t, c, d, space) for t in DesignType}
            problems = []
            for t, v in verdicts.items():
                if v.exists:
                    if c.size > d.size:
                        problems.append(f"type {t} exists with card(C) > card(D)")
                    problems += [
                        f"type {t} witness: {p}"
                        for p in witness_violations(v.witness, d, space)
                    ]
            problems += [
                f"type {s} exists but type {t} does not"
                for s, t in LATTICE_EDGES
                if verdicts[s].exists and not verdicts[t].exists
            ]
            direct = crosscheck(c, d, space)
            report = direct._replace(
                obstruction=direct.obstruction != (inject_fault and cases % 7 == 0)
            )
            if not report.consistent:
                pairs = ", ".join("/".join(p) for p in report.disagreements())
                problems.append(f"crosscheck disagrees on {pairs}")
            violations += [f"X={space.size} C={c} D={d}: {p}" for p in problems]
    return tuple(violations)


@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("edge", [None, *LATTICE_EDGES])
def test_sweep_agrees_with_a_per_case_reference(monkeypatch, edge, inject_fault):
    # a warm slot: the patched rules must replace what this sweep kept
    sweep(max_aleph=1, max_finite=3, inject_fault=inject_fault)
    if edge is not None:
        t = edge[1]
        monkeypatch.setitem(designs._RULES, DesignType(t), refusal_only(t))
    expected = reference_sweep(1, 3, inject_fault)
    assert expected or not (inject_fault or edge)
    assert sweep(max_aleph=1, max_finite=3, inject_fault=inject_fault).violations == expected


def test_verdict_record_shape():
    v = decide_type1(sd(F(2), True, ALEPH0), sd(ALEPH0, True, ALEPH0), X0)
    assert v.to_record() == [
        ("exists", "true"),
        ("lambda", "aleph0"),
        ("witness", "odd-tail"),
        ("case_tag", "c1-case2"),
    ]
    v = decide_type1(sd(F(3), False, ALEPH0), sd(F(7), False, ALEPH0), X0)
    record = dict(v.to_record())
    assert record["exists"] == "false" and record["case_tag"] == "a1"
    assert record["reason"]


@pytest.mark.parametrize("design_type, c, d, space, expected", [
    (1, sd(F(1), True, ALEPH0), sd(F(3), True, ALEPH0), X0,
     "Verdict(exists=True, case_tag='c1-case5', "
     "lambda_=LambdaValue(value=Cardinal.aleph(0), family=None), "
     "witness=ClassW(base=SubsetDescriptor(size=Cardinal.finite(3), contains_b=True, "
     "cosize=Cardinal.aleph(0))), reason=None)"),
    (1, sd(F(1), True, ALEPH0), sd(ALEPH0, True, ALEPH0), X0,
     "Verdict(exists=True, case_tag='c1-case2', "
     "lambda_=LambdaValue(value=Cardinal.aleph(0), family=None), "
     "witness=OddTail(), reason=None)"),
    (3, sd(F(1), True, ALEPH0), sd(F(1), True, ALEPH0), X0,
     "Verdict(exists=True, case_tag='t3', "
     "lambda_=LambdaValue(value=None, family='{E in W : C subset E}'), "
     "witness=ClassW(base=SubsetDescriptor(size=Cardinal.finite(1), contains_b=True, "
     "cosize=Cardinal.aleph(0))), reason=None)"),
    (2, sd(ALEPH0, True, F(0)), sd(ALEPH0, True, F(0)), X0,
     "Verdict(exists=True, case_tag='t2-full', "
     "lambda_=LambdaValue(value=Cardinal.finite(1), family=None), "
     "witness=Singleton(member=SubsetDescriptor(size=Cardinal.aleph(0), contains_b=True, "
     "cosize=Cardinal.finite(0))), reason=None)"),
    (3, sd(F(1), True, ALEPH0), sd(F(1), False, ALEPH0), X0,
     "Verdict(exists=False, case_tag='t3-case1', lambda_=None, witness=None, "
     "reason='b is in C but not in D')"),
])
def test_verdict_repr_is_pinned(design_type, c, d, space, expected):
    assert repr(decide(design_type, c, d, space)) == expected


@pytest.mark.parametrize("design_type", [True, 1.0, "1", None])
def test_decide_rejects_a_design_type_that_is_not_an_int(design_type):
    with pytest.raises(ValueError, match="^design type must be an int 1..4, got "):
        decide(design_type, VALID, VALID, X0)


def test_verdict_construction_guards():
    with pytest.raises(ValueError):
        Verdict(True, "a2")  # existence needs a multiplicity and witness
    with pytest.raises(ValueError):
        Verdict.no("made-up-tag", "nope")


@pytest.mark.parametrize("make, message", [
    (lambda: Verdict(True, "a2"),
     "existence verdicts carry a multiplicity and a witness"),
    (lambda: Verdict.yes(None, OddTail(), "c1-case2"),
     "existence verdicts carry a multiplicity and a witness"),
    (lambda: Verdict.no("made-up-tag", "nope"), "unknown case tag 'made-up-tag'"),
    (lambda: Verdict(1, "a2", LambdaValue.exact(F(1)), ClassW(VALID)),
     "exists must be bool, got 1"),
    (lambda: Verdict.yes(3, ClassW(VALID), "a2"), "lambda_ must be LambdaValue, got 3"),
    (lambda: Verdict.yes(LambdaValue.exact(F(1)), "notafamily", "a2"),
     "witness must be a FamilyDescriptor, got 'notafamily'"),
    (lambda: Verdict(False, "b", LambdaValue.exact(F(1)), OddTail(), "r"),
     "refusals carry no multiplicity and no witness"),
    (lambda: Verdict(False, "b", witness=OddTail(), reason="r"),
     "refusals carry no multiplicity and no witness"),
    (lambda: Verdict(True, "a2", LambdaValue.exact(F(1)), OddTail(), "r"),
     "existence verdicts carry no reason"),
    (lambda: Verdict.no("b", 5), "a refusal's reason must be str, got 5"),
    (lambda: Verdict(False, "b"), "a refusal's reason must be str, got None"),
    (lambda: Verdict.no("b", ""), "a refusal's reason must be nonempty"),
])
def test_verdict_rejections_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


YES = Verdict.yes(LambdaValue.exact(ALEPH0), OddTail(), "c1-case2")
NO = Verdict.no("t3-case1", "b is in C but not in D")
REPORT = CrosscheckReport(True, False, True, True)


@pytest.mark.parametrize("record, field", [
    (YES, "exists"), (NO, "reason"), (REPORT, "obstruction"),
])
def test_verdict_and_report_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("record", [YES, NO, REPORT])
def test_verdict_and_report_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)
        assert repr(clone) == repr(record)


def test_a_raised_descriptor_error_survives_pickle_and_copy():
    # reconstruction calls DescriptorError(message), so violations keeps a default
    with pytest.raises(DescriptorError) as caught:
        decide(1, sd(F(0), True, ALEPH0), sd(F(3), True, F(5)), X0)
    error = caught.value
    for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error),
                  copy.deepcopy(error)):
        assert type(clone) is DescriptorError
        assert (str(clone), clone.violations) == (str(error), error.violations)


def test_verdict_and_report_equality_and_hashing():
    yes = Verdict(True, "c1-case2", LambdaValue.exact(ALEPH0), OddTail())
    assert yes == YES and hash(yes) == hash(YES)
    assert yes != Verdict.yes(LambdaValue.exact(ALEPH0), OddTail(), "c1-case3")
    assert NO == (False, "t3-case1", None, None, "b is in C but not in D")
    assert hash(NO) == hash((False, "t3-case1", None, None, "b is in C but not in D"))
    assert REPORT == (True, False, True, True)
    assert hash(REPORT) == hash((True, False, True, True))
    assert len({YES, yes, NO, REPORT, CrosscheckReport(True, False, True, True)}) == 3


def test_crosscheck_report_statements_and_disagreements():
    assert tuple(REPORT) == (True, False, True, True)
    assert not REPORT.consistent
    assert REPORT.disagreements() == [
        ("no_type2", "no_type4"),
        ("no_type4", "obstruction"),
        ("no_type4", "not_embeddable"),
    ]
    for value in (False, True):
        agreed = CrosscheckReport(value, value, value, value)
        assert agreed.consistent and agreed.disagreements() == []
    split = CrosscheckReport(False, False, True, True)
    assert not split.consistent
    assert split.disagreements() == [
        ("no_type2", "obstruction"),
        ("no_type2", "not_embeddable"),
        ("no_type4", "obstruction"),
        ("no_type4", "not_embeddable"),
    ]


def test_a_refusal_row_yields_one_verdict():
    first = decide(3, sd(F(1), True, ALEPH0), sd(F(1), False, ALEPH0), X0)
    assert first == NO
    assert decide(3, sd(F(2), True, ALEPH1), sd(F(5), False, ALEPH1), X1) == first


def test_decide_crosscheck_and_sweep_read_one_rule_set(monkeypatch):
    # C embeds into D, so the real tables say types 2 and 4 exist
    c, d = sd(F(1), True, ALEPH0), sd(ALEPH0, True, ALEPH0)
    assert decide(2, c, d, X0).exists and crosscheck(c, d, X0).consistent
    for t in (2, 4):
        monkeypatch.setitem(designs._RULES, DesignType(t), refusal_only(t))
    assert not decide(2, c, d, X0).exists and not decide(4, c, d, X0).exists
    report = crosscheck(c, d, X0)
    assert report.no_type2 and report.no_type4 and not report.obstruction
    assert (
        f"X=aleph0 C={c} D={d}: crosscheck disagrees on no_type2/obstruction, "
        "no_type2/not_embeddable, no_type4/obstruction, no_type4/not_embeddable"
    ) in sweep(0, 2).violations


def test_verdicts_on_the_aleph3_grid_are_pinned():
    # repr and record of every verdict for X = aleph0..aleph3 and C, D over
    # descriptor_grid(X, 8): any change to a table's answers, to a
    # verdict's repr or to its record changes the digest
    digest = hashlib.sha256()
    verdicts = 0
    for index in range(4):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space, 8)
        for c, d in itertools.product(grid, repeat=2):
            for t in DesignType:
                v = decide(t, c, d, space)
                digest.update(f"{v!r}\n{v.to_record()!r}\n".encode())
                verdicts += 1
    assert verdicts == 27_216
    assert digest.hexdigest() == (
        "ab6935327ce6b6112783ef6e42fa10c1e08fe67c8ab45256687b2b1cefc64da6"
    )


def test_fault_injected_sweep_violations_are_pinned():
    report = sweep(max_aleph=1, max_finite=2, inject_fault=True)
    assert report.cases == 346 and len(report.violations) == 49
    assert report.violations[0] == (
        "X=aleph0 C=(size=1,b=true,cosize=aleph0) "
        "D=(size=aleph0,b=false,cosize=1): crosscheck disagrees on "
        "no_type2/obstruction, no_type4/obstruction, obstruction/not_embeddable"
    )
    assert hashlib.sha256("\n".join(report.violations).encode()).hexdigest() == (
        "c88b4dbdfeb3654345212e8b692fde415849dc730de05968d81d7f8c1e6cd37e"
    )


def grid_cases():
    for index in range(4):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space)
        for c, d in itertools.product(grid, repeat=2):
            yield c, d, space


def case_mask(c, d, space):
    return designs._mask(designs._facts(c, space), designs._facts(d, space))


def deciding_row(table, c, d, space):
    m = case_mask(c, d, space)
    return next(
        i for i, (_, required, forbidden, _) in enumerate(table)
        if m & required == required and not m & forbidden
    )


def test_every_table_row_decides_some_grid_case():
    # no row is shadowed by the rows above it, and the last row catches the rest
    hits = {t: set() for t in DesignType}
    for c, d, space in grid_cases():
        for t, table in designs._RULES.items():
            row = deciding_row(table, c, d, space)
            hits[t].add(row)
            assert decide(t, c, d, space).case_tag == table[row][0]
    for t, table in designs._RULES.items():
        assert hits[t] == set(range(len(table))), t
        assert table[-1][1:3] == (0, 0)


# each guard atom and its reference predicate over (C, D, X)
ATOM_PREDICATES = {
    designs.B_IN_C: lambda c, d, x: c.contains_b,
    designs.C_FINITE: lambda c, d, x: not c.size.infinite,
    designs.C_SMALL: lambda c, d, x: c.size < x.size,
    designs.B_IN_D: lambda c, d, x: d.contains_b,
    designs.D_FINITE: lambda c, d, x: not d.size.infinite,
    designs.D_COSIZE_0: lambda c, d, x: d.cosize == F(0),
    designs.D_COSIZE_1: lambda c, d, x: d.cosize == F(1),
    designs.D_COSIZE_FINITE: lambda c, d, x: not d.cosize.infinite,
    designs.X_ALEPH0: lambda c, d, x: x.size == ALEPH0,
    designs.C_GT_D: lambda c, d, x: c.size > d.size,
    designs.C_EQ_D: lambda c, d, x: c.size == d.size,
    designs.C_PLUS_2_GT_D: lambda c, d, x: csum(c.size, F(2)) > d.size,
    designs.C_GT_D_WITHOUT_B: lambda c, d, x: size_minus_b(c) > size_minus_b(d),
    designs.COSIZE_D_GT_C: lambda c, d, x: cosize_minus_b(d) > cosize_minus_b(c),
}
ALL_ATOMS = sum(ATOM_PREDICATES)


def assert_atoms_agree(c, d, space):
    m = case_mask(c, d, space)
    for atom, predicate in ATOM_PREDICATES.items():
        assert bool(m & atom) == predicate(c, d, space), (atom, c, d, space)
    assert m & ~ALL_ATOMS == 0


def test_atoms_are_distinct_bits_and_cover_every_guard():
    assert len(ATOM_PREDICATES) == 14
    assert ALL_ATOMS == (1 << 14) - 1
    for table in designs._RULES.values():
        for _, required, forbidden, _ in table:
            assert (required | forbidden) & ~ALL_ATOMS == 0
            assert not required & forbidden


def test_atoms_agree_with_their_predicates_on_the_aleph3_grid():
    for index in range(4):
        space = SpaceDescriptor(Cardinal.aleph(index))
        for c, d in itertools.product(descriptor_grid(space, 8), repeat=2):
            assert_atoms_agree(c, d, space)


def stated_type1(c, d, x):
    """The existence condition decide_type1's docstring states."""
    if c.size > d.size or (c.contains_b and not d.contains_b):
        return False
    if not d.contains_b:  # b is outside C and D
        return c.size.infinite and (
            c.size < x.size or d == sd(x.size, False, F(1))
        )
    if not c.size.infinite:
        return csum(c.size, F(2)) <= d.size
    return c.size < x.size or d == sd(x.size, True, F(0))


def stated_type3(c, d, x):
    """The existence condition decide_type3's docstring states."""
    return (
        not (c.contains_b and not d.contains_b)
        and size_minus_b(c) <= size_minus_b(d)
        and cosize_minus_b(d) <= cosize_minus_b(c)
    )


# types 2 and 4 ("C embeds into D") are checked by
# test_criterion_1_crosscheck_equivalence
@pytest.mark.parametrize("design_type, stated", [
    (DesignType.TYPE1, stated_type1),
    (DesignType.TYPE3, stated_type3),
])
def test_decider_docstrings_agree_with_the_tables(design_type, stated):
    for index in range(4):
        space = SpaceDescriptor(Cardinal.aleph(index))
        for c, d in itertools.product(descriptor_grid(space, 8), repeat=2):
            assert decide(design_type, c, d, space).exists == stated(c, d, space), (
                c, d, space
            )


@st.composite
def spaced_pairs(draw, max_aleph=3):
    """A space of at most aleph_{max_aleph} and two valid, nonempty
    descriptors in it, with finite sizes up to 10^6 that often lie within a
    few of each other."""
    index = draw(st.integers(0, max_aleph))
    space = SpaceDescriptor(Cardinal.aleph(index))
    near = draw(st.integers(1, 10**6))

    def cardinal(low):
        return draw(st.one_of(
            st.integers(low, 10**6).map(F),
            st.integers(-3, 3).map(lambda k: F(max(low, near + k))),
            st.integers(0, index).map(Cardinal.aleph),
        ))

    def descriptor():
        size = cardinal(1)
        cosize = space.size if size < space.size else cardinal(0)
        return sd(size, cosize == F(0) or draw(st.booleans()), cosize)

    return descriptor(), descriptor(), space


@given(spaced_pairs())
@example((sd(F(999_998), True, ALEPH0), sd(F(10**6), True, ALEPH0), X0))
@example((sd(F(999_999), True, ALEPH0), sd(F(10**6), False, ALEPH0), X0))
@example((sd(ALEPH0, False, F(10**6)), sd(ALEPH0, False, F(999_999)), X0))
def test_atoms_agree_with_their_predicates_at_large_finite_sizes(case):
    assert_atoms_agree(*case)


def ladder_map(*cards):
    """The order-preserving map of the distinct nonzero aleph indices among
    the cardinals onto 1, 2, ..., with aleph0 kept as aleph0."""
    indices = sorted({card.value for card in cards if card.infinite and card.value})
    return {0: 0, **{index: low for low, index in enumerate(indices, 1)}}


def relabel(card, to):
    return Cardinal.aleph(to[card.value]) if card.infinite else card


def relabel_descriptor(s, to):
    return sd(relabel(s.size, to), s.contains_b, relabel(s.cosize, to))


def relabel_verdict(verdict, to):
    """The verdict with the aleph indices of its exact multiplicity and of
    its witness's descriptor relabelled."""
    lam, witness = verdict.lambda_, verdict.witness
    if lam is not None and lam.value is not None:
        lam = LambdaValue.exact(relabel(lam.value, to))
    if isinstance(witness, (ClassW, ClassL, Singleton)):
        witness = type(witness)(relabel_descriptor(witness[0], to))
    return verdict._replace(lambda_=lam, witness=witness)


@given(spaced_pairs(max_aleph=40))
@example((sd(Cardinal.aleph(5), True, Cardinal.aleph(40)),
          sd(Cardinal.aleph(40), True, Cardinal.aleph(17)), SpaceDescriptor(Cardinal.aleph(40))))
def test_the_ladder_height_changes_no_answer(case):
    # C and D each have X's cardinality on one side, so at most three
    # nonzero indices occur: the query on aleph0..aleph3 with the same
    # order answers alike, its alephs mapped back
    c, d, space = case
    down = ladder_map(space.size, c.size, c.cosize, d.size, d.cosize)
    assert len(down) <= 4
    up = {low: index for index, low in down.items()}
    small = (relabel_descriptor(c, down), relabel_descriptor(d, down),
             SpaceDescriptor(relabel(space.size, down)))
    for t in DesignType:
        assert decide(t, c, d, space) == relabel_verdict(decide(t, *small), up)
    assert crosscheck(c, d, space) == crosscheck(*small)


def test_every_ladder_above_aleph1_realizes_the_same_masks():
    # the guards read order comparisons and X = aleph0 only, so a taller
    # ladder adds no guard combination: aleph2's 97 masks recur at each X
    masks = []
    for index in (2, 3, 4, 9, 17, 40):
        space = SpaceDescriptor(Cardinal.aleph(index))
        facts = [designs._facts(s, space) for s in descriptor_grid(space, 6)]
        masks.append({designs._mask(c, d) for c, d in itertools.product(facts, repeat=2)})
    assert len(masks[0]) == 97
    assert all(m == masks[0] for m in masks)


@pytest.mark.parametrize("space", [X0, X1])
def test_a_verdict_is_fixed_by_the_mask_and_d(space):
    # sweep reuses a verdict across every case with the same deciding row
    # and D; here every case with the same mask and D gets one verdict
    grid = descriptor_grid(space, 4)
    groups = {}
    for c, d in itertools.product(grid, repeat=2):
        verdicts = tuple(decide(t, c, d, space) for t in DesignType)
        assert groups.setdefault((case_mask(c, d, space), d), verdicts) == verdicts
    assert len(groups) < len(grid) ** 2


def test_case_tags_are_the_wire_format():
    assert CASE_TAGS == {
        "remark-card", "a1", "a2", "a3", "b",
        "c1-bound", "c1-case1", "c1-case2", "c1-case3", "c1-case4", "c1-case5",
        "c2", "c3", "t2-finite", "t2-small", "t2-full",
        "t3", "t3-case1", "t3-case2", "t3-case3", "t3-case4", "t4",
    }


def test_type4_table_agrees_with_type2_on_existence():
    for c, d, space in grid_cases():
        v2 = decide(2, c, d, space)
        v4 = decide(4, c, d, space)
        assert v4.exists == v2.exists
        assert (v4.lambda_, v4.witness) == (v2.lambda_, v2.witness)
        assert v4.case_tag == ("t4" if v4.exists else v2.case_tag)
