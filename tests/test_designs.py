import functools
import itertools

import pytest

from fortdesign.cardinal import ALEPH0, ALEPH1, Cardinal, LambdaValue
from fortdesign import designs
from fortdesign.descriptors import SpaceDescriptor, SubsetDescriptor, descriptor_grid
from fortdesign.designs import (
    CASE_TAGS,
    ClassL,
    ClassW,
    DescriptorError,
    DesignType,
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
        assert report.statements == (True, True, True, True)
        assert report.consistent and report.disagreements() == []

    def test_all_false_when_design_exists(self):
        report = crosscheck(sd(F(2), True, ALEPH0), sd(F(4), False, ALEPH0), X0)
        assert report.statements == (False, False, False, False)

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
]


@pytest.mark.parametrize("c, d, expected", INVALID_INPUTS)
@pytest.mark.parametrize("entry", PUBLIC_ENTRIES)
def test_invalid_inputs_are_rejected(entry, c, d, expected):
    with pytest.raises(DescriptorError) as caught:
        entry(c, d, X0)
    assert caught.value.violations
    assert all(v.startswith(expected) for v in caught.value.violations)


def test_sweep_rejects_an_invalid_grid_descriptor(monkeypatch):
    def grid_with_an_invalid_descriptor(*args):
        return descriptor_grid(*args) + [sd(F(3), True, F(5))]

    monkeypatch.setattr(designs, "descriptor_grid", grid_with_an_invalid_descriptor)
    with pytest.raises(DescriptorError):
        sweep()


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


def test_verdict_construction_guards():
    with pytest.raises(ValueError):
        Verdict(True, "a2")  # existence needs a multiplicity and witness
    with pytest.raises(ValueError):
        Verdict.no("made-up-tag", "nope")
