import itertools

import pytest
from hypothesis import given, strategies as st

from fortdesign.cardinal import ALEPH0, Cardinal
from fortdesign.concrete import (
    BlockCount,
    ConcreteSet,
    FamilyEnumerationError,
    OddTailBlock,
    PointMap,
    blocks_containing,
    canonical_homeomorphism,
    check_homeomorphism,
    extract_descriptor,
    is_open,
    limit_points,
    local_design_check,
    realize,
    realize_descriptor,
)
from fortdesign.descriptors import SubsetDescriptor, subspace_homeomorphic
from fortdesign.designs import ClassL, ClassW, OddTail, Singleton

F = ConcreteSet.finite
Co = ConcreteSet.cofinite_set
FC = Cardinal.finite


def sd(size, b, cosize):
    return SubsetDescriptor(size, b, cosize)


def small_sets(max_element=4):
    for kind in (False, True):
        for r in range(max_element + 2):
            for support in itertools.combinations(range(max_element + 1), r):
                yield ConcreteSet(kind, support)


class TestConcreteSet:
    def test_membership_and_normalization(self):
        s = ConcreteSet.finite((5, 1, 9, 1))
        assert s.support == (1, 5, 9)
        assert 5 in s and 2 not in s
        c = Co((3,))
        assert 2 in c and 3 not in c
        with pytest.raises(ValueError):
            ConcreteSet.finite((-1,))

    def test_complement_and_subset(self):
        assert F((1, 2)).complement() == Co((1, 2))
        assert F((1, 2)).issubset(F((0, 1, 2)))
        assert F((1, 3)).issubset(Co((0,)))
        assert not Co(()).issubset(F((1,)))
        assert Co((0, 1)).issubset(Co((0,)))
        assert not Co((0,)).issubset(Co((0, 1)))

    def test_algebra(self):
        assert (F((1, 2)) & Co((2,))) == F((1,))
        assert (Co((1,)) & Co((2,))) == Co((1, 2))
        assert (F((1, 2)) | Co((2, 5))) == Co((5,))
        assert (Co((1, 3)) | Co((3, 4))) == Co((3,))

    def test_text_round_trip_examples(self):
        assert ConcreteSet.parse("fin:1,5,9") == F((1, 5, 9))
        assert ConcreteSet.parse("cofin:3") == Co((3,))
        assert ConcreteSet.parse("fin:") == F(())
        assert ConcreteSet.parse("cofin:") == Co(())
        with pytest.raises(ValueError):
            ConcreteSet.parse("open:1")
        with pytest.raises(ValueError):
            ConcreteSet.parse("fin:1,x")

    @given(
        st.booleans(),
        st.lists(st.integers(0, 40), max_size=8),
    )
    def test_text_round_trip(self, cofinite, support):
        s = ConcreteSet(cofinite, tuple(support))
        assert ConcreteSet.parse(s.to_text()) == s

    def test_descriptor_extraction(self):
        assert extract_descriptor(F((0, 2))) == sd(FC(2), True, ALEPH0)
        assert extract_descriptor(Co((0, 3))) == sd(ALEPH0, False, FC(2))
        assert extract_descriptor(OddTailBlock(2)) == sd(ALEPH0, True, ALEPH0)


class TestTopology:
    def test_is_open_examples(self):
        assert is_open(F((1, 5, 9)))
        assert is_open(Co((3,)))
        assert not is_open(F((0, 2)))

    def test_limit_points_examples(self):
        assert limit_points(Co(())) == F((0,))
        assert limit_points(F((2, 4, 6))) == F(())
        assert limit_points(Co((0,))) == F((0,))

    def test_limit_points_iff_infinite(self):
        for s in small_sets():
            assert (limit_points(s) != F(())) == s.cofinite

    def test_open_sets_closed_under_intersection_and_union(self):
        opens = [s for s in small_sets() if is_open(s)]
        for a, b in itertools.combinations(opens, 2):
            assert is_open(a & b)
            assert is_open(a | b)


class TestHomeomorphisms:
    def test_finite_alignment(self):
        u, v = F((1, 2)), F((7, 9))
        m = canonical_homeomorphism(u, v)
        assert m is not None
        assert m.apply(1, u, v) == 7 and m.apply(2, u, v) == 9
        assert check_homeomorphism(m, u, v)

    def test_limit_point_mismatch_has_no_map(self):
        assert canonical_homeomorphism(Co((0,)), Co(())) is None

    def test_infinite_alignment_pins_b(self):
        u, v = Co((1, 3)), Co(())
        m = canonical_homeomorphism(u, v)
        assert m is not None
        assert m.apply(0, u, v) == 0
        assert check_homeomorphism(m, u, v)

    def test_map_moving_b_is_rejected(self):
        broken = PointMap(aligned=True, exceptions=((0, 5), (5, 0)))
        assert not check_homeomorphism(broken, Co(()), Co(()))

    def test_identity_table_on_a_singleton(self):
        ident = PointMap(aligned=False, exceptions=((3, 3),))
        assert check_homeomorphism(ident, F((3,)), F((3,)))

    def test_non_bijective_tables_fail(self):
        # misses an element of the source
        partial = PointMap(aligned=False, exceptions=((1, 7),))
        assert not check_homeomorphism(partial, F((1, 2)), F((7, 9)))
        # collides on the target
        squash = PointMap(aligned=False, exceptions=((1, 7), (2, 7)))
        assert not check_homeomorphism(squash, F((1, 2)), F((7, 9)))

    def test_kind_mismatch_fails(self):
        assert not check_homeomorphism(PointMap(), F((1,)), Co((0,)))

    def test_oracle_matches_descriptor_predicate_on_small_sets(self):
        panel = list(small_sets())
        for u, v in itertools.product(panel, repeat=2):
            m = canonical_homeomorphism(u, v)
            predicted = subspace_homeomorphic(
                extract_descriptor(u), extract_descriptor(v)
            )
            assert (m is not None) == predicted, (u, v)
            if m is not None:
                assert check_homeomorphism(m, u, v), (u, v)


class TestRealize:
    def test_odd_tail_blocks(self):
        b1 = realize(OddTail(), 1)
        assert [x for x in range(10) if x in b1] == [0, 1, 2, 4, 6, 8]
        b3 = realize(OddTail(), 3)
        assert [x for x in range(10) if x in b3] == [0, 1, 2, 3, 4, 5, 6, 8]
        with pytest.raises(ValueError):
            realize(OddTail(), 0)

    def test_singleton_realization(self):
        block = realize(Singleton(sd(ALEPH0, False, FC(1))))
        assert block == Co((0,))
        assert realize(Singleton(sd(ALEPH0, True, FC(0)))) == Co(())
        assert realize(Singleton(sd(FC(3), True, ALEPH0))) == F((0, 1, 2))
        assert realize(Singleton(sd(FC(3), False, ALEPH0))) == F((1, 2, 3))

    def test_symbolic_classes_are_rejected(self):
        with pytest.raises(FamilyEnumerationError):
            realize(ClassW(sd(FC(3), True, ALEPH0)))
        with pytest.raises(FamilyEnumerationError):
            realize(ClassL(sd(FC(3), True, ALEPH0)))
        with pytest.raises(FamilyEnumerationError):
            realize_descriptor(sd(ALEPH0, True, ALEPH0))


class TestBlockCounts:
    def test_odd_tail_saturates_on_even_probes(self):
        assert blocks_containing(OddTail(), F((0, 2, 4)), 50) == BlockCount.at_least(50)

    def test_odd_tail_window_count_matches_the_arithmetic_rule(self):
        # the probe's largest odd element 2k+1 rules out blocks 1..k
        for probe in (F((5,)), F((0, 7)), F((1, 2)), F((3, 9, 12))):
            odd_ranks = [(x - 1) // 2 for x in probe.support if x % 2 == 1]
            k = max(odd_ranks, default=0)
            expected = (
                BlockCount.at_least(50) if k == 0 else BlockCount.exactly(50 - k)
            )
            assert blocks_containing(OddTail(), probe, 50) == expected

    def test_probe_five_is_excluded_from_two_blocks(self):
        assert blocks_containing(OddTail(), F((5,)), 50) == BlockCount.exactly(48)

    def test_singleton_counts(self):
        family = Singleton(sd(ALEPH0, True, FC(0)))
        assert blocks_containing(family, F((1, 2)), 10) == BlockCount.exactly(1)
        family = Singleton(sd(ALEPH0, False, FC(1)))
        assert blocks_containing(family, F((0,)), 10) == BlockCount.exactly(0)

    def test_class_l_has_no_window(self):
        with pytest.raises(FamilyEnumerationError):
            blocks_containing(ClassL(sd(FC(3), True, ALEPH0)), F((1,)), 10)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError):
            blocks_containing(OddTail(), F((1,)), 0)


class TestLocalDesignCheck:
    def test_odd_tail_family_is_consistent(self):
        c, d = sd(FC(2), True, ALEPH0), sd(ALEPH0, True, ALEPH0)
        report = local_design_check(
            OddTail(), c, d, [F((0, 4)), F((0, 8))], cutoff=50
        )
        assert report.blocks_checked == 50
        assert report.block_failures == ()
        assert [str(p.count) for p in report.probes] == ["AtLeast(50)", "AtLeast(50)"]
        assert report.consistent

    def test_tight_finite_d_is_refuted(self):
        c, d = sd(FC(2), True, ALEPH0), sd(FC(3), True, ALEPH0)
        report = local_design_check(
            ClassW(d), c, d, [F((0, 5)), F((5, 6))], cutoff=50
        )
        assert not report.consistent
        assert report.refutation is not None
        first, second = report.refutation
        assert first.probe == F((5, 6)) and first.global_exact == 1
        assert second.probe == F((0, 5)) and second.count == BlockCount.at_least(50)

    def test_space_minus_b_singleton(self):
        c = sd(ALEPH0, False, FC(1))
        report = local_design_check(
            Singleton(c), c, c, [Co((0,))], cutoff=10
        )
        assert [str(p.count) for p in report.probes] == ["Exactly(1)"]
        assert report.consistent

    def test_probes_not_shaped_like_c_are_rejected(self):
        c, d = sd(FC(2), True, ALEPH0), sd(ALEPH0, True, ALEPH0)
        report = local_design_check(OddTail(), c, d, [F((1, 2, 3))], cutoff=5)
        assert report.rejected == (F((1, 2, 3)),)
        assert report.probes == ()

    def test_blocks_violating_the_complement_condition_are_flagged(self):
        # blocks are full-size singletons but D has an infinite complement
        c, d = sd(ALEPH0, True, FC(0)), sd(ALEPH0, True, ALEPH0)
        report = local_design_check(
            Singleton(sd(ALEPH0, True, FC(0))), c, d, [], cutoff=5
        )
        assert report.block_failures
        relaxed = local_design_check(
            Singleton(sd(ALEPH0, True, FC(0))), c, d, [], cutoff=5,
            require_complement=False,
        )
        assert relaxed.block_failures == ()
