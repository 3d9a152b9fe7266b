import copy
import hashlib
import itertools
import math
import pickle
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fortdesign import concrete
from fortdesign.cardinal import ALEPH0, Cardinal, _SHARED_FINITES
from fortdesign.cli import main
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
from fortdesign.descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    complement,
    descriptor_grid,
    subspace_homeomorphic,
    validate,
)
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
        # a set is not the plain tuple of its fields, unlike a record
        assert ConcreteSet.finite((0,)) != (False, (0,))

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
        assert ConcreteSet.parse(" cofin: 3 , 10") == Co((3, 10))
        # only canonical ASCII naturals: these once read as fin:3,7,10 etc.
        # An empty item or a repeated point is refused, not skipped or merged.
        for text in ("fin:1,x", "fin:\u0663,1_0, 07", "fin:\u0663", "fin:1_0",
                     "fin:07", "fin:+3", "fin:-1", "cofin:\uff11",
                     "fin:1,,2", "fin:0,4,4", "cofin:3,10,", " cofin: 3 , 10,"):
            with pytest.raises(ValueError, match="malformed concrete set"):
                ConcreteSet.parse(text)

    @given(
        st.booleans(),
        st.lists(st.integers(0, 40), max_size=8),
    )
    def test_text_round_trip(self, cofinite, support):
        s = ConcreteSet(cofinite, tuple(support))
        assert ConcreteSet.parse(s.to_text()) == s

    @given(
        st.booleans(), st.frozensets(st.integers(0, 11)),
        st.booleans(), st.frozensets(st.integers(0, 11)),
    )
    def test_algebra_agrees_with_python_sets(self, kind_a, support_a, kind_b, support_b):
        # supports lie in range(12), so a set is its kind plus its members there
        universe = set(range(12))

        def members(s):
            return universe - set(s.support) if s.cofinite else set(s.support)

        a, b = ConcreteSet(kind_a, tuple(support_a)), ConcreteSet(kind_b, tuple(support_b))
        assert members(a & b) == members(a) & members(b)
        assert (a & b).cofinite == (a.cofinite and b.cofinite)
        assert members(a | b) == members(a) | members(b)
        assert (a | b).cofinite == (a.cofinite or b.cofinite)
        assert members(a.complement()) == universe - members(a)
        assert a.complement().cofinite != a.cofinite
        assert a.issubset(b) == (members(a) <= members(b) and b.cofinite >= a.cofinite)

    def test_descriptor_extraction(self):
        assert extract_descriptor(F((0, 2))) == sd(FC(2), True, ALEPH0)
        assert extract_descriptor(Co((0, 3))) == sd(ALEPH0, False, FC(2))
        assert extract_descriptor(OddTailBlock(2)) == sd(ALEPH0, True, ALEPH0)
        # every odd-tail block shares the one descriptor
        assert extract_descriptor(OddTailBlock(7)) is extract_descriptor(OddTailBlock(2))
        assert validate(extract_descriptor(OddTailBlock(2)), SpaceDescriptor(ALEPH0)) == []


def of_shape(cofinite, holds_b, listed, first_free):
    """A set with ``listed`` listed points that holds b as asked; its listed
    points other than 0 run up from ``first_free``."""
    zero = (0,) if holds_b != cofinite else ()
    rest = range(first_free, first_free + listed - len(zero))
    return ConcreteSet(cofinite, zero + tuple(rest))


@pytest.mark.parametrize("cofinite", [False, True])
@pytest.mark.parametrize("holds_b", [False, True])
def test_every_reachable_shape_has_its_descriptor(cofinite, holds_b):
    assert 0 < _SHARED_FINITES <= 70  # so both sides of the bound are covered
    # a listed 0 is b in a finite set and its absence in a cofinite one
    for listed in range(holds_b != cofinite, 71):
        one = of_shape(cofinite, holds_b, listed, 1)
        other = of_shape(cofinite, holds_b, listed, 100)
        assert one.contains_b is other.contains_b is holds_b
        assert len(one.support) == len(other.support) == listed
        n = Cardinal(False, listed)
        written = sd(ALEPH0, holds_b, n) if cofinite else sd(n, holds_b, ALEPH0)
        shape = extract_descriptor(one)
        assert shape == written == extract_descriptor(other)
        assert validate(shape, SpaceDescriptor(ALEPH0)) == []
        assert extract_descriptor(one.complement()) == complement(shape)
        if listed < _SHARED_FINITES:
            assert extract_descriptor(other) is shape
        else:  # built afresh, for one set as for two
            assert extract_descriptor(other) is not shape
            assert extract_descriptor(one) is not shape


@pytest.mark.parametrize("make, value", [
    # each was once accepted: F([2.7, 5]) as fin:2,5, ConcreteSet("no", ())
    # as a cofinite set, OddTailBlock(1.5) as oddtail:1.5
    (lambda: F([2.7, 5]), "2.7"),
    (lambda: F([2, "5"]), "'5'"),
    (lambda: F([True, 5]), "True"),
    (lambda: PointMap(exceptions=((1.9, 3),)), "1.9"),
    (lambda: PointMap(exceptions=((1, "3"),)), "'3'"),
    (lambda: ConcreteSet("no", ()), "'no'"),
    (lambda: ConcreteSet(1, ()), "1"),
    (lambda: PointMap(aligned="no"), "'no'"),
    (lambda: OddTailBlock(1.5), "1.5"),
    (lambda: OddTailBlock(True), "True"),
])
def test_concrete_values_reject_other_types(make, value):
    with pytest.raises(ValueError, match=f"must be (int|bool), got {re.escape(value)}$"):
        make()


class TestPointMapRecord:
    def test_repr_is_pinned(self):
        assert repr(PointMap(True, [(4, 6)])) == "PointMap(aligned=True, exceptions=((4, 6),))"
        assert repr(PointMap()) == "PointMap(aligned=True, exceptions=())"
        # the text form lists the sorted exception table after the mode
        assert PointMap().to_text() == "align"
        assert PointMap(True, [(1, 2)]).to_text() == "align;1->2"
        assert PointMap(False, [(5, 0), (2, 3)]).to_text() == "table;2->3,5->0"

    def test_keyword_and_positional_construction_agree(self):
        table = ((5, 1), (2, 3))
        maps = [PointMap(False, table), PointMap(aligned=False, exceptions=table),
                PointMap(False, exceptions=iter(table))]
        for m in maps:
            assert (m.aligned, m.exceptions) == (False, ((2, 3), (5, 1)))
            assert m == maps[0] and hash(m) == hash(maps[0])
        assert PointMap() == PointMap(True, ()) == PointMap(exceptions=[])
        assert hash(PointMap()) == hash(PointMap(True, ()))
        assert PointMap() != PointMap(False) and PointMap() != PointMap(True, ((0, 0),))

    def test_survives_pickle_and_copy(self):
        record = PointMap(False, ((4, 6), (1, 2)))
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert clone == record and type(clone) is PointMap
            assert repr(clone) == repr(record)

    def test_fields_cannot_be_assigned(self):
        for field in ("aligned", "exceptions"):
            with pytest.raises(AttributeError):
                setattr(PointMap(), field, None)

    @pytest.mark.parametrize("make, message", [
        (lambda: PointMap(exceptions=((1.9, 3),)), "an exception-table point must be int, got 1.9"),
        (lambda: PointMap(exceptions=((1, "3"),)), "an exception-table point must be int, got '3'"),
        (lambda: PointMap(exceptions=((True, 3),)), "an exception-table point must be int, got True"),
        (lambda: PointMap(aligned="no"), "aligned must be bool, got 'no'"),
        (lambda: PointMap(1), "aligned must be bool, got 1"),
        (lambda: PointMap(True, ((1, 2), (1, 3))),
         "exception table must map each source point once"),
        # each once escaped as a bare TypeError or an unpacking ValueError
        (lambda: PointMap(True, (5,)),
         "an exception-table entry must be a (source, target) pair, got 5"),
        (lambda: PointMap(True, ((1,),)),
         "an exception-table entry must be a (source, target) pair, got (1,)"),
        (lambda: PointMap(True, ((1, 2, 3),)),
         "an exception-table entry must be a (source, target) pair, got (1, 2, 3)"),
        (lambda: PointMap(True, 5), "an exception table must be an iterable of pairs, got 5"),
    ])
    def test_invalid_maps_keep_their_message(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


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
        # an entry whose source is outside u leaves the alignment as it is
        assert check_homeomorphism(PointMap(True, ((9, 9),)), u, F((3, 4)))

    def test_limit_point_mismatch_has_no_map(self):
        assert canonical_homeomorphism(Co((0,)), Co(())) is None
        # the aligned map is a bijection either way, but only one side has b
        assert not check_homeomorphism(PointMap(), Co((0,)), Co(()))
        assert not check_homeomorphism(PointMap(), Co(()), Co((0,)))

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
        # an empty table maps nothing, unlike an empty aligned map
        assert not check_homeomorphism(PointMap(aligned=False), F((1, 2)), F((7, 9)))

    @pytest.mark.parametrize("aligned", [True, False])
    def test_apply_refuses_a_point_outside_the_source(self, aligned):
        # the table's entry for 9 is inactive on this source, as
        # check_homeomorphism reads it
        m = PointMap(aligned, ((9, 3),))
        with pytest.raises(ValueError, match="^9 is not in the source set$"):
            m.apply(9, F((1, 2)), F((3, 4)))

    def test_kind_mismatch_fails(self):
        assert not check_homeomorphism(PointMap(), F((1,)), Co((0,)))

    def test_collisions_far_from_zero_are_rejected(self):
        # 1 and 1000 both go to 1000 and nothing reaches 1; then 40 and 1
        # both go to 1 and nothing reaches 40
        for exceptions in (((1, 1000),), ((40, 1),)):
            assert not check_homeomorphism(PointMap(True, exceptions), Co(()), Co(()))

    def test_swapped_aligned_images_are_accepted(self):
        u, v = Co((3,)), Co((5, 7))
        y40, y41 = (PointMap().apply(x, u, v) for x in (40, 41))
        m = PointMap(True, ((40, y41), (41, y40)))
        assert m.apply(40, u, v) == y41 and m.apply(41, u, v) == y40
        assert check_homeomorphism(m, u, v)

    @settings(max_examples=300)
    @given(st.data())
    def test_oracle_matches_a_reference_bijection_check(self, data):
        def draw_set(cofinite, size=None):
            # b = 0 is drawn often: whether a set holds b decides its topology
            points = st.sets(st.just(0) | st.integers(1, 60), min_size=size or 0,
                             max_size=6 if size is None else size)
            return ConcreteSet(cofinite, tuple(data.draw(points)))

        u = draw_set(data.draw(st.booleans()))
        same_size = not u.cofinite and data.draw(st.booleans())
        v = draw_set(data.draw(st.booleans()), len(u.support) if same_size else None)
        aligned = data.draw(st.booleans())
        table = data.draw(st.dictionaries(st.integers(0, 60), st.integers(0, 60), max_size=4))
        if aligned and u.cofinite == v.cofinite and data.draw(st.booleans()):
            # rearrange the aligned images of some members: often a bijection
            sources = [x for x in table if x in u]
            images = [PointMap().apply(x, u, v) for x in sources]
            if None not in images:
                table.update(zip(sources, data.draw(st.permutations(images))))
        m = PointMap(aligned, tuple(table.items()))

        # Reference: the supports and exception points lie in [0, 60], so
        # a collision or a missed point shows among small members.
        expected = u.cofinite == v.cofinite
        if expected:
            domain = [x for x in range(200) if x in u]
            images = [m.apply(x, u, v) for x in domain]
            expected = (
                len(set(images)) == len(images)
                and all(y is not None and y in v for y in images)
                and {y for y in range(100) if y in v} <= set(images)
            )
        if expected and u.cofinite:
            # b is the limit point: it goes to b, and nothing else does
            expected = all((x == 0) == (y == 0) for x, y in zip(domain, images))
        assert check_homeomorphism(m, u, v) == expected

    @given(
        st.booleans(),
        # b = 0 is drawn often: skipping it is what the arithmetic special-cases
        st.sets(st.just(0) | st.integers(0, 200), max_size=40),
        st.integers(0, 300),
        st.integers(0, 300),
        st.booleans(),
    )
    def test_rank_arithmetic_matches_an_enumeration(self, cofinite, support, x, n, skip_zero):
        s = ConcreteSet(cofinite, tuple(support))
        # supports lie in [0, 200], so the member of rank 300 is below 600
        members = [m for m in range(600) if m in s and not (skip_zero and m == 0)]
        assert concrete._rank(s, x, skip_zero) == sum(1 for m in members if m < x)
        assert concrete._nth_member(s, n, skip_zero) == (
            members[n] if n < len(members) else None
        )

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


@pytest.fixture
def no_churn(monkeypatch):
    """Fails the test if the oracle builds a set or applies a map point by
    point."""

    def refused(*args):
        raise AssertionError("built a set or applied the map")

    monkeypatch.setattr(ConcreteSet, "__init__", refused)
    monkeypatch.setattr(PointMap, "apply", refused)


# one non-bijection of each of homeo-panel's perturbed shapes
PERTURBED = [
    (F((1, 4, 9)), F((2, 3, 5)), (1, 5)),  # 1 and 9 both go to 5
    (F((1, 4)), F((2, 3)), (4, 7)),  # 7 is outside v
    (Co((3,)), Co((5, 7)), (0, 1)),  # b moved
    (Co(()), Co(()), (40, 1)),  # a source past the 32nd member
]


@pytest.mark.parametrize("u, v, exception", PERTURBED,
                         ids=["finite-collide", "finite-outside", "b-moved", "source-beyond"])
def test_oracle_checks_a_perturbed_map_without_churn(no_churn, u, v, exception):
    m = canonical_homeomorphism(u, v)
    assert not check_homeomorphism(PointMap(m.aligned, m.exceptions + (exception,)), u, v)


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

    def test_each_realizable_descriptor_is_its_singleton_window(self):
        for d in descriptor_grid(SpaceDescriptor(ALEPH0), 8):
            if d.size.infinite and d.cosize.infinite:
                with pytest.raises(FamilyEnumerationError):
                    realize_descriptor(d)
                continue
            block = realize_descriptor(d)
            assert extract_descriptor(block) == d
            for prefix in (0, 1, 3, 8, 12):
                assert list(concrete._window_blocks(Singleton(d), 1, prefix)) == [block]


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
        d = sd(ALEPH0, True, ALEPH0)
        with pytest.raises(ValueError, match="cutoff"):
            local_design_check(OddTail(), d, d, [], cutoff=0)

    def test_prefix_zero_is_the_empty_prefix(self):
        # W(D) blocks differ from the canonical one only inside [1, 0]: the
        # pinned {0} is the only block with b, and none has size 2 without b
        c, d = sd(FC(0), False, ALEPH0), sd(FC(1), True, ALEPH0)
        report = local_design_check(ClassW(d), c, d, [F(())], cutoff=5, prefix=0)
        assert report.blocks_checked == 1
        assert [p.count for p in report.probes] == [BlockCount.exactly(1)]
        assert blocks_containing(ClassW(d), F((0,)), 5, prefix=0) == BlockCount.exactly(1)
        c, d = sd(FC(1), False, ALEPH0), sd(FC(2), False, ALEPH0)
        report = local_design_check(ClassW(d), c, d, [F((1,))], cutoff=5, prefix=0)
        assert report.blocks_checked == 0
        assert [p.count for p in report.probes] == [BlockCount.exactly(0)]
        assert blocks_containing(ClassW(d), F((1,)), 5, prefix=0) == BlockCount.exactly(0)

    def test_negative_prefix_is_rejected(self):
        d = sd(FC(2), False, ALEPH0)
        with pytest.raises(ValueError, match="prefix"):
            local_design_check(ClassW(d), d, d, [], cutoff=5, prefix=-1)
        with pytest.raises(ValueError, match="prefix"):
            blocks_containing(ClassW(d), F((1,)), 5, prefix=-1)


D3 = sd(FC(3), False, ALEPH0)
C2 = sd(FC(2), False, ALEPH0)
D_ODD = sd(ALEPH0, True, ALEPH0)


@pytest.mark.parametrize("make, message", [
    # each was once read as other input or raised TypeError: True as
    # prefix or cutoff 1, 2.5 as a cutoff, "no" and 1 as true
    (lambda: local_design_check(ClassW(D3), C2, D3, [F((0, 5))], 5, prefix=True),
     "prefix must be int, got True"),
    (lambda: local_design_check(ClassW(D3), C2, D3, [F((0, 5))], 2.5),
     "cutoff must be int, got 2.5"),
    (lambda: local_design_check(OddTail(), C2, D_ODD, [F((1, 4))], 2.5),
     "cutoff must be int, got 2.5"),
    (lambda: local_design_check(ClassW(D3), C2, D3, [], 5, require_complement="no"),
     "require_complement must be bool, got 'no'"),
    (lambda: local_design_check(ClassW(D3), C2, D3, [], 5, require_complement=1),
     "require_complement must be bool, got 1"),
    (lambda: blocks_containing(ClassW(D3), F((0, 5)), 5, prefix=True),
     "prefix must be int, got True"),
    (lambda: blocks_containing(ClassW(D3), F((1, 5)), 5, prefix=12.0),
     "prefix must be int, got 12.0"),
    (lambda: blocks_containing(ClassW(D3), F((1, 5)), True),
     "cutoff must be int, got True"),
    (lambda: blocks_containing(OddTail(), F((1, 4)), 2.5),
     "cutoff must be int, got 2.5"),
])
def test_window_arguments_are_read_exactly(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


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

    def test_infinite_count_refutes_within_a_small_window(self):
        # inside [1, 3] no block holds either probe, yet fin:0,5 lies in
        # infinitely many blocks of the family and fin:5,6 in exactly one
        c, d = sd(FC(2), True, ALEPH0), sd(FC(3), True, ALEPH0)
        report = local_design_check(
            ClassW(d), c, d, [F((0, 5)), F((5, 6))], cutoff=50, prefix=3
        )
        assert [p.count for p in report.probes] == [BlockCount.exactly(0)] * 2
        first, second = report.refutation
        assert (first.probe, first.global_exact) == (F((5, 6)), 1)
        assert (second.probe, second.global_exact) == (F((0, 5)), None)
        assert not report.consistent

    def test_infinite_count_displays_as_a_lower_bound(self):
        # fin:0,5 lies in no block of the window but in infinitely many of
        # the family: its count shows as at least the window's, not exactly
        c, d = sd(FC(2), True, ALEPH0), sd(FC(3), True, ALEPH0)
        report = local_design_check(
            ClassW(d), c, d, [F((0, 5)), F((5, 6))], cutoff=50, prefix=3
        )
        first, second = report.refutation
        assert (
            f"{first.probe.to_text()} {first.display_count()} vs "
            f"{second.probe.to_text()} {second.display_count()}"
        ) == "fin:5,6 Exactly(1) vs fin:0,5 AtLeast(0)"

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

    @pytest.mark.parametrize(
        "family, message",
        [
            (ClassL(sd(FC(3), True, ALEPH0)), r"L\(.*\) has no bounded enumeration strategy"),
            (
                ClassW(sd(ALEPH0, True, ALEPH0)),
                "a set with infinite size and infinite complement has no finite "
                "or cofinite realization",
            ),
        ],
        ids=["class-l", "doubly-infinite-w"],
    )
    def test_unbounded_families_are_refused_before_a_block_is_drawn(
        self, monkeypatch, family, message
    ):
        def drawn(*args):
            raise AssertionError("a window block was drawn")

        monkeypatch.setattr(concrete, "_window_blocks", drawn)
        d = sd(FC(3), True, ALEPH0)
        with pytest.raises(FamilyEnumerationError, match=message):
            local_design_check(family, d, d, [F((0, 1, 2))], cutoff=10)


# every base whose class has a bounded window: a finite size or a finite
# cosize (0-4), with or without b where the descriptor is valid
REALIZABLE_BASES = [sd(FC(k), b, ALEPH0) for k in range(5) for b in (False, True) if k or not b]
REALIZABLE_BASES += [sd(ALEPH0, b, FC(k)) for k in range(5) for b in (False, True) if k or b]
ODD_TAIL_D = sd(ALEPH0, True, ALEPH0)


# a point of [0, 12], 0 about half the time; lists of them in any order, with
# repeats, and without them, as a point list in text must be
POINT = st.one_of(st.just(0), st.integers(0, 12))
POINTS = st.lists(POINT, max_size=6)
DISTINCT_POINTS = st.lists(POINT, max_size=6, unique=True)


@st.composite
def built_sets(draw):
    """A set built through one of the paths that make ConcreteSets: the
    public constructor on unsorted points, parse, complement, & and |,
    realize_descriptor, or a window block."""
    path = draw(st.sampled_from(
        ("constructor", "parse", "complement", "and", "or", "realize", "window")
    ))
    a, b = (ConcreteSet(draw(st.booleans()), tuple(draw(POINTS))) for _ in range(2))
    if path == "constructor":
        return a
    if path == "parse":
        points = ",".join(map(str, draw(DISTINCT_POINTS)))
        return ConcreteSet.parse(f"{draw(st.sampled_from(('fin', 'cofin')))}:{points}")
    if path == "complement":
        return a.complement()
    if path == "and":
        return a & b
    if path == "or":
        return a | b
    d = draw(st.sampled_from(REALIZABLE_BASES))
    if path == "realize":
        return realize_descriptor(d)
    family = draw(st.sampled_from((ClassW(d), Singleton(d))))
    window = list(concrete._window_blocks(family, 10, draw(st.integers(0, 8))))
    assume(window)
    return draw(st.sampled_from(window))


@given(built_sets())
@example(ConcreteSet(False, (3, 0)))
@example(ConcreteSet(True, (3, 0)))
def test_stored_b_membership_matches_its_definition(s):
    assert s.contains_b == (0 in s)
    listed = FC(len(s.support))
    written = sd(ALEPH0, 0 in s, listed) if s.cofinite else sd(listed, 0 in s, ALEPH0)
    assert extract_descriptor(s) == written
    # every path builds the set the public constructor builds from its fields
    public = ConcreteSet(s.cofinite, s.support)
    assert s == public and hash(s) == hash(public)
    assert s.contains_b is public.contains_b


@st.composite
def windows_and_probes(draw):
    """A window (family, block descriptor, cutoff, prefix) and probes on
    points of [0, prefix + 3], or [0, 2 * cutoff + 5] for the odd-tail."""
    kind = draw(st.sampled_from(("class-w", "odd-tail", "singleton")))
    cutoff = draw(st.integers(1, 60))
    if kind == "odd-tail":
        family, d, prefix, top = OddTail(), ODD_TAIL_D, None, 2 * cutoff + 5
    else:
        d = draw(st.sampled_from(REALIZABLE_BASES))
        family = ClassW(d) if kind == "class-w" else Singleton(d)
        prefix = draw(st.integers(0, 14))
        top = prefix + 3
    points = st.frozensets(st.integers(0, top), max_size=6)
    probes = draw(st.lists(st.builds(ConcreteSet, st.booleans(), points), max_size=4))
    return family, d, cutoff, prefix, probes


def literal_failures(family, d, cutoff, prefix, require_complement):
    """Walk the whole window and list each block's shape failure."""
    co_d = complement(d)
    out = []
    for block in concrete._window_blocks(family, cutoff, prefix):
        desc = extract_descriptor(block)
        if not subspace_homeomorphic(desc, d):
            out.append(f"{block.to_text()}: not shaped like D")
        elif require_complement and not subspace_homeomorphic(complement(desc), co_d):
            out.append(f"{block.to_text()}: complement not shaped like X \\ D")
    return out


class TestClosedFormWindows:
    @given(windows_and_probes())
    @settings(max_examples=400, deadline=None)
    # no block of W(cofinite, b not in D, cosize 2) holds b, so none holds
    # fin:0,5; the family-wide count is 0, not unknown
    @example((ClassW(sd(ALEPH0, False, FC(2))), sd(ALEPH0, False, FC(2)), 10, 8, [F((0, 5))]))
    # a singleton's family-wide window is its one block, not unbounded
    @example((Singleton(sd(FC(1), False, ALEPH0)), sd(FC(1), False, ALEPH0), 1, 0, [F(())]))
    def test_closed_form_matches_literal_enumeration(self, case):
        family, d, cutoff, prefix, probes = case
        window = list(concrete._window_blocks(family, cutoff, 0 if prefix is None else prefix))
        # the shape check reads the first block only: all blocks share it
        assert len({extract_descriptor(block) for block in window}) <= 1
        for probe in probes:
            report = local_design_check(
                family, extract_descriptor(probe), d, [probe], cutoff, prefix=prefix
            )
            assert report.blocks_checked == len(window)
            assert report.block_failures == ()
            assert report.rejected == ()
            (probe_report,) = report.probes
            assert probe_report.count == blocks_containing(family, probe, cutoff, prefix)
            # a finite family-wide count is the literal one once the window
            # covers the probe; an infinite one keeps the literal count
            # growing.  Bases leave at most 4 free points, so a window 4
            # points past the probe already grows.
            last = max(probe.support, default=0)
            exact = probe_report.global_exact
            if exact is None:
                wide = last + 4
                assert blocks_containing(family, probe, wide, wide).value < (
                    blocks_containing(family, probe, wide + 1, wide + 1).value
                )
            else:
                for past in (last, last + 1):
                    count = blocks_containing(family, probe, past + exact + 1, past)
                    assert count == BlockCount.exactly(exact)

    @pytest.mark.parametrize(
        "family, d",
        [
            # blocks of size 3 against a D of size 2
            (ClassW(sd(FC(3), True, ALEPH0)), sd(FC(2), True, ALEPH0)),
            (ClassW(sd(ALEPH0, False, FC(2))), sd(ALEPH0, True, FC(2))),
            # shaped like D, but the complements are finite
            (ClassW(sd(ALEPH0, True, FC(2))), sd(ALEPH0, True, ALEPH0)),
            (Singleton(sd(ALEPH0, True, FC(0))), sd(ALEPH0, True, ALEPH0)),
            # shaped like D, but the complements are infinite
            (OddTail(), sd(ALEPH0, True, FC(2))),
        ],
    )
    @pytest.mark.parametrize("require_complement", [True, False])
    def test_block_failures_match_a_literal_walk(self, family, d, require_complement):
        cutoff, prefix = 7, 9
        report = local_design_check(
            family, d, d, [], cutoff, require_complement=require_complement, prefix=prefix
        )
        assert list(report.block_failures) == literal_failures(
            family, d, cutoff, prefix, require_complement
        )
        if require_complement:
            assert report.block_failures
        block_d = extract_descriptor(next(concrete._window_blocks(family, cutoff, prefix)))
        matching = local_design_check(family, block_d, block_d, [], cutoff, prefix=prefix)
        assert matching.block_failures == ()
        assert report.blocks_checked == matching.blocks_checked == sum(
            1 for _ in concrete._window_blocks(family, cutoff, prefix)
        )


@pytest.fixture
def window_draws_two_blocks(monkeypatch):
    """Make the window stream raise at a third draw."""
    drawn = concrete._window_blocks

    def two_draws(*args):
        blocks = drawn(*args)
        yield next(blocks)
        yield next(blocks)
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(concrete, "_window_blocks", two_draws)


@pytest.mark.usefixtures("window_draws_two_blocks")
class TestNoEnumeration:
    def test_huge_class_w_window(self):
        cutoff = 10**6
        c, d = sd(FC(3), False, ALEPH0), sd(FC(4), False, ALEPH0)
        probes = [F((1, 2, 3)), F((0, 1, 2)), F((1, 2, cutoff + 2)), F((1, 2, cutoff + 3))]
        report = local_design_check(ClassW(d), c, d, probes, cutoff)
        assert report.blocks_checked == math.comb(cutoff + 2, 4)
        assert [p.count for p in report.probes] == [
            BlockCount.exactly(cutoff - 1),
            BlockCount.exactly(0),
            BlockCount.exactly(cutoff - 1),
            BlockCount.exactly(0),
        ]
        # no block holds b, while cofinally many hold the others
        assert report.refutation[0].probe == F((0, 1, 2))

    def test_huge_odd_tail_window(self):
        cutoff = 10**9
        c = sd(FC(2), True, ALEPH0)
        probes = [F((0, 2 * 10**6 + 1)), F((0, 2))]
        report = local_design_check(OddTail(), c, ODD_TAIL_D, probes, cutoff)
        assert report.blocks_checked == cutoff
        assert [p.count for p in report.probes] == [
            BlockCount.exactly(cutoff - 10**6),
            BlockCount.at_least(cutoff),
        ]

    def test_refutation_demo_at_a_huge_cutoff(self, capsys):
        argv = ["verify", "--refutation-demo", "--cutoff", "1000000", "--format", "record"]
        assert main(argv) == 1
        assert "blocks_checked: 500001500001\n" in capsys.readouterr().out

    def test_wrong_shape_window_over_the_budget_is_refused(self):
        # C(802, 2) = 321,201 blocks of size 3 checked against a D of size 2
        d3, d2 = sd(FC(3), True, ALEPH0), sd(FC(2), True, ALEPH0)
        with pytest.raises(ValueError, match="321201 blocks are not shaped like D"):
            local_design_check(ClassW(d3), d2, d2, [], 800)
        # odd-tail blocks hold b, this D does not
        d = sd(ALEPH0, False, ALEPH0)
        with pytest.raises(ValueError, match=r"exceeds the budget of 100000 blocks"):
            local_design_check(OddTail(), d, d, [], 10**9)


def test_listing_budget_is_checked_against_the_window_count(monkeypatch):
    family, d = ClassW(sd(FC(3), True, ALEPH0)), sd(FC(2), True, ALEPH0)
    window = math.comb(9, 2)  # the b-pinned blocks' 2 other points among [1, 9]
    monkeypatch.setattr(concrete, "LISTING_BUDGET", window)
    report = local_design_check(family, d, d, [], 7, prefix=9)
    assert len(report.block_failures) == report.blocks_checked == window
    monkeypatch.setattr(concrete, "LISTING_BUDGET", window - 1)
    with pytest.raises(ValueError, match="budget"):
        local_design_check(family, d, d, [], 7, prefix=9)


def drawn_blocks(monkeypatch):
    """Every block the window streams yield from now on."""
    drawn, built = [], concrete._window_blocks

    def counted(*args):
        for block in built(*args):
            drawn.append(block)
            yield block

    monkeypatch.setattr(concrete, "_window_blocks", counted)
    return drawn


def test_a_walk_past_the_budget_is_refused_before_the_next_block(monkeypatch):
    # no block of this b-free window holds b, so at cutoff 100 the walk
    # would draw all comb(102, 3) = 171,700 blocks
    family = ClassW(sd(FC(3), False, ALEPH0))
    drawn = drawn_blocks(monkeypatch)
    monkeypatch.setattr(concrete, "LISTING_BUDGET", 1000)
    with pytest.raises(
        ValueError, match="^walking 171700 window blocks exceeds the budget of 1000 blocks$"
    ):
        blocks_containing(family, F((0,)), 100)
    assert len(drawn) == 1000
    # a walk that saturates first is unchanged
    drawn.clear()
    assert blocks_containing(family, F((1,)), 100) == BlockCount.at_least(100)
    assert len(drawn) == 100
    # and so is one whose window ends first, at the budget or below it
    for budget in (1000, 220):
        monkeypatch.setattr(concrete, "LISTING_BUDGET", budget)
        drawn.clear()
        assert blocks_containing(family, F((0,)), 10) == BlockCount.exactly(0)
        assert len(drawn) == math.comb(12, 3) == 220
    monkeypatch.setattr(concrete, "LISTING_BUDGET", 219)
    with pytest.raises(ValueError, match="budget of 219 blocks"):
        blocks_containing(family, F((0,)), 10)


def test_design_check_reads_its_family_once(monkeypatch):
    # one layout gives every count, and the stream that yields the
    # shape-check block lays the window out once more
    calls = {"_layout": 0, "_window_blocks": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(concrete, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(concrete, name, counted)
    d = sd(FC(3), False, ALEPH0)
    probes = [F((1, 2)), F((3, 4)), F((0,))]
    local_design_check(ClassW(d), sd(FC(2), False, ALEPH0), d, probes, 10)
    assert calls == {"_layout": 2, "_window_blocks": 1}


def oracle_transcript():
    """Every answer of the homeomorphism oracle on finite and cofinite sets
    with supports in [0, 3], one line each."""
    sets = [ConcreteSet(kind, support) for kind in (False, True)
            for r in range(5) for support in itertools.combinations(range(4), r)]
    # no exception, one pair in [0, 5]^2, and two-pair tables that send 0
    # elsewhere or swap two points' images
    tables = [()] + [((a, b),) for a in range(6) for b in range(6)] + [
        ((0, 1), (1, 0)), ((0, 2), (2, 0)), ((0, 3), (1, 0)),
        ((1, 2), (2, 1)), ((1, 3), (3, 1)), ((2, 3), (3, 2)), ((1, 2), (2, 2)),
    ]
    fixed = [PointMap(aligned, table) for aligned in (True, False) for table in tables]
    for s in sets:
        yield f"{s.to_text()} {extract_descriptor(s)!r} {s.contains_b}"
    for u, v in itertools.product(sets, repeat=2):
        images = [(x, PointMap().apply(x, u, v)) for x in range(8) if x in u]
        yield f"{u.to_text()} {v.to_text()} {canonical_homeomorphism(u, v)!r} {images}"
        # the full aligned table of the first members, and its pairwise swaps
        known = [(x, y) for x, y in images[:4] if y is not None]
        swaps = [((x, y2), (x2, y)) for (x, y), (x2, y2) in itertools.combinations(known, 2)]
        maps = fixed + [PointMap(aligned, table) for aligned in (True, False)
                        for table in [tuple(known)] + swaps]
        yield "".join("1" if check_homeomorphism(m, u, v) else "0" for m in maps)


def test_oracle_answers_are_pinned():
    # any change to a descriptor, a canonical map, an aligned image or a
    # check_homeomorphism answer on this domain changes the digest
    digest = hashlib.sha256()
    lines = 0
    for line in oracle_transcript():
        digest.update(f"{line}\n".encode())
        lines += 1
    assert lines == 32 + 2 * 32 * 32
    assert digest.hexdigest() == (
        "2e2d1ec1773b52c4205d181ebb260013c4575096750e2d710cd476a84cbcd70b"
    )
