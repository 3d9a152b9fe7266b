import itertools

import pytest
from hypothesis import given, strategies as st

from fortdesign.cardinal import ALEPH0, ALEPH1, Cardinal
from fortdesign.descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    complement,
    cosize_minus_b,
    descriptor_grid,
    embeddable,
    pair_equivalent,
    size_minus_b,
    subspace_homeomorphic,
    validate,
)

X0 = SpaceDescriptor(ALEPH0)
X1 = SpaceDescriptor(ALEPH1)
F = Cardinal.finite


def sd(size, b, cosize):
    return SubsetDescriptor(size, b, cosize)


def test_space_must_be_infinite():
    with pytest.raises(ValueError):
        SpaceDescriptor(F(5))


def test_validate_examples():
    assert validate(sd(F(3), True, ALEPH0), X0) == []
    assert validate(sd(F(3), False, F(5)), X0) != []
    assert validate(sd(ALEPH1, False, ALEPH0), X1) == []


def test_validate_reports_each_violation():
    problems = validate(sd(F(0), True, F(2)), X0)
    assert any("empty set" in p for p in problems)
    assert any("max(size, cosize)" in p for p in problems)
    assert validate(sd(ALEPH1, True, ALEPH1), X0) != []  # size above card(X)


def reference_conditions(s, space):
    """The seven descriptor invariants, written out one by one."""
    x = space.size
    return [
        max(s.size, s.cosize) == x,
        not s.size > x,
        not s.cosize > x,
        not (s.size < x and s.cosize != x),
        not (s.cosize < x and s.size != x),
        not (s.size == F(0) and s.contains_b),
        not (s.cosize == F(0) and not s.contains_b),
    ]


def test_validate_matches_the_seven_conditions():
    sizes = [F(n) for n in range(5)] + [Cardinal.aleph(i) for i in range(4)]
    triples = list(itertools.product(sizes, (True, False), sizes))
    assert len(triples) == 162
    checked = 0
    for space in (SpaceDescriptor(Cardinal.aleph(i)) for i in range(4)):
        for size, b, cosize in triples:
            s = sd(size, b, cosize)
            expected = all(reference_conditions(s, space))
            assert (validate(s, space) == []) == expected, (s, space)
            checked += 1
    assert checked == 648


def test_complement_examples():
    s = sd(F(2), True, ALEPH0)
    assert complement(s, X0) == sd(ALEPH0, False, F(2))
    for space in (X0, X1):
        for d in descriptor_grid(space, max_finite=4):
            assert complement(complement(d, space), space) == d
            assert validate(complement(d, space), space) == []


def test_size_minus_b():
    assert size_minus_b(sd(F(4), True, ALEPH0)) == F(3)
    assert size_minus_b(sd(ALEPH0, True, ALEPH0)) == ALEPH0
    assert size_minus_b(sd(F(4), False, ALEPH0)) == F(4)


def test_cosize_minus_b():
    assert cosize_minus_b(sd(ALEPH0, False, F(3))) == F(2)
    assert cosize_minus_b(sd(ALEPH0, True, F(3))) == F(3)
    assert cosize_minus_b(sd(F(2), False, ALEPH0)) == ALEPH0


def test_subspace_homeomorphic_examples():
    assert subspace_homeomorphic(sd(F(3), True, ALEPH0), sd(F(3), False, ALEPH0))
    assert not subspace_homeomorphic(
        sd(ALEPH0, True, ALEPH0), sd(ALEPH0, False, ALEPH0)
    )
    assert subspace_homeomorphic(sd(ALEPH0, True, ALEPH0), sd(ALEPH0, True, ALEPH0))


def test_pair_equivalent_examples():
    assert not pair_equivalent(
        sd(F(2), False, ALEPH0), sd(F(2), True, ALEPH0), X0
    )
    assert pair_equivalent(sd(ALEPH0, True, ALEPH1), sd(ALEPH0, True, ALEPH1), X1)
    assert not pair_equivalent(
        sd(ALEPH1, True, ALEPH0), sd(ALEPH1, True, F(2)), X1
    )


def test_embeddable_examples():
    assert embeddable(sd(F(3), True, ALEPH0), sd(F(5), False, ALEPH0))
    assert not embeddable(sd(ALEPH0, True, ALEPH0), sd(ALEPH0, False, ALEPH0))
    assert not embeddable(sd(ALEPH1, False, ALEPH1), sd(ALEPH0, True, ALEPH1))


def test_pair_equivalent_is_an_equivalence_relation():
    for space in (X0, X1):
        grid = descriptor_grid(space, max_finite=4)
        for u in grid:
            assert pair_equivalent(u, u, space)
        for u, v in itertools.product(grid, repeat=2):
            assert pair_equivalent(u, v, space) == pair_equivalent(v, u, space)
        classes = {}
        for u in grid:
            key = (u.size, u.contains_b, u.cosize)
            classes.setdefault(key, []).append(u)
        # transitivity reduces to class membership: same key iff equivalent
        for u, v in itertools.product(grid, repeat=2):
            same = (u.size, u.contains_b, u.cosize) == (v.size, v.contains_b, v.cosize)
            assert pair_equivalent(u, v, space) == same


def test_pair_equivalent_implies_subspace_homeomorphic():
    for space in (X0, X1):
        grid = descriptor_grid(space, max_finite=4)
        for u, v in itertools.product(grid, repeat=2):
            if pair_equivalent(u, v, space):
                assert subspace_homeomorphic(u, v)
                assert subspace_homeomorphic(
                    complement(u, space), complement(v, space)
                )


def test_embeddable_reflexive_and_transitive_on_the_grid():
    grid = descriptor_grid(X0, max_finite=4)
    for c in grid:
        assert embeddable(c, c)
    for a, b, c in itertools.product(grid, repeat=3):
        if embeddable(a, b) and embeddable(b, c):
            assert embeddable(a, c)


sizes = st.one_of(
    st.integers(0, 9).map(Cardinal.finite), st.integers(0, 2).map(Cardinal.aleph)
)


@given(sizes, st.booleans(), sizes)
def test_record_round_trip(size, flag, cosize):
    d = SubsetDescriptor(size, flag, cosize)
    assert SubsetDescriptor.from_record(d.to_record()) == d


def test_record_keys():
    record = sd(F(3), True, ALEPH0).to_record()
    assert record == {"size": "3", "contains_b": "true", "cosize": "aleph0"}
    with pytest.raises(ValueError):
        SubsetDescriptor.from_record(
            {"size": "3", "contains_b": "yes", "cosize": "aleph0"}
        )


def test_grid_is_valid_and_nonempty():
    for space in (X0, X1):
        grid = descriptor_grid(space)
        assert grid
        for d in grid:
            assert validate(d, space) == []
            assert d.size != Cardinal.finite(0)
    finite_grid = descriptor_grid(X0, finite_sizes_only=True)
    assert all(d.size.is_finite for d in finite_grid)
