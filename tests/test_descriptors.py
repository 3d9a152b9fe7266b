import copy
import itertools
import pickle

import pytest

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
    with pytest.raises(ValueError, match="^the ambient space must be infinite$"):
        SpaceDescriptor(F(5))


def test_descriptors_are_their_field_tuples():
    s = sd(F(3), True, ALEPH0)
    assert s == (F(3), True, ALEPH0) and hash(s) == hash((F(3), True, ALEPH0))
    assert X0 == (ALEPH0,)
    for record, field in ((s, "contains_b"), (X0, "size")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record in (s, X1):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert clone == record and type(clone) is type(record)
    assert repr(s) == (
        "SubsetDescriptor(size=Cardinal.finite(3), contains_b=True, "
        "cosize=Cardinal.aleph(0))"
    )
    assert repr(X1) == "SpaceDescriptor(size=Cardinal.aleph(1))"


def test_validate_examples():
    assert validate(sd(F(3), True, ALEPH0), X0) == []
    assert validate(sd(F(3), False, F(5)), X0) != []
    assert validate(sd(ALEPH1, False, ALEPH0), X1) == []


def test_validate_reports_each_violation():
    problems = validate(sd(F(0), True, F(2)), X0)
    assert any("empty set" in p for p in problems)
    assert any("max(size, cosize)" in p for p in problems)
    assert validate(sd(ALEPH1, True, ALEPH1), X0) != []  # size above card(X)


def test_validate_reports_a_contains_b_that_is_not_a_bool():
    # "no" is truthy: it was read as b in C
    for flag in ("no", 1, None):
        assert validate(sd(F(3), flag, ALEPH0), X0) == [
            f"contains_b must be bool, got {flag!r}"]
    assert validate(sd(F(0), "yes", F(2)), X0) == [
        "max(size, cosize) must equal card(X)=aleph0, got size=0, cosize=2",
        "contains_b must be bool, got 'yes'",
    ]


def test_validate_reports_only_a_size_that_is_not_a_cardinal():
    # the other invariants compare sizes, which would raise
    assert validate(sd(3, "no", None), X0) == [
        "size must be a Cardinal, got 3",
        "cosize must be a Cardinal, got None",
    ]
    assert validate(sd(F(3), True, (True, 0)), X0) == [
        "cosize must be a Cardinal, got (True, 0)"]


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
    assert complement(s) == sd(ALEPH0, False, F(2))
    for space in (X0, X1):
        for d in descriptor_grid(space, max_finite=4):
            assert complement(complement(d)) == d
            assert validate(complement(d), space) == []


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
    # and conversely: u ~ v with X \ u ~ X \ v is u == v, which is how the
    # concrete check and verify test conditions II and IV
    for index in range(4):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space, max_finite=6)
        for u, v in itertools.product(grid, repeat=2):
            both = subspace_homeomorphic(u, v) and subspace_homeomorphic(
                complement(u), complement(v)
            )
            assert pair_equivalent(u, v, space) == both == (u == v)


@pytest.mark.parametrize("args, message", [
    # each was once read as other input or raised TypeError: True as
    # max_finite 1, "no" and 0 as flags, 4.0 reached range()
    ((X0, True), "max_finite must be int, got True"),
    ((X0, 4.0), "max_finite must be int, got 4.0"),
    ((X0, 4, "no"), "finite_sizes_only must be bool, got 'no'"),
    ((X0, 4, 0), "finite_sizes_only must be bool, got 0"),
    # returned 2 descriptors where 4m+3 counts -1
    ((X0, -1), "max_finite must be >= 0, got -1"),
    # a space that is no SpaceDescriptor raised AttributeError
    ((None, 2), "space: must be a SpaceDescriptor, got None"),
    ((ALEPH0, 2), "space: must be a SpaceDescriptor, got Cardinal.aleph(0)"),
    (((ALEPH0,), 2), "space: must be a SpaceDescriptor, got (Cardinal.aleph(0),)"),
    ((None, 2, True), "space: must be a SpaceDescriptor, got None"),
])
def test_grid_arguments_are_read_exactly(args, message):
    with pytest.raises(ValueError) as exc:
        descriptor_grid(*args)
    assert str(exc.value) == message


def test_embeddable_reflexive_and_transitive_on_the_grid():
    grid = descriptor_grid(X0, max_finite=4)
    for c in grid:
        assert embeddable(c, c)
    for a, b, c in itertools.product(grid, repeat=3):
        if embeddable(a, b) and embeddable(b, c):
            assert embeddable(a, c)


def test_grid_is_valid_and_nonempty():
    # sweep runs the deciders on these descriptors without validating them
    for index, max_finite, finite_only in itertools.product(
        range(4), range(9), (False, True)
    ):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space, max_finite, finite_only)
        assert grid or (finite_only and max_finite == 0)
        for d in grid:
            assert validate(d, space) == []
            assert d.size != Cardinal.finite(0)
            assert not d.size.infinite or not finite_only
