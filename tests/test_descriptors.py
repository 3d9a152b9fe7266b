import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from fortdesign.cardinal import ALEPH0, ALEPH1, Cardinal
from fortdesign.concrete import ConcreteSet
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


# A field of the wrong type is refused where the descriptor is built, in
# words that name the field.  Each row was once a reader's case, refused
# only if validate, designs' _violations or concrete's _layout repeated the
# field rules; readers that did not repeat them misread it or raised
# TypeError.
WRONG_FIELDS = [
    # once W bases and singleton members that local_design_check,
    # blocks_containing and _layout refused
    pytest.param((3, False, ALEPH0), "size must be Cardinal, got 3", id="base-size-int"),
    pytest.param((F(3), "no", ALEPH0), "contains_b must be bool, got 'no'", id="base-b-str"),
    pytest.param((ALEPH0, True, 5), "cosize must be Cardinal, got 5", id="base-cosize-int"),
    pytest.param((True, False, ALEPH0), "size must be Cardinal, got True", id="member-size-bool"),
    pytest.param((F(1), 1, ALEPH0), "contains_b must be bool, got 1", id="member-b-int"),
    pytest.param((ALEPH0, False, 1.0), "cosize must be Cardinal, got 1.0",
                 id="member-cosize-float"),
    # once W(base) and L(base) bases that witness_violations refused alike,
    # in each of four spaces
    *[pytest.param((3, True, Cardinal.aleph(i)), "size must be Cardinal, got 3",
                   id=f"class-base-size-int-aleph{i}") for i in range(4)],
    # once a D that witness_violations refused
    pytest.param((3, True, ALEPH0), "size must be Cardinal, got 3", id="witness-d-size-int"),
    # once C's that decide, or decide and crosscheck, raised DescriptorError
    # for; comparing such a size with a Cardinal raised TypeError, and a
    # plain tuple equal to ZERO was not also called empty
    pytest.param((F(3), "no", ALEPH0), "contains_b must be bool, got 'no'", id="decide-b-str"),
    pytest.param((3, True, ALEPH0), "size must be Cardinal, got 3", id="decide-size-int"),
    pytest.param(("3", True, ALEPH0), "size must be Cardinal, got '3'", id="decide-size-str"),
    pytest.param(((False, 3), True, ALEPH0), "size must be Cardinal, got (False, 3)",
                 id="decide-size-tuple"),
    pytest.param((F(3), True, None), "cosize must be Cardinal, got None",
                 id="decide-cosize-none"),
    pytest.param(((False, 0), True, ALEPH0), "size must be Cardinal, got (False, 0)",
                 id="decide-size-tuple-zero"),
    # once descriptors that validate reported; "no" is truthy and was read
    # as b in C, and a size of the wrong type hid every other rule
    *[pytest.param((F(3), flag, ALEPH0), f"contains_b must be bool, got {flag!r}",
                   id=f"validate-b-{type(flag).__name__}") for flag in ("no", 1, None)],
    pytest.param((F(0), "yes", F(2)), "contains_b must be bool, got 'yes'",
                 id="validate-b-str-other-space"),
    pytest.param((3, "no", None), "size must be Cardinal, got 3", id="validate-all-wrong"),
    pytest.param((F(3), True, (True, 0)), "cosize must be Cardinal, got (True, 0)",
                 id="validate-cosize-tuple"),
]


@pytest.mark.parametrize("fields, message", WRONG_FIELDS)
def test_a_field_of_the_wrong_type_is_refused_when_the_descriptor_is_built(fields, message):
    with pytest.raises(ValueError) as raised:
        SubsetDescriptor(*fields)
    assert str(raised.value) == message
    # a record built past the constructor is refused by every copy of it
    unchecked = tuple.__new__(SubsetDescriptor, fields)
    for clone in (lambda: pickle.loads(pickle.dumps(unchecked)), lambda: copy.copy(unchecked),
                  lambda: copy.deepcopy(unchecked), lambda: SubsetDescriptor._make(fields),
                  lambda: unchecked._replace()):
        with pytest.raises(ValueError) as raised:
            clone()
        assert str(raised.value) == message


def grid_descriptors():
    return [d for index in range(4)
            for d in descriptor_grid(SpaceDescriptor(Cardinal.aleph(index)), 5)]


def concrete_set_descriptors():
    return [ConcreteSet(cofinite, support).descriptor
            for cofinite in (False, True)
            for support in ((), (0,), (3,), (0, 2, 5), tuple(range(1, 40)))]


@pytest.mark.parametrize("built", [grid_descriptors, concrete_set_descriptors])
def test_descriptors_built_past_the_constructor_hold_what_it_takes(built):
    # descriptor_grid and ConcreteSet build from fields they have typed
    # already, without the constructor: each record must be one it accepts
    descriptors = built()
    assert descriptors
    for d in descriptors:
        assert type(d) is SubsetDescriptor
        assert [type(value) for value in d] == [Cardinal, bool, Cardinal]
        assert SubsetDescriptor(*d) == d


CARDINALS = st.one_of(st.integers(0, 4).map(F), st.integers(0, 2).map(Cardinal.aleph))
# ints, bools, None, text, plain tuples equal to Cardinals, and Cardinals
FIELD_VALUES = st.one_of(
    st.integers(-1, 4), st.booleans(), st.none(), st.text(max_size=2),
    CARDINALS.map(tuple), CARDINALS,
)
FIELD_KINDS = (("size", Cardinal), ("contains_b", bool), ("cosize", Cardinal))


def built_or_refused(fields):
    """The descriptor of ``fields``, or None once its refusal is checked:
    the first field of the wrong type is named."""
    wrong = [(name, kind, value) for (name, kind), value in zip(FIELD_KINDS, fields)
             if type(value) is not kind]
    if wrong:
        name, kind, value = wrong[0]
        with pytest.raises(ValueError) as raised:
            SubsetDescriptor(*fields)
        assert str(raised.value) == f"{name} must be {kind.__name__}, got {value!r}"
        return None
    s = SubsetDescriptor(*fields)
    assert [type(value) for value in s] == [Cardinal, bool, Cardinal]
    return s


@given(st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES),
       st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES), st.integers(0, 2))
def test_no_reader_misreads_a_descriptor_that_was_built(u_fields, v_fields, index):
    # every descriptor that exists has typed fields, so no reader raises on
    # one, or reads a plain tuple or an int flag as some other input
    space = SpaceDescriptor(Cardinal.aleph(index))
    built = [s for s in map(built_or_refused, (u_fields, v_fields)) if s is not None]
    for s in built:
        assert type(validate(s, space)) is list
        assert type(size_minus_b(s)) is Cardinal and type(cosize_minus_b(s)) is Cardinal
    for u, v in itertools.product(built, repeat=2):
        assert type(embeddable(u, v)) is bool
        assert type(subspace_homeomorphic(u, v)) is bool


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
