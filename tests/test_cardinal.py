import itertools

import pytest
from hypothesis import given, strategies as st

from fortdesign.cardinal import ALEPH0, Cardinal, LambdaValue, csum

GRID = [Cardinal.finite(n) for n in range(11)] + [Cardinal.aleph(i) for i in range(4)]

cardinals = st.one_of(
    st.integers(0, 50).map(Cardinal.finite),
    st.integers(0, 3).map(Cardinal.aleph),
)


def test_compare_examples():
    assert Cardinal.finite(3) == Cardinal.finite(3)
    assert Cardinal.finite(10**9) < ALEPH0
    assert ALEPH0 < Cardinal.aleph(1)
    assert max(Cardinal.finite(7), ALEPH0) == ALEPH0


def test_compare_is_a_total_order_on_the_grid():
    # GRID is listed in ascending order, so list position is the reference
    for (i, a), (j, b) in itertools.product(enumerate(GRID), repeat=2):
        assert (a < b) == (i < j)
        assert (a <= b) == (i <= j)
        assert (a > b) == (i > j)
        assert (a >= b) == (i >= j)
        assert (a == b) == (i == j)
        assert max(a, b) == GRID[max(i, j)]
    for a, b, c in itertools.product(GRID, repeat=3):
        if a <= b and b <= c:
            assert a <= c


def test_every_finite_precedes_every_aleph():
    for n in (0, 1, 10, 10**9):
        for i in range(4):
            assert Cardinal.finite(n) < Cardinal.aleph(i)


def test_csum_examples():
    assert csum(Cardinal.finite(2), Cardinal.finite(3)) == Cardinal.finite(5)
    assert csum(Cardinal.finite(7), ALEPH0) == ALEPH0
    assert csum(ALEPH0, Cardinal.aleph(1)) == Cardinal.aleph(1)


def test_csum_commutative_and_associative_on_the_grid():
    for a, b in itertools.product(GRID, repeat=2):
        assert csum(a, b) == csum(b, a)
    for a, b, c in itertools.product(GRID, repeat=3):
        assert csum(csum(a, b), c) == csum(a, csum(b, c))


def test_csum_is_max_when_infinite():
    for a, b in itertools.product(GRID, repeat=2):
        if not max(a, b).is_finite:
            assert csum(a, b) == max(a, b)


def test_construction_limits():
    with pytest.raises(ValueError):
        Cardinal.finite(-1)
    with pytest.raises(ValueError):
        Cardinal.aleph(4)


@given(cardinals)
def test_string_round_trip(card):
    assert Cardinal.parse(str(card)) == card


def test_string_format():
    assert str(Cardinal.finite(3)) == "3"
    assert str(ALEPH0) == "aleph0"
    assert str(Cardinal.aleph(1)) == "aleph1"
    with pytest.raises(ValueError):
        Cardinal.parse("alephx")
    with pytest.raises(ValueError):
        Cardinal.parse("-2")


def test_lambda_value():
    lam = LambdaValue.exact(ALEPH0)
    assert str(lam) == "aleph0"
    assert str(LambdaValue.family_size("W")) == "card(W)"
    with pytest.raises(ValueError):
        LambdaValue.exact(Cardinal.finite(0))
    with pytest.raises(ValueError):
        LambdaValue(value=ALEPH0, family="W")
    with pytest.raises(ValueError):
        LambdaValue()
