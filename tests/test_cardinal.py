import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from fortdesign.cardinal import (
    ALEPH0, DIGIT_BUDGET, ONE, Cardinal, LambdaValue, csum, parse_natural, parse_points,
)

GRID = [Cardinal.finite(n) for n in range(11)] + [Cardinal.aleph(i) for i in range(4)]

cardinals = st.one_of(
    st.integers(0, 50).map(Cardinal.finite),
    st.integers(0, 10**6).map(Cardinal.aleph),
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
        if max(a, b).infinite:
            assert csum(a, b) == max(a, b)


def test_construction_limits():
    with pytest.raises(ValueError):
        Cardinal.finite(-1)
    with pytest.raises(ValueError):
        Cardinal.aleph(-1)
    # any natural aleph index is a cardinal, ordered by its index
    assert Cardinal.aleph(3) < Cardinal.aleph(4) < Cardinal.aleph(17) < Cardinal.aleph(10**12)


@given(cardinals)
def test_string_round_trip(card):
    assert Cardinal.parse(str(card)) == card


def test_string_format():
    assert str(Cardinal.finite(3)) == "3"
    assert str(ALEPH0) == "aleph0"
    assert str(Cardinal.aleph(1)) == "aleph1"
    assert Cardinal.parse(" aleph2\n") == Cardinal.aleph(2)
    assert Cardinal.parse("aleph4") == Cardinal.aleph(4)
    assert Cardinal.parse("aleph17") == Cardinal.aleph(17)
    # only the canonical ASCII spelling; Arabic-Indic three and fullwidth zero
    # would otherwise be read as 3 and 0
    for text in ("alephx", "-2", "\u0663", "\uff10", "aleph01", "aleph017", "01", "aleph\u0663",
                 "+3", "", "aleph 1", "aleph\t2", "aleph", "1_0"):
        with pytest.raises(ValueError, match="malformed cardinal"):
            Cardinal.parse(text)


def test_parse_natural():
    assert parse_natural(" 7\n") == 7 and parse_natural("0") == 0
    assert parse_natural("1203") == 1203
    for text in ("\u0663", "\uff10", "1_0", "07", "+3", "-1", "", "3 4", "0x1"):
        with pytest.raises(ValueError, match="malformed natural number"):
            parse_natural(text)


def test_a_numeral_over_the_digit_budget_is_refused_before_it_is_read():
    assert DIGIT_BUDGET == 640
    assert parse_natural(" " + "9" * 640) == 10**640 - 1
    assert Cardinal.parse("aleph" + "9" * 640) == Cardinal.aleph(10**640 - 1)
    # the readers that call parse_natural pass its words on unwrapped
    message = "^a natural number of 641 digits exceeds the budget of 640 digits$"
    numeral = "1" + "0" * 640
    for read in (parse_natural, parse_points, Cardinal.parse, lambda t: Cardinal.parse("aleph" + t),
                 lambda t: parse_points("3, " + t)):
        with pytest.raises(ValueError, match=message):
            read(numeral)


def test_parse_points():
    assert parse_points(" 3 , 10") == [3, 10] and parse_points("0") == [0]
    assert parse_points("") == [] and parse_points("  ") == []
    for text in ("1,,2", "3,10,", ",", "1,x"):
        with pytest.raises(ValueError, match="malformed natural number"):
            parse_points(text)
    for text in ("0,4,4", "4, 4"):
        with pytest.raises(ValueError, match="repeated point"):
            parse_points(text)


@given(st.text() | st.from_regex(r"\s*(aleph)?\d{1,3}\s*", fullmatch=True))
def test_parse_accepts_only_what_str_prints(text):
    try:
        card = Cardinal.parse(text)
    except ValueError:
        return
    assert str(card) == text.strip()


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


def key(card):
    return (card.infinite, card.value)


@given(cardinals, cardinals)
def test_order_equality_and_hash_are_the_key_tuples(a, b):
    assert (a < b) == (key(a) < key(b))
    assert (a <= b) == (key(a) <= key(b))
    assert (a == b) == (key(a) == key(b))
    if a == b:
        assert hash(a) == hash(b)
    assert key(max(a, b)) == max(key(a), key(b))
    # equal-valued plain tuples compare equal
    assert a == key(a) and hash(a) == hash(key(a))


@pytest.mark.parametrize("make, message", [
    (lambda: Cardinal.finite(-1), "cardinal value must be >= 0, got -1"),
    (lambda: Cardinal.aleph(-2), "cardinal value must be >= 0, got -2"),
    (lambda: Cardinal("aleph", 4), "cardinal flag infinite must be bool, got 'aleph'"),
    (lambda: LambdaValue(), "LambdaValue is either exact or a family size"),
    (lambda: LambdaValue(ONE, "W"), "LambdaValue is either exact or a family size"),
    (lambda: LambdaValue.exact(Cardinal.finite(0)), "design multiplicity must be >= 1"),
    (lambda: LambdaValue.family_size(""), "family-size label must be nonempty"),
])
def test_invalid_records_are_rejected_with_their_message(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make, message", [
    # each was accepted: 2.5 printed as 2.5, (1, 0) was aleph0, ('x', 1) aleph1
    (lambda: Cardinal.finite(2.5), "cardinal value must be int, got 2.5"),
    (lambda: Cardinal.finite(True), "cardinal value must be int, got True"),
    (lambda: Cardinal.aleph("1"), "cardinal value must be int, got '1'"),
    (lambda: Cardinal(1, 0), "cardinal flag infinite must be bool, got 1"),
    (lambda: Cardinal("x", 1), "cardinal flag infinite must be bool, got 'x'"),
    (lambda: Cardinal(None, 3), "cardinal flag infinite must be bool, got None"),
])
def test_cardinal_takes_only_an_int_value_and_a_bool_flag(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_small_finite_cardinals_are_shared_and_equal_to_built_ones():
    for n in range(101):
        shared = Cardinal.finite(n)
        assert shared == Cardinal(False, n) and type(shared) is Cardinal
        assert repr(shared) == f"Cardinal.finite({n})"
    assert Cardinal.finite(7) is Cardinal.finite(7)
    for bad, message in ((True, "must be int, got True"), (2.5, "must be int, got 2.5"),
                         (-1, "must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^cardinal value {message}$"):
            Cardinal.finite(bad)


def test_fields_cannot_be_assigned():
    for record, field in ((ALEPH0, "value"), (LambdaValue.exact(ONE), "family")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("record", [
    Cardinal.finite(7), Cardinal.aleph(3), LambdaValue.exact(ALEPH0),
    LambdaValue.family_size("W"),
])
def test_records_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)
        assert repr(clone) == repr(record)
