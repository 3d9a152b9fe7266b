import itertools
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from fortdesign import finitebrute
from fortdesign.designs import DesignType
from fortdesign.finitebrute import (
    WALK_BUDGET,
    BruteOutcome,
    FiniteInstance,
    all_k_subsets_instance,
    all_k_subsets_lambda,
    brute_lambda,
    parse_instance,
)


def test_all_three_subsets_of_seven():
    inst = all_k_subsets_instance(7, 3, 2)
    assert brute_lambda(inst, DesignType.TYPE2) == BruteOutcome.exactly(5)
    assert all_k_subsets_lambda(7, 3, 2) == 5


def test_all_three_subsets_of_six():
    inst = all_k_subsets_instance(6, 3, 2)
    assert brute_lambda(inst, DesignType.TYPE2) == BruteOutcome.exactly(4)
    assert all_k_subsets_lambda(6, 3, 2) == 4


def test_perfect_matching_covers_each_point_once():
    inst = FiniteInstance(4, (frozenset({0, 1}), frozenset({2, 3})), 1, 2)
    assert brute_lambda(inst, DesignType.TYPE1) == BruteOutcome.exactly(1)


def test_closed_form_examples():
    assert all_k_subsets_lambda(8, 4, 1) == 35
    assert all_k_subsets_lambda(5, 4, 3) == 2
    with pytest.raises(ValueError):
        all_k_subsets_lambda(5, 5, 2)
    with pytest.raises(ValueError):
        all_k_subsets_lambda(5, 3, 3)
    with pytest.raises(ValueError, match=r"^parameters must satisfy 1 <= t < k < n$"):
        all_k_subsets_instance(5, 5, 2)


@pytest.mark.parametrize("make, message", [
    # each was once read as other input or raised TypeError: True as t = 1,
    # and 6.0 or 3.0 reached range() and math.comb
    (lambda: all_k_subsets_lambda(6, 3, True), "t must be int, got True"),
    (lambda: all_k_subsets_lambda(6.0, 3, 2), "n must be int, got 6.0"),
    (lambda: all_k_subsets_lambda(6, 3.0, 2), "k must be int, got 3.0"),
    (lambda: all_k_subsets_instance(6.0, 3, 2), "n must be int, got 6.0"),
    (lambda: all_k_subsets_instance(6, 3.0, 2), "k must be int, got 3.0"),
    (lambda: all_k_subsets_instance(6, 3, True), "t must be int, got True"),
])
def test_closed_form_arguments_are_read_exactly(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_removing_one_block_breaks_uniformity():
    full = all_k_subsets_instance(7, 3, 2)
    blocks = tuple(b for b in full.blocks if b != frozenset({0, 1, 2}))
    broken = FiniteInstance(7, blocks, 2, 3)
    outcome = brute_lambda(broken, DesignType.TYPE2)
    assert not outcome.uniform
    # the witness pair is genuine: recount both probes directly
    for probe, count in ((outcome.first, outcome.first_count),
                         (outcome.second, outcome.second_count)):
        assert sum(1 for b in blocks if set(probe) <= b) == count
    assert outcome.first_count != outcome.second_count
    assert str(outcome) == "NonUniform({0,1} in 4 blocks, {0,3} in 5 blocks)"


def test_an_indexed_count_the_definition_disagrees_with_is_an_error(monkeypatch):
    # the index is the fast route; a literal recount of the second probe
    # keeps a wrong count from becoming a reported witness
    monkeypatch.setattr(finitebrute, "_first_other", lambda *args: ((0, 2), 7))
    inst = FiniteInstance(5, (frozenset({0, 1, 2}), frozenset({1, 2, 3})), 2, 3)
    message = r"^indexed count 7 of probe \(0, 2\) disagrees with literal count 1$"
    with pytest.raises(RuntimeError, match=message):
        brute_lambda(inst, DesignType.TYPE2)


def test_condition_one_violation_is_reported():
    inst = FiniteInstance(5, (frozenset({0, 1, 2}), frozenset({3, 4})), 2, 3)
    with pytest.raises(ValueError, match="condition I"):
        brute_lambda(inst, DesignType.TYPE2)


def test_instance_validation():
    with pytest.raises(ValueError):
        FiniteInstance(1, (), 1, 1)
    with pytest.raises(ValueError):
        FiniteInstance(4, (frozenset({0, 7}),), 1, 2)
    with pytest.raises(ValueError):
        FiniteInstance(4, (frozenset({0, 1}), frozenset({1, 0})), 1, 2)
    with pytest.raises(ValueError):
        FiniteInstance(4, (), 3, 2)
    # 1.0 == 1, so only a type check keeps it out
    for point in (-1, 4, 1.0, "1"):
        with pytest.raises(ValueError, match="block 1 leaves the ground set"):
            FiniteInstance(4, (frozenset({0, 1}), frozenset({2, point})), 1, 2)


def test_instance_takes_only_int_sizes_and_points():
    for args, message in (
        ((5.0, (), 1, 2), "n must be int, got 5.0"),
        ((5, (), True, 2), "c_size must be int, got True"),
        ((5, (), 1, "2"), "d_size must be int, got '2'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteInstance(*args)
    # True == 1: this block was read as {1, 2} and printed as {True,2}
    with pytest.raises(ValueError, match="^block 0 leaves the ground set at True$"):
        FiniteInstance(5, (frozenset({True, 2, 3}),), 1, 3)


@pytest.mark.parametrize("design_type", [True, 1.0, "2", 5])
def test_brute_lambda_rejects_an_unknown_design_type(design_type):
    with pytest.raises(ValueError):
        brute_lambda(all_k_subsets_instance(5, 3, 2), design_type)


def test_types_collapse_pairwise_on_random_instances():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 7)
        d_size = rng.randint(2, n - 1)
        c_size = rng.randint(1, d_size)
        pool = list(itertools.combinations(range(n), d_size))
        blocks = tuple(
            frozenset(b) for b in rng.sample(pool, rng.randint(1, len(pool)))
        )
        inst = FiniteInstance(n, blocks, c_size, d_size)
        results = {t: brute_lambda(inst, t) for t in DesignType}
        assert results[DesignType.TYPE1] == results[DesignType.TYPE2]
        assert results[DesignType.TYPE3] == results[DesignType.TYPE4]


def reference_lambda(inst: FiniteInstance) -> BruteOutcome:
    """The definition walked literally: every probe, in lexicographic order,
    tested against every block, up to the first count that differs."""
    first = None
    for probe in itertools.combinations(range(inst.n), inst.c_size):
        probe_set = set(probe)
        count = sum(1 for block in inst.blocks if probe_set <= block)
        if first is None:
            first = (probe, count)
        elif count != first[1]:
            return BruteOutcome.non_uniform(*first, probe, count)
    return BruteOutcome.exactly(first[1])


@st.composite
def instances(draw):
    """Instances with n <= 9 whose blocks are none, some or all k-subsets of
    the points not drawn as absent, which lie in no block; one mode keeps
    only blocks missing a point of the first probe."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n))
    t = draw(st.integers(1, k))
    absent = draw(st.sets(st.integers(0, n - 1), max_size=n - k))
    pool = list(itertools.combinations([x for x in range(n) if x not in absent], k))
    mode = draw(st.sampled_from(("some", "all", "first-probe-in-none")))
    if mode == "first-probe-in-none":
        pool = [b for b in pool if b[:t] != tuple(range(t))]
    if mode != "all":
        keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        pool = [b for b, kept in zip(pool, keep) if kept]
    return FiniteInstance(n, tuple(frozenset(b) for b in pool), t, k)


@given(instances())
@example(FiniteInstance(6, (), 2, 3))
@example(FiniteInstance(6, (frozenset({3, 4, 5}), frozenset({1, 2, 5})), 2, 3))
def test_indexed_counts_match_the_literal_walk(inst):
    expected = reference_lambda(inst)
    for design_type in DesignType:
        assert brute_lambda(inst, design_type) == expected


@pytest.fixture
def walk_lookups(monkeypatch):
    """The points ``brute_lambda``'s walk looks up in its index, in order:
    the points of each prefix it extends and one for each probe it visits.
    More than 10 fail the test at once instead of walking on."""
    first_other = finitebrute._first_other
    looked_up = []

    class RecordedIndex(dict):
        def get(self, x, default=None):
            looked_up.append(x)
            if len(looked_up) > 10:
                raise AssertionError("walked past 10 lookups")
            return dict.get(self, x, default)

    def recorded(masks, *args):
        return first_other(RecordedIndex(masks), *args)

    monkeypatch.setattr(finitebrute, "_first_other", recorded)
    return looked_up


@pytest.fixture
def no_index(monkeypatch):
    """Fails the test if ``brute_lambda`` builds its block index."""

    def refused(blocks):
        raise AssertionError("indexed the blocks")

    monkeypatch.setattr(finitebrute, "_index", refused)


def test_no_blocks_is_exactly_zero_without_a_walk(walk_lookups):
    inst = FiniteInstance(200, (), 4, 5)
    assert brute_lambda(inst, DesignType.TYPE2) == BruteOutcome.exactly(0)
    assert walk_lookups == []


def test_first_probe_in_no_block_is_answered_from_the_blocks(walk_lookups, no_index):
    n = 10**5
    blocks = tuple(frozenset(range(n - j, n - j + 3)) for j in (3, 6, 9))
    inst = FiniteInstance(n, blocks, 2, 3)
    expected = BruteOutcome.non_uniform((0, 1), 0, (n - 9, n - 8), 1)
    assert brute_lambda(inst, DesignType.TYPE1) == expected
    assert walk_lookups == []


@pytest.mark.parametrize("inst, bound", [
    # one block holding every point: all C(60, 30) probes share count 1
    (FiniteInstance(60, (frozenset(range(60)),), 30, 60), math.comb(60, 30) + 1),
    # two 24-point blocks on 25 points: C(25, 12) < 2 * C(24, 12) bounds it
    (FiniteInstance(25, (frozenset(range(24)), frozenset(range(1, 25))), 12, 24),
     math.comb(25, 12) + 1),
], ids=["one-block", "two-blocks"])
def test_walk_over_budget_is_refused_before_it_starts(walk_lookups, no_index, inst, bound):
    with pytest.raises(ValueError, match=f"^walk bound {bound} exceeds the budget"):
        brute_lambda(inst, DesignType.TYPE2)
    assert walk_lookups == []


def test_walk_costs_the_probes_it_visits_not_n(walk_lookups):
    inst = FiniteInstance(10**9, (frozenset({0, 1, 2}), frozenset({0, 1, 5})), 2, 3)
    tracemalloc.start()
    try:
        outcome = brute_lambda(inst, DesignType.TYPE2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == BruteOutcome.non_uniform((0, 1), 2, (0, 2), 1)
    assert peak < 2**20
    # prefix (0,), then probes (0, 1) and (0, 2)
    assert walk_lookups == [0, 1, 2]


def test_walk_bound_within_budget_skips_the_binomial_of_n(monkeypatch):
    # C(n, t) costs seconds for n = 10^9 and t = 10^5; the blocks' own term
    # already keeps these bounds within the budget
    n = 10**9
    comb = math.comb

    def comb_but_not_of_n(a, b):
        if a == n:
            raise AssertionError(f"computed C({a}, {b})")
        return comb(a, b)

    monkeypatch.setattr(finitebrute.math, "comb", comb_but_not_of_n)
    two = FiniteInstance(n, (frozenset({0, 1, 2}), frozenset({0, 1, 5})), 2, 3)
    assert brute_lambda(two, DesignType.TYPE2) == BruteOutcome.non_uniform(
        (0, 1), 2, (0, 2), 1)
    t = 1000
    one = FiniteInstance(n, (frozenset(range(t)),), t, t)
    assert brute_lambda(one, DesignType.TYPE2) == BruteOutcome.non_uniform(
        tuple(range(t)), 1, (*range(t - 1), t), 0)


def test_over_budget_refusal_never_builds_the_binomial_of_n(monkeypatch):
    # the bound is the blocks' term 1 + C(1415, 2), over the budget and far
    # below 1 + C(n, t), which the refusal does not need
    n = 10**9
    comb = math.comb

    def comb_but_not_of_n(a, b):
        if a == n:
            raise AssertionError(f"computed C({a}, {b})")
        return comb(a, b)

    monkeypatch.setattr(finitebrute.math, "comb", comb_but_not_of_n)
    one = FiniteInstance(n, (frozenset(range(1415)),), 1413, 1415)
    with pytest.raises(ValueError, match=f"^walk bound 1000406 exceeds the budget of "
                                         f"{WALK_BUDGET} probes$"):
        brute_lambda(one, DesignType.TYPE2)


def test_walk_deeper_than_the_recursion_limit():
    t = sys.getrecursionlimit() + 10
    one = FiniteInstance(t, (frozenset(range(t)),), t, t)
    assert brute_lambda(one, DesignType.TYPE2) == BruteOutcome.exactly(1)
    shifted = FiniteInstance(t + 1, (frozenset(range(t)), frozenset(range(1, t + 1))), t, t)
    outcome = brute_lambda(shifted, DesignType.TYPE2)
    assert (outcome.first_count, outcome.second, outcome.second_count) == (
        1, (*range(t - 1), t), 0)


def test_parse_instance():
    text = "# comment\n7, 2, 3\n0,1,2\n0,1,3\n"
    inst = parse_instance(text)
    assert inst.n == 7 and inst.c_size == 2 and inst.d_size == 3
    assert inst.blocks == (frozenset({0, 1, 2}), frozenset({0, 1, 3}))
    with pytest.raises(ValueError, match="line 1"):
        parse_instance("7, 2\n0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_instance("7, 2, 3\n0,x,2\n")
    # only canonical ASCII naturals: the first header once read as n = 7
    for header in ("\u0667, 2, 3", "7, 02, 3", "7, 2, 3_0", "7, +2, 3"):
        with pytest.raises(ValueError, match="line 1: malformed header"):
            parse_instance(header + "\n0,1,2\n")
    for block in ("0,1,\u0662", "0,,2", "0,1,", "0,0,1"):
        with pytest.raises(ValueError, match="line 2: malformed block"):
            parse_instance(f"7, 2, 3\n{block}\n")
    with pytest.raises(ValueError, match="empty"):
        parse_instance("\n\n")
