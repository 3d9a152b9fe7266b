import itertools
import random

import pytest

from fortdesign.designs import DesignType
from fortdesign.finitebrute import (
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
    with pytest.raises(ValueError, match="line 2: malformed block"):
        parse_instance("7, 2, 3\n0,1,\u0662\n")
    with pytest.raises(ValueError, match="empty"):
        parse_instance("\n\n")
