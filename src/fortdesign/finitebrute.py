"""Brute-force design verification on finite discrete ground sets.

A finite Fort space is discrete (any subset avoiding b is open, and every
b-containing subset has finite complement), so homeomorphism degenerates to
equal cardinality and the four design types collapse pairwise onto the
classical t-(n,k,lambda) notion.  This module is the definitional sanity
anchor, with the closed-form binomial count as an independent cross-check.
The first probe is counted literally; unless it lies in no block, the walk
bound is checked before one pass indexes block bitmasks over the points some
block holds, and probes are walked in lexicographic order, one AND per
probe and t - 1 per (t-1)-prefix drawn from range(min(n, m + 1) - 1) for m
indexed points.  So a call visits at most 1 + min(C(n,t), sum_i C(|B_i|,t))
probes, and as each prefix scans a probe, at most t ANDs per probe; it
refuses a walk whose bound times t is over ``WALK_BUDGET``, and costs
nothing per point that no block holds: the cost does not depend on n.
Every count reported is checked literally, probe set against block.
"""

from __future__ import annotations

__all__ = [
    "BruteOutcome", "FiniteInstance", "all_k_subsets_instance",
    "all_k_subsets_lambda", "brute_lambda", "parse_instance",
]

import itertools
import math
from collections import defaultdict
from typing import NamedTuple

from .cardinal import _OverDigitBudget, _Validated, _exactly, parse_natural, parse_points
from .designs import DesignType

# the most mask ANDs a walk may be bounded by, its probe bound times t: each
# prefix ANDs t - 1 masks and each probe one more.  Uniform walks of one
# block bounded near it take 0.23-0.48 s on a 2-vCPU Xeon VM under Python
# 3.11.7, from 4,997,541 probes at t = 2 to 324,632 at t = 30; the 705,432
# probes of 22 points at t = 11 take 0.35 s.  One block of 502 points with
# t = 500 is 125,751 probes, about 6.3 * 10^7 ANDs, and is refused
WALK_BUDGET = 10**7


class _FiniteInstanceFields(NamedTuple):
    n: int
    blocks: tuple[frozenset[int], ...]
    c_size: int
    d_size: int


class FiniteInstance(_Validated, _FiniteInstanceFields):
    """A ground set {0..n-1}, a block family, and the probe/block sizes."""

    __slots__ = ()

    def __new__(
        cls, n: int, blocks: tuple[frozenset[int], ...], c_size: int, d_size: int
    ) -> "FiniteInstance":
        _exactly(int, n, "n")
        _exactly(int, c_size, "c_size")
        _exactly(int, d_size, "d_size")
        if n < 2:
            raise ValueError("ground set needs at least 2 elements")
        if not (1 <= c_size <= d_size <= n):
            raise ValueError("sizes must satisfy 1 <= c_size <= d_size <= n")
        try:
            frozen = tuple(frozenset(b) for b in blocks)
        except TypeError:
            raise ValueError(f"blocks must be an iterable of sets, got {blocks!r}") from None
        for i, block in enumerate(frozen):
            for x in block:
                if type(x) is not int or not 0 <= x < n:
                    raise ValueError(f"block {i} leaves the ground set at {x!r}")
        if len(set(frozen)) != len(frozen):
            raise ValueError("blocks must be pairwise distinct")
        return tuple.__new__(cls, (n, frozen, c_size, d_size))


class BruteOutcome(NamedTuple):
    """Either the common containment count or a pair witnessing non-uniformity."""

    uniform: bool
    lambda_: int | None = None
    first: tuple[int, ...] | None = None
    first_count: int | None = None
    second: tuple[int, ...] | None = None
    second_count: int | None = None

    @classmethod
    def exactly(cls, lam: int) -> "BruteOutcome":
        return cls(True, lambda_=lam)

    @classmethod
    def non_uniform(
        cls, first: tuple[int, ...], c1: int, second: tuple[int, ...], c2: int
    ) -> "BruteOutcome":
        return cls(False, first=first, first_count=c1, second=second, second_count=c2)

    def __str__(self) -> str:
        if self.uniform:
            return f"Exactly({self.lambda_})"
        left = ",".join(str(x) for x in self.first)
        right = ",".join(str(x) for x in self.second)
        return (
            f"NonUniform({{{left}}} in {self.first_count} blocks, "
            f"{{{right}}} in {self.second_count} blocks)"
        )


def brute_lambda(inst: FiniteInstance, design_type: DesignType) -> BruteOutcome:
    """Report the common containment count of the c_size-subset probes, or
    the first probe, in lexicographic order, whose count differs from the
    count of ``(0, ..., t-1)``.

    On a finite discrete ground set every subset of a size is homeomorphic
    to every other of that size, and a block's complement size is fixed by
    its size.  So condition II (``condition_ii``) holds once condition I
    does, and the probes of matching complement size (``condition_iv``) are
    all the probes: the four types ask one question, and only I is checked.

    Once condition I holds, the first probe is counted literally.  When it
    lies in no block, the first other probe is the smallest t-subset of any
    block, read off the blocks.  Otherwise every probe passed lies in some
    block, so at most 1 + min(C(n,t), sum_i C(|B_i|,t)) probes are visited,
    at most t ANDs each: a prefix ANDs t - 1 masks and scans a probe or
    more.  When that bound times t exceeds ``WALK_BUDGET`` a ``ValueError``
    is raised before anything is indexed; C(n,t) is only built up to the
    blocks' term.  Then one pass indexes, for each point some block holds,
    the bitmask of the blocks holding it; a probe's count is the popcount of
    its points' AND, and the walk stops at the first count that differs.
    Neither the index nor the walk grows with n.  The walk's count is
    recounted literally; a disagreement raises ``RuntimeError``.  An
    ``inst`` that is not a ``FiniteInstance`` raises ``ValueError`` naming it.
    """
    if type(inst) is not FiniteInstance:
        _exactly(FiniteInstance, inst, "inst")
    DesignType.of(design_type)  # rejects an unknown type; the four agree here
    sizes = list(map(len, inst.blocks))
    if sizes.count(inst.d_size) != len(sizes):
        i = next(i for i, size in enumerate(sizes) if size != inst.d_size)
        raise ValueError(
            f"condition I violated: block {i} has size {sizes[i]}, "
            f"expected {inst.d_size}"
        )
    if not inst.blocks:
        return BruteOutcome.exactly(0)
    t = inst.c_size
    first = tuple(range(t))
    c0 = _literal_count(inst, first)
    if c0 == 0:
        second = min(tuple(sorted(block)[:t]) for block in inst.blocks)
        return BruteOutcome.non_uniform(first, 0, second, _literal_count(inst, second))
    bound = 1 + len(sizes) * math.comb(inst.d_size, t)
    if bound * t > WALK_BUDGET:  # only then is C(n, t) compared with it
        bound = 1 + _comb_at_most(inst.n, t, bound - 1)
    if bound * t > WALK_BUDGET:
        raise ValueError(f"walk bound {bound} exceeds the budget at t = {t}: "
                         f"{bound * t} AND operations, more than {WALK_BUDGET}")
    found = _first_other(_index(inst.blocks), inst.n, t, c0)
    if found is None:
        return BruteOutcome.exactly(c0)
    second, c1 = found
    return BruteOutcome.non_uniform(first, c0, second, _recounted(inst, second, c1))


def _comb_at_most(n: int, t: int, cap: int) -> int:
    """min(C(n, t), cap), without C(n, t) in full: C(n, j) rises with j up
    to min(t, n - t), so the recurrence stops once it reaches ``cap``."""
    c = 1
    for j in range(min(t, n - t)):
        if c >= cap:
            return cap
        c = c * (n - j) // (j + 1)
    return min(c, cap)


def _index(blocks: tuple[frozenset[int], ...]) -> dict[int, int]:
    """Bit i of ``masks[x]`` is set when block i holds x.  Only the points
    some block holds get a mask; one pass, O(1) per (block, point) pair."""
    width = len(blocks)
    if width <= 32:
        # a mask this narrow is one or two int digits: ORing a bit in is cheap
        masks: dict[int, int] = {}
        for i, block in enumerate(blocks):
            for x in block:
                masks[x] = masks.get(x, 0) | 1 << i
        return masks
    # ORing into a wider mask copies all of it, so each row spells its mask
    # in binary digits instead (block i is digit j = width-1-i), read at the end
    rows: defaultdict[int, bytearray] = defaultdict(lambda: bytearray(b"0") * width)
    for j, block in enumerate(reversed(blocks)):
        for x in block:
            rows[x][j] = 49  # ord("1")
    return {x: int(row, 2) for x, row in rows.items()}


def _first_other(
    masks: dict[int, int], n: int, t: int, c0: int
) -> tuple[tuple[int, ...], int] | None:
    """The first t-subset of range(n), in lexicographic order, that lies in
    other than ``c0`` blocks, with that count; None when there is none.

    Each (t-1)-prefix ANDs its points' masks once, and its last place's
    scan costs one AND and a popcount per probe.  The first point no block
    holds is at most len(masks), and at least t as c0 is not 0 (the caller
    answers that case), so the first prefix's scan reaches it and stops on
    its count 0.  So prefixes come from range(min(n, len(masks) + 1) - 1),
    ``combinations`` copies a pool no larger than the index, and n costs
    nothing.
    """
    get = masks.get
    for prefix in itertools.combinations(range(min(n, len(masks) + 1) - 1), t - 1):
        common = -1
        for x in prefix:
            common &= get(x, 0)
        for x in range(prefix[-1] + 1 if prefix else 0, n):
            count = (common & get(x, 0)).bit_count()
            if count != c0:
                return (*prefix, x), count
    return None


def _literal_count(inst: FiniteInstance, probe: tuple[int, ...]) -> int:
    """The blocks holding ``probe``, counted by the definition."""
    probe_set = set(probe)
    return sum(1 for block in inst.blocks if probe_set <= block)


def _recounted(inst: FiniteInstance, probe: tuple[int, ...], count: int) -> int:
    """``count`` once the definition agrees: blocks holding ``probe``."""
    literal = _literal_count(inst, probe)
    if literal != count:
        raise RuntimeError(
            f"indexed count {count} of probe {probe} disagrees with literal count {literal}"
        )
    return count


def _check_all_k(n: int, k: int, t: int) -> None:
    _exactly(int, n, "n")
    _exactly(int, k, "k")
    _exactly(int, t, "t")
    if not (1 <= t < k < n):
        raise ValueError("parameters must satisfy 1 <= t < k < n")


def all_k_subsets_lambda(n: int, k: int, t: int) -> int:
    """Closed form for the all-k-subsets family: binomial(n-t, k-t).

    Must agree with :func:`brute_lambda` on the corresponding instance; the
    two routes stay independent on purpose.
    """
    _check_all_k(n, k, t)
    return math.comb(n - t, k - t)


def all_k_subsets_instance(n: int, k: int, t: int) -> FiniteInstance:
    """The instance whose blocks are every k-subset of an n-set."""
    _check_all_k(n, k, t)
    blocks = tuple(frozenset(b) for b in itertools.combinations(range(n), k))
    return FiniteInstance(n=n, blocks=blocks, c_size=t, d_size=k)


def parse_instance(text: str) -> FiniteInstance:
    """Parse the instance text format: a header line ``n, c_size, d_size``
    followed by one block per line as comma-separated distinct indices.  A
    malformed line is quoted in the error; a numeral over the digit budget
    is not, and the error gives ``parse_natural``'s words after its line."""
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty instance file")
    header_no, header = lines[0]
    parts = [p.strip() for p in header.split(",")]
    if len(parts) != 3:
        raise ValueError(f"line {header_no}: header must be 'n, c_size, d_size'")
    try:
        n, c_size, d_size = (parse_natural(p) for p in parts)
    except _OverDigitBudget as exc:
        raise ValueError(f"line {header_no}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"line {header_no}: malformed header {header!r}") from exc
    blocks = []
    for line_no, line in lines[1:]:
        try:
            blocks.append(frozenset(parse_points(line)))
        except _OverDigitBudget as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed block {line!r}") from exc
    return FiniteInstance(n=n, blocks=tuple(blocks), c_size=c_size, d_size=d_size)
