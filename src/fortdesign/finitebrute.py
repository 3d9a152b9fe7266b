"""Brute-force design verification on finite discrete ground sets.

A finite Fort space is discrete (any subset avoiding b is open, and every
b-containing subset has finite complement), so homeomorphism degenerates to
equal cardinality and the four design types collapse pairwise onto the
classical t-(n,k,lambda) notion.  This module is the definitional sanity
anchor: it enumerates every probe and counts containments literally, with
the closed-form binomial count as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cardinal import parse_natural
from .designs import DesignType


@dataclass(frozen=True)
class FiniteInstance:
    """A ground set {0..n-1}, a block family, and the probe/block sizes."""

    n: int
    blocks: tuple[frozenset[int], ...]
    c_size: int
    d_size: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("ground set needs at least 2 elements")
        if not (1 <= self.c_size <= self.d_size <= self.n):
            raise ValueError("sizes must satisfy 1 <= c_size <= d_size <= n")
        ground = set(range(self.n))
        frozen = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", frozen)
        for i, block in enumerate(frozen):
            if not block <= ground:
                raise ValueError(f"block {i} leaves the ground set")
        if len(set(frozen)) != len(frozen):
            raise ValueError("blocks must be pairwise distinct")


@dataclass(frozen=True)
class BruteOutcome:
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
    """Count containments of every probe and report the common count.

    The block and probe conditions are applied literally per type: types 1
    and 3 also check the block's complement size, types 3 and 4 restrict
    probes to those with matching complement size.  On a finite discrete
    ground set both extra checks are vacuous, which is exactly what the
    type-agreement properties assert.
    """
    design_type = DesignType(design_type)
    check_block_complement = design_type in (DesignType.TYPE1, DesignType.TYPE3)
    restrict_probes = design_type in (DesignType.TYPE3, DesignType.TYPE4)

    for i, block in enumerate(inst.blocks):
        if len(block) != inst.d_size:
            raise ValueError(
                f"condition I violated: block {i} has size {len(block)}, "
                f"expected {inst.d_size}"
            )
        if check_block_complement and inst.n - len(block) != inst.n - inst.d_size:
            raise ValueError(f"condition II violated: block {i}")

    expected: int | None = None
    witness: tuple[tuple[int, ...], int] | None = None
    for probe in itertools.combinations(range(inst.n), inst.c_size):
        if restrict_probes and inst.n - len(probe) != inst.n - inst.c_size:
            continue
        probe_set = set(probe)
        count = sum(1 for block in inst.blocks if probe_set <= block)
        if expected is None:
            expected = count
            witness = (probe, count)
        elif count != expected:
            return BruteOutcome.non_uniform(witness[0], witness[1], probe, count)
    return BruteOutcome.exactly(expected if expected is not None else 0)


def all_k_subsets_lambda(n: int, k: int, t: int) -> int:
    """Closed form for the all-k-subsets family: binomial(n-t, k-t).

    Must agree with :func:`brute_lambda` on the corresponding instance; the
    two routes stay independent on purpose.
    """
    if not (1 <= t < k < n):
        raise ValueError("parameters must satisfy 1 <= t < k < n")
    return math.comb(n - t, k - t)


def all_k_subsets_instance(n: int, k: int, t: int) -> FiniteInstance:
    """The instance whose blocks are every k-subset of an n-set."""
    if not (1 <= t < k < n):
        raise ValueError("parameters must satisfy 1 <= t < k < n")
    blocks = tuple(frozenset(b) for b in itertools.combinations(range(n), k))
    return FiniteInstance(n=n, blocks=blocks, c_size=t, d_size=k)


def parse_instance(text: str) -> FiniteInstance:
    """Parse the instance text format: a header line ``n, c_size, d_size``
    followed by one block per line as comma-separated indices."""
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
    except ValueError as exc:
        raise ValueError(f"line {header_no}: malformed header {header!r}") from exc
    blocks = []
    for line_no, line in lines[1:]:
        try:
            blocks.append(frozenset(parse_natural(p) for p in line.split(",")))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed block {line!r}") from exc
    return FiniteInstance(n=n, blocks=tuple(blocks), c_size=c_size, d_size=d_size)
