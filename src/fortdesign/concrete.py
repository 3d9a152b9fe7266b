"""Executable countable Fort-space model over the naturals, with b = 0.

Finite and cofinite subsets are first-class values; the explicit odd-tail
block family gets its own rule-based representation because its blocks are
neither finite nor cofinite.  The functions here ground the symbolic
classifiers: homeomorphisms are built and checked point by point, block
families are enumerated over bounded windows, and containment counts are
reported as exact-within-window or saturated lower bounds, never
extrapolated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .cardinal import ALEPH0, Cardinal
from .descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    complement as descriptor_complement,
    subspace_homeomorphic,
)
from .designs import ClassW, FamilyDescriptor, OddTail, Singleton

COUNTABLE_SPACE = SpaceDescriptor(ALEPH0)


class FamilyEnumerationError(ValueError):
    """Raised when a family admits no bounded concrete realization."""


def _normalized(elements) -> tuple[int, ...]:
    out = tuple(sorted(set(int(x) for x in elements)))
    if out and out[0] < 0:
        raise ValueError("ground-set elements are naturals")
    return out


@dataclass(frozen=True)
class ConcreteSet:
    """A finite or cofinite subset of the naturals.

    ``support`` lists the members when finite, the excluded elements when
    cofinite; it is kept strictly increasing and duplicate-free.
    """

    cofinite: bool
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", _normalized(self.support))

    @classmethod
    def finite(cls, elements=()) -> "ConcreteSet":
        return cls(False, tuple(elements))

    @classmethod
    def cofinite_set(cls, excluded=()) -> "ConcreteSet":
        return cls(True, tuple(excluded))

    @property
    def is_finite(self) -> bool:
        return not self.cofinite

    def __contains__(self, x: int) -> bool:
        return (x in self.support) != self.cofinite

    @property
    def contains_b(self) -> bool:
        return 0 in self

    def complement(self) -> "ConcreteSet":
        return ConcreteSet(not self.cofinite, self.support)

    def issubset(self, other: "ConcreteSet") -> bool:
        if self.is_finite:
            return all(x in other for x in self.support)
        if other.is_finite:
            return False
        return set(other.support) <= set(self.support)

    def issuperset(self, other: "ConcreteSet") -> bool:
        return other.issubset(self)

    def __and__(self, other: "ConcreteSet") -> "ConcreteSet":
        a, b = set(self.support), set(other.support)
        if self.is_finite and other.is_finite:
            return ConcreteSet.finite(a & b)
        if self.is_finite:
            return ConcreteSet.finite(x for x in a if x in other)
        if other.is_finite:
            return ConcreteSet.finite(x for x in b if x in self)
        return ConcreteSet.cofinite_set(a | b)

    def __or__(self, other: "ConcreteSet") -> "ConcreteSet":
        a, b = set(self.support), set(other.support)
        if self.is_finite and other.is_finite:
            return ConcreteSet.finite(a | b)
        if self.is_finite:
            return ConcreteSet.cofinite_set(b - a)
        if other.is_finite:
            return ConcreteSet.cofinite_set(a - b)
        return ConcreteSet.cofinite_set(a & b)

    def members(self, count: int) -> list[int]:
        """The first ``count`` members in increasing order."""
        if self.is_finite:
            return list(self.support[:count])
        out: list[int] = []
        x = 0
        excluded = set(self.support)
        while len(out) < count:
            if x not in excluded:
                out.append(x)
            x += 1
        return out

    def to_text(self) -> str:
        prefix = "cofin" if self.cofinite else "fin"
        return f"{prefix}:{','.join(str(x) for x in self.support)}"

    @classmethod
    def parse(cls, text: str) -> "ConcreteSet":
        head, _, body = text.strip().partition(":")
        if head not in ("fin", "cofin"):
            raise ValueError(f"concrete set must start with fin: or cofin:, got {text!r}")
        items = [part for part in body.split(",") if part.strip() != ""]
        try:
            values = [int(part) for part in items]
        except ValueError as exc:
            raise ValueError(f"malformed concrete set {text!r}") from exc
        return cls(head == "cofin", tuple(values))


@dataclass(frozen=True)
class OddTailBlock:
    """Block number s of the odd-tail family: X minus {2k+1 : k >= s}.

    Neither finite nor cofinite, so membership is decided by the rule: the
    block holds every even number (including b = 0) and the odd numbers
    2k+1 with k < s.
    """

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("odd-tail blocks are numbered from 1")

    def __contains__(self, x: int) -> bool:
        return x % 2 == 0 or (x - 1) // 2 < self.index

    def issuperset(self, other: ConcreteSet) -> bool:
        if other.is_finite:
            return all(x in self for x in other.support)
        # A cofinite set contains all but finitely many odds; the block
        # excludes infinitely many, so containment always fails.
        return False

    def to_text(self) -> str:
        return f"oddtail:{self.index}"


Block = ConcreteSet | OddTailBlock


def extract_descriptor(s: Block) -> SubsetDescriptor:
    """The symbolic descriptor a concrete set realizes in the countable model."""
    if isinstance(s, OddTailBlock):
        return SubsetDescriptor(ALEPH0, True, ALEPH0)
    if s.is_finite:
        return SubsetDescriptor(Cardinal.finite(len(s.support)), s.contains_b, ALEPH0)
    return SubsetDescriptor(ALEPH0, s.contains_b, Cardinal.finite(len(s.support)))


def is_open(u: ConcreteSet) -> bool:
    """Fort openness: avoid b or have finite complement."""
    return 0 not in u or u.cofinite


def limit_points(s: ConcreteSet) -> ConcreteSet:
    """{b} for infinite sets, empty for finite ones.

    b is the unique limit point of every infinite subset, whether or not it
    belongs to the subset itself.
    """
    if s.cofinite:
        return ConcreteSet.finite((0,))
    return ConcreteSet.finite(())


@dataclass(frozen=True)
class PointMap:
    """A point map between two concrete sets.

    With ``aligned`` set, the i-th smallest element of the source goes to the
    i-th smallest of the target, except that b is pinned to b whenever both
    sets contain it; the finite ``exceptions`` table overrides individual
    source points.  With ``aligned`` unset the exceptions table is the whole
    map.
    """

    aligned: bool = True
    exceptions: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "exceptions", tuple(sorted((int(a), int(b)) for a, b in self.exceptions))
        )
        if len({a for a, _ in self.exceptions}) != len(self.exceptions):
            raise ValueError("exception table must map each source point once")

    def apply(self, x: int, source: ConcreteSet, target: ConcreteSet) -> int | None:
        for a, b in self.exceptions:
            if a == x:
                return b
        if not self.aligned:
            return None
        if x not in source:
            raise ValueError(f"{x} is not in the source set")
        pin_b = 0 in source and 0 in target
        if pin_b:
            if x == 0:
                return 0
            rank = _rank(source, x, skip_zero=True)
            return _nth_member(target, rank, skip_zero=True)
        rank = _rank(source, x, skip_zero=False)
        return _nth_member(target, rank, skip_zero=False)

    def to_text(self) -> str:
        kind = "align" if self.aligned else "table"
        if not self.exceptions:
            return kind
        pairs = ",".join(f"{a}->{b}" for a, b in self.exceptions)
        return f"{kind};{pairs}"


def _rank(s: ConcreteSet, x: int, skip_zero: bool) -> int:
    """Number of members of s strictly below x, optionally ignoring 0."""
    if s.is_finite:
        return sum(1 for m in s.support if m < x and not (skip_zero and m == 0))
    below = x - sum(1 for e in s.support if e < x)
    if skip_zero and 0 in s and x > 0:
        below -= 1
    return below


def _nth_member(s: ConcreteSet, n: int, skip_zero: bool) -> int | None:
    if s.is_finite:
        pool = [m for m in s.support if not (skip_zero and m == 0)]
        return pool[n] if n < len(pool) else None
    holes = sorted(set(s.support) | ({0} if (skip_zero and 0 in s) else set()))
    x = n
    for hole in holes:  # each hole at or below the candidate shifts it up
        if hole <= x:
            x += 1
        else:
            break
    return x


def canonical_homeomorphism(u: ConcreteSet, v: ConcreteSet) -> PointMap | None:
    """An order-aligned homeomorphism between two concrete sets, if one exists.

    Finite sets are discrete: any size-matched alignment works.  Infinite
    (cofinite) sets must agree on membership of b, whose presence is what
    gives the subspace its limit point; the alignment then pins b to b.
    """
    if u.is_finite and v.is_finite:
        if len(u.support) != len(v.support):
            return None
        return PointMap(aligned=True)
    if u.cofinite and v.cofinite:
        if (0 in u) != (0 in v):
            return None
        return PointMap(aligned=True)
    return None


def check_homeomorphism(
    m: PointMap, u: ConcreteSet, v: ConcreteSet, prefix: int = 32
) -> bool:
    """Independently verify that a point map is a homeomorphism u -> v.

    Finite pairs: plain bijectivity.  Infinite pairs: matching limit-point
    structure (both sides contain b or neither does), injectivity of the
    first ``prefix`` members into the target, and b pinned to b, without
    which the image of a sequence converging to b stops converging.
    """
    if u.is_finite != v.is_finite:
        return False
    if u.is_finite:
        if len(u.support) != len(v.support):
            return False
        images = []
        for x in u.support:
            y = m.apply(x, u, v)
            if y is None or y not in v:
                return False
            images.append(y)
        return len(set(images)) == len(v.support)
    here = limit_points(u).issubset(u)
    there = limit_points(v).issubset(v)
    if here != there:
        return False
    images = []
    for x in u.members(prefix):
        y = m.apply(x, u, v)
        if y is None or y not in v:
            return False
        images.append(y)
    if len(set(images)) != len(images):
        return False
    if 0 in u and 0 in v and m.apply(0, u, v) != 0:
        return False
    return True


def realize_descriptor(d: SubsetDescriptor) -> ConcreteSet:
    """A canonical concrete set with the given descriptor.

    Only descriptors with a finite size or finite cosize have finite or
    cofinite realizations; the doubly-infinite ones are rejected.
    """
    if d.size.is_finite:
        n = d.size.value
        elements = range(0, n) if d.contains_b else range(1, n + 1)
        return ConcreteSet.finite(elements)
    if d.cosize.is_finite:
        k = d.cosize.value
        excluded = range(1, k + 1) if d.contains_b else range(0, k)
        return ConcreteSet.cofinite_set(excluded)
    raise FamilyEnumerationError(
        "a set with infinite size and infinite complement has no finite or "
        "cofinite realization"
    )


def realize(family: FamilyDescriptor, index: int = 1) -> Block:
    """Materialize one block of an enumerable family.

    Odd-tail blocks are returned in their rule-based representation (they
    are neither finite nor cofinite); singleton families ignore the index.
    The symbolic classes W and L cannot be materialized block by block.
    """
    if isinstance(family, OddTail):
        return OddTailBlock(index)
    if isinstance(family, Singleton):
        return realize_descriptor(family.member)
    raise FamilyEnumerationError(
        f"{family.to_text()} is a symbolic class and cannot be enumerated"
    )


@dataclass(frozen=True)
class BlockCount:
    """A containment count: exact within the window, or saturated at cutoff."""

    value: int
    saturated: bool

    @classmethod
    def exactly(cls, value: int) -> "BlockCount":
        return cls(value, False)

    @classmethod
    def at_least(cls, value: int) -> "BlockCount":
        return cls(value, True)

    def __str__(self) -> str:
        return f"AtLeast({self.value})" if self.saturated else f"Exactly({self.value})"


def _class_w_blocks(base: SubsetDescriptor, prefix: int):
    """Enumerate the pair-equivalence class of a realizable base over [0, prefix].

    The window is every class member whose symmetric difference with the
    canonical representative lies inside the prefix.
    """
    if base.size.is_finite:
        d = base.size.value
        if base.contains_b:
            for rest in itertools.combinations(range(1, prefix + 1), d - 1):
                yield ConcreteSet.finite((0,) + rest)
        else:
            for elems in itertools.combinations(range(1, prefix + 1), d):
                yield ConcreteSet.finite(elems)
    elif base.cosize.is_finite:
        k = base.cosize.value
        if base.contains_b:
            for exc in itertools.combinations(range(1, prefix + 1), k):
                yield ConcreteSet.cofinite_set(exc)
        else:
            for rest in itertools.combinations(range(1, prefix + 1), k - 1):
                yield ConcreteSet.cofinite_set((0,) + rest)
    else:
        raise FamilyEnumerationError(
            "the class of a doubly-infinite base has no bounded realization"
        )


def _window_blocks(family: FamilyDescriptor, cutoff: int, prefix: int) -> list[Block]:
    if isinstance(family, OddTail):
        return [OddTailBlock(s) for s in range(1, cutoff + 1)]
    if isinstance(family, Singleton):
        return [realize_descriptor(family.member)]
    if isinstance(family, ClassW):
        return list(_class_w_blocks(family.base, prefix))
    raise FamilyEnumerationError(
        f"{family.to_text()} has no bounded enumeration strategy"
    )


def _block_contains(block: Block, probe: ConcreteSet) -> bool:
    return block.issuperset(probe)


def _default_prefix(cutoff: int) -> int:
    return max(12, cutoff + 2)


def blocks_containing(
    family: FamilyDescriptor,
    probe: ConcreteSet,
    cutoff: int,
    prefix: int | None = None,
) -> BlockCount:
    """Count enumerated blocks containing the probe, saturating at cutoff.

    The count is over the family's bounded window (the first ``cutoff``
    odd-tail blocks, the prefix-bounded class members, or the single block)
    and is a lower bound for the family at large; it is never extrapolated.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    window = _window_blocks(family, cutoff, prefix or _default_prefix(cutoff))
    count = 0
    for block in window:
        if _block_contains(block, probe):
            count += 1
            if count >= cutoff:
                return BlockCount.at_least(cutoff)
    return BlockCount.exactly(count)


def _global_exact_count(family: FamilyDescriptor, probe: ConcreteSet) -> int | None:
    """The family-wide containment count, when it is provably finite.

    None means the window count is only a lower bound (the true count may be
    infinite).  Exact values are what make a non-uniformity refutation sound.
    """
    if isinstance(family, Singleton):
        return 1 if realize_descriptor(family.member).issuperset(probe) else 0
    if isinstance(family, OddTail):
        if probe.is_finite:
            return None  # every finite probe lies in cofinally many blocks
        return 0
    if isinstance(family, ClassW):
        base = family.base
        if base.size.is_finite:
            d = base.size.value
            if probe.cofinite:
                return 0
            members = set(probe.support)
            if base.contains_b:
                required = members | {0}
            else:
                if 0 in members:
                    return 0
                required = members
            if len(required) > d:
                return 0
            if len(required) == d:
                return 1
            return None  # free slots draw from an infinite pool
        if base.cosize.is_finite:
            k = base.cosize.value
            if probe.is_finite:
                if k == 0:
                    return 1
                if k == 1 and not base.contains_b:
                    return 0 if 0 in probe else 1
                return None
            exc = set(probe.support)
            pool = len(exc - {0})
            if base.contains_b:
                return math.comb(pool, k)
            if 0 not in exc:
                return 0
            return math.comb(pool, k - 1)
    return None


@dataclass(frozen=True)
class ProbeReport:
    """Window count and, when derivable, the family-wide exact count."""

    probe: ConcreteSet
    count: BlockCount
    global_exact: int | None

    def display_count(self) -> str:
        if self.global_exact is not None:
            return f"Exactly({self.global_exact})"
        return str(self.count)


@dataclass(frozen=True)
class DesignCheckReport:
    """Everything the bounded design check observed.

    ``block_failures`` lists enumerated blocks that are not shaped like D
    (or whose complement is not shaped like X \\ D when required);
    ``refutation`` names two probes whose containment counts provably
    differ, ruling out any uniform multiplicity.
    """

    family: FamilyDescriptor
    blocks_checked: int
    block_failures: tuple[str, ...]
    probes: tuple[ProbeReport, ...]
    rejected: tuple[ConcreteSet, ...]
    refutation: tuple[ProbeReport, ProbeReport] | None

    @property
    def consistent(self) -> bool:
        return self.refutation is None and not self.block_failures


def _find_refutation(
    probes: tuple[ProbeReport, ...]
) -> tuple[ProbeReport, ProbeReport] | None:
    for first in probes:
        if first.global_exact is None:
            continue
        for second in probes:
            if second is first:
                continue
            if second.global_exact is not None:
                if second.global_exact != first.global_exact:
                    return (first, second)
            elif second.count.value > first.global_exact:
                # window counts are lower bounds for the whole family
                return (first, second)
    return None


def local_design_check(
    family: FamilyDescriptor,
    c: SubsetDescriptor,
    d: SubsetDescriptor,
    probes: list[ConcreteSet],
    cutoff: int,
    require_complement: bool = True,
    prefix: int | None = None,
) -> DesignCheckReport:
    """Check a witness family against the design conditions on a bounded window.

    Every enumerated block must be shaped like D (and have its complement
    shaped like X \\ D when ``require_complement``, i.e. for the types that
    constrain complements).  Probes not shaped like C are rejected and
    listed.  For the accepted probes the report carries containment counts
    and flags any pair with provably different family-wide counts.
    """
    window = _window_blocks(family, cutoff, prefix or _default_prefix(cutoff))
    co_d = descriptor_complement(d, COUNTABLE_SPACE)
    failures: list[str] = []
    for block in window:
        block_desc = extract_descriptor(block)
        if not subspace_homeomorphic(block_desc, d):
            failures.append(f"{block.to_text()}: not shaped like D")
        elif require_complement and not subspace_homeomorphic(
            descriptor_complement(block_desc, COUNTABLE_SPACE), co_d
        ):
            failures.append(f"{block.to_text()}: complement not shaped like X \\ D")

    accepted: list[ProbeReport] = []
    rejected: list[ConcreteSet] = []
    for probe in probes:
        if not subspace_homeomorphic(extract_descriptor(probe), c):
            rejected.append(probe)
            continue
        count = blocks_containing(family, probe, cutoff, prefix)
        accepted.append(
            ProbeReport(probe, count, _global_exact_count(family, probe))
        )

    return DesignCheckReport(
        family=family,
        blocks_checked=len(window),
        block_failures=tuple(failures),
        probes=tuple(accepted),
        rejected=tuple(rejected),
        refutation=_find_refutation(tuple(accepted)),
    )
