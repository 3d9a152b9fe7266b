"""Executable countable Fort-space model over the naturals, with b = 0.

Finite and cofinite subsets are first-class values; the explicit odd-tail
block family gets its own rule-based representation because its blocks are
neither finite nor cofinite.  The functions here ground the symbolic
classifiers: homeomorphisms are built and checked exactly from the
exception table, and block families are counted over bounded windows.
Containment counts are reported as exact-within-window or saturated lower
bounds, never extrapolated.  :func:`local_design_check` counts a window in
closed form; :func:`blocks_containing` enumerates the same window block by
block and gives the same numbers.  The family-wide count is the same closed
form over the unbounded window.  A class W(D) and a singleton share one
window layout, :func:`_layout`.

The homeomorphism oracle costs only its arithmetic: :class:`PointMap` is a
tuple-backed record, ranks and aligned images come from bisecting the
sorted support, and :func:`check_homeomorphism` reads the b-to-b condition
off the table of active exceptions.
"""

from __future__ import annotations

__all__ = [
    "Block", "BlockCount", "ConcreteSet", "DesignCheckReport",
    "FamilyEnumerationError", "OddTailBlock", "PointMap", "ProbeReport",
    "blocks_containing", "canonical_homeomorphism", "check_homeomorphism",
    "extract_descriptor", "is_open", "limit_points", "local_design_check",
    "realize", "realize_descriptor",
]

import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .cardinal import ALEPH0, Cardinal, _exactly, parse_natural
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
    out = tuple(sorted({_exactly(int, x, "a ground-set element") for x in elements}))
    if out and out[0] < 0:
        raise ValueError("ground-set elements are naturals")
    return out


@dataclass(frozen=True)
class ConcreteSet:
    """A finite or cofinite subset of the naturals.

    ``support`` lists the members when finite, the excluded elements when
    cofinite; it is kept strictly increasing and duplicate-free.  Its points
    must be ``int`` and ``cofinite`` a ``bool``, or ``ValueError`` is raised.
    """

    cofinite: bool
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        _exactly(bool, self.cofinite, "cofinite")
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
        # the support is sorted, so b = 0 can only be its first point
        return (self.support[:1] == (0,)) != self.cofinite

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
        if self.cofinite and other.cofinite:
            return ConcreteSet.cofinite_set(self.support + other.support)
        finite, rest = (other, self) if self.cofinite else (self, other)
        return ConcreteSet.finite(x for x in finite.support if x in rest)

    def __or__(self, other: "ConcreteSet") -> "ConcreteSet":
        return (self.complement() & other.complement()).complement()

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
            values = [parse_natural(part) for part in items]
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
        if _exactly(int, self.index, "an odd-tail block index") < 1:
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
    listed = Cardinal.finite(len(s.support))
    if s.cofinite:
        return SubsetDescriptor(ALEPH0, s.contains_b, listed)
    return SubsetDescriptor(listed, s.contains_b, ALEPH0)


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


class _PointMapFields(NamedTuple):
    aligned: bool = True
    exceptions: tuple[tuple[int, int], ...] = ()


class PointMap(_PointMapFields):
    """A point map between two concrete sets.

    With ``aligned`` set, the i-th smallest element of the source goes to the
    i-th smallest of the target, except that b is pinned to b whenever both
    sets contain it; the finite ``exceptions`` table overrides individual
    source points.  With ``aligned`` unset the exceptions table is the whole
    map.

    Between sets of one kind that agree on b the aligned part is a
    bijection, so the whole map is one exactly when the exceptions only
    rearrange aligned images; :func:`check_homeomorphism` decides that.

    Like :class:`~fortdesign.cardinal.Cardinal` it is a tuple-backed record
    that validates in ``__new__``: the table is kept sorted, immutable and
    hashable, and equal to an equal-valued plain tuple.
    """

    __slots__ = ()

    def __new__(
        cls, aligned: bool = True, exceptions: tuple[tuple[int, int], ...] = ()
    ) -> "PointMap":
        _exactly(bool, aligned, "aligned")
        point = "an exception-table point"
        exceptions = tuple(sorted([
            (_exactly(int, a, point), _exactly(int, b, point)) for a, b in exceptions
        ]))
        if len({a for a, _ in exceptions}) != len(exceptions):
            raise ValueError("exception table must map each source point once")
        return tuple.__new__(cls, (aligned, exceptions))

    def apply(self, x: int, source: ConcreteSet, target: ConcreteSet) -> int | None:
        for a, b in self.exceptions:
            if a == x:
                return b
        if not self.aligned:
            return None
        if x not in source:
            raise ValueError(f"{x} is not in the source set")
        return _aligned_image(x, source, target, source.contains_b and target.contains_b)

    def to_text(self) -> str:
        kind = "align" if self.aligned else "table"
        if not self.exceptions:
            return kind
        pairs = ",".join(f"{a}->{b}" for a, b in self.exceptions)
        return f"{kind};{pairs}"


def _aligned_image(
    x: int, source: ConcreteSet, target: ConcreteSet, pin_b: bool
) -> int | None:
    """The image of a member x of source under the order-aligned map, or
    None past the target's end; ``pin_b``: both sets hold b."""
    if pin_b and x == 0:
        return 0
    return _nth_member(target, _rank(source, x, pin_b), pin_b)


def _rank(s: ConcreteSet, x: int, skip_zero: bool) -> int:
    """Number of members of s strictly below x, optionally ignoring 0."""
    listed = bisect_left(s.support, x)  # support points below x
    below = x - listed if s.cofinite else listed
    return below - (skip_zero and x > 0 and s.contains_b)


def _nth_member(s: ConcreteSet, n: int, skip_zero: bool) -> int | None:
    """The member of s of rank n (from 0), optionally ignoring 0; None
    past the end of a finite set."""
    pinned = skip_zero and s.contains_b
    if not s.cofinite:
        n += pinned
        return s.support[n] if n < len(s.support) else None
    holes = ((0,) if pinned else ()) + s.support
    # the least x with x = n + (holes at or below x) is the rank-n member
    x, shift = n, 0
    while (reached := bisect_right(holes, x)) != shift:
        x, shift = n + reached, reached
    return x


def _same_kind(u: ConcreteSet, v: ConcreteSet) -> bool:
    """Finite sets of one size, or cofinite sets that agree on b."""
    if u.cofinite:
        return v.cofinite and u.contains_b == v.contains_b
    return not v.cofinite and len(u.support) == len(v.support)


# immutable, so one instance serves every canonical_homeomorphism call
_ALIGNED = PointMap()


def canonical_homeomorphism(u: ConcreteSet, v: ConcreteSet) -> PointMap | None:
    """An order-aligned homeomorphism between two concrete sets, if one exists.

    Finite sets are discrete: any size-matched alignment works.  Infinite
    (cofinite) sets must agree on membership of b, whose presence is what
    gives the subspace its limit point; the alignment then pins b to b.
    """
    return _ALIGNED if _same_kind(u, v) else None


def check_homeomorphism(m: PointMap, u: ConcreteSet, v: ConcreteSet) -> bool:
    """Decide exactly whether a point map is a homeomorphism u -> v.

    u and v must be of one kind (:func:`_same_kind`).  The active exceptions
    are those whose source lies in u.  The aligned part is a bijection
    u -> v, so an aligned map is one exactly when the active targets are
    distinct members of v and, as a set, the aligned images of the active
    sources.  A table-only map needs a finite u and exactly v as its
    targets.  A cofinite u that contains b must send b to b, without which
    the image of a sequence converging to b stops converging.
    """
    if not _same_kind(u, v):
        return False
    support, cofinite = u.support, u.cofinite
    active = [pair for pair in m.exceptions if (pair[0] in support) != cofinite]
    if not m.aligned:
        # u and v have one size, so targets that are all of v leave no
        # member of u unmapped
        return not cofinite and {b for _, b in active} == set(v.support)
    if not active:  # the aligned bijection, which pins b when u holds it
        return True
    # Distinct sources have distinct aligned images in v, so equal sets also
    # make the targets distinct members of v.
    pin_b = u.contains_b and v.contains_b
    if {b for _, b in active} != {_aligned_image(a, u, v, pin_b) for a, _ in active}:
        return False
    # an inactive 0 is not in u; an active one must go to b
    return not cofinite or dict(active).get(0, 0) == 0


def realize_descriptor(d: SubsetDescriptor) -> ConcreteSet:
    """A canonical concrete set with the given descriptor.

    It is the one block of ``Singleton(d)``'s window
    (:func:`_canonical_block`).  Doubly-infinite descriptors have no finite
    or cofinite realization and are rejected.
    """
    return _canonical_block(Singleton(d))


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


def _layout(family: FamilyDescriptor, prefix: int | None) -> tuple:
    """How the window of a class W(D) or a singleton is laid out.

    Returns ``(cofinite, pinned, free, top)``: a finite block is ``R``, plus
    b when ``pinned``; a cofinite block excludes ``R``, and b too when
    ``pinned``; ``R`` ranges over the ``free``-subsets of ``[1, top]``.  A
    class's ``top`` is the prefix, infinite when None; a singleton is its
    member's layout with ``top = free``, so its window is one block.  A
    doubly-infinite base or member, and any other family, are rejected.
    """
    if not isinstance(family, (ClassW, Singleton)):
        raise FamilyEnumerationError(
            f"{family.to_text()} has no bounded enumeration strategy"
        )
    base = family.member if isinstance(family, Singleton) else family.base
    if base.size.is_finite:
        cofinite, pinned, finite = False, base.contains_b, base.size
    elif base.cosize.is_finite:
        cofinite, pinned, finite = True, not base.contains_b, base.cosize
    else:
        raise FamilyEnumerationError(
            "a set with infinite size and infinite complement has no finite or "
            "cofinite realization"
        )
    free = finite.value - pinned
    if isinstance(family, Singleton):
        prefix = free
    return cofinite, pinned, free, math.inf if prefix is None else prefix


def _canonical_block(family: FamilyDescriptor) -> ConcreteSet:
    """The first block of a nonempty window of a class W(D) or a singleton,
    ``R = {1..free}`` (:func:`_layout`), built without the window's pool."""
    cofinite, pinned, free, _ = _layout(family, None)
    return ConcreteSet(cofinite, ((0,) if pinned else ()) + tuple(range(1, free + 1)))


def _window_blocks(
    family: FamilyDescriptor, cutoff: int, prefix: int
) -> Iterator[Block]:
    """Stream the blocks of the family's bounded window, in a fixed order.

    The window is the first ``cutoff`` odd-tail blocks, the single block,
    or every class member whose symmetric difference with the canonical
    representative lies inside the prefix.  A class's or singleton's first
    block comes from :func:`_canonical_block`; ``itertools.combinations``
    copies the pool ``[1, prefix]`` into a tuple only when a second block is
    drawn, and a window of one block (``free = 0``) has an empty pool.  So
    drawing one block costs nothing per point of the prefix.
    """
    if isinstance(family, OddTail):
        yield from map(OddTailBlock, range(1, cutoff + 1))
        return
    cofinite, pinned, free, top = _layout(family, prefix)
    if free > top:
        return
    yield _canonical_block(family)
    fixed = (0,) if pinned else ()
    rests = itertools.combinations(range(1, top + 1) if free else (), free)
    for rest in itertools.islice(rests, 1, None):
        yield ConcreteSet(cofinite, fixed + rest)


def _comb(pool: float, k: int) -> int | None:
    """C(pool, k), or None for an infinite count when the pool is infinite."""
    return (None if k else 1) if pool == math.inf else math.comb(pool, k)


def _window_count(
    family: FamilyDescriptor, probe: ConcreteSet, cutoff: int | None, prefix: int | None
) -> int | None:
    """The number of window blocks containing the probe, in closed form.

    With ``cutoff`` and ``prefix`` None the window is unbounded, so this is
    the family-wide count; None then means that count is infinite.
    """
    if isinstance(family, OddTail):
        if probe.cofinite:
            return 0
        if cutoff is None:  # every finite probe lies in cofinally many blocks
            return None
        # block s holds the odd point 2j+1 exactly when j < s
        need = max(((x - 1) // 2 + 1 for x in probe.support if x % 2), default=1)
        return max(cutoff - need + 1, 0)
    cofinite, pinned, free, top = _layout(family, prefix)
    inside = sum(1 for x in probe.support if 1 <= x <= top)
    if not cofinite:
        # every probe point must be b on a pinned block or lie in R
        outside = len(probe.support) - inside
        if probe.cofinite or outside != (pinned and 0 in probe.support):
            return 0
        return _comb(top - inside, free - inside) if inside <= free else 0
    if pinned and 0 in probe:  # a pinned cofinite block lacks b
        return 0
    # R avoids a finite probe's points, or lies among a cofinite one's
    # excluded points
    return _comb(inside if probe.cofinite else top - inside, free)


def _saturated(count: int, cutoff: int) -> BlockCount:
    return BlockCount.at_least(cutoff) if count >= cutoff else BlockCount.exactly(count)


def _window_prefix(cutoff: int, prefix: int | None) -> int:
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if prefix is None:
        return max(12, cutoff + 2)
    if prefix < 0:
        raise ValueError("prefix must be >= 0")
    return prefix


def blocks_containing(
    family: FamilyDescriptor,
    probe: ConcreteSet,
    cutoff: int,
    prefix: int | None = None,
) -> BlockCount:
    """Count window blocks containing the probe by literal enumeration.

    The count is over the family's bounded window (the first ``cutoff``
    odd-tail blocks, the class members that differ from the canonical one
    only inside ``[1, prefix]``, or the single block) and is a lower bound
    for the family at large; it is never extrapolated.  Blocks are drawn
    one by one and drawing stops once ``cutoff`` of them hold the probe.
    :func:`local_design_check` gives the same counts in closed form; this
    function is the literal reference for them.
    """
    count = 0
    for block in _window_blocks(family, cutoff, _window_prefix(cutoff, prefix)):
        if block.issuperset(probe):
            count += 1
            if count >= cutoff:
                break
    return _saturated(count, cutoff)


@dataclass(frozen=True)
class ProbeReport:
    """Window count, only printed, and family-wide count, which decides: the
    window closed form over the unbounded window, None when infinite."""

    probe: ConcreteSet
    count: BlockCount
    global_exact: int | None

    def display_count(self) -> str:
        """The family-wide count; an infinite one is at least the window's."""
        if self.global_exact is not None:
            return f"Exactly({self.global_exact})"
        return f"AtLeast({self.count.value})"


@dataclass(frozen=True)
class DesignCheckReport:
    """Everything the bounded design check observed.

    ``block_failures`` lists enumerated blocks that are not shaped like D
    (or whose complement is not shaped like X \\ D when required);
    ``refutation`` names two probes whose family-wide counts differ (an
    infinite one differs from every finite one): no multiplicity is uniform.
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
    """The first probe with a finite family-wide count and the first whose
    family-wide count differs from it; None (infinite) differs from all."""
    first = next((p for p in probes if p.global_exact is not None), None)
    if first is None:
        return None
    second = next((p for p in probes if p.global_exact != first.global_exact), None)
    return None if second is None else (first, second)


# the most wrong-shape blocks local_design_check lists: 10^5 failure strings
# take about 0.5 s on a 2-vCPU Xeon VM under Python 3.11
LISTING_BUDGET = 10**5


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

    Every window block must be shaped like D (and have its complement
    shaped like X \\ D when ``require_complement``, i.e. for the types that
    constrain complements).  Probes not shaped like C are rejected and
    listed.  For the accepted probes the report carries the window count and
    the family-wide one (the closed form with no cutoff and no prefix, None
    when infinite), and flags a pair with different family-wide counts, an
    infinite one differing from every finite one at any cutoff.

    The window is the one :func:`blocks_containing` enumerates, but nothing
    here walks it: ``blocks_checked`` and the counts come in closed form
    (binomial coefficients over ``[1, prefix]`` for W(D), arithmetic on the
    largest odd point for the odd-tail family) and equal the literal ones.
    All blocks of a window share one descriptor, so only the first block is
    shape-checked; when it fails, every block is listed with its failure,
    and a window of more than ``LISTING_BUDGET`` blocks raises
    ``ValueError`` before the listing starts.
    """
    prefix = _window_prefix(cutoff, prefix)
    # every block holds the empty set
    blocks_checked = _window_count(family, ConcreteSet.finite(()), cutoff, prefix)
    blocks = _window_blocks(family, cutoff, prefix)
    first = next(blocks, None)
    failure = None
    if first is not None:
        shape = extract_descriptor(first)
        if not subspace_homeomorphic(shape, d):
            failure = "not shaped like D"
        elif require_complement and not subspace_homeomorphic(
            descriptor_complement(shape, COUNTABLE_SPACE),
            descriptor_complement(d, COUNTABLE_SPACE),
        ):
            failure = "complement not shaped like X \\ D"
    if failure and blocks_checked > LISTING_BUDGET:
        raise ValueError(
            f"{blocks_checked} blocks are {failure}; listing them exceeds the "
            f"budget of {LISTING_BUDGET} blocks"
        )
    failures = (
        [f"{block.to_text()}: {failure}" for block in itertools.chain((first,), blocks)]
        if failure
        else []
    )

    accepted: list[ProbeReport] = []
    rejected: list[ConcreteSet] = []
    for probe in probes:
        if not subspace_homeomorphic(extract_descriptor(probe), c):
            rejected.append(probe)
            continue
        count = _saturated(_window_count(family, probe, cutoff, prefix), cutoff)
        accepted.append(ProbeReport(probe, count, _window_count(family, probe, None, None)))

    return DesignCheckReport(
        family=family,
        blocks_checked=blocks_checked,
        block_failures=tuple(failures),
        probes=tuple(accepted),
        rejected=tuple(rejected),
        refutation=_find_refutation(tuple(accepted)),
    )
