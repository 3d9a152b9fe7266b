"""Executable countable Fort-space model over the naturals, with b = 0.

Finite and cofinite subsets are first-class values; the explicit odd-tail
block family gets its own rule-based representation because its blocks are
neither finite nor cofinite.  The functions here ground the symbolic
classifiers: homeomorphisms are built and checked exactly from the
exception table, and block families are counted over bounded windows.
Containment counts are reported as exact-within-window or saturated lower
bounds, never extrapolated.  :func:`local_design_check` reads its family
once: :func:`_window_counter` gives the window's size and one rule for each
probe's window and family-wide counts, all in closed form, and
:func:`blocks_containing` enumerates the window and gives the same numbers.
A class W(D) and a singleton share one window layout, :func:`_layout`.

The homeomorphism oracle costs only its arithmetic: :class:`PointMap` is a
tuple-backed record that validates its table in one pass; a
:class:`ConcreteSet` stores whether it holds b, derived once by its
constructor; ranks and aligned images come from bisecting the sorted
support; :func:`check_homeomorphism` answers the exception-free aligned map
of :func:`canonical_homeomorphism` right after its kind test, building no
set, and checks any other map in one pass over its exception table; and
:func:`extract_descriptor` reads the descriptor of a set with fewer than 64
listed points, or of an odd-tail block, from a table built at import.
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
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .cardinal import (
    ALEPH0,
    Cardinal,
    _FINITES,
    _SHARED_FINITES,
    _exactly,
    _make_validated,
    parse_points,
)
from .descriptors import SubsetDescriptor, subspace_homeomorphic
from .designs import ClassW, FamilyDescriptor, OddTail, Singleton


class FamilyEnumerationError(ValueError):
    """Raised when a family admits no bounded concrete realization."""


def _normalized(elements) -> tuple[int, ...]:
    out = tuple(sorted({_exactly(int, x, "a ground-set element") for x in elements}))
    if out and out[0] < 0:
        raise ValueError("ground-set elements are naturals")
    return out


class ConcreteSet:
    """A finite or cofinite subset of the naturals.

    ``support`` lists the members when finite, the excluded elements when
    cofinite; it is kept strictly increasing and duplicate-free.  Its points
    must be ``int`` and ``cofinite`` a ``bool``, or ``ValueError`` is raised.

    An immutable record with three slots rather than a NamedTuple: the
    oracles read its fields in their inner loops, and a slot read is about
    twice as fast as a NamedTuple field read.  ``cofinite`` and ``support``
    are its fields; ``contains_b``, whether it holds b, is derived from them
    by the constructor.  Equality, hashing, ``repr`` and pickling use the
    two fields only.
    """

    __slots__ = ("cofinite", "support", "contains_b")

    def __init__(self, cofinite: bool, support: tuple[int, ...]) -> None:
        setfield = object.__setattr__
        setfield(self, "cofinite", _exactly(bool, cofinite, "cofinite"))
        setfield(self, "support", _normalized(support))
        # the support is sorted, so b = 0 can only be its first point
        setfield(self, "contains_b", (self.support[:1] == (0,)) != self.cofinite)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.cofinite is other.cofinite and self.support == other.support

    def __hash__(self) -> int:
        return hash((self.cofinite, self.support))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cofinite={self.cofinite!r}, support={self.support!r})"

    def __reduce__(self):
        return type(self), (self.cofinite, self.support)

    @classmethod
    def finite(cls, elements=()) -> "ConcreteSet":
        return cls(False, tuple(elements))

    @classmethod
    def cofinite_set(cls, excluded=()) -> "ConcreteSet":
        return cls(True, tuple(excluded))

    def __contains__(self, x: int) -> bool:
        return (x in self.support) != self.cofinite

    def complement(self) -> "ConcreteSet":
        return ConcreteSet(not self.cofinite, self.support)

    def issubset(self, other: "ConcreteSet") -> bool:
        if not self.cofinite:
            return all(x in other for x in self.support)
        if not other.cofinite:
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
        if not self.cofinite:
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
        try:
            points = parse_points(body)
        except ValueError as exc:
            raise ValueError(f"malformed concrete set {text!r}") from exc
        return cls(head == "cofin", tuple(points))


class _OddTailBlockFields(NamedTuple):
    index: int


class OddTailBlock(_OddTailBlockFields):
    """Block number s of the odd-tail family: X minus {2k+1 : k >= s}.

    Neither finite nor cofinite, so membership is decided by the rule: the
    block holds every even number (including b = 0) and the odd numbers
    2k+1 with k < s.
    """

    __slots__ = ()

    def __new__(cls, index: int) -> "OddTailBlock":
        if _exactly(int, index, "an odd-tail block index") < 1:
            raise ValueError("odd-tail blocks are numbered from 1")
        return tuple.__new__(cls, (index,))

    _make = classmethod(_make_validated)

    def __contains__(self, x: int) -> bool:
        return x % 2 == 0 or (x - 1) // 2 < self.index

    def issuperset(self, other: ConcreteSet) -> bool:
        if not other.cofinite:
            return all(x in self for x in other.support)
        # A cofinite set contains all but finitely many odds; the block
        # excludes infinitely many, so containment always fails.
        return False

    def to_text(self) -> str:
        return f"oddtail:{self.index}"


Block = ConcreteSet | OddTailBlock

# Descriptors are immutable, so, as Cardinal.finite does for small
# cardinals, the descriptor of every finite or cofinite set with fewer than
# _SHARED_FINITES listed points is built once and shared, indexed by
# [cofinite][contains_b][listed points]; so is the odd-tail blocks' one.
_SHARED_DESCRIPTORS = (
    tuple(tuple(SubsetDescriptor(n, b, ALEPH0) for n in _FINITES) for b in (False, True)),
    tuple(tuple(SubsetDescriptor(ALEPH0, b, n) for n in _FINITES) for b in (False, True)),
)
_ODD_TAIL_DESCRIPTOR = SubsetDescriptor(ALEPH0, True, ALEPH0)


def extract_descriptor(s: Block) -> SubsetDescriptor:
    """The symbolic descriptor a concrete set realizes in the countable model."""
    if isinstance(s, OddTailBlock):
        return _ODD_TAIL_DESCRIPTOR
    n = len(s.support)
    if n < _SHARED_FINITES:
        return _SHARED_DESCRIPTORS[s.cofinite][s.contains_b][n]
    listed = Cardinal.finite(n)
    if s.cofinite:
        return SubsetDescriptor(ALEPH0, s.contains_b, listed)
    return SubsetDescriptor(listed, s.contains_b, ALEPH0)


def is_open(u: ConcreteSet) -> bool:
    """Fort openness: avoid b or have finite complement."""
    return not u.contains_b or u.cofinite


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
    hashable, and equal to an equal-valued plain tuple.  It checks each entry
    once and finds a repeated source beside itself in the sorted table.
    """

    __slots__ = ()

    def __new__(
        cls, aligned: bool = True, exceptions: tuple[tuple[int, int], ...] = ()
    ) -> "PointMap":
        _exactly(bool, aligned, "aligned")
        try:
            entries = iter(exceptions)
        except TypeError:
            raise ValueError(
                f"an exception table must be an iterable of pairs, got {exceptions!r}"
            ) from None
        point = "an exception-table point"
        table = []
        for pair in entries:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"an exception-table entry must be a (source, target) pair, got {pair!r}"
                ) from None
            if type(a) is not int or type(b) is not int:
                _exactly(int, a, point)
                _exactly(int, b, point)
            table.append((a, b))
        table.sort()
        previous = None  # a repeated source sorts next to itself
        for a, _ in table:
            if a == previous:
                raise ValueError("exception table must map each source point once")
            previous = a
        return tuple.__new__(cls, (aligned, tuple(table)))

    _make = classmethod(_make_validated)

    def apply(self, x: int, source: ConcreteSet, target: ConcreteSet) -> int | None:
        if x not in source:
            raise ValueError(f"{x} is not in the source set")
        for a, b in self.exceptions:
            if a == x:
                return b
        if not self.aligned:
            return None
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
    n += skip_zero and s.contains_b  # a skipped b is the rank-0 member
    if not s.cofinite:
        return s.support[n] if n < len(s.support) else None
    # the least x with x = n + (holes at or below x) is the rank-n member;
    # a cofinite set's support lists its holes
    x, shift = n, 0
    while (reached := bisect_right(s.support, x)) != shift:
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
    are those whose source lies in u.  A table-only map needs a finite u and
    exactly v as its active targets.  An aligned map with an empty table, as
    :func:`canonical_homeomorphism` returns, is the aligned bijection and is
    answered with no set built; otherwise it takes one pass over its table:
    it fails at once if a cofinite u sends b anywhere but b (the image of a
    sequence converging to b would stop converging), and otherwise is a
    homeomorphism exactly when its active targets are, as a set, the aligned
    images of its active sources, since the aligned part is a bijection.
    """
    if not _same_kind(u, v):
        return False
    if not m.aligned:
        # u and v have one size, so targets that are all of v leave no
        # member of u unmapped
        support = u.support
        return not u.cofinite and {b for a, b in m.exceptions if a in support} == set(v.support)
    if not m.exceptions:
        return True
    support, cofinite = u.support, u.cofinite
    # distinct sources have distinct aligned images in v, so equal sets also
    # make the targets distinct members of v; no active entry leaves the
    # aligned bijection, which pins b when u holds it
    pin_b = u.contains_b and v.contains_b
    images, targets = set(), set()
    for a, b in m.exceptions:
        if (a in support) == cofinite:  # a is not in u
            continue
        if cofinite and a == 0 and b != 0:
            return False
        images.add(_aligned_image(a, u, v, pin_b))
        targets.add(b)
    return images == targets


def realize_descriptor(d: SubsetDescriptor) -> ConcreteSet:
    """A canonical concrete set with the given descriptor.

    It is the one block of ``Singleton(d)``'s window.  Doubly-infinite
    descriptors have no finite or cofinite realization and are rejected.
    """
    return next(_window_blocks(Singleton(d), 1, 0))


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


class BlockCount(NamedTuple):
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


def _layout(family: FamilyDescriptor, prefix: int) -> tuple:
    """How the window of a class W(D) or a singleton is laid out.

    Returns ``(cofinite, pinned, free, top)``: a finite block is ``R``, plus
    b when ``pinned``; a cofinite block excludes ``R``, and b too when
    ``pinned``; ``R`` ranges over the ``free``-subsets of ``[1, top]``.  A
    class's ``top`` is the prefix; a singleton is its member's layout with
    ``top = free``, so its window is one block.  A doubly-infinite base or
    member, and any other family, are rejected.
    """
    if not isinstance(family, (ClassW, Singleton)):
        raise FamilyEnumerationError(
            f"{family.to_text()} has no bounded enumeration strategy"
        )
    base = family.member if isinstance(family, Singleton) else family.base
    if not base.size.infinite:
        cofinite, pinned, finite = False, base.contains_b, base.size
    elif not base.cosize.infinite:
        cofinite, pinned, finite = True, not base.contains_b, base.cosize
    else:
        raise FamilyEnumerationError(
            "a set with infinite size and infinite complement has no finite or "
            "cofinite realization"
        )
    free = finite.value - pinned
    return cofinite, pinned, free, free if isinstance(family, Singleton) else prefix


def _window_blocks(
    family: FamilyDescriptor, cutoff: int, prefix: int
) -> Iterator[Block]:
    """Stream the blocks of the family's bounded window, in a fixed order.

    The window is the first ``cutoff`` odd-tail blocks, the single block,
    or every class member whose symmetric difference with the canonical
    representative lies inside the prefix.  A class's or singleton's first
    block, ``R = {1..free}`` (:func:`_layout`), is built from the layout
    alone; ``itertools.combinations`` copies the pool ``[1, prefix]`` into
    a tuple only when a second block is drawn, and a window of one block
    (``free = 0``) has an empty pool.  So drawing one block costs nothing
    per point of the prefix.
    """
    if isinstance(family, OddTail):
        yield from map(OddTailBlock, range(1, cutoff + 1))
        return
    cofinite, pinned, free, top = _layout(family, prefix)
    if free > top:
        return
    fixed = (0,) if pinned else ()
    yield ConcreteSet(cofinite, fixed + tuple(range(1, free + 1)))
    rests = itertools.combinations(range(1, top + 1) if free else (), free)
    for rest in itertools.islice(rests, 1, None):
        yield ConcreteSet(cofinite, fixed + rest)


def _window_counter(
    family: FamilyDescriptor, cutoff: int, prefix: int
) -> tuple[int, Callable[[ConcreteSet], tuple[int, int | None]]]:
    """The window's size, and a rule giving a probe's window count and its
    family-wide count (None when infinite), both in closed form.

    The family is read once: the odd-tail family by arithmetic on the
    probe's largest odd point, a class W(D) or a singleton by one
    :func:`_layout`.  The family-wide window is unbounded for a class, so
    its ``R`` ranges over all points past b, and is the one block (``top =
    free``) for a singleton, whose two counts are equal.
    """
    if isinstance(family, OddTail):
        def odd_tail(probe: ConcreteSet) -> tuple[int, int | None]:
            if probe.cofinite:
                return 0, 0
            # block s holds the odd point 2j+1 exactly when j < s, and every
            # finite probe lies in cofinally many blocks
            need = max(((x - 1) // 2 + 1 for x in probe.support if x % 2), default=1)
            return max(cutoff - need + 1, 0), None

        return cutoff, odd_tail
    cofinite, pinned, free, top = _layout(family, prefix)
    singleton = isinstance(family, Singleton)

    def counts(probe: ConcreteSet) -> tuple[int, int | None]:
        support = probe.support
        lead = bisect_left(support, 1)  # 1 when the probe lists b
        listed = len(support) - lead  # the listed points past b
        inside = bisect_right(support, top) - lead  # those up to top
        if cofinite:
            if pinned and probe.contains_b:  # a pinned cofinite block lacks b
                return 0, 0
            if probe.cofinite:  # R lies among the probe's excluded points
                window = math.comb(inside, free)
                return window, window if singleton else math.comb(listed, free)
            # R avoids the probe's points; infinitely many R do unless free = 0
            window = math.comb(top - inside, free)
            return window, window if singleton else (None if free else 1)
        # every probe point must be b on a pinned block or lie in R
        left = free - listed  # the points of R that the probe leaves open
        if probe.cofinite or lead > pinned or left < 0:
            return 0, 0
        window = math.comb(top - listed, left) if inside == listed else 0
        return window, window if singleton else (None if left else 1)

    return math.comb(top, free), counts


def _window_prefix(cutoff: int, prefix: int | None) -> int:
    if _exactly(int, cutoff, "cutoff") < 1:
        raise ValueError("cutoff must be >= 1")
    if prefix is None:
        return max(12, cutoff + 2)
    if _exactly(int, prefix, "prefix") < 0:
        raise ValueError("prefix must be >= 0")
    return prefix


# the most blocks local_design_check lists or blocks_containing draws: 10^5
# failure strings take 0.5 s, 10^5 drawn blocks 0.6 s (2-vCPU Xeon, Python 3.11)
LISTING_BUDGET = 10**5


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
    one by one until ``cutoff`` of them hold the probe, and drawing more
    than ``LISTING_BUDGET`` raises ``ValueError``.  :func:`local_design_check`
    gives the same counts in closed form; this is their literal reference.
    """
    prefix = _window_prefix(cutoff, prefix)
    count = 0
    for block in itertools.islice(_window_blocks(family, cutoff, prefix), LISTING_BUDGET):
        if block.issuperset(probe):
            count += 1
            if count >= cutoff:
                return BlockCount(count, True)
    window, _ = _window_counter(family, cutoff, prefix)
    if window > LISTING_BUDGET:
        raise ValueError(
            f"walking {window} window blocks exceeds the budget of {LISTING_BUDGET} blocks"
        )
    return BlockCount(count, False)


class ProbeReport(NamedTuple):
    """Window count, only printed, and family-wide count, which decides: the
    window closed form over the unbounded window, None when infinite."""

    probe: ConcreteSet
    count: BlockCount
    global_exact: int | None

    def display_count(self) -> str:
        """The family-wide count; an infinite one is at least the window's."""
        if self.global_exact is not None:
            return str(BlockCount.exactly(self.global_exact))
        return str(BlockCount.at_least(self.count.value))


class DesignCheckReport(NamedTuple):
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
    family-wide count differs from it; None (infinite) differs from all.
    Loops, as a generator expression costs more than a few probes' search."""
    for first in probes:
        if first.global_exact is not None:
            for second in probes:
                if second.global_exact != first.global_exact:
                    return first, second
            return None
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

    Every block must be shaped like D and, when ``require_complement`` (types
    1 and 3), have D's descriptor: condition II, a complement shaped like
    X \\ D, is checked as descriptor equality.  Probes not shaped like C are
    rejected and listed.  Accepted probes get the window count and the
    family-wide one (the closed form with no cutoff and no prefix, None when
    infinite), and a pair with different family-wide counts is flagged, an
    infinite one differing from every finite one at any cutoff.

    The window is the one :func:`blocks_containing` enumerates, but nothing
    here walks it: the family is read once, by :func:`_window_counter`, and
    ``blocks_checked`` and the counts come in closed form (binomial
    coefficients over ``[1, prefix]`` for W(D), arithmetic on the largest
    odd point for the odd-tail family) and equal the literal ones.  All
    blocks of a window share one descriptor, so only the first block is
    shape-checked; when it fails, every block is listed with its failure,
    and a window of more than ``LISTING_BUDGET`` blocks raises
    ``ValueError`` before the listing starts.
    """
    _exactly(bool, require_complement, "require_complement")
    prefix = _window_prefix(cutoff, prefix)
    blocks_checked, counts = _window_counter(family, cutoff, prefix)
    blocks = _window_blocks(family, cutoff, prefix)
    first = next(blocks, None)
    failure = None
    if first is not None:
        shape = extract_descriptor(first)
        if not subspace_homeomorphic(shape, d):
            failure = "not shaped like D"
        elif require_complement and shape != d:
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
        count, wide = counts(probe)
        accepted.append(ProbeReport(probe, BlockCount(min(count, cutoff), count >= cutoff), wide))

    return DesignCheckReport(
        family=family,
        blocks_checked=blocks_checked,
        block_failures=tuple(failures),
        probes=tuple(accepted),
        rejected=tuple(rejected),
        refutation=_find_refutation(tuple(accepted)),
    )
