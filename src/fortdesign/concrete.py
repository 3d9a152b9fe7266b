"""Executable countable Fort-space model over the naturals, with b = 0.

Finite and cofinite subsets are first-class values; the explicit odd-tail
block family gets its own rule-based representation because its blocks are
neither finite nor cofinite.  The functions here ground the symbolic
classifiers: homeomorphisms are built and checked exactly from the
exception table, and block families are counted over bounded windows.
Containment counts are reported as exact-within-window or saturated lower
bounds, never extrapolated.  :func:`local_design_check` and
:func:`blocks_containing` read their window's arguments once, by
:func:`_layout`, which refuses a base it cannot lay out in ``validate``'s
words and returns the layout (None for the odd-tail family), the checked
base included, that three plain functions read: :func:`_window_size` and
:func:`_probe_counts` count in closed form, and :func:`_window_blocks`
streams the blocks, which :func:`blocks_containing` walks.  A window
generates its blocks valid, so none is re-validated and nothing is
derived: :func:`_fill` gives a class or singleton block its sorted support
and the layout's base, which is every such block's descriptor, and an
odd-tail block is made from its index as its constructor makes it.
:func:`local_design_check` reads the checked block's (or, for an empty
window, the base's) and each probe's stored descriptor and builds its
reports through ``tuple.__new__``, so it pays only for its layout, its
counts and one drawn block.

The homeomorphism oracle costs only its arithmetic: :class:`PointMap` is a
tuple-backed record that validates its table in one pass and sorts only a
table of two or more entries; a :class:`ConcreteSet` stores whether it
holds b, as its descriptor records it; an aligned image is the target's
member of x's rank, read by bisecting the sorted supports; and
:func:`check_homeomorphism` answers any aligned map, the exception-free one
of :func:`canonical_homeomorphism` right after its kind test, with no set
built, and any other in one pass over its exception table; and
:func:`extract_descriptor` reads the descriptor a set stores: the one its
constructor built, or its window's base for a class or singleton block;
every odd-tail block shares its class's one descriptor.
"""

from __future__ import annotations

__all__ = [
    "Block", "BlockCount", "ConcreteSet", "DesignCheckReport",
    "FamilyEnumerationError", "OddTailBlock", "PointMap", "ProbeReport",
    "blocks_containing", "canonical_homeomorphism", "check_homeomorphism",
    "extract_descriptor", "is_open", "limit_points", "local_design_check",
    "realize_descriptor",
]

import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from typing import NamedTuple

from .cardinal import ALEPH0, Cardinal, _Validated, _exactly, parse_points
from .descriptors import SpaceDescriptor, SubsetDescriptor, subspace_homeomorphic, validate
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
    must be naturals of type ``int`` and ``cofinite`` a ``bool``, or
    ``ValueError`` is raised; nothing else is ever a member.

    An immutable record with four slots rather than a NamedTuple: the
    oracles read its fields in their inner loops, and a slot read is about
    twice as fast as a NamedTuple field read.  ``cofinite`` and ``support``
    are its fields; ``descriptor``, the one :func:`extract_descriptor`
    returns, and ``contains_b``, whether it holds b, are derived from them:
    the constructor builds the descriptor once it has validated and sorted
    the support, and a window gives each of its blocks its base's (see
    :func:`_window_blocks`).  Equality, hashing, ``repr`` and pickling use
    the two fields only.
    """

    __slots__ = ("cofinite", "support", "contains_b", "descriptor")

    def __init__(self, cofinite: bool, support: tuple[int, ...]) -> None:
        cofinite = _exactly(bool, cofinite, "cofinite")
        support = _normalized(support)
        # the support is sorted, so b = 0 can only be its first point
        b = (support[:1] == (0,)) != cofinite
        n = Cardinal.finite(len(support))
        shape = (ALEPH0, b, n) if cofinite else (n, b, ALEPH0)
        _fill(self, cofinite, support, tuple.__new__(SubsetDescriptor, shape))

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
        # a point is a natural: no other value is a member, even of X
        return type(x) is int and x >= 0 and (x in self.support) != self.cofinite

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


# The slots' own setters: ConcreteSet.__setattr__ refuses every name, and
# object.__setattr__ past it costs about three times what a slot's setter does.
_set_cofinite, _set_support, _set_contains_b, _set_descriptor = (
    ConcreteSet.__dict__[name].__set__ for name in ConcreteSet.__slots__
)


def _fill(
    s: "ConcreteSet", cofinite: bool, support: tuple[int, ...], descriptor: SubsetDescriptor
) -> "ConcreteSet":
    """Set a new set's four slots, ``contains_b`` as ``descriptor`` records
    it; returns the set.

    Nothing is checked or derived: ``cofinite`` must be a ``bool``,
    ``support`` a strictly increasing tuple of naturals and ``descriptor``
    the set's own, as the constructor builds them and as a window
    generates its blocks.
    """
    _set_cofinite(s, cofinite)
    _set_support(s, support)
    _set_contains_b(s, descriptor.contains_b)
    _set_descriptor(s, descriptor)
    return s


class _OddTailBlockFields(NamedTuple):
    index: int


class OddTailBlock(_Validated, _OddTailBlockFields):
    """Block number s of the odd-tail family: X minus {2k+1 : k >= s}.

    Neither finite nor cofinite, so membership is decided by the rule: the
    block holds every even number (including b = 0) and the odd numbers
    2k+1 with k < s.
    """

    __slots__ = ()
    # every block has this one descriptor, the one extract_descriptor returns
    descriptor = SubsetDescriptor(ALEPH0, True, ALEPH0)

    def __new__(cls, index: int) -> "OddTailBlock":
        if _exactly(int, index, "an odd-tail block index") < 1:
            raise ValueError("odd-tail blocks are numbered from 1")
        return tuple.__new__(cls, (index,))

    def __contains__(self, x: int) -> bool:
        return type(x) is int and x >= 0 and (x % 2 == 0 or (x - 1) // 2 < self.index)

    def issuperset(self, other: ConcreteSet) -> bool:
        if not other.cofinite:
            return all(x in self for x in other.support)
        # A cofinite set contains all but finitely many odds; the block
        # excludes infinitely many, so containment always fails.
        return False

    def to_text(self) -> str:
        return f"oddtail:{self.index}"


Block = ConcreteSet | OddTailBlock


def extract_descriptor(s: Block) -> SubsetDescriptor:
    """The symbolic descriptor a concrete set realizes in the countable model."""
    return s.descriptor


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
    aligned: bool
    exceptions: tuple[tuple[int, int], ...]


class PointMap(_Validated, _PointMapFields):
    """A point map between two concrete sets.

    With ``aligned`` set, the i-th smallest element of the source goes to the
    i-th smallest of the target, so b = 0, the least natural, goes to b
    whenever both sets contain it; the finite ``exceptions`` table overrides
    individual source points.  With ``aligned`` unset the exceptions table
    is the whole map.

    Between sets of one kind that agree on b the aligned part is a
    bijection, so the whole map is one exactly when the exceptions only
    rearrange aligned images; :func:`check_homeomorphism` decides that.

    Like :class:`~fortdesign.cardinal.Cardinal` it is a tuple-backed record
    that validates in ``__new__``: the table is kept sorted, immutable and
    hashable, and equal to an equal-valued plain tuple.  It checks each entry
    once, for two naturals; only a table of two or more entries is sorted,
    to find a repeated source beside itself.
    """

    __slots__ = ()

    def __new__(
        cls, aligned: bool = True, exceptions: tuple[tuple[int, int], ...] = ()
    ) -> "PointMap":
        if type(aligned) is not bool:
            _exactly(bool, aligned, "aligned")
        try:
            entries = iter(exceptions)
        except TypeError:
            raise ValueError(
                f"an exception table must be an iterable of pairs, got {exceptions!r}"
            ) from None
        table = []
        for pair in entries:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"an exception-table entry must be a (source, target) pair, got {pair!r}"
                ) from None
            # a | b is negative exactly when a or b is
            if type(a) is not int or type(b) is not int or (a | b) < 0:
                point = "an exception-table point"
                _exactly(int, a, point)
                _exactly(int, b, point)
                raise ValueError(f"{point} must be a natural, got {a if a < 0 else b}")
            table.append((a, b))
        if len(table) > 1:  # one entry is sorted and repeats no source
            table.sort()
            previous = None  # a repeated source sorts next to itself
            for a, _ in table:
                if a == previous:
                    raise ValueError("exception table must map each source point once")
                previous = a
        return tuple.__new__(cls, (aligned, tuple(table)))

    def apply(self, x: int, source: ConcreteSet, target: ConcreteSet) -> int | None:
        if x not in source:
            raise ValueError(f"{x} is not in the source set")
        for a, b in self.exceptions:
            if a == x:
                return b
        if not self.aligned:
            return None
        return _aligned_image(x, source, target)

    def to_text(self) -> str:
        kind = "align" if self.aligned else "table"
        if not self.exceptions:
            return kind
        pairs = ",".join(f"{a}->{b}" for a, b in self.exceptions)
        return f"{kind};{pairs}"


def _aligned_image(x: int, source: ConcreteSet, target: ConcreteSet) -> int | None:
    """The image of a member x of source under the order-aligned map: the
    member of target whose rank there is x's rank in source, or None past
    the end of a finite target.

    b = 0 is the least natural, so a set that holds b ranks it first: when
    both sets hold b, b goes to b, and skipping b on both sides would shift
    both ranks by one, so the rank needs no term for b.
    """
    listed = bisect_left(source.support, x)  # support points below x
    n = x - listed if source.cofinite else listed  # members below x
    support = target.support
    if not target.cofinite:
        return support[n] if n < len(support) else None
    # the least y with y = n + (holes at or below y) is the rank-n member;
    # a cofinite set's support lists its holes
    y, shift = n, 0
    while (reached := bisect_right(support, y)) != shift:
        y, shift = n + reached, reached
    return y


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
    answered at once.  Any other aligned map takes one pass over its table,
    one :func:`_aligned_image` per active entry: it fails at once if a
    cofinite u sends b anywhere but b (the image of a sequence converging to
    b would stop converging), and otherwise is a homeomorphism exactly when
    its active targets are, as a set, the aligned images of its active
    sources, since the aligned part is a bijection.  Those images are
    distinct members of v, so that holds exactly when the two sorted lists
    are equal, and no set is built.
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
    images, targets = [], []
    for a, b in m.exceptions:
        if (a in support) == cofinite:  # a is not in u
            continue
        if cofinite and a == 0 and b != 0:
            return False
        images.append(_aligned_image(a, u, v))
        targets.append(b)
    images.sort()
    targets.sort()
    return images == targets


def realize_descriptor(d: SubsetDescriptor) -> ConcreteSet:
    """A canonical concrete set with the given descriptor.

    It is the one block of ``Singleton(d)``'s window, so its descriptor is
    ``d`` itself.  Doubly-infinite descriptors have no finite or cofinite
    realization and are rejected; one that :func:`_layout` cannot lay out
    is refused in its words.
    """
    return next(_window_blocks(_layout(Singleton(d), 1, 0), 1))


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


def _layout(family: FamilyDescriptor, cutoff: int, prefix: int | None) -> tuple | None:
    """Read a window's arguments in order, ``cutoff`` (>= 1), ``prefix``
    (>= 0, ``max(12, cutoff + 2)`` when None) and the family, and lay the
    window of a class W(D) or a singleton out; None for the odd-tail
    family, whose window is its first ``cutoff`` blocks.

    Returns ``(cofinite, pinned, free, top, singleton, base)``: a finite
    block is ``R``, plus b when ``pinned``; a cofinite block excludes
    ``R``, and b too when ``pinned``; ``R`` ranges over the
    ``free``-subsets of ``[1, top]``.  A class's ``top`` is the prefix; a
    singleton is its member's layout with ``top = free``, so its window is
    one block.  ``base`` is the checked base or member, the descriptor of
    every block.  The family is dispatched on by its exact type, once: a
    family that is no ``FamilyDescriptor`` raises ``ValueError`` naming
    it; a base or member that is no ``SubsetDescriptor`` (whose fields its
    constructor has typed), whose layout has ``free < 0``, or whose
    unbounded side is not aleph0 (a descriptor of another space), raises
    ``ValueError`` in ``validate``'s words, as ``witness_violations`` words
    it; a doubly-infinite base or member, and any other family, raise
    :class:`FamilyEnumerationError`.
    """
    if _exactly(int, cutoff, "cutoff") < 1:
        raise ValueError("cutoff must be >= 1")
    if prefix is None:
        prefix = max(12, cutoff + 2)
    elif _exactly(int, prefix, "prefix") < 0:
        raise ValueError("prefix must be >= 0")
    kind = type(family)
    if kind is OddTail:
        return None
    if kind is ClassW:
        what, base = "class base", family.base
    elif kind is Singleton:
        what, base = "singleton member", family.member
    elif isinstance(family, FamilyDescriptor):
        raise FamilyEnumerationError(
            f"{family.to_text()} has no bounded enumeration strategy"
        )
    else:
        raise ValueError(f"family must be FamilyDescriptor, got {family!r}")
    if type(base) is SubsetDescriptor:
        if not base.size.infinite:
            cofinite, pinned, finite, unbounded = False, base.contains_b, base.size, base.cosize
        elif not base.cosize.infinite:
            cofinite, pinned, finite, unbounded = True, not base.contains_b, base.cosize, base.size
        else:
            raise FamilyEnumerationError(
                "a set with infinite size and infinite complement has no finite or "
                "cofinite realization"
            )
        free = finite.value - pinned
        if free >= 0 and unbounded == ALEPH0:
            singleton = kind is Singleton
            return cofinite, pinned, free, free if singleton else prefix, singleton, base
    raise ValueError(f"{what}: " + "; ".join(validate(base, SpaceDescriptor(ALEPH0))))


def _window_blocks(layout: tuple | None, cutoff: int) -> Iterator[Block]:
    """Stream the blocks of a window laid out by :func:`_layout`, in a fixed
    order.

    The window is the first ``cutoff`` odd-tail blocks (``layout`` None),
    the single block, or every class member whose symmetric difference
    with the canonical representative lies inside the prefix.  A class's or
    singleton's first block, ``R = {1..free}``, is built from the layout
    alone; ``itertools.combinations`` copies the pool ``[1, top]`` into a
    tuple only when a second block is drawn, and a window of one block
    (``free = 0``) has an empty pool.  So drawing one block costs nothing
    per point of the prefix.  Every block is generated valid, so none is
    re-validated and nothing is derived: :func:`_fill` gives a class or
    singleton block its sorted support and the layout's base, the
    descriptor every such block has, and an odd-tail block, whose index is
    one of ``1..cutoff``, is made as :class:`OddTailBlock`'s constructor
    makes it once its index is checked.
    """
    if layout is None:
        yield from map(tuple.__new__, itertools.repeat(OddTailBlock), zip(range(1, cutoff + 1)))
        return
    cofinite, pinned, free, top, _, base = layout
    if free > top:
        return
    fixed = (0,) if pinned else ()
    new, fill = object.__new__, _fill
    yield fill(new(ConcreteSet), cofinite, fixed + tuple(range(1, free + 1)), base)
    rests = itertools.combinations(range(1, top + 1) if free else (), free)
    for rest in itertools.islice(rests, 1, None):
        yield fill(new(ConcreteSet), cofinite, fixed + rest, base)


def _window_size(layout: tuple | None, cutoff: int) -> int:
    """How many blocks :func:`_window_blocks` streams from this layout."""
    return cutoff if layout is None else math.comb(layout[3], layout[2])  # C(top, free)


def _probe_counts(layout: tuple | None, cutoff: int, probe: ConcreteSet) -> tuple[int, int | None]:
    """A probe's window count and family-wide count (None when infinite) in
    closed form: by arithmetic on the probe's largest odd point for the
    odd-tail family (``layout`` None), from the layout for a class W(D) or
    a singleton.  A class's family-wide window is unbounded, so its ``R``
    ranges over all points past b; a singleton's is its one block (``top =
    free``), so its two counts are equal.
    """
    if layout is None:
        if probe.cofinite:
            return 0, 0
        # block s holds the odd point 2j+1 exactly when j < s, and every
        # finite probe lies in cofinally many blocks
        need = max(((x - 1) // 2 + 1 for x in probe.support if x % 2), default=1)
        return max(cutoff - need + 1, 0), None
    cofinite, pinned, free, top, singleton, _ = layout
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


# the most blocks local_design_check lists or blocks_containing draws: 10^5
# failure strings take 0.15 s from a class window, 0.04 s from the odd-tail
# one; a walk of 10^5 blocks 0.13 s and 0.10 s (best of 5, 2-vCPU Xeon VM,
# Python 3.11.7)
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
    The window's arguments are read by :func:`_layout`, as for that check;
    a probe of the wrong type raises ``ValueError`` naming it.
    """
    layout = _layout(family, cutoff, prefix)
    _exactly(ConcreteSet, probe, "probe")
    count = 0
    for block in itertools.islice(_window_blocks(layout, cutoff), LISTING_BUDGET):
        if block.issuperset(probe):
            count += 1
            if count >= cutoff:
                return BlockCount(count, True)
    window = _window_size(layout, cutoff)
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
    (or whose complement is not shaped like X \\ D when required), or names
    the family once when its window has no block;
    ``refutation`` names two probes whose family-wide counts differ (an
    infinite one differs from every finite one): no multiplicity is uniform.
    ``consistent`` also needs a uniform count other than 0: a design's
    multiplicity is at least 1, as ``LambdaValue`` requires, so accepted
    probes that no block of the family holds refute it with no pair to name.
    """

    family: FamilyDescriptor
    blocks_checked: int
    block_failures: tuple[str, ...]
    probes: tuple[ProbeReport, ...]
    rejected: tuple[ConcreteSet, ...]
    refutation: tuple[ProbeReport, ProbeReport] | None

    @property
    def consistent(self) -> bool:
        # with no refutation every accepted probe has the first's count
        return (
            self.refutation is None
            and not self.block_failures
            and not (self.probes and self.probes[0].global_exact == 0)
        )


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
    require_complement: bool,
    prefix: int | None = None,
) -> DesignCheckReport:
    """Check a witness family against the design conditions on a bounded window.

    Every block must be shaped like D and, when ``require_complement`` (the
    type's ``condition_ii``), have D's descriptor, condition II; the type's
    ``condition_iv`` is the caller's.  Probes not shaped like C are rejected
    and listed.  Accepted probes get the window count and the family-wide
    one (the closed form with no cutoff and no prefix, None when infinite),
    and a pair with different family-wide counts is flagged, an infinite
    one differing from every finite one at any cutoff.

    The window is the one :func:`blocks_containing` enumerates, but nothing
    here walks it: the window's arguments are read once, by one
    :func:`_layout` that :func:`_window_size`, :func:`_probe_counts` and
    :func:`_window_blocks` read, and ``blocks_checked`` and the counts come
    in closed form (binomial
    coefficients over ``[1, prefix]`` for W(D), arithmetic on the largest
    odd point for the odd-tail family) and equal the literal ones.  All
    blocks of a window share one descriptor, a class's or singleton's base,
    so only the first block is shape-checked; when it fails, every block is
    listed with its failure, and a window of more than ``LISTING_BUDGET``
    blocks raises ``ValueError`` before the listing starts.  A class window
    whose prefix holds fewer points than a block's free ones has no block:
    its base is checked instead, and a failure names the family once.  The
    check is consistent only with no block failure, no refutation, and a
    uniform count other than 0: accepted probes that all count 0 refute a
    design, whose multiplicity is at least 1, though no pair is named.  A
    family, base, C, D or probe of the wrong type, a base that cannot be
    laid out, or ``probes`` that is no iterable or is text, raises
    ``ValueError`` naming it; C's and D's record type is all that is
    checked of them, since a ``SubsetDescriptor`` types its own fields.
    Past its layout, its counts and one drawn block the check pays for
    nothing: descriptors are read from their slots once each type is
    checked, and the reports are built positionally.
    """
    _exactly(bool, require_complement, "require_complement")
    layout = _layout(family, cutoff, prefix)
    if type(c) is not SubsetDescriptor or type(d) is not SubsetDescriptor:
        _exactly(SubsetDescriptor, c, "C")
        _exactly(SubsetDescriptor, d, "D")
    blocks_checked = _window_size(layout, cutoff)
    blocks = _window_blocks(layout, cutoff)
    first = next(blocks, None)
    # an empty window is a class's whose prefix holds too few points: its
    # base is still every block's shape
    shape = layout[5] if first is None else first.descriptor
    failure = None
    if not subspace_homeomorphic(shape, d):
        failure = "not shaped like D"
    elif require_complement and shape != d:
        failure = "complement not shaped like X \\ D"
    if failure and blocks_checked > LISTING_BUDGET:
        raise ValueError(
            f"{blocks_checked} blocks are {failure}; listing them exceeds the "
            f"budget of {LISTING_BUDGET} blocks"
        )
    failures = ()
    if failure:  # every block, or the family once when there is none
        named = (family,) if first is None else itertools.chain((first,), blocks)
        failures = tuple(f"{x.to_text()}: {failure}" for x in named)

    new = tuple.__new__
    accepted: list[ProbeReport] = []
    rejected: list[ConcreteSet] = []
    try:
        if isinstance(probes, (str, bytes, bytearray)):  # iterates into characters
            raise TypeError
        probes = iter(probes)
    except TypeError:
        raise ValueError(f"probes must be an iterable of ConcreteSet, got {probes!r}") from None
    for probe in probes:
        if type(probe) is not ConcreteSet:
            _exactly(ConcreteSet, probe, "probe")
        if not subspace_homeomorphic(probe.descriptor, c):
            rejected.append(probe)
            continue
        window, wide = _probe_counts(layout, cutoff, probe)
        count = new(BlockCount, (cutoff, True) if window >= cutoff else (window, False))
        accepted.append(new(ProbeReport, (probe, count, wide)))

    reports = tuple(accepted)
    return new(DesignCheckReport, (
        family, blocks_checked, failures, reports, tuple(rejected), _find_refutation(reports)
    ))
