"""Symbolic descriptors for subsets of an infinite Fort space.

A subset is identified by three facts only: its cardinality, whether it
contains the particular point ``b``, and the cardinality of its complement.
For every predicate this library evaluates, two subsets with the same
descriptor are interchangeable, so the classifiers below work entirely at
the descriptor level.  The countable concrete model in
:mod:`fortdesign.concrete` grounds these predicates with explicit point maps.
"""

from __future__ import annotations

__all__ = [
    "SpaceDescriptor", "SubsetDescriptor", "complement", "cosize_minus_b",
    "descriptor_grid", "embeddable", "pair_equivalent", "size_minus_b",
    "subspace_homeomorphic", "validate",
]

from typing import Iterable, NamedTuple

from .cardinal import Cardinal, ZERO, _exactly, _make_validated


class _SpaceFields(NamedTuple):
    size: Cardinal


class SpaceDescriptor(_SpaceFields):
    """The ambient space: infinite, with a distinguished point ``b``.

    ``b`` is part of every space and is not parameterized; descriptors only
    record membership of ``b``, never its identity.
    """

    __slots__ = ()

    def __new__(cls, size: Cardinal) -> "SpaceDescriptor":
        if type(size) is not Cardinal:
            raise ValueError(f"the space size must be a Cardinal, got {size!r}")
        if not size.infinite:
            raise ValueError("the ambient space must be infinite")
        return tuple.__new__(cls, (size,))

    _make = classmethod(_make_validated)


class SubsetDescriptor(NamedTuple):
    """(size, contains_b, cosize) triple for a subset of the space."""

    size: Cardinal
    contains_b: bool
    cosize: Cardinal

    def __str__(self) -> str:
        b = "true" if self.contains_b else "false"
        return f"(size={self.size},b={b},cosize={self.cosize})"


def validate(subset: SubsetDescriptor, space: SpaceDescriptor) -> list[str]:
    """Check every descriptor invariant; the returned list is empty iff valid.

    Violations are data, not exceptions: callers that require validity raise
    on a nonempty result, probes and complements may inspect it.  A size or
    cosize that is no ``Cardinal`` is reported alone: comparing it would raise.
    """
    if type(subset.size) is not Cardinal or type(subset.cosize) is not Cardinal:
        named = ("size", subset.size), ("cosize", subset.cosize)
        return [
            f"{name} must be a Cardinal, got {value!r}"
            for name, value in named if type(value) is not Cardinal
        ]
    violations = []
    x = space.size
    if max(subset.size, subset.cosize) != x:
        violations.append(
            f"max(size, cosize) must equal card(X)={x}, "
            f"got size={subset.size}, cosize={subset.cosize}"
        )
    b = subset.contains_b
    if type(b) is not bool:
        violations.append(f"contains_b must be bool, got {b!r}")
    elif b and subset.size == ZERO:
        violations.append("the empty set cannot contain b")
    elif not b and subset.cosize == ZERO:
        violations.append("a set with empty complement must contain b")
    return violations


# no library code calls it; it stays public because perfbench/tracing.py wraps it
def complement(subset: SubsetDescriptor) -> SubsetDescriptor:
    """Descriptor of X minus the subset: size and cosize swap and b changes
    sides, so the space is not needed.  An involution on valid descriptors."""
    return SubsetDescriptor(
        size=subset.cosize,
        contains_b=not subset.contains_b,
        cosize=subset.size,
    )


def size_minus_b(subset: SubsetDescriptor) -> Cardinal:
    """card(S \\ {b}): decrements only finite b-containing sizes."""
    if subset.contains_b and not subset.size.infinite:
        return Cardinal.finite(max(subset.size.value - 1, 0))
    return subset.size


def cosize_minus_b(subset: SubsetDescriptor) -> Cardinal:
    """card(X \\ (S u {b})): the b-free part of the complement."""
    if not subset.contains_b and not subset.cosize.infinite:
        return Cardinal.finite(max(subset.cosize.value - 1, 0))
    return subset.cosize


def subspace_homeomorphic(u: SubsetDescriptor, v: SubsetDescriptor) -> bool:
    """Whether the two subsets are homeomorphic as subspaces.

    Finite subsets are discrete, so only cardinality matters.  Infinite
    subsets are homeomorphic exactly when their cardinalities agree and they
    agree on membership of ``b``: with ``b`` the subspace is again a Fort
    space with a limit point, without it the subspace is discrete.
    """
    if u.size != v.size:
        return False
    if not u.size.infinite:
        return True
    return u.contains_b == v.contains_b


def pair_equivalent(
    u: SubsetDescriptor, v: SubsetDescriptor, space: SpaceDescriptor
) -> bool:
    """Whether U ~ V and X\\U ~ X\\V simultaneously.

    One of U, X\\U is always infinite, and an infinite subspace's type records
    whether it holds b, so this is equal sizes, equal cosizes and matching
    b-membership: a descriptor is its own pair-equivalence class.  ``space``
    is part of the contract (both descriptors must be valid in the same space)
    but carries no extra data.
    """
    return u == v


def embeddable(c: SubsetDescriptor, d: SubsetDescriptor) -> bool:
    """Whether C is homeomorphic to some subspace of D.

    Holds iff card(C) <= card(D) and, when C is infinite, ``b`` does not lie
    in C without lying in D: an infinite copy of C carries its limit point
    with it.
    """
    if c.size > d.size:
        return False
    return not (c.size.infinite and c.contains_b and not d.contains_b)


def descriptor_grid(
    space: SpaceDescriptor,
    max_finite: int = 6,
    finite_sizes_only: bool = False,
) -> list[SubsetDescriptor]:
    """All valid nonempty descriptors with small symbolic sizes.

    Sizes range over Finite(1..max_finite) and, unless ``finite_sizes_only``,
    the alephs up to the space's own; cosizes take every value the
    invariants admit.  Used by the exhaustive sweeps.  For X = aleph_i the
    grid has 4m+3+4i descriptors, and 2m with finite sizes only (m is
    ``max_finite``), so a caller can budget it before building it.
    """
    _exactly(int, max_finite, "max_finite")
    _exactly(bool, finite_sizes_only, "finite_sizes_only")
    sizes: list[Cardinal] = [Cardinal.finite(n) for n in range(1, max_finite + 1)]
    if not finite_sizes_only:
        sizes += [Cardinal.aleph(i) for i in range(space.size.value + 1)]
    grid: list[SubsetDescriptor] = []
    for size in sizes:
        if size < space.size:
            for flag in (True, False):
                grid.append(SubsetDescriptor(size, flag, space.size))
        else:
            cosizes: Iterable[Cardinal] = [
                Cardinal.finite(n) for n in range(0, max_finite + 1)
            ] + [Cardinal.aleph(i) for i in range(space.size.value + 1)]
            for cosize in cosizes:
                flags = (True,) if cosize == ZERO else (True, False)
                for flag in flags:
                    grid.append(SubsetDescriptor(size, flag, cosize))
    return grid
