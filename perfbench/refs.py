"""Independent references for every benchmark operation.

Nothing here imports fortdesign: each expected answer is computed from a
closed form or a literal count written for the benchmark, so a defect in the
library cannot also hide in its own reference.

Plain data stands in for library objects:

* a concrete set is ``(cofinite, support)``: the members when finite, the
  excluded points when cofinite; ``b`` is the point ``0``;
* a descriptor is ``(size, contains_b, cosize)`` where a size is an ``int``
  for finite cardinals and ``("aleph", i)`` for alephs;
* a ``ClassW`` window shape is ``(cofinite, k, contains_b)``: ``k`` is the
  size of a finite base, or the cosize of a cofinite one.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

INF = None  # a family-wide count that is infinite
MAX_ALEPH_INDEX = 3  # the library's aleph ladder ends at aleph3


# --- grid sweep -----------------------------------------------------------

def grid_len(space_index: int, max_finite: int, finite_sizes_only: bool) -> int:
    """Number of descriptors in the sweep grid of the space aleph_i.

    Sizes below the space give two descriptors (b in or out).  At full size
    the cosize ranges over 0..max_finite and aleph_0..aleph_i, and only
    cosize 0 forces b in.
    """
    m, i = max_finite, space_index
    if finite_sizes_only:
        return 2 * m
    return 2 * (m + i) + 1 + 2 * (m + i + 1)


def sweep_cases(max_aleph: int, max_finite: int, finite_sizes_only: bool) -> int:
    return sum(grid_len(i, max_finite, finite_sizes_only) ** 2 for i in range(max_aleph + 1))


# --- cardinals and the decision table --------------------------------------

def card_key(size) -> tuple[int, int]:
    """Order key: every finite cardinal precedes every aleph."""
    if isinstance(size, int):
        return (0, size)
    return (1, size[1])


def is_finite(size) -> bool:
    return isinstance(size, int)


def exists(design_type: int, c, d, space_index: int) -> bool:
    """Whether a design of the given type exists, restated from the paper.

    Types 2 and 4 exist exactly when C embeds into D.  Type 3 needs b in D
    whenever b is in C, and the b-free parts ordered both ways.  Type 1 is
    the case table of the existence theorem.
    """
    (cs, cb, cco), (ds, db, dco) = c, d
    x = ("aleph", space_index)
    if card_key(cs) > card_key(ds):
        return False
    if design_type in (2, 4):
        return is_finite(cs) or not (cb and not db)
    if design_type == 3:
        if cb and not db:
            return False
        if card_key(_minus_b(cs, cb)) > card_key(_minus_b(ds, db)):
            return False
        return card_key(_minus_b(dco, not db)) <= card_key(_minus_b(cco, not cb))
    if not cb and not db:
        if is_finite(cs):
            return False
        return cs != x or dco == 1
    if cb and not db:
        return False
    if is_finite(cs):
        return not is_finite(ds) or cs + 2 <= ds
    return cs != x or dco == 0


def _minus_b(size, drop: bool):
    if drop and is_finite(size):
        return max(size - 1, 0)
    return size


# --- homeomorphisms --------------------------------------------------------

def members(s, count: int) -> list[int]:
    cofinite, support = s
    if not cofinite:
        return list(support[:count])
    out, x, excluded = [], 0, set(support)
    while len(out) < count:
        if x not in excluded:
            out.append(x)
        x += 1
    return out


def contains(s, x: int) -> bool:
    cofinite, support = s
    return (x in support) != cofinite


def homeomorphic(u, v) -> bool:
    """Finite subspaces are discrete; cofinite ones must agree on b."""
    if u[0] != v[0]:
        return False
    if not u[0]:
        return len(u[1]) == len(v[1])
    return contains(u, 0) == contains(v, 0)


def pair_equivalent(u, v) -> bool:
    """Same shape and same complement shape: same kind, support size and b."""
    return u[0] == v[0] and len(u[1]) == len(v[1]) and contains(u, 0) == contains(v, 0)


def aligned_image(u, v, x: int) -> int:
    """The i-th member of u goes to the i-th member of v, b pinned to b."""
    pin = contains(u, 0) and contains(v, 0)
    if pin and x == 0:
        return 0
    rank = sum(1 for y in members(u, x + 1) if y < x and not (pin and y == 0))
    skip = 1 if pin else 0
    return members(v, rank + skip + 1)[rank + skip]


def map_image(exceptions, u, v, x: int) -> int:
    for a, b in exceptions:
        if a == x:
            return b
    return aligned_image(u, v, x)


# --- containment windows ---------------------------------------------------

def class_w_window(shape, prefix: int) -> int:
    """Blocks in the window of the class of a base: those differing from the
    canonical representative only inside [1, prefix] (b is fixed by the base)."""
    cofinite, k, b = shape
    free = k - 1 if (b != cofinite) else k
    return comb(prefix, free)


def class_w_window_count(shape, prefix: int, probe) -> int:
    """Blocks of the window that contain the probe, by the binomial closed form."""
    cofinite, k, b = shape
    p_cof, support = probe
    inside = [x for x in support if 1 <= x <= prefix]
    if not cofinite:
        if p_cof:
            return 0
        if 0 in support and not b:
            return 0
        rest = [x for x in support if x != 0]
        if len(inside) != len(rest):
            return 0
        slots = k - 1 if b else k
        return comb(prefix - len(rest), slots - len(rest)) if len(rest) <= slots else 0
    excluded = k if b else k - 1
    if not p_cof:
        if 0 in support and not b:
            return 0
        return comb(prefix - len(inside), excluded)
    if 0 not in support and not b:
        return 0
    return comb(len(inside), excluded)


def class_w_family_count(shape, probe):
    """Blocks of the whole class that contain the probe; INF when infinite."""
    cofinite, k, b = shape
    p_cof, support = probe
    rest = [x for x in support if x != 0]
    if not cofinite:
        if p_cof or (0 in support and not b):
            return 0
        slots = k - 1 if b else k
        if len(rest) > slots:
            return 0
        return 1 if len(rest) == slots else INF
    excluded = k if b else k - 1
    if not p_cof:
        if 0 in support and not b:
            return 0
        return 1 if excluded == 0 else INF
    if 0 not in support and not b:
        return 0
    return comb(len(rest), excluded)


def odd_tail_window_count(cutoff: int, probe) -> int:
    """Odd-tail block s holds the odd point 2j+1 only when j < s, so a finite
    probe is excluded from every block below its largest odd point's j+1."""
    p_cof, support = probe
    if p_cof:
        return 0
    need = max(((x - 1) // 2 + 1 for x in support if x % 2), default=1)
    return max(cutoff - need + 1, 0)


def odd_tail_family_count(probe):
    return 0 if probe[0] else INF


def saturate(count: int, cutoff: int) -> tuple[int, bool]:
    return (min(count, cutoff), count >= cutoff)


def probe_matches(c, probe) -> bool:
    """Whether a probe is shaped like C: a finite C fixes the size, an
    infinite C the membership of b (the probe must then be cofinite)."""
    size, b, _ = c
    p_cof, support = probe
    if is_finite(size):
        return not p_cof and len(support) == size
    return p_cof and (0 not in support) == b


# --- finite brute force ----------------------------------------------------

def probe_counts(n: int, blocks, t: int) -> list[tuple[tuple[int, ...], int]]:
    """Containment count of every t-subset probe, in lexicographic order."""
    masks = [sum(1 << x for x in block) for block in blocks]
    out = []
    for probe in combinations(range(n), t):
        pm = sum(1 << x for x in probe)
        out.append((probe, sum(1 for m in masks if m & pm == pm)))
    return out


def all_k_subsets_lambda(n: int, k: int, t: int) -> int:
    return comb(n - t, k - t)
