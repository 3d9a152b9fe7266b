"""The four benchmark workloads: seeded panels, the timed call, the check.

A workload turns a seed into a panel: a fixed list of operations that one
run repeats in whole passes.  Each operation's slot (its kind and the size of
its input) is the same for every seed; the seed draws the contents of each
slot and the order of the panel.  That keeps the cost profile, and with it
the end-to-end figures, the same from seed to seed, while the inputs differ.

``run(op)`` is the only code inside the timer and calls the library only
through public names looked up on the ``fortdesign`` package at call time,
so the tracing shims see every call.  ``check(op, result)`` compares the
result with an independent reference from :mod:`refs`.
"""

from __future__ import annotations

import contextlib
import io
import random
from itertools import combinations
from pathlib import Path

import fortdesign as fd
import fortdesign.cli as fd_cli

import refs

SPACE = fd.SpaceDescriptor(fd.ALEPH0)
OP_TIMEOUT_S = 60.0


class Op:
    """One benchmark operation: a kind, its inputs, and whether the kind is a
    listed known defect of the library (its failures still count)."""

    __slots__ = ("kind", "args", "known_defect")

    def __init__(self, kind: str, args: dict, known_defect: bool = False):
        self.kind = kind
        self.args = args
        self.known_defect = known_defect


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    rng.shuffle(ops)
    return ops


def _card(size):
    return fd.Cardinal.finite(size) if isinstance(size, int) else fd.Cardinal.aleph(size[1])


def _descriptor(shape) -> "fd.SubsetDescriptor":
    size, b, cosize = shape
    return fd.SubsetDescriptor(_card(size), b, _card(cosize))


def _concrete(s) -> "fd.ConcreteSet":
    cofinite, support = s
    return fd.ConcreteSet(cofinite, tuple(support))


def _plain(s) -> tuple[bool, tuple[int, ...]]:
    return (s.cofinite, tuple(s.support))


# --- grid-sweep ------------------------------------------------------------

class GridSweep:
    """One operation is one ``sweep()`` call.

    Every seed sweeps the same 19 small grids, which span max_aleph 0..3,
    max_finite 1..6 and ``finite_sizes_only`` on and off (at most 170
    cases, about 20 ms, per call); the seed orders them and picks the two
    calls that run with ``inject_fault``.  Calls stay short so that a run
    repeats each one some 200 times: on a shared host a call of 50 ms or
    more rarely runs undisturbed, and with such calls the spread of the
    timings across ten seeds reached 0.44.
    """

    name = "grid-sweep"
    pass_s = 0.17   # seconds per pass as run.py runs it on the reference machine
    # (max_aleph, max_finite) over the full grid, then over finite sizes only
    FULL_GRID = ((0, 1), (0, 2), (1, 1))
    FINITE_SIZES_ONLY = tuple((a, m) for a in range(4) for m in (1, 2, 3)) + (
        (0, 4), (0, 5), (0, 6), (1, 4))
    FAULTED_CALLS = 2

    def generate(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        configs = ([(a, m, False) for a, m in self.FULL_GRID]
                   + [(a, m, True) for a, m in self.FINITE_SIZES_ONLY])
        # a fault flips every seventh case, so it needs a grid of 7 cases
        faultable = [i for i, c in enumerate(configs) if 7 <= refs.sweep_cases(*c) <= 1000]
        faulted = set(rng.sample(faultable, self.FAULTED_CALLS))
        ops = [
            Op(
                "sweep-fault" if i in faulted else "sweep",
                {"max_aleph": a, "max_finite": m, "finite_sizes_only": f,
                 "inject_fault": i in faulted},
            )
            for i, (a, m, f) in enumerate(configs)
        ]
        return _shuffled(rng, ops)

    def run(self, op: Op):
        return fd.sweep(**op.args)

    def check(self, op: Op, report) -> str | None:
        a = op.args
        cases = refs.sweep_cases(a["max_aleph"], a["max_finite"], a["finite_sizes_only"])
        if report.cases != cases:
            return f"{report.cases} cases, expected {cases}"
        if a["inject_fault"]:
            return None if report.violations else "injected fault not reported"
        return f"{len(report.violations)} violations" if report.violations else None


# --- homeo-panel -----------------------------------------------------------

SUPPORT_MAX = 48      # supports lie in [0, SUPPORT_MAX]
CHECK_PREFIX = 32     # members check_homeomorphism inspects by default


def _random_finite(rng: random.Random, size: int) -> tuple:
    pool = list(range(1, SUPPORT_MAX + 1))
    b = rng.random() < 0.5 if size else False
    picked = rng.sample(pool, size - 1 if b else size) + ([0] if b else [])
    return (False, tuple(sorted(picked)))


def _random_cofinite(rng: random.Random, b: bool, excluded: int | None = None) -> tuple:
    if excluded is None:
        excluded = rng.randint(0, 8)
    picked = rng.sample(range(1, SUPPORT_MAX + 1), excluded)
    if not b:
        picked = picked[:-1] + [0] if picked else [0]
    return (True, tuple(sorted(picked)))


class HomeoPanel:
    """One operation is one ordered pair (u, v) of finite or cofinite sets.

    The pair goes through ``canonical_homeomorphism`` and
    ``check_homeomorphism``; the descriptors extracted from u and v go
    through ``subspace_homeomorphic`` and ``pair_equivalent``.  Perturbed
    pairs replace the canonical map by one with a single exception that makes
    it a non-bijection, so their expected answer is False.  Exceptions placed
    beyond the 32-member prefix the checker inspects are accepted today:
    those two kinds are the listed known defects.
    """

    name = "homeo-panel"
    pass_s = 0.018
    SLOTS = (
        ("finite-homeomorphic", 64),
        ("cofinite-homeomorphic", 48),
        ("finite-size-mismatch", 16),
        ("finite-vs-cofinite", 16),
        ("cofinite-b-mismatch", 16),
        ("perturb-finite-collide", 24),
        ("perturb-finite-outside", 8),
        ("perturb-cofinite-collide-in-prefix", 24),
        ("perturb-cofinite-b-moved", 8),
        ("perturb-source-beyond-prefix", 14),
        ("perturb-target-beyond-prefix", 14),
    )
    KNOWN_DEFECTS = frozenset({"perturb-source-beyond-prefix", "perturb-target-beyond-prefix"})
    # ROADMAP's two reproductions, on cofin: -> cofin:, open every panel
    FIXED = (
        ("perturb-target-beyond-prefix", (True, ()), (True, ()), (1, 1000)),
        ("perturb-source-beyond-prefix", (True, ()), (True, ()), (40, 1)),
    )

    def generate(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = [self._op(kind, u, v, exc) for kind, u, v, exc in self.FIXED]
        for kind, count in self.SLOTS:
            fixed = sum(1 for f in self.FIXED if f[0] == kind)
            for i in range(count - fixed):
                u, v, exc = self._draw(rng, kind, i)
                ops.append(self._op(kind, u, v, exc))
        return _shuffled(rng, ops)

    def _op(self, kind, u, v, exception) -> Op:
        return Op(kind, {
            "u": _concrete(u), "v": _concrete(v), "exception": exception,
            "plain": (u, v),
        }, kind in self.KNOWN_DEFECTS)

    def _draw(self, rng: random.Random, kind: str, i: int):
        """Sizes cycle with the slot index ``i``, so every seed has the same
        mix of sizes; the seed draws the points."""
        if kind == "finite-homeomorphic":
            return _random_finite(rng, i % 11), _random_finite(rng, i % 11), None
        if kind == "cofinite-homeomorphic":
            b = i % 2 == 0
            return (_random_cofinite(rng, b, i % 9), _random_cofinite(rng, b, (i * 4) % 9), None)
        if kind == "finite-size-mismatch":
            return _random_finite(rng, i % 11), _random_finite(rng, (i % 11 + 1 + i % 4) % 12), None
        if kind == "finite-vs-cofinite":
            pair = [_random_finite(rng, i % 11), _random_cofinite(rng, i % 2 == 0, i % 9)]
            return (pair[0], pair[1], None) if i % 4 < 2 else (pair[1], pair[0], None)
        if kind == "cofinite-b-mismatch":
            b = i % 2 == 0
            return _random_cofinite(rng, b, i % 9), _random_cofinite(rng, not b, (i * 4) % 9), None
        if kind == "perturb-finite-collide":
            n = 2 + i % 9
            u, v = _random_finite(rng, n), _random_finite(rng, n)
            x, x2 = rng.sample(u[1], 2)
            return u, v, (x, refs.aligned_image(u, v, x2))
        if kind == "perturb-finite-outside":
            n = 1 + i % 10
            u, v = _random_finite(rng, n), _random_finite(rng, n)
            outside = [y for y in range(SUPPORT_MAX + 8) if y not in v[1]]
            return u, v, (rng.choice(u[1]), rng.choice(outside))
        b = kind == "perturb-cofinite-b-moved" or i % 2 == 0
        u, v = _random_cofinite(rng, b, i % 9), _random_cofinite(rng, b, (i * 4) % 9)
        prefix = refs.members(u, CHECK_PREFIX)
        beyond = refs.members(u, CHECK_PREFIX + 40)[CHECK_PREFIX:]
        inner = [x for x in prefix if x != 0]  # b stays pinned unless moved on purpose
        if kind == "perturb-cofinite-collide-in-prefix":
            x, x2 = rng.sample(inner, 2)
        elif kind == "perturb-cofinite-b-moved":
            x, x2 = 0, rng.choice(inner)
        elif kind == "perturb-source-beyond-prefix":
            x, x2 = rng.choice(beyond), rng.choice(inner)
        else:
            x, x2 = rng.choice(inner), rng.choice(beyond)
        return u, v, (x, refs.aligned_image(u, v, x2))

    def run(self, op: Op):
        a = op.args
        u, v = a["u"], a["v"]
        m = fd.canonical_homeomorphism(u, v)
        if m is not None and a["exception"] is not None:
            m = fd.PointMap(aligned=m.aligned, exceptions=m.exceptions + (a["exception"],))
        ok = m is not None and fd.check_homeomorphism(m, u, v)
        du, dv = fd.extract_descriptor(u), fd.extract_descriptor(v)
        return (m is not None, ok, fd.subspace_homeomorphic(du, dv),
                fd.pair_equivalent(du, dv, SPACE))

    def check(self, op: Op, result) -> str | None:
        u, v = op.args["plain"]
        homeo = refs.homeomorphic(u, v)
        expected = (homeo, homeo and op.args["exception"] is None, homeo,
                    refs.pair_equivalent(u, v))
        return None if result == expected else f"got {result}, expected {expected}"

    @staticmethod
    def known_wrong(op: Op, result) -> bool:
        """The perturbed map accepted as a homeomorphism, all else right."""
        u, v = op.args["plain"]
        return result == (True, True, True, refs.pair_equivalent(u, v))


# --- containment-count -----------------------------------------------------

class ContainmentCount:
    """One operation is one counting job from a fixed list of slots.

    * ClassW windows through ``local_design_check``: one of 20,475
      blocks, ten of about 3,000 and eight of 300 to 1,140, over finite and
      cofinite bases with and without b, |D| or cosize 2-4;
    * odd-tail windows at cutoffs 1,000-5,000;
    * refutation-style probe pairs whose family-wide counts are exact;
    * ``brute_lambda`` on all-k-subsets instances, relabelled classical
      designs and random instances with n <= 16.

    Shapes and window sizes are fixed per slot; the seed draws the probes,
    the instances and the order.
    """

    name = "containment-count"
    pass_s = 1.1
    # (cofinite, k, contains_b), prefix; the first slot has no saturating probe
    WINDOW_SLOTS = (
        ((False, 4, False), 28),
        # ten of about 3,000 blocks: the 90th percentile falls among them
        ((False, 2, False), 78),
        ((False, 3, True), 78),
        ((False, 3, False), 27),
        ((False, 4, True), 27),
        ((False, 4, False), 18),
        ((True, 2, True), 78),
        ((True, 3, False), 78),
        ((True, 3, True), 27),
        ((True, 4, False), 27),
        ((True, 4, True), 18),
        ((False, 2, True), 300),
        ((False, 2, False), 40),
        ((False, 3, True), 40),
        ((False, 3, False), 16),
        ((True, 2, True), 40),
        ((True, 2, False), 500),
        ((True, 3, True), 16),
        ((True, 4, False), 20),
    )
    ODD_TAIL_CUTOFFS = (1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000)
    # (cofinite, k, prefix)
    REFUTATION_SLOTS = (
        (False, 2, 60), (False, 3, 40), (False, 4, 20), (False, 3, 30),
        (True, 2, 30), (True, 3, 16), (True, 2, 50), (True, 4, 12),
    )
    ALL_K_SLOTS = ((8, 3, 2), (9, 4, 2), (10, 4, 3), (11, 5, 2), (12, 5, 3), (13, 4, 2))
    DESIGN_SLOTS = (("fano", 2), ("fano", 1), ("affine-3", 2), ("affine-3", 1))
    RANDOM_SLOTS = 6

    def generate(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = [self._window(rng, shape, prefix, i > 0, i % 2 == 0)
               for i, (shape, prefix) in enumerate(self.WINDOW_SLOTS)]
        ops += [self._odd_tail(rng, cutoff) for cutoff in self.ODD_TAIL_CUTOFFS]
        ops += [self._refutation(rng, *slot) for slot in self.REFUTATION_SLOTS]
        ops += [self._brute(rng, f"all-{n}-{k}-{t}", all_k_instance(n, k), n, k, t)
                for n, k, t in self.ALL_K_SLOTS]
        for design, t in self.DESIGN_SLOTS:
            n, blocks = relabelled(rng, CLASSICAL_DESIGNS[design])
            ops.append(self._brute(rng, design, blocks, n, len(blocks[0]), t))
        for _ in range(self.RANDOM_SLOTS):
            n = rng.randint(10, 16)
            k = rng.randint(3, 6)
            blocks = sorted(set(tuple(sorted(rng.sample(range(n), k)))
                                for _ in range(rng.randint(8, 40))))
            ops.append(self._brute(rng, "random", blocks, n, k, rng.randint(1, 3)))
        return _shuffled(rng, ops)

    def _window(self, rng, shape, prefix, saturating, require_complement) -> Op:
        """Probes: one whose count stays below the cutoff, so the whole window
        is scanned (the seed draws its points); on most slots a fixed probe
        on the lowest points, whose count saturates at the same block for
        every seed; and one of the other kind, which C rejects."""
        cofinite, k, b = shape
        if cofinite:
            c = (("aleph", 0), b, ("aleph", 0))
            d = (("aleph", 0), b, k)
            zero = () if b else (0,)
            free = k if b else k - 1  # excluded points of a block inside [1, prefix]
            exact = (True, zero + tuple(sorted(rng.sample(range(1, prefix + 1), free + 1))))
            low = (True, zero + tuple(range(1, prefix // 2)))
            other = _random_finite(rng, rng.randint(1, 3))
        else:
            c = (k - 1, b, ("aleph", 0))
            d = (k, b, ("aleph", 0))
            if b:   # k - 1 points besides b: exactly one block
                exact = (False, tuple(sorted(rng.sample(range(1, prefix + 1), k - 1))))
            else:   # holds b, which no block does
                exact = (False, (0,) + tuple(sorted(rng.sample(range(1, prefix + 1), k - 2))))
            low = (False, tuple(range(0, k - 1)) if b else tuple(range(1, k)))
            other = _random_cofinite(rng, rng.random() < 0.5)
        probes = [exact, low, other] if saturating else [exact, other]
        rng.shuffle(probes)
        return self._design_check("window", ("class-w", shape, prefix), c, d, probes,
                                  prefix - 2, prefix, require_complement)

    def _odd_tail(self, rng, cutoff) -> Op:
        c_size = rng.randint(1, 3)
        c = (c_size, rng.random() < 0.5, ("aleph", 0))
        d = (("aleph", 0), True, ("aleph", 0))
        pool = range(0, 2 * cutoff + 20)
        probes = [
            (False, tuple(sorted(rng.sample(range(0, 2 * cutoff, 2), c_size)))),  # saturates
            (False, tuple(sorted(rng.sample(pool, c_size)))),
            (False, tuple(sorted(rng.sample(pool, c_size + 1)))),               # rejected
        ]
        rng.shuffle(probes)
        return self._design_check("odd-tail", ("odd-tail",), c, d, probes, cutoff, None, True)

    def _refutation(self, rng, cofinite, k, prefix) -> Op:
        """C one point below D at the b-containing boundary: one probe lies in
        exactly one block, the other in a different number."""
        if cofinite:
            c = (("aleph", 0), True, ("aleph", 0))
            d = (("aleph", 0), True, k)
            probes = [(True, tuple(sorted(rng.sample(range(1, prefix + 1), n))))
                      for n in (k, k + 1)]
        else:
            c = (k - 1, True, ("aleph", 0))
            d = (k, True, ("aleph", 0))
            probes = [
                (False, tuple(range(0, k - 1))),
                (False, tuple(sorted(rng.sample(range(1, prefix + 1), k - 1)))),
            ]
        rng.shuffle(probes)
        shape = (cofinite, k, True)
        return self._design_check("refutation", ("class-w", shape, prefix), c, d, probes,
                                  prefix - 2, prefix, True)

    @staticmethod
    def _design_check(kind, family, c, d, probes, cutoff, prefix, require_complement) -> Op:
        lib_family = fd.OddTail() if family[0] == "odd-tail" else fd.ClassW(_descriptor(d))
        return Op(kind, {
            "call": (lib_family, _descriptor(c), _descriptor(d),
                     [_concrete(p) for p in probes], cutoff),
            "kwargs": {"require_complement": require_complement, "prefix": prefix},
            "family": family, "c": c, "probes": probes, "cutoff": cutoff,
        })

    @staticmethod
    def _brute(rng, label, blocks, n, k, t) -> Op:
        instance = fd.FiniteInstance(n=n, blocks=tuple(frozenset(b) for b in blocks),
                                     c_size=t, d_size=k)
        design_type = fd.DesignType(rng.randint(1, 4))
        return Op("brute", {"instance": instance, "type": design_type, "label": label,
                            "plain": (n, tuple(blocks), t)})

    def run(self, op: Op):
        if op.kind == "brute":
            return fd.brute_lambda(op.args["instance"], op.args["type"])
        return fd.local_design_check(*op.args["call"], **op.args["kwargs"])

    def check(self, op: Op, result) -> str | None:
        if op.kind == "brute":
            return self._check_brute(op, result)
        a = op.args
        family, cutoff = a["family"], a["cutoff"]
        if family[0] == "odd-tail":
            window = cutoff
            window_count = lambda p: refs.odd_tail_window_count(cutoff, p)
            family_count = refs.odd_tail_family_count
        else:
            _, shape, prefix = family
            window = refs.class_w_window(shape, prefix)
            window_count = lambda p: refs.class_w_window_count(shape, prefix, p)
            family_count = lambda p: refs.class_w_family_count(shape, p)
        if result.blocks_checked != window:
            return f"{result.blocks_checked} blocks checked, expected {window}"
        if result.block_failures:
            return f"{len(result.block_failures)} block shape failures"
        accepted = [p for p in a["probes"] if refs.probe_matches(a["c"], p)]
        rejected = [p for p in a["probes"] if not refs.probe_matches(a["c"], p)]
        if [_plain(p) for p in result.rejected] != rejected:
            return "rejected probes differ"
        if [_plain(r.probe) for r in result.probes] != accepted:
            return "accepted probes differ"
        for report in result.probes:
            p = _plain(report.probe)
            got = (report.count.value, report.count.saturated)
            expected = refs.saturate(window_count(p), cutoff)
            if got != expected:
                return f"probe {p}: count {got}, expected {expected}"
            if report.global_exact is not None and report.global_exact != family_count(p):
                return f"probe {p}: family count {report.global_exact}, expected {family_count(p)}"
        if result.refutation is not None:
            first, second = (_plain(r.probe) for r in result.refutation)
            if family_count(first) == family_count(second):
                return "refutation of two probes with equal family counts"
        elif op.kind == "refutation":
            return "boundary refutation missed"
        return None

    @staticmethod
    def _check_brute(op: Op, outcome) -> str | None:
        n, blocks, t = op.args["plain"]
        label = op.args["label"]
        if label.startswith("all-"):
            k = len(blocks[0])
            lam = refs.all_k_subsets_lambda(n, k, t)
            ok = outcome.uniform and outcome.lambda_ == lam
            return None if ok else f"{outcome}, expected Exactly({lam})"
        counts = dict(refs.probe_counts(n, blocks, t))
        values = set(counts.values())
        if len(values) == 1:
            lam = values.pop()
            ok = outcome.uniform and outcome.lambda_ == lam
            return None if ok else f"{outcome}, expected Exactly({lam})"
        if outcome.uniform:
            return f"{outcome}, expected non-uniform"
        if (outcome.first_count != counts[outcome.first]
                or outcome.second_count != counts[outcome.second]
                or outcome.first_count == outcome.second_count):
            return f"{outcome} is not a valid non-uniformity witness"
        return None


def all_k_instance(n: int, k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(n), k))


CLASSICAL_DESIGNS = {
    # the Fano plane, 2-(7,3,1)
    "fano": (7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]),
    # the affine plane of order 3, 2-(9,3,1): lines of Z3 x Z3, point (x, y) = 3x + y
    "affine-3": (9, sorted(
        [tuple(sorted(3 * x + (m * x + c) % 3 for x in range(3))) for m in range(3) for c in range(3)]
        + [tuple(3 * c + y for y in range(3)) for c in range(3)]
    )),
}


def relabelled(rng: random.Random, design) -> tuple[int, list[tuple[int, ...]]]:
    n, blocks = design
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted(perm[x] for x in block)) for block in blocks)


# --- the CLI panel of the traced runs ---------------------------------------

def _fmt_card(size) -> str:
    return str(size) if isinstance(size, int) else f"aleph{size[1]}"


def _random_card(rng: random.Random, space_index: int, low: int) -> object:
    if rng.random() < 0.5:
        return rng.randint(low, 6)
    return ("aleph", rng.randint(0, space_index))


def _random_descriptor(rng: random.Random, space_index: int):
    x = ("aleph", space_index)
    size = _random_card(rng, space_index, 1)
    if size != x:
        return (size, rng.random() < 0.5, x)
    cosize = _random_card(rng, space_index, 0)
    return (size, cosize == 0 or rng.random() < 0.5, cosize)


def query_text(space_index: int, design_type, c, d, omit_forced_cosize=True, extra=()) -> str:
    lines = [f"space.size: aleph{space_index}", f"type: {design_type}"]
    x = ("aleph", space_index)
    for name, (size, b, cosize) in (("C", c), ("D", d)):
        lines.append(f"{name}.size: {_fmt_card(size)}")
        lines.append(f"{name}.contains_b: {'true' if b else 'false'}")
        if not (omit_forced_cosize and size != x):
            lines.append(f"{name}.cosize: {_fmt_card(cosize)}")
    return "\n".join(list(lines) + list(extra)) + "\n"


def instance_text(n: int, t: int, k: int, blocks) -> str:
    return "\n".join([f"{n}, {t}, {k}"] + [",".join(map(str, b)) for b in blocks]) + "\n"


class CliBatch:
    """The CLI panel every traced run measures the ``cli`` layer on: one
    operation is one command line given to in-process ``main()``.

    Per pass: 12 ``decide`` (both formats), 4 ``verify``, 4 ``crosscheck``
    on tiny grids (one with ``--inject-fault``), 8 ``brute`` and 14
    malformed inputs that must exit with code 2.  Four of the malformed
    inputs are read as other inputs today: an Arabic-Indic digit, a
    full-width digit, ``aleph01`` and ``contains_b`` given together with a
    conflicting ``b``; those are the listed known defects.
    """

    name = "cli-batch"
    KNOWN_DEFECTS = frozenset({
        "malformed-arabic-indic-digit", "malformed-fullwidth-digit",
        "malformed-aleph-leading-zero", "malformed-conflicting-b",
    })
    MALFORMED = (
        "malformed-unknown-key", "malformed-missing-space", "malformed-type",
        "malformed-cardinal", "malformed-duplicate-key", "malformed-missing-file",
        "malformed-probe", "malformed-instance-header", "malformed-brute-t",
        "malformed-subcommand",
    ) + tuple(sorted(KNOWN_DEFECTS))

    def generate(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        files = iter(range(1_000_000))

        def write(text: str, suffix: str = ".txt") -> str:
            path = workdir / f"input-{next(files)}{suffix}"
            path.write_text(text, encoding="utf-8")
            return str(path)

        ops: list[Op] = []
        for i in range(12):
            space = rng.randint(0, refs.MAX_ALEPH_INDEX)
            t = rng.randint(1, 4)
            c, d = _random_descriptor(rng, space), _random_descriptor(rng, space)
            fmt = "record" if i % 2 else "text"
            path = write(query_text(space, t, c, d, omit_forced_cosize=rng.random() < 0.5))
            ops.append(Op(f"decide-{fmt}", {
                "argv": ["decide", path, "--format", fmt],
                "exit": 0 if refs.exists(t, c, d, space) else 1,
            }))
        for cutoff in rng.sample(range(20, 61), 2):
            ops.append(Op("verify-refutation-demo", {
                "argv": ["verify", "--refutation-demo", "--cutoff", str(cutoff)], "exit": 1,
            }))
        n = rng.randint(1, 3)
        odd = query_text(0, 1, (n, rng.random() < 0.5, ("aleph", 0)),
                         (("aleph", 0), True, ("aleph", 0)))
        probes = [f"fin:{','.join(map(str, sorted(rng.sample(range(0, 60), n))))}" for _ in range(2)]
        ops.append(Op("verify-odd-tail", {
            "argv": ["verify", write(odd), *probes, "--cutoff", str(rng.randint(50, 200))],
            "exit": 0,
        }))
        window = query_text(0, 1, (1, True, ("aleph", 0)), (3, True, ("aleph", 0)))
        probes = [f"fin:{x}" for x in rng.sample(range(0, 30), 2)]
        ops.append(Op("verify-class-w", {
            "argv": ["verify", write(window), *probes, "--cutoff", "30", "--format",
                     rng.choice(("text", "record"))],
            "exit": 0,
        }))
        for _ in range(3):
            a, m, f = rng.randint(0, 1), rng.randint(1, 3), rng.random() < 0.5
            argv = ["crosscheck", "--grid-max-aleph", str(a), "--max-finite", str(m)]
            ops.append(Op("crosscheck", {
                "argv": argv + (["--finite-sizes-only"] if f else []), "exit": 0,
                "stdout": f"0 violations / {refs.sweep_cases(a, m, f)} cases\n",
            }))
        m = rng.randint(2, 3)
        ops.append(Op("crosscheck-fault", {
            "argv": ["crosscheck", "--grid-max-aleph", "0", "--max-finite", str(m),
                     "--inject-fault"],
            "exit": 1, "stdout_suffix": f" violations / {refs.sweep_cases(0, m, False)} cases\n",
        }))
        for n, k, t in rng.sample([(6, 3, 2), (7, 3, 1), (7, 4, 2), (8, 3, 2), (8, 4, 3), (9, 3, 2)], 4):
            lam = refs.all_k_subsets_lambda(n, k, t)
            path = write(instance_text(n, t, k, all_k_instance(n, k)))
            ops.append(Op("brute-all-k", {
                "argv": ["brute", path, "--design-type", str(rng.randint(1, 4))],
                "exit": 0, "stdout": f"Exactly({lam})\n",
            }))
        for design in ("fano", "affine-3"):
            n, blocks = relabelled(rng, CLASSICAL_DESIGNS[design])
            path = write(instance_text(n, 1, 3, blocks))
            ops.append(Op("brute-design", {
                "argv": ["brute", path, "--t", "2"], "exit": 0, "stdout": "Exactly(1)\n",
            }))
        for _ in range(2):
            n, k, t = rng.randint(6, 10), rng.randint(2, 4), rng.randint(1, 2)
            blocks = sorted(set(tuple(sorted(rng.sample(range(n), k))) for _ in range(rng.randint(3, 12))))
            uniform = len({c for _, c in refs.probe_counts(n, blocks, t)}) == 1
            ops.append(Op("brute-random", {
                "argv": ["brute", write(instance_text(n, t, k, blocks))],
                "exit": 0 if uniform else 1,
            }))
        for kind in self.MALFORMED:
            argv, misread = self._malformed(rng, kind, write, workdir)
            args = {"argv": argv, "exit": 2}
            if kind in self.KNOWN_DEFECTS:
                # the exit code of the input the malformed one is read as
                args["misread_exit"] = 0 if refs.exists(*misread) else 1
            ops.append(Op(kind, args, kind in self.KNOWN_DEFECTS))
        return _shuffled(rng, ops)

    @staticmethod
    def _malformed(rng, kind, write, workdir) -> tuple[list[str], tuple | None]:
        """The argv, and for a known defect the (type, C, D, space index)
        of the well-formed query the input is read as today."""
        space = rng.randint(0, refs.MAX_ALEPH_INDEX)
        t = rng.randint(1, 4)
        c, d = _random_descriptor(rng, space), _random_descriptor(rng, space)
        text = query_text(space, t, c, d, omit_forced_cosize=False)
        misread = None
        lines = text.splitlines()
        if kind == "malformed-unknown-key":
            lines.insert(rng.randint(0, len(lines)), "E.size: 3")
        elif kind == "malformed-missing-space":
            lines = lines[1:]
        elif kind == "malformed-type":
            lines[1] = f"type: {rng.choice(('0', '5', 'one', '1.0'))}"
        elif kind == "malformed-cardinal":
            lines[2] = f"C.size: {rng.choice(('three', 'aleph', 'aleph9', '-1', 'aleph-1'))}"
        elif kind == "malformed-duplicate-key":
            lines.append(lines[rng.randint(0, len(lines) - 1)])
        elif kind == "malformed-missing-file":
            return ["decide", str(workdir / "no-such-query.txt")], None
        elif kind == "malformed-probe":
            odd = query_text(0, 1, (2, True, ("aleph", 0)), (("aleph", 0), True, ("aleph", 0)))
            return ["verify", write(odd), "fin:0,4", rng.choice(("box:1", "fin:a", "fin:-3"))], None
        elif kind == "malformed-instance-header":
            return ["brute", write(rng.choice(("6, 2\n0,1\n", "n, 2, 3\n0,1,2\n", "6, 2, 3\n0,x,2\n")))], None
        elif kind == "malformed-brute-t":
            return ["brute", write(instance_text(6, 2, 3, all_k_instance(6, 3))), "--t",
                    rng.choice(("0", "4"))], None
        elif kind == "malformed-subcommand":
            return [rng.choice(("decied", "sweep", "--format"))], None
        elif kind == "malformed-arabic-indic-digit":
            # U+0660.. are decimal digits to str.isdigit, so "٣" reads as 3
            digit = rng.randint(1, 6)
            misread = (t, (digit, True, ("aleph", 0)), (("aleph", 0), True, ("aleph", 0)), 0)
            lines = query_text(0, *misread[:3]).splitlines()
            lines[2] = f"C.size: {chr(0x660 + digit)}"
        elif kind == "malformed-fullwidth-digit":
            misread = (t, (2, True, ("aleph", 0)), (("aleph", 0), True, 0), 0)
            lines = query_text(0, *misread[:3]).splitlines()
            lines[-1] = "D.cosize: ０"
        elif kind == "malformed-aleph-leading-zero":
            lines[0] = f"space.size: aleph0{space}"
            misread = (t, c, d, space)
        elif kind == "malformed-conflicting-b":
            # contains_b wins over the conflicting b
            misread = (2, (1, True, ("aleph", space)), (("aleph", space), True, 0), space)
            lines = query_text(space, *misread[:3]).splitlines()
            lines.insert(4, "C.b: false")
        return ["decide", write("\n".join(lines) + "\n")], misread

    @staticmethod
    def run_inprocess(argv: list[str]) -> tuple[int, bytes]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = fd_cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue().encode("utf-8")

    def run(self, op: Op) -> tuple[int, bytes]:
        return self.run_inprocess(op.args["argv"])

    def check(self, op: Op, result) -> str | None:
        """Exit code and stdout against the expectation."""
        code, stdout = result
        a = op.args
        if code != a["exit"]:
            return f"exit code {code}, expected {a['exit']}"
        if "stdout" in a and stdout != a["stdout"].encode():
            return f"stdout {stdout!r}, expected {a['stdout']!r}"
        if "stdout_suffix" in a:
            last = stdout.decode("utf-8", "replace").splitlines()[-1:] or [""]
            count, _, rest = (last[0] + "\n").partition(" ")
            if not count.isascii() or not count.isdigit() or int(count) < 1 \
                    or " " + rest != a["stdout_suffix"]:
                return f"stdout ends {last!r}, expected a nonzero violation count"
        return None

    @staticmethod
    def known_wrong(op: Op, result) -> bool:
        """A malformed input read as the input it resembles: the exit code is
        the verdict on that reading instead of 2."""
        return result[0] == op.args.get("misread_exit")


# the benchmark's workloads; CliBatch supplies the traced runs' CLI panel
WORKLOADS = {w.name: w for w in (GridSweep, HomeoPanel, ContainmentCount)}


def get(name: str):
    return WORKLOADS[name]()
