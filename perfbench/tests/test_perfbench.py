"""Self-tests of the benchmark: determinism, references, input generators.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fortdesign as fd  # noqa: E402

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def describe(op, workdir: Path):
    """A comparable rendering of one operation, with the work directory
    replaced and the input files' contents inlined."""
    def render(value):
        if isinstance(value, str) and value.startswith(str(workdir)):
            path = Path(value)
            body = path.read_text(encoding="utf-8") if path.exists() else None
            return ("file", path.name, body)
        if isinstance(value, (list, tuple)):
            return tuple(render(v) for v in value)
        if isinstance(value, dict):
            return tuple(sorted((k, render(v)) for k, v in value.items()))
        return repr(value)
    return (op.kind, op.known_defect, render(op.args))


@pytest.mark.parametrize("cls", [*workloads.WORKLOADS.values(), workloads.CliBatch])
def test_same_seed_same_operations(cls, tmp_path):
    first = cls().generate(7, tmp_path / "a")
    again = cls().generate(7, tmp_path / "b")
    other = cls().generate(8, tmp_path / "c")
    assert [describe(op, tmp_path / "a") for op in first] == \
        [describe(op, tmp_path / "b") for op in again]
    assert [describe(op, tmp_path / "a") for op in first] != \
        [describe(op, tmp_path / "c") for op in other]
    assert len(first) == len(other)


def traced_counts(name, seed, keep):
    workload = workloads.get(name)
    panel = [op for op in workload.generate(seed, Path("unused")) if keep(op)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, op in enumerate(panel):
            tracer.run_op(workload.run, index, op)
    finally:
        tracer.uninstall()
    calls = {name: totals[0] for name, totals in tracer.totals.items()}
    return calls, dict(tracer.counters)


@pytest.mark.parametrize("name, keep", [
    ("homeo-panel", lambda op: True),
    ("containment-count", lambda op: op.kind != "window" or op.args["family"][2] < 100),
    ("grid-sweep", lambda op: refs.sweep_cases(
        op.args["max_aleph"], op.args["max_finite"], op.args["finite_sizes_only"]) <= 400),
])
def test_same_seed_same_layer_counts(name, keep):
    calls, counters = traced_counts(name, 3, keep)
    assert (calls, counters) == traced_counts(name, 3, keep)
    assert sum(calls.values()) > len(calls)


def test_shims_are_removed():
    originals = (fd.designs.validate, fd.cardinal.Cardinal.__dict__["__lt__"],
                 fd.concrete.PointMap.apply, fd.finitebrute.__dict__.get("set"))
    tracer = tracing.Tracer()
    tracer.install()
    assert fd.designs.validate is not originals[0]
    tracer.uninstall()
    assert (fd.designs.validate, fd.cardinal.Cardinal.__dict__["__lt__"],
            fd.concrete.PointMap.apply, fd.finitebrute.__dict__.get("set")) == originals


def test_missing_shim_target_raises(monkeypatch):
    original = fd.designs.validate
    monkeypatch.delattr(fd.concrete, "_window_blocks")
    with pytest.raises(LookupError, match="_window_blocks"):
        tracing.Tracer().install()
    assert fd.designs.validate is original


def test_streamed_window_counts_blocks_drawn(monkeypatch):
    built = fd.concrete._window_blocks
    monkeypatch.setattr(fd.concrete, "_window_blocks", lambda *a: iter(built(*a)))
    family = fd.ClassW(workloads._descriptor((2, True, ("aleph", 0))))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every block of the window holds 0: the count saturates at the 5th
        count = fd.blocks_containing(family, fd.ConcreteSet.finite((0,)), 5, 20)
    finally:
        tracer.uninstall()
    assert (count.value, count.saturated) == (5, True)
    assert tracer.counters["blocks_enumerated"] == 5


@pytest.mark.parametrize("seed", [1, 2])
def test_known_defects_fail_only_with_their_wrong_answer(seed, tmp_path):
    """Today every known-defect operation fails with exactly the listed wrong
    answer, and another wrong answer is not taken for it."""
    cli = workloads.CliBatch()
    homeo = workloads.get("homeo-panel")
    panels = [(cli, cli.generate(seed, tmp_path)),
              (homeo, homeo.generate(seed, Path("unused")))]
    for workload, panel in panels:
        known = [op for op in panel if op.known_defect]
        assert known
        for op in known:
            result = workload.run(op)
            assert workload.check(op, result) is not None, op.kind
            assert workload.known_wrong(op, result), op.kind
    assert not homeo.known_wrong(known[0], (True, False, False, True))
    op = next(op for op in panels[0][1] if op.known_defect)
    assert not cli.known_wrong(op, (1 - op.args["misread_exit"], b""))


SHAPES = [(cof, k, b) for cof in (False, True) for k in (2, 3, 4) for b in (False, True)]


def literal_window(shape, prefix):
    """Every block of the window, as a membership test on [0, prefix + 5]."""
    cofinite, k, b = shape
    free = k - 1 if b != cofinite else k
    fixed = {0} if (b and not cofinite) or (cofinite and not b) else set()
    for rest in combinations(range(1, prefix + 1), free):
        part = fixed | set(rest)
        yield (lambda x, part=part: (x in part) != cofinite)


def literal_count(shape, prefix, probe):
    p_cof, support = probe
    horizon = range(0, prefix + 6)
    count = 0
    for member in literal_window(shape, prefix):
        if p_cof:
            # a cofinite probe fits only in a cofinite block whose excluded
            # points the probe also excludes
            if not shape[0] or not all(x in support for x in horizon if not member(x)):
                continue
        elif not all(member(x) for x in support):
            continue
        count += 1
    return count


@pytest.mark.parametrize("shape", SHAPES)
def test_binomial_window_matches_literal_enumeration(shape):
    prefix = 8
    assert refs.class_w_window(shape, prefix) == sum(1 for _ in literal_window(shape, prefix))
    probes = [(False, ()), (False, (0,)), (False, (3,)), (False, (0, 2)), (False, (2, 5)),
              (False, (1, 9)), (False, (0, 4, 7)), (True, ()), (True, (0,)), (True, (1, 2)),
              (True, (0, 1, 3)), (True, (2, 4, 6, 8)), (True, (0, 2, 4, 6, 8)), (True, (1, 12))]
    family = fd.ClassW(workloads._descriptor(
        (("aleph", 0), shape[2], shape[1]) if shape[0] else (shape[1], shape[2], ("aleph", 0))))
    for probe in probes:
        expected = literal_count(shape, prefix, probe)
        assert refs.class_w_window_count(shape, prefix, probe) == expected, probe
        library = fd.blocks_containing(family, workloads._concrete(probe), 10**6, prefix)
        assert (library.value, library.saturated) == (expected, False), probe


def test_odd_tail_rule_matches_literal_enumeration():
    cutoff = 40
    for probe in [(False, ()), (False, (0, 2)), (False, (1,)), (False, (3, 8)),
                  (False, (0, 41, 77)), (False, (101,)), (True, ())]:
        literal = sum(1 for s in range(1, cutoff + 1)
                      if not probe[0] and all(x % 2 == 0 or (x - 1) // 2 < s for x in probe[1]))
        assert refs.odd_tail_window_count(cutoff, probe) == literal, probe


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perturbed_maps_are_not_bijections(seed):
    panel = workloads.get("homeo-panel").generate(seed, Path("unused"))
    perturbed = [op for op in panel if op.kind.startswith("perturb-")]
    assert perturbed
    for op in perturbed:
        u, v = op.args["plain"]
        x, y = op.args["exception"]
        # a finite window of sources that holds the exception's source and
        # the point the aligned map sends to its target
        window = u[1] if not u[0] else [s for s in range(max(x, y) + 10) if refs.contains(u, s)]
        images = [refs.map_image(((x, y),), u, v, s) for s in window]
        lib_map = fd.PointMap(aligned=True, exceptions=((x, y),))
        assert images == [lib_map.apply(s, op.args["u"], op.args["v"]) for s in window]
        preimages = {}
        for image in images:
            preimages[image] = preimages.get(image, 0) + 1
        collides = any(n > 1 for n in preimages.values())
        leaves_v = any(not refs.contains(v, image) for image in images)
        assert collides or leaves_v, op.kind


def test_decision_reference_matches_library_on_the_grid():
    for index in range(refs.MAX_ALEPH_INDEX + 1):
        space = fd.SpaceDescriptor(fd.Cardinal.aleph(index))
        grid = fd.descriptor_grid(space, max_finite=4)
        plain = [plain_descriptor(d) for d in grid]
        assert len(grid) == refs.grid_len(index, 4, False)
        for c, pc in zip(grid, plain):
            for d, pd in zip(grid, plain):
                for t in fd.DesignType:
                    assert fd.decide(t, c, d, space).exists == refs.exists(int(t), pc, pd, index)


def plain_descriptor(d):
    def card(x):
        return ("aleph", x.value) if x.infinite else x.value
    return (card(d.size), d.contains_b, card(d.cosize))


def test_grid_size_formula():
    for a in range(refs.MAX_ALEPH_INDEX + 1):
        for m in (1, 2, 5, 12):
            for f in (False, True):
                space = fd.SpaceDescriptor(fd.Cardinal.aleph(a))
                assert len(fd.descriptor_grid(space, m, f)) == refs.grid_len(a, m, f)
