"""Tracing shims for the benchmark's traced run.

``Tracer.install()`` wraps the library's public functions and methods at
every binding the library calls them through (each ``fortdesign`` module
that imported the function, and the class for methods), and
``uninstall()`` puts the originals back.  The untraced run never calls
``install()``.  A target the library no longer has makes ``install()``
raise, so that no metric reads 0 only because its shim had nothing to wrap.

Every wrapped call is a span with a name, start, end, parent span and the
operation id the benchmark set.  Boundary calls (one sweep, one window
check, one homeomorphism check, ...) are kept one record each.  Hot inner
calls (cardinal ordering, point-map application, set operations, ...) run
hundreds of thousands of times per operation, so they are kept as one
rolled-up record per (name, parent span): call count, total and self time.
A span's self time is its duration minus the time its child spans cover.
Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name, kept one record per call)
FUNCTIONS = (
    ("fortdesign.descriptors", "validate", "descriptors.validate", False),
    ("fortdesign.descriptors", "subspace_homeomorphic", "descriptors.subspace_homeomorphic", False),
    ("fortdesign.descriptors", "pair_equivalent", "descriptors.pair_equivalent", False),
    ("fortdesign.descriptors", "embeddable", "descriptors.embeddable", False),
    ("fortdesign.descriptors", "complement", "descriptors.complement", False),
    ("fortdesign.descriptors", "size_minus_b", "descriptors.size_minus_b", False),
    ("fortdesign.descriptors", "cosize_minus_b", "descriptors.cosize_minus_b", False),
    ("fortdesign.descriptors", "descriptor_grid", "descriptors.descriptor_grid", True),
    ("fortdesign.designs", "decide", "designs.decide", False),
    ("fortdesign.designs", "decide_type1", "designs.decide_type1", False),
    ("fortdesign.designs", "decide_type2", "designs.decide_type2", False),
    ("fortdesign.designs", "decide_type3", "designs.decide_type3", False),
    ("fortdesign.designs", "decide_type4", "designs.decide_type4", False),
    ("fortdesign.designs", "crosscheck", "designs.crosscheck", False),
    ("fortdesign.designs", "witness_violations", "designs.witness_violations", False),
    ("fortdesign.designs", "sweep", "designs.sweep", True),
    ("fortdesign.concrete", "canonical_homeomorphism", "concrete.canonical_homeomorphism", False),
    ("fortdesign.concrete", "check_homeomorphism", "concrete.check_homeomorphism", True),
    ("fortdesign.concrete", "extract_descriptor", "concrete.extract_descriptor", False),
    ("fortdesign.concrete", "local_design_check", "concrete.local_design_check", True),
    ("fortdesign.concrete", "blocks_containing", "concrete.blocks_containing", True),
    # the window builder is private; it is the one place every enumerated
    # block passes through, so blocks_enumerated is counted there
    ("fortdesign.concrete", "_window_blocks", "concrete.window_blocks", False),
    ("fortdesign.finitebrute", "brute_lambda", "finitebrute.brute_lambda", True),
    ("fortdesign.cli", "main", "cli.main", True),
    ("fortdesign.cli", "parse_query", "cli.parse_query", False),
)

# (module, class, method, span name)
METHODS = (
    ("fortdesign.cardinal", "Cardinal", "__lt__", "cardinal.Cardinal.__lt__"),
    ("fortdesign.cardinal", "Cardinal", "parse", "cardinal.Cardinal.parse"),
    ("fortdesign.concrete", "PointMap", "apply", "concrete.PointMap.apply"),
    ("fortdesign.concrete", "ConcreteSet", "__contains__", "concrete.ConcreteSet.__contains__"),
    ("fortdesign.concrete", "ConcreteSet", "issubset", "concrete.ConcreteSet.issubset"),
    ("fortdesign.concrete", "ConcreteSet", "issuperset", "concrete.ConcreteSet.issuperset"),
    ("fortdesign.concrete", "ConcreteSet", "__and__", "concrete.ConcreteSet.__and__"),
    ("fortdesign.concrete", "ConcreteSet", "__or__", "concrete.ConcreteSet.__or__"),
    ("fortdesign.concrete", "ConcreteSet", "complement", "concrete.ConcreteSet.complement"),
    ("fortdesign.concrete", "ConcreteSet", "members", "concrete.ConcreteSet.members"),
    ("fortdesign.concrete", "OddTailBlock", "issuperset", "concrete.OddTailBlock.issuperset"),
)

BENCH_OP = "bench.op"


def _call(run, op):
    return run(op)


def _count_results(tracer, name, result):
    """Update the counters from a counted call's result; returns the result,
    or a stand-in that counts the blocks as they are drawn from it."""
    if name == "designs.sweep":
        tracer.counters["cases"] += result.cases
    elif name == "descriptors.descriptor_grid":
        tracer.counters["grid_size"] += len(result)
    elif name == "concrete.window_blocks":
        # a built window holds every block it enumerated; a streamed one
        # enumerates only what its caller draws
        if hasattr(result, "__len__"):
            tracer.counters["blocks_enumerated"] += len(result)
        else:
            return _drawn(tracer, result)
    elif name.endswith(".issuperset"):
        tracer.counters["containment_tests"] += 1
        tracer.counters["containment_hits"] += bool(result)
    elif name == "concrete.blocks_containing":
        tracer.counters["window_counts"] += 1
        tracer.counters["saturated_counts"] += result.saturated
    return result


def _drawn(tracer, blocks):
    for block in blocks:
        tracer.counters["blocks_enumerated"] += 1
        yield block


COUNTED = frozenset({
    "designs.sweep", "descriptors.descriptor_grid", "concrete.window_blocks",
    "concrete.ConcreteSet.issuperset", "concrete.OddTailBlock.issuperset",
    "concrete.blocks_containing",
})


class _CountingSet(set):
    """Stands in for ``set`` inside ``fortdesign.finitebrute`` while traced:
    ``brute_lambda`` builds one per probe and tests it against every block
    with ``<=``, so both are counted there, inside ``brute_lambda`` only."""

    tracer = None

    def __init__(self, *args):
        super().__init__(*args)
        if self.tracer.brute_depth:
            self.tracer.counters["probes_enumerated"] += 1

    def __le__(self, other):
        if self.tracer.brute_depth:
            self.tracer.counters["subset_tests"] += 1
        return super().__le__(other)


def _module(name: str):
    module = sys.modules.get(name)
    if module is None:
        raise LookupError(f"{name} is not imported")
    return module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []               # [name id, start, end, parent, op]
        self.rollups: dict = {}             # (name id, parent) -> [op, calls, total, self]
        self.totals: dict[str, list] = {}   # name -> [calls, total s, self s]
        self.counters: Counter = Counter()
        self.op = -1
        self.brute_depth = 0
        self._stack: list[list[float]] = []
        self._current = -1
        self._restore: list = []
        self.origin = perf_counter()
        self._op_shim = self.wrap(_call, BENCH_OP, True)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
        return self._ids[name]

    def wrap(self, fn, name: str, keep: bool):
        nid = self._id(name)
        totals = self.totals[name]
        counted = name in COUNTED
        brute = name == "finitebrute.brute_lambda"
        stack = self._stack
        rollups = self.rollups
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = tracer._current
            if keep:
                index = len(tracer.spans)
                tracer.spans.append(None)
                tracer._current = index
            if brute:
                tracer.brute_depth += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if brute:
                    tracer.brute_depth -= 1
                if keep:
                    tracer.spans[index] = [nid, start - tracer.origin, end - tracer.origin,
                                           parent, tracer.op]
                    tracer._current = parent
                else:
                    record = rollups.get((nid, parent))
                    if record is None:
                        rollups[(nid, parent)] = [tracer.op, 1, duration, own]
                    else:
                        record[1] += 1
                        record[2] += duration
                        record[3] += own
            if counted:
                result = _count_results(tracer, name, result)
            return result

        return shim

    def install(self) -> None:
        """Install every shim, or raise ``LookupError`` naming a target the
        library no longer has: a metric whose target is gone must not read 0."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fortdesign" or n.startswith("fortdesign."))]
        try:
            for module_name, attr, name, keep in FUNCTIONS:
                original = getattr(_module(module_name), attr, None)
                if original is None:
                    raise LookupError(f"{module_name}.{attr} is gone; update perfbench/tracing.py")
                shim = self.wrap(original, name, keep)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, shim)
                            self._restore.append((module, key, original))
            for module_name, cls_name, attr, name in METHODS:
                cls = getattr(_module(module_name), cls_name, None)
                original = inspect.getattr_static(cls, attr, None) if cls else None
                if original is None:
                    raise LookupError(f"{module_name}.{cls_name}.{attr} is gone; "
                                      "update perfbench/tracing.py")
                if isinstance(original, classmethod):
                    shim = classmethod(self.wrap(original.__func__, name, False))
                else:
                    shim = self.wrap(original, name, False)
                # an inherited method is shimmed on the class and deleted again
                self._restore.append((cls, attr, original if attr in vars(cls) else None))
                setattr(cls, attr, shim)
            brute = _module("fortdesign.finitebrute")
            if "set" in vars(brute):
                raise LookupError("fortdesign.finitebrute defines its own set; "
                                  "update perfbench/tracing.py")
            _CountingSet.tracer = self
            brute.set = _CountingSet
            self._restore.append((brute, "set", None))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        _CountingSet.tracer = None

    def run_op(self, run, op_id: int, op):
        """Run one benchmark operation under a root span that carries its id."""
        self.op = op_id
        return self._op_shim(run, op)

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, (0,))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def write(self, path, meta: dict) -> None:
        """Write every span and roll-up, times in seconds from the tracer's start."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                **meta,
                "names": self.names,
                "spans_fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans,
                "rollups_fields": ["name", "parent", "op", "calls", "total_s", "self_s"],
                "rollups": [[nid, parent, *rec] for (nid, parent), rec in self.rollups.items()],
                "counters": dict(self.counters),
            }, handle)
