"""fortdesign benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the panel is repeated in a fixed number of whole passes,
about ``--seconds`` seconds' worth on the reference machine, and the
end-to-end metrics are printed, timed from the fastest repeats of each
operation.  With ``--trace 1`` the panel runs once untraced and
once through the tracing shims, and the per-layer metrics are printed; the
spans go to ``perfbench/_work/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_OPS = 100
SETUP_PROBES = 21
PROCESS_PROBES = 7
# on a host slower than the reference machine, stop adding passes once the
# run has taken this many times --seconds
OVERRUN = 1.25


class FastestRepeats:
    """The k fastest latencies of each panel operation over the run's passes.

    The run repeats the panel, so every operation is timed several times.
    Other tenants of the machine slow some of those repeats by up to half
    again, and which repeats varies from run to run; the fastest k repeats of
    each operation are the least disturbed.  k is the smallest number that
    gives at least MIN_OPS latencies in all, so that ten lie beyond the 90th
    percentile.  The number of passes is fixed by ``--seconds`` and the
    workload, not by how fast the code runs, so that a faster build does not
    take its fastest repeats from more samples.  Memory stays fixed however
    many passes run.
    """

    def __init__(self, panel_size: int):
        self.k = -(-MIN_OPS // panel_size)
        self.best = [[float("inf")] * self.k for _ in range(panel_size)]

    def add_pass(self, latencies) -> None:
        for kept, value in zip(self.best, latencies):
            if value < kept[-1]:
                kept[-1] = value
                kept.sort()

    def sample(self) -> list[float]:
        return [value for kept in self.best for value in kept]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-sweep", "homeo-panel", "containment-count"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import fortdesign from this checkout's sources and nowhere else."""
    package = SRC / "fortdesign"
    if not (package / "__init__.py").is_file():
        raise RuntimeError(f"no fortdesign sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fortdesign
    if Path(fortdesign.__file__).resolve().parent != package.resolve():
        raise RuntimeError(f"imported fortdesign from {fortdesign.__file__}, not {package}")


class Tally:
    """Attempted and failed operations.  A failure is *known* when the
    operation is of a listed known-defect kind and its result is that
    defect's wrong answer; known failures count in ``failed`` like any other
    and are also tallied by kind.  Every other failure is unexpected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.unexpected: list[str] = []

    def record(self, op, reason, known: bool) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if known:
            self.known[op.kind] += 1
        else:
            self.unexpected.append(f"{op.kind}: {reason}")


def run_pass(workload, panel, run, tally, tracer=None):
    """One pass over the panel; returns the per-operation latencies and results.

    Only the library call is inside the timer; the check runs after it.
    """
    from workloads import OP_TIMEOUT_S

    latencies, results = [], []
    for index, op in enumerate(panel):
        start = time.perf_counter()
        try:
            result = tracer.run_op(run, index, op) if tracer else run(op)
            reason = None
        except Exception as exc:  # an operation that raises is a failed operation
            result, reason = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        results.append(result)
        if reason is None and elapsed > OP_TIMEOUT_S:
            reason = f"took {elapsed:.1f} s"
        known = False
        if reason is None:
            reason = workload.check(op, result)
            known = reason is not None and op.known_defect and workload.known_wrong(op, result)
        tally.record(op, reason, known)
    return latencies, results


def rate(latencies) -> float:
    return len(latencies) / sum(latencies)


def fresh_process_json(argv) -> dict:
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_of_processes(argv, key, count) -> float:
    return statistics.median(fresh_process_json(argv)[key] for _ in range(count))


def end_to_end(workload, panel, args, tally) -> tuple[dict, dict]:
    fastest = FastestRepeats(len(panel))
    passes = max(fastest.k, round(args.seconds / workload.pass_s))
    probe = [str(HERE / "setup_probe.py"), "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    # the set-up made so far is never collected again; each pass then starts
    # from empty collector counts, so every pass triggers the same
    # collections inside the same operations and their cost is in each
    # operation's fastest repeats
    gc.collect()
    gc.freeze()
    started = time.monotonic()
    done = 0
    while done < passes and time.monotonic() - started < OVERRUN * args.seconds:
        gc.collect()
        lat, _ = run_pass(workload, panel, workload.run, tally)
        fastest.add_pass(lat)
        done += 1
        # set-up probes spread evenly over the run, so that no slow stretch
        # of the host meets all of them
        while len(setups) * passes < SETUP_PROBES * done:
            setups.append(fresh_process_json(probe)["setup_s"])
    measured_s = time.monotonic() - started
    while len(setups) < SETUP_PROBES:
        setups.append(fresh_process_json(probe)["setup_s"])
    sample = fastest.sample()
    deciles = statistics.quantiles(sample, n=10)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate(sample), "1/s"),
        "op_p50_ms": (statistics.median(sample) * 1000.0, "ms"),
        "op_p90_ms": (deciles[8] * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"passes": done, "planned_passes": passes, "fastest_repeats_per_op": fastest.k,
                     "measured_s": round(measured_s, 3)}


DECIDERS = ("designs.decide", "designs.decide_type1", "designs.decide_type2",
            "designs.decide_type3", "designs.decide_type4")
CLASSIFIERS = ("descriptors.subspace_homeomorphic", "descriptors.pair_equivalent",
               "descriptors.embeddable", "descriptors.complement",
               "descriptors.size_minus_b", "descriptors.cosize_minus_b")
SETOPS = tuple(f"concrete.ConcreteSet.{m}" for m in
               ("__contains__", "issubset", "issuperset", "__and__", "__or__",
                "complement", "members"))


def per_layer(workload, panel, args, tally) -> tuple[dict, dict]:
    import tracing

    untraced, _ = run_pass(workload, panel, workload.run, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run_pass(workload, panel, workload.run, tally, tracer)
    finally:
        tracer.uninstall()
    check_counters(tracer)

    c, t = tracer.counters, tracer
    cases = c["cases"]

    def ratio(n, d):
        return n / d if d else 0.0

    validate_calls = t.calls("descriptors.validate")
    decide_calls = t.calls(*DECIDERS)
    apply_calls = t.calls("concrete.PointMap.apply")
    checks = t.calls("concrete.check_homeomorphism")
    m = {
        "cardinal.order_calls": (t.calls("cardinal.Cardinal.__lt__"), "count"),
        "cardinal.order_self_s": (t.self_s("cardinal.Cardinal.__lt__"), "s"),
        "cardinal.parse_calls": (t.calls("cardinal.Cardinal.parse"), "count"),
        "cardinal.parse_self_s": (t.self_s("cardinal.Cardinal.parse"), "s"),
        "descriptors.validate_calls": (validate_calls, "count"),
        "descriptors.validate_self_s": (t.self_s("descriptors.validate"), "s"),
        "descriptors.validate_per_case": (ratio(validate_calls, cases), "calls/case"),
        "descriptors.classifier_calls": (t.calls(*CLASSIFIERS), "count"),
        "descriptors.classifier_self_s": (t.self_s(*CLASSIFIERS), "s"),
        "descriptors.grid_build_s": (t.total_s("descriptors.descriptor_grid"), "s"),
        "descriptors.grid_size": (c["grid_size"], "count"),
        "designs.decide_calls": (decide_calls, "count"),
        "designs.decide_per_case": (ratio(decide_calls, cases), "calls/case"),
        "designs.decide_self_s": (t.self_s(*DECIDERS), "s"),
        "designs.crosscheck_self_s": (t.self_s("designs.crosscheck"), "s"),
        "designs.witness_check_self_s": (t.self_s("designs.witness_violations"), "s"),
        "designs.cases": (cases, "count"),
        "concrete.apply_calls": (apply_calls, "count"),
        "concrete.apply_per_check": (ratio(apply_calls, checks), "calls/check"),
        "concrete.apply_self_s": (t.self_s("concrete.PointMap.apply"), "s"),
        "concrete.check_homeomorphism_calls": (checks, "count"),
        "concrete.check_homeomorphism_self_s": (t.self_s("concrete.check_homeomorphism"), "s"),
        "concrete.setops_calls": (t.calls(*SETOPS), "count"),
        "concrete.setops_self_s": (t.self_s(*SETOPS), "s"),
        "concrete.blocks_enumerated": (c["blocks_enumerated"], "count"),
        "concrete.containment_tests": (c["containment_tests"], "count"),
        "concrete.containment_hit_ratio": (ratio(c["containment_hits"], c["containment_tests"]), "ratio"),
        "concrete.saturated_ratio": (ratio(c["saturated_counts"], c["window_counts"]), "ratio"),
        "concrete.blocks_containing_self_s": (t.self_s("concrete.blocks_containing"), "s"),
        "concrete.local_design_check_self_s": (t.self_s("concrete.local_design_check"), "s"),
        "finitebrute.brute_calls": (t.calls("finitebrute.brute_lambda"), "count"),
        "finitebrute.brute_self_s": (t.self_s("finitebrute.brute_lambda"), "s"),
        "finitebrute.probes_enumerated": (c["probes_enumerated"], "count"),
        "finitebrute.subset_tests": (c["subset_tests"], "count"),
        **cli_layer(args.seed, tally),
        "trace.overhead_ratio": (rate(traced) / rate(untraced), "ratio"),
    }
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_file, {"workload": args.workload, "seed": args.seed})
    return m, {"passes": 2, "trace_file": str(trace_file.relative_to(ROOT))}


def check_counters(tracer) -> None:
    """Raise if a layer did work that its counter did not see: the library
    changed under a counting shim, and the counter would read 0."""
    t, c = tracer, tracer.counters
    seen = {
        "blocks_enumerated": t.calls("concrete.local_design_check", "concrete.blocks_containing"),
        "containment_tests": t.calls("concrete.blocks_containing"),
        "probes_enumerated": t.calls("finitebrute.brute_lambda"),
        "subset_tests": t.calls("finitebrute.brute_lambda"),
    }
    for counter, calls in seen.items():
        if calls and not c[counter]:
            raise RuntimeError(f"{calls} calls but no {counter} counted; "
                               "update perfbench/tracing.py")


def cli_layer(seed: int, tally) -> dict:
    """Process start-up and in-process costs of the CLI, each a median.

    Every traced run measures them, on the seed's CLI panel run through
    in-process ``main()``, so the CLI layer is measured whichever workload
    is traced.  The panel's outputs are checked and counted in ``tally``.
    """
    import fortdesign.cli as fd_cli
    import workloads

    cli = workloads.CliBatch()
    workdir = WORK / f"cli-{seed}-{os.getpid()}"
    try:
        panel = cli.generate(seed, workdir)
        latencies, results = run_pass(cli, panel, cli.run, tally)
        texts = [Path(op.args["argv"][1]).read_text(encoding="utf-8")
                 for op in panel if op.kind.startswith("decide-")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bare = []
    for _ in range(PROCESS_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
        bare.append(time.perf_counter() - start)
    import_s = median_of_processes(
        ["-c", "import json, time; t = time.perf_counter(); import fortdesign.cli; "
               "print(json.dumps({'s': time.perf_counter() - t}))"],
        "s", PROCESS_PROBES)
    parse_us = []
    for text in texts:
        start = time.perf_counter()
        for _ in range(50):
            fd_cli.parse_query(text)
        parse_us.append((time.perf_counter() - start) / 50 * 1e6)
    codes = [r[0] for r in results if r is not None]
    return {
        "cli.interpreter_ms": (statistics.median(bare) * 1000.0, "ms"),
        "cli.import_ms": (import_s * 1000.0, "ms"),
        "cli.inprocess_main_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "cli.parse_query_us": (statistics.median(parse_us), "us"),
        "cli.exit2_ratio": (sum(1 for code in codes if code == 2) / len(codes), "ratio"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.get(args.workload)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        panel = workload.generate(args.seed, workdir)
        # one untimed warm-up operation of each kind: imports done, .pyc written
        warm = Tally()
        seen = set()
        for op in panel:
            if op.kind not in seen:
                seen.add(op.kind)
                run_pass(workload, [op], workload.run, warm)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics, run_meta = measure(workload, panel, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": len(panel), "operations": tally.attempted, **run_meta,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(),
    }
    print("# meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:>16.6g} {unit}")
    print(f"# failed_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}; known defects: "
          + (", ".join(f"{k} {n}" for k, n in sorted(tally.known.items())) or "none"))
    for line in tally.unexpected[:20]:
        print(f"# UNEXPECTED FAILURE {line}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
