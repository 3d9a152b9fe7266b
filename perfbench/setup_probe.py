"""Measure set-up in a fresh process: cold import of fortdesign, then input
generation for one workload and seed.  Prints one JSON line:
``{"import_s": ..., "setup_s": ...}``.  ``run.py`` starts it several times
and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload homeo-panel --seed 1
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import_start = perf_counter()
import fortdesign  # noqa: E402,F401
import fortdesign.cli  # noqa: E402,F401
import_end = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = workloads.get(args.workload)
    workdir = HERE / "_work" / f"setup-{os.getpid()}"
    try:
        generate_start = perf_counter()
        workload.generate(args.seed, workdir)
        generate_end = perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import_s = import_end - import_start
    print(json.dumps({"import_s": import_s,
                      "setup_s": import_s + (generate_end - generate_start)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
