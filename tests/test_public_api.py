"""The package's public names, and the benchmark's tracer over them.

The traced benchmark run wraps named functions and methods of the library
(``perfbench/tracing.py``) and refuses to start when one of them is gone, so
these tests catch a renamed or removed target without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import fortdesign
import fortdesign.cli  # noqa: F401  the tracer wraps cli.main
from fortdesign import designs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_state(tracing):
    """Every binding of every fortdesign module and of every traced class."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fortdesign"]
    classes = [getattr(sys.modules[m], c) for m, c, _, _ in tracing.METHODS]
    return [dict(vars(owner)) for owner in modules + classes]


def test_tracer_wraps_every_target_and_restores_the_library():
    tracing = load_tracing()
    decide = designs.decide
    before = library_state(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises LookupError naming a target that is gone
        assert designs.decide is not decide
    finally:
        tracer.uninstall()
    assert designs.decide is decide
    assert library_state(tracing) == before


def test_every_name_in_all_imports_from_the_package():
    assert len(set(fortdesign.__all__)) == len(fortdesign.__all__)
    for name in fortdesign.__all__:
        namespace = {}
        exec(f"from fortdesign import {name}", namespace)
        assert namespace[name] is getattr(fortdesign, name)
