"""The package's public names, and the benchmark's tracer over them.

The traced benchmark run wraps named functions and methods of the library
(``perfbench/tracing.py``) and refuses to start when one of them is gone, so
these tests catch a renamed or removed target without running the benchmark.
"""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import fortdesign
import fortdesign.cli  # noqa: F401  the tracer wraps cli.main
from fortdesign import cardinal, concrete, descriptors, designs, finitebrute

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
EXPORTING = (cardinal, concrete, descriptors, designs, finitebrute)


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


def top_level_names(module):
    """The names a module's source binds outside any function or class."""
    tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_the_package_exports_exactly_its_modules_lists():
    public = {
        name
        for name in dir(fortdesign)
        if not name.startswith("_")
        and not isinstance(getattr(fortdesign, name), types.ModuleType)
    }
    assert public == set(fortdesign.__all__)
    listed = [name for module in EXPORTING for name in module.__all__]
    assert sorted(listed) == sorted(fortdesign.__all__)
    assert len(set(listed)) == len(listed)  # no name in two modules' lists
    for module in EXPORTING:
        assert set(module.__all__) <= top_level_names(module), module.__name__
