"""The library imports nothing outside the standard library and itself,
and a cold import of it loads neither `dataclasses` nor `inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fortdesign"


def imported_modules(path: Path):
    """(line, top-level module or None for a relative import) per import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.split(".")[0]


def test_every_import_is_relative_the_package_or_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in imported_modules(path)
        if module is not None
        and module != "fortdesign"
        and module not in sys.stdlib_module_names
    ]
    assert outside == []


def unused_imports(path: Path):
    """(line, name) per name a module imports and never reads; ``from
    __future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_every_module_uses_what_it_imports():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in unused_imports(path)
    ]
    assert unused == []


def test_no_module_imports_dataclasses():
    # a dataclass costs several times a NamedTuple to create, and importing
    # dataclasses pulls in inspect: the records are tuple-backed or slotted
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line, module in imported_modules(path)
        if module == "dataclasses"
    ]
    assert found == []


def loaded_modules(code: str) -> set[str]:
    """The names in sys.modules after ``code`` runs in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_importing_the_package_and_cli_loads_neither_dataclasses_nor_inspect():
    added = loaded_modules("import fortdesign, fortdesign.cli") - loaded_modules("pass")
    assert "fortdesign.cli" in added
    assert added & {"dataclasses", "inspect"} == set()
