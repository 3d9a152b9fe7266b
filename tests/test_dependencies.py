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


def top_level_definitions(tree: ast.Module | ast.ClassDef):
    """(line, name) per function, class or assigned name at the top level of
    a module's or a class's body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield node.lineno, name


def package_trees(root: Path = SRC) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(root.glob("*.py"))}


def names_read(trees) -> set[str]:
    """Every name or attribute that some module of the package loads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_private_name_is_read_in_the_package():
    # a private helper that nothing in the package reads is reached only by
    # tests, or not at all
    trees = package_trees()
    read = names_read(trees)
    defined = [
        (path, line, name)
        for path, tree in trees.items()
        for line, name in top_level_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert len(defined) > 50
    assert [f"{path}:{line}: {name}" for path, line, name in defined if name not in read] == []


def listed_names(tree: ast.Module) -> list[str] | None:
    """The names a module's literal ``__all__`` lists, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_unlisted_public_name_is_read_in_the_package():
    # a public name that a module keeps out of its __all__ is not offered to
    # users, so like a private one it must have a reader in the package
    trees = package_trees()
    read = names_read(trees)
    unlisted = [
        (path, line, name)
        for path, tree in trees.items()
        if (listed := listed_names(tree)) is not None
        for line, name in top_level_definitions(tree)
        if not name.startswith("_") and name not in listed
    ]
    assert len(unlisted) > 20
    assert [f"{path}:{line}: {name}" for path, line, name in unlisted if name not in read] == []


def is_design_type_member(node: ast.expr) -> bool:
    """Whether node reads an attribute of ``DesignType``, as ``DesignType.TYPE1``
    or ``designs.DesignType.TYPE1`` does."""
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "DesignType") or (
        isinstance(owner, ast.Attribute) and owner.attr == "DesignType"
    )


def design_type_collection_tests(tree: ast.Module):
    """The line of each comparison of a value with a tuple, list or set
    literal that holds a ``DesignType`` member."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(side, (ast.Tuple, ast.List, ast.Set))
            and any(map(is_design_type_member, side.elts))
            for side in (node.left, *node.comparators)
        ):
            yield node.lineno


def test_only_designs_says_which_types_take_which_condition():
    # DesignType.condition_ii and condition_iv hold the one type-to-condition
    # table: a test of a type against a collection of types elsewhere
    # restates part of it
    trees = package_trees()
    assert list(design_type_collection_tests(trees["designs.py"]))
    assert [
        f"{path}:{line}"
        for path, tree in trees.items()
        if path != "designs.py"
        for line in design_type_collection_tests(tree)
    ] == []


DESCRIPTOR_FIELDS = {"size", "contains_b", "cosize"}


def descriptor_field_type_tests(tree: ast.Module):
    """The line of each ``type``, ``isinstance`` or ``_exactly`` call with
    an argument that reads a descriptor's field, as ``type(s.size)`` does."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"type", "isinstance", "_exactly"}
            and any(isinstance(arg, ast.Attribute) and arg.attr in DESCRIPTOR_FIELDS
                    for arg in node.args)
        ):
            yield node.lineno


def test_only_a_descriptor_types_its_own_fields():
    # SubsetDescriptor's constructor refuses a field of the wrong type: a
    # reader that tests one restates that rule, and a reader that does not
    # would have to
    assert [
        f"{path}:{line}"
        for path, tree in package_trees().items()
        for line in descriptor_field_type_tests(tree)
    ] == []


DEMOS = SRC.parents[1] / "demos"

# public methods that no module of the package or demo reads, each with why
# it stays
UNREAD_PUBLIC_METHODS = {
    # perfbench/tracing.py wraps it, and perfbench/run.py counts its calls
    # among the set operations
    "ConcreteSet.members",
}


def public_methods(tree: ast.Module):
    """(line, "Class.name") per public, non-dunder method or property that
    a module-level class defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.lineno, f"{node.name}.{item.name}"


def test_every_public_method_is_read_in_the_package_or_a_demo():
    # a method that only tests read is an API kept for its tests alone
    trees = package_trees()
    demos = package_trees(DEMOS)
    assert demos
    read = names_read(trees) | names_read(demos)
    defined = [
        (path, line, name)
        for path, tree in trees.items()
        for line, name in public_methods(tree)
    ]
    assert len(defined) > 30
    assert {name for _, _, name in defined} >= UNREAD_PUBLIC_METHODS
    unread = [
        f"{path}:{line}: {name}"
        for path, line, name in defined
        if name.split(".")[1] not in read and name not in UNREAD_PUBLIC_METHODS
    ]
    assert unread == []
    # a listed method that gains a reader leaves the list
    assert [name for name in UNREAD_PUBLIC_METHODS if name.split(".")[1] in read] == []


def named_tuple_classes(tree: ast.Module):
    """Each module-level class whose bases include ``NamedTuple``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
        ):
            yield node


def named_tuple_fields(tree: ast.Module):
    """(declaration, "Class.field") per field that a module-level class
    declares in a body whose bases include ``NamedTuple``."""
    for node in named_tuple_classes(tree):
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item, f"{node.name}.{item.target.id}"


def test_every_named_tuple_field_is_read_as_an_attribute_in_the_package():
    # a field that no line reads by name only labels a position: a record
    # unpacked by position alone is a plain tuple
    trees = package_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (path, field.lineno, name)
        for path, tree in trees.items()
        for field, name in named_tuple_fields(tree)
    ]
    assert len(fields) > 40
    assert [
        f"{path}:{line}: {name}"
        for path, line, name in fields
        if name.split(".")[1] not in read
    ] == []


def test_no_fields_class_restates_the_defaults_of_its_records_new():
    # a record that validates in __new__ takes its arguments, and their
    # defaults, there: a default on the fields class it subclasses is never
    # read.  A NamedTuple with no __new__ of its own keeps its defaults.
    trees = package_trees()
    validated = {
        base.id
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__new__"
                for item in node.body)
        for base in node.bases
        if isinstance(base, ast.Name)
    }
    assert {"_CardinalFields", "_PointMapFields", "_SubsetFields", "_VerdictFields"} <= validated
    assert [
        f"{path}:{field.lineno}: {name}"
        for path, tree in trees.items()
        for field, name in named_tuple_fields(tree)
        if field.value is not None and name.split(".")[0] in validated
    ] == []


def validated_record_faults(tree: ast.Module, fields_classes: set[str]):
    """(line, name) per module-level class that defines ``__new__`` over a
    NamedTuple fields class without ``_Validated`` as its first base, or
    that binds ``_make`` in its body, ``_Validated`` itself aside."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bound = {name for _, name in top_level_definitions(node)}
        bases = [base.id if isinstance(base, ast.Name) else None for base in node.bases]
        new_over_fields = "__new__" in bound and fields_classes & set(bases)
        if (new_over_fields and bases[0] != "_Validated") or (
            "_make" in bound and node.name != "_Validated"
        ):
            yield node.lineno, node.name


def test_every_validated_record_takes_its_make_from_one_base():
    # NamedTuple's _make, which _replace calls, builds the tuple unchecked.
    # _Validated's _make goes through __new__, and a record inherits it only
    # with _Validated as its first base; a _make bound in a class restates it
    trees = package_trees()
    fields_classes = {node.name for tree in trees.values() for node in named_tuple_classes(tree)}
    assert len(fields_classes) > 15
    assert [
        f"{path}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in validated_record_faults(tree, fields_classes)
    ] == []


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
