"""Line-reach ledger of the fortdesign package: the statements that no run
reaches, and those that only the tier-1 tests reach.

Run it from the root of a checkout, with pytest and hypothesis installed:

    python tools/reach.py

It runs tier-1 (``pytest tests`` with a fixed Hypothesis seed, so the
ledger repeats) and the three demos, each traced, and prints per module how
many statements it has, how many no run reaches and how many only tier-1
reaches, then each of those statements with its enclosing scope.  It exits
1 when a run fails, when a statement that no run reaches lies in a scope
that ``UNREACHED`` does not list, or when a listed scope has no such
statement left; otherwise 0.

Tracing: each run is a subprocess whose ``PYTHONPATH`` starts with a
directory holding a ``sitecustomize`` module, so the processes it starts
(the CLI tests run ``python -m fortdesign``) are traced too, unless they set
their own ``PYTHONPATH``.  The module installs a ``sys.settrace`` hook that
records the lines run in ``src/fortdesign`` and writes them out at exit.
Tier-1 takes about four times as long traced.

Statements come from each module's ``ast``: a docstring is none, and
neither is ``global``, which compiles to no code.  A statement owns the
lines of its span, its decorators included, that no statement nested in it
spans.  It is reached when one of its own lines runs, or, for a compound
statement, when a statement nested in it is reached.  Line tracing cannot
tell apart two statements on one line, as in ``if x: return y``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fortdesign"
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests")
DEMOS = ("decide_walkthrough.py", "concrete_oracle.py", "finite_designs.py")

# "<module>:<scope>" of each scope whose statements no run reaches, with why
# it stays
UNREACHED = {
    "concrete.py:ConcreteSet.members": (
        "perfbench/tracing.py wraps it, and perfbench/run.py counts its calls "
        "among the set operations"
    ),
}

# installed first on a traced run's PYTHONPATH; {package} and {out} are
# filled in with repr() of the package's directory and the run's output one
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_PACKAGE = {package} + os.sep
_OUT = {out}
_lines = {{}}
_other = set()


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename in _other:
        return None
    lines = _lines.get(filename)
    if lines is None:
        if not filename.startswith(_PACKAGE):
            _other.add(filename)
            return None
        lines = _lines[filename] = set()
    add = lines.add

    def line(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return line

    return line


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(_OUT, f"{{os.getpid()}}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({{name: sorted(lines) for name, lines in _lines.items()}}, handle)


sys.settrace(_trace)
threading.settrace(_trace)
'''


class Statement(NamedTuple):
    line: int
    scope: str
    own: frozenset[int]
    nested: tuple["Statement", ...]


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _DOCUMENTED[1:]


def _span(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def _bodies(node: ast.AST) -> list[ast.stmt]:
    """Every statement nested directly in node, in its bodies, its except
    handlers and its match cases."""
    found = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                found += _bodies(child)
            else:
                found.append(child)
    return found


def _statements(node: ast.AST, scope: str) -> tuple[Statement, ...]:
    """The statements nested directly in node, a docstring and ``global`` or
    ``nonlocal`` declarations left out, each with its own nested ones."""
    children = _bodies(node)
    if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
        children = children[1:]
    found = []
    for child in children:
        if isinstance(child, (ast.Global, ast.Nonlocal)):
            continue
        inner = scope
        if isinstance(child, _SCOPES):
            inner = f"{scope}.{child.name}" if scope else child.name
        own = set(_span(child))
        for grandchild in _bodies(child):
            own -= set(_span(grandchild))
        found.append(Statement(child.lineno, inner, frozenset(own), _statements(child, inner)))
    return tuple(found)


def _reached(statement: Statement, lines: set[int]) -> bool:
    return bool(statement.own & lines) or any(_reached(s, lines) for s in statement.nested)


def _flat(statements: tuple[Statement, ...]):
    for statement in statements:
        yield statement
        yield from _flat(statement.nested)


def traced_run(argv: tuple[str, ...]) -> tuple[int, dict[str, set[int]]]:
    """The exit code of ``python argv`` run from the root, and the lines it
    and the processes it started ran in the package, by file name."""
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        Path(site, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=repr(str(PACKAGE)), out=repr(out)), encoding="utf-8"
        )
        path = [site, str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        # the run's own output goes to stderr, so stdout holds the ledger alone
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=sys.stderr)
        lines: dict[str, set[int]] = {}
        for dump in Path(out).glob("*.json"):
            for name, hit in json.loads(dump.read_text(encoding="utf-8")).items():
                lines.setdefault(name, set()).update(hit)
    return done.returncode, lines


def main() -> int:
    runs = {"tier-1": traced_run(TIER1)}
    for demo in DEMOS:
        runs[demo] = traced_run((str(Path("demos", demo)),))
    failed = [name for name, (code, _) in runs.items() if code != 0]
    unreached, tier1_only = [], []
    print(f"{'module':<16}{'statements':>12}{'unreached':>12}{'tier-1 only':>12}")
    totals = [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        hits = {name: lines.get(str(path), set()) for name, (_, lines) in runs.items()}
        counts = [0, 0, 0]
        for statement in _flat(_statements(tree, "")):
            counts[0] += 1
            where = (path.name, statement)
            if any(_reached(statement, hits[demo]) for demo in DEMOS):
                continue
            if _reached(statement, hits["tier-1"]):
                tier1_only.append(where)
                counts[2] += 1
            else:
                unreached.append(where)
                counts[1] += 1
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>12}{counts[1]:>12}{counts[2]:>12}")
    print(f"{'total':<16}{totals[0]:>12}{totals[1]:>12}{totals[2]:>12}")
    for title, found in (("reached by no run", unreached), ("reached only by tier-1", tier1_only)):
        print(f"\n{title}:")
        for name, statement in found:
            print(f"  {f'{name}:{statement.line}':<20}{statement.scope or '<module>'}")
    scopes = {f"{name}:{statement.scope}" for name, statement in unreached}
    unlisted = sorted(scopes - set(UNREACHED))
    stale = sorted(set(UNREACHED) - scopes)
    for title, names in (("failed runs", failed), ("unreached and not listed", unlisted),
                         ("listed but reached", stale)):
        if names:
            print(f"\n{title}: {', '.join(names)}")
    return 1 if failed or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
