"""The statement ledger of ``tools/reach.py``, on a module small enough to
read line by line."""

import ast
import importlib.util
from pathlib import Path

REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

SOURCE = '''\
"""A module's docstring is no statement."""
import os


@staticmethod
def f(x):
    """Nor is a function's."""
    global y
    if x:
        return (
            1
        )
    return 2
'''


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_own_the_lines_no_nested_statement_spans():
    reach = load_reach()
    statements = list(reach._flat(reach._statements(ast.parse(SOURCE), "")))
    assert [(s.line, s.scope, sorted(s.own)) for s in statements] == [
        (2, "", [2]),
        (6, "f", [5, 6]),  # the decorator's line is the def's
        (9, "f", [9]),
        (10, "f", [10, 11, 12]),
        (13, "f", [13]),
    ]


def test_a_compound_statement_is_reached_through_its_body():
    reach = load_reach()
    _, f = reach._statements(ast.parse(SOURCE), "")
    branch = f.nested[0]
    assert reach._reached(branch, {11}) and reach._reached(f, {11})
    assert not reach._reached(branch, {13}) and reach._reached(f, {13})
    assert not reach._reached(f, {1, 7, 8})  # docstrings and global run nothing


def test_the_tracer_module_compiles():
    reach = load_reach()
    text = reach.SITECUSTOMIZE.format(package=repr("/src/fortdesign"), out=repr("/out"))
    compile(text, "sitecustomize.py", "exec")
