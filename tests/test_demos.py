import hashlib
import re
import runpy
from pathlib import Path

import pytest

from fortdesign import designs

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the SHA-256 of each demo's stdout: a demo's output changes only with this table
STDOUT_SHA256 = {
    "concrete_oracle": "744c7960ec51f1dfffea49625be36d43fc861fca0cbe028e455ce1f8fae90651",
    "decide_walkthrough": "bef5ae20c92202143e9b9a393b3357c9f0d8068d35904416f568152d7f617f07",
    "finite_designs": "21da592e4962a99be9dc48902e6cebfc97e52cd83bee69c72e8291fcd09cc100",
}


def test_demos_are_found():
    assert [demo.stem for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_repeats(demo, capsys):
    outputs = []
    for _ in range(2):
        runpy.run_path(str(demo), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    assert outputs[0]
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == STDOUT_SHA256[demo.stem]


def test_readme_examples_print_their_comments(capsys):
    # the ```python blocks run in order in one namespace; each prints
    # exactly its full-line "# ..." comments
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        expected = [
            line.strip()[2:] for line in block.splitlines() if line.strip().startswith("# ")
        ]
        assert capsys.readouterr().out.splitlines() == expected


def test_the_walkthrough_validates_one_query_per_pair(monkeypatch, capsys):
    validated, validate = [], designs.validate
    monkeypatch.setattr(
        designs, "validate", lambda *args: validated.append(args) or validate(*args)
    )
    runpy.run_path(str(ROOT / "demos" / "decide_walkthrough.py"), run_name="__main__")
    assert capsys.readouterr().out.count("\n  space:") == 5
    assert len(validated) == 10  # five (C, D) pairs, C and D once each
