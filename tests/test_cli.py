import contextlib
import importlib
import io
import itertools
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fortdesign import cli, designs
from fortdesign.cli import main, parse_query, QueryError
from fortdesign.cardinal import ALEPH0, Cardinal
from fortdesign.descriptors import SpaceDescriptor, SubsetDescriptor, descriptor_grid
from fortdesign.designs import DesignType, Singleton
from fortdesign.finitebrute import brute_lambda, parse_instance

QUERY_C1_CASE2 = """\
space.size: aleph0
type: 1
C.size: 2
C.contains_b: true
D.size: aleph0
D.contains_b: true
D.cosize: aleph0
"""

QUERY_EMBED_FAIL = """\
space.size: aleph0
type: 2
C.size: aleph0
C.contains_b: true
C.cosize: aleph0
D.size: aleph0
D.contains_b: false
D.cosize: aleph0
"""

# type 3 exists here (case t3), with witness W(D)
QUERY_T3_COFINITE_D = """\
space.size: aleph0
type: 3
C.size: 2
C.contains_b: false
D.size: aleph0
D.contains_b: false
D.cosize: 1
"""

# type 2 between two finite sets without b
QUERY_T2_FINITE_C_AND_D = """\
space.size: aleph0
type: 2
C.size: 1
C.contains_b: false
D.size: 2
D.contains_b: false
"""

# neither size nor cosize of C is card(X)
# on aleph5 < aleph9 < aleph17, and a type-1 query whose lambda is card(X)
QUERY_TALL_LADDER = """\
space.size: aleph17
type: 2
C.size: aleph5
C.contains_b: true
C.cosize: aleph17
D.size: aleph17
D.contains_b: true
D.cosize: aleph9
"""

QUERY_TALL_FINITE = """\
space.size: aleph17
type: 1
C.size: 1
C.contains_b: true
D.size: 3
D.contains_b: true
"""

QUERY_C_INVALID = QUERY_C1_CASE2.replace("C.size: 2", "C.size: 2\nC.cosize: 5")

# the same for D too
QUERY_C_AND_D_INVALID = """\
space.size: aleph0
type: 1
C.size: 2
C.contains_b: true
C.cosize: 5
D.size: 4
D.contains_b: true
D.cosize: 3
"""

QUERY_MISSING_COSIZE = """\
space.size: aleph0
type: 1
C.size: 2
C.contains_b: true
D.size: aleph0
D.contains_b: true
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def all_3_subsets_of_7() -> str:
    lines = ["7, 2, 3"]
    lines += [",".join(map(str, c)) for c in itertools.combinations(range(7), 3)]
    return "\n".join(lines) + "\n"


class TestParseQuery:
    def test_basic(self):
        q = parse_query(QUERY_C1_CASE2)
        assert q.design_type == DesignType.TYPE1
        assert q.c.size == Cardinal.finite(2) and q.c.contains_b
        assert q.c.cosize == ALEPH0  # forced when size < card(X)
        assert q.d.cosize == ALEPH0

    def test_b_alias_and_comments(self):
        text = "# query\nspace.size: aleph0\ntype: 3\nC.size: 1\nC.b: true\n" \
               "D.size: 4\nD.b: true\n"
        q = parse_query(text)
        assert q.design_type == DesignType.TYPE3 and q.c.contains_b

    def test_errors_carry_context(self):
        with pytest.raises(QueryError, match="D.cosize is required"):
            parse_query(QUERY_MISSING_COSIZE)
        with pytest.raises(QueryError, match="line 2"):
            parse_query("space.size: aleph0\nnonsense\n")
        with pytest.raises(QueryError, match="unknown field"):
            parse_query(QUERY_C1_CASE2 + "D.siz: 3\n")
        with pytest.raises(QueryError, match="type"):
            parse_query(QUERY_C1_CASE2.replace("type: 1", "type: 9"))
        with pytest.raises(QueryError, match="duplicate"):
            parse_query(QUERY_C1_CASE2 + "type: 2\n")
        with pytest.raises(QueryError, match="space.size"):
            parse_query(QUERY_C1_CASE2.replace("space.size: aleph0", "space.size: 9"))


class TestDecideCommand:
    def test_exists_record(self, write, capsys):
        path = write("q.txt", QUERY_C1_CASE2)
        assert main(["decide", path]) == 0
        out = capsys.readouterr().out
        assert out == (
            "exists: true\nlambda: aleph0\nwitness: odd-tail\ncase_tag: c1-case2\n"
        )

    def test_not_exists_record(self, write, capsys):
        path = write("q.txt", QUERY_EMBED_FAIL)
        assert main(["decide", path]) == 1
        out = capsys.readouterr().out
        assert "exists: false" in out and "case_tag: b" in out
        assert "embedded" in out  # the reason cites the embedding failure

    @pytest.mark.parametrize("query, t", [
        *((QUERY_TALL_LADDER, t) for t in "1234"), (QUERY_TALL_FINITE, "1"),
    ], ids=["type1", "type2", "type3", "type4", "finite-type1"])
    def test_a_tall_ladder_answers_as_its_compressed_query(self, write, query, t):
        # the distinct nonzero aleph indices map, in order, onto 1, 2, 3
        tall = re.sub(r"type: \d", f"type: {t}", query)
        indices = sorted({int(i) for i in re.findall(r"aleph(\d+)", tall)} - {0})
        down = {str(i): str(low) for low, i in enumerate(indices, 1)}
        small = re.sub(r"aleph(\d+)", lambda m: "aleph" + down[m[1]], tall)
        assert "aleph17" not in small
        up = {low: i for i, low in down.items()}
        code, out, err = run_main(["decide", write("tall.txt", tall)])
        small_code, small_out, _ = run_main(["decide", write("small.txt", small)])
        assert "aleph17" in out and err == ""
        assert (code, out) == (
            small_code, re.sub(r"aleph([1-3])\b", lambda m: "aleph" + up[m[1]], small_out)
        )

    def test_missing_cosize_is_an_input_error(self, write, capsys):
        path = write("q.txt", QUERY_MISSING_COSIZE)
        assert main(["decide", path]) == 2
        err = capsys.readouterr().err
        assert "D.cosize" in err

    def test_invalid_descriptor_is_an_input_error(self, write, capsys):
        path = write("q.txt", QUERY_C_INVALID)
        assert main(["decide", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: C: max(size, cosize) must equal")

    @pytest.mark.parametrize("command", ["decide", "verify"])
    def test_invalid_c_and_d_are_both_named(self, command, write, capsys):
        path = write("q.txt", QUERY_C_AND_D_INVALID)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: C: max(size, cosize) must equal")
        assert "; D: max(size, cosize) must equal" in captured.err

    def test_conflicting_b_fields_are_an_input_error(self, write, capsys):
        path = write("q.txt", QUERY_C1_CASE2 + "C.b: false\n")
        assert main(["decide", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "C.contains_b" in captured.err and "C.b" in captured.err

    def test_text_format(self, write, capsys):
        path = write("q.txt", QUERY_C1_CASE2)
        assert main(["decide", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "type-1 design exists: lambda = aleph0, witness = odd-tail "
            "[case c1-case2]\n"
        )

    def test_not_exists_text_format(self, write, capsys):
        path = write("q.txt", QUERY_EMBED_FAIL)
        assert main(["decide", path, "--format", "text"]) == 1
        assert capsys.readouterr().out == (
            "no type-2 design: C is infinite and contains b while D does not: "
            "C cannot be embedded into D [case b]\n"
        )

    def test_missing_file(self, capsys):
        assert main(["decide", "/nonexistent/q.txt"]) == 2


class TestVerifyCommand:
    def test_odd_tail_probes(self, write, capsys):
        path = write("q.txt", QUERY_C1_CASE2)
        code = main(["verify", path, "fin:0,2", "fin:0,8", "--cutoff", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "probe: fin:0,2 count: AtLeast(50)" in out
        assert "probe: fin:0,8 count: AtLeast(50)" in out
        assert "consistent: true" in out

    def test_refutation_demo(self, capsys):
        code = main(["verify", "--refutation-demo", "--cutoff", "50"])
        out = capsys.readouterr().out
        assert code == 1
        assert "probe: fin:0,5 count: AtLeast(50)" in out
        assert "probe: fin:5,6 count: Exactly(1)" in out
        assert "refutation: fin:5,6 Exactly(1) vs fin:0,5 AtLeast(50)" in out

    def test_refutation_demo_at_cutoff_one(self, capsys):
        # the window lower bound 1 does not exceed fin:5,6's exact count 1,
        # but fin:0,5 lies in infinitely many blocks of the family
        code = main(["verify", "--refutation-demo", "--cutoff", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "refutation: fin:5,6 Exactly(1) vs fin:0,5 AtLeast(1)\n" in out
        assert out.endswith("consistent: false\n")

    def test_consistent_text_format(self, write, capsys):
        path = write("q.txt", QUERY_C1_CASE2)
        argv = ["verify", path, "fin:1,2", "fin:0,2", "--cutoff", "5", "--format", "text"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "checked 5 blocks of odd-tail: 0 shape failure(s)\n"
            "  fin:1,2 lies in AtLeast(5) blocks\n"
            "  fin:0,2 lies in AtLeast(5) blocks\n"
            "no refutation found: every probe has the same family-wide count\n"
        )

    def test_refuted_text_format(self, capsys):
        argv = ["verify", "--refutation-demo", "--cutoff", "50", "--format", "text"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "checked 1326 blocks of W(size=3,b=true,cosize=aleph0): 0 shape failure(s)\n"
            "  fin:0,5 lies in AtLeast(50) blocks\n"
            "  fin:5,6 lies in Exactly(1) blocks\n"
            "refuted: fin:5,6 (Exactly(1)) vs fin:0,5 (AtLeast(50))\n"
        )

    def test_refutation_demo_takes_no_query_or_probes(self, write):
        # each was once dropped: the canned demo printed, and verify exited 1
        path = write("q.txt", QUERY_C1_CASE2)
        for given in (["no-such-query.txt"], [path, "fin:0,2"]):
            assert run_main(["verify", *given, "--refutation-demo"]) == (
                2, "", "error: --refutation-demo takes no query file or probes\n"
            )

    @pytest.mark.parametrize("fmt", ["record", "text"])
    def test_a_query_without_a_probe_is_an_input_error(self, fmt, write):
        # once printed consistent: true and exited 0, having probed nothing
        path = write("q.txt", "space.size: aleph0\ntype: 1\nC.size: 2\nC.b: true\n"
                     "D.size: 4\nD.b: true\n")
        assert run_main(["verify", path, "--format", fmt]) == (
            2, "", "error: a query needs at least one probe, as fin:... or cofin:...\n"
        )

    def test_probe_shape_mismatch_is_an_input_error(self, write, capsys):
        path = write("q.txt", QUERY_C1_CASE2)
        assert main(["verify", path, "fin:1,2,3"]) == 2
        assert "not shaped like C" in capsys.readouterr().err

    def test_non_canonical_probe_is_an_input_error(self, write, capsys):
        # once read as fin:0,2, which the odd-tail family covers
        path = write("q.txt", QUERY_C1_CASE2)
        assert main(["verify", path, "fin:0,\u0662"]) == 2
        assert "malformed concrete set" in capsys.readouterr().err

    def test_repeated_probe_point_is_an_input_error(self, write):
        # once read as fin:0,4, which is shaped like C
        path = write("q.txt", QUERY_C1_CASE2)
        assert run_main(["verify", path, "fin:0,4,4"]) == (
            2, "", "error: malformed concrete set 'fin:0,4,4'\n"
        )

    def test_probe_complement_not_shaped_like_x_minus_c(self, write, capsys):
        # fin:0,5 is shaped like C, but its complement lacks b while X \ C
        # holds it; counted, it would refute this true t3 verdict
        path = write("q.txt", QUERY_T3_COFINITE_D)
        assert main(["verify", path, "fin:0,5", "fin:5,6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: probe complement(s) not shaped like X \\ C: fin:0,5\n"
        assert main(["verify", path, "fin:7,9", "fin:5,6"]) == 0
        assert "consistent: true" in capsys.readouterr().out
        # type 1 does not constrain the probe's complement
        path = write("q1.txt", QUERY_C1_CASE2)
        assert main(["verify", path, "fin:1,2", "fin:0,2", "--cutoff", "5"]) == 0
        assert capsys.readouterr().out == (
            "family: odd-tail\n"
            "blocks_checked: 5\n"
            "block_failures: 0\n"
            "probe: fin:1,2 count: AtLeast(5)\n"
            "probe: fin:0,2 count: AtLeast(5)\n"
            "refutation: none\n"
            "consistent: true\n"
        )

    def test_shape_and_complement_failures_are_named_apart(self, write, capsys):
        path = write("q.txt", QUERY_T3_COFINITE_D)
        assert main(["verify", path, "fin:0,5", "fin:1,2,3", "fin:5,6"]) == 2
        assert capsys.readouterr().err == (
            "error: probe(s) not shaped like C: fin:1,2,3; "
            "probe complement(s) not shaped like X \\ C: fin:0,5\n"
        )

    def test_a_witness_block_not_shaped_like_d_is_listed(self, monkeypatch, write, capsys):
        # no decided witness has a block of the wrong shape, so a wrong one
        # is patched in: its one block has three points where D has two
        d3 = SubsetDescriptor(Cardinal.finite(3), False, ALEPH0)
        decide = cli.decide
        monkeypatch.setattr(
            cli, "decide", lambda *args: decide(*args)._replace(witness=Singleton(d3))
        )
        path = write("q.txt", QUERY_T2_FINITE_C_AND_D)
        assert main(["verify", path, "fin:5", "--format", "record"]) == 1
        out = capsys.readouterr().out
        assert "block_failures: 1\nblock_failure: fin:1,2,3: not shaped like D\n" in out
        assert out.endswith("consistent: false\n")

    def test_not_exists_leaves_nothing_to_verify(self, write, capsys):
        path = write("q.txt", QUERY_EMBED_FAIL)
        assert main(["verify", path, "cofin:1"]) == 2
        assert "NotExists" in capsys.readouterr().err

    def test_non_enumerable_witness(self, write, capsys):
        # type 3 over a doubly-infinite D yields the symbolic class W
        text = QUERY_C1_CASE2.replace("type: 1", "type: 3")
        path = write("q.txt", text)
        assert main(["verify", path, "fin:0,2"]) == 2
        assert "no finite or cofinite realization" in capsys.readouterr().err

    def test_query_required_without_demo(self, capsys):
        assert main(["verify"]) == 2


# (query, probes, exit code, stdout) at cutoff 10^6, for a finite, a one-block
# and a cofinite window of W(D), and None for the refutation demo
HUGE_CUTOFF_RUNS = [
    (
        "type: 3\nC.size: 1\nC.contains_b: false\nD.size: 3\nD.contains_b: false\n",
        ["fin:1", "fin:2"],
        0,
        "family: W(size=3,b=false,cosize=aleph0)\nblocks_checked: 166667166667000000\n"
        "block_failures: 0\nprobe: fin:1 count: AtLeast(1000000)\n"
        "probe: fin:2 count: AtLeast(1000000)\nrefutation: none\nconsistent: true\n",
    ),
    (
        "type: 3\nC.size: 1\nC.contains_b: true\nD.size: 1\nD.contains_b: true\n",
        ["fin:0"],
        0,
        "family: W(size=1,b=true,cosize=aleph0)\nblocks_checked: 1\n"
        "block_failures: 0\nprobe: fin:0 count: Exactly(1)\n"
        "refutation: none\nconsistent: true\n",
    ),
    (
        "type: 1\nC.size: 1\nC.contains_b: true\n"
        "D.size: aleph0\nD.contains_b: true\nD.cosize: 2\n",
        ["fin:0"],
        0,
        "family: W(size=aleph0,b=true,cosize=2)\nblocks_checked: 500001500001\n"
        "block_failures: 0\nprobe: fin:0 count: AtLeast(1000000)\n"
        "refutation: none\nconsistent: true\n",
    ),
    (
        None,
        [],
        1,
        "family: W(size=3,b=true,cosize=aleph0)\nblocks_checked: 500001500001\n"
        "block_failures: 0\nprobe: fin:0,5 count: AtLeast(1000000)\n"
        "probe: fin:5,6 count: Exactly(1)\n"
        "refutation: fin:5,6 Exactly(1) vs fin:0,5 AtLeast(1000000)\n"
        "consistent: false\n",
    ),
]


@pytest.mark.parametrize(
    "query, probes, code, out",
    HUGE_CUTOFF_RUNS,
    ids=["finite", "one-block", "cofinite", "refutation-demo"],
)
def test_verify_memory_does_not_grow_with_the_cutoff(query, probes, code, out, write, capsys):
    # the shape check once copied the whole prefix [1, cutoff + 2] into a
    # tuple, 40 MB per 10^6 of cutoff, even for a window of one block
    if query is None:
        argv = ["verify", "--refutation-demo"]
    else:
        argv = ["verify", write("q.txt", "space.size: aleph0\n" + query), *probes]
    tracemalloc.start()
    try:
        assert main([*argv, "--cutoff", "1000000"]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("fmt", ["record", "text"])
def test_verify_writes_nothing_before_it_fails(fmt, write):
    # blocks_checked, C(20002, 9999), has about 6,000 digits, more than str()
    # of an int may write; the family line once went out before the error
    path = write("q.txt", "space.size: aleph0\ntype: 1\nC.size: 2\nC.b: true\n"
                          "D.size: 10000\nD.b: true\n")
    code, out, err = run_main(["verify", path, "fin:0,1", "--cutoff", "20000", "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestCrosscheckCommand:
    def test_default_grid(self, capsys):
        assert main(["crosscheck"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("violations / 1690 cases\n")
        assert out.startswith("0 violations")

    def test_finite_sizes_only(self, capsys):
        assert main(["crosscheck", "--finite-sizes-only"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_fault_injection_fails(self, capsys):
        assert main(["crosscheck", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "violation:" in out

    def test_bad_bounds(self, monkeypatch):
        # any aleph index is a space: a tall ladder within the budget runs
        assert run_main(["crosscheck", "--grid-max-aleph", "9"]) == (
            0, "0 violations / 21570 cases\n", ""
        )
        # sweep refuses each before it builds a space or runs a case
        monkeypatch.setattr(designs, "SpaceDescriptor", None)
        monkeypatch.setattr(designs, "_obstruction", None)
        for argv, message in [
            (["--grid-max-aleph", "1000000000000"],
             "a sweep of 5333333333449333333334173000000000729 cases exceeds the budget "
             "of 100000 cases"),
            (["--max-finite", "0"], "max_finite must be >= 1, got 0"),
        ]:
            assert run_main(["crosscheck", *argv]) == (2, "", f"error: {message}\n")

    def test_over_budget_is_refused_before_any_case(self, monkeypatch, capsys):
        monkeypatch.setattr(designs, "_obstruction", None)  # any case would fail
        assert main(["crosscheck", "--max-finite", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a sweep of 320008000058 cases exceeds the budget of 100000 cases\n"
        )


# Integer options read only canonical ASCII naturals; the first argv once
# ran the sweep with max_finite = 2, max_aleph = 0 and exited 0.
NON_CANONICAL_OPTIONS = [
    ["crosscheck", "--max-finite", "\u0662", "--grid-max-aleph", "\u0660"],
    ["crosscheck", "--max-finite", "07"],
    ["crosscheck", "--grid-max-aleph", "+0"],
    ["verify", "--refutation-demo", "--cutoff", "5_0"],
    ["verify", "--refutation-demo", "--cutoff", "\u0665\u0660"],
    ["brute", "{instance}", "--t", "\u0661"],
    ["brute", "{instance}", "--design-type", "\u0662"],
]


@pytest.mark.parametrize("argv", NON_CANONICAL_OPTIONS)
def test_non_canonical_integer_options_exit_2(argv, write, capsys):
    path = write("inst.txt", all_3_subsets_of_7())
    with pytest.raises(SystemExit) as caught:
        main([arg.format(instance=path) for arg in argv])
    assert caught.value.code == 2
    assert "invalid parse_natural value" in capsys.readouterr().err


class TestBruteCommand:
    def test_all_k_subsets(self, write, capsys):
        path = write("inst.txt", all_3_subsets_of_7())
        assert main(["brute", path]) == 0
        assert capsys.readouterr().out == "Exactly(5)\n"

    def test_matching(self, write, capsys):
        path = write("inst.txt", "4, 1, 2\n0,1\n2,3\n")
        assert main(["brute", path]) == 0
        assert capsys.readouterr().out == "Exactly(1)\n"

    def test_unbalanced_family(self, write, capsys):
        lines = [
            ",".join(map(str, c))
            for c in itertools.combinations(range(7), 3)
            if set(c) != {0, 1, 2}
        ]
        path = write("inst.txt", "7, 2, 3\n" + "\n".join(lines) + "\n")
        assert main(["brute", path]) == 1
        out = capsys.readouterr().out
        assert out == "NonUniform({0,1} in 4 blocks, {0,3} in 5 blocks)\n"

    def test_t_override(self, write, capsys):
        path = write("inst.txt", all_3_subsets_of_7())
        assert main(["brute", path, "--t", "1"]) == 0
        assert capsys.readouterr().out == "Exactly(15)\n"

    @pytest.mark.parametrize("t", ["0", "4"])
    def test_t_out_of_range(self, t, write, capsys):
        path = write("inst.txt", all_3_subsets_of_7())
        assert main(["brute", path, "--t", t]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", "error: sizes must satisfy 1 <= c_size <= d_size <= n\n"
        )

    def test_malformed_file(self, write, capsys):
        path = write("inst.txt", "7, 2\n0,1\n")
        assert main(["brute", path]) == 2
        text = all_3_subsets_of_7().replace("7, 2, 3", "\u0667, 2, 3")
        path = write("inst.txt", text)
        assert main(["brute", path]) == 2
        assert "malformed header" in capsys.readouterr().err

    def test_repeated_block_point_is_an_input_error(self, write):
        # the block was once read as {0,1}, and brute exited 0
        path = write("inst.txt", "4, 1, 2\n0,0,1\n")
        assert run_main(["brute", path]) == (
            2, "", "error: line 2: malformed block '0,0,1'\n"
        )

    def test_no_blocks_is_no_design(self, write, capsys):
        # every probe lies in 0 blocks: uniform, but a design needs lambda >= 1
        path = write("inst.txt", "30, 2, 3\n")
        assert main(["brute", path]) == 1
        assert capsys.readouterr().out == "Exactly(0)\n"

    def test_sparse_instance_on_a_huge_ground_set(self, write, capsys):
        # the walk bound is 7 probes; the walk once copied range(n) first
        path = write("inst.txt", "1000000000, 2, 3\n0,1,2\n0,1,5\n")
        assert main(["brute", path]) == 1
        assert capsys.readouterr().out == "NonUniform({0,1} in 2 blocks, {0,2} in 1 blocks)\n"

    def test_condition_violation(self, write, capsys):
        path = write("inst.txt", "5, 2, 3\n0,1,2\n3,4\n")
        assert main(["brute", path]) == 2
        assert "condition I" in capsys.readouterr().err


NATURALS = st.integers(0, 19)
MISSPELT = st.one_of(
    NATURALS.map(lambda v: f"0{v}"),
    NATURALS.map(lambda v: f"+{v}"),
    NATURALS.map(lambda v: f"-{v}"),
    NATURALS.map(lambda v: f"{v}_0"),
    NATURALS.map(lambda v: chr(0x660 + v % 10)),
    st.sampled_from(["", " ", "x", "1.0", "1e1"]),
)


@st.composite
def instance_texts(draw):
    """Instance texts over naturals below 20: a header and block lines, one
    field in twenty misspelt, with blank and comment lines, duplicate blocks
    and points outside the ground set mixed in."""

    def line(fields):
        return ",".join(
            draw(MISSPELT) if draw(st.integers(0, 19)) == 0 else str(v) for v in fields
        )

    c_size, d_size, n = sorted(draw(NATURALS) for _ in range(3))
    header = [n, c_size, d_size, draw(NATURALS)]
    lines = [line(header[: draw(st.sampled_from((3,) * 18 + (2, 4)))])]
    points = st.integers(0, min(n, 19))  # n itself leaves the ground set
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("block", "block", "block", "again", "blank", "#")))
        if kind == "block":
            size = draw(st.one_of(st.just(d_size), st.integers(0, 6)))
            lines.append(line(draw(st.lists(points, min_size=size, max_size=size))))
        elif kind == "again" and len(lines) > 1:  # a block, blank or comment line again
            lines.append(draw(st.sampled_from(lines[1:])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", "  "))))
        else:
            lines.append("# comment")
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(instance_texts())
@example("# the Fano plane\n7, 2, 3\n0,1,2\n0,3,4\n0,5,6\n\n1,3,5\n1,4,6\n2,3,6\n2,4,5\n")
def test_brute_reads_any_instance_text_without_a_traceback(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-instance.txt"
    path.write_text(text, encoding="utf-8")
    try:
        parse_instance(text)
        refused = None
    except ValueError as exc:
        refused = f"error: {exc}\n"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["brute", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if refused is not None:
        assert (code, err.getvalue()) == (2, refused)


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    """Exit 2 with one error line and no output, or exit 0 or 1 with nothing
    on stderr: in no case a traceback."""
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def option_values(low, high):
    """An option's text: in range, out of it, or misspelt as MISSPELT does."""
    return st.one_of(st.integers(low, high).map(str), NATURALS.map(str), MISSPELT)


@st.composite
def brute_invocations(draw):
    """A valid instance text on at most 8 points with at most 6 blocks, and
    brute's ``--t`` and ``--design-type``, each left out or drawn by
    ``option_values``, in either order: (text, options).  The walk bound,
    1 + 6 * C(d_size, t), stays far below ``WALK_BUDGET``."""
    n = draw(st.integers(2, 8))
    d_size = draw(st.integers(1, n))
    c_size = draw(st.integers(1, d_size))
    blocks = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=d_size, max_size=d_size).map(sorted),
        max_size=6, unique_by=tuple,
    ))
    lines = [f"{n}, {c_size}, {d_size}", *(",".join(map(str, b)) for b in blocks)]
    options = []
    if draw(st.booleans()):
        options.append(("--t", draw(option_values(1, d_size))))
    if draw(st.booleans()):
        options.append(("--design-type", draw(option_values(1, 4))))
    return "\n".join(lines) + "\n", draw(st.permutations(options))


CANONICAL_NATURAL = re.compile(r"0|[1-9][0-9]*")


def natural_or_none(text):
    """The natural an option's text spells canonically, else None."""
    stripped = text.strip()
    return int(stripped) if CANONICAL_NATURAL.fullmatch(stripped) else None


@settings(deadline=None)
@given(brute_invocations())
@example(("7, 2, 3\n0,1,2\n", [("--design-type", "4"), ("--t", "\u0663")]))
@example(("7, 2, 3\n0,1,2\n", [("--t", "3"), ("--design-type", "1")]))
def test_brute_reads_any_t_and_design_type_without_a_traceback(tmp_path_factory, invocation):
    text, options = invocation
    path = tmp_path_factory.getbasetemp() / "fuzzed-options.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_main(["brute", str(path), *itertools.chain.from_iterable(options)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    instance = parse_instance(text)
    given_values = dict(options)
    t = natural_or_none(given_values.get("--t", str(instance.c_size)))
    design_type = natural_or_none(given_values.get("--design-type", "2"))
    if t is None or not 1 <= t <= instance.d_size or design_type not in (1, 2, 3, 4):
        # argparse's usage lines, if any, then one error line
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if "error: " in line] == [
            err.splitlines()[-1]
        ]
    else:
        outcome = brute_lambda(instance._replace(c_size=t), DesignType(design_type))
        assert (out, err) == (f"{outcome}\n", "")
        assert code == (0 if outcome.uniform and outcome.lambda_ else 1)


# messages of parse_query and verify that no other test reaches
@pytest.mark.parametrize("command, text, err", [
    ("decide", QUERY_C1_CASE2.replace("C.contains_b: true", "C.contains_b: yes"),
     "error: field C.contains_b: expected true or false, got 'yes'\n"),
    ("decide", QUERY_C1_CASE2.replace("C.size: 2\n", ""), "error: missing field C.size\n"),
    ("decide", QUERY_C1_CASE2.replace("D.contains_b: true\n", ""),
     "error: missing field D.contains_b\n"),
    ("decide", QUERY_C1_CASE2.replace("type: 1\n", ""), "error: missing field type\n"),
    ("verify", QUERY_C1_CASE2.replace("space.size: aleph0", "space.size: aleph1"),
     "error: concrete verification runs over the countable model; "
     "space.size must be aleph0\n"),
])
def test_query_errors_are_pinned(command, text, err, write, capsys):
    assert main([command, write("q.txt", text)]) == 2
    assert capsys.readouterr() == ("", err)


SPACE_SIZES = ("aleph0", "aleph1")
CARDINALS = ("0", "1", "2", "3") + SPACE_SIZES
MALFORMED_CARDINALS = ("07", "+3", "-1", "3_0", "\u0663", "aleph4", "aleph", "aleph01",
                       "aleph 1", "Aleph0", "x", "", "1.0")
FLAGS = ("true", "false", "True", "FALSE")
MALFORMED_FLAGS = ("yes", "1", "t", "", "truee")


@st.composite
def query_texts(draw):
    """Query texts: well-formed field lines with up to four edits, shuffled.
    An edit drops a field, misspells a value, or adds a ``C.b`` / ``D.b``
    alias, an unknown or duplicate key, a line without a colon, a blank or
    a comment line."""
    space = draw(st.sampled_from(SPACE_SIZES))
    fields = {"space.size": space, "type": draw(st.sampled_from("1234"))}
    for name in "CD":
        size = draw(st.sampled_from(CARDINALS))
        fields[f"{name}.size"] = size
        fields[f"{name}.contains_b"] = draw(st.sampled_from(FLAGS))
        if size == space or draw(st.booleans()):
            fields[f"{name}.cosize"] = draw(st.sampled_from(CARDINALS))
    lines = [f"{key}: {value}" for key, value in fields.items()]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(
            ("drop", "misspell", "alias", "unknown", "again", "no colon", "blank", "#")))
        if edit in ("drop", "misspell", "again") and lines:
            line = draw(st.sampled_from(lines))
            if edit != "again":
                lines.remove(line)
            if edit == "misspell":
                key = line.partition(":")[0]
                bad = MALFORMED_FLAGS if key.endswith("contains_b") else MALFORMED_CARDINALS
                lines.append(f"{key}: {draw(st.sampled_from(bad))}")
            elif edit == "again":
                lines.append(line)
        elif edit == "alias":
            name = draw(st.sampled_from("CD"))
            lines.append(f"{name}.b: {draw(st.sampled_from(FLAGS + MALFORMED_FLAGS))}")
        elif edit == "unknown":
            lines.append(f"{draw(st.sampled_from(('E.size', 'C.siz', 'size', '')))}: 1")
        elif edit == "no colon":
            lines.append(draw(st.sampled_from(("space.size aleph0", "type 1", "nonsense"))))
        elif edit == "blank":
            lines.append(draw(st.sampled_from(("", "  "))))
        else:
            lines.append("# comment")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(deadline=None)
@given(query_texts())
@example(QUERY_C1_CASE2)
@example(QUERY_EMBED_FAIL)
def test_decide_reads_any_query_text_without_a_traceback(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-query.txt"
    path.write_text(text, encoding="utf-8")
    assert_clean_exit(*run_main(["decide", str(path)]))


PROBE_HEADS = ("fin:", "cofin:", "fin", "cofin", "FIN:", "box:", ":", "", " fin:", "-fin:")
PROBE_ITEMS = ("0", "1", "2", "3", "5", "8", "13", "10000000000", "\u0663", "\uff13",
               "+3", "-3", " 3", "3 ", "", " ", "03", "3_0", "x")


@st.composite
def probe_texts(draw):
    """Probe strings: a head, then items with non-ASCII digits, signs, blanks
    and empty items among them, and at times a trailing comma."""
    items = draw(st.lists(st.sampled_from(PROBE_ITEMS), max_size=4))
    comma = "," if draw(st.integers(0, 3)) == 0 else ""
    return draw(st.sampled_from(PROBE_HEADS)) + ",".join(items) + comma


@settings(deadline=None)
@given(st.lists(probe_texts(), max_size=3), st.integers(0, 9999))
@example(["fin:0,3", "fin:0,8"], 50)
def test_verify_reads_any_probe_text_without_a_traceback(tmp_path_factory, probes, cutoff):
    path = tmp_path_factory.getbasetemp() / "odd-tail-query.txt"
    path.write_text(QUERY_C1_CASE2, encoding="utf-8")
    # argparse takes a probe that starts with "-" for an option: exit 2
    code, _, err = run_main(["verify", str(path), *probes, "--cutoff", str(cutoff)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


VERIFY_GRID = descriptor_grid(SpaceDescriptor(ALEPH0), 4)
# fin:/cofin: probes over naturals below 10^4, or probe_texts without the
# leading "-" that argparse would take for an option
VERIFY_PROBES = st.one_of(
    st.builds(
        lambda head, items: head + ",".join(map(str, sorted(items))),
        st.sampled_from(("fin:", "cofin:")),
        st.sets(st.integers(0, 9999), max_size=4),
    ),
    probe_texts().filter(lambda p: not p.startswith("-")),
)


def subset_fields(name, s):
    flag = "true" if s.contains_b else "false"
    return f"{name}.size: {s.size}\n{name}.contains_b: {flag}\n{name}.cosize: {s.cosize}\n"


@st.composite
def probes_shaped_like(draw, c):
    """A fin: or cofin: probe of C's size and cosize, holding b = 0 exactly
    when C does; any probe when C is neither finite nor cofinite."""
    finite = not c.size.infinite
    if not finite and c.cosize.infinite:
        return draw(VERIFY_PROBES)
    count = (c.size if finite else c.cosize).value
    lists_b = c.contains_b == finite  # a cofin: probe lists what it lacks
    others = draw(st.sets(st.integers(1, 9999), min_size=count - lists_b,
                          max_size=count - lists_b))
    points = sorted(others | ({0} if lists_b else set()))
    return ("fin:" if finite else "cofin:") + ",".join(map(str, points))


@st.composite
def verify_queries(draw):
    """(query text, verify's arguments after the query path): any type, C and
    D from the aleph0 grid of max_finite 4, up to three probes and a cutoff,
    each number below 10^4."""
    c, d = draw(st.sampled_from(VERIFY_GRID)), draw(st.sampled_from(VERIFY_GRID))
    text = f"space.size: aleph0\ntype: {draw(st.sampled_from('1234'))}\n"
    probes = draw(st.lists(st.one_of(probes_shaped_like(c), VERIFY_PROBES), max_size=3))
    cutoff = draw(st.integers(0, 9999))
    return text + subset_fields("C", c) + subset_fields("D", d), [
        *probes, "--cutoff", str(cutoff)
    ]


@settings(deadline=None)
@given(verify_queries())
@example((QUERY_C1_CASE2, ["fin:0,3", "fin:0,8", "--cutoff", "50"]))
@example((QUERY_T3_COFINITE_D, ["fin:1,2", "cofin:0,1", "--cutoff", "9999"]))
def test_verify_reads_any_query_of_the_grid_without_a_traceback(tmp_path_factory, query):
    text, argv = query
    path = tmp_path_factory.getbasetemp() / "grid-query.txt"
    path.write_text(text, encoding="utf-8")
    assert_clean_exit(*run_main(["verify", str(path), *argv]))


@settings(deadline=None)
@given(query_texts(), st.lists(VERIFY_PROBES, max_size=3), st.integers(0, 9999))
@example("# edited\n\n" + "\n".join(reversed(QUERY_C1_CASE2.splitlines())), ["fin:0,3"], 50)
@example(QUERY_C1_CASE2.replace("space.size: aleph0", "space.size: aleph1"), [], 50)
def test_verify_reads_any_query_text_without_a_traceback(
    tmp_path_factory, text, probes, cutoff
):
    # most drawn texts are refused: the examples reach a report too
    path = tmp_path_factory.getbasetemp() / "fuzzed-verify-query.txt"
    path.write_text(text, encoding="utf-8")
    assert_clean_exit(*run_main(["verify", str(path), *probes, "--cutoff", str(cutoff)]))


# the most cases a drawn crosscheck may sweep: a 1,849-case crosscheck took
# 5-9 ms in process on a 2-vCPU Xeon VM; larger grids are drawn only where the
# budget refuses them
SMALL_SWEEP = 2000


@st.composite
def crosscheck_options(draw):
    """crosscheck's options, each given or left at its default, in any order:
    (argv, the grid's max aleph, its max finite size, finite sizes only,
    faults injected)."""
    aleph = draw(st.one_of(st.none(), st.integers(0, 6), st.integers(0, 10**12)))
    finite = draw(st.one_of(st.none(), st.integers(0, 8), st.integers(10**3, 10**12)))
    finite_only, inject = draw(st.booleans()), draw(st.booleans())
    groups = [["--grid-max-aleph", str(aleph)]] if aleph is not None else []
    groups += [["--max-finite", str(finite)]] if finite is not None else []
    groups += [["--finite-sizes-only"]] if finite_only else []
    groups += [["--inject-fault"]] if inject else []
    argv = ["crosscheck", *itertools.chain.from_iterable(draw(st.permutations(groups)))]
    aleph = 1 if aleph is None else aleph
    finite = 6 if finite is None else finite
    return argv, aleph, finite, finite_only, inject


@settings(deadline=None)
@given(crosscheck_options())
@example((["crosscheck", "--max-finite", "1000", "--grid-max-aleph", "0"], 0, 1000, False,
          False))
def test_crosscheck_reads_any_options_without_a_traceback(options):
    argv, aleph, finite, finite_only, inject = options
    refused = finite < 1
    if not refused:
        cases = designs._sweep_cases(aleph, finite, finite_only)
        refused = cases > designs.SWEEP_BUDGET
        assume(refused or cases <= SMALL_SWEEP)
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if refused:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out.endswith(f" / {cases} cases\n")
        # the grid is consistent, so only injected faults are violations
        assert code == (1 if out.startswith("violation: ") else 0)
        assert inject or code == 0


def test_outputs_are_byte_identical_across_runs(write, capsys):
    path = write("q.txt", QUERY_C1_CASE2)
    runs = []
    for _ in range(2):
        code = main(["decide", path])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_console_entry_point_via_subprocess(write):
    path = write("q.txt", QUERY_C1_CASE2)
    result = subprocess.run(
        [sys.executable, "-m", "fortdesign", "decide", path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("exists: true")


def test_the_console_script_is_main_and_returns_its_exit_code(tmp_path, capsys):
    # a console script passes the return value of its target to sys.exit
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["fortdesign"]
    module, _, name = target.partition(":")
    script = getattr(importlib.import_module(module), name)
    assert script is main
    smallest = ["crosscheck", "--grid-max-aleph", "0", "--max-finite", "1",
                "--finite-sizes-only"]
    codes = [script(smallest), script(["decide", str(tmp_path / "missing.txt")])]
    assert [(type(code), code) for code in codes] == [(int, 0), (int, 2)]
    assert capsys.readouterr().out == "0 violations / 4 cases\n"
