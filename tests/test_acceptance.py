"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every tolerance is exact: the sweeps and panels assert zero
mismatches, the counts are compared as integers, and the CLI records are
compared byte for byte.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from fortdesign.cardinal import ALEPH0, ALEPH1, Cardinal
from fortdesign.concrete import (
    ConcreteSet,
    canonical_homeomorphism,
    check_homeomorphism,
    extract_descriptor,
    local_design_check,
)
from fortdesign.descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    descriptor_grid,
    pair_equivalent,
    subspace_homeomorphic,
)
from fortdesign.designs import (
    ClassW,
    DesignType,
    OddTail,
    crosscheck,
    decide,
    decide_type1,
)
from fortdesign.finitebrute import (
    FiniteInstance,
    all_k_subsets_instance,
    all_k_subsets_lambda,
    brute_lambda,
)
from fortdesign.cli import main

X0 = SpaceDescriptor(ALEPH0)
X1 = SpaceDescriptor(ALEPH1)
F = Cardinal.finite


def _report(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, failures[:5]


def _grid_pairs():
    for space in (X0, X1):
        grid = descriptor_grid(space)
        for c, d in itertools.product(grid, repeat=2):
            yield space, c, d


def test_criterion_1_crosscheck_equivalence():
    failures = []
    cases = 0
    for space, c, d in _grid_pairs():
        cases += 1
        report = crosscheck(c, d, space)
        if not report.consistent:
            failures.append(f"X={space.size} C={c} D={d}: {tuple(report)}")
    assert cases == 1690
    _report(1, "four-way non-existence equivalence", failures)


def test_criterion_2_type_monotonicity():
    failures = []
    for space, c, d in _grid_pairs():
        verdicts = {t: decide(t, c, d, space) for t in DesignType}
        where = f"X={space.size} C={c} D={d}"
        if verdicts[DesignType.TYPE1].exists and not verdicts[DesignType.TYPE2].exists:
            failures.append(f"{where}: type1 without type2")
        if verdicts[DesignType.TYPE3].exists and not verdicts[DesignType.TYPE4].exists:
            failures.append(f"{where}: type3 without type4")
        for t, v in verdicts.items():
            if v.exists and c.size > d.size:
                failures.append(f"{where}: type{int(t)} exists with card(C)>card(D)")
    _report(2, "type monotonicity and the cardinality precondition", failures)


def _full_panel(prefix: int) -> list[ConcreteSet]:
    sets = []
    for r in range(prefix + 2):
        for support in itertools.combinations(range(prefix + 1), r):
            sets.append(ConcreteSet(False, support))
            sets.append(ConcreteSet(True, support))
    return sets


def _class_panel() -> list[ConcreteSet]:
    """One set per (kind, list length, b-flag) class, spanning [0, 12]."""
    supports = [tuple(range(0, k)) for k in range(0, 14)]
    supports += [tuple(range(1, k + 1)) for k in range(1, 13)]
    return [ConcreteSet(kind, s) for kind in (False, True) for s in supports]


def _oracle_mismatches(panel: list[ConcreteSet]) -> list[str]:
    failures = []
    descriptors = [extract_descriptor(s) for s in panel]
    complements = [s.complement() for s in panel]
    for i, u in enumerate(panel):
        for j, v in enumerate(panel):
            m = canonical_homeomorphism(u, v)
            predicted = subspace_homeomorphic(descriptors[i], descriptors[j])
            if (m is not None) != predicted:
                failures.append(f"{u.to_text()} vs {v.to_text()}: map/predicate split")
                continue
            if m is not None and not check_homeomorphism(m, u, v):
                failures.append(f"{u.to_text()} vs {v.to_text()}: map fails check")
            both = m is not None and (
                canonical_homeomorphism(complements[i], complements[j]) is not None
            )
            if pair_equivalent(descriptors[i], descriptors[j], X0) != both:
                failures.append(
                    f"{u.to_text()} vs {v.to_text()}: pair-equivalence split"
                )
    return failures


def test_criterion_3_homeomorphism_oracle_equivalence():
    # every subset shape with support in [0, 7], all ordered pairs, plus one
    # representative per (kind, length, b) class spanning the full [0, 12]
    # range; together these exercise every behavioral class of the oracle
    failures = _oracle_mismatches(_full_panel(7))
    failures += _oracle_mismatches(_class_panel())
    _report(3, "concrete maps agree with the descriptor classifiers", failures)


def test_criterion_4_odd_tail_witness():
    cutoff = 50
    c = SubsetDescriptor(F(2), True, ALEPH0)
    d = SubsetDescriptor(ALEPH0, True, ALEPH0)
    rng = random.Random(20240)
    probes = []
    while len(probes) < 10:  # b-containing probes
        probe = ConcreteSet.finite((0, rng.randint(1, 29)))
        if len(probe.support) == 2:
            probes.append(probe)
    while len(probes) < 20:  # b-free probes
        probe = ConcreteSet.finite(rng.sample(range(1, 30), 2))
        probes.append(probe)

    report = local_design_check(OddTail(), c, d, probes, cutoff, require_complement=True)
    failures = [f"block failure: {msg}" for msg in report.block_failures]
    if report.rejected:
        failures.append(f"rejected probes: {report.rejected}")
    if report.blocks_checked != cutoff:
        failures.append("window size drifted")
    for probe_report in report.probes:
        probe = probe_report.probe
        # independent membership rule: the largest odd 2k+1 in the probe
        # excludes exactly blocks 1..k
        excluded_rule = max(
            ((x - 1) // 2 for x in probe.support if x % 2 == 1), default=0
        )
        contained = cutoff if probe_report.count.saturated else probe_report.count.value
        if cutoff - contained != excluded_rule:
            failures.append(
                f"{probe.to_text()}: {cutoff - contained} blocks excluded, "
                f"rule says {excluded_rule}"
            )
    if not report.consistent:
        failures.append("witness flagged as inconsistent")
    _report(4, "explicit countable witness family", failures)


def test_criterion_5_boundary_refutation():
    cutoff = 50
    failures = []
    code = main(["verify", "--refutation-demo", "--cutoff", str(cutoff)])
    if code != 1:
        failures.append(f"demo exit code {code}, expected 1")

    c = SubsetDescriptor(F(2), True, ALEPH0)
    d = SubsetDescriptor(F(3), True, ALEPH0)
    report = local_design_check(
        ClassW(d), c, d, [ConcreteSet.finite((0, 5)), ConcreteSet.finite((5, 6))],
        cutoff, require_complement=True,
    )
    counts = {p.probe.to_text(): p for p in report.probes}
    if str(counts["fin:0,5"].count) != f"AtLeast({cutoff})":
        failures.append(f"fin:0,5 counted {counts['fin:0,5'].count}")
    if counts["fin:5,6"].global_exact != 1:
        failures.append(f"fin:5,6 global count {counts['fin:5,6'].global_exact}")
    if report.refutation is None:
        failures.append("no refutation flagged")

    verdict = decide_type1(c, d, X0)
    if verdict.exists or verdict.case_tag != "c1-bound":
        failures.append(f"decision engine said {verdict}")
    _report(5, "no uniform count at the cardinality boundary", failures)


def test_criterion_6_finite_brute_anchor():
    started = time.monotonic()
    failures = []
    for n in range(2, 9):
        for k in range(2, n):
            for t in range(1, k):
                expected = all_k_subsets_lambda(n, k, t)
                outcome = brute_lambda(
                    all_k_subsets_instance(n, k, t), DesignType.TYPE2
                )
                if not outcome.uniform or outcome.lambda_ != expected:
                    failures.append(f"({n},{k},{t}): {outcome} != {expected}")

    rng = random.Random(6174)
    for _ in range(50):
        n = rng.randint(3, 8)
        d_size = rng.randint(2, n - 1)
        c_size = rng.randint(1, d_size)
        pool = list(itertools.combinations(range(n), d_size))
        blocks = tuple(
            frozenset(b) for b in rng.sample(pool, rng.randint(1, len(pool)))
        )
        inst = FiniteInstance(n, blocks, c_size, d_size)
        results = {t: brute_lambda(inst, t) for t in DesignType}
        if results[DesignType.TYPE1] != results[DesignType.TYPE2]:
            failures.append(f"type1/type2 split on {inst}")
        if results[DesignType.TYPE3] != results[DesignType.TYPE4]:
            failures.append(f"type3/type4 split on {inst}")
    elapsed = time.monotonic() - started
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(6, "finite discrete anchor", failures)


GOLDEN_DECIDE_EXISTS = (
    "exists: true\nlambda: aleph0\nwitness: odd-tail\ncase_tag: c1-case2\n"
)
GOLDEN_DECIDE_NOT_EXISTS = (
    "exists: false\ncase_tag: b\nreason: C is infinite and contains b while D "
    "does not: C cannot be embedded into D\n"
)
GOLDEN_VERIFY = (
    "family: odd-tail\nblocks_checked: 50\nblock_failures: 0\n"
    "probe: fin:0,2 count: AtLeast(50)\nprobe: fin:0,8 count: AtLeast(50)\n"
    "refutation: none\nconsistent: true\n"
)
GOLDEN_DEMO = (
    "family: W(size=3,b=true,cosize=aleph0)\nblocks_checked: 1326\n"
    "block_failures: 0\nprobe: fin:0,5 count: AtLeast(50)\n"
    "probe: fin:5,6 count: Exactly(1)\n"
    "refutation: fin:5,6 Exactly(1) vs fin:0,5 AtLeast(50)\nconsistent: false\n"
)
GOLDEN_BRUTE = "Exactly(5)\n"


def test_criterion_7_cli_golden_outputs(tmp_path, capsys):
    q_exists = tmp_path / "exists.txt"
    q_exists.write_text(
        "space.size: aleph0\ntype: 1\nC.size: 2\nC.contains_b: true\n"
        "D.size: aleph0\nD.contains_b: true\nD.cosize: aleph0\n"
    )
    q_missing = tmp_path / "missing.txt"
    q_missing.write_text(
        "space.size: aleph0\ntype: 2\nC.size: aleph0\nC.contains_b: true\n"
        "C.cosize: aleph0\nD.size: aleph0\nD.contains_b: false\nD.cosize: aleph0\n"
    )
    instance = tmp_path / "inst.txt"
    instance.write_text(
        "7, 2, 3\n"
        + "\n".join(",".join(map(str, c)) for c in itertools.combinations(range(7), 3))
        + "\n"
    )

    scenarios: list[tuple[list[str], int, str | None]] = [
        (["decide", str(q_exists)], 0, GOLDEN_DECIDE_EXISTS),
        (["decide", str(q_missing)], 1, GOLDEN_DECIDE_NOT_EXISTS),
        (["verify", str(q_exists), "fin:0,2", "fin:0,8", "--cutoff", "50"], 0, GOLDEN_VERIFY),
        (["verify", "--refutation-demo", "--cutoff", "50"], 1, GOLDEN_DEMO),
        (["brute", str(instance)], 0, GOLDEN_BRUTE),
    ]
    failures = []
    for argv, expected_code, golden in scenarios:
        observed = []
        for _ in range(2):
            code = main(argv)
            out = capsys.readouterr().out
            observed.append((code, out))
        if observed[0] != observed[1]:
            failures.append(f"{argv}: output differs across runs")
        code, out = observed[0]
        if code != expected_code:
            failures.append(f"{argv}: exit {code}, expected {expected_code}")
        if golden is not None and out != golden:
            failures.append(f"{argv}: output drifted from golden\n{out!r}")
    _report(7, "byte-identical CLI records", failures)


def test_cli_entry_point_round_trip(tmp_path):
    # the installed module entry must produce the same bytes as in-process runs
    q = tmp_path / "q.txt"
    q.write_text(
        "space.size: aleph0\ntype: 1\nC.size: 2\nC.contains_b: true\n"
        "D.size: aleph0\nD.contains_b: true\nD.cosize: aleph0\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "fortdesign", "decide", str(q)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == GOLDEN_DECIDE_EXISTS
