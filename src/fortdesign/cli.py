"""Command-line front end: decide, verify, crosscheck and brute subcommands.

The CLI parses and prints: every bound it enforces on an option or an
instance belongs to the library call it feeds, and a refusal prints that
call's message.  Its own one bound is on what it prints: ``verify`` refuses
a count of more than ``DIGIT_BUDGET`` digits, and refuses a window whose
block count passes that budget before ``local_design_check`` computes it,
as every window count is at most the block count.  Exit codes are uniform across
subcommands: 0 for existence or consistency, 1 for non-existence or a
refutation, 2 for malformed input.
Outputs are line-oriented and deterministic; diagnostics go to stderr.
A query is validated once, when it is built: ``parse_query`` reads a query
file's fields, and a command builds one ``Query`` of its space, C and D,
which checks them, and decides its design type from it.  ``verify`` refuses
a space other than aleph0 before it builds the query, and then a query
given no probe, whose report would read as consistent having checked
nothing.  A numeral of more than ``DIGIT_BUDGET`` digits, in a query field,
a probe, an instance line or an integer option, is refused in
``parse_natural``'s words, naming the budget, and is not echoed.
"""

from __future__ import annotations

import argparse
import sys

from .cardinal import ALEPH0, DIGIT_BUDGET, Cardinal, _OverDigitBudget, parse_natural
from .concrete import ConcreteSet, _layout, extract_descriptor, local_design_check
from .descriptors import SpaceDescriptor, SubsetDescriptor
from .designs import (
    ClassW,
    DesignType,
    Query,
    Verdict,
    sweep,
)
from .finitebrute import _comb_at_most, brute_lambda, parse_instance

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_INPUT_ERROR = 2


class QueryError(ValueError):
    """Malformed query file; the message carries line/field context."""


def _parse_fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise QueryError(f"line {line_no}: expected 'key: value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key in fields:
            raise QueryError(f"line {line_no}: duplicate key {key!r}")
        fields[key] = value
    return fields


_KNOWN_KEYS = {"space.size", "type"} | {
    f"{name}.{field}" for name in "CD" for field in ("size", "contains_b", "b", "cosize")
}


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered not in ("true", "false"):
        raise QueryError(f"field {key}: expected true or false, got {value!r}")
    return lowered == "true"


def _parse_cardinal(key: str, value: str) -> Cardinal:
    try:
        return Cardinal.parse(value)
    except ValueError as exc:
        raise QueryError(f"field {key}: {exc}") from exc


def _parse_subset(
    name: str, fields: dict[str, str], space: SpaceDescriptor
) -> SubsetDescriptor:
    size_key = f"{name}.size"
    if size_key not in fields:
        raise QueryError(f"missing field {size_key}")
    size = _parse_cardinal(size_key, fields[size_key])
    flag_keys = [key for key in (f"{name}.contains_b", f"{name}.b") if key in fields]
    if not flag_keys:
        raise QueryError(f"missing field {name}.contains_b")
    if len(flag_keys) > 1:
        raise QueryError(f"fields {name}.contains_b and {name}.b: give only one")
    contains_b = _parse_bool(flag_keys[0], fields[flag_keys[0]])
    cosize_key = f"{name}.cosize"
    if cosize_key in fields:
        cosize = _parse_cardinal(cosize_key, fields[cosize_key])
    elif size < space.size:
        cosize = space.size  # forced by the partition invariant
    else:
        raise QueryError(
            f"field {cosize_key} is required when {size_key} equals the space size"
        )
    return SubsetDescriptor(size, contains_b, cosize)


def parse_query(
    text: str,
) -> tuple[SpaceDescriptor, SubsetDescriptor, SubsetDescriptor, DesignType]:
    """A query file's space, C, D and design type, each field read; whether
    C and D fit the space is the ``Query`` built from them to check."""
    fields = _parse_fields(text)
    unknown = sorted(set(fields) - _KNOWN_KEYS)
    if unknown:
        raise QueryError(f"unknown field(s): {', '.join(unknown)}")
    if "space.size" not in fields:
        raise QueryError("missing field space.size")
    space_size = _parse_cardinal("space.size", fields["space.size"])
    try:
        space = SpaceDescriptor(space_size)
    except ValueError as exc:
        raise QueryError(f"field space.size: {exc}") from exc
    if "type" not in fields:
        raise QueryError("missing field type")
    try:
        design_type = DesignType.of(parse_natural(fields["type"]))
    except _OverDigitBudget as exc:
        raise QueryError(f"field type: {exc}") from exc
    except ValueError as exc:
        raise QueryError(f"field type: expected 1..4, got {fields['type']!r}") from exc
    c = _parse_subset("C", fields, space)
    d = _parse_subset("D", fields, space)
    return space, c, d, design_type


def _print_verdict(verdict: Verdict, design_type: DesignType, fmt: str) -> None:
    if fmt == "record":
        for key, value in verdict.to_record():
            print(f"{key}: {value}")
    else:
        t = int(design_type)
        if verdict.exists:
            print(
                f"type-{t} design exists: lambda = {verdict.lambda_}, "
                f"witness = {verdict.witness.to_text()} [case {verdict.case_tag}]"
            )
        else:
            print(f"no type-{t} design: {verdict.reason} [case {verdict.case_tag}]")


def _cmd_decide(args: argparse.Namespace) -> int:
    space, c, d, design_type = parse_query(_read_file(args.query))
    verdict = Query(space, c, d).decide(design_type)
    _print_verdict(verdict, design_type, args.format)
    return EXIT_EXISTS if verdict.exists else EXIT_NOT_EXISTS


def _refutation_demo_report(cutoff: int):
    """The boundary scenario card(C) + 1 = card(D): counts cannot be uniform."""
    d = SubsetDescriptor(Cardinal.finite(3), True, ALEPH0)
    c = SubsetDescriptor(Cardinal.finite(2), True, ALEPH0)
    probes = [ConcreteSet.finite((0, 5)), ConcreteSet.finite((5, 6))]
    family = ClassW(d)
    _check_window_budget(family, cutoff)
    return local_design_check(family, c, d, probes, cutoff, require_complement=True)


# below 2**2126 an int has at most DIGIT_BUDGET digits, as 2**2126 < 10**640
_BUDGET_BITS = 2126


def _over_digit_budget() -> ValueError:
    return ValueError(
        f"a count of more than {DIGIT_BUDGET} digits exceeds the budget of "
        f"{DIGIT_BUDGET} digits for a printed count"
    )


def _check_window_budget(family, cutoff: int) -> None:
    """Refuse a window whose block count passes the digit budget before
    ``local_design_check`` computes it, in ``_print_check_report``'s words.

    A class's window has C(top, free) blocks, bounded here without
    computing it in full, and every window count is at most that; an
    odd-tail window has ``cutoff`` blocks, which costs nothing to count.
    """
    layout = _layout(family, cutoff, None)
    if layout is not None:
        cap = 10**DIGIT_BUDGET
        if _comb_at_most(layout[3], layout[2], cap) >= cap:
            raise _over_digit_budget()


def _print_check_report(report, fmt: str) -> None:
    """Write the report's lines, every one formatted before the first is
    written, so that a report that cannot be formatted leaves stdout empty.
    A count of more than ``DIGIT_BUDGET`` digits, found from its bit length
    before any is formatted, raises ``ValueError`` naming the budget."""
    counts = [report.blocks_checked]
    for p in report.probes:
        counts += (p.count.value, p.global_exact or 0)
    if any(n.bit_length() > _BUDGET_BITS and n >= 10**DIGIT_BUDGET for n in counts):
        raise _over_digit_budget()
    if fmt == "record":
        lines = [
            f"family: {report.family.to_text()}",
            f"blocks_checked: {report.blocks_checked}",
            f"block_failures: {len(report.block_failures)}",
        ]
        lines += [f"block_failure: {failure}" for failure in report.block_failures]
        lines += [f"probe: {p.probe.to_text()} count: {p.count}" for p in report.probes]
        if report.refutation is None:
            lines.append("refutation: none")
        else:
            first, second = report.refutation
            lines.append(
                f"refutation: {first.probe.to_text()} {first.display_count()} "
                f"vs {second.probe.to_text()} {second.display_count()}"
            )
        lines.append(f"consistent: {'true' if report.consistent else 'false'}")
    else:
        lines = [
            f"checked {report.blocks_checked} blocks of {report.family.to_text()}: "
            f"{len(report.block_failures)} shape failure(s)"
        ]
        lines += [f"  {p.probe.to_text()} lies in {p.count} blocks" for p in report.probes]
        if report.refutation is None:
            lines.append("no refutation found: every probe has the same family-wide count")
        else:
            first, second = report.refutation
            lines.append(
                f"refuted: {first.probe.to_text()} ({first.display_count()}) vs "
                f"{second.probe.to_text()} ({second.display_count()})"
            )
    print("\n".join(lines))


def _set_list(sets) -> str:
    return ", ".join(s.to_text() for s in sets)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.refutation_demo:
        if args.query is not None:
            raise QueryError("--refutation-demo takes no query file or probes")
        report = _refutation_demo_report(args.cutoff)
    else:
        if args.query is None:
            raise QueryError("a query file is required unless --refutation-demo is given")
        space, c, d, design_type = parse_query(_read_file(args.query))
        if space.size != ALEPH0:
            raise QueryError(
                "concrete verification runs over the countable model; "
                "space.size must be aleph0"
            )
        verdict = Query(space, c, d).decide(design_type)
        if not verdict.exists:
            raise QueryError(
                f"nothing to verify: decision is NotExists [case {verdict.case_tag}]"
            )
        if not args.probes:
            raise QueryError("a query needs at least one probe, as fin:... or cofin:...")
        probes = [ConcreteSet.parse(text) for text in args.probes]
        _check_window_budget(verdict.witness, args.cutoff)
        report = local_design_check(
            verdict.witness,
            c,
            d,
            probes,
            args.cutoff,
            require_complement=design_type.condition_ii,
        )
        # condition IV: a probe shaped like C has C's descriptor
        bad_complement = [
            p.probe
            for p in report.probes
            if design_type.condition_iv and extract_descriptor(p.probe) != c
        ]
        problems = []
        if report.rejected:
            problems.append(f"probe(s) not shaped like C: {_set_list(report.rejected)}")
        if bad_complement:
            problems.append(
                f"probe complement(s) not shaped like X \\ C: {_set_list(bad_complement)}"
            )
        if problems:
            raise QueryError("; ".join(problems))
    _print_check_report(report, args.format)
    return EXIT_EXISTS if report.consistent else EXIT_NOT_EXISTS


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    report = sweep(
        max_aleph=args.grid_max_aleph,
        max_finite=args.max_finite,
        finite_sizes_only=args.finite_sizes_only,
        inject_fault=args.inject_fault,
    )
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"{len(report.violations)} violations / {report.cases} cases")
    return EXIT_EXISTS if report.consistent else EXIT_NOT_EXISTS


def _cmd_brute(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_file(args.instance))
    if args.t is not None:
        instance = instance._replace(c_size=args.t)
    outcome = brute_lambda(instance, args.design_type)
    print(str(outcome))
    # a family with no blocks counts every probe 0 times: uniform, but a
    # design needs multiplicity >= 1, as LambdaValue does
    return EXIT_EXISTS if outcome.uniform and outcome.lambda_ else EXIT_NOT_EXISTS


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise QueryError(f"cannot read {path}: {exc}") from exc


def _natural_option(text: str) -> int:
    """An integer option's value, read by ``parse_natural``.  argparse words
    a refused value itself and echoes it; an over-budget numeral is refused
    in ``parse_natural``'s words instead, with no echo."""
    try:
        return parse_natural(text)
    except _OverDigitBudget as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse names the type of a malformed value: "invalid parse_natural value"
_natural_option.__name__ = parse_natural.__name__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fortdesign",
        description="Decide and verify block designs over infinite Fort spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide_p = sub.add_parser("decide", help="decide existence for a query file")
    decide_p.add_argument("query", help="query file (key: value lines)")
    decide_p.add_argument(
        "--format", choices=("text", "record"), default="record"
    )
    decide_p.set_defaults(handler=_cmd_decide)

    verify_p = sub.add_parser(
        "verify", help="check a witness family against concrete probes"
    )
    verify_p.add_argument("query", nargs="?", help="query file")
    verify_p.add_argument(
        "probes", nargs="*", help="probes as fin:... / cofin:... strings"
    )
    verify_p.add_argument("--cutoff", type=_natural_option, default=50)
    verify_p.add_argument(
        "--refutation-demo",
        action="store_true",
        help="run the canned card(C)+1 = card(D) non-uniformity scenario",
    )
    verify_p.add_argument(
        "--format", choices=("text", "record"), default="record"
    )
    verify_p.set_defaults(handler=_cmd_verify)

    cross_p = sub.add_parser(
        "crosscheck", help="sweep the descriptor grid for consistency"
    )
    cross_p.add_argument("--grid-max-aleph", type=_natural_option, default=1)
    cross_p.add_argument("--max-finite", type=_natural_option, default=6)
    cross_p.add_argument("--finite-sizes-only", action="store_true")
    cross_p.add_argument(
        "--inject-fault",
        action="store_true",
        help="self-test: flip one statement to prove the sweep detects faults",
    )
    cross_p.set_defaults(handler=_cmd_crosscheck)

    brute_p = sub.add_parser(
        "brute", help="brute-force a finite instance file"
    )
    brute_p.add_argument("instance", help="instance file (n, c_size, d_size header)")
    brute_p.add_argument(
        "--t", type=_natural_option, default=None, help="override the probe size"
    )
    brute_p.add_argument(
        "--design-type", type=_natural_option, choices=[t.value for t in DesignType], default=2
    )
    brute_p.set_defaults(handler=_cmd_brute)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # QueryError, DescriptorError, FamilyEnumerationError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

