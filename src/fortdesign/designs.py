"""Existence decisions for the four design types over an infinite Fort space.

Given descriptors for the probe shape C and the block shape D, each decider
returns a :class:`Verdict`: either existence together with a symbolic
multiplicity and a witness block family, or non-existence with the name of
the obstructing case.  Case tags are part of the wire format; the docstrings
of the deciders list what each tag means.

Validation contract: each public entry (``decide``, ``decide_type1`` ..
``decide_type4``, ``crosscheck``) validates C and D against the space exactly
once and then runs the private rules (``_type1`` .. ``_type4``,
``_crosscheck``).  The rules assume valid, nonempty descriptors and call only
each other, never a public entry.  ``sweep`` validates each grid descriptor
once per space and calls the rules directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cardinal import (
    ALEPH0,
    FAMILY_L,
    FAMILY_W,
    FAMILY_W_CONTAINING_C,
    Cardinal,
    LambdaValue,
    ZERO,
    ONE,
    csum,
)
from .descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    cosize_minus_b,
    descriptor_grid,
    embeddable,
    size_minus_b,
    validate,
)

CASE_TAGS = frozenset(
    {
        "remark-card",
        "a1",
        "a2",
        "a3",
        "b",
        "c1-bound",
        "c1-case1",
        "c1-case2",
        "c1-case3",
        "c1-case4",
        "c1-case5",
        "c2",
        "c3",
        "t2-finite",
        "t2-small",
        "t2-full",
        "t3",
        "t4",
        "t3-case1",
        "t3-case2",
        "t3-case3",
        "t3-case4",
    }
)


class DesignType(enum.IntEnum):
    """The four condition pairs a block family can satisfy.

    Blocks may be required to match D alone (condition I) or D together with
    its complement (condition II); probes counted may be all copies of C
    (condition III) or only complement-respecting copies (condition IV).
    Type 1 = (II, III), type 2 = (I, III), type 3 = (II, IV), type 4 = (I, IV).
    """

    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4


class DescriptorError(ValueError):
    """Raised when C, D or the space violate the descriptor invariants."""

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


class FamilyDescriptor:
    """Base class for symbolic block families."""

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ClassW(FamilyDescriptor):
    """All subsets pair-equivalent to the base: same shape and complement shape."""

    base: SubsetDescriptor

    def to_text(self) -> str:
        return f"W{self.base}"


@dataclass(frozen=True)
class ClassL(FamilyDescriptor):
    """All subsets homeomorphic to the base, complements unconstrained."""

    base: SubsetDescriptor

    def to_text(self) -> str:
        return f"L{self.base}"


@dataclass(frozen=True)
class OddTail(FamilyDescriptor):
    """The explicit countable family over the standard model.

    With the naturals as ground set, b = 0 and D = the evens plus 0, block s
    (s >= 1) is the whole space minus the tail of odd numbers 2k+1 with
    k >= s.  Only meaningful when the space, D and the complement of D are
    all countably infinite and b lies in D.
    """

    def to_text(self) -> str:
        return "odd-tail"


@dataclass(frozen=True)
class Singleton(FamilyDescriptor):
    """A one-block family; the member is given by its descriptor."""

    member: SubsetDescriptor

    def to_text(self) -> str:
        return f"singleton{self.member}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision: existence with witness, or the refusing case."""

    exists: bool
    case_tag: str
    lambda_: LambdaValue | None = None
    witness: FamilyDescriptor | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.case_tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.case_tag!r}")
        if self.exists and (self.lambda_ is None or self.witness is None):
            raise ValueError("existence verdicts carry a multiplicity and a witness")

    @classmethod
    def yes(
        cls, lambda_: LambdaValue, witness: FamilyDescriptor, case_tag: str
    ) -> "Verdict":
        return cls(True, case_tag, lambda_=lambda_, witness=witness)

    @classmethod
    def no(cls, case_tag: str, reason: str) -> "Verdict":
        return cls(False, case_tag, reason=reason)

    def to_record(self) -> list[tuple[str, str]]:
        """Stable, machine-parseable key/value lines."""
        if self.exists:
            return [
                ("exists", "true"),
                ("lambda", str(self.lambda_)),
                ("witness", self.witness.to_text()),
                ("case_tag", self.case_tag),
            ]
        return [
            ("exists", "false"),
            ("case_tag", self.case_tag),
            ("reason", self.reason or ""),
        ]


def _require_valid(space: SpaceDescriptor, **shapes: SubsetDescriptor) -> None:
    """Raise unless every named shape is a valid, nonempty descriptor."""
    violations = tuple(
        [f"{name}: {msg}" for name, s in shapes.items() for msg in validate(s, space)]
        + [f"{name}: must be nonempty" for name, s in shapes.items() if s.size == ZERO]
    )
    if violations:
        raise DescriptorError("; ".join(violations), violations)


def _full_space(space: SpaceDescriptor) -> SubsetDescriptor:
    return SubsetDescriptor(space.size, True, ZERO)


def _space_minus_b(space: SpaceDescriptor) -> SubsetDescriptor:
    return SubsetDescriptor(space.size, False, ONE)


def decide_type1(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-1 design (conditions II and III).

    The case table, keyed by membership of b and the size of C:

    * ``remark-card``: card(C) > card(D) never admits a design of any type.
    * b outside C and D: finite C fails (``a1``); infinite C below card(X)
      succeeds with the pair-equivalence class of D (``a2``); at full size a
      design exists iff D is the space minus b (``a3``).
    * b in C only: no block equivalent to D contains b (``b``).
    * b in D, C finite: exists iff card(C) + 2 <= card(D) (``c1-bound``
      on failure), with the witness depending on which of the five shapes
      D takes (``c1-case1`` .. ``c1-case5``).
    * b in D, C infinite below card(X): the class of D works (``c2``).
    * b in D, everything at full size: design iff D is the space (``c3``).
    """
    _require_valid(space, C=c, D=d)
    return _type1(c, d, space)


def _type1(c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor) -> Verdict:
    if c.size > d.size:
        return Verdict.no(
            "remark-card", "card(C) > card(D): no copy of D can contain a copy of C"
        )
    if not c.contains_b and not d.contains_b:
        if c.size.is_finite:
            return Verdict.no(
                "a1",
                "C is finite and b is outside C and D: the b-containing copies "
                "of C lie in no block pair-equivalent to D",
            )
        if c.size < space.size:
            return Verdict.yes(
                LambdaValue.family_size(FAMILY_W), ClassW(d), "a2"
            )
        if d.cosize == ONE:
            return Verdict.yes(
                LambdaValue.exact(Cardinal.finite(1)),
                Singleton(_space_minus_b(space)),
                "a3",
            )
        return Verdict.no(
            "a3",
            "with card(C) = card(D) = card(X) and b outside C and D, a design "
            "exists only when D = X \\ {b}",
        )
    if c.contains_b and not d.contains_b:
        return Verdict.no(
            "b",
            "b is in C but not in D: no block pair-equivalent to D contains b, "
            "so C itself is uncovered",
        )
    # b in D from here on.
    if c.size.is_finite:
        if csum(c.size, Cardinal.finite(2)) > d.size:
            return Verdict.no(
                "c1-bound", "finite C with b in D requires card(C) + 2 <= card(D)"
            )
        if d.size.is_finite:
            return Verdict.yes(
                LambdaValue.exact(space.size), ClassW(d), "c1-case5"
            )
        if space.size == ALEPH0:
            if d.cosize == ZERO:
                return Verdict.yes(
                    LambdaValue.exact(Cardinal.finite(1)),
                    Singleton(_full_space(space)),
                    "c1-case4",
                )
            if d.cosize.is_finite:
                return Verdict.yes(
                    LambdaValue.exact(ALEPH0), ClassW(d), "c1-case3"
                )
            return Verdict.yes(LambdaValue.exact(ALEPH0), OddTail(), "c1-case2")
        return Verdict.yes(LambdaValue.family_size(FAMILY_W), ClassW(d), "c1-case1")
    if c.size < space.size:
        return Verdict.yes(LambdaValue.family_size(FAMILY_W), ClassW(d), "c2")
    if d.cosize == ZERO:
        return Verdict.yes(
            LambdaValue.exact(Cardinal.finite(1)),
            Singleton(_full_space(space)),
            "c3",
        )
    return Verdict.no(
        "c3",
        "with card(C) = card(D) = card(X) and b in D, a design exists only "
        "when D = X",
    )


def _embedding_failure(c: SubsetDescriptor, d: SubsetDescriptor) -> Verdict:
    if c.size > d.size:
        return Verdict.no(
            "remark-card", "card(C) > card(D): C cannot be embedded into D"
        )
    return Verdict.no(
        "b",
        "C is infinite and contains b while D does not: C cannot be embedded "
        "into D",
    )


def decide_type2(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-2 design (conditions I and III).

    A design exists exactly when C embeds into D.  Witnesses: for finite C
    the homeomorphism class of D (``t2-finite``, multiplicity 1 when the
    sizes agree); for infinite C below full size the type-1 construction
    carries over (``t2-small``); at full size a single block, the space with
    b removed unless D keeps it, suffices (``t2-full``).
    """
    _require_valid(space, C=c, D=d)
    return _type2(c, d, space)


def _type2(c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor) -> Verdict:
    if not embeddable(c, d):
        return _embedding_failure(c, d)
    if c.size.is_finite:
        lam = (
            LambdaValue.exact(Cardinal.finite(1))
            if c.size == d.size
            else LambdaValue.family_size(FAMILY_L)
        )
        return Verdict.yes(lam, ClassL(d), "t2-finite")
    if c.size < space.size:
        # the type-1 verdict here is a2 or c2: the class of D, card(W) blocks
        return Verdict.yes(
            LambdaValue.family_size(FAMILY_W), ClassW(d), "t2-small"
        )
    member = _full_space(space) if d.contains_b else _space_minus_b(space)
    return Verdict.yes(LambdaValue.exact(Cardinal.finite(1)), Singleton(member), "t2-full")


def decide_type3(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-3 design (conditions II and IV).

    A design exists iff b is not in C without being in D, the b-free part of
    C fits inside that of D, and the b-free part of D's complement fits
    inside that of C's.  Failure tags name the first violated clause
    (``t3-case1`` .. ``t3-case4``); on success the class of D is the witness
    with the symbolic multiplicity card({E in W : C subset E}).
    """
    _require_valid(space, C=c, D=d)
    return _type3(c, d, space)


def _type3(c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor) -> Verdict:
    if c.contains_b and not d.contains_b:
        return Verdict.no("t3-case1", "b is in C but not in D")
    if size_minus_b(c) > size_minus_b(d):
        if d.contains_b and not c.contains_b:
            return Verdict.no(
                "t3-case3", "card(C \\ {b}) > card(D \\ {b}) with b in D only"
            )
        return Verdict.no(
            "t3-case2", "card(C \\ {b}) > card(D \\ {b}) with b in both or neither"
        )
    if cosize_minus_b(d) > cosize_minus_b(c):
        return Verdict.no(
            "t3-case4",
            "the part of X outside D and b is strictly larger than the part "
            "outside C and b",
        )
    return Verdict.yes(
        LambdaValue.family_size(FAMILY_W_CONTAINING_C), ClassW(d), "t3"
    )


def decide_type4(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-4 design (conditions I and IV).

    Existence coincides with type 2: any type-2 witness also satisfies the
    weaker probe condition IV, so the verdict reuses the type-2 multiplicity
    and witness under the tag ``t4``.
    """
    _require_valid(space, C=c, D=d)
    return _type4(c, d, space)


def _type4(c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor) -> Verdict:
    inner = _type2(c, d, space)
    if inner.exists:
        return Verdict.yes(inner.lambda_, inner.witness, "t4")
    return inner


_RULES = {
    DesignType.TYPE1: _type1,
    DesignType.TYPE2: _type2,
    DesignType.TYPE3: _type3,
    DesignType.TYPE4: _type4,
}


def decide(
    design_type: DesignType,
    c: SubsetDescriptor,
    d: SubsetDescriptor,
    space: SpaceDescriptor,
) -> Verdict:
    rule = _RULES[DesignType(design_type)]
    _require_valid(space, C=c, D=d)
    return rule(c, d, space)


@dataclass(frozen=True)
class CrosscheckReport:
    """The four equivalent non-existence statements, evaluated independently.

    ``no_type2`` and ``no_type4`` come from the deciders, ``obstruction`` is
    the direct membership/cardinality condition, ``not_embeddable`` negates
    the embedding predicate.  All four must agree.
    """

    no_type2: bool
    no_type4: bool
    obstruction: bool
    not_embeddable: bool

    @property
    def statements(self) -> tuple[bool, bool, bool, bool]:
        return (self.no_type2, self.no_type4, self.obstruction, self.not_embeddable)

    @property
    def consistent(self) -> bool:
        return len(set(self.statements)) == 1

    def disagreements(self) -> list[tuple[str, str]]:
        names = ("no_type2", "no_type4", "obstruction", "not_embeddable")
        values = self.statements
        return [
            (names[i], names[j])
            for i in range(4)
            for j in range(i + 1, 4)
            if values[i] != values[j]
        ]


def crosscheck(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> CrosscheckReport:
    """Evaluate the four-way non-existence equivalence for types 2 and 4."""
    _require_valid(space, C=c, D=d)
    return _crosscheck(c, d, space)


def _crosscheck(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> CrosscheckReport:
    no2 = not _type2(c, d, space).exists
    no4 = not _type4(c, d, space).exists
    obstruction = (
        not c.size.is_finite and c.contains_b and not d.contains_b
    ) or c.size > d.size
    return CrosscheckReport(no2, no4, obstruction, not embeddable(c, d))


def witness_violations(
    witness: FamilyDescriptor,
    d: SubsetDescriptor,
    space: SpaceDescriptor,
) -> list[str]:
    """Validity conditions for a witness family in the given context."""
    problems: list[str] = []
    if isinstance(witness, (ClassW, ClassL)):
        problems += validate(witness.base, space)
        if witness.base.size == ZERO:
            problems.append("class base must be nonempty")
    elif isinstance(witness, Singleton):
        problems += validate(witness.member, space)
        if witness.member.size == ZERO:
            problems.append("singleton member must be nonempty")
    elif isinstance(witness, OddTail):
        if space.size != ALEPH0:
            problems.append("odd-tail family needs a countable space")
        if not d.contains_b:
            problems.append("odd-tail family needs b in D")
        if d.size != ALEPH0:
            problems.append("odd-tail family needs countably infinite D")
        if d.cosize != ALEPH0:
            problems.append("odd-tail family needs countably infinite X \\ D")
    else:
        problems.append(f"unknown family {witness!r}")
    return problems


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive grid sweep."""

    cases: int
    violations: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def sweep(
    max_aleph: int = 1,
    max_finite: int = 6,
    finite_sizes_only: bool = False,
    inject_fault: bool = False,
) -> SweepReport:
    """Run every consistency property over the full descriptor grid.

    Per (C, D, space) triple: the four-way crosscheck, existence of type 1
    implying type 2 and type 3 implying type 4, card(C) <= card(D) for every
    existence verdict, and witness validity; :class:`Verdict` itself rejects
    unknown case tags.  An invalid grid descriptor raises
    :class:`DescriptorError` before any case in its space runs.
    ``inject_fault`` deliberately flips the obstruction statement on a subset
    of cases so the harness can prove it detects violations.
    """
    violations: list[str] = []
    cases = 0
    for index in range(max_aleph + 1):
        space = SpaceDescriptor(Cardinal.aleph(index))
        grid = descriptor_grid(space, max_finite, finite_sizes_only)
        _require_valid(space, **{f"grid {s}": s for s in grid})
        for c in grid:
            for d in grid:
                cases += 1
                where = f"X={space.size} C={c} D={d}"
                verdicts = {t: rule(c, d, space) for t, rule in _RULES.items()}
                for t, v in verdicts.items():
                    if v.exists and c.size > d.size:
                        violations.append(
                            f"{where}: type {t} exists with card(C) > card(D)"
                        )
                    if v.exists:
                        for problem in witness_violations(v.witness, d, space):
                            violations.append(f"{where}: type {t} witness: {problem}")
                if verdicts[DesignType.TYPE1].exists and not verdicts[DesignType.TYPE2].exists:
                    violations.append(f"{where}: type 1 exists but type 2 does not")
                if verdicts[DesignType.TYPE3].exists and not verdicts[DesignType.TYPE4].exists:
                    violations.append(f"{where}: type 3 exists but type 4 does not")
                report = _crosscheck(c, d, space)
                if inject_fault and cases % 7 == 0:
                    report = CrosscheckReport(
                        report.no_type2,
                        report.no_type4,
                        not report.obstruction,
                        report.not_embeddable,
                    )
                if not report.consistent:
                    pairs = ", ".join("/".join(p) for p in report.disagreements())
                    violations.append(f"{where}: crosscheck disagrees on {pairs}")
    return SweepReport(cases, tuple(violations))
