"""Existence decisions for the four design types over an infinite Fort space.

Given descriptors for the probe shape C and the block shape D, each decider
returns a :class:`Verdict`: either existence together with a symbolic
multiplicity and a witness block family, or non-existence with the name of
the obstructing case.  The decision rules are case tables, one ordered
table of (tag, required, forbidden, outcome) rows per design type
(``_TYPE1`` .. ``_TYPE4``), run by one interpreter.  Case tags are part of
the wire format; ``CASE_TAGS`` is read off the tables, and the rows say
what each tag means.

A guard is a conjunction of atoms, each one bit of an integer mask:

* facts of C alone: ``B_IN_C``, ``C_FINITE``, ``C_SMALL``;
* facts of D alone: ``B_IN_D``, ``D_FINITE``, ``D_COSIZE_0``,
  ``D_COSIZE_1``, ``D_COSIZE_FINITE``;
* the fact of the space: ``X_ALEPH0``;
* comparisons of C with D: ``C_GT_D``, ``C_EQ_D``, ``C_PLUS_2_GT_D``,
  ``C_GT_D_WITHOUT_B``, ``COSIZE_D_GT_C``.

``_facts`` computes a descriptor's own atoms, as C and as D, and the sizes
the comparisons read, once per descriptor; ``_mask`` combines two of them
into the mask of a case for ``decide`` and ``crosscheck``, and ``sweep``
composes the same atoms inline from each row's and column's reads.  The
first row whose ``required`` atoms all hold and whose ``forbidden`` atoms
all fail decides.  An outcome is a refusal reason or a (multiplicity, kind)
pair: a value, a ``LambdaValue`` or None for card(X), and a witness kind.
``_KINDS`` maps each of the four kinds, ``ClassW``, ``ClassL``,
``Singleton`` and ``OddTail``, to its family built from D and X, never from
C, and to what its check reads, on which ``sweep`` keys the check before it
builds the family.

Validation contract: a ``SubsetDescriptor`` types its own fields when it
is built, and ``decide`` and ``crosscheck``, the only checks of the
descriptors a caller passes in, validate C and D against the space once.
Then ``decide`` reads its type's deciding row into one verdict, and
``crosscheck`` reads the four types' rows through ``_plan``, the tables'
other reader, with no verdict, as ``sweep`` does on ``descriptor_grid``'s
valid, nonempty descriptors.  ``decide_type1`` .. ``decide_type4`` are
``decide`` with the type fixed.
"""

from __future__ import annotations

__all__ = [
    "CASE_TAGS", "ClassL", "ClassW", "CrosscheckReport", "DescriptorError",
    "DesignType", "FamilyDescriptor", "OddTail", "Singleton", "SweepReport",
    "Verdict", "crosscheck", "decide", "decide_type1", "decide_type2",
    "decide_type3", "decide_type4", "sweep", "witness_violations",
]

import enum
from typing import NamedTuple

from .cardinal import (
    ALEPH0,
    Cardinal,
    LambdaValue,
    ZERO,
    ONE,
    _Validated,
    _exactly,
    csum,
)
from .descriptors import (
    SpaceDescriptor,
    SubsetDescriptor,
    _space_violations,
    cosize_minus_b,
    descriptor_grid,
    embeddable,
    size_minus_b,
    validate,
)

class DesignType(enum.IntEnum):
    """The four condition pairs a block family can satisfy.

    Blocks may be required to match D alone (condition I) or D together with
    its complement (condition II); probes counted may be all copies of C
    (condition III) or only complement-respecting copies (condition IV).
    ``condition_ii`` and ``condition_iv`` say which a type asks, and only
    they.  Matching a set together with its complement (conditions II and
    IV) is having that set's descriptor, as ``pair_equivalent`` states.
    """

    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4

    @property
    def condition_ii(self) -> bool:
        """Blocks must have D's descriptor (condition II), not only D's
        shape (condition I)."""
        return self in (DesignType.TYPE1, DesignType.TYPE3)

    @property
    def condition_iv(self) -> bool:
        """Probes are only the copies of C that have C's descriptor
        (condition IV), not every copy (condition III)."""
        return self in (DesignType.TYPE3, DesignType.TYPE4)

    @classmethod
    def of(cls, value) -> "DesignType":
        """The member ``value`` names: only a member or an exact ``int`` does,
        so neither ``True`` nor ``1.0`` is read as type 1."""
        if type(value) is not cls and type(value) is not int:
            raise ValueError(f"design type must be an int 1..4, got {value!r}")
        return cls(value)


class DescriptorError(ValueError):
    """Raised when C, D or the space violate the descriptor invariants."""

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


class FamilyDescriptor:
    """Base class for symbolic block families.

    A family is a tuple-backed record.  Two families are equal only when
    they are of one class and hold equal fields, so W(D), L(D) and the
    singleton {D} are three families and none equals a plain tuple.  Its
    text is the class's name for the family (``W``, ``L``, ``singleton``,
    ``odd-tail``) followed by its one field, if it has one.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple.__hash__(self)))

    def to_text(self) -> str:
        return self._label + "".join(map(str, self))


class _ClassFields(NamedTuple):
    base: SubsetDescriptor


class ClassW(FamilyDescriptor, _ClassFields):
    """All subsets pair-equivalent to the base: same shape and complement shape."""

    __slots__ = ()
    _label = "W"


class ClassL(FamilyDescriptor, _ClassFields):
    """All subsets homeomorphic to the base, complements unconstrained."""

    __slots__ = ()
    _label = "L"


class _NoFields(NamedTuple):
    pass


class OddTail(FamilyDescriptor, _NoFields):
    """The explicit countable family over the standard model.

    With the naturals as ground set, b = 0 and D = the evens plus 0, block s
    (s >= 1) is the whole space minus the tail of odd numbers 2k+1 with
    k >= s.  Only meaningful when the space, D and the complement of D are
    all countably infinite and b lies in D.
    """

    __slots__ = ()
    _label = "odd-tail"


class _SingletonFields(NamedTuple):
    member: SubsetDescriptor


class Singleton(FamilyDescriptor, _SingletonFields):
    """A one-block family; the member is given by its descriptor."""

    __slots__ = ()
    _label = "singleton"


class _VerdictFields(NamedTuple):
    exists: bool
    case_tag: str
    lambda_: LambdaValue | None
    witness: FamilyDescriptor | None
    reason: str | None


class Verdict(_Validated, _VerdictFields):
    """Existence with a multiplicity and a witness, or a refusal with its reason."""

    __slots__ = ()

    def __new__(
        cls,
        exists: bool,
        case_tag: str,
        lambda_: LambdaValue | None = None,
        witness: FamilyDescriptor | None = None,
        reason: str | None = None,
    ) -> "Verdict":
        _check_tag(case_tag)
        if exists and (lambda_ is None or witness is None):
            raise ValueError("existence verdicts carry a multiplicity and a witness")
        _exactly(bool, exists, "exists")
        if lambda_ is not None:
            _exactly(LambdaValue, lambda_, "lambda_")
        if witness is not None and not isinstance(witness, FamilyDescriptor):
            raise ValueError(f"witness must be a FamilyDescriptor, got {witness!r}")
        if exists and reason is not None:
            raise ValueError("existence verdicts carry no reason")
        if not exists and (lambda_ is not None or witness is not None):
            raise ValueError("refusals carry no multiplicity and no witness")
        if not exists and not _exactly(str, reason, "a refusal's reason"):
            raise ValueError("a refusal's reason must be nonempty")
        return tuple.__new__(cls, (exists, case_tag, lambda_, witness, reason))

    @classmethod
    def yes(
        cls, lambda_: LambdaValue, witness: FamilyDescriptor, case_tag: str
    ) -> "Verdict":
        return cls(True, case_tag, lambda_, witness)

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
            ("reason", self.reason),
        ]


def _check_tag(case_tag: str) -> None:
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")


def _violations(s: SubsetDescriptor, space: SpaceDescriptor) -> list[str]:
    """Why s is not a valid, nonempty descriptor in the space; empty if it is."""
    violations = validate(s, space)
    if type(s) is SubsetDescriptor and s.size == ZERO:
        violations.append("must be nonempty")
    return violations


def _require_valid(space: SpaceDescriptor, **shapes: SubsetDescriptor) -> None:
    """Raise unless the space and every named shape, a nonempty one, are valid."""
    violations = tuple(_space_violations(space)) or tuple(
        f"{name}: {msg}" for name, s in shapes.items() for msg in _violations(s, space)
    )
    if violations:
        raise DescriptorError("; ".join(violations), violations)


_TWO = Cardinal.finite(2)

# The guard atoms, one bit each; cosize'(S) is card(X \ (S u {b})).
B_IN_C = 1 << 0              # b in C
C_FINITE = 1 << 1            # C finite
C_SMALL = 1 << 2             # card(C) < card(X)
B_IN_D = 1 << 3              # b in D
D_FINITE = 1 << 4            # D finite
D_COSIZE_0 = 1 << 5          # cosize(D) = 0
D_COSIZE_1 = 1 << 6          # cosize(D) = 1
D_COSIZE_FINITE = 1 << 7     # cosize(D) finite
X_ALEPH0 = 1 << 8            # X = aleph0
C_GT_D = 1 << 9              # card(C) > card(D)
C_EQ_D = 1 << 10             # card(C) = card(D)
C_PLUS_2_GT_D = 1 << 11      # card(C) + 2 > card(D)
C_GT_D_WITHOUT_B = 1 << 12   # card(C \ {b}) > card(D \ {b})
COSIZE_D_GT_C = 1 << 13      # cosize'(D) > cosize'(C)
_B_IN_C_OR_D = B_IN_C | B_IN_D


def _facts(s: SubsetDescriptor, x: SpaceDescriptor) -> tuple:
    """What the guards read of one descriptor in its space, in the order
    ``_mask`` unpacks it: its atoms as C, its atoms as D (with X_ALEPH0),
    card(S), card(S) + 2, card(S \\ {b}) and cosize'(S)."""
    finite = not s.size.infinite
    as_c = (
        (B_IN_C if s.contains_b else 0)
        | (C_FINITE if finite else 0)
        | (C_SMALL if s.size < x.size else 0)
    )
    as_d = (
        (B_IN_D if s.contains_b else 0)
        | (D_FINITE if finite else 0)
        | (D_COSIZE_0 if s.cosize == ZERO else 0)
        | (D_COSIZE_1 if s.cosize == ONE else 0)
        | (0 if s.cosize.infinite else D_COSIZE_FINITE)
        | (X_ALEPH0 if x.size == ALEPH0 else 0)
    )
    return as_c, as_d, s.size, csum(s.size, _TWO), size_minus_b(s), cosize_minus_b(s)


def _mask(c: tuple, d: tuple) -> int:
    """Every atom that holds for C and D, as one bitmask."""
    c_atoms, _, c_size, c_size_plus_2, c_size_minus_b, c_cosize_minus_b = c
    _, d_atoms, d_size, _, d_size_minus_b, d_cosize_minus_b = d
    m = c_atoms | d_atoms
    if c_size > d_size:
        m |= C_GT_D
    elif c_size == d_size:
        m |= C_EQ_D
    if c_size_plus_2 > d_size:
        m |= C_PLUS_2_GT_D
    if c_size_minus_b > d_size_minus_b:
        m |= C_GT_D_WITHOUT_B
    if d_cosize_minus_b > c_cosize_minus_b:
        m |= COSIZE_D_GT_C
    return m


# The witness kinds: each one's family over D in the space x, and its check's
# key within a space, what witness_violations reads: D for W(D) and L(D), one
# shared check; D's b flag for the singleton, X with b exactly when D has it;
# D for odd-tail.
_KINDS = {
    ClassW: (lambda d, x: tuple.__new__(ClassW, (d,)), lambda d: (ClassW, d)),
    ClassL: (lambda d, x: tuple.__new__(ClassL, (d,)), lambda d: (ClassW, d)),
    Singleton: (
        lambda d, x: Singleton(
            SubsetDescriptor(x.size, d.contains_b, ZERO if d.contains_b else ONE)
        ),
        lambda d: (Singleton, d.contains_b),
    ),
    OddTail: (lambda d, x: OddTail(), lambda d: (OddTail, d)),
}


_ONE_BLOCK = LambdaValue.exact(ONE)
_ALEPH0_BLOCKS = LambdaValue.exact(ALEPH0)
_CARD_W = LambdaValue.family_size("W")
_CARD_L = LambdaValue.family_size("L")
_CARD_W_CONTAINING_C = LambdaValue.family_size("{E in W : C subset E}")
_CARD_X = None


# The case tables.  Each is an ordered tuple of (tag, required, forbidden,
# outcome) rows over valid, nonempty C and D in the space x.  The first row
# whose required atoms all hold and whose forbidden atoms all fail decides,
# so a row may assume that every earlier row failed; the last row requires
# and forbids nothing.  An outcome is either the reason no design exists,
# or a (multiplicity, kind) pair, a value (_CARD_X is card(X)) and one of the
# four witness kinds of _KINDS; decide and _plan are the tables' two readers,
# and each refuses a kind _KINDS does not hold.

_TYPE1 = (
    ("remark-card", C_GT_D, 0,
     "card(C) > card(D): no copy of D can contain a copy of C"),
    ("a1", C_FINITE, _B_IN_C_OR_D,
     "C is finite and b is outside C and D: the b-containing copies "
     "of C lie in no block pair-equivalent to D"),
    ("a2", C_SMALL, _B_IN_C_OR_D, (_CARD_W, ClassW)),
    ("a3", D_COSIZE_1, _B_IN_C_OR_D, (_ONE_BLOCK, Singleton)),
    ("a3", 0, _B_IN_C_OR_D,
     "with card(C) = card(D) = card(X) and b outside C and D, a design "
     "exists only when D = X \\ {b}"),
    ("b", B_IN_C, B_IN_D,
     "b is in C but not in D: no block pair-equivalent to D contains b, "
     "so C itself is uncovered"),
    # b is in D from here on: finite C in the c1 rows, infinite C after them
    ("c1-bound", C_FINITE | C_PLUS_2_GT_D, 0,
     "finite C with b in D requires card(C) + 2 <= card(D)"),
    ("c1-case5", C_FINITE | D_FINITE, 0, (_CARD_X, ClassW)),
    ("c1-case4", C_FINITE | X_ALEPH0 | D_COSIZE_0, 0, (_ONE_BLOCK, Singleton)),
    ("c1-case3", C_FINITE | X_ALEPH0 | D_COSIZE_FINITE, 0, (_ALEPH0_BLOCKS, ClassW)),
    ("c1-case2", C_FINITE | X_ALEPH0, 0, (_ALEPH0_BLOCKS, OddTail)),
    ("c1-case1", C_FINITE, 0, (_CARD_W, ClassW)),
    ("c2", C_SMALL, 0, (_CARD_W, ClassW)),
    ("c3", D_COSIZE_0, 0, (_ONE_BLOCK, Singleton)),
    ("c3", 0, 0,
     "with card(C) = card(D) = card(X) and b in D, a design exists only "
     "when D = X"),
)

_TYPE2 = (
    ("remark-card", C_GT_D, 0,
     "card(C) > card(D): C cannot be embedded into D"),
    # with card(C) <= card(D), exactly the C that do not embed into D
    ("b", B_IN_C, C_FINITE | B_IN_D,
     "C is infinite and contains b while D does not: C cannot be embedded "
     "into D"),
    ("t2-finite", C_FINITE | C_EQ_D, 0, (_ONE_BLOCK, ClassL)),
    ("t2-finite", C_FINITE, 0, (_CARD_L, ClassL)),
    # the type-1 verdict here is a2 or c2: the class of D, card(W) blocks
    ("t2-small", C_SMALL, 0, (_CARD_W, ClassW)),
    ("t2-full", 0, 0, (_ONE_BLOCK, Singleton)),
)

_TYPE3 = (
    ("t3-case1", B_IN_C, B_IN_D, "b is in C but not in D"),
    ("t3-case3", B_IN_D | C_GT_D_WITHOUT_B, B_IN_C,
     "card(C \\ {b}) > card(D \\ {b}) with b in D only"),
    ("t3-case2", C_GT_D_WITHOUT_B, 0,
     "card(C \\ {b}) > card(D \\ {b}) with b in both or neither"),
    ("t3-case4", COSIZE_D_GT_C, 0,
     "the part of X outside D and b is strictly larger than the part "
     "outside C and b"),
    ("t3", 0, 0, (_CARD_W_CONTAINING_C, ClassW)),
)

# Any type-2 witness also satisfies the weaker probe condition IV, so type 4
# is type 2 with its existence rows relabelled.
_TYPE4 = tuple(
    (tag if isinstance(outcome, str) else "t4", required, forbidden, outcome)
    for tag, required, forbidden, outcome in _TYPE2
)

_RULES = {
    DesignType.TYPE1: _TYPE1,
    DesignType.TYPE2: _TYPE2,
    DesignType.TYPE3: _TYPE3,
    DesignType.TYPE4: _TYPE4,
}

CASE_TAGS = frozenset(row[0] for table in _RULES.values() for row in table)


def _deciding_row(table, m: int) -> tuple:
    """The first row whose required atoms all hold in m and forbidden ones
    all fail; ValueError if it names a witness kind ``_KINDS`` does not hold."""
    for row in table:
        _, required, forbidden, outcome = row
        if m & required == required and not m & forbidden:
            if not isinstance(outcome, str) and outcome[1] not in _KINDS:
                raise ValueError(f"unknown witness kind {outcome[1]!r}")
            return row


def decide_type1(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-1 design (conditions II and III).

    A design exists iff card(C) <= card(D), b is not in C without being in
    D, and one of these holds:

    * b is outside C and D, C is infinite, and card(C) < card(X) or
      D = X \\ {b};
    * b is in D, C is finite, and card(C) + 2 <= card(D);
    * b is in D, C is infinite, and card(C) < card(X) or D = X.

    The cases, their tags and witnesses are the rows of ``_TYPE1``.
    """
    return decide(DesignType.TYPE1, c, d, space)


def decide_type2(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-2 design (conditions I and III).

    A design exists exactly when C embeds into D.  The cases, their tags and
    witnesses are the rows of ``_TYPE2``.
    """
    return decide(DesignType.TYPE2, c, d, space)


def decide_type3(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-3 design (conditions II and IV).

    A design exists iff b is not in C without being in D, the b-free part of
    C fits inside that of D, and the b-free part of D's complement fits
    inside that of C's.  The cases, their tags and the witness are the rows
    of ``_TYPE3``.
    """
    return decide(DesignType.TYPE3, c, d, space)


def decide_type4(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> Verdict:
    """Decide existence of a type-4 design (conditions I and IV).

    Existence coincides with type 2, exactly when C embeds into D: the table
    ``_TYPE4`` is ``_TYPE2`` with every existence row tagged ``t4``.
    """
    return decide(DesignType.TYPE4, c, d, space)


def decide(
    design_type: DesignType,
    c: SubsetDescriptor,
    d: SubsetDescriptor,
    space: SpaceDescriptor,
) -> Verdict:
    """Decide existence of a design of the given type for C and D in the space."""
    table = _RULES[DesignType.of(design_type)]
    _require_valid(space, C=c, D=d)
    tag, _, _, outcome = _deciding_row(table, _mask(_facts(c, space), _facts(d, space)))
    if isinstance(outcome, str):
        return Verdict.no(tag, outcome)
    multiplicity, kind = outcome
    if multiplicity is _CARD_X:
        multiplicity = LambdaValue.exact(space.size)
    build, _ = _KINDS[kind]
    return Verdict.yes(multiplicity, build(d, space), tag)


class CrosscheckReport(NamedTuple):
    """The four equivalent non-existence statements, evaluated independently.

    ``no_type2`` and ``no_type4`` come from the tables, ``obstruction`` is
    the direct membership/cardinality condition, ``not_embeddable`` negates
    the embedding predicate.  All four must agree.
    """

    no_type2: bool
    no_type4: bool
    obstruction: bool
    not_embeddable: bool

    @property
    def consistent(self) -> bool:
        return self.no_type2 == self.no_type4 == self.obstruction == self.not_embeddable

    def disagreements(self) -> list[tuple[str, str]]:
        names = self._fields
        return [
            (names[i], names[j])
            for i in range(4)
            for j in range(i + 1, 4)
            if self[i] != self[j]
        ]


def crosscheck(
    c: SubsetDescriptor, d: SubsetDescriptor, space: SpaceDescriptor
) -> CrosscheckReport:
    """Evaluate the four-way non-existence equivalence for types 2 and 4."""
    _require_valid(space, C=c, D=d)
    m = _mask(_facts(c, space), _facts(d, space))
    *_, no_type2, no_type4 = _plan(tuple(_RULES.items()), m)
    return CrosscheckReport(no_type2, no_type4, _obstruction(c, d), not embeddable(c, d))


def _obstruction(c: SubsetDescriptor, d: SubsetDescriptor) -> bool:
    """The direct condition: C is larger than D, or infinite with b while D lacks b."""
    return (c.size.infinite and c.contains_b and not d.contains_b) or c.size > d.size


def witness_violations(
    witness: FamilyDescriptor,
    d: SubsetDescriptor,
    space: SpaceDescriptor,
) -> list[str]:
    """Validity conditions for a witness family in the given context; a bad space,
    or a D that ``validate`` refuses where odd-tail reads D, is reported alone.
    A class family is checked by its base alone, a singleton by its member."""
    problems = _space_violations(space)
    if problems:
        return problems
    if isinstance(witness, (ClassW, ClassL)):
        problems += [f"class base: {p}" for p in _violations(witness.base, space)]
    elif isinstance(witness, Singleton):
        problems += [f"singleton member: {p}" for p in _violations(witness.member, space)]
    elif isinstance(witness, OddTail):
        problems = [f"D: {p}" for p in validate(d, space)]
        if problems:
            return problems
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


class SweepReport(NamedTuple):
    """Outcome of an exhaustive grid sweep."""

    cases: int
    violations: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


# the most cases a sweep runs: sweep(0, 78), 99,225 cases, took 0.067-0.12 s, median
# 0.071 s or 0.7 us a case, in 30 fresh processes (2-vCPU Intel Xeon VM, Python 3.11.7)
SWEEP_BUDGET = 10**5
# (s, t): t weakens one of s's conditions, II to I or III to IV, so s implies t
_IMPLIED_TYPES = ((1, 2), (1, 3), (2, 4), (3, 4))


def _sweep_cases(max_aleph: int, max_finite: int, finite_sizes_only: bool) -> int:
    """Cases a sweep runs, in closed form so that any ladder is counted at
    once: aleph_i's grid has a + 4i descriptors with a = 4m+3, or 2m if
    finite-only, and the sum of (a+4i)^2 over i = 0..K is
    (K+1)a^2 + 8a K(K+1)/2 + 16 K(K+1)(2K+1)/6."""
    k, n = max_aleph, max_aleph + 1
    if finite_sizes_only:
        return n * (2 * max_finite) ** 2
    a = 4 * max_finite + 3
    return n * a * a + 4 * a * k * n + 16 * (k * n * (2 * k + 1) // 6)


def _plan(rules: tuple, m: int) -> tuple:
    """What mask m settles under rules, a tuple of (type, table) pairs, for
    every C and D: the (type, witness kind) of each type that exists, the
    distinct kinds, the broken lattice edges, no type 2 and no type 4."""
    # each deciding row's tag is checked here, as neither sweep nor crosscheck
    # builds a verdict; a type's kind is None when it does not exist
    kinds = {}
    for t, table in rules:
        tag, _, _, outcome = _deciding_row(table, m)
        _check_tag(tag)
        kinds[t] = None if isinstance(outcome, str) else outcome[1]
    return (
        tuple((t, kind) for t, kind in kinds.items() if kind),
        tuple(dict.fromkeys(kind for kind in kinds.values() if kind)),
        tuple(
            f"type {s} exists but type {t} does not"
            for s, t in _IMPLIED_TYPES
            if kinds[s] and not kinds[t]
        ),
        not kinds[DesignType.TYPE2],
        not kinds[DesignType.TYPE4],
    )


def _witness_problems(kind, d: SubsetDescriptor, space, checks: dict) -> list[str]:
    """The problems of kind's family over D, kept in the space's record
    ``checks`` under what the check reads; the family is built on a miss."""
    build, reads = _KINDS[kind]
    key = reads(d)
    problems = checks.get(key)
    if problems is None:
        problems = checks[key] = witness_violations(build(d, space), d, space)
    return problems


# The plans of the rule set swept last: (rules, {mask: plan}).  A sweep
# under other rules replaces them, so one rule set's plans are kept.
_plans: tuple = ((), {})


def sweep(
    max_aleph: int = 1,
    max_finite: int = 6,
    finite_sizes_only: bool = False,
    inject_fault: bool = False,
) -> SweepReport:
    """Run every consistency property over the full descriptor grid.

    Per (C, D, space) triple: the four-way crosscheck, the condition lattice
    (a type implies one with a weaker ``condition_ii`` or ``condition_iv``),
    card(C) <= card(D) for every existence verdict, and witness validity.
    ``ValueError`` is raised before any case runs unless ``max_aleph`` and
    ``max_finite`` are exactly ``int`` and the flags exactly ``bool``, with
    ``max_aleph >= 0``, ``max_finite >= 1`` and at most ``SWEEP_BUDGET``
    cases, the only bound on the ladder, counted before any space is built;
    a deciding row with an unknown case tag or witness kind raises it when
    its mask is planned.  ``inject_fault`` flips the obstruction statement
    on a subset of cases so the harness can prove it detects violations.

    The work is split by what it reads.  A mask's plan (``_plan``), with
    the check of its rows' tags and witness kinds, is built once per rule
    set and kept across calls.  In a call, each descriptor's ``_facts`` are
    unpacked once for its row, as C, and once for its column, as D, which
    also keeps D's witness problems; a witness is checked, and its family
    built, once per (what its kind's check reads, X), and no verdict is
    built.  A case composes ``_mask``'s atoms from its row's and column's
    reads, with no call, runs only the checks that read C, and builds
    nothing unless one of them finds a problem.  A violation's text is
    built from parts made once per call: X's text once per space, a
    descriptor's text when a violation first names it, and the crosscheck
    clause once per tuple of the four statements.
    """
    global _plans
    if _exactly(int, max_aleph, "max_aleph") < 0:
        raise ValueError(f"max_aleph must be >= 0, got {max_aleph}")
    if _exactly(int, max_finite, "max_finite") < 1:
        raise ValueError(f"max_finite must be >= 1, got {max_finite}")
    _exactly(bool, finite_sizes_only, "finite_sizes_only")
    _exactly(bool, inject_fault, "inject_fault")
    planned = _sweep_cases(max_aleph, max_finite, finite_sizes_only)
    if planned > SWEEP_BUDGET:
        raise ValueError(
            f"a sweep of {planned} cases exceeds the budget of {SWEEP_BUDGET} cases"
        )
    rules = tuple(_RULES.items())
    kept, plans = _plans
    if kept != rules:
        plans = {}
        _plans = (rules, plans)
    violations: list[str] = []
    # a violation's parts, each made once in the call: a descriptor's text,
    # and the crosscheck clause of each tuple of the four statements
    names = {}
    clauses = {}
    cases = 0
    for i in range(max_aleph + 1):
        space = SpaceDescriptor(Cardinal.aleph(i))
        x_text = f"X={space.size}"
        grid = descriptor_grid(space, max_finite, finite_sizes_only)
        rows = []
        # per D: what the mask reads of it, and its witness problems by kind,
        # drawn from the space's checks
        columns = []
        for s in grid:
            as_c, as_d, size, size_plus_2, size_minus_b, cosize_minus_b = _facts(s, space)
            rows.append((s, as_c, size, size_plus_2, size_minus_b, cosize_minus_b))
            columns.append((s, as_d, size, size_minus_b, cosize_minus_b, {}))
        checks = {}
        for c, c_atoms, c_size, c_size_plus_2, c_size_minus_b, c_cosize_minus_b in rows:
            for d, d_atoms, d_size, d_size_minus_b, d_cosize_minus_b, checked in columns:
                cases += 1
                # _mask's atoms, from the row's and the column's reads
                m = c_atoms | d_atoms
                c_gt_d = c_size > d_size
                if c_gt_d:
                    m |= C_GT_D
                elif c_size == d_size:
                    m |= C_EQ_D
                if c_size_plus_2 > d_size:
                    m |= C_PLUS_2_GT_D
                if c_size_minus_b > d_size_minus_b:
                    m |= C_GT_D_WITHOUT_B
                if d_cosize_minus_b > c_cosize_minus_b:
                    m |= COSIZE_D_GT_C
                plan = plans.get(m)
                if plan is None:
                    plan = plans[m] = _plan(rules, m)
                existing, kinds, lattice, no_type2, no_type4 = plan
                larger = existing and c_gt_d
                obstruction = _obstruction(c, d)
                if inject_fault and cases % 7 == 0:
                    obstruction = not obstruction
                not_embeddable = not embeddable(c, d)
                clean = not (lattice or larger) and (
                    no_type2 == no_type4 == obstruction == not_embeddable
                )
                for kind in kinds:
                    problems = checked.get(kind)
                    if problems is None:
                        problems = checked[kind] = _witness_problems(kind, d, space, checks)
                    clean = clean and not problems
                if clean:
                    continue
                problems = []
                for t, kind in existing:
                    if larger:
                        problems.append(f"type {t} exists with card(C) > card(D)")
                    problems += [f"type {t} witness: {p}" for p in checked[kind]]
                problems += lattice
                statements = (no_type2, no_type4, obstruction, not_embeddable)
                clause = clauses.get(statements)
                if clause is None:
                    clause = clauses[statements] = _crosscheck_clause(statements)
                problems += clause
                c_text = names.get(c) or names.setdefault(c, str(c))
                d_text = names.get(d) or names.setdefault(d, str(d))
                violations += [f"{x_text} C={c_text} D={d_text}: {p}" for p in problems]
    return SweepReport(cases, tuple(violations))


def _crosscheck_clause(statements: tuple) -> tuple[str, ...]:
    """A sweep's problem when the four crosscheck statements disagree; none
    when they agree."""
    report = tuple.__new__(CrosscheckReport, statements)
    if report.consistent:
        return ()
    pairs = ", ".join("/".join(p) for p in report.disagreements())
    return (f"crosscheck disagrees on {pairs}",)
