"""Walk through the decision engine on a handful of representative shapes.

Each ``Query`` fixes the ambient space, the probe shape C and the block
shape D symbolically and is validated once, when it is built; then it is
asked for all four design types and the crosscheck.  Run from the repo root:

    python demos/decide_walkthrough.py
"""

from fortdesign import (
    ALEPH0,
    ALEPH1,
    Cardinal,
    DesignType,
    Query,
    SpaceDescriptor,
    SubsetDescriptor,
)

F = Cardinal.finite


def show(title, c, d, space):
    print(f"\n{title}")
    print(f"  space: card(X) = {space.size},  C = {c},  D = {d}")
    query = Query(space, c, d)
    for t in DesignType:
        verdict = query.decide(t)
        if verdict.exists:
            print(
                f"  type {int(t)}: exists, lambda = {verdict.lambda_}, "
                f"witness = {verdict.witness.to_text()}  [{verdict.case_tag}]"
            )
        else:
            print(f"  type {int(t)}: none  [{verdict.case_tag}] {verdict.reason}")
    report = query.crosscheck()
    print(f"  four-way crosscheck consistent: {report.consistent}")


X0 = SpaceDescriptor(ALEPH0)
X1 = SpaceDescriptor(ALEPH1)

# A two-point probe against a split countable space: the explicit odd-tail
# family appears as the type-1 witness.
show(
    "countable space, halved",
    SubsetDescriptor(F(2), True, ALEPH0),
    SubsetDescriptor(ALEPH0, True, ALEPH0),
    X0,
)

# The particular point lies in C but not in D: nothing survives.
show(
    "b trapped in C",
    SubsetDescriptor(ALEPH0, True, ALEPH0),
    SubsetDescriptor(ALEPH0, False, ALEPH0),
    X0,
)

# Finite blocks admit designs only with two points of slack.
show(
    "tight finite blocks",
    SubsetDescriptor(F(3), True, ALEPH0),
    SubsetDescriptor(F(4), True, ALEPH0),
    X0,
)
show(
    "roomy finite blocks",
    SubsetDescriptor(F(3), True, ALEPH0),
    SubsetDescriptor(F(5), True, ALEPH0),
    X0,
)

# An uncountable space with a countable probe keeps the multiplicity symbolic.
show(
    "uncountable space, countable probe",
    SubsetDescriptor(ALEPH0, True, ALEPH1),
    SubsetDescriptor(ALEPH0, True, ALEPH1),
    X1,
)
