"""Tour of the countable concrete model: naturals with b = 0.

Shows the topology predicates, explicit homeomorphisms, and the odd-tail
block family with its containment counts.  Run from the repo root:

    python demos/concrete_oracle.py
"""

from fortdesign import (
    ALEPH0,
    Cardinal,
    ConcreteSet,
    OddTail,
    OddTailBlock,
    SubsetDescriptor,
    blocks_containing,
    canonical_homeomorphism,
    check_homeomorphism,
    extract_descriptor,
    is_open,
    limit_points,
    local_design_check,
)

F = ConcreteSet.finite
Co = ConcreteSet.cofinite_set

print("-- topology --")
for s in (F((1, 5, 9)), Co((3,)), F((0, 2))):
    print(f"  {s.to_text():12}  open: {is_open(s)!s:5}  limit points: {limit_points(s).to_text()}")

print("\n-- homeomorphisms --")
u, v = Co((1, 3)), Co(())
m = canonical_homeomorphism(u, v)
print(f"  {u.to_text()} ~ {v.to_text()}: map {m.to_text()}, b -> {m.apply(0, u, v)}")
print(f"  verified independently: {check_homeomorphism(m, u, v)}")
print(f"  {Co((0,)).to_text()} ~ {Co(()).to_text()}: "
      f"{canonical_homeomorphism(Co((0,)), Co(()))}  (limit point counts differ)")

print("\n-- the odd-tail family --")
for s in (1, 2, 3):
    block = OddTailBlock(s)
    head = [x for x in range(12) if x in block]
    print(f"  block {s}: starts {head} ...")

for probe in (F((0, 2, 4)), F((5,)), F((0, 9))):
    count = blocks_containing(OddTail(), probe, cutoff=50)
    print(f"  probe {probe.to_text():10} lies in {count} of the first 50 blocks")

print("\n-- full witness check --")
c = SubsetDescriptor(Cardinal.finite(2), True, ALEPH0)
d = SubsetDescriptor(ALEPH0, True, ALEPH0)
probes = [F((0, 4)), F((0, 8)), F((3, 7))]
report = local_design_check(OddTail(), c, d, probes, cutoff=50, require_complement=True)
print(f"  blocks checked: {report.blocks_checked}, shape failures: {len(report.block_failures)}")
for probe_report in report.probes:
    print(f"  {probe_report.probe.to_text():10} count {probe_report.count}")
print(f"  consistent: {report.consistent}")
print(f"  block 1 realizes descriptor {extract_descriptor(OddTailBlock(1))}")
