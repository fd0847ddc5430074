"""Reduction chains: n general points down to a single point.

Each plan is a chain of liaison or biliaison moves, every step
checked against its containment and effectiveness bounds.  The oracle
rebuilds the whole admissible-move graph independently and confirms by
breadth-first search that each chain only uses real edges.
"""

from glicci import (
    build_oracle,
    p3_descending_moves,
    plan,
)
from glicci.errors import OutOfGuaranteedRange

for space, n in (("p2", 17), ("quadric", 23), ("cubic-surface", 18), ("p3", 19)):
    chain = plan(space, n)
    print(f"{n} general points, {space}:")
    for step in chain.steps:
        print(f"  {step.n_from} -> {step.n_to} {step.descriptor()}")
    print()

# The cubic-surface planner needs ascending and descending liaisons;
# watch the chain for 54 climb before it falls.
print("cubic surface, n = 54:", plan("cubic-surface", 54))
print()

# Independent cross-check: reachability of every count up to 200 in the
# admissible-move graph, plus edge-by-edge confirmation of one chain.
oracle = build_oracle("cubic-surface", 200)
print("cubic-surface counts 1..200 all reachable:",
      all(oracle.is_reachable(n) for n in range(1, 201)))
print("oracle confirms the n = 54 chain edge by edge:",
      oracle.confirms(plan("cubic-surface", 54)))
print()

# Twenty general points in 3-space are the open case: every carrier in
# the general-points table fails a bound, so no descending move exists.
try:
    plan("p3", 20)
except OutOfGuaranteedRange as exc:
    print(f"n = 20 in 3-space: {exc}")
print("admissible descending moves from 20:", p3_descending_moves(20))
print("admissible descending moves from 19:", p3_descending_moves(19))
