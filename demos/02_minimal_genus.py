"""Minimal genus of ACM curves from h-vector arithmetic.

An h-vector (c_0, ..., c_r) packs degree d = sum c_i and genus
g = sum (i-1) c_i.  Front-loading the entries minimizes the genus, and
for nondegenerate curves in 4-space the minimum has a closed form.
"""

from math import comb

from glicci import (
    dg_of,
    enumerate_hvectors,
    min_genus,
    min_genus_formula,
    s_zero,
)

print("minimal genus of nondegenerate ACM curves in 4-space:")
print(f"{'d':>4} {'G_min':>6} {'formula':>8} {'s0':>4}   witness")
for d in range(4, 31):
    genus, witness = min_genus(d, 3, nondegenerate=True)
    print(f"{d:>4} {genus:>6} {min_genus_formula(d):>8} {s_zero(witness):>4}   {witness}")
print()

# The same arithmetic in codimension 2 recovers the genera of the ACM
# curves in 3-space that the reduction planner leans on: (4,1), (5,2),
# (6,3), (7,5), (8,7), (9,9), (10,11).
print("minimal genus of nondegenerate ACM curves in 3-space:")
for d in range(3, 11):
    genus, witness = min_genus(d, 2, nondegenerate=True)
    print(f"  d={d:>2}: g={genus:>2}  witness {witness}")
print()

# Brute force agrees: enumerate every h-vector of a given degree and
# take the smallest genus directly.
d = 12
vectors = enumerate_hvectors(d, 3)
best = min(vectors, key=lambda h: dg_of(h)[1])
print(f"degree {d}: {len(vectors)} valid h-vectors; "
      f"enumeration minimum {dg_of(best)[1]} at {best}, "
      f"greedy gives {min_genus(d, 3, nondegenerate=False)[0]}")
print()

# Determinantal zero-schemes in 3-space from t x (t+2) matrices of
# linear forms have degree binom(t+2, 3): 1, 4, 10, 20, ...
print("determinantal point-set degrees:", [comb(t + 2, 3) for t in range(1, 7)])
