"""Mobius inversion and the sieve: subtraction done right.

Summing a function over an order ideal is easy to undo once you know the
Mobius function of the poset.  On the subset lattice this is classical
inclusion-exclusion; on the divisor poset it is the number-theoretic
Mobius function.  Sylvester's and Jordan's formulas package the same idea
for explicit event families.
"""

from fractions import Fraction

from exactcomb import (
    boolean_lattice,
    derangement,
    derangement_fixed,
    divisor_poset,
    invert,
    jordan_counts,
    mobius,
    surjection_count,
    sylvester_count,
    touchard,
)
from exactcomb.verify.sieve import derangement_family, menage_family

print("Mobius values on the subset lattice of {1,2,3} from the bottom:")
lat = boolean_lattice(3)
mu = mobius(lat)
bottom = frozenset()
for b in sorted(lat.elements, key=lambda s: (len(s), sorted(s))):
    print(f"  mu(empty, {set(b) if b else '{}'}) = {mu(bottom, b)}")

print("\nSurjections 4 -> 3 by inverting g(B) = |B|^4 over the lattice:")
lat3 = boolean_lattice(3)
g = {b: Fraction(len(b) ** 4) for b in lat3.elements}
f = invert(lat3, g)
top = frozenset({1, 2, 3})
print("  inversion gives", f[top], "; alternating formula gives",
      surjection_count(4, 3))

print("\nDivisor poset of 12: mu(1, d) for each divisor d")
P = divisor_poset(12)
muP = mobius(P)
print("  ", {d: muP(1, d) for d in P.elements})

print("\nSieve on the 'sigma(i) = i' event family (n = 5):")
fam = derangement_family(5)
print("  survivors (no fixed point):", sylvester_count(fam),
      "= d_5 =", derangement(5))
print("  exactly-m table:", jordan_counts(fam))
print("  closed form:    ",
      [derangement_fixed(5, k) for k in range(6)])

print("\nSame machinery solves the menage seating problem:")
for n in (3, 4, 5):
    fam = menage_family(n)
    print(f"  n={n}: sieve {sylvester_count(fam)}, alternating formula {touchard(n)}")
