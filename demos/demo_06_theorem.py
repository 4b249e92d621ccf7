#!/usr/bin/env python3
# End to end: at random generic points of P^3 the quotient S_x has
# dimension exactly 18 and decomposes as nine scalars plus one 3x3 block.
# The upper bound comes from the closure certificate, the lower bound from
# evaluating the certified basis on the nine characters and the nine matrix
# coordinates of a 3-dimensional representation over k itself, read off the
# closure's letter action; the block is M3(k), with no field extension.

from fractions import Fraction

from partabel import certify_point_multi, sample_generic_points, suspected_nongeneric
from partabel.pipeline import certify_quadric_point
from partabel.scalars import QQ

# five deterministic random sample points, off the quadric and off the nine
# degeneracy planes where the coefficient matrix loses an entry in some
# elimination chart
points = sample_generic_points(seed=2024, count=5)
for x in points:
    rep = certify_point_multi(x, mode="prime", seed=1)
    run = rep["runs"][0]
    print(f"x = {tuple(str(c) for c in x)}")
    print(f"   upper {run['upper_bound']}  lower {run['lower_bound']} "
          f" -> {rep['verdict']}  (agreement across primes: {rep['agreement']})")

# the same point certified once more over the rationals, fully exact
rep = certify_point_multi(points[0], mode="rational")
run = rep["runs"][0]
print("\nrational run:", rep["verdict"],
      " center dim:", run["center_dim"],
      " trace form rank:", run["trace_form_rank"],
      " p_i-split dims:", run["split_dims"])

# quadric points certify dimension 9 instead
q = tuple(Fraction(c) for c in (1, 2, 2, 4))
print("\nquadric point (1:2:2:4):", certify_quadric_point(QQ, q))

# points on a degeneracy plane are flagged up front; the span bounds
# provably fail to stabilize there
bad = tuple(Fraction(c) for c in (1, 1, 2, 3))  # x11 = x12
print("\n(1:1:2:3) suspected non-generic:", suspected_nongeneric(QQ, bad))
