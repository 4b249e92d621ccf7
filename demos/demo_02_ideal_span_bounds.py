#!/usr/bin/env python3
# Spanning the two-sided ideal of the commutator relation degree by degree
# and reading off certified dimension bounds for the quotient S_x.

import random
from fractions import Fraction

from partabel import IdealSpan, make_relation, stabilization_scan, standard_generator_rank
from partabel.quotient import chart_in_field
from partabel.scalars import PrimeField, QQ, random_prime

# a generic chart point (1 : 2 : 3 : 7); off the quadric since 7 != 2*3
y = (Fraction(2), Fraction(3), Fraction(7))
rel = make_relation(QQ, chart=y)
print("relation X =", rel.element)

# the canonical 13 + 40 low-degree generators of the ideal span a
# 42-dimensional space inside F^4, leaving at most 61 - 42 = 19 dimensions
r = standard_generator_rank(rel)
print("\n53-generator rank:", r["rank"], " degree-4 bound:", r["degree4_bound"])
print("with the diagonal conjugates p_i X p_i, q_i X q_i included:",
      r["rank_with_diagonal_conjugates"], "(they are dependent)")

# the full product span with a slack window exposes the degree drops and
# sharpens the bound to 18
span = IdealSpan(rel)
for window in (4, 6):
    span.extend_to_window(window)
    print(f"window {window}: bounds", [span.bound(n) for n in range(2, 7)])

# the same scan over two prime fields agrees (cross-check standard)
rng = random.Random(0)
for _ in range(2):
    gf = PrimeField(random_prime(rng))
    relp = make_relation(gf, chart=chart_in_field(gf, y))
    rep = stabilization_scan(relp, 2, 8)
    print(f"GF({gf.p}): stabilized at degree {rep.stabilized_at}, "
          f"bound {rep.certificate.dimension_bound}")

# at a generic quadric point the quotient collapses to the nine characters
relq = make_relation(QQ, point=tuple(Fraction(c) for c in (1, 2, 2, 4)))
repq = stabilization_scan(relq, 2, 8)
print("\nquadric point (1:2:2:4): bound",
      repq.certificate.dimension_bound,
      "commutative:", repq.certificate.is_commutative())

# at the known infinite-dimensional point the bounds keep growing; this is
# evidence, not proof
gf = PrimeField(random_prime(rng))
relb = make_relation(gf, point=(gf.one, gf.zero, gf.zero, gf.neg(gf.one)))
repb = stabilization_scan(relb, 2, 8, slack=2, window_cap=9)
print("\npoint (1:0:0:-1):",
      [repb.per_degree[n]["quotient_bound"] for n in range(2, 9)])
print(repb.note)
