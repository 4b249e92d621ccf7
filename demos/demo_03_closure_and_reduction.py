#!/usr/bin/env python3
# The closure certificate: a monomial basis closed under multiplication,
# the degree-4 rewrite coefficients, and the symmetry identities.

from fractions import Fraction

from partabel import QQ, closure_certificate, make_relation, reduction_coefficients, sigma_check
from partabel.freeproduct import word_str
from partabel.pipeline import certify_point, certify_quadric_point
from partabel.quotient import IdealSpan, spanning_monomials_rank, verify_reduction_identity

y = (Fraction(2), Fraction(3), Fraction(7))
rel = make_relation(QQ, chart=y)

cert, span = closure_certificate(rel)
print("certified dimension bound:", cert.dimension_bound)
print("monomial basis:")
print("  ", [word_str(w) for w in cert.basis])
print("closed at degree", cert.degree, "with product window", cert.window)
print("commutative:", cert.is_commutative())

# the point certificate proves S = k^9 (+) M3(k): its evaluation map onto
# the nine characters and rho_k, read off the closure's letter action over
# k itself, is an algebra isomorphism, so the table is associative; the
# three idempotent columns cut the quotient into thirds, 3 + 3 rank rho_k(p_i)
point = certify_point(QQ, (Fraction(1),) + y)
print("exact dimension:", point.exact_dimension, "(so the table is associative)")
print("dims of p1*S, p2*S, (1-p1-p2)*S:", point.split_dims)

# at a quadric point the nine characters alone prove S = k^9, commutative
# and associative, without building the table
print("quadric point (1:2:2:4):",
      certify_quadric_point(QQ, tuple(Fraction(c) for c in (1, 2, 2, 4))))

# the classical 19-monomial spanning list has exactly one linear dependence
print("19-monomial list:", spanning_monomials_rank(cert, span))

# rewrite coefficients of degree-4 words:
#   p_i q_j p_k q_l = alpha(i,j,k,l) * p2q1p1q1 + (degree <= 3 tail)
table = reduction_coefficients(rel)
print("\nalpha(2,1,1,1) =", table.alpha[(2, 1, 1, 1)],
      " tail:", table.tails_pq[(2, 1, 1, 1)])
print("alpha(2,2,1,1) =", table.alpha[(2, 2, 1, 1)])
print("beta(1,1,1,1)  =", table.beta[(1, 1, 1, 1)])
print("product:", table.alpha_beta_product(),
      " != 1 (this is what forces degree-5 words down into F^4)")

# every one of the 32 identities is an exact ideal member
spanv = IdealSpan(rel)
spanv.extend_to_window(6)
ok = all(verify_reduction_identity(rel, spanv, table, i, j, k, l, side)
         for i in (1, 2) for j in (1, 2) for k in (1, 2) for l in (1, 2)
         for side in ("pq", "qp"))
print("all 32 identities reduce to zero in the span:", ok)

# the symmetry action: sigma1 swaps p1, p2 and rescales X by 1/y2; sigma2
# swaps p1 with 1 - p1 - p2 and negates X
print("\nsymmetry identities:", sigma_check())
