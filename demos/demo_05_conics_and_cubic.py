#!/usr/bin/env python3
# The representation pipeline: rewriting t_i q_j, the induced 3-dimensional
# module, the three conics, the determinantal cubic and the degree-3
# extension where the conics meet.

from fractions import Fraction

from partabel import QQ, build_rho, conics, determinantal_cubic, intersect_conics, irreducibility, tq_rewrite
from partabel.reptheory import (
    commutator_conic_consistency, compare_rho_to_reference, mat_is_zero,
    split_determinantal_cubic,
)
from partabel.scalars import FunctionField

F3 = FunctionField(("y1", "y2", "y3"))
F5 = FunctionField(("y1", "y2", "y3", "z1", "z2"))

# solve the idempotent laws for t1 q1, t1 q2, t2 q1, t2 q2 symbolically;
# the system determinant is d^2 with d = y3 - y1 y2, and the derived
# formulas are exact identities in the free product
rw = tq_rewrite(F3, F3.gens())
print("rewrite verified in the free product:", rw.verified_in_free_product)
print("system determinant:", rw.determinant.reduce_full())
print("mismatches against the tabulated closed forms (misprints there):")
for m in rw.reference_mismatches:
    print("  ", m["rule"], "term", m["word"], "differs by", m["derived_minus_reference"])

# the induced module on (1, q1, q2) gives explicit 3x3 matrices; they agree
# with the tabulated matrices entry for entry
rho = build_rho(F5, F5.gens()[:3], F5.gens()[3:])
print("\nidempotent identities hold symbolically:", rho.idempotent_identities_hold())
print("entrywise match with tabulated matrices:", compare_rho_to_reference(rho) == [])

# commutativity of t1, t2 on the module is equivalent to three conics in
# (z1, z2); each commutator entry is a unit multiple of one of them
cc = commutator_conic_consistency(rho)
print("commutator entries are unit multiples of the conics:", cc["equivalent"])

# specialize: conics at y = (2, 3, 5)
y = (Fraction(2), Fraction(3), Fraction(5))
tri = conics(QQ, y)
print("\nc1 at y=(2,3,5):", dict(sorted(tri.c1.items())))

# the three conics meet in three points cut out by a cubic f; one point has
# exact coordinates over the extension QQ[t]/(f)
spec = intersect_conics(QQ, y)
print("f =", spec.f_poly, " factor degrees:", spec.factor_degrees)
print("discriminant square?", spec.disc_is_square)
print("intersection point: z1 =", spec.ext.fmt(spec.z1) if spec.extension_degree > 1 else spec.z1,
      " z2 =", spec.ext.fmt(spec.z2) if spec.extension_degree > 1 else spec.z2)

# over that extension the representation kills the relation and generates
# the full 3x3 matrix algebra (Burnside: irreducible)
ext = spec.ext
yext = tuple(ext.from_base(c) for c in y)
rhoK = build_rho(ext, yext, (spec.z1, spec.z2))
print("rho(X) = 0 over the extension:", mat_is_zero(ext, rhoK.relation_matrix()))
print("generated matrix algebra:", irreducibility(ext, rhoK))

# the determinantal cubic of the net of conics is a union of three lines,
# certified exactly: a line of the cubic through two conjugate base points
# divides it, and the quadratic cofactor is degenerate.  At (2, 3, 5) the
# line lives over the cubic extension; at (-1, 3, 1) the conics meet in a
# rational point and a conjugate pair, and the line is defined over QQ
for yc in (y, (Fraction(-1), Fraction(3), Fraction(1))):
    tri_c = conics(QQ, yc)
    spec_c = intersect_conics(QQ, yc)
    split = split_determinantal_cubic(QQ, determinantal_cubic(QQ, yc, tri_c), spec_c, tri_c)
    print(f"\nsplit at y={tuple(map(str, yc))} (factor degrees {spec_c.factor_degrees}):",
          split.splits, f"[{split.mode}]")
    print("  ", split.detail)
