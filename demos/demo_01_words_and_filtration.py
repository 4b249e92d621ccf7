#!/usr/bin/env python3
# Words in the free product k^3 * k^3, the length filtration, and the
# central element of k^2 * k^2.

from fractions import Fraction

from partabel import (
    AlgebraElement, Signature, QQ, central_element_check, commutator,
    filtration_dim, idempotent,
)
from partabel.freeproduct import P, Q, word_from_str

sig = Signature(3, 3)

# the factor algebras are presented by orthogonal idempotents; the last one
# of each factor is eliminated through p1 + p2 + p3 = 1
p1 = idempotent(sig, QQ, P, 1)
p3 = idempotent(sig, QQ, P, 3)
print("p3 =", p3)                      # 1 - p1 - p2
print("p3 * p3 == p3:", p3 * p3 == p3)
print("p1 * p3 == 0:", (p1 * p3).is_zero())

# reduced words multiply by concatenation with boundary contraction
w = lambda s: AlgebraElement.from_word(sig, QQ, word_from_str(s))
print("\n(p1.q1) * (p2)    =", w("p1.q1") * w("p2"))
print("(q1.p1) * (p1.q2) =", w("q1.p1") * w("p1.q2"))   # p1 p1 merges
print("(q1.p1) * (p2.q2) =", w("q1.p1") * w("p2.q2"))   # p1 p2 = 0

# the filtration dimension has the closed form 2^(k+2) - 3 for (3, 3)
print("\nfiltration dimensions (3,3):")
for k in range(0, 9):
    print(f"  dim F^{k} = {filtration_dim(sig, k):5d}   closed form {2**(k+2)-3:5d}")
print("filtration (3,2) at degree 2:", filtration_dim(Signature(3, 2), 2))

# the canonical text form that reports print
e = w("p1.q2.p1").scale(Fraction(3, 2)) - w("q1")
print("\ntext form:", e.to_text())

# in k^2 * k^2 the element z = -p - q + pq + qp is central
print("\ncentral element of k^2 * k^2:", central_element_check())
