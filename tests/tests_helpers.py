"""Shared helpers for the test suite."""

from fractions import Fraction
from math import isqrt, lcm

from partabel.freeproduct import P, Q, AlgebraElement
from partabel.linalg import SparseEchelon
from partabel.scalars import ExtensionField, UniPoly


def random_element(sig, field, rng, max_deg=4, terms=4):
    t = {}
    for _ in range(rng.randint(1, terms)):
        L = rng.randint(0, max_deg)
        w = []
        tag = rng.choice([P, Q])
        for _ in range(L):
            w.append((tag, rng.randint(1, (sig.a if tag == P else sig.b) - 1)))
            tag = 1 - tag
        t[tuple(w)] = field.from_int(rng.randint(-5, 5))
    return AlgebraElement(sig, field, t)


def irreducible_extension(base, degree):
    """base[t]/(t^d + t + c) for the least c >= 1 that is irreducible."""
    for c in range(1, 100):
        cs = [base.from_int(c), base.one] + [base.zero] * (degree - 2) + [base.one]
        try:
            return ExtensionField(base, UniPoly(base, cs))
        except ValueError:
            continue
    raise AssertionError("no irreducible trinomial found")


class GenericEchelon(SparseEchelon):
    """An echelon whose rows go through the generic Domain loop whatever
    the field: over QQ, the oracle for the fraction-free loop."""

    def add_row(self, row):
        return self._eliminate_generic(row, None)

    def reduce(self, row):
        out = {}
        self._eliminate_generic(row, out)
        return out


def divisor_rational_roots(f):
    """The distinct rational roots of a nonzero polynomial over QQ, sorted,
    by the rational root test: every n/q with n | a_0 and q | a_k, the
    divisors found by trial division up to the square root.  Exponential
    in the bit length; the oracle for ``scalars.rational_roots``."""
    coeffs = [Fraction(c) for c in f.coeffs]
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small]))

    for n in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            for cand in (Fraction(n, q), Fraction(-n, q)):
                if cand not in roots and f.evaluate(cand) == 0:
                    roots.append(cand)
    return sorted(roots)
