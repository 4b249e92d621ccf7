"""Shared helpers for the test suite."""

from fractions import Fraction
from itertools import permutations
from math import isqrt, lcm

from partabel.freeproduct import EMPTY_WORD, P, Q, AlgebraElement, concat_words
from partabel.linalg import SparseEchelon, _echelon_rank, _rref, solve_linear
from partabel.reptheory import mat_add, mat_mul, mat_scale, mat_sub, tern_mul
from partabel.scalars import Domain, ExtensionField, UniPoly, add_term


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


def biv_eval(f, poly, z1, z2):
    """The value of a bivariate polynomial {(i, j): c} at (z1, z2), summed
    term by term: an oracle for "the point kills every conic" that shares
    nothing with the library's Horner evaluation."""
    acc = f.zero
    for (i, j), c in poly.items():
        term = c
        for _ in range(i):
            term = f.mul(term, z1)
        for _ in range(j):
            term = f.mul(term, z2)
        acc = f.add(acc, term)
    return acc


def irreducible_extension(base, degree):
    """base[t]/(t^d + t + c) for the least c >= 1 that is irreducible."""
    for c in range(1, 100):
        cs = [base.from_int(c), base.one] + [base.zero] * (degree - 2) + [base.one]
        try:
            return ExtensionField(base, UniPoly(base, cs))
        except ValueError:
            continue
    raise AssertionError("no irreducible trinomial found")


def solve_inverse(E, a):
    """The inverse of a nonzero residue a of the extension E as
    ``ExtensionField.inv`` computed it for every element before base-field
    scalars inverted in the base field: the d x d base-field system whose
    column j is a * t^j, solved by ``_rref``.  Kept as the oracle."""
    base, d = E.base, E.degree
    cols = [a]
    for _ in range(1, d):
        cols.append(E.mul(cols[-1], E.gen()))
    rows = [[c.coeffs[i] if i < len(c.coeffs) else base.zero for c in cols]
            + [base.one if i == 0 else base.zero] for i in range(d)]
    solved, pivots = _rref(base, rows, d)
    assert len(pivots) == d
    return UniPoly(base, [r[d] for r in solved])


class GenericEchelon(SparseEchelon):
    """An echelon whose rows take the Domain branch of the loop whatever
    the field: over QQ, the oracle for the fraction-free branch."""

    def __init__(self, field):
        super().__init__(field)
        self._modp, self._qq = None, False


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


def permutation_determinant(f, m):
    """Oracle: the Leibniz sum over all permutations, signed by inversions."""
    n = len(m)
    total = f.zero
    for perm in permutations(range(n)):
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, m[i][j])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


def bareiss_determinant(f, m):
    """Oracle: the fraction-free (Bareiss) determinant over an integral
    domain.  Each division is by the previous pivot, which divides exactly,
    so ``f.div`` need only be exact on such inputs."""
    a = [list(r) for r in m]
    n = len(a)
    sign = 1
    prev = f.one
    for k in range(n - 1):
        if f.is_zero(a[k][k]):
            swap = next((i for i in range(k + 1, n) if not f.is_zero(a[i][k])), None)
            if swap is None:
                return f.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = f.div(f.sub(f.mul(a[i][j], a[k][k]), f.mul(a[i][k], a[k][j])), prev)
            a[i][k] = f.zero
        prev = a[k][k]
    return a[n - 1][n - 1] if sign == 1 else f.neg(a[n - 1][n - 1])


def sylvester_matrix(f, g):
    """The Sylvester matrix of f and g, f-rows first; f has positive degree
    and g is nonzero, so (1, 0) gives the 1 x 1 matrix of g's constant."""
    field, m, n = f.field, f.degree, g.degree
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    return ([[field.zero] * i + fc + [field.zero] * (n - 1 - i) for i in range(n)]
            + [[field.zero] * i + gc + [field.zero] * (m - 1 - i) for i in range(m)])


class PolyRing(Domain):
    """Univariate polynomials over a field as a ring, through ``UniPoly``'s
    operators: enough for ``permutation_determinant`` and
    ``bareiss_determinant`` of a matrix whose entries are polynomials, such as a Sylvester matrix in z2 over k[z1]."""

    def __init__(self, base):
        self.base = base

    @property
    def zero(self):
        return UniPoly(self.base, [])

    @property
    def one(self):
        return UniPoly(self.base, [self.base.one])

    def div(self, a, b):
        """Exact division, all ``bareiss_determinant`` needs; an inexact
        one raises."""
        q, r = a.divmod(b)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q


def solve_divide_by_line(f, cubic, line):
    """Exact division of a ternary cubic by a linear form, or None, solved
    as a 10 x 6 linear system for the quadratic cofactor: what
    ``reptheory._tern_divide_by_line`` ran before it divided directly, kept
    as its oracle."""
    mons2 = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if i + j + k == 2]
    mons3 = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
             if i + j + k == 3]
    lform = {(1, 0, 0): line[0], (0, 1, 0): line[1], (0, 0, 1): line[2]}
    cols = []
    for m in mons2:
        prod = tern_mul(f, {m: f.one}, lform)
        cols.append([prod.get(mm, f.zero) for mm in mons3])
    matrix = [[cols[c][r] for c in range(len(mons2))] for r in range(len(mons3))]
    rhs = [cubic.get(mm, f.zero) for mm in mons3]
    sol = solve_linear(f, matrix, rhs)
    if sol is None:
        return None
    return {m: c for m, c in zip(mons2, sol) if not f.is_zero(c)}


def word_tuple_row(span, u, k, v):
    """The row of u * X_k * v built on word tuples: each term (w, c) of X_k
    through ``concat_words`` twice and an index lookup, accumulated by
    ``add_term``.  The oracle for the column arithmetic of ``IdealSpan``."""
    row = {}
    for w, c in span.relations[k].terms.items():
        w1 = concat_words(u, w)
        w2 = None if w1 is None else concat_words(w1, v)
        if w2 is not None:
            add_term(span.field, row, span.index[w2], c)
    return row


def extend_by_word_tuples(span, window):
    """``IdealSpan.extend_to_window`` as it ran before its rows came from
    column arithmetic: the same tail criterion, flag layout and feed order,
    every row from ``word_tuple_row``.  Kept as the oracle."""
    span.table.ensure(window + span._max_relation_degree())
    nrel = len(span.relations)
    for s in range(span.window + 1, window + 1):
        gave_pivot = []
        for lu in range(s + 1):
            us, vs = span._length_block(lu), span._length_block(s - lu)
            width = len(vs) * nrel
            flags = bytearray(len(us) * width)
            if lu:
                tail_flags = span._gave_pivot[s - 1][lu - 1]
                tail_start = span._length_block(lu - 1).start
            for i, iu in enumerate(us):
                u = span.words[iu]
                tail_at = (span.index[u[1:]] - tail_start) * width if lu else 0
                for j, iv in enumerate(vs):
                    for k in range(nrel):
                        at = j * nrel + k
                        if lu and not tail_flags[tail_at + at]:
                            continue
                        row = word_tuple_row(span, u, k, span.words[iv])
                        if span._feed((None, row, None), 0, iu, iv, k):
                            flags[i * width + at] = 1
            gave_pivot.append(flags)
        span._gave_pivot.append(gave_pivot)
    span.window = window


def bottom_up_normal_forms(span, max_degree):
    """The normal form of every word of degree <= max_degree, filled
    bottom-up in the word order from the span's pivot rows: the loop
    ``IdealSpan.normal_forms`` ran before it computed only the forms it was
    asked for, kept as its oracle.  No memo."""
    span.table.ensure(max_degree)
    f = span.field
    nf = {}
    for i in range(span._length_block(max_degree).stop):
        row = span.ech.pivots.get(i)
        if row is None:
            nf[i] = {i: f.one}
            continue
        acc = {}
        for u, cu in row.items():
            if u < 0:
                continue
            for b, cb in nf[u].items():
                add_term(f, acc, b, f.mul(f.neg(cu), cb))
        nf[i] = acc
    return nf


def split_dims_oracle(cert):
    """Ranks of left multiplication by p1, p2 and 1 - p1 - p2 on the
    certified basis, read from the structure constants: the dimensions of
    p_i * S that the pipeline reads off the evaluation isomorphism."""
    f, n = cert.field, cert.dimension_bound
    i1, i2, unit = (cert.basis_index(w) for w in (((P, 1),), ((P, 2),), EMPTY_WORD))
    p3 = {unit: f.one, i1: f.neg(f.one), i2: f.neg(f.one)}
    dims = []
    for p in ({i1: f.one}, {i2: f.one}, p3):
        images = [cert.multiply(p, {j: f.one}) for j in range(n)]
        dims.append(_echelon_rank(f, [[b.get(k, f.zero) for k in range(n)] for b in images]))
    return tuple(dims)


def relation_matrix_oracle(f, rho, y):
    """rho(X) for X = [p1,q1] + y1[p1,q2] + y2[p2,q1] + y3[p2,q2], written
    out by hand from the commutators of rho's letter matrices, with the
    chart y over rho's field f."""
    y1, y2, y3 = y
    p1, p2, q1, q2 = (rho.letters[(tag, i)] for tag in (P, Q) for i in (1, 2))

    def comm(a, b):
        return mat_sub(f, mat_mul(f, a, b), mat_mul(f, b, a))
    m = comm(p1, q1)
    m = mat_add(f, m, mat_scale(f, comm(p1, q2), y1))
    m = mat_add(f, m, mat_scale(f, comm(p2, q1), y2))
    return mat_add(f, m, mat_scale(f, comm(p2, q2), y3))
