"""The explicit representation pipeline for the generic quotient.

The chart subspace is spanned by t1 = p1 - y2*q1 - y3*q2 and
t2 = p2 + q1 + y1*q2 (so the commutator relation reads [t1, t2] = 0 in the
quotient).  This module:

* solves the four idempotent identities for the products t_i q_j, turning
  every word into a combination of q-prefixed t-words (valid whenever
  d = y3 - y1*y2 is nonzero, i.e. off the quadric); the t/q words are
  ``AlgebraElement`` words over ``SIG_TQ``, where t1, t2 are free letters;
* induces the 3-dimensional module on the span of 1, q1, q2 from the
  character t1 -> z1, t2 -> z2, producing explicit matrices;
* holds every representation, induced or not, as its letter matrices
  p1, p2, q1, q2 (``RepMatrices``): the matrix of any element, the
  relation X and the chart's t-letters included, is read off them
  (``element_matrix``); X itself is written only in ``make_relation``;
* extracts the three conics in (z1, z2) forced by commutativity, the
  determinantal cubic of the net, and the degree-3 extension over which the
  conics meet in three points;
* builds a chart's representation in one place, ``chart_representation``:
  the conic intersection over k, then the module over its extension, for
  the pipeline and the ``rep`` command alike;
* certifies that the cubic splits into three lines by dividing out the line
  of one join of base points (``split_determinantal_cubic``), the one split
  test at every extension degree;
* reads a second 3-dimensional representation, rho_k, off a closure
  certificate's letter action over k itself (``letter_representation``):
  the action on a right ideal l*J, J the common kernel of the nine
  characters.  It needs no conic, no extension and no t*q rewrite;
* assembles the evaluation map onto nine characters plus the nine matrix
  coordinates of a representation, over k for rho_k or over the conic
  extension E for the induced one, whose rank is the dimension lower bound
  that meets the closure certificate's upper bound; over QQ and QQ(theta)
  the rank is taken first on rows built from the GF(l) image of the letter
  matrices (``evaluation_rank``), and the exact rows are built only when
  that image falls short.  At a point exact over k it reads the type
  (center, trace form, idempotent splits, irreducibility) off that
  isomorphism (``wedderburn_type``); the exact Burnside span
  ``irreducibility`` serves the ``rep`` command, which has no closure.

Closed forms previously tabulated for the t_i q_j rewrites, the matrices and
the conics are kept as reference data; everything is re-derived from the
defining relations and mismatches against the reference are reported, never
silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import isqrt

from .freeproduct import (
    P, Q, T, AlgebraElement, Signature, Word, idempotent, word_str,
)
from .linalg import SparseEchelon, _echelon_rank, _rref, modular_image
from .quotient import on_quadric
from .scalars import (
    DegenerateSpecialization, Domain, ExtensionField, FunctionField, Polynomial,
    PrimeField, RationalField, RationalFunction, UniPoly, add_term,
    base_field_roots, factor_cubic, gcd_univariate,
)

SIG33 = Signature(3, 3)

# Words in t1, t2, q1, q2: the t-letters are free, the q-letters are the
# reduced idempotents of the second factor (no p-letter occurs)
SIG_TQ = Signature(3, 3, free=2)
T1, T2, Q1, Q2 = (T, 1), (T, 2), (Q, 1), (Q, 2)
P1, P2 = (P, 1), (P, 2)

UNKNOWN_WORDS: tuple[Word, ...] = ((T1, Q1), (T1, Q2), (T2, Q1), (T2, Q2))


def _tq_in_free_product(field: Domain, y: tuple) -> dict:
    """Images of the letters t1, t2, q1, q2 in the free product for a chart
    triple."""
    y1, y2, y3 = y
    p1 = idempotent(SIG33, field, P, 1)
    p2 = idempotent(SIG33, field, P, 2)
    q1 = idempotent(SIG33, field, Q, 1)
    q2 = idempotent(SIG33, field, Q, 2)
    t1 = p1 - q1.scale(y2) - q2.scale(y3)
    t2 = p2 + q1 + q2.scale(y1)
    return {T1: t1, T2: t2, Q1: q1, Q2: q2}


@dataclass
class TQRewrite:
    """Solved rewrites t_i q_j -> span{1, t_a, q_a, t_a t_b, q_a t_b}.  The
    self-checks are computed when first read, so a caller that only uses
    the rules does not pay for them."""

    field: Domain
    y: tuple
    rules: dict[Word, AlgebraElement]

    @cached_property
    def verified_in_free_product(self) -> bool:
        """Every rule holds for the images of its letters in k^3 * k^3."""
        f = self.field
        images = _tq_in_free_product(f, self.y)
        for u in UNKNOWN_WORDS:
            rhs = AlgebraElement.zero(SIG33, f)
            for w, c in self.rules[u].terms.items():
                acc = AlgebraElement.unit(SIG33, f)
                for letter in w:
                    acc = acc * images[letter]
                rhs = rhs + acc.scale(c)
            if not (images[u[0]] * images[u[1]] - rhs).is_zero():
                return False
        return True

    @cached_property
    def reference_mismatches(self) -> list[dict]:
        """Differences from ``reference_tq_rules``; empty unless the field
        is symbolic in (y1, y2, y3)."""
        f = self.field
        if not (isinstance(f, FunctionField) and f.vars[:3] == ("y1", "y2", "y3")):
            return []
        ref = reference_tq_rules(f)
        return [{"rule": word_str(u), "word": word_str(w),
                 "derived_minus_reference": repr(c)}
                for u in UNKNOWN_WORDS
                for w, c in sorted((self.rules[u] - ref[u]).terms.items())]


def _tq_relations(field: Domain, y: tuple) -> list[AlgebraElement]:
    """The idempotent laws p1^2 - p1, p2^2 - p2, p1 p2, p2 p1, rewritten
    through p1 = t1 + y2 q1 + y3 q2 and p2 = t2 - q1 - y1 q2 as elements
    over ``SIG_TQ``: linear in the four unknown products t_i q_j."""
    f = field
    y1, y2, y3 = y
    t1, t2, q1, q2 = (AlgebraElement.from_word(SIG_TQ, f, (g,)) for g in (T1, T2, Q1, Q2))
    p1 = t1 + q1.scale(y2) + q2.scale(y3)
    p2 = t2 - q1 - q2.scale(y1)
    return [p1 * p1 - p1, p2 * p2 - p2, p1 * p2, p2 * p1]


def tq_rewrite(field: Domain, y: tuple) -> TQRewrite:
    """Derive the four t_i q_j rewrites from the idempotent laws of p1, p2
    (``_tq_relations``) by one Gauss-Jordan solve.  The 4 x 4 system in the
    unknown products has determinant d^2 over QQ(y), d = y3 - y1*y2 (the
    tests expand it), so the solve is exact off the quadric, which is
    refused first."""
    f = field
    if on_quadric(f, (f.one, *y)):
        raise DegenerateSpecialization("chart point lies on the quadric (d = 0)")
    relations = _tq_relations(f, y)
    known_words = sorted({w for r in relations for w in r.terms} - set(UNKNOWN_WORDS))
    # solve M * unknowns = rhs for every known-word column in one elimination
    rows = [[r.terms.get(u, f.zero) for u in UNKNOWN_WORDS]
            + [f.neg(r.terms.get(w, f.zero)) for w in known_words] for r in relations]
    solved, pivots = _rref(f, rows, 4)
    if len(pivots) < 4:
        raise DegenerateSpecialization("t*q system is singular at this point")
    rules = {u: AlgebraElement(SIG_TQ, f, dict(zip(known_words, solved[k][4:])))
             for k, u in enumerate(UNKNOWN_WORDS)}
    return TQRewrite(f, y, rules)


def reference_tq_rules(F: FunctionField) -> dict[Word, AlgebraElement]:
    """The previously tabulated closed forms of the four rewrites, encoded
    verbatim (including their suspected misprints) for comparison."""
    y1, y2, y3 = (F.gen(v) for v in ("y1", "y2", "y3"))
    d = y3 - y1 * y2

    def elem(table: dict[Word, RationalFunction]) -> AlgebraElement:
        return AlgebraElement(SIG_TQ, F, table)

    rules = {
        (T1, Q1): elem({
            (T1, T2): y3 / d, (Q1, T2): y2 * y3 / d, (Q2, T2): y3**2 / d,
            (Q1,): (y2**2 * y1 - y2 * y3 - y1 * y2) / d,
            (T1, T1): y1 / d, (Q1, T1): y1 * y2 / d, (Q2, T1): y1 * y3 / d,
            (T1,): -y1 / d, (Q2,): -y1 * y3 / d,
        }),
        (T1, Q2): elem({
            (T1, T1): -1 / d, (Q1, T1): -y2 / d, (Q2, T1): -y3 / d,
            (T1, T2): -y2 / d, (Q1, T2): -(y2**2) / d, (Q2, T2): -y2 * y3 / d,
            (T1,): 1 / d, (Q2,): (y1 * y2 * y3 + y3) / d, (Q1,): y2 / d,
        }),
        (T2, Q1): elem({
            (Q2,): y1 * y3 / d, (Q1,): (2 * y3 - y1 * y2) / d,
            (T2, T2): y3 / d, (Q1, T2): -y3 / d, (T2,): -y3 / d,
            (T2, T1): y1 / d, (Q2, T1): -(y1**2) / d, (Q2, T2): -y1 * y3 / d,
        }),
        (T2, Q2): elem({
            (T2, T1): -1 / d, (Q1, T1): 1 / d, (Q2, T1): y1 / d,
            (T2, T2): -y2 / d, (Q1, T2): y2 / d, (Q2, T2): y1 * y2 / d,
            (T2,): y2 / d, (Q1,): -y2 / d, (Q2,): (y1 * y3 - 2 * y1 * y2) / d,
        }),
    }
    return rules


# ---------------------------------------------------------------------------
# The induced 3-dimensional representation
# ---------------------------------------------------------------------------

def _mat_zero(f: Domain):
    return [[f.zero] * 3 for _ in range(3)]


def mat_mul(f: Domain, a, b):
    cols = list(zip(*b))
    return [[f.dot(row, col) for col in cols] for row in a]


def mat_add(f: Domain, a, b):
    return [[f.add(a[i][j], b[i][j]) for j in range(3)] for i in range(3)]


def mat_sub(f: Domain, a, b):
    return [[f.sub(a[i][j], b[i][j]) for j in range(3)] for i in range(3)]


def mat_scale(f: Domain, a, c):
    return [[f.mul(a[i][j], c) for j in range(3)] for i in range(3)]


def mat_eq(f: Domain, a, b) -> bool:
    return all(f.eq(a[i][j], b[i][j]) for i in range(3) for j in range(3))


def mat_is_zero(f: Domain, a) -> bool:
    return all(f.is_zero(a[i][j]) for i in range(3) for j in range(3))


def mat_identity(f: Domain):
    m = _mat_zero(f)
    for i in range(3):
        m[i][i] = f.one
    return m


@dataclass
class RepMatrices:
    """A 3-dimensional representation of k^3 * k^3 over ``field``, given by
    its letter matrices: ``letters`` maps p1, p2, q1, q2 to 3x3 matrices,
    and p3 = 1 - p1 - p2, q3 = 1 - q1 - q2.  Every other matrix is read
    off them: a word's by ``word_matrix``, an element's, the relation X
    included, by ``element_matrix``."""

    field: Domain
    letters: dict

    def __post_init__(self):
        f = self.field
        one = mat_identity(f)
        # word -> matrix, filled prefix by prefix by word_matrix and seeded
        # with the six letters, so a one-letter word costs no product
        self._words: dict = {(): one}
        for tag in (P, Q):
            m1, m2 = self.letters[(tag, 1)], self.letters[(tag, 2)]
            self._words.update({((tag, 1),): m1, ((tag, 2),): m2,
                                ((tag, 3),): mat_sub(f, one, mat_add(f, m1, m2))})

    def letter_matrix(self, letter) -> list:
        return self._words[(letter,)]

    def word_matrix(self, word) -> list:
        """Matrix of a word, built from the cached matrix of its longest
        proper prefix; the returned matrix is shared, not copied."""
        m = self._words.get(word)
        if m is None:
            m = mat_mul(self.field, self.word_matrix(word[:-1]),
                        self.letter_matrix(word[-1]))
            self._words[word] = m
        return m

    def element_matrix(self, elem: AlgebraElement) -> list:
        """rho(elem), the sum of c * rho(w) over the terms of ``elem``.  An
        element over the base field k of an extension ``field`` has its
        coefficients lifted."""
        f = self.field
        lift = (lambda c: c) if elem.field == f else f.from_base
        coeffs = [lift(c) for c in elem.terms.values()]
        mats = [self.word_matrix(w) for w in elem.terms]
        return [[f.dot(coeffs, [m[i][j] for m in mats]) for j in range(3)]
                for i in range(3)]

    def idempotent_identities_hold(self) -> bool:
        """p1, p2 and q1, q2 are orthogonal idempotents, so rho is a
        representation of k^3 * k^3."""
        f = self.field
        zero = _mat_zero(f)
        pairs = [(self.letters[(tag, 1)], self.letters[(tag, 2)]) for tag in (P, Q)]
        return all(mat_eq(f, mat_mul(f, a, b), a if i == j else zero)
                   for pair in pairs
                   for i, a in enumerate(pair) for j, b in enumerate(pair))


def build_rho(field: Domain, y: tuple, z: tuple,
              rewrite: TQRewrite | None = None) -> RepMatrices:
    """The letter matrices of the module induced from the character
    t1 -> z1, t2 -> z2 at the chart y, in the basis (1 (x) v, q1 (x) v,
    q2 (x) v), derived from the t_i q_j rewrites.

    The columns of t1 and t2 are the images of the basis vectors 1, q1, q2:
    a word acts through the rewrite rules and the character sends every
    trailing t-word to the corresponding product of z's.  p1 and p2 follow
    from t1, t2, q1, q2 through the chart.

    ``rewrite`` may be solved over the base field k of an extension
    ``field``; its coefficients are lifted as they are read.  That is the
    same rewrite: the 4x4 system and its right-hand sides have entries in k
    and a nonzero determinant off the quadric, so the unique solution over
    the extension is the lift of the one over k."""
    f = field
    z1, z2 = z
    rw = rewrite or tq_rewrite(f, y)
    lift = (lambda c: c) if rw.field == f else f.from_base
    zval = {T1: z1, T2: z2}

    def vec_of(elem: AlgebraElement) -> list:
        v = [f.zero, f.zero, f.zero]
        for w, c in elem.terms.items():
            coeff = lift(c)
            pos = 0
            rest = w
            if rest and rest[0][0] == Q:
                pos = rest[0][1]        # the basis vector q1 or q2
                rest = rest[1:]
            for letter in rest:
                if letter[0] == Q:
                    raise AssertionError(f"unreduced word {word_str(w)} in rewrite output")
                coeff = f.mul(coeff, zval[letter])
            v[pos] = f.add(v[pos], coeff)
        return v

    q1m = [[f.zero] * 3 for _ in range(3)]
    q1m[1][0] = f.one
    q1m[1][1] = f.one
    q2m = [[f.zero] * 3 for _ in range(3)]
    q2m[2][0] = f.one
    q2m[2][2] = f.one

    mats = {}
    for tname, zv in ((T1, z1), (T2, z2)):
        cols = [[zv, f.zero, f.zero]]
        for qname in (Q1, Q2):
            cols.append(vec_of(rw.rules[(tname, qname)]))
        mats[tname] = [[cols[j][i] for j in range(3)] for i in range(3)]
    # back from the chart's t-letters: p1 = t1 + y2 q1 + y3 q2, p2 = t2 - q1 - y1 q2
    y1, y2, y3 = y
    p1 = mat_add(f, mats[T1], mat_add(f, mat_scale(f, q1m, y2), mat_scale(f, q2m, y3)))
    p2 = mat_sub(f, mats[T2], mat_add(f, q1m, mat_scale(f, q2m, y1)))
    return RepMatrices(f, {P1: p1, P2: p2, Q1: q1m, Q2: q2m})


def t_matrices(field: Domain, y: tuple, rho: RepMatrices) -> tuple[list, list]:
    """rho(t1) and rho(t2) for the chart y over ``field``, which is
    ``rho.field`` or its base field."""
    tq = _tq_in_free_product(field, y)
    return rho.element_matrix(tq[T1]), rho.element_matrix(tq[T2])


def reference_rho(F: FunctionField) -> tuple[list, list]:
    """The previously tabulated matrices of t1 and t2 over the function
    field in (y1, y2, y3, z1, z2), for comparison against build_rho."""
    y1, y2, y3, z1, z2 = (F.gen(v) for v in ("y1", "y2", "y3", "z1", "z2"))
    d = y3 - y1 * y2
    t1 = [
        [z1, (y3 * z1 * z2 + y1 * z1**2 - y1 * z1) / d, (-z1**2 - y2 * z1 * z2 + z1) / d],
        [0 * z1, (y2 * y3 * z2 + y1 * y2**2 - y2 * y3 + y1 * y2 * z1 - y2 * y1) / d,
         (-y2 * z1 - y2**2 * z2 + y2) / d],
        [0 * z1, (y1 * y3 * z1 + y3**2 * z2 - y3 * y1) / d,
         (-y3 * z1 - y2 * y3 * z2 + y1 * y2 * y3 + y3 - y3**2) / d],
    ]
    t2 = [
        [z2, (y1 * z1 * z2 + y3 * z2**2 - y3 * z2) / d, (-z1 * z2 - y2 * z2**2 + y2 * z2) / d],
        [0 * z1, (-y1 * y2 - y3 * z2 + 2 * y3 - y1 * z1) / d, (z1 + y2 * z2 - y2) / d],
        [0 * z1, (-y1 * y3 * z2 + y1 * y3 - y1**2 * z1) / d,
         (y1 * z1 + y1 * y2 * z2 + y1 * y3 - y1**2 * y2 - y1 * y2) / d],
    ]
    return t1, t2


def compare_rho_to_reference(rho: RepMatrices) -> list[dict]:
    """Entrywise comparison of derived matrices against the tabulated ones;
    only meaningful over the 5-variable symbolic field.  No command calls
    it: demo_05 and the tests read the comparison."""
    F = rho.field
    if not (isinstance(F, FunctionField) and F.vars == ("y1", "y2", "y3", "z1", "z2")):
        raise TypeError("reference comparison needs the symbolic (y, z) field")
    ref_t1, ref_t2 = reference_rho(F)
    got_t1, got_t2 = t_matrices(F, F.gens()[:3], rho)
    out = []
    for name, got, ref in (("t1", got_t1, ref_t1), ("t2", got_t2, ref_t2)):
        for i in range(3):
            for j in range(3):
                diff = got[i][j] - ref[i][j]
                if not diff.is_zero():
                    out.append({
                        "matrix": name, "entry": f"({i + 1},{j + 1})",
                        "derived_minus_reference": repr(diff),
                    })
    return out


# ---------------------------------------------------------------------------
# Conics, the determinantal cubic, and intersections
# ---------------------------------------------------------------------------

BivPoly = dict[tuple[int, int], object]     # (z1-exp, z2-exp) -> coeff
TernForm = dict[tuple[int, int, int], object]  # exponents of (z0/a1, z1/a2, z2/a3)


@dataclass
class ConicTriple:
    field: Domain
    y: tuple
    c1: BivPoly
    c2: BivPoly
    c3: BivPoly

    def all(self) -> tuple[BivPoly, BivPoly, BivPoly]:
        return (self.c1, self.c2, self.c3)

    def matrices(self) -> list[list]:
        """Homogenized symmetric 3x3 coefficient matrices in (z0, z1, z2)."""
        return [_symmetric_matrix(self.field, {(2 - i - j, i, j): v for (i, j), v in c.items()})
                for c in self.all()]


def _symmetric_matrix(f: Domain, q: dict) -> list[list]:
    """The symmetric 3x3 matrix of a ternary quadratic form, keyed by
    exponent triples: squares on the diagonal, half the cross terms off it."""
    half = f.div(f.one, f.from_int(2))

    def entry(i, j):
        e = [0, 0, 0]
        e[i] += 1
        e[j] += 1
        c = q.get(tuple(e), f.zero)
        return c if i == j else f.mul(c, half)
    return [[entry(i, j) for j in range(3)] for i in range(3)]


def conics(field: Domain, y: tuple) -> ConicTriple:
    """The three conics in (z1, z2) equivalent to commutativity of t1, t2
    on the induced module, with the standard coefficient normalization."""
    f = field
    y1, y2, y3 = y
    mul, add, sub, neg = f.mul, f.add, f.sub, f.neg

    def clean(p: BivPoly) -> BivPoly:
        return {e: c for e, c in p.items() if not f.is_zero(c)}

    c1 = clean({
        (1, 1): add(mul(y1, y2), y3),
        (0, 2): mul(y2, y3),
        (2, 0): y1,
        (0, 1): neg(mul(y2, y3)),
        (1, 0): neg(y1),
    })
    c2 = clean({
        (2, 0): f.one,
        (0, 2): mul(y2, y2),
        (1, 1): add(y2, y2),
        (1, 0): sub(y3, add(mul(y1, y2), f.one)),
        (0, 1): sub(mul(y2, y3), add(mul(y1, mul(y2, y2)), mul(y2, y2))),
        (0, 0): sub(add(mul(y2, y2), mul(y1, y2)), add(y2, mul(y2, y3))),
    })
    c3 = clean({
        (2, 0): mul(y1, y1),
        (0, 2): mul(y3, y3),
        (1, 1): add(mul(y1, y3), mul(y1, y3)),
        (1, 0): sub(mul(mul(y1, y1), y2), add(mul(y1, y1), mul(y1, y3))),
        (0, 1): sub(mul(y1, mul(y2, y3)), add(mul(y3, y3), mul(y3, y3))),
        (0, 0): sub(add(mul(y1, y3), mul(y1, mul(y3, y3))),
                    add(mul(mul(y1, y1), y3), mul(y1, mul(y2, y3)))),
    })
    return ConicTriple(f, tuple(y), c1, c2, c3)


def commutator_conic_consistency(symbolic_rho: RepMatrices) -> dict:
    """Over the symbolic (y, z) field, every nonzero entry of
    [rho(t1), rho(t2)] is a unit multiple (a nonzero y-rational function) of
    one of the three conics, and all three conics occur, so the entries and
    the conics generate the same ideal; certified by exact proportionality
    tests, no elimination needed."""
    F = symbolic_rho.field
    assert isinstance(F, FunctionField) and F.vars == ("y1", "y2", "y3", "z1", "z2")
    base = FunctionField(("y1", "y2", "y3"))
    tri = conics(base, base.gens())
    named = list(zip(("c1", "c2", "c3"), tri.all()))
    t1, t2 = t_matrices(F, F.gens()[:3], symbolic_rho)
    comm = mat_sub(F, mat_mul(F, t1, t2), mat_mul(F, t2, t1))

    def proportional(p: BivPoly, q: BivPoly) -> bool:
        if set(p) != set(q):
            return False
        m0 = next(iter(q))
        lam = p[m0] / q[m0]
        return all(p[m] == lam * q[m] for m in q)

    entries = [_as_biv_over_y(e) for row in comm for e in row if not e.is_zero()]
    hits = [next((name for name, c in named if proportional(biv, c)), None)
            for biv in entries]
    all_proportional = None not in hits
    seen = set(hits) - {None}
    return {
        "nonzero_entries": len(entries),
        "entries_unit_multiples_of_conics": all_proportional,
        "all_three_conics_occur": seen == {"c1", "c2", "c3"},
        "equivalent": all_proportional and seen == {"c1", "c2", "c3"},
    }


def _as_biv_over_y(rf: RationalFunction) -> BivPoly:
    """Split a rational function in (y1,y2,y3,z1,z2) whose denominator is
    z-free into a polynomial in (z1,z2) with y-rational-function entries."""
    base = FunctionField(("y1", "y2", "y3"))
    den = rf.den
    if any(e[3] or e[4] for e in den.terms):
        raise ValueError("denominator involves z; cannot split")
    dpoly = Polynomial(base.vars, {e[:3]: c for e, c in den.terms.items()})
    out: BivPoly = {}
    for e, c in rf.num.terms.items():
        add_term(base, out, (e[3], e[4]),
                 RationalFunction(Polynomial(base.vars, {e[:3]: c}), dpoly))
    return out


# -- ternary forms -----------------------------------------------------------

def tern_add(f: Domain, a: TernForm, b: TernForm) -> TernForm:
    out = dict(a)
    for e, c in b.items():
        add_term(f, out, e, c)
    return out


def tern_mul(f: Domain, a: TernForm, b: TernForm) -> TernForm:
    out: TernForm = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            add_term(f, out, e, f.mul(c1, c2))
    return out


def tern_scale(f: Domain, a: TernForm, c) -> TernForm:
    if f.is_zero(c):
        return {}
    return {e: f.mul(v, c) for e, v in a.items()}


def determinantal_cubic(field: Domain, y: tuple,
                        triple: ConicTriple | None = None) -> TernForm:
    """det(a1*M1 + a2*M2 + a3*M3) for the homogenized conic matrices: a
    ternary cubic in (a1, a2, a3) whose zero locus parametrizes the
    degenerate conics of the net."""
    f = field
    tri = triple or conics(f, y)
    ms = tri.matrices()
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    entries = [[{a: m[i][j] for a, m in zip(units, ms) if not f.is_zero(m[i][j])}
                for j in range(3)] for i in range(3)]
    neg_one = f.neg(f.one)
    return det3(entries, partial(tern_add, f),
                lambda a, b: tern_add(f, a, tern_scale(f, b, neg_one)), partial(tern_mul, f))


def det3(m, add, sub, mul):
    """The determinant of a 3x3 matrix by cofactor expansion along its first
    row, in the ring operations given: a field's, or those of ternary forms
    over it (``determinantal_cubic``)."""
    (a, b, c), (d, e, g), (h, i, j) = m
    return add(sub(mul(a, sub(mul(e, j), mul(g, i))), mul(b, sub(mul(d, j), mul(g, h)))),
               mul(c, sub(mul(d, i), mul(e, h))))


# -- conic intersection over the degree-3 extension ---------------------------

@dataclass
class ExtensionSpec:
    """The cubic f cutting out the common z1-coordinates, the working
    extension (trivial if f has a root in the base), one intersection point
    over it, and diagnostics."""

    base: Domain
    f_poly: UniPoly
    factor_degrees: list[int]
    ext: Domain
    modulus: UniPoly | None
    z1: object
    z2: object
    disc_is_square: bool | None
    resultant_12: UniPoly
    resultant_13: UniPoly

    @property
    def extension_degree(self) -> int:
        return self.modulus.degree if self.modulus is not None else 1


def _conic_as_z2poly(f: Domain, c: BivPoly) -> list[UniPoly]:
    """A conic as a polynomial in z2 whose coefficients are polynomials in
    z1 over f, constant term first (for eliminating z2 first)."""
    cols: dict[int, dict[int, object]] = {}
    for (i, j), v in c.items():
        cols.setdefault(j, {})[i] = v
    coeffs = []
    for j in range(max(cols, default=0) + 1):
        col = cols.get(j, {})
        coeffs.append(UniPoly(f, [col.get(i, f.zero) for i in range(max(col, default=-1) + 1)]))
    return coeffs


def _z2_resultant(a: list[UniPoly], b: list[UniPoly]) -> UniPoly:
    """Res_z2(c1, cj), the determinant of the Sylvester matrix with the rows
    of c1 first, for conics given by their z2-coefficients a and b
    (``_conic_as_z2poly``), written out for the z2-degree pairs that occur:
    (2, 2) is (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1), (1, 2) is
    a1^2 b0 - a0 a1 b1 + a0^2 b2 and (1, 0) is b0.  Each is the expansion
    of that determinant, a polynomial identity in the coefficients.

    These are all: c1 has z2-degree 2 iff y2*y3 != 0, and degree 1
    otherwise; c2 has degree 2 iff y2 != 0, and 0 otherwise; c3 likewise
    with y3.  So y2 = 0 gives (1, 0) and (1, 2) for (c1, c2) and (c1, c3),
    y3 = 0 gives (1, 2) and (1, 0), and y2 = y3 = 0 lies on the quadric,
    which ``intersect_conics`` refuses before any resultant.  Any other
    pair raises ValueError."""
    degrees = (len(a) - 1, len(b) - 1)
    if degrees == (2, 2):
        (a0, a1, a2), (b0, b1, b2) = a, b
        c20 = a2 * b0 - a0 * b2
        return c20 * c20 - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)
    if degrees == (1, 2):
        (a0, a1), (b0, b1, b2) = a, b
        return a1 * a1 * b0 - a0 * a1 * b1 + a0 * a0 * b2
    if degrees == (1, 0):
        return b[0]
    raise ValueError(f"no conic resultant for z2-degrees {degrees}")


def _conic_at_z1(c: BivPoly, ext: Domain, z1) -> UniPoly:
    """Specialize z1 and view the conic, whose coefficients lie in the base
    field of ext, as a polynomial in z2 over ext; its value at z2 is the
    conic's at (z1, z2)."""
    cols: dict[int, object] = {}
    for (i, j), v in c.items():
        term = ext.from_base(v)
        for _ in range(i):
            term = ext.mul(term, z1)
        cols[j] = ext.add(cols.get(j, ext.zero), term)
    maxj = max(cols, default=0)
    return UniPoly(ext, [cols.get(j, ext.zero) for j in range(maxj + 1)])


def cubic_discriminant(f: Domain, poly: UniPoly):
    """Discriminant of a monic cubic z^3 + a z^2 + b z + c."""
    if poly.degree != 3 or not poly.is_monic():
        raise ValueError("expects a monic cubic")
    c0, b, a = poly.coeffs[0], poly.coeffs[1], poly.coeffs[2]
    t1 = f.mul(f.from_int(18), f.mul(a, f.mul(b, c0)))
    t2 = f.mul(f.from_int(4), f.mul(a, f.mul(a, f.mul(a, c0))))
    t3 = f.mul(f.mul(a, a), f.mul(b, b))
    t4 = f.mul(f.from_int(4), f.mul(b, f.mul(b, b)))
    t5 = f.mul(f.from_int(27), f.mul(c0, c0))
    return f.sub(f.add(f.sub(t1, t2), t3), f.add(t4, t5))


def _is_square(field: Domain, v) -> bool | None:
    if field.is_zero(v):
        return True
    if isinstance(field, PrimeField):
        return pow(v, (field.p - 1) // 2, field.p) == 1
    if isinstance(field, RationalField):
        n, d = v.numerator, v.denominator
        if n < 0:
            return False
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d
    return None


def intersect_conics(field: Domain, y: tuple) -> ExtensionSpec:
    """Eliminate z2 by resultants, extract the degree-3 factor of common
    z1-roots, and produce one exact intersection point of the three conics
    over the induced extension.  Degenerate degree patterns raise a
    resample signal rather than guessing; a chart on the quadric is refused
    before any resultant.  When f splits into linear factors, z2 is
    recovered above each distinct root, the last factor's first, until one
    has a single base point above it.  If none has, z2 is the least
    base-field root of the gcd of all three conics above the first root
    where that gcd has one."""
    f = field
    if on_quadric(f, (f.one, *y)):
        raise DegenerateSpecialization(
            "chart lies on the quadric y3 = y1*y2, where the conics degenerate")
    tri = conics(f, y)
    p1, p2, p3 = (_conic_as_z2poly(f, c) for c in tri.all())
    r12, r13 = _z2_resultant(p1, p2), _z2_resultant(p1, p3)
    if r12.is_zero() or r13.is_zero():
        raise DegenerateSpecialization("conics share a component at this point")
    fpoly = gcd_univariate(r12, r13)
    if fpoly.degree != 3:
        raise DegenerateSpecialization(
            f"common-root polynomial has degree {fpoly.degree}, expected 3; "
            "resample the specialization")
    factors = factor_cubic(f, fpoly)
    factors.sort(key=lambda g: g.degree)
    modulus = None
    if factors[-1].degree == 1:
        ext: Domain = f
        candidates = list(dict.fromkeys(f.neg(g.coeffs[0]) for g in reversed(factors)))
    else:
        modulus = factors[-1]
        ext = ExtensionField(f, modulus, check_irreducible=False)
        candidates = [ext.gen()]
    for z1 in candidates:
        g = gcd_univariate(_conic_at_z1(tri.c1, ext, z1),
                           _conic_at_z1(tri.c2, ext, z1))
        if g.degree == 1:
            z2 = ext.neg(g.coeffs[0])
            break
    else:
        z2 = None
        for z1 in candidates if ext is f else ():
            above = _conics_above(f, tri, z1)
            roots = base_field_roots(f, above) if above.degree > 0 else []
            if roots:
                z2 = roots[0]
                break
        if z2 is None:
            raise DegenerateSpecialization(
                f"z2 recovery polynomial has degree {g.degree}, expected 1; resample")
    for c in tri.all():
        if not ext.is_zero(_conic_at_z1(c, ext, z1).evaluate(z2)):
            raise AssertionError("constructed point does not kill every conic")
    return ExtensionSpec(
        base=f, f_poly=fpoly, factor_degrees=[g.degree for g in factors],
        ext=ext, modulus=modulus, z1=z1, z2=z2,
        disc_is_square=_is_square(f, cubic_discriminant(f, fpoly)),
        resultant_12=r12, resultant_13=r13,
    )


def chart_representation(field: Domain, y: tuple) -> tuple[ExtensionSpec, RepMatrices]:
    """The conic intersection at the chart y over k = ``field``, and the
    induced representation over its extension ``spec.ext``.  The t*q
    rewrite is solved once over k and lifted as ``build_rho`` reads it."""
    spec = intersect_conics(field, y)
    ext = spec.ext
    rho = build_rho(ext, tuple(ext.from_base(c) for c in y), (spec.z1, spec.z2),
                    rewrite=tq_rewrite(field, y))
    return spec, rho


def _conics_above(f: Domain, tri: ConicTriple, r) -> UniPoly:
    """The gcd of the three conics at z1 = r, a polynomial in z2 over f:
    its roots are the z2 of the base points above r."""
    c1z, c2z, c3z = (_conic_at_z1(c, f, r) for c in tri.all())
    return gcd_univariate(gcd_univariate(c1z, c2z), c3z)


# -- splitting the determinantal cubic into lines ------------------------------

@dataclass
class SplitReport:
    splits: bool | None
    mode: str
    lines: list
    detail: str = ""


def _base_point_join(spec: ExtensionSpec, tri: ConicTriple):
    """Two distinct base points whose join is defined over a field at hand:
    returns (field, start, step), the join being start + t*step in
    (z1, z2), or None when there is no such pair.

    Over a degree-3 extension the pair is the two roots of f(z)/(z - t)
    other than t, and the join lives over the extension.  Over a degree-2
    extension the pair is the two roots of the modulus, and the join is
    defined over the base field.  When every root of f is in the base field
    the pair is either the two base points above a root r whose conic gcd
    has degree 2, joined by the line z1 = r even when they are conjugate,
    or two base points above distinct roots.  With f = (z - r)^3 and a
    single base point above r there is none."""
    f = spec.base
    if spec.extension_degree == 1:
        points = []
        for r in dict.fromkeys(f.neg(g.coeffs[0]) for g in factor_cubic(f, spec.f_poly)):
            above = _conics_above(f, tri, r)
            if above.degree == 2:
                return f, (r, f.zero), (f.zero, f.one)
            if above.degree == 1:
                points.append((r, f.neg(above.coeffs[0])))
        if len(points) < 2:
            return None
        (r1, s1), (r2, s2) = points[:2]
        return f, (r1, s1), (f.sub(r2, r1), f.sub(s2, s1))
    if spec.extension_degree == 3:
        field = spec.ext
        fpoly = UniPoly(field, [field.from_base(c) for c in spec.f_poly.coeffs])
        pair, rem = fpoly.divmod(UniPoly(field, [field.neg(spec.z1), field.one]))
        assert rem.is_zero()
    else:
        field, pair = f, spec.modulus
    # the pair's z1-coordinates r2, r3 have r2 + r3 = e1, r2 * r3 = e2, and
    # z2 = G(z1) at both, with G the residue of z2 in base[t]/(modulus):
    # Galois equivariance makes one G recover every conjugate point
    e1, e2 = field.neg(pair.coeffs[1]), pair.coeffs[0]
    g = [field.from_base(c) for c in spec.z2.coeffs] + [field.zero] * 3
    # the joining line z2 = s*z1 + c: s is the divided difference of G,
    # (G(r2) - G(r3)) / (r2 - r3) = g1 + g2*e1, and 2c = G(r2) + G(r3) - s*e1
    s = field.add(g[1], field.mul(g[2], e1))
    power2 = field.sub(field.mul(e1, e1), field.add(e2, e2))   # r2^2 + r3^2
    g_sum = field.add(field.add(field.add(g[0], g[0]), field.mul(g[1], e1)),
                      field.mul(g[2], power2))
    c = field.div(field.sub(g_sum, field.mul(s, e1)), field.from_int(2))
    return field, (field.zero, c), (field.one, s)


def _third_point_line(spec: ExtensionSpec, tri: ConicTriple):
    """A line of the determinantal cubic, found exactly: the restriction of
    every conic of the net to a join of two base points vanishes at both, so
    the conics that also vanish at a third point of the join contain it;
    that condition is linear in (a1, a2, a3).  Returns the field of the line
    and its coefficients, or None when ``_base_point_join`` finds no join.
    The third point is not a base point, because the conics do not all
    vanish there."""
    join = _base_point_join(spec, tri)
    if join is None:
        return None
    field, (z1s, z2s), (z1d, z2d) = join
    for t in (3, 5, 7, 11, 2):
        tv = field.from_int(t)
        z1v, z2v = field.add(z1s, field.mul(tv, z1d)), field.add(z2s, field.mul(tv, z2d))
        coeffs = [_conic_at_z1(cc, field, z1v).evaluate(z2v) for cc in tri.all()]
        if not all(field.is_zero(v) for v in coeffs):
            return field, coeffs
    raise DegenerateSpecialization("could not place a third point on the joining line")


_QUADRATIC_MONOMIALS = tuple((i, j, 2 - i - j) for i in range(3) for j in range(3 - i))


def _tern_divide_by_line(f: Domain, cubic: TernForm, line: list):
    """Exact division of a ternary cubic by a nonzero linear form, or None
    when the remainder is nonzero.

    The cubic is divided as a polynomial in the first variable whose line
    coefficient is nonzero, highest power first, each step cancelling every
    term of that power.  Multiplying quadratics by a nonzero linear form is
    injective, so when the line divides the cubic the quadratic cofactor is
    unique: it is also the one solution of the 10 x 6 linear system for its
    coefficients, which the tests keep as the oracle.  The cofactor's keys
    come in the order of ``_QUADRATIC_MONOMIALS``."""
    v = next((i for i, c in enumerate(line) if not f.is_zero(c)), None)
    if v is None:
        raise ValueError("cannot divide by the zero linear form")
    inv = f.inv(line[v])
    others = [(w, c) for w, c in enumerate(line) if w != v and not f.is_zero(c)]
    rest: TernForm = {}
    for e, c in cubic.items():
        add_term(f, rest, e, c)
    quotient: TernForm = {}
    for d in (3, 2, 1):
        for e in [e for e in rest if e[v] == d]:
            q = f.mul(rest.pop(e), inv)
            qe = tuple(x - (i == v) for i, x in enumerate(e))
            quotient[qe] = q
            for w, c in others:
                add_term(f, rest, tuple(x + (i == w) for i, x in enumerate(qe)),
                         f.neg(f.mul(q, c)))
    if rest:
        return None
    return {m: quotient[m] for m in _QUADRATIC_MONOMIALS if m in quotient}


def split_determinantal_cubic(field: Domain, cubic: TernForm,
                              spec: ExtensionSpec, tri: ConicTriple) -> SplitReport:
    """Exact split certificate for the pipeline's cubic, at every extension
    degree that ``intersect_conics`` returns.

    One line of the cubic is found from a join of two base points
    (``_third_point_line``) and divided out, and the quadratic cofactor is
    certified degenerate (det = 0): the cubic is then a product of three
    linear forms over the closure.  The line lives over the degree-3
    extension, or over the base field at degrees 2 and 1.  When no two base
    points can be joined the split is undecided, and ``detail`` says why."""
    found = _third_point_line(spec, tri)
    if found is None:
        return SplitReport(None, "exact-base", [],
                           "f has a triple root with a single base point above "
                           "it, so no two base points give a line to divide by")
    lfield, line = found
    where, mode = (("degree-3 extension", "exact-extension") if spec.extension_degree == 3
                   else ("base field", "exact-base"))
    cofactor = _tern_divide_by_line(
        lfield, {e: lfield.from_base(c) for e, c in cubic.items()}, line)
    if cofactor is None:
        return SplitReport(False, mode, [],
                           f"line over the {where} does not divide the cubic")
    splits = lfield.is_zero(det3(_symmetric_matrix(lfield, cofactor),
                                 lfield.add, lfield.sub, lfield.mul))
    return SplitReport(
        splits, mode, [line],
        f"line over the {where} divides the cubic; "
        + ("cofactor quadric is degenerate (rank <= 2), so the cubic is a "
           "union of three lines over the closure" if splits
           else "cofactor quadric is nondegenerate"))


def split_into_lines(field: Domain, cubic: TernForm, tol=None) -> SplitReport:
    """Kept only for the ``strata_mix`` benchmark workload
    (``bench/workloads.py``), which calls it by name; ROADMAP item 1 deletes
    both that call and this function.  It decides nothing: the split test is
    ``split_determinantal_cubic``.  ``tol`` is ignored."""
    return SplitReport(None, "retired", [],
                       "the split test is split_determinantal_cubic")


# ---------------------------------------------------------------------------
# Irreducibility and the assembled evaluation map
# ---------------------------------------------------------------------------

def generated_matrix_algebra_dim(field: Domain, mats: list) -> int:
    """Dimension of the span of all words of length <= 4 in the given 3x3
    matrices and the identity (Burnside: irreducible iff 9).  A word that
    gives no pivot is not extended, since its products lie in the span of
    words already fed."""
    f = field
    ech = SparseEchelon(f)

    def flat(m):
        return {i * 3 + j: m[i][j] for i in range(3) for j in range(3)
                if not f.is_zero(m[i][j])}

    layer = [mat_identity(f)]
    ech.add_row(flat(layer[0]))
    for _ in range(4):
        if ech.rank == 9:
            break
        new_layer = []
        for m in layer:
            for g in mats:
                prod = mat_mul(f, m, g)
                if ech.add_row(flat(prod)) is not None:
                    new_layer.append(prod)
        if not new_layer:
            break
        layer = new_layer
    return ech.rank


def irreducibility(rho: RepMatrices) -> dict:
    dim = generated_matrix_algebra_dim(rho.field, [rho.letter_matrix(g) for g in (P1, P2, Q1, Q2)])
    return {"algebra_dimension": dim, "irreducible": dim == 9}


def characters33() -> list[tuple[int, int]]:
    """The nine one-dimensional modules: a choice of surviving idempotent in
    each factor."""
    return [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]


def character_value(f: Domain, word, char: tuple[int, int]):
    a, b = char
    v = f.one
    for tag, idx in word:
        hit = (idx == a) if tag == P else (idx == b)
        if not hit:
            return f.zero
    return v


def _char_on_element(f: Domain, elem, char: tuple[int, int]):
    acc = f.zero
    for w, c in elem.terms.items():
        acc = f.add(acc, f.mul(c, character_value(f, w, char)))
    return acc


def _character_kernel(cert) -> list[dict]:
    """A basis of J, the common kernel on span(B) of the nine characters,
    as coordinate vectors on the certified basis B.

    The character values on basis words are 0 and 1, so J comes from one
    sparse elimination: row i holds the values on b_i in the columns above
    |B|, and a 1 in column i.  A row whose character part cancels becomes
    a pivot row in the columns below |B| alone, with its own column i as
    the lead (earlier rows carry only lower ones): a kernel vector."""
    f, basis = cert.field, cert.basis
    n = len(basis)
    chars = characters33()
    ech = SparseEchelon(f)
    for i, w in enumerate(basis):
        row = {n + c: f.one for c, ch in enumerate(chars)
               if not f.is_zero(character_value(f, w, ch))}
        row[i] = f.one
        ech.add_row(row)
    return [{lead: f.one, **row} for lead, row in sorted(ech.pivots.items()) if lead < n]


def letter_representation(cert) -> RepMatrices | None:
    """rho_k: a 3-dimensional representation of S_x over k itself, read off
    the closure certificate's letter action; None when no letter below
    gives one.

    J (``_character_kernel``) is a two-sided ideal, the M3 block at a point
    of type k^9 (+) M3(k).  For the first letter l among p1, p2, p3, q1, q2,
    q3 with dim l*J = 3, M = l*J is a right ideal, a row of that block.
    Each l*b is e_l pushed through the letters of b.  rho_k(g) is the
    action of g on M: row r holds the coordinates of m_r * g, read off at
    the pivot columns of M's reduced echelon basis (m_1, m_2, m_3).  The
    MeatAxe spins submodules the same way (Parker 1984).

    Nothing here is trusted.  The lower bound rests only on the three
    checks of ``algebra_map_checks``: any matrices that pass them are a
    representation of S_x, wherever they came from.  The chart plays no
    part: rho_k is its four letter matrices as they are read."""
    f, basis = cert.field, cert.basis
    n = len(basis)

    def combine(terms) -> dict:
        acc: dict = {}
        for c, vec in terms:
            for k, d in vec.items():
                add_term(f, acc, k, f.mul(c, d))
        return acc
    kernel = _character_kernel(cert)
    unit = {cert.basis_index(()): f.one}
    gens = [((tag, i),) for tag in (P, Q) for i in (1, 2)]
    e = {g: cert.times_letter(unit, g) for g in gens}
    minus = f.neg(f.one)
    for tag in (P, Q):
        e[((tag, 3),)] = combine([(f.one, unit), (minus, e[((tag, 1),)]),
                                  (minus, e[((tag, 2),)])])
    # every prefix of a basis word, shortest first, so w[:-1] precedes w
    prefixes = sorted({w[:k] for w in basis for k in range(1, len(w) + 1)}, key=len)
    for letter in [((tag, i),) for tag in (P, Q) for i in (1, 2, 3)]:
        pushed = {(): e[letter]}
        for w in prefixes:
            pushed[w] = cert.times_letter(pushed[w[:-1]], w[-1:])
        rows = []
        for vec in kernel:
            acc = combine((c, pushed[basis[i]]) for i, c in vec.items())
            rows.append([acc.get(k, f.zero) for k in range(n)])
        echelon, pivots = _rref(f, rows, n)
        if len(pivots) == 3:
            break
    else:
        return None
    m = [{k: v for k, v in enumerate(row) if not f.is_zero(v)} for row in echelon[:3]]
    letters = {g[0]: [[cert.times_letter(mr, g).get(k, f.zero) for k in pivots] for mr in m]
               for g in gens}
    return RepMatrices(f, letters)


@dataclass
class WedderburnMap:
    field: Domain
    rank: int
    target_dim: int
    characters_kill_relation: bool
    rho_kills_relation: bool
    idempotent_identities: bool
    # the rank when it meets the closure's bound and the evaluation map is
    # an algebra map through S_x (see ``wedderburn_verify``), else None
    exact_dimension: int | None

    @property
    def exact(self) -> bool:
        return self.exact_dimension == self.target_dim


def _evaluation_rows(field: Domain, basis, rho: RepMatrices) -> list[list]:
    """Row b of the evaluation matrix: the nine character values of the
    word b, then the nine entries of rho(b)."""
    chars = characters33()
    rows = []
    for w in basis:
        m = rho.word_matrix(w)
        rows.append([character_value(field, w, ch) for ch in chars]
                    + [v for row in m for v in row])
    return rows


def image_evaluation_rows(basis, rho: RepMatrices):
    """(GF(l), the evaluation rows on ``basis`` over GF(l)) for the map h of
    rho's field onto GF(l) (``Domain.modular_image``), or None when there is
    no image or a letter entry is not l-integral.

    h maps the four letter matrices of rho once, and the rows are built
    from a ``RepMatrices`` over GF(l).  h is a ring map on l-integral
    elements, so h(rho(w)) is the product of the letter images: the rows
    are the image of the exact rows."""
    image = modular_image(rho.field, lambda h: {
        g: [[h(v) for v in row] for row in m] for g, m in rho.letters.items()})
    if image is None:
        return None
    gf, letters = image
    return gf, _evaluation_rows(gf, basis, RepMatrices(gf, letters))


def evaluation_rank(basis, rho: RepMatrices) -> int:
    """Rank over rho's field E of the evaluation matrix on ``basis``, taken
    first on its GF(l) image (``image_evaluation_rows``).  A rank can only
    drop under a ring map, so an image of full rank min(|basis|, 18) is the
    exact rank.  A short image, a letter entry that is not l-integral, or a
    field with no image (GF(p) and its extensions) takes the exact rows
    through ``_echelon_rank``, with no second image check."""
    full = min(len(basis), 18)
    image = image_evaluation_rows(basis, rho)
    if image is not None and _echelon_rank(*image) == full:
        return full
    return _echelon_rank(rho.field, _evaluation_rows(rho.field, basis, rho))


def algebra_map_checks(X: AlgebraElement, rho: RepMatrices) -> tuple:
    """(the characters kill X, rho kills X, rho satisfies the idempotent
    identities), run exactly over rho's field: the evaluation map is an
    algebra map through S_x when all three hold.  rho(X) is
    ``element_matrix`` of X itself.  They depend on the point and rho, not
    on a certificate."""
    f = X.field
    return (all(f.is_zero(_char_on_element(f, X, ch)) for ch in characters33()),
            mat_is_zero(rho.field, rho.element_matrix(X)),
            rho.idempotent_identities_hold())


def wedderburn_verify(cert, X: AlgebraElement, rho: RepMatrices) -> WedderburnMap:
    """Evaluate every certified basis monomial under the nine characters and
    the nine matrix coordinates of rho, a representation over k itself
    (``letter_representation``) or over the conic extension E
    (``chart_representation``).  The rank of the 18-column evaluation
    matrix (``evaluation_rank``) is a dimension lower bound when the three
    checks of ``algebra_map_checks`` on the relation X and rho all hold;
    they run here, before the rank.  Meeting the closure certificate's
    upper bound then certifies the dimension."""
    checks = algebra_map_checks(X, rho)
    rank = evaluation_rank(cert.basis, rho)
    exact = rank if all(checks) and rank == cert.dimension_bound else None
    return WedderburnMap(cert.field, rank, 18, *checks, exact)


TYPE_FIELDS = ("center_dim", "trace_form_rank", "split_dims", "irreducible_dim")


def wedderburn_type(wm: WedderburnMap, rho: RepMatrices) -> dict:
    """The type of S_x read off the evaluation isomorphism: the dimension of
    the center, the rank of the regular trace form, the dimensions of
    p1*S_x, p2*S_x and (1 - p1 - p2)*S_x, and the dimension of the algebra
    rho generates.  All four are None unless ``wm`` is exact.

    Exact over rho's field k (rho = ``letter_representation``) means the
    evaluation map phi: S_x -> k^9 (+) M3(k) is an algebra map whose matrix
    on the certified basis B has rank 18 = |B| over k.  As |B| >= dim S_x,
    phi is an isomorphism of k-algebras, and each number follows:

    * The center of k^9 (+) M3(k) is k^9 (+) k*1: dimension 10.
    * On a character summand the trace form is xy; on M3(k), where left
      multiplication acts on three columns, it is 3 tr(xy).  So the rank is
      9 + 9 = 18, or 9 when 3 = 0 in k.
    * Left multiplication by p_i on k^9 has rank the number of characters
      with chi(p_i) = 1; on M3(k) it acts on three columns, giving
      3 rank rho(p_i) (p_3 = 1 - p1 - p2), a 3x3 rank over k.  That holds in
      every characteristic.
    * The evaluation matrix is invertible, so its nine rho-columns are
      independent and rho(B) spans M3(k): rho generates M3(k), dimension 9.
      Words of length <= 4 span any algebra that 3x3 matrices generate
      (Paz's bound ceil((n^2 + 2)/3) = 4 at n = 3), so this is also the
      Burnside span of ``irreducibility``.

    Over an extension E of k (rho from ``chart_representation``) the same
    reading gives the type of S_x (x) E.  The tests keep the definitions,
    computed on the structure constants, as oracles."""
    if not wm.exact:
        return dict.fromkeys(TYPE_FIELDS)
    f = rho.field
    chars = characters33()
    m3_trace_rank = 0 if f.is_zero(f.from_int(3)) else 9
    split = tuple(
        sum(not f.is_zero(character_value(f, ((P, i),), ch)) for ch in chars)
        + 3 * _echelon_rank(f, rho.letter_matrix((P, i))) for i in (1, 2, 3))
    return {"center_dim": len(chars) + 1, "trace_form_rank": len(chars) + m3_trace_rank,
            "split_dims": split, "irreducible_dim": 9}
