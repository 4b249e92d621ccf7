"""The explicit representation pipeline for the generic quotient.

The chart subspace is spanned by t1 = p1 - y2*q1 - y3*q2 and
t2 = p2 + q1 + y1*q2 (so the commutator relation reads [t1, t2] = 0 in the
quotient).  This module:

* solves the four idempotent identities for the products t_i q_j, turning
  every word into a combination of q-prefixed t-words (valid whenever
  d = y3 - y1*y2 is nonzero, i.e. off the quadric);
* induces the 3-dimensional module on the span of 1, q1, q2 from the
  character t1 -> z1, t2 -> z2, producing explicit matrices;
* extracts the three conics in (z1, z2) forced by commutativity, the
  determinantal cubic of the net, and the degree-3 extension over which the
  conics meet in three points;
* certifies irreducibility (Burnside span) and assembles the evaluation map
  onto nine characters plus the nine matrix coordinates, whose rank is the
  dimension lower bound that meets the closure certificate's upper bound.

Closed forms previously tabulated for the t_i q_j rewrites, the matrices and
the conics are kept as reference data; everything is re-derived from the
defining relations and mismatches against the reference are reported, never
silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .freeproduct import EMPTY_WORD, P, Q, AlgebraElement, Signature, idempotent
from .linalg import dense_rank, solve_linear
from .scalars import (
    DegenerateSpecialization, Domain, ExtensionField, FunctionField, PolyRingDomain,
    PrimeField, RationalFunction, UniPoly, bareiss_determinant, factor_cubic,
    gcd_univariate, sylvester_resultant,
)

SIG33 = Signature(3, 3)

T1, T2, Q1, Q2 = "t1", "t2", "q1", "q2"
TQWord = tuple[str, ...]


# ---------------------------------------------------------------------------
# Words in t1, t2, q1, q2 subject only to the q-idempotent relations
# ---------------------------------------------------------------------------

def _tq_concat(u: TQWord, v: TQWord):
    """Concatenate, reducing q_i q_j seams (merge equal, kill different)."""
    if not u:
        return v
    if not v:
        return u
    a, b = u[-1], v[0]
    if a.startswith("q") and b.startswith("q"):
        if a == b:
            return u + v[1:]
        return None
    return u + v


class TQElement:
    """Sparse combination of words in {t1, t2, q1, q2} over a Domain; the
    t-letters are free, the q-letters are orthogonal idempotents."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Domain, terms: dict[TQWord, object] | None = None):
        self.field = field
        self.terms = {w: c for w, c in (terms or {}).items() if not field.is_zero(c)}

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def word(cls, field, w: TQWord, coeff=None):
        return cls(field, {w: field.one if coeff is None else coeff})

    def __add__(self, other):
        f = self.field
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = f.add(t.get(w, f.zero), c)
            if f.is_zero(s):
                t.pop(w, None)
            else:
                t[w] = s
        return TQElement(f, t)

    def __neg__(self):
        f = self.field
        return TQElement(f, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        return TQElement(f, {w: f.mul(v, c) for w, v in self.terms.items()})

    def __mul__(self, other):
        f = self.field
        t: dict[TQWord, object] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = _tq_concat(u, v)
                if w is None:
                    continue
                s = f.add(t.get(w, f.zero), f.mul(cu, cv))
                if f.is_zero(s):
                    t.pop(w, None)
                else:
                    t[w] = s
        return TQElement(f, t)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.field.fmt(c)})*{'.'.join(w) if w else '1'}"
            for w, c in sorted(self.terms.items()))


UNKNOWN_WORDS: tuple[TQWord, ...] = ((T1, Q1), (T1, Q2), (T2, Q1), (T2, Q2))


def _tq_in_free_product(field: Domain, y: tuple) -> dict[str, AlgebraElement]:
    """Images of t1, t2, q1, q2 inside the free product for a chart triple."""
    y1, y2, y3 = y
    p1 = idempotent(SIG33, field, P, 1)
    p2 = idempotent(SIG33, field, P, 2)
    q1 = idempotent(SIG33, field, Q, 1)
    q2 = idempotent(SIG33, field, Q, 2)
    t1 = p1 - q1.scale(y2) - q2.scale(y3)
    t2 = p2 + q1 + q2.scale(y1)
    return {T1: t1, T2: t2, Q1: q1, Q2: q2}


def chart_degeneracy(field: Domain, y: tuple):
    """d = y3 - y1*y2; zero exactly on the quadric where the rewriting and
    the induced module degenerate."""
    y1, y2, y3 = y
    return field.sub(y3, field.mul(y1, y2))


@dataclass
class TQRewrite:
    """Solved rewrites t_i q_j -> span{1, t_a, q_a, t_a t_b, q_a t_b} plus
    the solve determinant and verification / reference-comparison reports."""

    field: Domain
    y: tuple
    rules: dict[TQWord, TQElement]
    determinant: object
    verified_in_free_product: bool
    reference_mismatches: list[dict]


def tq_rewrite(field: Domain, y: tuple, compare_reference: bool = True) -> TQRewrite:
    """Derive the four t_i q_j rewrites from the idempotent laws of p1, p2.

    The laws p1^2 = p1, p2^2 = p2, p1 p2 = p2 p1 = 0, rewritten through
    p1 = t1 + y2 q1 + y3 q2 and p2 = t2 - q1 - y1 q2, are linear in the four
    unknown products t_i q_j; the system determinant is a rational multiple
    of a power of d, so the solve is exact off the quadric."""
    f = field
    y1, y2, y3 = y
    d = chart_degeneracy(f, y)
    if f.is_zero(d):
        raise DegenerateSpecialization("chart point lies on the quadric (d = 0)")
    one = TQElement.word(f, ())
    t1 = TQElement.word(f, (T1,))
    t2 = TQElement.word(f, (T2,))
    q1 = TQElement.word(f, (Q1,))
    q2 = TQElement.word(f, (Q2,))
    p1 = t1 + q1.scale(y2) + q2.scale(y3)
    p2 = t2 - q1 - q2.scale(y1)
    relations = [p1 * p1 - p1, p2 * p2 - p2, p1 * p2, p2 * p1]

    known_words = sorted({w for r in relations for w in r.terms} - set(UNKNOWN_WORDS))
    matrix = [[r.terms.get(u, f.zero) for u in UNKNOWN_WORDS] for r in relations]
    det = bareiss_determinant(f, matrix)
    rhs_cols = []
    for r in relations:
        rhs_cols.append([f.neg(r.terms.get(w, f.zero)) for w in known_words])
    # solve M * unknowns = rhs, one known-word column at a time
    rules: dict[TQWord, TQElement] = {u: TQElement.zero(f) for u in UNKNOWN_WORDS}
    for col, w in enumerate(known_words):
        b = [rhs_cols[k][col] for k in range(4)]
        x = solve_linear(f, matrix, b)
        if x is None:
            raise DegenerateSpecialization("t*q system is singular at this point")
        for u, c in zip(UNKNOWN_WORDS, x):
            rules[u] = rules[u] + TQElement.word(f, w, c)

    images = _tq_in_free_product(f, y)
    verified = True
    for u in UNKNOWN_WORDS:
        lhs = images[u[0]] * images[u[1]]
        rhs = AlgebraElement.zero(SIG33, f)
        for w, c in rules[u].terms.items():
            acc = AlgebraElement.unit(SIG33, f)
            for letter in w:
                acc = acc * images[letter]
            rhs = rhs + acc.scale(c)
        if not (lhs - rhs).is_zero():
            verified = False

    mismatches: list[dict] = []
    if compare_reference and isinstance(f, FunctionField) and f.vars[:3] == ("y1", "y2", "y3"):
        ref = reference_tq_rules(f)
        for u in UNKNOWN_WORDS:
            diff = rules[u] - ref[u]
            for w, c in sorted(diff.terms.items()):
                mismatches.append({
                    "rule": ".".join(u),
                    "word": ".".join(w) if w else "1",
                    "derived_minus_reference": repr(c),
                })
    return TQRewrite(f, y, rules, det, verified, mismatches)


def reference_tq_rules(F: FunctionField) -> dict[TQWord, TQElement]:
    """The previously tabulated closed forms of the four rewrites, encoded
    verbatim (including their suspected misprints) for comparison."""
    y1, y2, y3 = (F.gen(v) for v in ("y1", "y2", "y3"))
    d = y3 - y1 * y2

    def elem(table: dict[TQWord, RationalFunction]) -> TQElement:
        return TQElement(F, table)

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
    return [[
        f.add(f.add(f.mul(a[i][0], b[0][j]), f.mul(a[i][1], b[1][j])), f.mul(a[i][2], b[2][j]))
        for j in range(3)] for i in range(3)]


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
    """Matrices of t1, t2, q1, q2 (and the derived p1, p2) on the module
    induced from the character t1 -> z1, t2 -> z2, in the basis
    (1 (x) v, q1 (x) v, q2 (x) v)."""

    field: Domain
    y: tuple
    z: tuple
    t1: list
    t2: list
    q1: list
    q2: list

    def __post_init__(self):
        # word -> matrix, filled prefix by prefix by word_matrix
        self._words: dict = {(): mat_identity(self.field)}

    @cached_property
    def p1(self):
        f, (y1, y2, y3) = self.field, self.y
        return mat_add(f, self.t1, mat_add(f, mat_scale(f, self.q1, y2),
                                           mat_scale(f, self.q2, y3)))

    @cached_property
    def p2(self):
        f, (y1, y2, y3) = self.field, self.y
        return mat_sub(f, self.t2, mat_add(f, self.q1, mat_scale(f, self.q2, y1)))

    @cached_property
    def _letters(self) -> dict:
        f = self.field
        one = mat_identity(f)
        return {
            (P, 1): self.p1, (P, 2): self.p2,
            (P, 3): mat_sub(f, one, mat_add(f, self.p1, self.p2)),
            (Q, 1): self.q1, (Q, 2): self.q2,
            (Q, 3): mat_sub(f, one, mat_add(f, self.q1, self.q2)),
        }

    def letter_matrix(self, letter) -> list:
        return self._letters[letter]

    def word_matrix(self, word) -> list:
        """Matrix of a word, built from the cached matrix of its longest
        proper prefix; the returned matrix is shared, not copied."""
        m = self._words.get(word)
        if m is None:
            m = mat_mul(self.field, self.word_matrix(word[:-1]),
                        self.letter_matrix(word[-1]))
            self._words[word] = m
        return m

    def idempotent_identities_hold(self) -> bool:
        f = self.field
        p1, p2, q1, q2 = self.p1, self.p2, self.q1, self.q2
        checks = [
            mat_eq(f, mat_mul(f, q1, q1), q1),
            mat_eq(f, mat_mul(f, q2, q2), q2),
            mat_is_zero(f, mat_mul(f, q1, q2)),
            mat_is_zero(f, mat_mul(f, q2, q1)),
            mat_eq(f, mat_mul(f, p1, p1), p1),
            mat_eq(f, mat_mul(f, p2, p2), p2),
            mat_is_zero(f, mat_mul(f, p1, p2)),
            mat_is_zero(f, mat_mul(f, p2, p1)),
        ]
        return all(checks)

    def commutator_t(self) -> list:
        f = self.field
        return mat_sub(f, mat_mul(f, self.t1, self.t2), mat_mul(f, self.t2, self.t1))

    def relation_matrix(self) -> list:
        """Matrix of X = [p1,q1] + y1[p1,q2] + y2[p2,q1] + y3[p2,q2]."""
        f, (y1, y2, y3) = self.field, self.y
        def comm(a, b):
            return mat_sub(f, mat_mul(f, a, b), mat_mul(f, b, a))
        m = comm(self.p1, self.q1)
        m = mat_add(f, m, mat_scale(f, comm(self.p1, self.q2), y1))
        m = mat_add(f, m, mat_scale(f, comm(self.p2, self.q1), y2))
        m = mat_add(f, m, mat_scale(f, comm(self.p2, self.q2), y3))
        return m


def build_rho(field: Domain, y: tuple, z: tuple,
              rewrite: TQRewrite | None = None) -> RepMatrices:
    """Matrices of the induced module, derived from the t_i q_j rewrites.

    The columns are the images of the basis vectors 1, q1, q2: a word acts
    through the rewrite rules and the character sends every trailing t-word
    to the corresponding product of z's."""
    f = field
    z1, z2 = z
    rw = rewrite or tq_rewrite(f, y, compare_reference=False)
    zval = {T1: z1, T2: z2}

    def vec_of(elem: TQElement) -> list:
        v = [f.zero, f.zero, f.zero]
        for w, c in elem.terms.items():
            coeff = c
            pos = 0
            rest = w
            if rest and rest[0].startswith("q"):
                pos = 1 if rest[0] == Q1 else 2
                rest = rest[1:]
            for letter in rest:
                if letter.startswith("q"):
                    raise AssertionError(f"unreduced word {w} in rewrite output")
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
    return RepMatrices(f, y, z, mats[T1], mats[T2], q1m, q2m)


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
    only meaningful over the 5-variable symbolic field."""
    F = rho.field
    if not (isinstance(F, FunctionField) and F.vars == ("y1", "y2", "y3", "z1", "z2")):
        raise TypeError("reference comparison needs the symbolic (y, z) field")
    ref_t1, ref_t2 = reference_rho(F)
    out = []
    for name, got, ref in (("t1", rho.t1, ref_t1), ("t2", rho.t2, ref_t2)):
        for i in range(3):
            for j in range(3):
                diff = got[i][j] - ref[i][j]
                if not diff.is_zero():
                    out.append({
                        "matrix": name, "entry": f"({i + 1},{j + 1})",
                        "derived_minus_reference": repr(diff.reduce_full()),
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


def biv_eval(f: Domain, poly: BivPoly, z1, z2):
    acc = f.zero
    for (i, j), c in poly.items():
        term = c
        for _ in range(i):
            term = f.mul(term, z1)
        for _ in range(j):
            term = f.mul(term, z2)
        acc = f.add(acc, term)
    return acc


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
    comm = symbolic_rho.commutator_t()

    def proportional(p: BivPoly, q: BivPoly):
        if set(p) != set(q):
            return None
        m0 = next(iter(q))
        lam = p[m0] / q[m0]
        if all(p[m] == lam * q[m] for m in q):
            return lam
        return None

    matches = []
    all_proportional = True
    seen = set()
    for i in range(3):
        for j in range(3):
            e = comm[i][j]
            if e.is_zero():
                continue
            biv = _as_biv_over_y(e)
            hit = None
            for name, c in named:
                lam = proportional(biv, c)
                if lam is not None:
                    hit = {"entry": f"({i + 1},{j + 1})", "conic": name,
                           "unit": repr(lam.reduce_full())}
                    seen.add(name)
                    break
            if hit is None:
                all_proportional = False
                matches.append({"entry": f"({i + 1},{j + 1})", "conic": None})
            else:
                matches.append(hit)
    return {
        "nonzero_entries": len(matches),
        "entries_unit_multiples_of_conics": all_proportional,
        "all_three_conics_occur": seen == {"c1", "c2", "c3"},
        "equivalent": all_proportional and seen == {"c1", "c2", "c3"},
        "matches": matches,
    }


def _as_biv_over_y(rf: RationalFunction) -> BivPoly:
    """Split a rational function in (y1,y2,y3,z1,z2) whose denominator is
    z-free into a polynomial in (z1,z2) with y-rational-function entries."""
    base = FunctionField(("y1", "y2", "y3"))
    from .scalars import Polynomial
    den = rf.den
    if any(e[3] or e[4] for e in den.terms):
        raise ValueError("denominator involves z; cannot split")
    dpoly = Polynomial(base.vars, {e[:3]: c for e, c in den.terms.items()})
    out: BivPoly = {}
    for e, c in rf.num.terms.items():
        zkey = (e[3], e[4])
        ypoly = Polynomial(base.vars, {e[:3]: c})
        piece = RationalFunction(ypoly, dpoly)
        out[zkey] = out.get(zkey, base.zero) + piece
    return {k: v for k, v in out.items() if not v.is_zero()}


# -- ternary forms -----------------------------------------------------------

def tern_add(f: Domain, a: TernForm, b: TernForm) -> TernForm:
    out = dict(a)
    for e, c in b.items():
        s = f.add(out.get(e, f.zero), c)
        if f.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def tern_mul(f: Domain, a: TernForm, b: TernForm) -> TernForm:
    out: TernForm = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = f.add(out.get(e, f.zero), f.mul(c1, c2))
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def tern_scale(f: Domain, a: TernForm, c) -> TernForm:
    if f.is_zero(c):
        return {}
    return {e: f.mul(v, c) for e, v in a.items()}


def tern_eval(f: Domain, a: TernForm, pt) -> object:
    acc = f.zero
    for (i, j, k), c in a.items():
        term = c
        for _ in range(i):
            term = f.mul(term, pt[0])
        for _ in range(j):
            term = f.mul(term, pt[1])
        for _ in range(k):
            term = f.mul(term, pt[2])
        acc = f.add(acc, term)
    return acc


def tern_partial(f: Domain, a: TernForm, var: int) -> TernForm:
    out: TernForm = {}
    for e, c in a.items():
        if e[var] == 0:
            continue
        ne = list(e)
        ne[var] -= 1
        out[tuple(ne)] = f.mul(c, f.from_int(e[var]))
    return out


def determinantal_cubic(field: Domain, y: tuple,
                        triple: ConicTriple | None = None) -> TernForm:
    """det(a1*M1 + a2*M2 + a3*M3) for the homogenized conic matrices: a
    ternary cubic in (a1, a2, a3) whose zero locus parametrizes the
    degenerate conics of the net."""
    f = field
    tri = triple or conics(f, y)
    ms = tri.matrices()
    evars = [{(1, 0, 0): f.one}, {(0, 1, 0): f.one}, {(0, 0, 1): f.one}]
    entries = [[{} for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc: TernForm = {}
            for k in range(3):
                acc = tern_add(f, acc, tern_scale(f, evars[k], ms[k][i][j]))
            entries[i][j] = acc

    def t_det3(m):
        def prod(*idx):
            acc = {(0, 0, 0): f.one}
            for (i, j) in idx:
                acc = tern_mul(f, acc, m[i][j])
            return acc
        pos = tern_add(f, tern_add(f, prod((0, 0), (1, 1), (2, 2)),
                                   prod((0, 1), (1, 2), (2, 0))),
                       prod((0, 2), (1, 0), (2, 1)))
        neg = tern_add(f, tern_add(f, prod((0, 2), (1, 1), (2, 0)),
                                   prod((0, 0), (1, 2), (2, 1))),
                       prod((0, 1), (1, 0), (2, 2)))
        return tern_add(f, pos, tern_scale(f, neg, f.neg(f.one)))

    return t_det3(entries)


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
    discriminant: object
    disc_is_square: bool | None
    resultant_12: UniPoly
    resultant_13: UniPoly

    @property
    def extension_degree(self) -> int:
        return self.modulus.degree if self.modulus is not None else 1


def _conic_as_z2poly(f: Domain, c: BivPoly):
    """View a conic as a univariate polynomial in z2 whose coefficients are
    polynomials in z1 (for resultant elimination of z2 first)."""
    ring = PolyRingDomain(f)
    cols: dict[int, dict[int, object]] = {}
    for (i, j), v in c.items():
        cols.setdefault(j, {})[i] = v
    maxj = max(cols, default=0)
    coeffs = []
    for j in range(maxj + 1):
        col = cols.get(j, {})
        maxi = max(col, default=0)
        coeffs.append(UniPoly(f, [col.get(i, f.zero) for i in range(maxi + 1)]))
    return ring, UniPoly(ring, coeffs)


def _conic_at_z1(f: Domain, c: BivPoly, ext: Domain, z1) -> UniPoly:
    """Specialize z1 and view the conic as a polynomial in z2 over ext."""
    cols: dict[int, object] = {}
    lift = (lambda v: ext.from_base(v)) if isinstance(ext, ExtensionField) else (lambda v: v)
    for (i, j), v in c.items():
        term = lift(v)
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
    if getattr(field, "name", "") == "rational":
        fr = Fraction(v)
        from math import isqrt
        n, d = fr.numerator, fr.denominator
        if n < 0:
            return False
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d
    return None


def intersect_conics(field: Domain, y: tuple) -> ExtensionSpec:
    """Eliminate z2 by resultants, extract the degree-3 factor of common
    z1-roots, and produce one exact intersection point of the three conics
    over the induced extension.  Degenerate degree patterns raise a
    resample signal rather than guessing."""
    f = field
    tri = conics(f, y)
    ring, p1 = _conic_as_z2poly(f, tri.c1)
    _, p2 = _conic_as_z2poly(f, tri.c2)
    _, p3 = _conic_as_z2poly(f, tri.c3)
    r12 = sylvester_resultant(p1, p2)
    r13 = sylvester_resultant(p1, p3)
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
        z1 = f.neg(factors[-1].coeffs[0])
    else:
        modulus = factors[-1]
        ext = ExtensionField(f, modulus, check_irreducible=False)
        z1 = ext.gen()
    c1z = _conic_at_z1(f, tri.c1, ext, z1)
    c2z = _conic_at_z1(f, tri.c2, ext, z1)
    g = gcd_univariate(c1z, c2z)
    if g.degree != 1:
        raise DegenerateSpecialization(
            f"z2 recovery polynomial has degree {g.degree}, expected 1; resample")
    z2 = ext.neg(g.coeffs[0])
    for c in tri.all():
        val = biv_eval(ext, _lift_form(f, ext, c), z1, z2)
        if not ext.is_zero(val):
            raise AssertionError("constructed point does not kill every conic")
    disc = cubic_discriminant(f, fpoly)
    return ExtensionSpec(
        base=f, f_poly=fpoly, factor_degrees=[g.degree for g in factors],
        ext=ext, modulus=modulus, z1=z1, z2=z2,
        discriminant=disc, disc_is_square=_is_square(f, disc),
        resultant_12=r12, resultant_13=r13,
    )


def _lift_form(base: Domain, ext: Domain, c: dict) -> dict:
    """A bivariate or ternary form with base coefficients, over ext."""
    if ext is base:
        return c
    return {e: ext.from_base(v) for e, v in c.items()}


# -- splitting the determinantal cubic into lines ------------------------------

@dataclass
class SplitReport:
    splits: bool | None
    mode: str
    lines: list
    scale: object | None
    singular_points: list
    detail: str = ""


def _third_point_line(spec: ExtensionSpec, tri: ConicTriple):
    """A line of the determinantal cubic, found exactly: conics through all
    three base points that also vanish at a third point of the line joining
    two conjugate base points contain that whole line; the vanishing
    condition is linear in (a1, a2, a3).  Returns the field of the line
    and its coefficients.

    Over a degree-3 extension the conjugate pair is the two roots of
    f(z)/(z - t) other than t, and the line lives over the extension.
    Over a degree-2 extension the pair is the two roots of the modulus, and
    the joining line is defined over the base field."""
    f = spec.base
    if spec.extension_degree == 3:
        field = spec.ext
        pair, rem = _lift_poly(f, field, spec.f_poly).divmod(
            UniPoly(field, [field.neg(spec.z1), field.one]))
        assert rem.is_zero()
        lift = field.from_base
    elif spec.extension_degree == 2:
        field, pair, lift = f, spec.modulus, (lambda v: v)
    else:
        raise DegenerateSpecialization("needs a conjugate pair of base points")
    # the pair's z1-coordinates r2, r3 have r2 + r3 = e1, r2 * r3 = e2, and
    # z2 = G(z1) at both, with G the residue of z2 in base[t]/(modulus):
    # Galois equivariance makes one G recover every conjugate point
    e1, e2 = field.neg(pair.coeffs[1]), pair.coeffs[0]
    g = [lift(c) for c in spec.z2.coeffs] + [field.zero] * 3
    # the joining line z2 = s*z1 + c: s is the divided difference of G,
    # (G(r2) - G(r3)) / (r2 - r3) = g1 + g2*e1, and 2c = G(r2) + G(r3) - s*e1
    s = field.add(g[1], field.mul(g[2], e1))
    power2 = field.sub(field.mul(e1, e1), field.add(e2, e2))   # r2^2 + r3^2
    g_sum = field.add(field.add(field.add(g[0], g[0]), field.mul(g[1], e1)),
                      field.mul(g[2], power2))
    c = field.div(field.sub(g_sum, field.mul(s, e1)), field.from_int(2))
    # a third point on that line, with z1 drawn from the base field
    for z1c in (3, 5, 7, 11, 2):
        z1v = field.from_int(z1c)
        if field.is_zero(pair.evaluate(z1v)):     # z1v is r2 or r3
            continue
        z2v = field.add(field.mul(s, z1v), c)
        coeffs = [biv_eval(field, _lift_form(f, field, cc), z1v, z2v) for cc in tri.all()]
        if not all(field.is_zero(v) for v in coeffs):
            return field, coeffs
    raise DegenerateSpecialization("could not place a third point on the joining line")


def _lift_poly(base: Domain, ext: Domain, p: UniPoly) -> UniPoly:
    if ext is base:
        return p
    return UniPoly(ext, [ext.from_base(c) for c in p.coeffs])


def _tern_divide_by_line(f: Domain, cubic: TernForm, line: list):
    """Exact division of a ternary cubic by a linear form, or None: solved
    as a linear system for the quadratic cofactor."""
    mons2 = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if i + j + k == 2]
    mons3 = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
             if i + j + k == 3]
    lform: TernForm = {(1, 0, 0): line[0], (0, 1, 0): line[1], (0, 0, 1): line[2]}
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


def split_determinantal_cubic(field: Domain, cubic: TernForm,
                              spec: ExtensionSpec, tri: ConicTriple) -> SplitReport:
    """Exact split certificate for the pipeline's cubic, at every extension
    degree that ``intersect_conics`` returns.

    Over a degree-3 or a degree-2 extension one line of the cubic is found
    from the conjugate-pair geometry (``_third_point_line``) and divided
    out, and the quadratic cofactor is certified degenerate (det = 0): the
    cubic is then a product of three linear forms over the closure.  When
    the three base points are all over the base field, the singular-point
    test of ``split_into_lines`` decides, or says why it cannot."""
    if spec.extension_degree == 1:
        return split_into_lines(field, cubic)
    lfield, line = _third_point_line(spec, tri)
    where, mode = (("degree-3 extension", "exact-extension") if lfield is spec.ext
                   else ("base field", "exact-base"))
    cofactor = _tern_divide_by_line(lfield, _lift_form(field, lfield, cubic), line)
    if cofactor is None:
        return SplitReport(False, mode, [], None, [],
                           f"line over the {where} does not divide the cubic")
    splits = lfield.is_zero(bareiss_determinant(lfield, _symmetric_matrix(lfield, cofactor)))
    return SplitReport(
        splits, mode, [line], None, [],
        f"line over the {where} divides the cubic; "
        + ("cofactor quadric is degenerate (rank <= 2), so the cubic is a "
           "union of three lines over the closure" if splits
           else "cofactor quadric is nondegenerate"))


def split_into_lines(field: Domain, cubic: TernForm, tol=None) -> SplitReport:
    """Standalone exact splitting test via rational singular points.

    A reduced union of three non-concurrent lines has exactly three singular
    points (the pairwise intersections) and the pairwise joins recover the
    lines; a smooth cubic has none.  The rational singular points are found
    exactly.  When they are not all rational, or are not three points whose
    joins give the cubic, the test decides nothing: ``splits`` is None and
    ``detail`` says why.  ``tol`` is ignored; it is still accepted because
    the benchmark workloads (``bench/workloads.py``) pass it."""
    f = field
    if not any(not f.is_zero(c) for c in cubic.values()):
        raise ValueError("zero cubic")
    if getattr(f, "name", "") != "rational":
        return SplitReport(None, "exact-rational", [], None, [],
                           "the singular-point test needs rational coefficients")
    parts = [tern_partial(f, cubic, v) for v in range(3)]
    pts, complete = _rational_singular_points(f, parts)
    if pts is None:
        return SplitReport(None, "exact-rational", [], None, [],
                           "the singular locus is not a finite set of points")
    if len(pts) == 3:
        lines = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            lines.append(_join_line(f, pts[i], pts[j]))
        prod: TernForm = {(0, 0, 0): f.one}
        for ln in lines:
            prod = tern_mul(f, prod, {(1, 0, 0): ln[0], (0, 1, 0): ln[1], (0, 0, 1): ln[2]})
        lam = _proportionality(f, cubic, prod)
        if lam is not None:
            return SplitReport(True, "exact-rational", lines, lam, pts,
                               "the joins of three rational singular points "
                               "multiply to the cubic")
    if not complete:
        return SplitReport(None, "exact-rational", [], None, pts,
                           "not every singular point was found over the "
                           "rationals (irrational or repeated resultant roots)")
    if not pts:
        return SplitReport(False, "exact-rational", [], None, [],
                           "no singular points; smooth cubic does not split")
    return SplitReport(None, "exact-rational", [], None, pts,
                       f"{len(pts)} rational singular points, not three whose "
                       "joins give the cubic")


def _rational_singular_points(f: Domain, parts: list[TernForm]):
    """Common projective zeros of the partials.  Returns (points, complete)
    where complete means every root extraction was resolved exactly over
    the rationals; (None, False) when the locus degenerates (shared
    components and the like).  Needs rational coefficients."""
    from .scalars import rational_roots
    pts = []
    complete = True
    # chart a3 = 1
    d1 = _tern_to_biv(f, parts[0], 2)
    d2 = _tern_to_biv(f, parts[1], 2)
    d3 = _tern_to_biv(f, parts[2], 2)
    polys = []
    for d in (d1, d2, d3):
        _, u = _conic_as_z2poly(f, d)
        polys.append(u)
    res = None
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ua, ub = polys[a], polys[b]
        if ua.is_zero() or ub.is_zero():
            continue
        if ua.degree == 0 and ub.degree == 0:
            continue
        r = sylvester_resultant(ua, ub)
        if not r.is_zero():
            res = r if res is None else gcd_univariate(res, r)
    if res is None:
        return None, False
    if res.degree == 0:
        cands1: list = []
    else:
        cands1 = rational_roots(res)
        if len(cands1) < res.degree:
            complete = False
    for a1 in cands1:
        evs = [_biv_eval_poly_in_z2(f, d, a1) for d in (d1, d2, d3)]
        nz = [e for e in evs if not e.is_zero()]
        if not nz:
            return None, False
        g = nz[0]
        for e in nz[1:]:
            g = gcd_univariate(g, e)
        if g.degree == 0:
            continue
        roots2 = rational_roots(g)
        if len(roots2) < g.degree:
            complete = False
        for a2 in roots2:
            if all(f.is_zero(e.evaluate(a2)) for e in evs):
                pts.append((a1, a2, f.one))
    # line at infinity a3 = 0: points (1 : s : 0), then (0 : 1 : 0)
    one_var = [_restrict_to_infinity(f, p) for p in parts]
    nz = [p for p in one_var if not p.is_zero()]
    if nz:
        g = nz[0]
        for e in nz[1:]:
            g = gcd_univariate(g, e)
        if g.degree > 0:
            roots = rational_roots(g)
            if len(roots) < g.degree:
                complete = False
            for s in roots:
                if all(f.is_zero(p.evaluate(s)) for p in one_var):
                    pts.append((f.one, s, f.zero))
    if all(f.is_zero(p.get((0, 2, 0), f.zero)) for p in parts):
        pts.append((f.zero, f.one, f.zero))
    return pts, complete


def _restrict_to_infinity(f: Domain, part: TernForm):
    """Restrict a quadric to the line a3 = 0 in the chart (1 : s : 0):
    keep only a3-free terms and substitute a1 = 1."""
    cols: dict[int, object] = {}
    for (i, j, k), c in part.items():
        if k == 0:
            cols[j] = f.add(cols.get(j, f.zero), c)
    maxj = max(cols, default=0)
    return UniPoly(f, [cols.get(j, f.zero) for j in range(maxj + 1)])


def _tern_to_biv(f: Domain, form: TernForm, set_one: int) -> BivPoly:
    out: BivPoly = {}
    keep = [v for v in range(3) if v != set_one]
    for e, c in form.items():
        key = (e[keep[0]], e[keep[1]])
        out[key] = f.add(out.get(key, f.zero), c)
    return {k: v for k, v in out.items() if not f.is_zero(v)}


def _biv_eval_poly_in_z2(f: Domain, p: BivPoly, a1) -> UniPoly:
    cols: dict[int, object] = {}
    for (i, j), c in p.items():
        term = c
        for _ in range(i):
            term = f.mul(term, a1)
        cols[j] = f.add(cols.get(j, f.zero), term)
    maxj = max(cols, default=0)
    return UniPoly(f, [cols.get(j, f.zero) for j in range(maxj + 1)])


def _join_line(f: Domain, p: tuple, q: tuple) -> list:
    """Cross product: the line through two projective points."""
    return [
        f.sub(f.mul(p[1], q[2]), f.mul(p[2], q[1])),
        f.sub(f.mul(p[2], q[0]), f.mul(p[0], q[2])),
        f.sub(f.mul(p[0], q[1]), f.mul(p[1], q[0])),
    ]


def _proportionality(f: Domain, a: TernForm, b: TernForm):
    """lambda with a = lambda * b, or None."""
    lam = None
    for e, c in b.items():
        if not f.is_zero(c):
            lam = f.div(a.get(e, f.zero), c)
            break
    if lam is None:
        return None
    for e in set(a) | set(b):
        if not f.eq(a.get(e, f.zero), f.mul(lam, b.get(e, f.zero))):
            return None
    return lam


# ---------------------------------------------------------------------------
# Irreducibility and the assembled evaluation map
# ---------------------------------------------------------------------------

def generated_matrix_algebra_dim(field: Domain, mats: list, max_length: int = 4) -> int:
    """Dimension of the span of all words of length <= max_length in the
    given 3x3 matrices and the identity (Burnside: irreducible iff 9)."""
    f = field
    from .linalg import SparseEchelon
    ech = SparseEchelon(f)

    def flat(m):
        return {i * 3 + j: m[i][j] for i in range(3) for j in range(3)
                if not f.is_zero(m[i][j])}

    layer = [mat_identity(f)]
    ech.add_row(flat(layer[0]))
    for _ in range(max_length):
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


def irreducibility(field: Domain, rho: RepMatrices, max_length: int = 4) -> dict:
    dim = generated_matrix_algebra_dim(
        field, [rho.p1, rho.p2, rho.q1, rho.q2], max_length)
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


@dataclass
class WedderburnMap:
    field: Domain
    ext: Domain
    rank: int
    target_dim: int
    characters_kill_relation: bool
    rho_kills_relation: bool
    center_dim: int | None
    trace_form_rank: int | None
    exact: bool


def wedderburn_verify(cert, spec: ExtensionSpec, rho: RepMatrices) -> WedderburnMap:
    """Evaluate every certified basis monomial under the nine characters and
    the nine matrix coordinates of the induced representation; the rank of
    the 18-column evaluation matrix is a dimension lower bound, and meeting
    the closure certificate's upper bound certifies the decomposition."""
    f = cert.field
    ext = spec.ext
    lift = (lambda v: ext.from_base(v)) if isinstance(ext, ExtensionField) else (lambda v: v)
    rows = []
    for w in cert.basis:
        row = [lift(character_value(f, w, ch)) for ch in characters33()]
        m = rho.word_matrix(w)
        row.extend(m[i][j] for i in range(3) for j in range(3))
        rows.append(row)
    rank = dense_rank(ext, rows)

    from .quotient import make_relation
    rel = make_relation(f, point=cert.point)
    chars_kill = all(
        f.is_zero(_char_on_element(f, rel.element, ch)) for ch in characters33())
    relmat = rho.relation_matrix()
    rho_kills = mat_is_zero(ext, relmat)

    center = _center_dimension(cert)
    trrank = _trace_form_rank(cert)
    exact = (rank == cert.dimension_bound == 18)
    return WedderburnMap(f, ext, rank, 18, chars_kill, rho_kills, center, trrank, exact)


def _center_dimension(cert) -> int:
    """Dimension of the center: the nullity of z -> ([z, g])_g over the
    four generating letters g of ``quotient.GENERATORS``.

    The letters and the unit generate the certified algebra, so z is central
    iff it commutes with each letter.  z * g is read from the letter action,
    and g * z from the structure constants, with the coordinates of g taken
    from ``letter_action[g][unit]`` (the unit times g).  That is 4n equations
    in n unknowns instead of the n^2 of commuting with every basis element.
    Like ``_trace_form_rank``, it relies on the table being the quotient's
    own associative multiplication, which holds because the certificate's
    letter action kills the ideal."""
    from .quotient import GENERATORS
    f = cert.field
    n = cert.dimension_bound
    table = cert.structure_constants
    unit = cert.basis_index(EMPTY_WORD)
    rows = []
    for g in GENERATORS:
        right = cert.letter_action[g]
        gvec = right[unit]
        for k in range(n):
            row = []
            for i in range(n):
                left = f.zero
                for j, gj in gvec.items():
                    c = table[j][i].get(k)
                    if c is not None:
                        left = f.add(left, f.mul(gj, c))
                row.append(f.sub(right[i].get(k, f.zero), left))
            rows.append(row)
    return n - dense_rank(f, rows)


def _trace_form_gram(cert) -> list:
    """Gram matrix of the trace form in the certified basis, built as
    ``_trace_form_rank`` explains."""
    f = cert.field
    n = cert.dimension_bound
    table = cert.structure_constants
    trace = []
    for k in range(n):
        acc = f.zero
        for a in range(n):
            c = table[k][a].get(a)
            if c is not None:
                acc = f.add(acc, c)
        trace.append(acc)
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = f.zero
            for k, c in table[i][j].items():
                acc = f.add(acc, f.mul(c, trace[k]))
            row.append(acc)
        gram.append(row)
    return gram


def _trace_form_rank(cert) -> int:
    """Rank of (x, y) -> trace(L_x L_y) on the certified quotient; full rank
    witnesses semisimplicity.

    The Gram matrix uses tr(L_{b_i} L_{b_j}) = tr(L_{b_i b_j})
    = sum_k c_ij^k tr(L_{b_k}), with tr(L_{b_k}) = sum_a c_ka^a computed
    once: O(n^3) over the sparse table instead of the O(n^4) sum
    sum_{a,b} c_ia^b c_jb^a of the definition.  The first equality is
    L_x L_y = L_{xy}, the associativity of the table.  The table is folded
    from the certificate's right letter action, and that action kills the
    ideal: it is the quotient acting on itself, so b_i * b_j is the class
    of the concatenated word.  That is the same fact that makes the
    structure constants a valid associative table.  The evaluation rank
    certifies it wherever a point is reported exact: rank n means the basis
    is independent in the quotient, so the letter action is the quotient's
    own.  The definition's O(n^4) form is kept in the tests as the oracle."""
    return dense_rank(cert.field, _trace_form_gram(cert))
