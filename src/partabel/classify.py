"""Classification layer: generic-position tests for subspaces of
Abar (+) Bbar, the left-module rewriting, the k^l * k^2 verdict table, and
the stratification of P^3 by the quadric, its six lines and nine points.

Verdicts carry the internal rule that fired, stated in self-contained
terms; dimension claims for generic points are never asserted here, they
are delegated to the quotient engine's certificates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .freeproduct import P, Q, AlgebraElement, Signature, idempotent
from .linalg import _rref, dense_rank, nullspace, solve_linear
from .quotient import canonical_point, on_quadric
from .scalars import Domain, add_term

Vector = tuple  # coordinates in (p_1..p_{a-1} | q_1..q_{b-1})


@dataclass(frozen=True)
class SubspacePresentation:
    """A subspace of Abar (+) Bbar given by a basis in the coordinates
    (p_1..p_{a-1} | q_1..q_{b-1})."""

    sig: Signature
    field: Domain
    basis: tuple[Vector, ...]

    def __post_init__(self):
        dim = (self.sig.a - 1) + (self.sig.b - 1)
        for v in self.basis:
            if len(v) != dim:
                raise ValueError("basis vector has wrong arity")
        if self.basis and dense_rank(self.field, [list(v) for v in self.basis]) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def a_block(self, v: Vector) -> list:
        return list(v[: self.sig.a - 1])

    def b_block(self, v: Vector) -> list:
        return list(v[self.sig.a - 1:])

    def elements(self) -> list[AlgebraElement]:
        """The basis vectors as elements of the free product."""
        out = []
        for v in self.basis:
            e = AlgebraElement.zero(self.sig, self.field)
            for i, c in enumerate(self.a_block(v), start=1):
                e = e + idempotent(self.sig, self.field, P, i).scale(c)
            for j, c in enumerate(self.b_block(v), start=1):
                e = e + idempotent(self.sig, self.field, Q, j).scale(c)
            out.append(e)
        return out


def genericity_check(V: SubspacePresentation) -> dict:
    """Surjectivity of both coordinate projections; when both are onto, the
    partial abelianization has irreducible representations of dimension at
    most min(a, b)."""
    f = V.field
    ra = dense_rank(f, [V.a_block(v) for v in V.basis]) if V.basis else 0
    rb = dense_rank(f, [V.b_block(v) for v in V.basis]) if V.basis else 0
    pa = ra == V.sig.a - 1
    pb = rb == V.sig.b - 1
    return {
        "piA_surjective": pa,
        "piB_surjective": pb,
        "generic": pa and pb,
        "mid_bound": min(V.sig.a, V.sig.b) if pa and pb else None,
    }


# ---------------------------------------------------------------------------
# Left-module rewriting: x = sum r_t b_t with r_t words in the v-generators
# ---------------------------------------------------------------------------

@dataclass
class LeftModuleDecomposition:
    """Terms keyed by (v-word, b-index): the b-index 0 stands for the unit
    of B and index j >= 1 for the reduced idempotent q_j.  v-words are in
    the normalized generators (the basis of V rotated so that its A-parts
    are exactly p_1..p_{a-1}); the rotation matrix is recorded so the
    decomposition expands exactly."""

    V: SubspacePresentation
    generators: list[AlgebraElement]
    terms: dict[tuple[tuple[int, ...], int], object]

    def summand_count(self) -> int:
        return len({b for (_, b) in self.terms})

    def expand(self) -> AlgebraElement:
        sig, f = self.V.sig, self.V.field
        out = AlgebraElement.zero(sig, f)
        for (vword, bidx), c in self.terms.items():
            acc = AlgebraElement.unit(sig, f)
            for i in vword:
                acc = acc * self.generators[i - 1]
            if bidx:
                acc = acc * idempotent(sig, f, Q, bidx)
            out = out + acc.scale(c)
        return out


def rewrite_left_module(elem: AlgebraElement, V: SubspacePresentation) -> LeftModuleDecomposition:
    """Rewrite an element as sum r_t * b_t with r_t in the subalgebra
    generated by V and b_t in the B-factor basis {1, q_1, ..., q_{b-1}}.

    With generators normalized to v_i = p_i + b_i, the identity
    v_i v_j = delta_ij v_j + v_i b_j + b_i v_j - b_i b_j - delta_ij b_j
    (a consequence of p_i p_j = delta_ij p_i) lets every B-factor letter
    that sits left of a v migrate rightward or disappear, so the queue
    below strictly reduces the number of (B, v) inversions and terminates
    in a combination of words carrying at most one trailing B-letter; a
    budget of 500,000 queue steps guards that claim."""
    sig, f = V.sig, V.field
    check = genericity_check(V)
    if not check["generic"]:
        raise ValueError("subspace is not generic; the rewriting is unsupported")
    if V.dim != sig.a - 1 or sig.a < sig.b:
        raise ValueError(
            "rewriting needs dim V = dim Abar and dim A >= dim B "
            "(generators of the form v_i = a_i + b_i)")
    m = V.dim
    nb = sig.b - 1

    # rotate the basis so A-parts become the reduced idempotents p_i
    amat = [V.a_block(v) for v in V.basis]
    ainv = _matrix_inverse(f, amat)
    vs = V.elements()
    gens: list[AlgebraElement] = []
    for row in ainv:
        e = AlgebraElement.zero(sig, f)
        for c, v in zip(row, vs):
            e = e + v.scale(c)
        gens.append(e)
    b_parts = [[g.coeff(((Q, j),)) for j in range(1, sig.b)] for g in gens]

    # express each q_t through the generator B-parts: q_t = sum_i E[t][i] b_i
    bmat = [[b_parts[i][r] for i in range(m)] for r in range(nb)]
    expr = []
    for t in range(nb):
        rhs = [f.one if r == t else f.zero for r in range(nb)]
        sol = solve_linear(f, bmat, rhs)
        if sol is None:
            raise ValueError("B-parts of the generators do not span Bbar")
        expr.append(sol)

    def bvec_unit() -> list:
        v = [f.zero] * (nb + 1)
        v[0] = f.one
        return v

    def bvec_q(t: int) -> list:
        v = [f.zero] * (nb + 1)
        v[t] = f.one
        return v

    def bvec_of_bpart(i: int) -> list:
        return [f.zero] + list(b_parts[i])

    def bvec_mul(x: list, y: list) -> list:
        out = [f.zero] * (nb + 1)
        out[0] = f.mul(x[0], y[0])
        for j in range(1, nb + 1):
            out[j] = f.add(f.add(f.mul(x[0], y[j]), f.mul(x[j], y[0])),
                           f.mul(x[j], y[j]))
        return out

    def bvec_to_generators(x: list) -> tuple[object, list]:
        """Split c0 * 1 + sum_i c_i * b_i."""
        coeffs = [f.zero] * m
        for t in range(1, nb + 1):
            if f.is_zero(x[t]):
                continue
            for i in range(m):
                coeffs[i] = f.add(coeffs[i], f.mul(x[t], expr[t - 1][i]))
        return x[0], coeffs

    result: dict[tuple[tuple[int, ...], int], object] = {}

    def emit(coeff, vword: tuple[int, ...], bvec: list):
        for j in range(nb + 1):
            if f.is_zero(bvec[j]):
                continue
            add_term(f, result, (vword, j), f.mul(coeff, bvec[j]))

    # markers: ("v", i) or ("B", bvec); p-letters expand as v_i - b_i
    work = deque()
    for w, c in elem.terms.items():
        seq: list = []
        for tag, idx in w:
            if tag == P:
                seq.append(("p", idx))
            else:
                seq.append(("B", bvec_q(idx)))
        work.append((c, (), seq))

    steps = 0
    while work:
        steps += 1
        if steps > 500000:
            raise RuntimeError("left-module rewriting exceeded the step budget")
        coeff, vword, seq = work.popleft()
        if f.is_zero(coeff):
            continue
        # expand the first p-marker, if any
        for i, (kind, val) in enumerate(seq):
            if kind == "p":
                head, tail = seq[:i], seq[i + 1:]
                work.append((coeff, vword, head + [("v", val)] + tail))
                work.append((f.neg(coeff), vword,
                             head + [("B", bvec_of_bpart(val - 1))] + tail))
                break
        else:
            # merge adjacent B's, absorb leading v's
            merged: list = []
            for kind, val in seq:
                if kind == "B" and merged and merged[-1][0] == "B":
                    merged[-1] = ("B", bvec_mul(merged[-1][1], val))
                else:
                    merged.append((kind, val))
            k = 0
            while k < len(merged) and merged[k][0] == "v":
                vword = vword + (merged[k][1],)
                k += 1
            merged = merged[k:]
            if not merged:
                emit(coeff, vword, bvec_unit())
                continue
            if len(merged) == 1:
                emit(coeff, vword, merged[0][1])
                continue
            # merged[0] is a B-marker followed by ("v", j)
            bvec = merged[0][1]
            assert merged[1][0] == "v"
            j = merged[1][1]
            rest = merged[2:]
            c0, coeffs = bvec_to_generators(bvec)
            if not f.is_zero(c0):
                work.append((f.mul(coeff, c0), vword, [("v", j)] + rest))
            for i in range(m):
                ci = coeffs[i]
                if f.is_zero(ci):
                    continue
                cc = f.mul(coeff, ci)
                # b_i v_j = v_i v_j - v_i b_j + b_i b_j - delta_ij v_j + delta_ij b_j
                work.append((cc, vword, [("v", i + 1), ("v", j)] + rest))
                work.append((f.neg(cc), vword,
                             [("v", i + 1), ("B", bvec_of_bpart(j - 1))] + rest))
                work.append((cc, vword,
                             [("B", bvec_mul(bvec_of_bpart(i), bvec_of_bpart(j - 1)))] + rest))
                if i + 1 == j:
                    work.append((f.neg(cc), vword, [("v", j)] + rest))
                    work.append((cc, vword, [("B", bvec_of_bpart(j - 1))] + rest))

    return LeftModuleDecomposition(V, gens, result)


def _matrix_inverse(f: Domain, m: list[list]) -> list[list]:
    n = len(m)
    aug = [list(row) + [f.one if i == j else f.zero for j in range(n)]
           for i, row in enumerate(m)]
    a, pivots = _rref(f, aug, n)
    if len(pivots) < n:
        raise ValueError("matrix not invertible")
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Classification for k^l * k^2
# ---------------------------------------------------------------------------

@dataclass
class PartitionData:
    """Equality pattern of {1..l} cut out by V1 = V ^ Abar: i ~ j when every
    element of V1 has equal i-th and j-th coordinates in the full idempotent
    basis (the eliminated index carries coordinate 0)."""

    blocks: list[tuple[int, ...]]

    @property
    def max_block(self) -> int:
        return max((len(b) for b in self.blocks), default=0)

    def separating(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


@dataclass
class ClassificationVerdict:
    tag: str
    rule: str
    mid_bound: object = None
    partition: PartitionData | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.tag,
            "rule": self.rule,
            "mid_bound": "infinity" if self.mid_bound == float("inf") else self.mid_bound,
            "partition": [list(b) for b in self.partition.blocks] if self.partition else None,
        }


def intersect_with_a_bar(V: SubspacePresentation) -> list[list]:
    """Basis of V1 = V ^ Abar in Abar coordinates (kernel of the B-block)."""
    f = V.field
    if not V.basis:
        return []
    bcols = [V.b_block(v) for v in V.basis]
    matrix = [[bcols[r][c] for r in range(len(V.basis))] for c in range(V.sig.b - 1)]
    combos = nullspace(f, matrix)
    out = []
    for combo in combos:
        vec = [f.zero] * (V.sig.a - 1)
        for coeff, v in zip(combo, V.basis):
            for i, c in enumerate(V.a_block(v)):
                vec[i] = f.add(vec[i], f.mul(coeff, c))
        out.append(vec)
    return out


def partition_of(V: SubspacePresentation) -> PartitionData:
    """The coordinate-equality partition of {1..l} induced by V ^ Abar."""
    f = V.field
    l = V.sig.a
    v1 = intersect_with_a_bar(V)
    full = [vec + [f.zero] for vec in v1]
    blocks: list[list[int]] = []
    for i in range(1, l + 1):
        placed = False
        for b in blocks:
            j = b[0]
            if all(f.eq(vec[i - 1], vec[j - 1]) for vec in full):
                b.append(i)
                placed = True
                break
        if not placed:
            blocks.append([i])
    return PartitionData([tuple(b) for b in blocks])


def classify_l2(V: SubspacePresentation) -> ClassificationVerdict:
    """The verdict table for signatures (l, 2): the quotient is the whole
    free product when V sits inside Abar; a tensor product (commutative,
    all irreducibles one-dimensional) when V1 separates the idempotents;
    and otherwise the largest equality block of V1 decides between maximal
    irreducible dimension 2 (block of size 2) and unbounded irreducible
    dimensions (block of size 3 or more)."""
    if V.sig.b != 2:
        raise ValueError("classification table applies to signatures (l, 2)")
    f = V.field
    inside_abar = all(all(f.is_zero(c) for c in V.b_block(v)) for v in V.basis)
    part = partition_of(V)
    if inside_abar:
        return ClassificationVerdict(
            "equals_R",
            "V is contained in Abar, so the generated subalgebra is "
            "commutative and the quotient is the free product itself",
            float("inf") if V.sig.a >= 3 else 2, part)
    if part.separating():
        return ClassificationVerdict(
            "tensor_mid_1",
            "V meets the B-side and V ^ Abar separates the idempotents, so "
            "the quotient is the tensor product of the two factors",
            1, part)
    if part.max_block == 2:
        return ClassificationVerdict(
            "mid_2",
            "largest equality block of V ^ Abar has size 2; the quotient's "
            "irreducible representations have dimension at most 2",
            2, part)
    return ClassificationVerdict(
        "mid_infinity",
        "an equality block of V ^ Abar has size 3 or more; the quotient "
        "maps onto a free product with unbounded irreducible dimensions",
        float("inf"), part)


# ---------------------------------------------------------------------------
# The chart into P^3 and the quadric stratification
# ---------------------------------------------------------------------------

def grassmann_chart(field: Domain, y: tuple) -> tuple[SubspacePresentation, tuple]:
    """The standard chart: V = span{p1 - y2 q1 - y3 q2, p2 + q1 + y1 q2}
    maps to the point (1 : y1 : y2 : y3); the commutator of the two basis
    vectors is exactly the relation element of that point."""
    f = field
    y1, y2, y3 = y
    basis = (
        (f.one, f.zero, f.neg(y2), f.neg(y3)),
        (f.zero, f.one, f.one, y1),
    )
    V = SubspacePresentation(Signature(3, 3), f, basis)
    point = (f.one, y1, y2, y3)
    return V, point


def lines_through(field: Domain, x: tuple) -> list[str]:
    f = field
    x11, x12, x21, x22 = x
    hits = []
    if f.is_zero(x21) and f.is_zero(x22):
        hits.append("l1")
    if f.is_zero(x11) and f.is_zero(x12):
        hits.append("l2")
    if f.eq(x11, x21) and f.eq(x12, x22):
        hits.append("l3")
    if f.is_zero(x12) and f.is_zero(x22):
        hits.append("l1p")
    if f.is_zero(x11) and f.is_zero(x21):
        hits.append("l2p")
    if f.eq(x11, x12) and f.eq(x21, x22):
        hits.append("l3p")
    return hits


def classify_p3(field: Domain, x: tuple) -> ClassificationVerdict:
    """Rule table on P^3: the quadric x11 x22 = x12 x21 carries three
    strata (nine special points, six lines, generic locus) with known
    verdicts; off the quadric only the one known infinite-dimensional point
    is recognized, and everything else is handed to the engine."""
    f = field
    x = canonical_point(f, x)
    if on_quadric(f, x):
        hits = lines_through(f, x)
        primal = [h for h in hits if not h.endswith("p")]
        dual = [h for h in hits if h.endswith("p")]
        if primal and dual:
            return ClassificationVerdict(
                "quadric_point_mid_inf",
                f"intersection point of {primal[0]} and {dual[0]}: a single "
                "commutator [p_i0, q_j0] is killed and the quotient maps "
                "onto a free product k^2 * k^3 with unbounded irreducibles",
                float("inf"))
        if hits:
            return ClassificationVerdict(
                "quadric_line_mid_inf",
                f"point of line {hits[0]} away from the special points: two "
                "commutators sharing an index are killed; irreducible "
                "dimensions are unbounded",
                float("inf"))
        return ClassificationVerdict(
            "quadric_k9_mid1",
            "generic quadric point: the relation is a single commutator "
            "[a, b] of regular elements, the quotient is the commutative "
            "algebra of nine characters",
            1)
    one = f.one
    bad = (one, f.zero, f.zero, f.neg(one))
    if all(f.eq(a, b) for a, b in zip(x, bad)):
        return ClassificationVerdict(
            "known_infinite_dim",
            "the difference of commutators [p1,q1] - [p2,q2]: known "
            "infinite-dimensional quotient",
            None)
    return ClassificationVerdict(
        "needs_engine",
        "off the quadric and not a recognized special point; dimension "
        "claims require the span and closure certificates",
        None)
