import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partabel.classify import _matrix_inverse
from partabel.linalg import SparseEchelon, dense_rank, nullspace, solve_linear
from partabel.scalars import (
    ExtensionField, PrimeField, QQ, UniPoly, bareiss_determinant, random_prime,
)


def random_sparse_rows(rng, nrows, ncols, density=0.3):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-5, 5)
                if v:
                    row[c] = Fraction(v)
        rows.append(row)
    return rows


def to_dense(rows, ncols):
    return [[r.get(c, Fraction(0)) for c in range(ncols)] for r in rows]


def rank_of_rows(field, rows) -> int:
    ech = SparseEchelon(field)
    for r in rows:
        ech.add_row(dict(r))
    return ech.rank


def test_sparse_rank_matches_dense_oracle():
    rng = random.Random(3)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
        rows = random_sparse_rows(rng, nrows, ncols)
        sparse = rank_of_rows(QQ, rows)
        dense = dense_rank(QQ, to_dense(rows, ncols))
        assert sparse == dense


def test_modp_rank_matches_rational_on_small_entries():
    rng = random.Random(5)
    p = random_prime(rng)
    gf = PrimeField(p)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 8)
        rows = random_sparse_rows(rng, nrows, ncols)
        rq = rank_of_rows(QQ, rows)
        rp = rank_of_rows(gf, [{c: int(v) % p for c, v in r.items()} for r in rows])
        assert rq == rp  # entries tiny, huge prime: no bad reduction


def test_echelon_pivot_rows_reduce_to_zero():
    rng = random.Random(7)
    rows = random_sparse_rows(rng, 15, 10)
    ech = SparseEchelon(QQ)
    for r in rows:
        ech.add_row(dict(r))
    for r in rows:
        assert ech.reduce(dict(r)) == {}


def test_reduce_remainder_is_supported_on_nonpivots():
    rng = random.Random(9)
    rows = random_sparse_rows(rng, 6, 8)
    ech = SparseEchelon(QQ)
    for r in rows:
        ech.add_row(dict(r))
    probe = {c: Fraction(rng.randint(-3, 3)) for c in range(8)}
    rem = ech.reduce(dict(probe))
    assert all(c not in ech.pivots for c in rem)


def test_nullspace_and_solve():
    rng = random.Random(11)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        for v in nullspace(QQ, m):
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
        sol = solve_linear(QQ, m, rhs)
        assert sol is not None
        for row, b in zip(m, rhs):
            assert sum(a * s for a, s in zip(row, sol)) == b


def test_solve_detects_inconsistency():
    m = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve_linear(QQ, m, [Fraction(1), Fraction(2)]) is None


# --- properties of the one dense and the two sparse eliminations ----------------
# GF(7) makes rank drops mod p common; the cubic extension QQ(2^(1/3)) runs
# the generic sparse loop on non-scalar values.

FIELDS = {
    "QQ": QQ,
    "GF7": PrimeField(7),
    "GFp": PrimeField(random_prime(random.Random(2))),
    "EXT": ExtensionField(QQ, UniPoly.from_ints(QQ, [-2, 0, 0, 1])),
}


def _entry(f, cs):
    if isinstance(f, ExtensionField):
        return UniPoly(QQ, [Fraction(c) for c in cs])
    return f.from_int(cs[0])


@st.composite
def matrices(draw, square=False):
    """A field and a small dense matrix over it; when asked, the last row is
    made a combination of the first two, so dependent rows are common."""
    f = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    m = [[_entry(f, draw(coeffs)) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        c = _entry(f, draw(coeffs))
        m[-1] = [f.add(a, f.mul(c, b)) for a, b in zip(m[0], m[1])]
    return f, m


def _sparse(f, row):
    return {c: v for c, v in enumerate(row) if not f.is_zero(v)}


def _sparse_rank(f, m):
    return rank_of_rows(f, [_sparse(f, r) for r in m])


def _dot(f, row, x):
    acc = f.zero
    for a, b in zip(row, x):
        acc = f.add(acc, f.mul(a, b))
    return acc


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_dense_rank_equals_sparse_rank(case):
    f, m = case
    assert dense_rank(f, m) == _sparse_rank(f, m)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_has_full_size_and_is_killed(case):
    f, m = case
    basis = nullspace(f, m)
    assert len(basis) == len(m[0]) - _sparse_rank(f, m)
    for v in basis:
        assert all(f.is_zero(_dot(f, row, v)) for row in m)
    if basis:
        assert _sparse_rank(f, basis) == len(basis)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_linear_solves_or_reports_inconsistency(case, data):
    f, m = case
    coeffs = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    if data.draw(st.booleans()):  # a right-hand side in the column space
        x = [_entry(f, data.draw(coeffs)) for _ in m[0]]
        rhs = [_dot(f, row, x) for row in m]
    else:
        rhs = [_entry(f, data.draw(coeffs)) for _ in m]
    sol = solve_linear(f, m, rhs)
    consistent = _sparse_rank(f, [r + [b] for r, b in zip(m, rhs)]) == _sparse_rank(f, m)
    assert (sol is not None) == consistent
    if sol is not None:
        assert all(f.eq(_dot(f, row, sol), b) for row, b in zip(m, rhs))


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_matrix_inverse_is_a_left_inverse_or_raises(case):
    f, m = case
    n = len(m)
    if _sparse_rank(f, m) < n:
        with pytest.raises(ValueError):
            _matrix_inverse(f, m)
        return
    inv = _matrix_inverse(f, m)
    cols = [[m[k][j] for k in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(n):
            assert f.eq(_dot(f, inv[i], cols[j]), f.one if i == j else f.zero)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.integers(0, 5))
def test_reduce_is_zero_exactly_when_add_row_finds_no_pivot(case, k):
    f, m = case
    ech = SparseEchelon(f)
    for row in m[:k]:
        ech.add_row(_sparse(f, row))
    for row in m:
        rem = ech.reduce(_sparse(f, row))
        copy = SparseEchelon(f)
        copy.pivots = {c: dict(r) for c, r in ech.pivots.items()}
        lead = copy.add_row(_sparse(f, row))
        assert (rem == {}) == (lead is None)
        assert all(c not in ech.pivots for c in rem)
        if lead is not None:
            assert lead == max(rem)


def _permutation_determinant(f, m):
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


@st.composite
def square_matrices(draw):
    """A field and a 3x3 or 4x4 matrix over it, often singular: a row may
    be a combination of two others, or a column may be zero."""
    f = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.sampled_from([3, 4]))
    coeffs = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    m = [[_entry(f, draw(coeffs)) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "dependent_row", "zero_column"]))
    if kind == "dependent_row":
        c = _entry(f, draw(coeffs))
        m[draw(st.integers(2, n - 1))] = [f.add(a, f.mul(c, b)) for a, b in zip(m[0], m[1])]
    elif kind == "zero_column":
        j = draw(st.integers(0, n - 1))
        for row in m:
            row[j] = f.zero
    return f, m


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_bareiss_determinant_matches_the_permutation_expansion(case):
    f, m = case
    det = bareiss_determinant(f, m)
    assert f.eq(det, _permutation_determinant(f, m))
    assert f.is_zero(det) == (_sparse_rank(f, m) < len(m))
