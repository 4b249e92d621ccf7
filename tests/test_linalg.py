import heapq
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partabel.classify import _matrix_inverse
import partabel.linalg as linalg
from partabel.linalg import (
    HEAP_FROM, SparseEchelon, _echelon_rank, _rref, dense_rank, nullspace, solve_linear,
)
from partabel.reptheory import det3
from partabel.scalars import (
    ExtensionField, PrimeField, QQ, UniPoly, random_prime,
)
from tests_helpers import GenericEchelon, irreducible_extension, permutation_determinant


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
        assert sparse == len(_rref(QQ, to_dense(rows, ncols), ncols)[1])


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


# --- properties of the dense and sparse eliminations and the 3x3 determinant ----
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
def test_dense_rank_equals_rref_pivot_count(case):
    f, m = case
    assert dense_rank(f, m) == len(_rref(f, m, len(m[0]))[1])


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
        copy = SparseEchelon(f)  # the same pivots: the echelon is deterministic
        for r in m[:k]:
            copy.add_row(_sparse(f, r))
        lead = copy.add_row(_sparse(f, row))
        assert (rem == {}) == (lead is None)
        assert all(c not in ech.pivots for c in rem)
        if lead is not None:
            assert lead == max(rem)


@st.composite
def square_matrices(draw):
    """A field and a 3x3 matrix over it, often singular: a row may be a
    combination of two others, or a column may be zero."""
    f = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coeffs = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    m = [[_entry(f, draw(coeffs)) for _ in range(3)] for _ in range(3)]
    kind = draw(st.sampled_from(["any", "dependent_row", "zero_column"]))
    if kind == "dependent_row":
        c = _entry(f, draw(coeffs))
        m[2] = [f.add(a, f.mul(c, b)) for a, b in zip(m[0], m[1])]
    elif kind == "zero_column":
        j = draw(st.integers(0, 2))
        for row in m:
            row[j] = f.zero
    return f, m


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det3_matches_the_permutation_expansion(case):
    f, m = case
    det = det3(m, f.add, f.sub, f.mul)
    assert f.eq(det, permutation_determinant(f, m))
    assert f.is_zero(det) == (_sparse_rank(f, m) < len(m))


# --- the reduction loop against a loop that always takes leads off a heap -------

class HeapEchelon:
    """A reduction loop that takes every lead off a heap: the columns wait
    in a heap of negated indices, and a popped column that was cancelled in
    the meantime is skipped.  Kept as the oracle for SparseEchelon's loop,
    which takes a lead by max(row) while the row is short.  It runs on
    Domain operations only; on GF(p) they give the same residues as the int
    branch."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def add_row(self, row):
        return self._reduce(row, None)

    def reduce(self, row):
        out = {}
        self._reduce(row, out)
        return out

    def _reduce(self, row, out):
        f = self.field
        row = {c: v for c, v in row.items() if not f.is_zero(v)}
        heap = [-c for c in row]
        heapq.heapify(heap)
        while heap:
            lead = -heapq.heappop(heap)
            v = row.pop(lead, None)
            if v is None:
                continue
            piv = self.pivots.get(lead)
            if piv is None:
                if out is None:
                    inv = f.inv(v)
                    self.pivots[lead] = {c: f.mul(w, inv) for c, w in row.items()}
                    return lead
                out[lead] = v
                continue
            for c, w in piv.items():
                nv = f.sub(row.get(c, f.zero), f.mul(v, w))
                if f.is_zero(nv):
                    row.pop(c, None)
                else:
                    if c not in row:
                        heapq.heappush(heap, -c)
                    row[c] = nv
        return None


HEAP_FIELDS = {
    "GF5": PrimeField(5),
    "GF61": PrimeField(2**61 - 1),
    "QQ": QQ,
    "EXT": irreducible_extension(PrimeField(random_prime(random.Random(17))), 3),
}


@st.composite
def row_sequences(draw):
    """A field, rows to install and rows to reduce, over 64 columns.  A row
    is short (up to 6 entries) or long (HEAP_FROM or more), or a chain of
    combinations: an earlier row plus multiples of one to three more,
    which may be combinations themselves, so cancellations are common.  A
    short row reduced by long pivot rows fills in past HEAP_FROM, so the
    loop takes leads by max(row), switches to the heap midway, or starts
    on it."""
    f = HEAP_FIELDS[draw(st.sampled_from(sorted(HEAP_FIELDS)))]
    small = st.integers(-2, 2)
    if isinstance(f, ExtensionField):
        coeff = st.lists(small, max_size=3).map(
            lambda cs: UniPoly(f.base, [f.base.from_int(c) for c in cs]))
    else:
        coeff = small.map(f.from_int)
    cols = st.integers(0, 63)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if len(rows) >= 2 and draw(st.booleans()):
            row = dict(draw(st.sampled_from(rows)))
            for _ in range(draw(st.integers(1, 3))):
                b, c = draw(st.sampled_from(rows)), draw(coeff)
                for k, w in b.items():
                    row[k] = f.add(row.get(k, f.zero), f.mul(c, w))
        else:
            size = draw(st.sampled_from([(0, 6), (HEAP_FROM, HEAP_FROM + 16)]))
            row = draw(st.dictionaries(cols, coeff, min_size=size[0], max_size=size[1]))
        rows.append(row)
    probes = draw(st.lists(st.dictionaries(cols, coeff, max_size=6), max_size=4))
    if isinstance(f, PrimeField):  # a GF(p) row holds no zero entries (linalg doc)
        rows, probes = ([{c: v for c, v in r.items() if v} for r in rs] for rs in (rows, probes))
    return f, rows, probes


def _same_row(f, a, b):
    return set(a) == set(b) and all(f.eq(a[c], b[c]) for c in a)


@settings(max_examples=300, deadline=None)
@given(row_sequences())
def test_echelon_matches_the_heap_loop(case):
    f, rows, probes = case
    ech, oracle = SparseEchelon(f), HeapEchelon(f)
    for row in rows:
        assert ech.add_row(dict(row)) == oracle.add_row(dict(row))
        assert list(ech.pivots) == list(oracle.pivots)
        assert all(_same_row(f, ech.pivots[c], oracle.pivots[c]) for c in ech.pivots)
    for row in rows + probes:
        assert _same_row(f, ech.reduce(dict(row)), oracle.reduce(dict(row)))


@pytest.mark.parametrize("name", sorted(HEAP_FIELDS))
def test_rows_that_fill_in_switch_to_the_heap(name, monkeypatch):
    # long pivot rows first, then short rows that each reduce through them
    # and fill in past HEAP_FROM entries: every field takes its first leads
    # by max(row) and the rest off the heap, and installs the pivot rows the
    # heap loop does, keys in order
    f = HEAP_FIELDS[name]
    heaps = [0]
    monkeypatch.setattr(linalg, "heapify", lambda h: heaps.__setitem__(0, heaps[0] + 1)
                        or heapq.heapify(h))
    rng = random.Random(5)
    coeff = (lambda: UniPoly(f.base, [f.base.from_int(rng.randint(-2, 2)) for _ in range(3)])) \
        if isinstance(f, ExtensionField) else (lambda: f.from_int(rng.randint(-2, 2)))
    dense = [{c: coeff() for c in rng.sample(range(top), 2 * HEAP_FROM // 3)} | {top: f.one}
             for top in range(64, 64 + HEAP_FROM)]
    short = [{c: coeff() for c in rng.sample(range(64, 64 + HEAP_FROM), 4)} for _ in range(8)]
    rows = [{c: v for c, v in r.items() if not f.is_zero(v)} for r in dense + short]
    ech, oracle = SparseEchelon(f), HeapEchelon(f)
    for row in rows:
        assert ech.add_row(dict(row)) == oracle.add_row(dict(row))
        assert list(ech.pivots) == list(oracle.pivots)
        assert all(list(ech.pivots[c]) == list(oracle.pivots[c]) for c in ech.pivots)
        assert all(_same_row(f, ech.pivots[c], oracle.pivots[c]) for c in ech.pivots)
    assert heaps[0] >= len(short) // 2


# --- the fraction-free QQ branch against the Domain branch ----------------------

_big = st.integers(-10**30, 10**30)
_rational = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, _big, st.integers(1, 10**20)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 10**25)),
    st.integers(-5, 5),   # plain ints are rationals too
)


@st.composite
def rational_rows(draw):
    """Rows to install and rows to reduce over the columns -3..7; the
    negative columns stand for provenance markers.  A row may repeat an
    earlier one, or be a combination of two, so duplicates and rows that
    reduce to zero are common; zero entries come in as well."""
    cols = st.integers(-3, 7)
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["new", "repeat", "combination"]))
        if kind == "repeat" and rows:
            row = dict(draw(st.sampled_from(rows)))
        elif kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(_rational)
            row = dict(a)
            for k, w in b.items():
                row[k] = row.get(k, 0) + c * w
        else:
            row = draw(st.dictionaries(cols, _rational, max_size=6))
        rows.append(row)
    probes = draw(st.lists(st.dictionaries(cols, _rational, max_size=6), max_size=4))
    return rows, probes


@settings(max_examples=300, deadline=None)
@given(rational_rows())
def test_fraction_free_loop_matches_the_generic_loop_over_qq(case):
    rows, probes = case
    ech, oracle = SparseEchelon(QQ), GenericEchelon(QQ)
    for row in rows:
        assert ech.add_row(dict(row)) == oracle.add_row(dict(row))
        assert list(ech.pivots) == list(oracle.pivots)
        # equal values and the same key order in every pivot row
        assert all(list(ech.pivots[c].items()) == list(oracle.pivots[c].items())
                   for c in ech.pivots)
        # each integer copy is the primitive multiple L * pivots[lead], L > 0
        for lead, (L, N) in ech._int_pivots.items():
            assert L > 0 and gcd(L, *N.values()) == 1
            assert list(N) == list(ech.pivots[lead])
            assert all(Fraction(w, L) == ech.pivots[lead][c] for c, w in N.items())
    for row in rows + probes:
        assert list(ech.reduce(dict(row)).items()) == list(oracle.reduce(dict(row)).items())


def test_fraction_free_loop_installs_normalized_fraction_rows():
    ech = SparseEchelon(QQ)
    assert ech.add_row({4: Fraction(-6, 7), 2: Fraction(3, 7), 0: Fraction(9, 14), -1: 1}) == 4
    assert ech.pivots[4] == {2: Fraction(-1, 2), 0: Fraction(-3, 4), -1: Fraction(-7, 6)}
    assert all(type(v) is Fraction for v in ech.pivots[4].values())
    # 3/5 times that row plus 2 at columns 2 and 0: the true remainder is
    # the added part, whatever integer multiple the loop worked on
    probe = {4: Fraction(-18, 35), 2: Fraction(9, 35) + 2, 0: Fraction(27, 70) + 2,
             -1: Fraction(3, 5)}
    assert ech.reduce(dict(probe)) == {2: Fraction(2), 0: Fraction(2)}
    assert ech.add_row(dict(probe)) == 2
    assert ech.pivots[2] == {0: Fraction(1)}


def test_fraction_free_loop_installs_a_primitive_row_after_steps_that_divide_nothing():
    # every pivot row is an integer row (L = 1), so no step multiplies the
    # row or divides it by its content; the row left, {1: -2, 0: 6}, has
    # content 2 and a negative lead, and installs as the primitive (1, {0: -3})
    ech = SparseEchelon(QQ)
    assert ech.add_row({3: Fraction(1), 0: Fraction(1)}) == 3
    assert ech.add_row({2: Fraction(1), 0: Fraction(-1)}) == 2
    assert ech._int_pivots == {3: (1, {0: 1}), 2: (1, {0: -1})}
    assert ech.add_row({3: Fraction(1), 2: Fraction(1), 1: Fraction(-2), 0: Fraction(6)}) == 1
    assert ech._int_pivots[1] == (1, {0: -3})
    assert ech.pivots[1] == {0: Fraction(-3)}


def test_fraction_free_loop_keeps_its_integers_within_the_hadamard_bound(monkeypatch):
    # A reduced row divided by its content is a primitive vector of
    # (k+1)-minors of the input rows, so its entries, and those of the
    # primitive pivot rows, are below the Hadamard bound H.  The loop
    # divides the row by its content after each step that multiplied it
    # (a != 1); a step with a == 1 multiplies nothing and leaves the
    # content it creates to the next division or to the install.  The
    # widest integer handed to gcd stays within the bound 2 H^2 of an
    # update a * row - b * N of primitive rows.  Without the content
    # division the row would be multiplied by every lead it meets.
    import partabel.linalg as linalg
    widest = [0]
    real_gcd = linalg.gcd

    def spy(*args):
        widest[0] = max([widest[0]] + [abs(x).bit_length() for x in args])
        return real_gcd(*args)

    monkeypatch.setattr(linalg, "gcd", spy)
    rng = random.Random(1)
    n, top = 20, 9
    ech = SparseEchelon(QQ)
    for _ in range(n):
        ech.add_row({c: Fraction(rng.randint(-top, top)) for c in range(n)})
    assert ech.rank == n
    hadamard = (top * top * n) ** (n // 2)   # n even: (top * sqrt(n))^n
    assert widest[0] <= 2 * hadamard.bit_length() + 1


# --- full-rank checks on a GF(l) image -------------------------------------------
# image_first_rank over QQ returns the rank of the matrix's image mod
# l0 = 2^61 + 15 when that image has full rank, and the exact rank otherwise;
# over every other field, QQ(theta) included, it is the exact rank.  The
# extensions' moduli have a root mod l0, none, and the coefficient 1/l0.

L0 = 2**61 + 15
MODULI = {
    "root at l0": [2, 0, 0, 1],
    "no root at l0": [5, 1, 0, 1],
    "denominator l0": [1, Fraction(1, L0), 0, 1],
}
EXTENSIONS = {name: ExtensionField(QQ, UniPoly(QQ, [Fraction(c) for c in cs]))
              for name, cs in MODULI.items()}


def test_only_qq_takes_a_rank_on_an_image_first():
    m = [[1, 2], [3, 4]]
    images, built = [], []

    def image_rows(gf):
        images.append(gf.p)
        return [[gf.from_int(v) for v in row] for row in m]

    def exact_rows(f):
        return lambda: built.append(f) or [[f.from_int(v) for v in row] for row in m]
    assert linalg.image_first_rank(QQ, 2, image_rows, exact_rows(QQ)) == 2
    assert (images, built) == ([L0], [])
    gfp = PrimeField(random_prime(random.Random(4)))
    for f in [gfp, irreducible_extension(gfp, 3)] + list(EXTENSIONS.values()):
        images.clear()
        built.clear()
        assert linalg.image_first_rank(f, 2, image_rows, exact_rows(f)) == 2
        assert (images, built) == ([], [f]), f


def test_theta_times_theta_squared_stays_rank_one():
    # rows (t, 1) and (t * t^2, t^2) are dependent only because m(t) = 0:
    # an image sending t to a non-root s of m gives determinant m(s) != 0
    for name, ext in EXTENSIONS.items():
        t = ext.gen()
        t2 = ext.mul(t, t)
        m = [[t, ext.one], [ext.mul(t, t2), t2]]
        assert dense_rank(ext, m) == 1, name


def test_a_rank_drop_mod_l_falls_back_to_the_exact_rank():
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(L0)]]
    gf = PrimeField(L0)
    assert _echelon_rank(gf, [[gf.from_fraction(v) for v in row] for row in m]) == 1
    assert dense_rank(QQ, m) == 2
    for ext in EXTENSIONS.values():
        ell = ext.from_int(L0)
        assert dense_rank(ext, [[ext.one, ext.zero], [ext.zero, ell]]) == 2
    # not l0-integral: no image at all
    assert dense_rank(QQ, [[Fraction(1, L0), Fraction(1)], [Fraction(1), Fraction(1)]]) == 2


_integral_entry = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6)),
    st.sampled_from([Fraction(L0), Fraction(-2 * L0)]),
)
_any_entry = st.one_of(
    _integral_entry,
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([L0, 3 * L0])),
)


@st.composite
def deficient_matrices(draw):
    """A domain (QQ or one of the extensions) and a product A B with inner
    dimension k, so of rank at most k; entries may be multiples of l0 or
    have l0 in their denominators, and a row may be scaled by l0, which
    drops the rank of QQ's image but not the true one."""
    name = draw(st.sampled_from(["QQ"] + sorted(EXTENSIONS)))
    f = QQ if name == "QQ" else EXTENSIONS[name]
    nrows, ncols, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    entries = draw(st.sampled_from([_integral_entry, _any_entry]))

    def entry():
        if f is QQ:
            return draw(entries)
        return UniPoly(QQ, [draw(entries) for _ in range(3)])

    a = [[entry() for _ in range(k)] for _ in range(nrows)]
    b = [[entry() for _ in range(ncols)] for _ in range(k)]
    m = []
    for row in a:
        out = []
        for j in range(ncols):
            acc = f.zero
            for i, v in enumerate(row):
                acc = f.add(acc, f.mul(v, b[i][j]))
            out.append(acc)
        m.append(out)
    if draw(st.booleans()):
        i, c = draw(st.integers(0, nrows - 1)), f.from_int(L0)
        m[i] = [f.mul(c, v) for v in m[i]]
    return f, m


@settings(max_examples=100, deadline=None)
@given(deficient_matrices())
def test_dense_rank_matches_the_exact_rank_over_qq_and_its_extensions(case):
    f, m = case
    assert dense_rank(f, m) == _echelon_rank(f, m)
