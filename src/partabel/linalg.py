"""Exact Gaussian elimination over the scalar domains.

``SparseEchelon`` grows by ``add_row``: a row installs a pivot or
reduces to zero (``install`` puts in a pivot row that ``add_row`` would,
without reducing).  A remainder is the sum of the normal forms of its words
(``IdealSpan.normal_forms``): full reduction by normalized pivot rows with
distinct leads is unique and linear.

Sparse rows are dicts mapping integer column indices to raw domain values.
Over GF(p) a row is used as given, with no copy: raw GF(p) values are
already residues in [0, p), as every ``PrimeField`` operation returns them,
so a row needs only to hold no zero entries.  Every caller keeps that:
``IdealSpan`` rows and ``AlgebraElement`` terms never store a zero, the
Burnside span drops zero matrix entries, and ``_echelon_rank`` drops the
zeros of its dense rows.  One loop, ``add_row``, reduces every row: it
takes the row's highest column as its lead, subtracts that column's pivot
row, and installs the row, normalized (pivot coefficient 1), at the first
lead with no pivot, so columns fed low-to-high are eliminated from the
highest down.  Only the subtraction and the install depend on the field:
plain int arithmetic over GF(p), fraction-free integers over QQ (Bareiss
1968, sparing the two normalizing gcds of every ``Fraction`` update), and
Domain operations elsewhere.  A QQ row is divided by its content only
after a step that multiplied it; the install divides out what is left.  A
pivot row holds only columns below its own lead, so each lead is the row's
highest column left.  A short row takes it as ``max(row)``; once the row
holds ``HEAP_FROM`` entries, the loop takes it off a heap of negated column
indices (Monagan and Pearce 2007), pushing a column when a subtraction
first inserts it and skipping a popped column that has since cancelled.
Both give the same leads, and the heap spares a rescan of a row that fills
in, which made the lead search quadratic at generic points.  ``install``
lets a caller that feeds many shifts of one row (``IdealSpan`` growth)
install a shift whose lead is free as a shifted copy of an earlier one,
with no elimination.  Every rank comes from SparseEchelon, through
``image_first_rank``: over QQ it first eliminates the matrix's image mod
l = 2^61 + 15, and builds and eliminates the exact rows only when that
image falls short of full rank; over every other field it eliminates the
exact rows.  Dense solves (``nullspace``, ``solve_linear``, the classifier's
matrix inverse and the t*q rewrite) go through the one dense Gauss-Jordan
routine, ``_rref``.  No determinant is taken here: the only ones partabel
reads are 3 x 3, of the conic net and of a quadric cofactor, and
``reptheory.det3`` expands them by cofactors.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable

from .scalars import _MODULAR_FIELD, Domain, PrimeField, RationalField

# a row with this many entries takes its leads off a heap, a shorter one by
# max(row), which costs less there (module doc); rows never go back
HEAP_FROM = 32


class SparseEchelon:
    """Incremental row-echelon accumulator over a Domain.

    ``add_row`` reduces an incoming row against the current pivots and, if
    anything survives, installs it as a new pivot row keyed by its highest
    remaining column.  Deterministic: depends only on the row sequence.
    ``pivots`` is read by callers, never written: over QQ the loop reduces
    against integer copies of its rows.
    """

    def __init__(self, field: Domain):
        self.field = field
        self.pivots: dict[int, dict] = {}
        self._modp = field.p if isinstance(field, PrimeField) else None
        self._qq = isinstance(field, RationalField)
        # over QQ: lead -> (L, N), pivots[lead] times L as a primitive
        # integer row, L > 0
        self._int_pivots: dict[int, tuple[int, dict]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict) -> int | None:
        """Reduce ``row`` and return its pivot column, or None.  Outside QQ
        the row is reduced in place and, if it installs, becomes the pivot row.

        Over QQ the loop works on an integer multiple of the row.  Each step
        scales it by a nonzero rational (the lead's elimination, and the
        division by its content after a step that multiplied it), so an
        entry is zero exactly when it is zero in the Domain branch: the
        leads, the order in which columns enter and leave the dict, and
        hence the normalized pivot rows, keys in order, are that branch's.
        Rows are rescaled in place: a comprehension reading a local would
        make it a closure cell, which every call builds."""
        p, f, qq, pivots = self._modp, self.field, self._qq, self.pivots
        if qq:
            row = {c: v for c, v in row.items() if v}
            den = lcm(*[v.denominator for v in row.values()])
            for c, v in row.items():
                row[c] = v.numerator * (den // v.denominator)
            pivots = self._int_pivots
        elif p is None:
            for c, v in list(row.items()):
                if f.is_zero(v):
                    del row[c]
        heap = None
        while row:
            if heap is None and len(row) < HEAP_FROM:
                lead = max(row)
            else:
                if heap is None:
                    heap = [-c for c in row]
                    heapify(heap)
                lead = -heappop(heap)
                if lead not in row:
                    continue
            v = row.pop(lead)
            piv = pivots.get(lead)
            if piv is None:
                break
            if p is not None:
                for c, w in piv.items():
                    nv = (row.get(c, 0) - v * w) % p
                    if nv:
                        if heap is not None and c not in row:
                            heappush(heap, -c)
                        row[c] = nv
                    else:
                        row.pop(c, None)
            elif qq:
                # row - v * N/L  =  (a*row - b*N) / a
                L, N = piv
                g = gcd(L, v)
                a, b = L // g, v // g
                if a != 1:
                    for c, w in row.items():
                        row[c] = a * w
                for c, w in N.items():
                    nv = row.get(c, 0) - b * w
                    if nv:
                        if heap is not None and c not in row:
                            heappush(heap, -c)
                        row[c] = nv
                    else:
                        row.pop(c, None)
                if a != 1 and row:
                    d = gcd(*row.values())
                    if d != 1:
                        for c, w in row.items():
                            row[c] = w // d
            else:
                for c, w in piv.items():
                    nv = f.sub(row.get(c, f.zero), f.mul(v, w))
                    if f.is_zero(nv):
                        row.pop(c, None)
                    else:
                        if heap is not None and c not in row:
                            heappush(heap, -c)
                        row[c] = nv
        else:
            return None
        if p is not None:
            inv = pow(v, -1, p)
            for c, w in row.items():
                row[c] = w * inv % p
        elif qq:
            d = gcd(v, *row.values()) * (1 if v > 0 else -1)
            L = v // d
            for c, w in row.items():
                row[c] = w // d
            pivots[lead] = (L, dict(row))
            for c, w in row.items():
                row[c] = Fraction(w, L)
        else:
            inv = f.inv(v)
            for c, w in row.items():
                row[c] = f.mul(w, inv)
        self.pivots[lead] = row
        return lead

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row (not installed); returns the remainder.  No
        caller in the package: the benchmark's tracer wraps this name, and
        it goes when that span does (ROADMAP item 1)."""
        f = self.field
        row = {c: v for c, v in row.items() if not f.is_zero(v)}
        out: dict = {}
        while row:
            lead = max(row)
            v = row.pop(lead)
            piv = self.pivots.get(lead)
            if piv is None:
                out[lead] = v
                continue
            for c, w in piv.items():
                nv = f.sub(row.get(c, f.zero), f.mul(v, w))
                if f.is_zero(nv):
                    row.pop(c, None)
                else:
                    row[c] = nv
        return out

    def install(self, lead: int, source: int):
        """Install at ``lead``, which has no pivot, the pivot row of
        ``source`` shifted by lead - source, with the QQ branch's integer
        copy.  When ``source``'s pivot came from a row R whose highest
        column was free, this is what ``add_row`` installs from R shifted
        by lead - source: at a free lead it installs the other entries
        normalized, in dict order, with no elimination, and a shift moves
        only the columns."""
        shift = lead - source
        self.pivots[lead] = {c + shift: w for c, w in self.pivots[source].items()}
        if self._qq:
            L, N = self._int_pivots[source]
            self._int_pivots[lead] = (L, {c + shift: w for c, w in N.items()})


def _rref(field: Domain, rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Dense Gauss-Jordan elimination of a copy of ``rows``, pivoting only
    in the first ``ncols`` columns (later columns ride along, e.g. a
    right-hand side).  Returns the reduced rows and the pivot columns: row
    r has a 1 at ``pivots[r]`` and 0 at every other pivot column, and the
    rows past ``len(pivots)`` vanish in the first ``ncols`` columns."""
    f = field
    a = [list(r) for r in rows]
    nrows = len(a)
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = None
        for i in range(row, nrows):
            if not f.is_zero(a[i][col]):
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = f.inv(a[row][col])
        a[row] = [f.mul(x, inv) for x in a[row]]
        for i in range(nrows):
            if i != row and not f.is_zero(a[i][col]):
                c = a[i][col]
                a[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(a[i], a[row])]
        pivots.append(col)
    return a, pivots


def image_first_rank(field: Domain, full: int, image_rows: Callable,
                     exact_rows: Callable) -> int:
    """Rank of the matrix that ``exact_rows()`` builds over ``field``, at
    most ``full``.  Over QQ it is first taken of ``image_rows(gf)``, the
    rows mapped into gf = GF(l), l = 2^61 + 15, by n/d -> n d^-1
    (``gf.from_fraction``), a ring map on the l-integral rationals.  A rank
    can only drop under a ring map, so an image of rank ``full`` proves full
    rank.  A short image, an l in a denominator (ZeroDivisionError) or any
    other field takes ``_echelon_rank`` of the exact rows.  QQ(theta) has no
    image: it would need a root of the modulus mod l, and its only ranks,
    ``wedderburn``'s second lower bound, cost milliseconds exact."""
    if isinstance(field, RationalField):
        try:
            rows = image_rows(_MODULAR_FIELD)
        except ZeroDivisionError:  # l divides a denominator
            rows = None
        if rows is not None and _echelon_rank(_MODULAR_FIELD, rows) == full:
            return full
    return _echelon_rank(field, exact_rows())


def dense_rank(field: Domain, matrix: list[list]) -> int:
    """Rank of a dense matrix, through ``image_first_rank``: the matrix's
    image over GF(l) first when the field is QQ.  Callers expecting a
    deficient rank use ``_echelon_rank`` directly."""
    if not matrix:
        return 0
    return image_first_rank(
        field, min(len(matrix), len(matrix[0])),
        lambda gf: [[gf.from_fraction(v) for v in row] for row in matrix],
        lambda: matrix)


def _echelon_rank(field: Domain, matrix: list[list]) -> int:
    """Rank of a dense matrix through SparseEchelon.  Column j enters at
    index ``ncols - 1 - j``, so the leftmost column is eliminated first, as
    in ``_rref``, and zero entries are dropped, as the GF(p) branch needs."""
    if not matrix:
        return 0
    last = len(matrix[0]) - 1
    ech = SparseEchelon(field)
    for row in matrix:
        ech.add_row({last - j: v for j, v in enumerate(row) if not field.is_zero(v)})
    return ech.rank


def nullspace(field: Domain, matrix: list[list]) -> list[list]:
    """Basis of the right kernel of a dense matrix over a field."""
    f = field
    ncols = len(matrix[0]) if matrix else 0
    a, pivots = _rref(f, matrix, ncols)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [f.zero] * ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(a[r][fc])
        basis.append(v)
    return basis


def solve_linear(field: Domain, matrix: list[list], rhs: list) -> list | None:
    """One solution of A x = b over a field, or None if inconsistent."""
    f = field
    ncols = len(matrix[0]) if matrix else 0
    a, pivots = _rref(f, [list(r) + [b] for r, b in zip(matrix, rhs)], ncols)
    if any(not f.is_zero(r[ncols]) for r in a[len(pivots):]):
        return None
    x = [f.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = a[r][ncols]
    return x
