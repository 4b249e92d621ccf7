"""Exact Gaussian elimination over the scalar domains.

Sparse rows are dicts mapping integer column indices to raw domain values.
The echelon keeps pivot rows normalized (pivot coefficient 1) and always
pivots on a row's highest column index, so feeding a matrix whose columns
are ordered low-to-high eliminates the high columns first.  Prime fields
take a reduction loop on plain int arithmetic; every other domain goes
through its Domain operations.  Dense matrices go through one Gauss-Jordan
routine, ``_rref``.
"""

from __future__ import annotations

import heapq

from .scalars import Domain, PrimeField


class SparseEchelon:
    """Incremental row-echelon accumulator over a Domain.

    ``add_row`` reduces an incoming row against the current pivots and, if
    anything survives, installs it as a new pivot row keyed by its highest
    remaining column.  Deterministic: depends only on the row sequence.
    """

    def __init__(self, field: Domain):
        self.field = field
        self.pivots: dict[int, dict] = {}
        self._modp = field.p if isinstance(field, PrimeField) else None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict) -> int | None:
        """Reduce ``row`` (consumed) and return its pivot column, or None."""
        if self._modp is not None:
            return self._eliminate_modp(row, None)
        return self._eliminate_generic(row, None)

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row (not installed); returns the remainder."""
        out: dict = {}
        if self._modp is not None:
            self._eliminate_modp(row, out)
        else:
            self._eliminate_generic(row, out)
        return out

    # Both loops walk the row's columns from the highest down.  A lead
    # without a pivot is free: with ``out`` None it becomes a new pivot row
    # (add_row), otherwise it moves into ``out`` and the walk goes on (reduce).

    def _eliminate_modp(self, row: dict, out: dict | None) -> int | None:
        p = self._modp
        pivots = self.pivots
        row = {c: v % p for c, v in row.items() if v % p}
        heap = [-c for c in row]
        heapq.heapify(heap)
        while heap:
            lead = -heapq.heappop(heap)
            v = row.pop(lead, 0)
            if not v:
                continue
            piv = pivots.get(lead)
            if piv is None:
                if out is None:
                    inv = pow(v, p - 2, p)
                    pivots[lead] = {c: w * inv % p for c, w in row.items()}
                    return lead
                out[lead] = v
                continue
            for c, w in piv.items():
                nv = (row.get(c, 0) - v * w) % p
                if nv:
                    if c not in row:
                        heapq.heappush(heap, -c)
                    row[c] = nv
                else:
                    row.pop(c, None)
        return None

    def _eliminate_generic(self, row: dict, out: dict | None) -> int | None:
        f = self.field
        pivots = self.pivots
        row = {c: v for c, v in row.items() if not f.is_zero(v)}
        heap = [-c for c in row]
        heapq.heapify(heap)
        while heap:
            lead = -heapq.heappop(heap)
            v = row.pop(lead, None)
            if v is None:
                continue
            piv = pivots.get(lead)
            if piv is None:
                if out is None:
                    inv = f.inv(v)
                    pivots[lead] = {c: f.mul(w, inv) for c, w in row.items()}
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


def dense_rank(field: Domain, matrix: list[list]) -> int:
    """Rank by dense elimination; independent of SparseEchelon, used as an
    oracle in tests and for small dense problems."""
    if not matrix:
        return 0
    return len(_rref(field, matrix, len(matrix[0]))[1])


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
