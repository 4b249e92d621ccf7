"""Filtered ideal-span engine for quotients of k^3 * k^3 by a commutator
relation, with certified dimension bounds.

Given x in P^3 the relation is X = sum x_ij [p_i, q_j].  The engine spans
the two-sided ideal I(X) degree by degree with products u*X*v, echelonizes
with the highest word in the graded order eliminated first, and reads off:

* counted rank at degree n -- independent ideal elements supported in
  F^n, a certified lower bound on dim(I(X) ^ F^n R);
* quotient bound at degree n -- dim F^n R minus the counted rank, a
  certified upper bound on dim F^n S_x;
* a closure certificate -- a monomial basis B whose products with the
  generating letters of the signature (p1, p2, q1, q2 for k^3 * k^3)
  reduce back into span(B), certifying |B| as an upper bound for dim S_x
  in all degrees at once; its structure constants are folded from that
  letter action only when something reads them.

Degree drops are the whole point: a product of formal degree up to
window+2 may collapse into low degree after elimination, which is how the
degree-5 words fall into F^4 at generic points.

Most products reduce to zero, so the span skips those it can prove
redundant in advance: u*X*v with |u| >= 1 is fed only when its tail
u[1:]*X*v gave a pivot one window earlier, and with |v| >= 1 only when
u*X*v[:-1] did; and u is skipped whole when it starts with the lead word
of a top-degree pivot (F5's syzygy criterion).  Each skipped product is a
combination of products fed before it, so it would reduce to zero, and the
echelon is that of feeding every product (proof in ``IdealSpan``).

Rows are built from column arithmetic, not word tuples.  The words of a
signature are numbered once per process (``column_table``): a word w of
length n has column start[n] + (the number of P-initial words of length n,
if w starts with a Q-letter) + r(w), the rank r(w) reading its letter
indices minus one as a mixed-radix number, radix a - 1 at P-letters and
b - 1 at Q-letters, first letter most significant.  So for each length and
first tag of v the column of w1 * v is affine in r(v) (``ColumnTable.seam``):
base + r(v) at a seam of two tags, and base + (r(v) mod count) at a merging
seam (the same letter on both sides), count being the number of words
v[1:], since r(v) = (first index of v - 1) * count + r(v[1:]).  Any other
seam of one tag is the zero product.  A row u * X_k * v is then a few
integer additions, as in the symbolic preprocessing of Faugere's F4 (1999).
The terms of each u, k and seam bucket are merged once into a template,
the row at r(v) = 0.  Every product's row is its template's shifted by
r(v), so once one shift has gone in at its free top column, every later
shift whose top column is free goes in as a shifted copy of that pivot
row, with no elimination; only the other rows are reduced.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .freeproduct import (
    EMPTY_WORD, P, Q, AlgebraElement, Signature, Word,
    commutator, concat_words, filtration_dim, idempotent,
    word_str, words_of_length,
)
from .linalg import SparseEchelon
from .scalars import (
    Domain, DegenerateSpecialization, FunctionField, PrimeField,
    RationalFunction, add_term,
)

DEGREE4_PIVOT_PQ: Word = ((P, 2), (Q, 1), (P, 1), (Q, 1))
DEGREE4_PIVOT_QP: Word = ((Q, 2), (P, 1), (Q, 1), (P, 1))

# 19 monomials spanning F^4 of the generic quotient (one linear dependence
# among them); kept as a reference list whose rank inside the computed basis
# is checked, never assumed.
SPANNING_MONOMIALS_DEGREE4: tuple[str, ...] = (
    "1", "p1", "p2", "q1", "q2",
    "p1.q2", "p2.q1", "p2.q2", "q1.p1", "q1.p2", "q2.p1", "q2.p2",
    "p2.q1.p2", "p2.q2.p1", "q1.p1.q1", "q1.p2.q2", "q2.p2.q2",
    "p2.q1.p1.q1", "q2.p1.q1.p1",
)


class ClosureFailure(RuntimeError):
    """Raised when no multiplication-closed monomial basis was certified;
    carries a suggestion to increase n_max or slack, the last leaks and the
    span it grew."""

    def __init__(self, message: str, leaks: list | None, span: "IdealSpan"):
        super().__init__(message)
        self.leaks = leaks or []
        self.span = span


@dataclass(frozen=True)
class CommutatorRelation:
    """The element X = sum x_ij [p_i, q_j] attached to a point of P^3."""

    sig: Signature
    field: Domain
    point: tuple
    element: AlgebraElement


def on_quadric(field: Domain, x: tuple) -> bool:
    """x11 x22 = x12 x21: the one quadric test, at a point of P^3 or, as
    y3 = y1 y2, at the chart point (1 : y1 : y2 : y3)."""
    x11, x12, x21, x22 = x
    return field.eq(field.mul(x11, x22), field.mul(x12, x21))


def canonical_point(field: Domain, coords) -> tuple:
    """Scale homogeneous coordinates so the first nonzero one equals 1."""
    coords = tuple(coords)
    for c in coords:
        if not field.is_zero(c):
            inv = field.inv(c)
            return tuple(field.mul(x, inv) for x in coords)
    raise ValueError("zero point is not a point of P^3")


def make_relation(field: Domain, point=None, chart=None,
                  sig: Signature = Signature(3, 3)) -> CommutatorRelation:
    """Assemble X for a point (x11:x12:x21:x22) or a chart triple
    (y1, y2, y3) standing for (1:y1:y2:y3)."""
    if chart is not None:
        if point is not None:
            raise ValueError("give either a point or a chart triple")
        y1, y2, y3 = chart
        point = (field.one, y1, y2, y3)
    point = canonical_point(field, point)
    x11, x12, x21, x22 = point
    p1 = idempotent(sig, field, P, 1)
    p2 = idempotent(sig, field, P, 2)
    q1 = idempotent(sig, field, Q, 1)
    q2 = idempotent(sig, field, Q, 2)
    X = (commutator(p1, q1).scale(x11) + commutator(p1, q2).scale(x12)
         + commutator(p2, q1).scale(x21) + commutator(p2, q2).scale(x22))
    if X.is_zero():
        raise ValueError("relation vanished; zero point?")
    return CommutatorRelation(sig, field, point, X)


class ColumnTable:
    """The word columns of one signature in the graded word order, grown
    on demand: ``words``, the inverse map ``index``, ``start[n]`` the first
    column of length n, ``count[n]`` the numbers of P- and Q-initial words
    of length n ((1, 1) at n = 0: the empty word has the one rank 0), and
    ``length`` each column's length.  The tag and rank of a column follow
    from these (``coords``); the module doc gives the arithmetic."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.radix = (sig.a - 1, sig.b - 1)
        self.words: list[Word] = []
        self.index: dict[Word, int] = {}
        self.start = [0]
        self.count: list[tuple[int, int]] = []
        self.length = array("H")

    def ensure(self, n: int):
        """Extend the columns to every word of length <= n."""
        a, b = self.radix
        for k in range(len(self.count), n + 1):
            for w in sorted(words_of_length(self.sig, k)):
                self.index[w] = len(self.words)
                self.words.append(w)
            self.length.extend([k] * (len(self.words) - self.start[k]))
            self.count.append((a ** ((k + 1) // 2) * b ** (k // 2),
                               b ** ((k + 1) // 2) * a ** (k // 2)) if k else (1, 1))
            self.start.append(len(self.words))

    def block(self, n: int) -> range:
        """Column indices of the words of length n: a contiguous block of
        the graded order, P-initial words first."""
        self.ensure(n)
        return range(self.start[n], self.start[n + 1])

    def tag_start(self, n: int, tag: int) -> int:
        """The first column of length n whose word starts with ``tag``."""
        return self.start[n] + (self.count[n][P] if tag == Q else 0)

    def coords(self, col: int) -> tuple[int, int, int]:
        """(length, first tag, rank) of a column; (0, P, 0) for the empty word."""
        n = self.length[col]
        r = col - self.start[n]
        first_p = self.count[n][P]
        return (n, P, r) if r < first_p else (n, Q, r - first_p)

    def seam(self, col: int, m: int, tag: int) -> tuple[int, int | None]:
        """(offset, letter) for the products w * v, w the word of ``col``
        and v of length m starting with ``tag`` (any tag when m = 0): the
        column of w * v is offset + r(v).  With ``letter`` not None the seam
        merges, and the product is nonzero only for r(v) // count[m - 1] of
        the other tag == letter, which is w's last index minus one."""
        n, first, rank = self.coords(col)
        if not m:
            return col, None
        if not n:
            return self.tag_start(m, tag), None
        last = first if n % 2 else 1 - first
        if last != tag:
            return self.tag_start(n + m, first) + rank * self.count[m][tag], None
        mod = self.count[m - 1][1 - tag]
        letter = rank % self.radix[last]
        return self.tag_start(n + m - 1, first) + (rank - letter) * mod, letter

    def product(self, col_a: int, col_b: int) -> int | None:
        """The column of (word a) * (word b), or None for the zero product."""
        m, tag, rank = self.coords(col_b)
        off, letter = self.seam(col_a, m, tag)
        if letter is not None and rank // self.count[m - 1][1 - tag] != letter:
            return None
        return off + rank


@cache
def column_table(sig: Signature) -> ColumnTable:
    """The one column table of a signature in this process, shared by all
    its spans and built when first asked for."""
    return ColumnTable(sig)


def _compile_rows(sig: Signature, layout: tuple, products: tuple) -> tuple:
    """The point-free part of each packed product u * X_k * v of a trace:
    (window, iu, iv, k, pairs), pairs listing (column of u * w * v, t) for
    the t-th term w of relation k, in term order, zero products left out.
    ``layout`` holds each relation's term columns, so a point of the same
    layout fills in coefficients only.  Built with ``ColumnTable.product``;
    the rows those terms give are the ones growth builds from
    ``IdealSpan._seam_terms``, dict order included."""
    table = column_table(sig)
    nrel = len(layout)
    unpacked = []
    for packed in products:
        pair, k = divmod(packed, nrel)
        iu, iv = pair >> 32, pair & 0xFFFFFFFF
        unpacked.append((table.length[iu] + table.length[iv], iu, iv, k))
    table.ensure(max((s for s, *_ in unpacked), default=0)
                 + max((table.length[c] for terms in layout for c in terms), default=0))
    out = []
    for s, iu, iv, k in unpacked:
        pairs = []
        for t, iw in enumerate(layout[k]):
            col = table.product(iu, iw)
            if col is not None and (col := table.product(col, iv)) is not None:
                pairs.append((col, t))
        out.append((s, iu, iv, k, tuple(pairs)))
    return tuple(out)


# what a replay reads: computed once per trace and layout, kept for the few
# traces a process replays
_compiled_rows = lru_cache(maxsize=16)(_compile_rows)


class IdealSpan:
    """Echelonized span of products u * X_k * v, grown window by window.

    ``window`` caps len(u) + len(v); expanded products then live in degree
    up to window + 2 and the highest-order columns are eliminated first, so
    collapses into low degree are discovered and counted.

    Deterministic: products are fed in the order sigma = (window
    s = |u| + |v|, |u|, column of u, column of v, k), and three rules skip
    a product P only where P is a combination of products of smaller
    sigma, so they compose.  By induction on sigma, every product then lies
    in the span of the fed rows of sigma up to its own.  So a skipped
    product would reduce to zero, and a zero row leaves the echelon
    untouched: pivot rows (provenance columns aside), counted ranks,
    bounds, normal forms and ``trace`` are those of feeding every product.
    D is the largest relation degree, at least 1.

    * Tail rule: for |u| >= 1, P is fed only if Q = u[1:] * X_k * v gave a
      word pivot at window s - 1.  Otherwise Q is a combination of products
      R of smaller sigma (the rows fed before it, or by induction), and
      P = a * Q for the first letter a of u.  Each a * R is R (a merges),
      zero, or a product of window below s, or of window s and sigma below
      P's, since prefixing a keeps the order of (|u|, u, v, k).
      This is the simplest case of Faugere's F5 idea of skipping rows
      known in advance to reduce to zero.
    * Lead-prefix rule, F5's syzygy criterion (Faugere 2002) in the
      free-algebra form of Hofstadler and Verron (2022): let a product of
      window s_g install a pivot row g = l + sum g_m m (m < l) with
      |l| >= s_g + D, such as X itself at s_g = 0.  Then P is skipped when
      l is a prefix of u = l * w.  As g = sum c_j u_j * X * v_j over fed
      products of window <= s_g,
          P = sum c_j u_j * X * (v_j * w * X_k * v) - sum g_m (m * w) * X_k * v.
      A product of the first sum has window <= s_g + |w| + D + |v| <= s
      and |u_j| <= s_g < |l| <= |u|.  In the second, m * w is zero,
      shorter than u, or of u's length and below it.  The rule depends on
      u alone and skips whole u blocks.  Only growth flags leads, in a
      bytearray over columns; a column of length s takes the flag of its
      prefix when window s first reaches it, by which time every lead of
      length <= s (installed at window s - D) is flagged.
    * Right-hand tail rule: for |v| >= 1, P is fed only if
      Q = u * X_k * v[:-1] gave a word pivot at window s - 1.  Otherwise
      Q = sum c_j T_j over products T_j = u_j * X * v_j of smaller sigma,
      and P = sum c_j T_j * b for the last letter b of v.  Each T_j * b is
      T_j (v_j ends in b), zero (v_j ends in another letter of b's tag), or
      u_j * X * (v_j * b), of window below s or of window s with T_j's u_j.
      With u_j = u there, v_j is as long as v[:-1] and ends in its tag, so
      starts with its tag, and appending b keeps v_j below v[:-1]; or
      v_j = v[:-1] and a lower k.

    ``trace`` lists each fed product that gave a word pivot, in feed order,
    packed as ((iu << 32 | iv) * nrel + k) for u, v the words of columns
    iu, iv.  ``replay`` feeds exactly such a list into a fresh span, as
    Traverso's Groebner trace algorithms (1988) replay the useful rows
    learned at one prime.  A replayed span is sound whatever the list:
    every row is a product u * X_k * v, an element of the ideal, so counted
    ranks stay lower bounds and normal forms stay congruences modulo the
    ideal.  It can only fall short of the full span, never claim more.
    ``replay_bound`` reads the bound a replay had at each window it passed.
    ``pruned_trace`` cuts a trace to the products that rebuild the pivots
    of short leads, which is all a closure reads.

    ``words``, ``index`` and ``_length_block`` read the signature's shared
    ``ColumnTable``, so ``words`` may run past this span's columns.  While
    growing, the left products u * X_k are kept as columns, once per span;
    for each u and each length and first tag of v, each of their terms
    becomes an offset once, and the terms of each first index of v are
    merged into one template (``_seam_terms``, ``_template``): the row of
    a v flagged on both sides is the template's row shifted by r(v)
    (module doc).  The first shift whose top column has no pivot goes
    through ``add_row`` and installs its normalized row there.  A later
    shift whose top column has no pivot gets that pivot row shifted, which
    is the pivot row ``add_row`` would install (``SparseEchelon.install``).
    Every other row, and every row while provenance is tracked, goes
    through ``add_row``.  A replay reads each traced product's columns from
    ``_compiled_rows``, computed once per trace.  Every product, grown or
    replayed, enters the echelon through ``_feed``.  The rows and their
    order are those that word tuples give, as ``verify_provenance``
    expands them.
    """

    def __init__(self, relations, track_provenance: bool = False):
        if isinstance(relations, CommutatorRelation):
            relations = [relations.element]
        self.relations: list[AlgebraElement] = list(relations)
        if not self.relations:
            raise ValueError("need at least one relation element")
        first = self.relations[0]
        self.sig = first.sig
        self.field = first.field
        self.ech = SparseEchelon(self.field)
        self.table = column_table(self.sig)
        self.words, self.index = self.table.words, self.table.index
        self._length_block = self.table.block
        self._modp = self.field.p if isinstance(self.field, PrimeField) else None
        self.table.ensure(self._max_relation_degree())
        # per relation, the (column, coefficient) of each term, and the
        # columns alone (the layout a compiled trace is keyed by); then per
        # u (by column) the nonzero terms of u * X_k the same way
        self._rel_terms = [[(self.index[w], c) for w, c in X.terms.items()]
                           for X in self.relations]
        self._layout = tuple(tuple(col for col, _ in terms) for terms in self._rel_terms)
        self._left: dict[int, list[list[tuple[int, object]]]] = {}
        self.window = -1
        self.pivot_deg_counts: dict[int, int] = {}
        self.track = track_provenance
        self.products: list[tuple[Word, AlgebraElement, Word]] = []
        # _gave_pivot[s]: which products of window s gave a word pivot
        # (layout in extend_to_window); window s + 1 feeds a*u*X_k*v and
        # u*X_k*v*b only for these, and ``trace`` reads them all.  None
        # after a replay, which leaves nothing to grow from and keeps its
        # trace instead.
        self._gave_pivot: list[list[bytearray]] | None = []
        # per column: 1 if a flagged pivot lead is a prefix of the word
        # (lead-prefix rule in the class doc); growth alone sets it, flagging
        # the leads of length >= _lead_from, the window s plus D
        self._lead_prefix = bytearray()
        self._lead_from: int | None = None
        self._replayed_trace = array("q")
        # after a replay: pivot_deg_counts as they stood at the end of each
        # window 0, 1, ..., self.window
        self._window_counts: list[dict[int, int]] = []
        # (window, forms) of the normal forms computed at that window
        self._nf_memo: tuple[int, dict] = (-1, {})

    def extend_to_window(self, window: int):
        if window <= self.window:
            return
        if self._gave_pivot is None:
            raise ValueError("a replayed span cannot grow to a wider window")
        table = self.table
        D = max(self._max_relation_degree(), 1)
        table.ensure(window + D)
        nrel = len(self.relations)
        lead = self._lead_prefix
        lead.extend(bytes(len(table.words) - len(lead)))
        for s in range(self.window + 1, window + 1):
            self._lead_from = s + D
            # gave_pivot[lu] holds a byte per product u * X_k * v with
            # |u| = lu and |v| = s - lu, at (i * len(vs) + j) * nrel + k for
            # u, v the i-th and j-th words of their lengths.  The tails
            # u[1:] * X_k * v of window s - 1 pair the same vs with words of
            # length lu - 1, the heads u * X_k * v[:-1] the same us with
            # words of length m - 1.  Bytes, not a set of keys, keep wide
            # windows small.
            gave_pivot: list[bytearray] = []
            for lu in range(s + 1):
                us, vs = table.block(lu), table.block(s - lu)
                width = len(vs) * nrel
                flags = bytearray(len(us) * width)
                if lu:
                    tails = self._gave_pivot[s - 1][lu - 1]
                    tail_start = table.start[lu - 1]
                else:  # every X_k * v is fed
                    tails, tail_start = b"\1" * width, 0
                m = s - lu
                if m:
                    heads = self._gave_pivot[s - 1][lu]
                    head_width = (table.start[m] - table.start[m - 1]) * nrel
                else:  # every u * X_k is fed
                    heads, head_width = b"\1" * nrel, 0
                # per first tag of v: its words lo:hi in vs, and their
                # heads v[:-1] head_lo:head_hi among the words of length
                # m - 1 (the empty word at m = 1): the r-th v has the
                # (r // rad)-th head, rad the radix of v's last letter
                sides = []
                for tag in (P, Q) if m else (P,):
                    lo = table.tag_start(m, tag) - vs.start
                    if m > 1:
                        head_lo = table.tag_start(m - 1, tag) - table.start[m - 1]
                        head_hi = head_lo + table.count[m - 1][tag]
                    else:
                        head_lo, head_hi = 0, 1
                    rad = table.radix[tag if m % 2 else 1 - tag] if m else 1
                    sides.append((tag, lo, lo + table.count[m][tag],
                                  head_lo * nrel, head_hi * nrel, rad))
                for i, iu in enumerate(us):
                    # a u of length s is new at window s and takes the flag
                    # of u[:-1]; every lead of length <= s is flagged by now
                    if lu == s and lead[self.index[self.words[iu][:-1]]]:
                        lead[iu] = 1
                    if lead[iu]:
                        continue
                    # the (v, k) whose tail and head bytes are set, by v's
                    # first tag, found in feed order by bytearray.find
                    at = (self.index[self.words[iu][1:]] - tail_start) * width
                    head_at = i * head_width
                    for tag, lo, hi, head_lo, head_hi, rad in sides:
                        if heads.find(1, head_at + head_lo, head_at + head_hi) < 0:
                            continue
                        head_at_lo = head_at + head_lo
                        end = at + hi * nrel
                        pos = tails.find(1, at + lo * nrel, end)
                        if pos >= 0:
                            seams, mod = self._seam_terms(iu, m, tag)
                        while pos >= 0:
                            j, k = divmod(pos - at, nrel)
                            r = j - lo
                            if heads[head_at_lo + r // rad * nrel + k] and \
                                    self._feed(seams[k][r // mod], r, iu, vs.start + j, k):
                                flags[i * width + pos - at] = 1
                            pos = tails.find(1, pos + 1, end)
                gave_pivot.append(flags)
            self._gave_pivot.append(gave_pivot)
        self.window = window

    def _seam_terms(self, iu: int, m: int, tag: int) -> tuple[list, int]:
        """(seams, mod) for u * X_k * v, u at column iu and v of length m
        starting with ``tag``: seams[k][b] is the template (``_template``)
        of the products whose v has first index b + 1, each its row shifted
        by r(v); b is r(v) // mod."""
        table = self.table
        left = self._left.get(iu)
        if left is None:
            left = self._left[iu] = [
                [(col, c) for iw, c in X if (col := table.product(iu, iw)) is not None]
                for X in self._rel_terms]
        mod = table.count[m - 1][1 - tag] if m else 1
        out = []
        for uX in left:
            buckets: list[list] = [[] for _ in range(table.radix[tag] if m else 1)]
            for col, c in uX:
                off, letter = table.seam(col, m, tag)
                for b in (buckets if letter is None else (buckets[letter],)):
                    b.append((off, c))
            out.append([self._template(b) for b in buckets])
        return out, mod

    def _template(self, terms: list) -> list | tuple:
        """[top, row, source] for the products whose rows are the sums of c
        at column offset + r over ``terms``, one per shift r: ``row`` the
        sum at r = 0, ``top`` its highest column, and ``source`` the pivot
        column where ``_feed`` first installed a shift of it at its free
        top, None until then.  Rows are shifted as a whole, so r moves
        every column and keeps the dict order.  (None, {}, None) when the
        terms cancel."""
        row = self._row(terms)
        return [max(row), row, None] if row else (None, row, None)

    def _row(self, terms: list) -> dict:
        """The row sum of c at column offset over ``terms``, as
        ``add_term`` accumulates it; over GF(p) on plain ints."""
        row: dict[int, object] = {}
        p = self._modp
        if p is None:
            for col, c in terms:
                add_term(self.field, row, col, c)
            return row
        for col, c in terms:
            if col in row:
                c = (row[col] + c) % p
                if not c:
                    del row[col]
                    continue
            row[col] = c
        return row

    @property
    def trace(self) -> array:
        """A new ``array`` of the fed products that gave a word pivot, in
        feed order, packed as in the class doc.  A grown span reads them off
        its pivot flags, which the flag layout already keeps in feed order,
        so growing records nothing per pivot."""
        if self._gave_pivot is None:
            return self._replayed_trace[:]
        nrel = len(self.relations)
        out = array("q")
        for s, gave_pivot in enumerate(self._gave_pivot):
            for lu, flags in enumerate(gave_pivot):
                us, vs = self._length_block(lu), self._length_block(s - lu)
                row = len(vs) * nrel
                at = flags.find(1)
                while at >= 0:
                    i, jk = divmod(at, row)  # jk = j * nrel + k, iv = vs[j]
                    out.append(((us[i] << 32) + vs.start) * nrel + jk)
                    at = flags.find(1, at + 1)
        return out

    def replay(self, products, window: int):
        """Feed exactly the packed ``products`` (another span's ``trace``,
        same signature and relations, or a part of one) into this fresh
        span, then stand at ``window``; the products that give a word pivot
        here are traced.  Each row is filled in from the trace's compiled
        columns (``_compiled_rows``) with this span's relation coefficients.

        The counted ranks are recorded at the end of every window up to
        ``window`` (read through ``replay_bound``).  The record of window w
        holds only products of window w or lower, all of which full growth
        feeds by window w, so it spans a subspace of full growth's span
        there.  A trace is in feed order, so its windows ascend and the
        record of window w holds every traced product of window <= w.  A
        product beyond ``window`` is refused."""
        if self.window >= 0:
            raise ValueError("replay needs a fresh span")
        self.table.ensure(window + self._max_relation_degree())
        coeffs = [[c for _, c in terms] for terms in self._rel_terms]
        counts = self._window_counts
        compiled = _compiled_rows(self.sig, self._layout, tuple(products))
        for packed, (s, iu, iv, k, pairs) in zip(products, compiled):
            if s > window:
                raise ValueError(f"a traced product of window {s} lies beyond {window}")
            while len(counts) < s:
                counts.append(dict(self.pivot_deg_counts))
            cs = coeffs[k]
            row = self._row([(col, cs[t]) for col, t in pairs])
            if self._feed((None, row, None), 0, iu, iv, k):
                self._replayed_trace.append(packed)
        while len(counts) <= window:
            counts.append(dict(self.pivot_deg_counts))
        self.window = window
        self._gave_pivot = None

    def pruned_trace(self, length: int) -> array:
        """The part of ``trace`` that rebuilds every pivot whose lead is at
        most ``length`` long, in feed order: the products of those pivots,
        and every earlier product whose pivot reduced a kept one,
        transitively.

        The i-th traced product installed the i-th word pivot, and a pivot
        row never changes once installed.  Reducing a row down to its lead l
        meets only columns of its product's terms and of the tails of the
        pivots it used, and it uses a pivot at each column above l where it
        is nonzero, one installed before it (else the row would have
        stopped there).  So the pivots it used are among those reached that
        way, read off the echelon by structure, with no elimination.  Fed in
        the same order at the same point, a kept product meets the same
        pivots at every column it passes and installs the same row; at
        another point the kept products are still ideal elements, so a
        replay of them stays sound (``replay``)."""
        trace = self.trace
        pivots, lengths = self.ech.pivots, self.table.length
        leads = [c for c in pivots if c >= 0]
        order = {c: i for i, c in enumerate(leads)}
        compiled = _compile_rows(self.sig, self._layout, tuple(trace))  # read once: not cached
        keep = bytearray(len(trace))
        for i in range(len(trace) - 1, -1, -1):
            lead = leads[i]
            if not keep[i] and lengths[lead] > length:
                continue
            keep[i] = 1
            stack = [col for col, _ in compiled[i][4] if col > lead]
            seen = set(stack)
            while stack:
                j = order.get(stack.pop(), i)
                if j >= i:  # no pivot there yet when product i was fed
                    continue
                keep[j] = 1
                for col in pivots[leads[j]]:
                    if col > lead and col not in seen:
                        seen.add(col)
                        stack.append(col)
        return array("q", (packed for packed, kept in zip(trace, keep) if kept))

    @property
    def replayed(self) -> bool:
        return self._gave_pivot is None

    def replay_bound(self, w: int, n: int) -> int:
        """The quotient bound at degree n of a replayed span as it stood at
        the end of window w.  Full growth spans more by then, so its bound
        at (w, n) is at most this one."""
        return self._length_block(n).stop - sum(
            c for d, c in self._window_counts[w].items() if d <= n)

    def _max_relation_degree(self) -> int:
        return max(r.degree() for r in self.relations)

    def _feed(self, template, r: int, iu: int, iv: int, k: int) -> bool:
        """Reduce the product u * X_k * v, for u, v the words of columns iu,
        iv, into the echelon; True if it gave a word pivot.  Every product
        enters the span here.  Its row is the row of ``template``
        (``_template``) shifted by r.  When the shifted top column has no
        pivot and an earlier shift went in at its free top, that pivot row
        is installed there, shifted, with no elimination
        (``SparseEchelon.install``); otherwise, and with provenance, the
        shifted row goes through ``add_row``.  A row fed once (a replay, or
        any caller outside growth) comes with no top, as (None, row, None)
        at r = 0, and is consumed.  While growing, a pivot whose lead is at
        least ``_lead_from`` long flags its column for the lead-prefix rule
        (class doc)."""
        top, row, source = template
        ech = self.ech
        free = top is not None and not self.track and (piv := top + r) not in ech.pivots
        if free and source is not None:
            ech.install(piv, source)
        else:
            if top is not None:  # no comprehension: r would be a cell of every call
                shifted = {}
                for c, w in row.items():
                    shifted[c + r] = w
                row = shifted
            elif not row:
                return False
            if self.track:
                pid = len(self.products)
                self.products.append((self.words[iu], self.relations[k], self.words[iv]))
                row[-(pid + 1)] = self.field.one
            piv = ech.add_row(row)
            if piv is None or piv < 0:
                return False
            if free:  # went in at its free top: later free shifts copy it
                template[2] = piv
        d = self.table.length[piv]
        self.pivot_deg_counts[d] = self.pivot_deg_counts.get(d, 0) + 1
        if self._lead_from is not None and d >= self._lead_from:
            self._lead_prefix[piv] = 1
        return True

    # -- bounds --------------------------------------------------------------

    def counted_rank(self, n: int) -> int:
        return sum(c for d, c in self.pivot_deg_counts.items() if d <= n)

    def bound(self, n: int) -> int:
        """dim F^n R minus the counted rank; the words of length <= n are
        the columns below the end of the length-n block."""
        return self._length_block(n).stop - self.counted_rank(n)

    # -- normal forms ----------------------------------------------------------

    def normal_forms(self, max_degree: int, indices=None) -> dict[int, dict[int, object]]:
        """Normal forms over non-pivot word indices: of the words at
        ``indices``, or of every word of degree <= max_degree when no
        indices are given; columns are ensured up to max_degree.

        A word's form is its own index if it leads no pivot row, and
        otherwise minus the sum of the forms of its pivot row's tail, which
        holds only lower indices.  The words the requested forms reach
        through those tails are collected first, with an explicit stack;
        they are then filled bottom-up in index order, by the same sum as
        for the full map, so each form is the one the full map holds.
        Forms are kept for the current window only, since a wider window
        adds pivots, and a later call reads the kept ones; the vectors are
        shared and must not be mutated."""
        self.table.ensure(max_degree)
        if indices is None:
            indices = range(self._length_block(max_degree).stop)
        window, nf = self._nf_memo
        if window != self.window:
            nf = {}
            self._nf_memo = (self.window, nf)
        pivots = self.ech.pivots
        todo, stack = set(), [i for i in indices if i not in nf]
        while stack:
            i = stack.pop()
            if i in todo:
                continue
            todo.add(i)
            row = pivots.get(i)
            if row is not None:
                stack.extend(u for u in row if u >= 0 and u not in nf and u not in todo)
        f = self.field
        for i in sorted(todo):
            row = pivots.get(i)
            if row is None:
                nf[i] = {i: f.one}
                continue
            acc: dict[int, object] = {}
            for u, cu in row.items():
                if u < 0:
                    continue
                minus_cu = f.neg(cu)
                for b, cb in nf[u].items():
                    add_term(f, acc, b, f.mul(minus_cu, cb))
            nf[i] = acc
        return {i: nf[i] for i in indices}

    def reduce_element(self, elem: AlgebraElement) -> dict[int, object]:
        """Remainder of an element after full reduction by the echelon rows,
        provenance columns left out: the sum of c * (normal form of w) over
        its terms c * w, as that reduction is unique and linear."""
        f = self.field
        cols = {self.index[w]: c for w, c in elem.terms.items()}
        nf = self.normal_forms(elem.degree(), cols)
        out: dict[int, object] = {}
        for i, c in cols.items():
            for j, cj in nf[i].items():
                add_term(f, out, j, f.mul(c, cj))
        return out

    def verify_provenance(self) -> bool:
        """Re-expand every pivot row from its recorded product combination
        and compare; only available when track_provenance was set."""
        if not self.track:
            raise ValueError("span was built without provenance tracking")
        f = self.field
        for lead, row in self.ech.pivots.items():
            if lead < 0:
                continue
            expanded: dict[int, object] = {}
            for pid_neg, coeff in [(c, v) for c, v in row.items() if c < 0]:
                u, X, v = self.products[-pid_neg - 1]
                for w, c in X.terms.items():
                    w1 = concat_words(u, w)
                    if w1 is None:
                        continue
                    w2 = concat_words(w1, v)
                    if w2 is not None:
                        add_term(f, expanded, self.index[w2], f.mul(coeff, c))
            stored = {lead: f.one}
            for c, v in row.items():
                if c >= 0:
                    stored[c] = v
            if set(expanded) != set(stored):
                return False
            if not all(f.eq(expanded[c], stored[c]) for c in stored):
                return False
        return True


def standard_generator_rank(rel: CommutatorRelation) -> dict:
    """Rank of the canonical 13 + 40 low-degree generators of the ideal:
    X and its one- and two-sided products by p_i, q_j and the length-2
    prefixes/suffixes listed in the construction of the degree-4 ideal
    space; then the rank with the diagonal conjugates p_i X p_i and
    q_i X q_i added, which are expected to be dependent on the rest."""
    sig, f = rel.sig, rel.field
    X = rel.element
    p = {i: idempotent(sig, f, P, i) for i in (1, 2)}
    q = {i: idempotent(sig, f, Q, i) for i in (1, 2)}

    elements: list[AlgebraElement] = [X]
    for i in (1, 2):
        elements += [p[i] * X, X * p[i], q[i] * X, X * q[i]]
    for i in (1, 2):
        for j in (1, 2):
            if i != j:
                elements += [p[i] * X * p[j], q[i] * X * q[j]]
    count13 = len(elements)
    for i in (1, 2):
        for j in (1, 2):
            elements += [p[i] * q[j] * X, p[i] * X * q[j], X * p[i] * q[j],
                         q[i] * p[j] * X, q[i] * X * p[j], X * q[i] * p[j]]
    for i in (1, 2):
        for j in (1, 2):
            if i == j:
                continue
            for k in (1, 2):
                elements += [p[i] * X * p[j] * q[k], q[k] * p[i] * X * p[j],
                             q[i] * X * q[j] * p[k], p[k] * q[i] * X * q[j]]
    extra: list[AlgebraElement] = []
    for i in (1, 2):
        extra += [p[i] * X * p[i], q[i] * X * q[i]]

    table = column_table(sig)
    table.ensure(4)
    index = table.index
    ech = SparseEchelon(f)
    for e in elements:
        if e.degree() > 4:
            raise AssertionError("generator unexpectedly exceeds degree 4")
        ech.add_row({index[w]: c for w, c in e.terms.items()})
    base_rank = ech.rank
    for e in extra:
        ech.add_row({index[w]: c for w, c in e.terms.items()})
    return {
        "generators": len(elements) + len(extra),
        "length_le_3": count13,
        "length_4": len(elements) - count13,
        "rank": base_rank,
        "rank_with_diagonal_conjugates": ech.rank,
        "degree4_bound": filtration_dim(sig, 4) - base_rank,
    }


# ---------------------------------------------------------------------------
# Scan and closure certificate
# ---------------------------------------------------------------------------

@dataclass
class FiltrationReport:
    domain: str
    point: tuple
    per_degree: dict[int, dict]
    stabilized_at: int | None
    slack: int
    window: int
    certificate: "ClosureCertificate | None" = None
    note: str = ""

    def to_json(self, field: Domain) -> dict:
        return {
            "domain": self.domain,
            "point": [field.fmt(c) for c in self.point],
            "per_degree": {str(n): row for n, row in sorted(self.per_degree.items())},
            "stabilized_at": self.stabilized_at,
            "slack": self.slack,
            "window": self.window,
            "note": self.note,
        }


@dataclass
class ClosureCertificate:
    """Monomial basis closed under right multiplication by the generators.

    ``letter_action[g][i]`` expresses basis_word_i * g in the basis, and
    |basis| is a certified upper bound for the quotient dimension in every
    degree.  The structure constants are derived from the letter action
    when first read (``structure_constants``), so a caller that needs only
    the basis does not pay for them.
    """

    basis: list[Word]
    degree: int
    window: int
    letter_action: dict[Word, list[dict[int, object]]]
    field: Domain
    point: tuple | None  # None for a list of relations

    @cached_property
    def structure_constants(self) -> list[list[dict[int, object]]]:
        """table[i][j] = e_i * b_j in the basis.  For b_j = w * g with w a
        basis word, it is (e_i * w) * g, one letter on an entry already
        built: the basis comes in graded order, so w precedes b_j.
        Otherwise the letters of b_j are folded one by one from e_i."""
        f, basis = self.field, self.basis
        n = len(basis)
        pos = {w: k for k, w in enumerate(basis)}
        table: list[list] = [[None] * n for _ in range(n)]
        for j, w in enumerate(basis):
            prefix = pos.get(w[:-1]) if w else None
            letters = w if prefix is None else w[-1:]
            for i in range(n):
                vec = {i: f.one} if prefix is None else table[i][prefix]
                for letter in letters:
                    vec = self.times_letter(vec, (letter,))
                table[i][j] = vec
        unit = pos[EMPTY_WORD]
        assert all(table[i][unit] == {i: f.one} for i in range(n))
        return table

    def times_letter(self, vec: dict[int, object], g: Word) -> dict[int, object]:
        """vec * g in the basis, for a vector of basis coordinates and a
        generating letter g, through the letter action."""
        f = self.field
        out: dict[int, object] = {}
        cols = self.letter_action[g]
        for k, c in vec.items():
            for m, cm in cols[k].items():
                add_term(f, out, m, f.mul(c, cm))
        return out

    @property
    def dimension_bound(self) -> int:
        return len(self.basis)

    def basis_index(self, w: Word) -> int:
        return self.basis.index(w)

    def multiply(self, vec1: dict[int, object], vec2: dict[int, object]) -> dict[int, object]:
        f = self.field
        out: dict[int, object] = {}
        for i, ci in vec1.items():
            for j, cj in vec2.items():
                for k, ck in self.structure_constants[i][j].items():
                    add_term(f, out, k, f.mul(f.mul(ci, cj), ck))
        return out

    def is_commutative(self) -> bool:
        f = self.field
        n = len(self.basis)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = self.structure_constants[i][j], self.structure_constants[j][i]
                if set(a) != set(b) or not all(f.eq(a[k], b[k]) for k in a):
                    return False
        return True

    def associativity_spot_check(self, trials: int = 100, seed: int = 7) -> bool:
        rng = random.Random(seed)
        f = self.field
        n = len(self.basis)
        for _ in range(trials):
            i, j, k = (rng.randrange(n) for _ in range(3))
            ei, ej, ek = ({i: f.one}, {j: f.one}, {k: f.one})
            left = self.multiply(self.multiply(ei, ej), ek)
            right = self.multiply(ei, self.multiply(ej, ek))
            if set(left) != set(right):
                return False
            if not all(f.eq(left[c], right[c]) for c in left):
                return False
        return True

    def to_json(self) -> dict:
        f = self.field
        return {
            "dimension_bound": self.dimension_bound,
            "degree": self.degree,
            "window": self.window,
            "basis": [word_str(w) for w in self.basis],
            "point": None if self.point is None else [f.fmt(c) for c in self.point],
            "commutative": self.is_commutative(),
            "structure_constants_digest": self.structure_digest(),
        }

    def structure_digest(self) -> str:
        """Deterministic digest of the full multiplication table."""
        import hashlib
        import json as _json
        f = self.field
        table = [
            [sorted((k, f.fmt(c)) for k, c in cell.items()) for cell in row]
            for row in self.structure_constants
        ]
        blob = _json.dumps(table, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _try_closure(span: IdealSpan, n: int):
    """Attempt the closure certificate at degree n; returns ((basis_idx,
    letter_action), None) or (None, leaks).  Only the normal forms of
    the products w * g, for w a basis word and g a generating letter of the
    span's signature (p1, p2, q1, q2 for (3, 3)), are asked for."""
    span.table.ensure(n + 1)
    letters = [((tag, i),) for tag in (P, Q) for i in span.sig.letters(tag)]
    basis_idx = [i for i in range(span._length_block(n).stop)
                 if i not in span.ech.pivots]
    pos = {i: k for k, i in enumerate(basis_idx)}
    # times[g][k]: the column of (basis word k) * g, or None when that is 0
    times = {g: [None if (w := concat_words(span.words[i], g)) is None
                 else span.index[w] for i in basis_idx]
             for g in letters}
    nf = span.normal_forms(n + 1, [iw for col in times.values()
                                   for iw in col if iw is not None])
    leaks = []
    letter_action: dict[Word, list[dict[int, object]]] = {}
    for g in letters:
        cols: list[dict[int, object]] = []
        for i, iw in zip(basis_idx, times[g]):
            if iw is None:
                cols.append({})
                continue
            vec = nf[iw]
            out: dict[int, object] = {}
            ok = True
            for j, c in vec.items():
                if j not in pos:
                    leaks.append((word_str(span.words[i]), word_str(g), word_str(span.words[j])))
                    ok = False
                    break
                out[pos[j]] = c
            if not ok:
                break
            cols.append(out)
        if leaks:
            break
        letter_action[g] = cols
    if leaks:
        return None, leaks
    return (basis_idx, letter_action), None


@dataclass(frozen=True)
class ClosureTrace:
    """What a closure learned at one point: pivot-giving products of its
    span, packed, in feed order, and the degree and window at which the
    certificate closed.  ``of`` keeps the span's whole ``trace``; ``pruned``
    keeps only the products that a replay's closure reads."""

    products: array
    degree: int
    window: int

    @classmethod
    def of(cls, cert: "ClosureCertificate", span: IdealSpan) -> "ClosureTrace":
        return cls(span.trace, cert.degree, cert.window)

    @classmethod
    def pruned(cls, cert: "ClosureCertificate", span: IdealSpan) -> "ClosureTrace":
        """The part of ``span``'s trace that a replay is read for
        (``IdealSpan.pruned_trace``): every pivot with a lead of length at
        most max(degree + 1, window - 1, 4).  That covers the closure test,
        its bounds at degree and degree + 1 and its normal forms; every
        ``replay_bound(w, n)`` that ``replay_is_growth`` reads, where
        n <= window - 1 below the closing window and n < degree at it; and
        the degree-4 normal forms of ``spanning_monomials_rank``.  A replay
        of this part agrees with one of the whole trace on all of these, and
        at another point it is checked as any replay is."""
        length = max(cert.degree + 1, cert.window - 1, 4)
        return cls(span.pruned_trace(length), cert.degree, cert.window)


def _certificate(span: IdealSpan, n: int, closed, point: tuple | None) -> ClosureCertificate:
    basis_idx, letter_action = closed
    return ClosureCertificate(
        basis=[span.words[i] for i in basis_idx],
        degree=n,
        window=span.window,
        letter_action=letter_action,
        field=span.field,
        point=point,
    )


def closure_certificate(rel: CommutatorRelation | list[AlgebraElement],
                        n_max: int = 8, slack: int = 4,
                        window_cap: int | None = None,
                        trace: ClosureTrace | None = None) -> tuple[ClosureCertificate, IdealSpan]:
    """Grow the product window until two consecutive quotient bounds agree
    and the non-pivot words close under right multiplication by the
    generators; the certificate is returned at the smallest window that
    works, together with the span that proves it.  ``rel`` is a
    ``CommutatorRelation`` or a list of relation elements, as ``IdealSpan``
    takes them; the certificate's point is None unless ``rel`` is a
    ``CommutatorRelation``.  A ``ClosureFailure`` carries the grown span.

    With a ``trace``, a fresh span is first fed exactly the traced
    products, and the same bound check and closure test run at the traced
    degree and window.  If they fail, or the trace lies beyond n_max or
    the window limit, that span is dropped and the growth runs as without
    a trace.  The replay can only fail, never overclaim: its rows lie in
    the ideal and the closure test is computed in full over this field.
    Whether the replayed certificate is also the one growth would return,
    at the same window and degree, is a separate question, which
    ``replay_is_growth`` answers once the basis is known to be independent."""
    point = rel.point if isinstance(rel, CommutatorRelation) else None
    top_window = n_max + slack
    if window_cap is not None:
        top_window = min(top_window, window_cap)
    if (trace is not None and 2 <= trace.degree <= min(n_max, trace.window)
            and trace.window <= top_window):
        replayed = IdealSpan(rel)
        replayed.replay(trace.products, trace.window)
        n = trace.degree
        if replayed.bound(n) == replayed.bound(n + 1):
            got, _ = _try_closure(replayed, n)
            if got is not None:
                return _certificate(replayed, n, got, point), replayed
    span = IdealSpan(rel)
    last_leaks = None
    for window in range(2, top_window + 1):
        span.extend_to_window(window)
        for n in range(2, min(n_max, window) + 1):
            if span.bound(n) != span.bound(n + 1):
                continue
            got, leaks = _try_closure(span, n)
            if got is None:
                last_leaks = leaks
                continue
            return _certificate(span, n, got, point), span
    raise ClosureFailure(
        f"no multiplication-closed basis up to degree {n_max}; "
        "increase n_max or slack", last_leaks, span)


def replay_is_growth(cert: ClosureCertificate, span: IdealSpan, n_max: int) -> bool:
    """True when a certificate that ``closure_certificate`` returned from a
    replayed ``span`` is provably the one full growth returns, given that
    its basis B is linearly independent in the quotient (an evaluation map
    that kills the ideal has rank |B| on it).

    Let L(n) = #{b in B : |b| <= n}.  Independence gives L(n) <= dim F^n S,
    which is at most full growth's bound at any window w, which is at most
    the replay's bound U_w(n) there (``replay_bound``).  Full growth tries
    (w, n) in the order of its loops and proceeds past the bound check only
    when its bounds at n and n + 1 agree.  If U_w(n) < L(n + 1) for every
    (w, n) it tries before (cert.window, cert.degree), then its bound at n
    is below its bound at n + 1 there, so every earlier try fails.  At the
    closing (w, n) the replay's bounds at n and n + 1 are both |B| = L(n) =
    L(n + 1), so growth's are too: its span agrees with the replay's up to
    degree n + 1, so it has the same basis and closes there as well.  The
    letter action, structure constants and normal forms are then the
    growth's own, since normal forms in an independent basis are unique."""
    lengths = sorted(len(b) for b in cert.basis)
    for w in range(2, cert.window + 1):
        for n in range(2, min(n_max, w) + 1):
            if (w, n) == (cert.window, cert.degree):
                return True
            if span.replay_bound(w, n) >= bisect_right(lengths, n + 1):
                return False
    return False


def stabilization_scan(rel: CommutatorRelation, n_from: int = 2, n_to: int = 8,
                       slack: int = 4, window_cap: int | None = None,
                       with_closure: bool = True) -> FiltrationReport:
    """Quotient bounds per degree with a stabilization flag.

    If a closure certificate is found, its size bounds every degree at once
    (reported as certified_bound); otherwise the span bounds are reported as
    computed, and for known infinite-dimensional points their strict growth
    is consistency evidence, not proof.  window_cap limits the product
    window for runtime control; bounds stay valid for any window.
    """
    if not 2 <= n_from <= n_to:
        raise ValueError("need 2 <= n_from <= n_to")
    span = None
    stabilized_at = None
    certificate = None
    if with_closure:
        try:
            certificate, span = closure_certificate(
                rel, n_max=n_to, slack=slack, window_cap=window_cap)
            stabilized_at = certificate.degree
        except ClosureFailure as exc:
            span = exc.span
    if certificate is None:
        window = n_to + slack
        if window_cap is not None:
            window = min(window, window_cap)
        span = span or IdealSpan(rel)
        span.extend_to_window(window)
    per_degree = {}
    for n in range(n_from, n_to + 1):
        span_bound = span.bound(n)
        certified = span_bound
        if certificate is not None:
            certified = min(span_bound, certificate.dimension_bound)
        per_degree[n] = {
            "dim_ambient": span._length_block(n).stop,
            "counted_rank": span.counted_rank(n),
            "quotient_bound": span_bound,
            "certified_bound": certified,
        }
    note = ""
    if stabilized_at is None:
        note = ("bounds did not stabilize; strictly increasing bounds are "
                "evidence of infinite dimension, not a proof")
    return FiltrationReport(
        domain=getattr(rel.field, "name", "?"),
        point=rel.point,
        per_degree=per_degree,
        stabilized_at=stabilized_at,
        slack=slack,
        window=span.window,
        certificate=certificate,
        note=note,
    )


# ---------------------------------------------------------------------------
# Reduction coefficients alpha / beta
# ---------------------------------------------------------------------------

@dataclass
class ReductionTable:
    alpha: dict[tuple[int, int, int, int], object]
    beta: dict[tuple[int, int, int, int], object]
    tails_pq: dict[tuple[int, int, int, int], dict]
    tails_qp: dict[tuple[int, int, int, int], dict]
    pivot_ratio: object
    field: Domain

    def alpha_beta_product(self) -> object:
        f = self.field
        return f.mul(self.alpha[(2, 2, 1, 1)], self.beta[(1, 1, 1, 1)])


def reduction_coefficients(rel: CommutatorRelation, n_max: int = 6,
                           slack: int = 4) -> ReductionTable:
    """Coefficients in the degree-4 rewrite rules

        p_i q_j p_k q_l = alpha(i,j,k,l) * p2q1p1q1 + (degree <= 3 tail)
        q_i p_j q_k p_l = beta(i,j,k,l)  * q2p1q1p1 + (degree <= 3 tail)

    valid modulo the ideal.  The coefficients are read off in the
    one-dimensional quotient F^4 S / F^3 S, so they do not depend on which
    degree-4 monomial the echelon happens to keep in the basis; the generic
    requirements are that this quotient is one-dimensional and that both
    reference monomials have nonzero image in it."""
    cert, span = closure_certificate(rel, n_max=n_max, slack=slack)
    f = rel.field
    nf = span.normal_forms(4, span._length_block(4))  # the words read below
    deg4 = [i for i, w in enumerate(cert.basis) if len(w) == 4]
    if len(deg4) != 1:
        raise DegenerateSpecialization(
            f"F^4/F^3 of the quotient is not one-dimensional (basis has "
            f"{len(deg4)} degree-4 words); resample the point")
    ustar = span.index[cert.basis[deg4[0]]]
    ref_pq = nf[span.index[DEGREE4_PIVOT_PQ]]
    ref_qp = nf[span.index[DEGREE4_PIVOT_QP]]
    lead_pq = ref_pq.get(ustar, f.zero)
    lead_qp = ref_qp.get(ustar, f.zero)
    if f.is_zero(lead_pq) or f.is_zero(lead_qp):
        raise DegenerateSpecialization(
            "a reference degree-4 monomial vanishes in F^4/F^3; resample")

    def split(vec: dict[int, object], ref: dict[int, object], lead) -> tuple[object, dict]:
        coeff = f.div(vec.get(ustar, f.zero), lead)
        tail = {}
        support = set(vec) | set(ref)
        for j in support:
            c = f.sub(vec.get(j, f.zero), f.mul(coeff, ref.get(j, f.zero)))
            if not f.is_zero(c):
                if len(span.words[j]) > 3:
                    raise DegenerateSpecialization("tail escapes degree 3")
                tail[word_str(span.words[j])] = c
        return coeff, tail

    alpha, beta = {}, {}
    tails_pq, tails_qp = {}, {}
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    wpq: Word = ((P, i), (Q, j), (P, k), (Q, l))
                    a, t1 = split(nf[span.index[wpq]], ref_pq, lead_pq)
                    alpha[(i, j, k, l)] = a
                    tails_pq[(i, j, k, l)] = t1
                    wqp: Word = ((Q, i), (P, j), (Q, k), (P, l))
                    b, t2 = split(nf[span.index[wqp]], ref_qp, lead_qp)
                    beta[(i, j, k, l)] = b
                    tails_qp[(i, j, k, l)] = t2
    return ReductionTable(alpha, beta, tails_pq, tails_qp, f.div(lead_qp, lead_pq), f)


def verify_reduction_identity(rel: CommutatorRelation, span: IdealSpan,
                              table: ReductionTable, i: int, j: int, k: int, l: int,
                              side: str = "pq") -> bool:
    """Explicitly reduce LHS - RHS of one rewrite identity by the span's
    normal forms and confirm it vanishes (ideal membership)."""
    sig, f = rel.sig, rel.field
    if side == "pq":
        w: Word = ((P, i), (Q, j), (P, k), (Q, l))
        lead = AlgebraElement.from_word(sig, f, DEGREE4_PIVOT_PQ, table.alpha[(i, j, k, l)])
        tail = table.tails_pq[(i, j, k, l)]
    else:
        w = ((Q, i), (P, j), (Q, k), (P, l))
        lead = AlgebraElement.from_word(sig, f, DEGREE4_PIVOT_QP, table.beta[(i, j, k, l)])
        tail = table.tails_qp[(i, j, k, l)]
    from .freeproduct import word_from_str
    rhs = lead
    for ws, c in tail.items():
        rhs = rhs + AlgebraElement.from_word(sig, f, word_from_str(ws), c)
    diff = AlgebraElement.from_word(sig, f, w) - rhs
    return not span.reduce_element(diff)


# ---------------------------------------------------------------------------
# Symmetric group action on the function field and on the relation
# ---------------------------------------------------------------------------

@dataclass
class SigmaAction:
    """The two generating symmetries: permutations of {p1, p2, 1-p1-p2}
    together with fractional-linear substitutions on (y1, y2, y3)."""

    field: FunctionField

    def images_sigma1(self) -> tuple[RationalFunction, ...]:
        y1, y2, y3 = self.field.gens()
        return (y3 / y2, 1 / y2, y1 / y2)

    def images_sigma2(self) -> tuple[RationalFunction, ...]:
        y1, y2, y3 = self.field.gens()
        return (y1, 1 - y2, y1 - y3)

    @staticmethod
    def compose(outer: tuple, inner: tuple) -> tuple:
        """Images of (outer o inner): apply inner first, then outer; the
        generator images of the composite are inner's images evaluated at
        outer's images."""
        return tuple(t.evaluate(outer) for t in inner)

    def _ev(self, c: RationalFunction, imgs) -> RationalFunction:
        out = c.evaluate(imgs)
        if isinstance(out, RationalFunction):
            return out
        return RationalFunction.constant(self.field.vars, out)

    def apply_sigma1(self, elem: AlgebraElement) -> AlgebraElement:
        imgs = self.images_sigma1()
        sig, f = elem.sig, elem.field
        swap = {
            (P, 1): AlgebraElement.from_word(sig, f, ((P, 2),)),
            (P, 2): AlgebraElement.from_word(sig, f, ((P, 1),)),
        }
        return elem.substitute_letters(swap, coeff_map=lambda c: self._ev(c, imgs))

    def apply_sigma2(self, elem: AlgebraElement) -> AlgebraElement:
        imgs = self.images_sigma2()
        sig, f = elem.sig, elem.field
        p3 = idempotent(sig, f, P, 3)
        sub = {(P, 1): p3}
        return elem.substitute_letters(sub, coeff_map=lambda c: self._ev(c, imgs))


def sigma_check(field: FunctionField | None = None) -> dict:
    """Exact symbolic verification of the symmetry identities:
    sigma1(X) = (1/y2) X, sigma2(X) = -X, and the group relations
    sigma1^2 = sigma2^2 = (sigma1 sigma2)^3 = id on (y1, y2, y3)."""
    F = field or FunctionField(("y1", "y2", "y3"))
    y1, y2, y3 = F.gens()
    act = SigmaAction(F)
    rel = make_relation(F, chart=(y1, y2, y3))
    X = rel.element

    s1X = act.apply_sigma1(X)
    s2X = act.apply_sigma2(X)
    ok_s1 = (s1X - X.scale(1 / y2)).is_zero()
    ok_s2 = (s2X + X).is_zero()

    gens = F.gens()
    s1 = act.images_sigma1()
    s2 = act.images_sigma2()
    ok_s1_sq = SigmaAction.compose(s1, s1) == gens
    ok_s2_sq = SigmaAction.compose(s2, s2) == gens
    m = SigmaAction.compose(s1, s2)
    m3 = SigmaAction.compose(m, SigmaAction.compose(m, m))
    ok_order3 = m3 == gens
    return {
        "sigma1_X_is_X_over_y2": ok_s1,
        "sigma2_X_is_minus_X": ok_s2,
        "sigma1_squared_id": ok_s1_sq,
        "sigma2_squared_id": ok_s2_sq,
        "sigma1_sigma2_cubed_id": ok_order3,
        "sigma1_of_y2": repr(s1[1]),
        "sigma2_of_y3": repr(s2[2]),
        "all": all([ok_s1, ok_s2, ok_s1_sq, ok_s2_sq, ok_order3]),
    }


# ---------------------------------------------------------------------------
# Helpers for specialization
# ---------------------------------------------------------------------------

def chart_in_field(field: Domain, y: tuple) -> tuple:
    """Push rational coordinates, a chart triple or a point, into the
    working field: the one path by which a rational input enters it."""
    return tuple(field.from_fraction(Fraction(c)) for c in y)


def random_offquadric_chart(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Small random rational chart triple with y3 != y1*y2 (off the quadric)."""
    while True:
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if any(y) and y[2] != y[0] * y[1]:
            return y


def spanning_monomials_rank(cert: ClosureCertificate, span: IdealSpan) -> dict:
    """Rank of the classical 19-monomial degree-4 spanning list inside the
    certified quotient basis; a single linear dependence is expected at
    generic points."""
    from .freeproduct import word_from_str
    from .linalg import dense_rank
    f = cert.field
    listed = [span.index[word_from_str(s)] for s in SPANNING_MONOMIALS_DEGREE4]
    nf = span.normal_forms(4, listed)
    pos = {span.index[w]: k for k, w in enumerate(cert.basis)}
    rows = []
    for i in listed:
        vec = nf[i]
        row = [f.zero] * len(cert.basis)
        for j, c in vec.items():
            row[pos[j]] = c
        rows.append(row)
    rank = dense_rank(f, rows)
    return {"listed": len(rows), "rank": rank, "dependencies": len(rows) - rank}
