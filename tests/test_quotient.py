import collections
import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partabel.classify import SubspacePresentation
from partabel.freeproduct import (
    P, Q, AlgebraElement, Signature, commutator, concat_words, filtration_dim, idempotent,
    words_up_to,
)
from partabel.linalg import SparseEchelon
from partabel.quotient import (
    ClosureFailure, ClosureTrace, IdealSpan, chart_in_field, closure_certificate, column_table,
    make_relation, on_quadric, reduction_coefficients, sigma_check,
    spanning_monomials_rank, stabilization_scan, standard_generator_rank,
    verify_reduction_identity,
)
from partabel.reptheory import letter_representation
from partabel.scalars import FunctionField, PrimeField, QQ, add_term, random_prime
from tests_helpers import (
    GenericEchelon, bottom_up_normal_forms, evaluation_oracle, extend_by_word_tuples,
    random_element, split_dims_oracle, word_tuple_row,
)

SIG = Signature(3, 3)
GENERIC_CHART = (Fraction(2), Fraction(3), Fraction(7))


def primes_pair(seed=1):
    rng = random.Random(seed)
    p1 = random_prime(rng)
    while True:
        p2 = random_prime(rng)
        if p2 != p1:
            return p1, p2


def test_make_relation_examples():
    rel = make_relation(QQ, point=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    p1 = idempotent(SIG, QQ, P, 1)
    q1 = idempotent(SIG, QQ, Q, 1)
    assert rel.element == commutator(p1, q1)
    assert rel.element.degree() == 2

    rel2 = make_relation(QQ, point=(Fraction(1), Fraction(0), Fraction(0), Fraction(-1)))
    p2 = idempotent(SIG, QQ, P, 2)
    q2 = idempotent(SIG, QQ, Q, 2)
    assert rel2.element == commutator(p1, q1) - commutator(p2, q2)

    F = FunctionField(("y1", "y2", "y3"))
    y1, y2, y3 = F.gens()
    relx = make_relation(F, chart=(y1, y2, y3))
    pf = {i: idempotent(SIG, F, P, i) for i in (1, 2)}
    qf = {j: idempotent(SIG, F, Q, j) for j in (1, 2)}
    expected = (commutator(pf[1], qf[1]) + commutator(pf[1], qf[2]).scale(y1)
                + commutator(pf[2], qf[1]).scale(y2) + commutator(pf[2], qf[2]).scale(y3))
    assert relx.element == expected

    with pytest.raises(ValueError):
        make_relation(QQ, point=(Fraction(0),) * 4)


def test_point_canonicalization_scale_invariance():
    rel1 = make_relation(QQ, point=tuple(Fraction(c) for c in (2, 4, 6, 14)))
    rel2 = make_relation(QQ, point=tuple(Fraction(c) for c in (1, 2, 3, 7)))
    assert rel1.point == rel2.point


def test_standard_generator_rank_42_over_rationals_and_primes():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    r = standard_generator_rank(rel)
    assert r["length_le_3"] == 13
    assert r["length_4"] == 40
    assert r["rank"] == 42
    assert r["rank_with_diagonal_conjugates"] == 42
    assert r["degree4_bound"] == 19
    for p in primes_pair():
        gf = PrimeField(p)
        relp = make_relation(gf, chart=chart_in_field(gf, GENERIC_CHART))
        rp = standard_generator_rank(relp)
        assert rp["rank"] == 42 and rp["degree4_bound"] == 19


def test_ideal_span_single_commutator_point():
    rel = make_relation(QQ, point=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    span = IdealSpan(rel)
    span.extend_to_window(2)
    assert span.counted_rank(2) == 1


def test_ideal_span_generic_window4_slack0():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    span = IdealSpan(rel)
    span.extend_to_window(4)  # degree 4 target at slack 0
    assert span.counted_rank(4) >= 42
    assert span.bound(4) <= 19


def test_bound_monotone_in_slack():
    gf = PrimeField(primes_pair(7)[0])
    rel = make_relation(gf, chart=chart_in_field(gf, GENERIC_CHART))
    bounds = []
    span = IdealSpan(rel)
    for window in (4, 5, 6, 7):
        span.extend_to_window(window)
        bounds.append(span.bound(4))
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_provenance_rows_reexpand_exactly():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    span = IdealSpan(rel, track_provenance=True)
    span.extend_to_window(4)
    assert span.verify_provenance()


@pytest.mark.parametrize("chart", [GENERIC_CHART, (Fraction(-7, 3), Fraction(5, 2), Fraction(11))])
def test_fraction_free_echelon_keeps_the_generic_pivot_rows_and_provenance(chart):
    rel = make_relation(QQ, chart=chart)
    span, oracle = IdealSpan(rel, track_provenance=True), IdealSpan(rel, track_provenance=True)
    oracle.ech = GenericEchelon(QQ)
    for window in range(5):   # window by window: a wrong row fails early
        span.extend_to_window(window)
        oracle.extend_to_window(window)
        assert list(span.ech.pivots) == list(oracle.ech.pivots), window
        assert all(list(row.items()) == list(oracle.ech.pivots[c].items())
                   for c, row in span.ech.pivots.items()), window
    assert span.verify_provenance() and oracle.verify_provenance()


def test_columns_grow_by_the_new_lengths_only():
    gf = PrimeField(primes_pair()[0])
    span = IdealSpan(make_relation(gf, point=(1, 0, 0, gf.from_int(-1))))
    maxrel = max(r.degree() for r in span.relations)
    for window in range(2, 9):
        span.extend_to_window(window)
        own = span._length_block(window + maxrel).stop
        assert span.words[:own] == words_up_to(span.sig, window + maxrel)
        assert all(span.index[w] == i for i, w in enumerate(span.words[:own]))
        assert len(span.index) == len(span.words)
    other = IdealSpan(make_relation(QQ, chart=GENERIC_CHART))
    assert other.table is span.table and other.words is span.words
    assert IdealSpan(multi_relation(Signature(4, 2), [(1, 1, 0, 0), (0, 0, 1, 1)])).table \
        is not span.table


@pytest.mark.parametrize("sig", [Signature(2, 2), Signature(3, 3), Signature(4, 2),
                                 Signature(2, 5)], ids=repr)
def test_column_arithmetic_matches_concatenated_word_tuples(sig):
    # every pair of words of length <= 7, the empty word and zero products
    # included: the computed column is the index of concat_words, or None
    # exactly when that is the zero product
    table = column_table(sig)
    table.ensure(14)
    cols = range(table.start[8])
    for ia in cols:
        for ib in cols:
            word = concat_words(table.words[ia], table.words[ib])
            assert table.product(ia, ib) == (None if word is None else table.index[word])


def _gf(seed):
    return PrimeField(primes_pair(seed)[0])


def _point_relation(field, point):
    return make_relation(field, point=tuple(field.from_int(c) for c in point))


def _not_a_commutator_sum(field):
    # X + q2 p2 q1 at (1:2:3:7): a relation that is not a sum of commutators
    q2p2q1 = idempotent(SIG, field, Q, 2) * idempotent(SIG, field, P, 2) \
        * idempotent(SIG, field, Q, 1)
    return [_point_relation(field, (1, 2, 3, 7)).element + q2p2q1]


def _count_add_row(span):
    count, add_row = [0], span.ech.add_row

    def counted(row):
        count[0] += 1
        return add_row(row)

    span.ech.add_row = counted
    return count


@pytest.mark.parametrize("relations, top", [
    (lambda: make_relation(QQ, chart=GENERIC_CHART), 5),
    (lambda: make_relation(_gf(29), chart=chart_in_field(_gf(29), GENERIC_CHART)), 6),
    (lambda: make_relation(QQ, point=tuple(Fraction(c) for c in (1, 0, 0, -1))), 6),
    (lambda: _gf_relation((1, 0, 0, -1)), 8),
    (lambda: multi_relation(Signature(4, 2), [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1)]), 5),
    (lambda: multi_relation(Signature(4, 2), [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1)],
                            _gf(31)), 6),
    (lambda: _point_relation(QQ, (1, 2, 2, 4)), 5),
    (lambda: _point_relation(QQ, (0, 1, 2, 3)), 5),
    (lambda: _gf_relation((1, 2, 2, 4)), 7),
    (lambda: _gf_relation((0, 1, 2, 3)), 7),
    (lambda: multi_relation(Signature(3, 2), [(1, 2, 0), (1, 0, 1)]), 7),
    (lambda: multi_relation(Signature(4, 2), [(1, 1, 0, 0), (0, 0, 1, 1)]), 6),
    (lambda: [_gf_relation((1, 0, 0, -1)).element, _gf_relation((1, 2, 2, 4)).element], 6),
    (lambda: _not_a_commutator_sum(QQ), 5),
    (lambda: _not_a_commutator_sum(_gf(13)), 6),
], ids=["generic_qq", "generic_gf", "infinite_qq", "infinite_gf",
        "sig42_three_relations_qq", "sig42_three_relations_gf", "quadric_qq", "plane_qq",
        "quadric_gf", "plane_gf", "sig32_tensor", "sig42_mid2",
        "two_points_gf", "off_sandwich_qq", "off_sandwich_gf"])
def test_arithmetic_rows_match_the_word_tuple_rows(relations, top):
    # the oracle applies the tail rule alone; the lead-prefix and right-hand
    # tail rules drop only rows that reduce to zero, so everything agrees at
    # every window but the number of add_row calls
    rels = relations()
    span, oracle = IdealSpan(rels), IdealSpan(rels)
    calls = [_count_add_row(span), _count_add_row(oracle)]
    for window in range(top + 1):
        span.extend_to_window(window)
        extend_by_word_tuples(oracle, window)
        assert list(span.ech.pivots) == list(oracle.ech.pivots), window
        assert all(list(row.items()) == list(oracle.ech.pivots[c].items())
                   for c, row in span.ech.pivots.items()), window
        assert span.trace == oracle.trace, window
        assert span.pivot_deg_counts == oracle.pivot_deg_counts, window
        assert [span.bound(n) for n in range(window + 4)] == \
            [oracle.bound(n) for n in range(window + 4)], window
    assert calls[0][0] < calls[1][0]
    replayed = IdealSpan(rels)
    replayed.replay(oracle.trace, top)
    assert [(c, list(row.items())) for c, row in replayed.ech.pivots.items()] == \
        [(c, list(row.items())) for c, row in oracle.ech.pivots.items()]


def test_arithmetic_rows_reexpand_from_word_tuples_at_window_6():
    span = IdealSpan(_gf_relation((1, 0, 0, -1)), track_provenance=True)
    span.extend_to_window(6)
    assert span.verify_provenance()


def feed_every_product(span, window):
    """Reference loop: feed every product u * X_k * v of each new window,
    with no criterion; the span and its pivot columns must match the
    engine's, only the stored pivot rows may differ."""
    span.table.ensure(window + span._max_relation_degree())
    for s in range(span.window + 1, window + 1):
        for lu in range(s + 1):
            for iu in span._length_block(lu):
                for iv in span._length_block(s - lu):
                    for k in range(len(span.relations)):
                        row = word_tuple_row(span, span.words[iu], k, span.words[iv])
                        span._feed((None, row, None), 0, iu, iv, k)
    span.window = window


def multi_relation(sig, vecs, field=QQ):
    V = SubspacePresentation(sig, field, tuple(tuple(field.from_int(c) for c in v) for v in vecs))
    return [commutator(a, b) for a, b in itertools.combinations(V.elements(), 2)]


def _gf_relation(point):
    gf = PrimeField(primes_pair(13)[0])
    return make_relation(gf, point=tuple(gf.from_int(c) for c in point))


@pytest.mark.parametrize("relations, top, nf_degree", [
    (lambda: _gf_relation((1, 0, 0, -1)), 8, 6),
    (lambda: make_relation(QQ, chart=GENERIC_CHART), 5, 6),
    (lambda: _gf_relation((1, 2, 3, 7)), 6, 6),
    (lambda: _gf_relation((1, 2, 2, 4)), 7, 6),
    (lambda: multi_relation(Signature(3, 2), [(1, 2, 0), (1, 0, 1)]), 7, 6),
    (lambda: multi_relation(Signature(4, 2), [(1, 1, 0, 0), (0, 0, 1, 1)]), 6, 5),
    (lambda: multi_relation(Signature(4, 2), [(1, 1, 1, 0), (1, 0, 0, 1)]), 6, 5),
    (lambda: multi_relation(Signature(4, 2), [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1)]), 6, 5),
    (lambda: [_gf_relation((1, 0, 0, -1)).element, _gf_relation((1, 2, 2, 4)).element], 6, 5),
], ids=["infinite_gf", "generic_qq", "generic_gf", "quadric_gf", "sig32_tensor",
        "sig42_mid2", "sig42_mid_infinity", "sig42_three_relations", "two_points_gf"])
def test_tail_pivot_criterion_matches_feeding_every_product(relations, top, nf_degree):
    rels = relations()
    engine, oracle = IdealSpan(rels), IdealSpan(rels)
    for window in range(top + 1):
        engine.extend_to_window(window)
        feed_every_product(oracle, window)
        assert set(engine.ech.pivots) == set(oracle.ech.pivots), window
        assert engine.pivot_deg_counts == oracle.pivot_deg_counts, window
        d = min(nf_degree, window + 2)
        assert engine.normal_forms(d) == oracle.normal_forms(d), window


@pytest.mark.parametrize("relation", [
    lambda: make_relation(QQ, chart=GENERIC_CHART),
    lambda: _gf_relation((1, 2, 3, 7)),
], ids=["generic_qq", "generic_gf"])
def test_tail_pivot_criterion_keeps_provenance_exact(relation):
    rel = relation()
    engine = IdealSpan(rel, track_provenance=True)
    oracle = IdealSpan(rel, track_provenance=True)
    for window in range(5):
        engine.extend_to_window(window)
        feed_every_product(oracle, window)
        assert engine.verify_provenance(), window
        word_pivots = {c for c in engine.ech.pivots if c >= 0}
        assert word_pivots == {c for c in oracle.ech.pivots if c >= 0}, window
        assert engine.pivot_deg_counts == oracle.pivot_deg_counts, window
        assert engine.normal_forms(window + 2) == oracle.normal_forms(window + 2), window
    assert len(engine.products) < len(oracle.products)


class TemplatePathSpan(IdealSpan):
    """Counts the way each grown product enters the echelon: its seam
    template merged to no row, its shifted top column was free, or it
    already held a pivot."""

    def __init__(self, relations, track_provenance=False):
        super().__init__(relations, track_provenance)
        self.paths = collections.Counter()

    def _feed(self, template, r, iu, iv, k):
        top, row, _ = template
        if top is None:
            self.paths["empty" if not row else "once"] += 1
        else:
            self.paths["pivot" if top + r in self.ech.pivots else "free"] += 1
        return super()._feed(template, r, iu, iv, k)


@pytest.mark.parametrize("track", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("field", [_gf(13), QQ], ids=["gf", "qq"])
def test_seam_templates_match_feeding_every_product(field, track):
    # at (1:2:3:7) to window 4 growth meets all three kinds of template:
    # a free top column (the first such shift through add_row, later ones
    # installed as shifted copies, with no elimination), a top that is
    # already a pivot (through add_row), and terms that cancel (p_i X p_i
    # and q_j X q_j at window 2); with provenance every row goes through
    # add_row
    rel = _point_relation(field, (1, 2, 3, 7))
    engine = TemplatePathSpan(rel, track_provenance=track)
    oracle = IdealSpan(rel, track_provenance=track)
    installs, install = [0], engine.ech.install

    def counted(*args):
        installs[0] += 1
        return install(*args)

    engine.ech.install = counted
    for window in range(5):
        engine.extend_to_window(window)
        feed_every_product(oracle, window)
        assert {c for c in engine.ech.pivots if c >= 0} == \
            {c for c in oracle.ech.pivots if c >= 0}, window
        assert engine.pivot_deg_counts == oracle.pivot_deg_counts, window
        assert engine.normal_forms(window + 2) == oracle.normal_forms(window + 2), window
    assert engine.paths["empty"] == 4 and engine.paths["once"] == 0
    assert engine.paths["free"] > 0 and engine.paths["pivot"] > 0
    if track:
        assert installs[0] == 0
    else:
        assert 0 < installs[0] < engine.paths["free"]
    if track:
        assert engine.verify_provenance() and oracle.verify_provenance()



def _random_relation(sig, field, rng, commutators):
    """A random sum of the commutators [p_i, q_j], or a random element of
    degree at most 3."""
    if not commutators:
        return random_element(sig, field, rng, max_deg=3)
    X = AlgebraElement.zero(sig, field)
    for i in range(1, sig.a):
        for j in range(1, sig.b):
            c = field.from_int(rng.randint(-3, 3))
            X = X + commutator(idempotent(sig, field, P, i), idempotent(sig, field, Q, j)).scale(c)
    return X


@settings(max_examples=20, deadline=None)
@given(sig=st.sampled_from([Signature(3, 3), Signature(3, 4), Signature(4, 2),
                            Signature(3, 5), Signature(4, 4)]),
       kinds=st.lists(st.booleans(), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_skip_rules_match_feeding_every_product_at_random_relations(sig, kinds, seed):
    # all three skip rules together drop only rows that reduce to zero, at
    # relations of no special form and with two relations, where the
    # right-hand tail rule reads a head flag per k
    rng = random.Random(seed)
    field = PrimeField(101)
    rels = [_random_relation(sig, field, rng, kind) for kind in kinds]
    assume(not any(X.is_zero() for X in rels))
    engine, oracle = IdealSpan(rels), IdealSpan(rels)
    for window in range(5):
        engine.extend_to_window(window)
        feed_every_product(oracle, window)
        assert set(engine.ech.pivots) == set(oracle.ech.pivots), window
        assert engine.pivot_deg_counts == oracle.pivot_deg_counts, window
        assert engine.normal_forms(window + 2) == oracle.normal_forms(window + 2), window


def test_tail_pivot_criterion_row_count_at_the_infinite_point():
    # window 10 at (1:0:0:-1): 8,198 rows reach the echelon where the tail
    # rule alone sends 11,248 and feeding every product 31,744; the 8,184
    # new pivots are the same.  A row reaches the echelon as a new pivot,
    # installed from its template or by add_row, or as an add_row call
    # that returns None.
    span = IdealSpan(_gf_relation((1, 0, 0, -1)))
    span.extend_to_window(9)
    rank, zeros, add_row = span.ech.rank, [0], span.ech.add_row

    def counted(row):
        piv = add_row(row)
        zeros[0] += piv is None
        return piv

    span.ech.add_row = counted
    span.extend_to_window(10)
    assert span.ech.rank - rank + zeros[0] == 8198
    assert span.ech.rank - rank == 8184


def test_the_per_row_entry_points_build_no_closure_cell():
    # before Python 3.12 a comprehension is a nested function, so a local it
    # reads becomes a cell that every call builds; _feed runs once for each
    # product of growth and add_row once for each row it does not install
    assert IdealSpan._feed.__code__.co_cellvars == ()
    assert SparseEchelon.add_row.__code__.co_cellvars == ()


@pytest.mark.parametrize("point, per_window", [
    ((1, 0, 0, -1), [3, 4, 2, 4, 6, 8, 10, 12, 14]),
    ((1, 2, 3, 7), [2, 2, 5, 10, 10, 12, 14, 16]),
], ids=["infinite", "generic"])
def test_right_tail_rule_leaves_few_zero_rows(point, per_window):
    # the rows that reach the echelon and reduce to zero, per window from 2:
    # at (1:0:0:-1) 1,587 in all to window 10 before the right-hand tail
    # rule, 63 with it; window 2 holds p2*X*p1 and q2*X*q1 at both points,
    # and the two tail rules skip every extension of them
    span = IdealSpan(_gf_relation(point))
    span.extend_to_window(1)
    zeros, add_row = [0], span.ech.add_row

    def counted(row):
        piv = add_row(row)
        zeros[0] += piv is None
        return piv

    span.ech.add_row = counted
    found = []
    for window in range(2, 2 + len(per_window)):
        zeros[0] = 0
        span.extend_to_window(window)
        found.append(zeros[0])
    assert found == per_window


@pytest.mark.parametrize("point", [(1, 0, 0, -1), (1, 2, 3, 7), (1, 2, 2, 4)])
def test_bound_counts_the_ambient_words_from_the_columns(point):
    span = IdealSpan(_gf_relation(point))
    for window in range(2, 7):
        span.extend_to_window(window)
        for n in range(window + 5):  # past the columns too
            assert span.bound(n) == filtration_dim(SIG, n) - span.counted_rank(n), (window, n)


def test_normal_forms_are_kept_per_window_and_served_at_lower_degrees():
    rel = _gf_relation((1, 2, 3, 7))
    span = IdealSpan(rel)
    for window in range(2, 6):
        span.extend_to_window(window)
        for d in (5, 4, 3, 5, 6):
            fresh = IdealSpan(rel)
            fresh.extend_to_window(window)
            assert span.normal_forms(d) == fresh.normal_forms(d), (window, d)


def _as_items(forms):
    """Forms as nested item lists, so their key order is compared too."""
    return [(i, list(v.items())) for i, v in forms.items()]


def _relation_in(field, point):
    return make_relation(field, point=tuple(field.from_int(c) for c in point))


@pytest.mark.parametrize("point", [(1, 2, 3, 7), (1, 2, 2, 4), (1, 0, 0, -1)],
                         ids=["generic", "quadric", "infinite"])
@pytest.mark.parametrize("field", [QQ, PrimeField(primes_pair(19)[0])], ids=["QQ", "GF"])
def test_normal_forms_on_demand_match_the_bottom_up_forms(field, point):
    span = IdealSpan(_relation_in(field, point))
    rng = random.Random(str(point))
    for window in range(2, 6):
        span.extend_to_window(window)
        # one degree past the products, whose words get pivots only at the
        # next window: a memo kept across the growth would keep them plain
        d = window + 3
        oracle = bottom_up_normal_forms(span, d)
        for size in (1, 20, 60):
            asked = rng.sample(range(len(oracle) - 1), size) + [len(oracle) - 1]
            got = span.normal_forms(d, asked)
            assert list(got) == asked, window
            assert _as_items(got) == _as_items({i: oracle[i] for i in asked}), window
        assert _as_items(span.normal_forms(d)) == _as_items(oracle), window
        lower = bottom_up_normal_forms(span, d - 1)
        assert _as_items(span.normal_forms(d - 1)) == _as_items(lower), window


@pytest.mark.parametrize("field", [QQ, PrimeField(primes_pair(23)[0])], ids=["QQ", "GF"])
def test_normal_forms_on_demand_on_a_replayed_span(field):
    rel = _relation_in(field, (1, 2, 3, 7))
    cert, grown = closure_certificate(rel)
    replayed = IdealSpan(rel)
    replayed.replay(grown.trace, cert.window)
    d = cert.degree + 1
    oracle = bottom_up_normal_forms(replayed, d)
    assert _as_items(oracle) == _as_items(bottom_up_normal_forms(grown, d))
    asked = list(range(0, len(oracle), 3))
    assert _as_items(replayed.normal_forms(d, asked)) == \
        _as_items({i: oracle[i] for i in asked})
    assert _as_items(replayed.normal_forms(d)) == _as_items(oracle)


def test_closure_certificate_generic():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    cert, span = closure_certificate(rel)
    assert cert.dimension_bound == 18
    assert not cert.is_commutative()
    # the table is that of k^9 (+) M3(k), associative, on every pair
    assert evaluation_oracle(cert, letter_representation(cert)) == (18, True)
    assert split_dims_oracle(cert) == (6, 6, 6)
    listed = spanning_monomials_rank(cert, span)
    assert listed == {"listed": 19, "rank": 18, "dependencies": 1}


def test_closure_certificate_quadric_point():
    x = tuple(Fraction(c) for c in (1, 2, 2, 4))
    rel = make_relation(QQ, point=x)
    assert on_quadric(rel.field, rel.point)
    cert, _ = closure_certificate(rel)
    assert cert.dimension_bound == 9
    assert cert.is_commutative()
    # the table is that of k^9, associative, on every pair
    assert evaluation_oracle(cert) == (9, True)


def test_scan_generic_reaches_18():
    for p in primes_pair(3):
        gf = PrimeField(p)
        rel = make_relation(gf, chart=chart_in_field(gf, GENERIC_CHART))
        rep = stabilization_scan(rel, 2, 8)
        assert rep.stabilized_at == 4
        assert rep.certificate.dimension_bound == 18
        assert all(rep.per_degree[n]["certified_bound"] == 18 for n in range(4, 9))


def test_scan_quadric_reaches_9():
    gf = PrimeField(primes_pair(5)[0])
    rel = make_relation(gf, point=tuple(gf.from_int(c) for c in (1, 2, 2, 4)))
    rep = stabilization_scan(rel, 2, 8)
    assert rep.certificate is not None
    assert rep.certificate.dimension_bound == 9


def test_scan_known_infinite_point_grows():
    gf = PrimeField(primes_pair(11)[0])
    rel = make_relation(gf, point=(gf.one, gf.zero, gf.zero, gf.neg(gf.one)))
    rep = stabilization_scan(rel, 2, 8, slack=2, window_cap=9)
    assert rep.stabilized_at is None
    bounds = [rep.per_degree[n]["quotient_bound"] for n in range(4, 9)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert "evidence" in rep.note


def test_reduction_coefficients_examples():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    table = reduction_coefficients(rel)
    assert table.alpha[(2, 1, 1, 1)] == 1
    assert table.tails_pq[(2, 1, 1, 1)] == {}
    assert table.beta[(2, 1, 1, 1)] == 1
    assert table.tails_qp[(2, 1, 1, 1)] == {}
    assert table.alpha_beta_product() == Fraction(17, 20)
    assert table.alpha_beta_product() != 1


def test_reduction_identities_reduce_to_zero_in_span():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    table = reduction_coefficients(rel)
    span = IdealSpan(rel)
    span.extend_to_window(6)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    assert verify_reduction_identity(rel, span, table, i, j, k, l, "pq")
                    assert verify_reduction_identity(rel, span, table, i, j, k, l, "qp")


# --- remainders from normal forms; full reduction by the echelon is the oracle ---

REDUCE_FIELDS = {"QQ": QQ, "GFp": PrimeField(primes_pair(23)[0])}
REDUCE_POINTS = {"generic": (1, 2, 3, 7), "infinite": (1, 0, 0, -1)}


@cache
def _window5_span(field_name, point_name, track):
    f = REDUCE_FIELDS[field_name]
    rel = make_relation(f, point=chart_in_field(f, REDUCE_POINTS[point_name]))
    span = IdealSpan(rel, track_provenance=track)
    span.extend_to_window(5)
    return span


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(REDUCE_FIELDS)), st.sampled_from(sorted(REDUCE_POINTS)),
       st.booleans(), st.lists(st.tuples(st.integers(0, filtration_dim(SIG, 5) - 1),
                                         st.integers(-9, 9), st.integers(1, 4)), max_size=8))
def test_reduce_element_is_the_full_reduction(field_name, point_name, track, terms):
    # the sum of normal forms equals full reduction by the pivot rows, with
    # and without provenance columns (which both leave out)
    span = _window5_span(field_name, point_name, track)
    f = span.field
    coeffs = {}
    for i, n, d in terms:
        add_term(f, coeffs, span.words[i], f.from_fraction(Fraction(n, d)))
    row = {span.index[w]: c for w, c in coeffs.items()}
    expected = {i: c for i, c in span.ech.reduce(row).items() if i >= 0}
    assert span.reduce_element(AlgebraElement(SIG, f, coeffs)) == expected


def test_reduce_element_leaves_a_nonzero_remainder_off_the_ideal():
    # the oracle property above is not vacuous: a word outside the span
    # keeps itself, one that leads a pivot row is rewritten below it
    span = _window5_span("QQ", "generic", False)
    lead = max(i for i in span.ech.pivots if span.table.length[i] <= 5)
    free = next(i for i in range(len(span.words)) if i not in span.ech.pivots)
    one = {span.words[free]: QQ.one}
    assert span.reduce_element(AlgebraElement(SIG, QQ, one)) == {free: QQ.one}
    rem = span.reduce_element(AlgebraElement(SIG, QQ, {span.words[lead]: QQ.one}))
    assert rem and max(rem) < lead


def test_alpha_beta_product_not_one_across_specializations():
    rng = random.Random(19)
    from partabel.pipeline import sample_generic_points
    pts = sample_generic_points(77, 5)
    for x in pts:
        rel = make_relation(QQ, point=x)
        table = reduction_coefficients(rel)
        assert table.alpha_beta_product() != 1


def test_sigma_identities_exact():
    rep = sigma_check()
    assert rep["all"]
    assert rep["sigma1_of_y2"] == "(1)/(y2)"
    assert rep["sigma2_of_y3"] == "y1 - y3"


def test_certificate_digest_deterministic():
    rel = make_relation(QQ, chart=GENERIC_CHART)
    c1, _ = closure_certificate(rel)
    c2, _ = closure_certificate(make_relation(QQ, chart=GENERIC_CHART))
    assert c1.structure_digest() == c2.structure_digest()
    assert [w for w in c1.basis] == [w for w in c2.basis]


def test_closure_failure_signals_instead_of_crashing():
    gf = PrimeField(primes_pair(13)[0])
    rel = make_relation(gf, point=(gf.one, gf.zero, gf.zero, gf.neg(gf.one)))
    with pytest.raises(ClosureFailure) as err:
        closure_certificate(rel, n_max=5, slack=1)
    assert "increase" in str(err.value)
    assert err.value.span.window == 6  # the span it grew, to n_max + slack


def test_a_scan_without_a_closure_reads_the_span_the_closure_grew(monkeypatch):
    gf = PrimeField(primes_pair(13)[0])
    rel = make_relation(gf, point=(gf.one, gf.zero, gf.zero, gf.neg(gf.one)))
    spans, grows = [], []
    init, extend = IdealSpan.__init__, IdealSpan.extend_to_window
    monkeypatch.setattr(IdealSpan, "__init__",
                        lambda self, *a, **k: spans.append(self) or init(self, *a, **k))
    monkeypatch.setattr(IdealSpan, "extend_to_window",
                        lambda self, w: grows.append(w) or extend(self, w))
    rep = stabilization_scan(rel, 2, 5, slack=1)
    assert rep.stabilized_at is None and rep.window == 6
    assert len(spans) == 1 and grows == [2, 3, 4, 5, 6, 6]  # the last adds nothing


# --- replaying a closure trace; full window growth is the oracle ---

def _generic_trace(field):
    rel = make_relation(field, chart=chart_in_field(field, GENERIC_CHART))
    cert, span = closure_certificate(rel)
    return ClosureTrace(span.trace, cert.degree, cert.window)


def _same_certificate(a, b):
    return ((a.basis, a.degree, a.window, a.structure_digest())
            == (b.basis, b.degree, b.window, b.structure_digest()))


def test_replay_at_a_quadric_point_falls_back_to_the_9_dimensional_certificate():
    for field in (QQ, PrimeField(primes_pair(17)[0])):
        rel = make_relation(field, point=tuple(field.from_int(c) for c in (1, 2, 3, 6)))
        assert on_quadric(rel.field, rel.point)
        full, _ = closure_certificate(rel)
        got, _ = closure_certificate(rel, trace=_generic_trace(field))
        assert got.dimension_bound == 9
        assert _same_certificate(got, full)


def test_replay_at_the_infinite_point_still_raises():
    gf = PrimeField(primes_pair(13)[0])
    rel = make_relation(gf, point=(gf.one, gf.zero, gf.zero, gf.neg(gf.one)))
    with pytest.raises(ClosureFailure):
        closure_certificate(rel, n_max=5, slack=1, trace=_generic_trace(gf))


def test_a_truncated_trace_falls_back_to_full_growth():
    gf = PrimeField(primes_pair(19)[0])
    trace = _generic_trace(gf)
    half = ClosureTrace(trace.products[:len(trace.products) // 2], trace.degree, trace.window)
    rel = make_relation(gf, chart=chart_in_field(gf, (Fraction(-1, 2), Fraction(5), Fraction(3, 4))))
    full, _ = closure_certificate(rel)
    got, span = closure_certificate(rel, trace=half)
    assert _same_certificate(got, full)
    assert span.window == full.window and len(span.trace) > len(half.products)
    with pytest.raises(ValueError):
        span.replay(half.products, half.window)  # a grown span is not fresh


class PivotRecordingSpan(IdealSpan):
    """Records every product that gave a word pivot as it is fed: the
    oracle for ``trace``, which reads them off the pivot flags."""

    def __init__(self, relations):
        super().__init__(relations)
        self.pivot_products = []

    def _feed(self, template, r, iu, iv, k):
        gave = super()._feed(template, r, iu, iv, k)
        if gave:
            self.pivot_products.append((self.words[iu], self.relations[k], self.words[iv]))
        return gave


@pytest.mark.parametrize("relations, top", [
    (lambda: make_relation(QQ, chart=GENERIC_CHART), 4),
    (lambda: _gf_relation((1, 0, 0, -1)), 7),
    (lambda: multi_relation(Signature(4, 2), [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1)]), 5),
], ids=["generic_qq", "infinite_gf", "sig42_three_relations"])
def test_trace_lists_the_pivot_giving_products_in_feed_order(relations, top):
    span = PivotRecordingSpan(relations())
    span.extend_to_window(top)
    nrel = len(span.relations)
    decoded = []
    for packed in span.trace:
        pair, k = divmod(packed, nrel)
        decoded.append((span.words[pair >> 32], span.relations[k],
                        span.words[pair & 0xFFFFFFFF]))
    assert decoded == span.pivot_products
    fresh = PivotRecordingSpan(span.relations)
    fresh.replay(span.trace, top)
    assert fresh.pivot_products == span.pivot_products
    assert fresh.trace == span.trace
    assert set(fresh.ech.pivots) == set(span.ech.pivots)
    # a replay of the full trace records, window by window, growth's bounds
    grown = IdealSpan(span.relations)
    for w in range(top + 1):
        grown.extend_to_window(w)
        assert [fresh.replay_bound(w, n) for n in range(w + 3)] == \
            [grown.bound(n) for n in range(w + 3)]


def test_a_replayed_span_cannot_grow():
    gf = PrimeField(primes_pair(19)[0])
    trace = _generic_trace(gf)
    span = IdealSpan(make_relation(gf, chart=chart_in_field(gf, GENERIC_CHART)))
    span.replay(trace.products, trace.window)
    assert span.window == trace.window and span.trace == trace.products
    with pytest.raises(ValueError):
        span.extend_to_window(trace.window + 1)
    with pytest.raises(ValueError):  # products of window 4 replayed at window 3
        IdealSpan(span.relations).replay(trace.products, trace.window - 1)


def _pivot_items(span):
    return [(c, list(row.items())) for c, row in span.ech.pivots.items()]


@pytest.mark.parametrize("relations", [
    {"generic": lambda: [_point_relation(_gf(29), (1, 2, 3, 7)).element],
     "plane": lambda: [_point_relation(_gf(29), (0, 1, 2, 3)).element],
     "not_commutators": lambda: _not_a_commutator_sum(_gf(29)),
     "generic_qq": lambda: [_point_relation(QQ, (1, 2, 3, 7)).element]},
    {"tensor": lambda: multi_relation(Signature(3, 2), [(1, 2, 0), (1, 0, 1)]),
     "other": lambda: multi_relation(Signature(3, 2), [(1, 0, 0), (0, 1, 1)], _gf(29))},
], ids=["sig33", "sig32"])
def test_compiled_rows_follow_the_relation_term_layout(relations):
    # one trace replayed at relations whose terms sit at other columns (a
    # plane point lacks the x11 terms, X + q2 p2 q1 has a ninth): each
    # replay builds its own relation's rows, those word tuples give, in
    # their order, never rows compiled for another layout; at its own
    # relation they are growth's pivot rows
    rels = {name: make() for name, make in relations.items()}
    grown = {name: IdealSpan(rel) for name, rel in rels.items()}
    for span in grown.values():
        span.extend_to_window(5)
    for traced, source in grown.items():
        for name, rel in rels.items():
            replayed, oracle = IdealSpan(rel), IdealSpan(rel)
            replayed.replay(source.trace, 5)
            for packed in source.trace:  # one relation: packed is iu << 32 | iv
                iu, iv = packed >> 32, packed & 0xFFFFFFFF
                row = word_tuple_row(oracle, oracle.words[iu], 0, oracle.words[iv])
                oracle._feed((None, row, None), 0, iu, iv, 0)
            assert _pivot_items(replayed) == _pivot_items(oracle), (traced, name)
            if name == traced:
                assert _pivot_items(replayed) == _pivot_items(grown[name])


def _folded_table(cert):
    """e_i * b_j by folding the letters of b_j one by one from e_i."""
    f, n = cert.field, len(cert.basis)
    table = []
    for i in range(n):
        row = []
        for w in cert.basis:
            vec = {i: f.one}
            for letter in w:
                out = {}
                for k, c in vec.items():
                    for m, cm in cert.letter_action[(letter,)][k].items():
                        add_term(f, out, m, f.mul(c, cm))
                vec = out
            row.append(vec)
        table.append(row)
    return table


@pytest.mark.parametrize("field, point", [
    (PrimeField(primes_pair(23)[0]), (1, 2, 3, 7)),
    (QQ, (1, 2, 3, 7)),
    (QQ, (1, 2, 3, 6)),
])
def test_prefix_built_table_equals_the_letter_fold(field, point):
    rel = make_relation(field, point=tuple(field.from_int(c) for c in point))
    cert, _ = closure_certificate(rel)
    assert all(w[:-1] in cert.basis for w in cert.basis if w)  # prefix-closed
    assert cert.structure_constants == _folded_table(cert)
