import json
import random
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partabel import pipeline, reptheory
from partabel.linalg import SparseEchelon
from partabel.pipeline import (
    _cert_json, certify_point, certify_point_multi, certify_quadric_point,
    chart_of_point, degeneracy_forms, sample_generic_points, seeded_primes,
    suspected_nongeneric, theorem_point_worker,
)
from partabel.quotient import (
    ClosureCertificate, ClosureFailure, ClosureTrace, IdealSpan, closure_certificate,
    make_relation, replay_is_growth, spanning_monomials_rank,
)
from partabel.scalars import DegenerateSpecialization, PrimeField, QQ, random_prime

F = Fraction


def test_chart_of_point_swaps():
    y, swap = chart_of_point(QQ, (F(1), F(2), F(3), F(7)))
    assert swap == "id" and y == (2, 3, 7)
    y, swap = chart_of_point(QQ, (F(0), F(1), F(1), F(3)))
    assert swap == "q"
    y, swap = chart_of_point(QQ, (F(0), F(0), F(1), F(3)))
    assert swap in ("p", "pq")
    # a vanishing coordinate is itself one of the degeneracy planes and the
    # plane union is swap-invariant, so every point that passes the filter
    # already sits in the x11 != 0 chart
    for x in sample_generic_points(11, 10):
        _, swap = chart_of_point(QQ, x)
        assert swap == "id"


def test_degeneracy_forms_and_filter():
    x = tuple(F(c) for c in (1, 2, 3, 7))
    assert len(degeneracy_forms(QQ, x)) == 9
    assert not suspected_nongeneric(QQ, x)
    # each plane trips the filter
    for bad in [(0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 0, 3), (1, 2, 3, 0),
                (1, 1, 2, 3), (1, 2, 3, 3), (1, 2, 1, 3), (1, 2, 3, 2),
                (1, 2, 3, 4)]:  # last: x11 - x12 - x21 + x22 = 1-2-3+4 = 0
        assert suspected_nongeneric(QQ, tuple(F(c) for c in bad)), bad
    # quadric points trip it too
    assert suspected_nongeneric(QQ, tuple(F(c) for c in (1, 2, 2, 4)))
    # the known infinite-dimensional point lies on a degeneracy plane
    assert suspected_nongeneric(QQ, tuple(F(c) for c in (1, 0, 0, -1)))


def test_sampler_avoids_degenerate_loci_and_is_deterministic():
    pts = sample_generic_points(42, 30)
    assert pts == sample_generic_points(42, 30)
    assert len(set(pts)) == 30
    for x in pts:
        assert not suspected_nongeneric(QQ, x)


def test_certify_point_rejects_degenerate_without_force():
    with pytest.raises(DegenerateSpecialization):
        certify_point(QQ, tuple(F(c) for c in (1, 1, 2, 3)))


def test_certify_point_forced_at_degenerate_point_fails_honestly():
    # x11 = x12 plane: the bounds provably never stabilize, so the forced
    # run must end in a closure failure rather than a wrong certificate
    gf = PrimeField(random_prime(random.Random(8)))
    x = tuple(gf.from_int(c) for c in (1, 1, 2, 3))
    with pytest.raises(ClosureFailure):
        certify_point(gf, x, n_max=6, slack=2, force=True)


def test_certify_point_multi_agreement():
    rep = certify_point_multi((F(1), F(2), F(3), F(7)), mode="prime", seed=3)
    assert rep["verdict_ok"]
    assert rep["agreement"]
    assert all(r["swap"] == "id" for r in rep["runs"])
    assert all(r["exact_dimension"] == 18 for r in rep["runs"])
    # a vanishing first coordinate is one of the degeneracy planes; the
    # swap normalization cannot rescue it and the filter rejects it
    with pytest.raises(DegenerateSpecialization):
        certify_point_multi((F(0), F(1), F(1), F(3)), mode="prime", seed=3)


def test_certify_point_multi_rational():
    rep = certify_point_multi((F(1), F(2), F(3), F(7)), mode="rational")
    run = rep["runs"][0]
    assert rep["verdict_ok"]
    assert run["domain"] == "rational"
    assert run["center_dim"] == 10
    assert run["trace_form_rank"] == 18
    assert run["split_dims"] == [6, 6, 6]
    assert run["spanning_list"] == {"listed": 19, "rank": 18, "dependencies": 1}


def test_certify_point_multi_unknown_mode():
    with pytest.raises(ValueError):
        certify_point_multi((F(1), F(2), F(3), F(7)), mode="floating")


def test_worker_wraps_degeneracies():
    rep = theorem_point_worker(((F(1), F(0), F(0), F(-1)), "prime", None, 0, 8, 4, False))
    assert not rep["verdict_ok"]
    assert "degenerate" in rep["verdict"]


def test_quadric_certification():
    rep = certify_quadric_point(QQ, tuple(F(c) for c in (1, 2, 2, 4)))
    assert rep["exact_dimension"] == 9
    assert rep["commutative"]
    gf = PrimeField(random_prime(random.Random(21)))
    repp = certify_quadric_point(gf, tuple(gf.from_int(c) for c in (1, 2, 2, 4)))
    assert repp["exact_dimension"] == 9
    with pytest.raises(ValueError):
        certify_quadric_point(QQ, tuple(F(c) for c in (1, 2, 3, 7)))


# --- properties of the point certificate (few examples: each runs the pipeline)

GENERIC_POINTS = sample_generic_points(11, 6)
GF_P = PrimeField(4611686018427387847)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(GENERIC_POINTS), st.integers(1, GF_P.p - 1))
def test_certify_point_is_invariant_under_scaling_the_point(x, scalar):
    f = GF_P
    xs = tuple(f.from_fraction(c) for c in x)
    scaled = tuple(f.mul(scalar, c) for c in xs)
    assert certify_point(f, scaled) == certify_point(f, xs)


@settings(max_examples=3, deadline=None)
@given(st.sampled_from(GENERIC_POINTS), st.sampled_from(["prime", "rational"]),
       st.integers(0, 2**32))
def test_point_reports_survive_a_json_round_trip(x, mode, seed):
    report = certify_point_multi(x, mode=mode, seed=seed)
    assert json.loads(json.dumps(report)) == report


def test_seeded_primes_are_drawn_once_per_seed(monkeypatch):
    # each point of theorem asks for its primes again; the draw is made
    # once and every caller gets a list of its own
    drawn = []
    monkeypatch.setattr(pipeline, "random_prime",
                        lambda rng: drawn.append(1) or random_prime(rng))
    pipeline._seeded_primes.cache_clear()
    first = seeded_primes(41)
    assert drawn and len(first) == 2 and first[0] != first[1]
    drawn.clear()
    first.append(7)
    assert seeded_primes(41) == first[:2] and drawn == []
    assert seeded_primes(41, [2**61 - 1])[0] == 2**61 - 1 and drawn


def _in(field, x):
    return tuple(field.from_fraction(F(c)) for c in x)


def _read_bounds(cert, span, n_max=8):
    """replay_bound at every (w, n) that replay_is_growth reads."""
    return [span.replay_bound(w, n) for w in range(2, cert.window + 1)
            for n in range(2, min(n_max, w) + 1) if (w, n) < (cert.window, cert.degree)]


def test_replayed_closure_matches_full_growth_over_two_primes_and_qq(monkeypatch):
    # a whole trace and its pruned part (ClosureTrace.pruned) replay to
    # growth's certificate, bytes included, with the same bounds wherever
    # replay_is_growth looks
    fed = []
    add_row = SparseEchelon.add_row
    monkeypatch.setattr(SparseEchelon, "add_row",
                        lambda self, row: fed.append(1) or add_row(self, row))
    gf1, gf2 = (PrimeField(p) for p in seeded_primes(11))
    points = sample_generic_points(5, 8)
    learned = {}
    for x in points:
        for f in (gf1, gf2, QQ):
            cert, span = closure_certificate(make_relation(f, point=_in(f, x)))
            learned[x, f] = (ClosureTrace(span.trace, cert.degree, cert.window),
                            ClosureTrace.pruned(cert, span))
            assert len(learned[x, f][1].products) < len(learned[x, f][0].products)
    for x, other in zip(points, points[1:] + points[:1]):
        # the same point at the other domain, then another point of the
        # sample, learned over QQ and replayed mod p and the reverse
        for f, traces in ((gf1, learned[x, gf2]), (gf2, learned[x, gf1]),
                          (QQ, learned[x, gf1]), (gf1, learned[other, QQ]),
                          (QQ, learned[other, gf2])):
            rel = make_relation(f, point=_in(f, x))
            full, full_span = closure_certificate(rel)
            report = _cert_json(certify_point(f, _in(f, x)))
            bounds = []
            for trace in traces:
                fed.clear()
                got, got_span = closure_certificate(rel, trace=trace)
                assert len(fed) == len(trace.products)  # the replay path, no fallback
                assert replay_is_growth(got, got_span, 8)
                assert (got.basis, got.degree, got.window) == \
                    (full.basis, full.degree, full.window)
                assert got.structure_digest() == full.structure_digest()
                assert (spanning_monomials_rank(got, got_span)
                        == spanning_monomials_rank(full, full_span))
                assert _cert_json(certify_point(f, _in(f, x), trace=trace)) == report
                bounds.append(_read_bounds(got, got_span))
            assert bounds[0] == bounds[1]


def test_a_pruned_trace_missing_a_product_regrows_or_proves_growth(monkeypatch):
    # planted fault: one product dropped from the pruned trace.  Without a
    # product whose lead the closure reads, the replay falls short and the
    # point is grown again; without one kept only as a reducer, the replay
    # is kept only if replay_is_growth proves it.  The bytes are growth's.
    gf = PrimeField(seeded_primes(11)[0])
    points = sample_generic_points(5, 2)
    grows = _count_calls(monkeypatch, IdealSpan, "extend_to_window")
    for f in (gf, QQ):
        first = certify_point(f, _in(f, points[0]))
        pruned = ClosureTrace.pruned(first.certificate, first.span)
        lead = dict(zip(first.span.trace,
                        (first.span.table.length[c] for c in first.span.ech.pivots)))
        short = [i for i, packed in enumerate(pruned.products)
                 if lead[packed] <= pruned.degree + 1]
        reducers = [i for i, packed in enumerate(pruned.products)
                    if lead[packed] > pruned.degree + 1]
        assert reducers
        report = _cert_json(certify_point(f, _in(f, points[1])))
        for i in [short[0], short[len(short) // 2], short[-1]] + reducers:
            grows.clear()
            faulted = ClosureTrace(pruned.products[:i] + pruned.products[i + 1:],
                                   pruned.degree, pruned.window)
            assert _cert_json(certify_point(f, _in(f, points[1]), trace=faulted)) == report
            assert grows or i in reducers, i


def _count_calls(monkeypatch, cls, name):
    seen = []
    method = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: seen.append(args) or method(self, *args))
    return seen


def test_prime_mode_hands_the_first_prime_trace_to_the_second(monkeypatch):
    # the process keeps one learned closure: with an empty slot the first
    # prime grows and fills it, the second prime replays it, and so does
    # every later run of the process, over QQ as well, none growing a window
    monkeypatch.setattr(pipeline, "_learned_closure", None)
    replays = _count_calls(monkeypatch, IdealSpan, "replay")
    grows = _count_calls(monkeypatch, IdealSpan, "extend_to_window")
    x = (F(1), F(2), F(3), F(7))
    assert certify_point_multi(x, mode="prime", seed=3)["verdict_ok"]
    assert grows == [(2,), (3,), (4,)]  # the first prime alone grows
    gf1 = PrimeField(seeded_primes(3)[0])
    first = certify_point(gf1, _in(gf1, x))
    whole, learned = first.span.trace, pipeline._learned_closure.products
    assert [len(products) for products, _ in replays] == [len(learned)]
    # the learned trace keeps, in feed order, part of the first prime's
    # trace: at least every product whose pivot lead is at most degree + 1
    # long, whose pivots the closure test reads
    it = iter(whole)
    assert all(packed in it for packed in learned)
    leads = [first.span.table.length[c] for c in first.span.ech.pivots]
    short = [packed for packed, n in zip(whole, leads) if n <= first.stabilized_at + 1]
    assert set(short) <= set(learned) and len(learned) < len(whole)
    replays.clear()
    grows.clear()
    assert certify_point_multi(x, mode="prime", seed=3)["verdict_ok"]
    assert certify_point_multi(sample_generic_points(2, 1)[0], mode="rational")["verdict_ok"]
    assert [len(products) for products, _ in replays] == [len(learned)] * 3
    assert grows == []


def test_a_trace_grown_past_the_closing_window_is_rejected_and_regrown(monkeypatch):
    # grown to window 5, the trace replays and closes at degree 4, window 5;
    # growth tries (window 4, degree 4) first and closes there, and the
    # replay's bound at (4, 4) is 18 = L(5), so the check cannot rule it out
    x = (F(1), F(2), F(3), F(7))
    grows = _count_calls(monkeypatch, IdealSpan, "extend_to_window")
    checks = {name: _count_calls(monkeypatch, reptheory.RepMatrices, name)
              for name in ("element_matrix", "idempotent_identities_hold")}
    windows = []
    letter_rep = pipeline.letter_representation
    monkeypatch.setattr(pipeline, "letter_representation",
                        lambda cert: windows.append(cert.window) or letter_rep(cert))
    for f in (QQ, PrimeField(seeded_primes(17)[0])):
        rel = make_relation(f, point=_in(f, x))
        grown = IdealSpan(rel)
        grown.extend_to_window(5)
        trace = ClosureTrace(grown.trace, 4, 5)
        got, span = closure_certificate(rel, trace=trace)
        assert span.replayed and (got.degree, got.window) == (4, 5)
        assert span.replay_bound(4, 4) == 18 == got.dimension_bound
        assert not replay_is_growth(got, span, 8)
        full = certify_point(f, _in(f, x))
        assert (full.stabilized_at, full.window) == (4, 4)
        grows.clear()
        windows.clear()
        for seen in checks.values():
            seen.clear()
        assert _cert_json(certify_point(f, _in(f, x), trace=trace)) == _cert_json(full)
        assert grows  # the replay was dropped and the window grown
        # the regrown certificate reads its own rho_k off its own letter
        # action, and the checks run on it again
        assert windows == [5, 4]
        assert [len(seen) for seen in checks.values()] == [2, 2]


@pytest.mark.parametrize("mode", ["prime", "rational"])
def test_reports_do_not_depend_on_the_learned_closure(monkeypatch, mode):
    # the same reports from full growth alone, from the process protocol
    # started with an empty slot, and from a slot learned at another point
    points = sample_generic_points(23, 6)
    grown = []
    for x in points:
        rep = certify_point_multi(x, mode=mode, seed=4)
        fields = [PrimeField(p) for p in seeded_primes(4)] if mode == "prime" else [QQ]
        assert rep["runs"] == [_cert_json(certify_point(f, _in(f, x))) for f in fields]
        grown.append(rep)
    monkeypatch.setattr(pipeline, "_learned_closure", None)
    assert [certify_point_multi(x, mode=mode, seed=4) for x in points] == grown
    monkeypatch.setattr(pipeline, "_learned_closure", None)
    certify_point_multi((F(1), F(2), F(3), F(18, 5)), mode="prime", seed=9)
    assert pipeline._learned_closure is not None
    assert [certify_point_multi(x, mode=mode, seed=4) for x in points] == grown


@pytest.mark.parametrize("unsound", ["relation_matrix", "characters", "idempotents"])
def test_exact_dimension_needs_the_evaluation_map_to_kill_the_relation(monkeypatch, unsound):
    # the evaluation rank bounds dim S_x from below only through S_x: when
    # rho_k(X) or a character's value on X does not vanish, or rho_k is not
    # a representation of k^3 * k^3, the rank still reads 18 but nothing is
    # certified, a replayed certificate is not kept either, and the report
    # makes no claim on the type
    faulted, rho_ks = [], []
    letter_rep = pipeline.letter_representation
    monkeypatch.setattr(pipeline, "letter_representation",
                        lambda cert: rho_ks.append(letter_rep(cert)) or rho_ks[-1])
    if unsound == "relation_matrix":
        monkeypatch.setattr(reptheory.RepMatrices, "element_matrix",
                            lambda self, elem: faulted.append(self)
                            or reptheory.mat_identity(self.field))
    elif unsound == "characters":
        monkeypatch.setattr(reptheory, "_char_on_element", lambda f, elem, ch: f.one)
    else:
        monkeypatch.setattr(reptheory.RepMatrices, "idempotent_identities_hold",
                            lambda self: faulted.append(self) or False)
    f = PrimeField(seeded_primes(5)[0])
    x = _in(f, (1, 2, 3, 7))
    cert, span = closure_certificate(make_relation(f, point=x))
    grows = _count_calls(monkeypatch, IdealSpan, "extend_to_window")
    pc = certify_point(f, x, trace=ClosureTrace(span.trace, cert.degree, cert.window))
    assert grows  # the replay was dropped and the window grown
    assert pc.lower_bound == pc.upper_bound == 18
    assert pc.exact_dimension is None
    assert not pc.verdict()[0]
    # not exact: commutative is read off the certificate's own table
    assert pc.commutative is cert.is_commutative() is False
    report = _cert_json(pc)
    assert [report[k] for k in reptheory.TYPE_FIELDS] == [None] * 4
    # the faulted check ran on rho_k, over k itself: the replayed
    # certificate's and then the regrown one's
    assert len(rho_ks) == 2 and all(rho.field is f for rho in rho_ks)
    assert [id(rho) for rho in faulted] == ([] if unsound == "characters"
                                            else [id(rho) for rho in rho_ks])


def test_a_point_without_rho_k_gets_no_verdict(monkeypatch):
    # when no letter gives a 3-dimensional l*J, a replayed certificate is
    # dropped, and after full growth the point is not certified: no
    # fallback to the conic extension
    monkeypatch.setattr(pipeline, "letter_representation", lambda cert: None)
    f = PrimeField(seeded_primes(5)[0])
    x = _in(f, (1, 2, 3, 7))
    cert, span = closure_certificate(make_relation(f, point=x))
    grows = _count_calls(monkeypatch, IdealSpan, "extend_to_window")
    with pytest.raises(DegenerateSpecialization, match="3-dimensional"):
        certify_point(f, x, trace=ClosureTrace(span.trace, cert.degree, cert.window))
    assert grows
    rep = theorem_point_worker(((F(1), F(2), F(3), F(7)), "prime", None, 5, 8, 4, False))
    assert not rep["verdict_ok"] and rep["runs"] == []


def test_the_second_lower_bound_over_the_extension_gates_the_verdict(monkeypatch):
    # wedderburn's verdict also needs the induced representation over E to
    # be exact; theorem's does not run it.  Only E's rho is faulted here,
    # as chart_representation hands it to the pipeline
    chart_rep = pipeline.chart_representation

    def faulted(field, y):
        spec, rho = chart_rep(field, y)
        rho.element_matrix = lambda elem: reptheory.mat_identity(rho.field)
        return spec, rho
    monkeypatch.setattr(pipeline, "chart_representation", faulted)
    x = (F(1), F(2), F(3), F(7))
    for mode in ("prime", "rational"):
        assert certify_point_multi(x, mode=mode, seed=5)["verdict_ok"]
        rep = certify_point_multi(x, mode=mode, seed=5, over_extension=True)
        assert not rep["verdict_ok"] and rep["agreement"]
        assert rep["verdict"] == "the evaluation over the conic extension is not exact"
        for run in rep["runs"]:
            assert run["exact_dimension"] == 18 and "extension_degree" in run


def test_certify_point_runs_no_conic_stage(monkeypatch):
    # the lower bound and the type come from rho_k over k: certify_point
    # intersects no conics and builds no induced module or t*q rewrite (so
    # none of the rewrite's free-product self-checks either), over GF(p) or
    # QQ, growing or replaying; extension_lower_bound does all three
    def fail(*args, **kwargs):
        raise AssertionError("the conic stage ran")
    for name in ("intersect_conics", "build_rho", "tq_rewrite", "_tq_in_free_product"):
        monkeypatch.setattr(reptheory, name, fail)
    x = (1, 2, 3, 7)
    for f in (QQ, PrimeField(seeded_primes(5)[0])):
        grown = certify_point(f, _in(f, x))
        cert = grown.certificate
        replayed = certify_point(f, _in(f, x),
                                 trace=ClosureTrace(grown.span.trace, cert.degree, cert.window))
        assert grown.exact_dimension == replayed.exact_dimension == 18
        with pytest.raises(AssertionError, match="conic stage"):
            pipeline.extension_lower_bound(f, grown)


def _spy_on_the_structure_table(monkeypatch) -> list:
    """The certificates whose structure table is built from now on."""
    built = []
    table = ClosureCertificate.__dict__["structure_constants"].func

    def spy(cert):
        built.append(cert)
        return table(cert)
    cached = cached_property(spy)
    cached.__set_name__(ClosureCertificate, "structure_constants")
    monkeypatch.setattr(ClosureCertificate, "structure_constants", cached)
    return built


def test_an_exact_point_builds_no_structure_table(monkeypatch):
    # at an exact point commutative is read off the evaluation isomorphism
    # over k, and rho_k comes from the letter action alone, so certify_point
    # never builds the table, over GF(p) or over QQ; a point that is not
    # exact reads it
    built = _spy_on_the_structure_table(monkeypatch)
    x = (1, 2, 3, 7)
    for f in (QQ, PrimeField(seeded_primes(5)[0])):
        pc = certify_point(f, _in(f, x))
        assert pc.exact_dimension == 18 and not pc.commutative
    assert built == []
    monkeypatch.setattr(reptheory.RepMatrices, "idempotent_identities_hold",
                        lambda self: False)
    pc = certify_point(QQ, _in(QQ, x))
    assert pc.exact_dimension is None and not pc.commutative
    assert built


QUADRIC_POINTS = [(1, 2, 2, 4), (1, 3, 5, 15), (2, 3, 4, 6)]


def test_an_exact_quadric_point_proves_its_table_without_building_it(monkeypatch):
    # the nine characters prove S_x = k^9 at an exact quadric point, so
    # commutativity and associativity are read off that isomorphism, over
    # QQ and over GF(p), and no structure table is built
    built = _spy_on_the_structure_table(monkeypatch)
    for f in (QQ, PrimeField(seeded_primes(5)[0])):
        for x in QUADRIC_POINTS:
            rep = certify_quadric_point(f, _in(f, x))
            assert rep["exact_dimension"] == rep["character_rank"] == 9
            assert rep["commutative"] is rep["associative_spot_check"] is True
    assert built == []


def test_a_short_character_rank_proves_nothing_at_a_quadric_point(monkeypatch):
    # below |B| the characters prove no isomorphism, so neither the
    # dimension nor commutativity nor associativity is claimed
    rank = pipeline.dense_rank
    monkeypatch.setattr(pipeline, "dense_rank", lambda f, rows: rank(f, rows) - 1)
    for x in QUADRIC_POINTS:
        rep = certify_quadric_point(QQ, _in(QQ, x))
        assert (rep["upper_bound"], rep["character_rank"]) == (9, 8)
        assert [rep[k] for k in ("exact_dimension", "commutative",
                                 "associative_spot_check")] == [None] * 3
