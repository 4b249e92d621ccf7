import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partabel.linalg import SparseEchelon
from partabel.pipeline import (
    _cert_json, certify_point, certify_point_multi, certify_quadric_point,
    chart_of_point, degeneracy_forms, sample_generic_points, seeded_primes,
    suspected_nongeneric, theorem_point_worker,
)
from partabel.quotient import (
    ClosureFailure, ClosureTrace, IdealSpan, closure_certificate, make_relation,
    spanning_monomials_rank,
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


def test_certify_point_skips_the_rewrite_self_checks(monkeypatch):
    # certify_point reads only the rewrite rules; the free-product check is
    # for the conics and rep reports and must not run here
    from partabel import reptheory

    def fail(*args):
        raise AssertionError("free-product self-check ran")
    monkeypatch.setattr(reptheory, "_tq_in_free_product", fail)
    f = PrimeField(random_prime(random.Random(3)))
    x = tuple(f.from_fraction(c) for c in sample_generic_points(0, 1)[0])
    assert certify_point(f, x).exact_dimension == 18


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


def _in(field, x):
    return tuple(field.from_fraction(F(c)) for c in x)


def test_replayed_closure_matches_full_growth_over_two_primes_and_qq(monkeypatch):
    fed = []
    add_row = SparseEchelon.add_row
    monkeypatch.setattr(SparseEchelon, "add_row",
                        lambda self, row: fed.append(1) or add_row(self, row))
    gf1, gf2 = (PrimeField(p) for p in seeded_primes(11))
    for x in sample_generic_points(5, 8):
        learned = {}
        for f in (gf1, gf2):
            cert, span = closure_certificate(make_relation(f, point=_in(f, x)))
            learned[f] = ClosureTrace.of(cert, span)
        for f, trace in ((gf1, learned[gf2]), (gf2, learned[gf1]), (QQ, learned[gf1])):
            rel = make_relation(f, point=_in(f, x))
            full, full_span = closure_certificate(rel)
            fed.clear()
            got, got_span = closure_certificate(rel, trace=trace)
            assert len(fed) == len(trace.products)  # the replay path, no fallback
            assert (got.basis, got.degree, got.window) == (full.basis, full.degree, full.window)
            assert got.structure_digest() == full.structure_digest()
            assert (spanning_monomials_rank(got, got_span)
                    == spanning_monomials_rank(full, full_span))
            assert (_cert_json(certify_point(f, _in(f, x), trace=trace))
                    == _cert_json(certify_point(f, _in(f, x))))


def test_prime_mode_hands_the_first_prime_trace_to_the_second(monkeypatch):
    seen = []
    replay = IdealSpan.replay
    monkeypatch.setattr(IdealSpan, "replay",
                        lambda self, products, window: seen.append(len(products))
                        or replay(self, products, window))
    x = (F(1), F(2), F(3), F(7))
    assert certify_point_multi(x, mode="prime", seed=3)["verdict_ok"]
    gf1 = PrimeField(seeded_primes(3)[0])
    first = certify_point(gf1, _in(gf1, x)).closure_trace
    assert seen == [len(first.products)]
    seen.clear()
    assert certify_point_multi(x, mode="rational")["verdict_ok"]
    assert seen == []
