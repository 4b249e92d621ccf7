"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values.  Every check is exact (integer or symbolic
equality); the cubic splitting included, there is no floating-point
tolerance.
"""

import random
import time
from fractions import Fraction

from partabel.classify import classify_l2, classify_p3, rewrite_left_module
from partabel.freeproduct import (
    P, Q, AlgebraElement, Signature, central_element_check, filtration_dim,
    idempotent,
)
from partabel.pipeline import (
    certify_point_multi, certify_quadric_point, sample_generic_points,
)
from partabel.quotient import (
    chart_in_field, make_relation, reduction_coefficients, sigma_check,
    stabilization_scan, standard_generator_rank,
)
from partabel.reptheory import (
    biv_eval, build_rho, conics, determinantal_cubic, intersect_conics,
    irreducibility, mat_is_zero, split_determinantal_cubic,
)
from partabel.scalars import PrimeField, QQ, random_prime

SIG = Signature(3, 3)


def _two_primes(seed):
    rng = random.Random(seed)
    p1 = random_prime(rng)
    while True:
        p2 = random_prime(rng)
        if p2 != p1:
            return p1, p2


def test_criterion_01_filtration_dimensions():
    t0 = time.time()
    for k in range(0, 11):
        assert filtration_dim(SIG, k) == 2 ** (k + 2) - 3
    dt = time.time() - t0
    assert dt < 1.0
    print(f"\nPASS criterion 1: filtration dims equal 2^(k+2)-3 for k=0..10 "
          f"({dt:.3f}s)")


def test_criterion_02_generator_rank_42_bound_19():
    t0 = time.time()
    rng = random.Random(202)
    y = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(3))
    while y[2] == y[0] * y[1]:
        y = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(3))
    r = standard_generator_rank(make_relation(QQ, chart=y))
    assert r["rank"] == 42
    assert r["degree4_bound"] == 19 == 61 - 42
    for p in _two_primes(203):
        gf = PrimeField(p)
        rp = standard_generator_rank(make_relation(gf, chart=chart_in_field(gf, y)))
        assert rp["rank"] == 42 and rp["degree4_bound"] == 19
    dt = time.time() - t0
    assert dt < 10.0
    print(f"\nPASS criterion 2: 53 generators have rank 42, degree-4 bound "
          f"19 = 61 - 42 over QQ and two primes ({dt:.2f}s)")


def test_criterion_03_theorem_at_20_random_points():
    t0 = time.time()
    pts = sample_generic_points(301, 20)
    assert len(set(pts)) == 20
    for i, x in enumerate(pts):
        assert x != (1, 0, 0, -1)
        rep = certify_point_multi(x, mode="prime", seed=302)
        assert rep["verdict_ok"], (x, rep["verdict"])
        for run in rep["runs"]:
            assert run["upper_bound"] == 18
            assert run["lower_bound"] == 18
            assert run["stabilized_at"] <= 8
            assert run["exact_dimension"] == 18
        assert rep["verdict"] == "dim S_x = 18, type k^9 (+) M3"
        if i < 3:  # characteristic-zero anchors, fully exact over QQ
            repq = certify_point_multi(x, mode="rational")
            assert repq["verdict_ok"], (x, repq["verdict"])
            assert repq["runs"][0]["exact_dimension"] == 18
    dt = time.time() - t0
    assert dt < 120.0
    print(f"\nPASS criterion 3: dim S_x = 18, type k^9 (+) M3 at 20 random "
          f"points x 2 primes each, first 3 re-certified exactly over QQ "
          f"({dt:.1f}s)")


def test_criterion_04_quadric_stratum_dimension_9():
    t0 = time.time()
    pts = [(1, 2, 2, 4), (1, 3, 5, 15), (2, 3, 4, 6)]
    for xc in pts:
        x = tuple(Fraction(c) for c in xc)
        assert classify_p3(QQ, x).tag == "quadric_k9_mid1"
        rep = certify_quadric_point(QQ, x)
        assert rep["upper_bound"] == 9
        assert rep["character_rank"] == 9
        assert rep["exact_dimension"] == 9
        assert rep["commutative"]
        assert rep["associative_spot_check"]
    print(f"\nPASS criterion 4: quadric-generic points certify dimension 9 "
          f"with commutative structure constants ({time.time() - t0:.2f}s)")


def test_criterion_05_known_infinite_point_growth():
    t0 = time.time()
    results = []
    primes = _two_primes(505)
    for i, p in enumerate(primes):
        gf = PrimeField(p)
        rel = make_relation(gf, point=(gf.one, gf.zero, gf.zero, gf.neg(gf.one)))
        # first prime at the full default slack, second with a capped window;
        # the bounds agree, witnessing that the caps lose nothing here
        rep = stabilization_scan(rel, 2, 8, slack=4,
                                 window_cap=None if i == 0 else 10)
        assert rep.stabilized_at is None
        bounds = [rep.per_degree[n]["quotient_bound"] for n in range(4, 9)]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])), bounds
        assert "evidence" in rep.note and "not a proof" in rep.note
        results.append(bounds)
    assert results[0] == results[1]
    print(f"\nPASS criterion 5: bounds at (1:0:0:-1) strictly increase "
          f"{results[0]} for n = 4..8; reported as evidence, not proof "
          f"({time.time() - t0:.1f}s)")


def test_criterion_06_sigma_identities():
    t0 = time.time()
    rep = sigma_check()
    assert rep["sigma1_X_is_X_over_y2"]
    assert rep["sigma2_X_is_minus_X"]
    assert rep["sigma1_squared_id"]
    assert rep["sigma2_squared_id"]
    assert rep["sigma1_sigma2_cubed_id"]
    print(f"\nPASS criterion 6: sigma1(X) = X/y2, sigma2(X) = -X and the "
          f"group relations hold as exact symbolic identities "
          f"({time.time() - t0:.2f}s)")


def test_criterion_07_alpha_beta_product_not_one():
    t0 = time.time()
    pts = sample_generic_points(707, 5)
    values = []
    for x in pts:
        table = reduction_coefficients(make_relation(QQ, point=x))
        ab = table.alpha_beta_product()
        assert ab != 1
        values.append(ab)
    print(f"\nPASS criterion 7: alpha(2,2,1,1)*beta(1,1,1,1) != 1 at 5 "
          f"random rational specializations (values {values}) "
          f"({time.time() - t0:.1f}s)")


def test_criterion_08_conic_pipeline_five_specializations():
    t0 = time.time()
    pts = sample_generic_points(808, 5)
    for x in pts:
        y = x[1:]
        spec = intersect_conics(QQ, y)
        assert spec.f_poly.degree == 3
        ext = spec.ext
        tri = conics(QQ, y)
        lift = (lambda c: {e: ext.from_base(v) for e, v in c.items()}) \
            if spec.extension_degree > 1 else (lambda c: c)
        for c in tri.all():
            assert ext.is_zero(biv_eval(ext, lift(c), spec.z1, spec.z2))
        cubic = determinantal_cubic(QQ, y, tri)
        exact = split_determinantal_cubic(QQ, cubic, spec, tri)
        assert exact.splits is True, (y, spec.extension_degree, exact.detail)
        yext = tuple(ext.from_base(c) for c in y) if spec.extension_degree > 1 else y
        rho = build_rho(ext, yext, (spec.z1, spec.z2))
        assert rho.idempotent_identities_hold()
        assert mat_is_zero(ext, rho.relation_matrix())
        assert irreducibility(ext, rho)["algebra_dimension"] == 9
    print(f"\nPASS criterion 8: deg f = 3, exact common zeros over the "
          f"extension, cubic splits into three lines, representation kills "
          f"the relation and generates a 9-dimensional algebra at 5 random "
          f"specializations ({time.time() - t0:.1f}s)")


def test_criterion_09_property_suites():
    t0 = time.time()
    rng = random.Random(909)
    # field axioms (representative)
    gf = PrimeField(random_prime(rng))
    for f in (QQ, gf):
        for _ in range(10):
            a, b, c = (f.random(rng) for _ in range(3))
            assert f.eq(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
            if not f.is_zero(a):
                assert f.eq(f.mul(a, f.inv(a)), f.one)
    # associativity of the free-product multiplication
    from tests_helpers import random_element
    for _ in range(10):
        a = random_element(SIG, QQ, rng)
        b = random_element(SIG, QQ, rng)
        c = random_element(SIG, QQ, rng)
        assert (a * b) * c == a * (b * c)
    # idempotent laws, full range
    for tag, n in ((P, 3), (Q, 3)):
        es = [idempotent(SIG, QQ, tag, i) for i in range(1, n + 1)]
        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                assert ei * ej == (ei if i == j else AlgebraElement.zero(SIG, QQ))
    # rewrite round-trip
    from partabel.classify import SubspacePresentation
    V = SubspacePresentation(SIG, QQ, (
        (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))))
    for _ in range(10):
        e = random_element(SIG, QQ, rng)
        assert (rewrite_left_module(e, V).expand() - e).is_zero()
    # classify_p3 scale invariance
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        if all(v == 0 for v in x):
            continue
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert classify_p3(QQ, x).tag == classify_p3(QQ, tuple(lam * v for v in x)).tag
    # central element of k^2 * k^2
    rep = central_element_check(QQ)
    assert rep["central"] and rep["z_squared_commutes_with_p"]
    print(f"\nPASS criterion 9: property suites green (field axioms, "
          f"associativity, idempotent laws, rewrite round-trip, scale "
          f"invariance, central element) ({time.time() - t0:.1f}s)")


def test_criterion_10_classification_table():
    t0 = time.time()
    from test_classify import indicator_subspace, partitions_of, expected_tag, Vsub
    counts = {"equals_R": 0, "tensor_mid_1": 0, "mid_2": 0, "mid_infinity": 0}
    for l in range(2, 6):
        sig = Signature(l, 2)
        for part in partitions_of(list(range(1, l + 1))):
            part = [sorted(b) for b in part]
            try:
                V = Vsub(sig, indicator_subspace(l, part))
            except ValueError:
                continue
            tag = classify_l2(V).tag
            assert tag == expected_tag(l, part, inside_abar=False), (l, part)
            counts[tag] += 1
        if l >= 3:
            inside = Vsub(sig, [[Fraction(1 if i == 0 else 0) for i in range(l - 1)]
                                + [Fraction(0)]])
            assert classify_l2(inside).tag == "equals_R"
            counts["equals_R"] += 1
    assert all(counts[tag] > 0 for tag in counts), counts
    print(f"\nPASS criterion 10: classification table reproduces all four "
          f"verdicts on the enumerated family for l <= 5 ({counts}) "
          f"({time.time() - t0:.1f}s)")
