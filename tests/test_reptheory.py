import random
from fractions import Fraction

import numpy as np
import pytest

from partabel import scalars
from partabel.quotient import chart_in_field, closure_certificate, make_relation
from partabel.reptheory import (
    _QUADRATIC_MONOMIALS, _base_point_join, _symmetric_matrix, _tern_divide_by_line,
    build_rho, character_value, commutator_conic_consistency, compare_rho_to_reference,
    conics, determinantal_cubic, generated_matrix_algebra_dim, intersect_conics,
    irreducibility, mat_identity, mat_is_zero, split_determinantal_cubic, tern_mul,
    tq_rewrite, wedderburn_type, wedderburn_verify,
)
from partabel.scalars import (
    DegenerateSpecialization, ExtensionField, FunctionField, PrimeField, QQ,
    bareiss_determinant, factor_cubic, random_prime,
)
from tests_helpers import (
    biv_eval, irreducible_extension, solve_divide_by_line, split_dims_oracle,
)

Y_SAMPLE = (Fraction(2), Fraction(3), Fraction(7))
F3 = FunctionField(("y1", "y2", "y3"))
F5 = FunctionField(("y1", "y2", "y3", "z1", "z2"))


def five_random_charts(seed=55):
    from partabel.pipeline import sample_generic_points
    return [x[1:] for x in sample_generic_points(seed, 5)]


def chart(text):
    return tuple(Fraction(c) for c in text.split(","))


# numeric oracles for the conic intersections (floating point, tests only)

def _biv_eval_poly_in_z2_numeric(p, z1: complex) -> list:
    cols: dict[int, complex] = {}
    for (i, j), c in p.items():
        cols[j] = cols.get(j, 0j) + float(Fraction(c)) * (z1 ** i)
    maxj = max(cols, default=0)
    return [cols.get(j, 0j) for j in range(maxj + 1)]


def _biv_eval_numeric(p, z1: complex, z2: complex) -> complex:
    return sum(float(Fraction(c)) * (z1 ** i) * (z2 ** j) for (i, j), c in p.items())


# --- t*q rewriting -----------------------------------------------------------

def test_tq_rewrite_symbolic_determinant_is_power_of_d():
    rw = tq_rewrite(F3, F3.gens())
    det = rw.determinant.reduce_full()
    y1, y2, y3 = F3.gens()
    d = y3 - y1 * y2
    assert det == d * d  # unit multiple of a power of d (here exactly d^2)


def test_tq_rewrite_verifies_in_free_product_symbolically():
    rw = tq_rewrite(F3, F3.gens())
    assert rw.verified_in_free_product


def test_tq_rewrite_reports_reference_mismatches():
    rw = tq_rewrite(F3, F3.gens())
    # derived formulas are ground truth (they verify in the free product);
    # the tabulated closed forms carry misprints in three coefficients,
    # reported rather than silently corrected
    assert len(rw.reference_mismatches) == 3
    rules_hit = {m["rule"] for m in rw.reference_mismatches}
    assert rules_hit == {"t1.q2", "t2.q1", "t2.q2"}


def test_tq_rewrite_rejects_quadric():
    with pytest.raises(DegenerateSpecialization):
        tq_rewrite(QQ, (Fraction(2), Fraction(3), Fraction(6)))


def test_tq_rewrite_specialized_matches_symbolic():
    rng = random.Random(5)
    rw_sym = tq_rewrite(F3, F3.gens())
    for _ in range(3):
        y = tuple(Fraction(rng.randint(1, 9)) for _ in range(3))
        if y[2] == y[0] * y[1]:
            continue
        rw = tq_rewrite(QQ, y)
        assert rw.verified_in_free_product
        for key, rule in rw.rules.items():
            sym = rw_sym.rules[key]
            for w, c in rule.terms.items():
                assert sym.terms[w].evaluate(y) == c


@pytest.mark.parametrize("base", [QQ, PrimeField(random_prime(random.Random(11)))],
                         ids=["QQ", "GF"])
@pytest.mark.parametrize("degree", [2, 3])
def test_rewrite_over_k_lifts_to_the_rewrite_over_the_extension(base, degree):
    E = irreducible_extension(base, degree)
    z = (E.gen(), E.add(E.mul(E.gen(), E.gen()), E.from_int(3)))
    for y in (chart_in_field(base, Y_SAMPLE), chart_in_field(base, chart("3/2,-2,5"))):
        yE = tuple(E.from_base(c) for c in y)
        over_k = tq_rewrite(base, y)
        over_E = tq_rewrite(E, yE)
        for u, rule in over_E.rules.items():
            assert rule.terms == {w: E.from_base(c) for w, c in over_k.rules[u].terms.items()}
        via_k = build_rho(E, yE, z, rewrite=over_k)
        via_E = build_rho(E, yE, z)
        assert (via_k.t1, via_k.t2) == (via_E.t1, via_E.t2)


# --- representation matrices -------------------------------------------------

def test_build_rho_matches_reference_matrices_symbolically():
    gens = F5.gens()
    rho = build_rho(F5, gens[:3], gens[3:])
    assert rho.idempotent_identities_hold()
    assert compare_rho_to_reference(rho) == []


def test_rho_q_matrices_fixed():
    rho = build_rho(QQ, Y_SAMPLE, (Fraction(0), Fraction(0)))
    assert rho.q1 == [[0, 0, 0], [1, 1, 0], [0, 0, 0]]
    assert rho.q2 == [[0, 0, 0], [0, 0, 0], [1, 0, 1]]


def test_rho_idempotents_hold_for_any_z():
    rng = random.Random(9)
    for _ in range(5):
        z = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        rho = build_rho(QQ, Y_SAMPLE, z)
        assert rho.idempotent_identities_hold()


def test_commutator_conic_equivalence():
    gens = F5.gens()
    rho = build_rho(F5, gens[:3], gens[3:])
    rep = commutator_conic_consistency(rho)
    assert rep["equivalent"]
    assert rep["entries_unit_multiples_of_conics"]
    assert rep["all_three_conics_occur"]


# --- conics ------------------------------------------------------------------

def test_conics_at_sample_point():
    tri = conics(QQ, (Fraction(2), Fraction(3), Fraction(5)))
    assert tri.c1 == {(1, 1): 11, (0, 2): 15, (2, 0): 2, (0, 1): -15, (1, 0): -2}


def test_conics_symbolic_coefficients():
    y1, y2, y3 = F3.gens()
    tri = conics(F3, (y1, y2, y3))
    assert tri.c1[(1, 1)] == y1 * y2 + y3
    assert tri.c3[(2, 0)] == y1 * y1
    ms = tri.matrices()
    # dehomogenization at z0 = 1 returns the conic exactly
    for c, m in zip(tri.all(), ms):
        for (i, j), v in c.items():
            pass
        assert m[1][1] == c.get((2, 0), F3.zero)
        assert m[0][0] == c.get((0, 0), F3.zero)
        assert m[1][2] + m[2][1] == c.get((1, 1), F3.zero)


def test_conic_matrices_symmetric():
    tri = conics(QQ, Y_SAMPLE)
    for m in tri.matrices():
        for i in range(3):
            for j in range(3):
                assert m[i][j] == m[j][i]


# --- determinantal cubic and splitting ----------------------------------------

def test_determinantal_cubic_equal_matrices_is_perfect_cube():
    # replace all three conics by c1: cubic must be det(M1) * (a1+a2+a3)^3
    tri = conics(QQ, Y_SAMPLE)
    same = type(tri)(QQ, tri.y, tri.c1, dict(tri.c1), dict(tri.c1))
    cubic = determinantal_cubic(QQ, Y_SAMPLE, same)
    m1 = tri.matrices()[0]
    det = (m1[0][0] * (m1[1][1] * m1[2][2] - m1[1][2] * m1[2][1])
           - m1[0][1] * (m1[1][0] * m1[2][2] - m1[1][2] * m1[2][0])
           + m1[0][2] * (m1[1][0] * m1[2][1] - m1[1][1] * m1[2][0]))
    line = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}
    expected = tern_mul(QQ, tern_mul(QQ, line, line), line)
    expected = {e: det * c for e, c in expected.items()}
    assert cubic == expected


def test_determinantal_cubic_a1_coefficient_is_det_m1():
    y1, y2, y3 = F3.gens()
    tri = conics(F3, (y1, y2, y3))
    cubic = determinantal_cubic(F3, (y1, y2, y3), tri)
    m1 = tri.matrices()[0]
    det = (m1[0][0] * (m1[1][1] * m1[2][2] - m1[1][2] * m1[2][1])
           - m1[0][1] * (m1[1][0] * m1[2][2] - m1[1][2] * m1[2][0])
           + m1[0][2] * (m1[1][0] * m1[2][1] - m1[1][1] * m1[2][0]))
    assert cubic[(3, 0, 0)] == det


def test_split_constructed_product_of_lines():
    f = QQ
    l1 = {(1, 0, 0): Fraction(1)}
    l2 = {(0, 1, 0): Fraction(1)}
    l3 = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}
    cubic = tern_mul(f, tern_mul(f, l1, l2), l3)
    # the split certificate's kernel: dividing out one line leaves the
    # product of the other two, a degenerate quadric
    cofactor = _tern_divide_by_line(f, cubic, [Fraction(1), Fraction(1), Fraction(1)])
    assert cofactor == tern_mul(f, l1, l2)
    assert bareiss_determinant(f, _symmetric_matrix(f, cofactor)) == 0


def _exact_split(y):
    tri = conics(QQ, y)
    cubic = determinantal_cubic(QQ, y, tri)
    spec = intersect_conics(QQ, y)
    return spec, cubic, tri, split_determinantal_cubic(QQ, cubic, spec, tri)


def test_split_pipeline_cubics_at_five_charts():
    for y in five_random_charts():
        spec, _, _, exact = _exact_split(y)
        assert exact.splits is True, (y, spec.extension_degree, exact.detail)


# the (1,2) charts below exit 2 under a floating-point test of the split
@pytest.mark.parametrize("y", ["-1,3,1", "3/4,-3/2,-1", "-8,-1/2,9/2", "-3,-7/3,-4/3"])
def test_split_over_a_quadratic_extension_uses_a_base_field_line(y):
    spec, cubic, tri, exact = _exact_split(chart(y))
    assert spec.factor_degrees == [1, 2] and spec.extension_degree == 2
    assert exact.splits is True and exact.mode == "exact-base", exact.detail
    (line,) = exact.lines
    assert all(isinstance(c, Fraction) for c in line)
    # the line is a factor of the cubic over QQ
    assert _tern_divide_by_line(QQ, cubic, line) is not None


@pytest.mark.parametrize("y", ["2,3,7", "-1,3,1"])
def test_split_certificate_rejects_a_perturbed_cubic(y):
    spec, cubic, tri, _ = _exact_split(chart(y))
    bent = dict(cubic)
    bent[(1, 1, 1)] = bent.get((1, 1, 1), Fraction(0)) + 1
    assert split_determinantal_cubic(QQ, bent, spec, tri).splits is False


# three distinct roots of f; f = (z - 1)(z + 2)^2 with two conjugate base
# points above -2, so the line is z1 = -2; a double root with one base point
@pytest.mark.parametrize("y, vertical", [("-1,5,3", False), ("-5,2,2", True),
                                         ("-3,2,-2", False)])
def test_split_over_the_base_field_uses_a_join_of_base_points(y, vertical):
    spec, cubic, tri, exact = _exact_split(chart(y))
    assert spec.factor_degrees == [1, 1, 1]
    assert exact.splits is True and exact.mode == "exact-base", exact.detail
    (line,) = exact.lines
    assert _tern_divide_by_line(QQ, cubic, line) is not None
    field, _, (z1_step, _) = _base_point_join(spec, tri)
    assert field is QQ and (z1_step == 0) == vertical


def test_split_over_the_base_field_says_why_it_is_undecided():
    # f = z^3 at (1:1:-1:2) with one base point above 0: no two to join
    spec, cubic, _, exact = _exact_split(chart("1,-1,2"))
    assert spec.factor_degrees == [1, 1, 1] and spec.f_poly.coeffs == [0, 0, 0, 1]
    assert exact.splits is None and "triple root" in exact.detail


# --- line division against the 10 x 6 linear solve it replaced ----------------

DIVISION_FIELDS = {"QQ": QQ, "GF(p)": PrimeField(4611686018427387847),
                   "QQ(theta)": irreducible_extension(QQ, 3)}
CUBIC_MONOMIALS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]


def _division_element(f, rng, nonzero=False):
    while True:
        v = f.from_int(rng.randint(-3, 3))
        if isinstance(f, ExtensionField):
            v = f.add(v, f.mul(f.from_int(rng.randint(-2, 2)), f.gen()))
        if not (nonzero and f.is_zero(v)):
            return v


@pytest.mark.parametrize("name", sorted(DIVISION_FIELDS))
def test_line_division_matches_the_linear_solve(name):
    f = DIVISION_FIELDS[name]
    rng = random.Random(name)
    for zeros in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        for _ in range(4):
            line = [f.zero if v in zeros else _division_element(f, rng, nonzero=True)
                    for v in range(3)]
            quad = {m: _division_element(f, rng) for m in _QUADRATIC_MONOMIALS}
            product = tern_mul(f, quad, {(1, 0, 0): line[0], (0, 1, 0): line[1],
                                         (0, 0, 1): line[2]})
            # the line is not a multiple of x_w, so it does not divide x_w^3
            w = next(w for w in range(3)
                     if any(not f.is_zero(line[v]) for v in range(3) if v != w))
            e = tuple(3 * (v == w) for v in range(3))
            bent = dict(product)
            bent[e] = f.add(bent.get(e, f.zero), _division_element(f, rng, nonzero=True))
            loose = {m: _division_element(f, rng) for m in CUBIC_MONOMIALS}
            for cubic, divisible in ((product, True), (bent, False), (loose, None)):
                got = _tern_divide_by_line(f, cubic, line)
                want = solve_divide_by_line(f, cubic, line)
                assert (got is None) == (want is None), (line, cubic)
                if want is not None:
                    assert list(got) == list(want)
                    assert all(f.eq(got[m], want[m]) for m in want)
                if divisible is not None:
                    assert (got is not None) == divisible, (line, cubic)


# --- conic intersection over the extension ------------------------------------

def test_intersect_conics_degree3_at_five_charts():
    for y in five_random_charts(66):
        spec = intersect_conics(QQ, y)
        assert spec.f_poly.degree == 3
        ext = spec.ext
        tri = conics(QQ, y)
        for c in tri.all():
            lifted = {e: ext.from_base(v) for e, v in c.items()} \
                if spec.extension_degree > 1 else c
            assert ext.is_zero(biv_eval(ext, lifted, spec.z1, spec.z2))


@pytest.mark.parametrize("y, roots, z1", [
    # f = (z - 1)(z - 4)^2: two base points lie above the last root 4, so z2
    # is recovered above the root 1 instead
    ("-5,-4,-4", ["1", "4", "4"], "1"),
    # one base point above each root: the last factor's root is kept
    ("-1,5,3", ["-9/2", "-5/2", "0"], "0"),
])
def test_intersect_conics_recovers_z2_above_a_root_with_one_base_point(y, roots, z1):
    y = chart(y)
    spec = intersect_conics(QQ, y)
    assert spec.factor_degrees == [1, 1, 1]
    assert sorted(-g.coeffs[0] for g in factor_cubic(QQ, spec.f_poly)) == \
        [Fraction(r) for r in roots]
    assert spec.z1 == Fraction(z1)
    assert all(biv_eval(QQ, c, spec.z1, spec.z2) == 0 for c in conics(QQ, y).all())


@pytest.mark.parametrize("field", [QQ, PrimeField(4611686018427387847)])
def test_intersect_conics_takes_a_base_point_when_no_root_has_one(field):
    # f = (z - 1)^3 at (1:2:-1:-1), and the gcd of the three conics above
    # z1 = 1 is z2^2 - 4 z2: z2 is its least root in the base field, and the
    # degree-1 split certificate joins both base points by the line z1 = 1
    y = chart_in_field(field, chart("2,-1,-1"))
    spec = intersect_conics(field, y)
    assert spec.factor_degrees == [1, 1, 1]
    assert (spec.z1, spec.z2) == (field.one, field.zero)
    tri = conics(field, y)
    assert all(field.is_zero(biv_eval(field, c, spec.z1, spec.z2)) for c in tri.all())
    assert _base_point_join(spec, tri) == (field, (field.one, field.zero),
                                           (field.zero, field.one))


def test_intersect_conics_keeps_sylvester_bareiss_for_a_linear_conic(monkeypatch):
    # at y3 = 0 the first conic is linear in z2; at (-5, -5, 0) the second
    # is quadratic and the third constant in z2, so Res(c1, c2) is the one
    # (1, 2) pair, a 3 x 3 Sylvester determinant by Bareiss, and Res(c1, c3)
    # a power; f then has degree 2
    sizes = []
    bareiss = scalars.bareiss_determinant

    def spy(field, rows):
        sizes.append(len(rows))
        return bareiss(field, rows)

    monkeypatch.setattr(scalars, "bareiss_determinant", spy)
    with pytest.raises(DegenerateSpecialization, match="degree 2, expected 3"):
        intersect_conics(QQ, chart("-5,-5,0"))
    assert sizes == [3]


def test_interssection_points_match_resultant_roots():
    spec = intersect_conics(QQ, Y_SAMPLE)
    # all three z1-coordinates are the roots of f: sum and product match
    # the coefficients through the symmetric functions
    f = spec.f_poly
    assert f.is_monic() and f.degree == 3
    e1 = -f.coeffs[2]
    e3 = -f.coeffs[0]
    roots = np.roots([float(c) for c in f.coeffs][::-1])
    assert abs(sum(roots) - float(e1)) < 1e-8
    assert abs(np.prod(roots) - float(e3)) < 1e-8


def test_c1_c2_affine_intersections_and_membership_in_c3():
    """Numeric oracle: C1 ^ C2 has three affine points (the two conics share
    a point at infinity identically), and all three lie on C3."""
    tri = conics(QQ, Y_SAMPLE)
    spec = intersect_conics(QQ, Y_SAMPLE)
    r12 = spec.resultant_12
    assert r12.degree == 3
    roots = np.roots([float(c) for c in r12.coeffs][::-1])
    on_c3 = 0
    for r in roots:
        c1z = _biv_eval_poly_in_z2_numeric(tri.c1, complex(r))
        c2z = _biv_eval_poly_in_z2_numeric(tri.c2, complex(r))
        rs1 = np.roots(c1z[::-1])
        rs2 = np.roots(c2z[::-1])
        common = [z for z in rs1 if any(abs(z - w) < 1e-6 for w in rs2)]
        assert common, "resultant root without a matching z2"
        if abs(_biv_eval_numeric(tri.c3, complex(r), complex(common[0]))) < 1e-6:
            on_c3 += 1
    assert on_c3 == 3


def test_conics_share_points_at_infinity_symbolically():
    """The top forms of c2 and c3 are perfect squares and kill c1's top form
    at their common root, which is why each pairwise resultant already has
    degree 3: one intersection point of each pair sits on the line at
    infinity for every y."""
    y1, y2, y3 = F3.gens()
    tri = conics(F3, (y1, y2, y3))
    top = lambda c: {e: v for e, v in c.items() if e[0] + e[1] == 2}
    t1, t2, t3 = (top(c) for c in tri.all())
    # c2 top = (z1 + y2 z2)^2, c3 top = (y1 z1 + y3 z2)^2
    assert t2 == {(2, 0): F3.one, (1, 1): 2 * y2, (0, 2): y2 * y2}
    assert t3 == {(2, 0): y1 * y1, (1, 1): 2 * y1 * y3, (0, 2): y3 * y3}
    # c1 top vanishes at (z1 : z2) = (-y2 : 1) and at (-y3 : y1)
    for z1v, z2v in ((-y2, F3.one), (-y3, y1)):
        val = sum((v * z1v**e[0] * z2v**e[1] for e, v in t1.items()), F3.zero)
        assert val.is_zero()


def test_rho_kills_relation_exactly_at_intersection_point():
    for y in five_random_charts(77)[:3]:
        spec = intersect_conics(QQ, y)
        ext = spec.ext
        yext = tuple(ext.from_base(c) for c in y) if spec.extension_degree > 1 else y
        rho = build_rho(ext, yext, (spec.z1, spec.z2))
        assert rho.idempotent_identities_hold()
        assert mat_is_zero(ext, rho.commutator_t())
        assert mat_is_zero(ext, rho.relation_matrix())


def test_rho_relation_nonzero_off_intersection():
    rho = build_rho(QQ, Y_SAMPLE, (Fraction(1), Fraction(1)))
    assert not mat_is_zero(QQ, rho.relation_matrix())


# --- irreducibility -----------------------------------------------------------

def test_irreducibility_generic():
    spec = intersect_conics(QQ, Y_SAMPLE)
    ext = spec.ext
    yext = tuple(ext.from_base(c) for c in Y_SAMPLE)
    rho = build_rho(ext, yext, (spec.z1, spec.z2))
    rep = irreducibility(ext, rho)
    assert rep == {"algebra_dimension": 9, "irreducible": True}


def test_irreducibility_controls():
    f = QQ
    diag = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(3)]]
    diag2 = [[Fraction(2), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(5), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(7)]]
    assert generated_matrix_algebra_dim(f, [diag, diag2]) == 3
    assert generated_matrix_algebra_dim(f, [mat_identity(f)]) == 1


# --- the assembled evaluation map ----------------------------------------------

def test_characters_kill_every_commutator():
    from partabel.freeproduct import Signature, commutator, idempotent, P, Q
    sig = Signature(3, 3)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    c = commutator(idempotent(sig, QQ, P, i), idempotent(sig, QQ, Q, j))
                    val = QQ.zero
                    for w, coeff in c.terms.items():
                        val += coeff * character_value(QQ, w, (a, b))
                    assert val == 0


def test_wedderburn_rank_18_and_structure():
    rel = make_relation(QQ, chart=Y_SAMPLE)
    cert, _ = closure_certificate(rel)
    spec = intersect_conics(QQ, Y_SAMPLE)
    ext = spec.ext
    yext = tuple(ext.from_base(c) for c in Y_SAMPLE)
    rho = build_rho(ext, yext, (spec.z1, spec.z2))
    wm = wedderburn_verify(cert, spec, rho)
    assert wm.rank == 18
    assert wm.exact
    assert wm.characters_kill_relation
    assert wm.rho_kills_relation
    assert wm.idempotent_identities
    assert wedderburn_type(wm, rho) == {
        "center_dim": 10, "trace_form_rank": 18, "split_dims": (6, 6, 6),
        "irreducible_dim": 9}


def test_wedderburn_rank_constant_across_primes():
    rng = random.Random(15)
    for _ in range(2):
        p = random_prime(rng)
        gf = PrimeField(p)
        y = chart_in_field(gf, Y_SAMPLE)
        rel = make_relation(gf, chart=y)
        cert, _ = closure_certificate(rel)
        spec = intersect_conics(gf, y)
        ext = spec.ext
        yext = tuple(ext.from_base(c) for c in y) if spec.extension_degree > 1 else y
        rho = build_rho(ext, yext, (spec.z1, spec.z2))
        wm = wedderburn_verify(cert, spec, rho)
        assert wm.rank == 18 and wm.exact


# --- the Wedderburn witnesses against their O(n^4) definitions ------------------

def _trace_form_gram_oracle(cert):
    """tr(L_{b_i} L_{b_j}) = sum_{a,b} c_ia^b c_jb^a, straight from the
    definition: the n^4 sum less its terms with a zero c_ia^b, no
    associativity assumed."""
    f = cert.field
    n = cert.dimension_bound
    table = cert.structure_constants
    gram = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = f.zero
            for a in range(n):
                for b, c in table[i][a].items():
                    d = table[j][b].get(a)
                    if d is not None:
                        acc = f.add(acc, f.mul(c, d))
            gram[i][j] = acc
    return gram


def _center_dimension_oracle(cert):
    """Nullity of z -> [z, b_i] over every basis element: n^2 rows."""
    from partabel.linalg import nullspace
    f = cert.field
    n = cert.dimension_bound
    rows = []
    for i in range(n):
        for k in range(n):
            rows.append([f.sub(cert.structure_constants[j][i].get(k, f.zero),
                               cert.structure_constants[i][j].get(k, f.zero))
                         for j in range(n)])
    return len(nullspace(f, rows))


def _oracle_points():
    """The first criterion-3 sample points (the ones re-certified over QQ
    there) over QQ and the two primes seed 302 draws, then the charts
    (-8,-4,7) and (-5,-3,-1) over QQ, at extension degrees 1 and 2."""
    from partabel.pipeline import sample_generic_points
    from partabel.quotient import canonical_point
    rng = random.Random(302)
    primes = []
    while len(primes) < 2:
        p = random_prime(rng)
        if p not in primes:
            primes.append(p)
    fields = [QQ] + [PrimeField(p) for p in primes]
    for x in sample_generic_points(301, 3):
        for f in fields:
            yield f, canonical_point(f, chart_in_field(f, x))
    for text in ("-8,-4,7", "-5,-3,-1"):
        yield QQ, (Fraction(1),) + chart(text)


def test_trace_form_and_center_match_their_oracles():
    # the type certify_point reads off the evaluation isomorphism, against
    # the definitions computed on the certified structure constants
    from partabel.linalg import dense_rank
    from partabel.pipeline import certify_point
    degrees = []
    for f, x in _oracle_points():
        cert, _ = closure_certificate(make_relation(f, point=x))
        pc = certify_point(f, x)
        assert pc.exact_dimension == cert.dimension_bound == 18
        assert pc.center_dim == _center_dimension_oracle(cert) == 10
        assert pc.trace_form_rank == dense_rank(f, _trace_form_gram_oracle(cert)) == 18
        assert pc.split_dims == split_dims_oracle(cert)
        degrees.append(pc.extension_degree)
    assert len(degrees) == 11
    assert degrees[-2:] == [1, 2]


def test_rep_matrices_memoized_and_word_matrix_matches_letter_products():
    from partabel.freeproduct import P, Q
    from partabel.reptheory import mat_eq, mat_mul
    rel = make_relation(QQ, chart=Y_SAMPLE)
    cert, _ = closure_certificate(rel)
    spec = intersect_conics(QQ, Y_SAMPLE)
    ext = spec.ext
    rho = build_rho(ext, tuple(ext.from_base(c) for c in Y_SAMPLE), (spec.z1, spec.z2))
    assert rho.p1 is rho.p1 and rho.p2 is rho.p2
    assert rho.letter_matrix((P, 3)) is rho.letter_matrix((P, 3))
    assert rho.letter_matrix((Q, 3)) is rho.letter_matrix((Q, 3))
    for w in cert.basis:
        m = mat_identity(ext)
        for letter in w:
            m = mat_mul(ext, m, rho.letter_matrix(letter))
        assert mat_eq(ext, rho.word_matrix(w), m)
        assert rho.word_matrix(w) is rho.word_matrix(w)


# --- the Burnside span and the trace form on a GF(l) image -----------------------

def _rational_point_data(seed, count):
    """(ext, letter matrices) over QQ at sample charts."""
    from partabel.pipeline import sample_generic_points
    for x in sample_generic_points(seed, count):
        y = x[1:]
        spec = intersect_conics(QQ, y)
        ext = spec.ext
        rho = build_rho(ext, tuple(ext.from_base(c) for c in y), (spec.z1, spec.z2),
                        rewrite=tq_rewrite(QQ, y))
        yield ext, [rho.p1, rho.p2, rho.q1, rho.q2]


def test_burnside_span_is_nine_at_rational_sample_points():
    for ext, mats in _rational_point_data(17, 8):
        assert generated_matrix_algebra_dim(ext, mats) == 9


def test_prime_mode_never_builds_an_image(monkeypatch):
    from partabel.pipeline import certify_point, sample_generic_points
    from partabel.scalars import Domain, ExtensionField, RationalField
    calls = []
    for cls in (Domain, RationalField, ExtensionField):
        real = cls.modular_image

        def spy(self, real=real):
            out = real(self)
            calls.append((self, out))
            return out
        monkeypatch.setattr(cls, "modular_image", spy)
    gf = PrimeField(random_prime(random.Random(29)))
    x = tuple(gf.from_fraction(c) for c in sample_generic_points(31, 1)[0])
    pc = certify_point(gf, x)
    assert pc.exact_dimension == 18
    assert calls and all(out is None for _, out in calls)
    assert any(isinstance(f, ExtensionField) for f, _ in calls)
