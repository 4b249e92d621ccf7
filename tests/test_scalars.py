import itertools
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partabel import scalars
from partabel.freeproduct import P, AlgebraElement, Signature
from partabel.scalars import (
    ExtensionField, FunctionField, PoleError, Polynomial, PrimeField, QQ, UniPoly,
    _poly_powmod, add_term, factor_cubic, gcd_univariate, is_probable_prime,
    prime_field_roots, random_prime, rational_roots,
)
from partabel.reptheory import _z2_resultant
from tests_helpers import (
    PolyRing, bareiss_determinant, divisor_rational_roots, irreducible_extension, permutation_determinant,
    solve_inverse, sylvester_matrix,
)


def test_probable_prime_and_generation():
    assert is_probable_prime(2) and is_probable_prime(3) and is_probable_prime(10**9 + 7)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    rng = random.Random(7)
    for _ in range(3):
        p = random_prime(rng)
        assert 2**40 <= p < 2**62
        assert is_probable_prime(p)


def test_miller_rabin_on_the_bases_2_to_37_is_exact():
    # below 10^5 it agrees with a sieve of Eratosthenes; above, it rejects
    # the least strong pseudoprimes to the bases 2..p for p = 7, ..., 23, and
    # declines those to 2..37 and 2..41, past the bound where it is proved
    n = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, n, d)))
    assert [k for k in range(n) if is_probable_prime(k)] == [k for k in range(n) if sieve[k]]
    for psp in (3215031751, 2152302898747, 3474749660383, 341550071728321,
                3825123056546413051):
        assert not is_probable_prime(psp)
    for psp in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError):
            is_probable_prime(psp)
    assert not is_probable_prime(2 * 318665857834031151167461)  # its factor 2 is a proof
    assert is_probable_prime(2**61 - 1) and is_probable_prime(2**61 + 15)


def test_prime_field_basics():
    gf = PrimeField(7)
    assert gf.inv(3) == 5
    assert gf.mul(3, 5) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ValueError):
        PrimeField(91)
    assert gf.add(3, 4) == 0
    assert gf.from_fraction(Fraction(1, 3)) == 5
    with pytest.raises(ZeroDivisionError):
        gf.from_fraction(Fraction(1, 14))
    big = PrimeField(2**61 - 1)
    for f in (gf, big):
        for zero in (0, f.p, -2 * f.p):
            with pytest.raises(ZeroDivisionError):
                f.inv(zero)
        with pytest.raises(ZeroDivisionError):
            f.from_fraction(Fraction(2, f.p))
        assert f.mul(f.inv(f.p - 3), f.p - 3) == 1
        assert f.mul(f.from_fraction(Fraction(5, 3)), 3) == 5


def test_prime_field_runs_miller_rabin_once_per_modulus(monkeypatch):
    # the answer depends on p alone, so a field built again over the same
    # modulus reads it from the memo; refusals are remembered as well
    p, q = random_prime(random.Random(5)), 2**61 - 1
    calls = []
    test = scalars.is_probable_prime
    monkeypatch.setattr(scalars, "is_probable_prime", lambda n: calls.append(n) or test(n))
    scalars._is_prime_modulus.cache_clear()
    for _ in range(3):
        assert PrimeField(p).p == p and PrimeField(q).p == q
        for bad in (561, 10007 * 10009, 91):
            with pytest.raises(ValueError):
                PrimeField(bad)
        with pytest.raises(ValueError):  # a prime, but above the bound
            PrimeField(2**62 + 135)
    assert sorted(calls) == sorted([p, q, 561, 10007 * 10009, 91])
    assert is_probable_prime(2**62 + 135)
    # random_prime still runs the test itself on every candidate
    calls.clear()
    random_prime(random.Random(5))
    assert len(calls) > 1 and calls[-1] == p


FIELDS = {}


def _domains():
    if not FIELDS:
        gf = PrimeField(random_prime(random.Random(3)))
        F = FunctionField(("y1", "y2", "y3"))
        cubic = UniPoly.from_ints(QQ, [-2, 0, 0, 1])  # t^3 - 2
        E = ExtensionField(QQ, cubic)
        FIELDS.update({"QQ": QQ, "GF": gf, "FF": F, "EXT": E})
    return FIELDS


@pytest.mark.parametrize("name", ["QQ", "GF", "FF", "EXT"])
def test_field_axioms(name):
    f = _domains()[name]
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (f.random(rng) for _ in range(3))
        assert f.eq(f.add(a, b), f.add(b, a))
        assert f.eq(f.mul(a, b), f.mul(b, a))
        assert f.eq(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
        assert f.eq(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
        assert f.eq(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
        assert f.eq(f.add(a, f.neg(a)), f.zero)
        if not f.is_zero(a):
            assert f.eq(f.mul(a, f.inv(a)), f.one)


def test_extension_inverse_example():
    E = _domains()["EXT"]
    t = E.gen()
    ti = E.inv(t)
    # t * t^2 = 2, so 1/t = t^2/2
    assert E.add(ti, ti) == E.mul(t, t)
    assert E.mul(t, ti) == E.one
    rng = random.Random(5)
    for _ in range(20):
        x = E.random(rng)
        if E.is_zero(x):
            continue
        assert E.mul(x, E.inv(x)) == E.one


def test_specialize_examples():
    F = FunctionField(("y1", "y2", "y3"))
    y1, y2, y3 = F.gens()
    pt = (Fraction(2), Fraction(3), Fraction(5))
    assert (y3 - y1 * y2).evaluate(pt) == -1
    assert (1 / y2).evaluate(pt) == Fraction(1, 3)
    assert (y1 * y2 + y3).evaluate(pt) == 11
    with pytest.raises(PoleError):
        (1 / (y3 - y1 * y2)).evaluate((Fraction(2), Fraction(3), Fraction(6)))


def test_specialize_is_ring_homomorphism():
    F = FunctionField(("y1", "y2", "y3"))
    rng = random.Random(13)
    pts = [tuple(Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(3))
           for _ in range(4)]
    for _ in range(20):
        a, b, c = (F.random(rng) for _ in range(3))
        for pt in pts:
            try:
                lhs = (a * b + c).evaluate(pt)
                rhs = a.evaluate(pt) * b.evaluate(pt) + c.evaluate(pt)
            except PoleError:
                continue
            assert lhs == rhs


def test_rational_function_normalization_and_equality():
    F = FunctionField(("y1", "y2", "y3"))
    y1, y2, y3 = F.gens()
    a = (y1 * y2 - y2 * y3) / (y2 * y2)
    b = (y1 - y3) / y2
    assert a == b  # cross-multiplication equality, no gcd taken
    assert repr(a) == repr(b)  # the common monomial factor y2 is divided out
    with pytest.raises(ZeroDivisionError):
        y1 / (y2 - y2)


def test_equal_rational_functions_in_unreduced_forms_hash_alike():
    # a/b and (a*c)/(b*c) are one function, but no gcd is divided out, so
    # most draws store them in forms that print apart; they must still
    # compare and hash alike, bare and as coefficients of an algebra element
    F = FunctionField(("y1", "y2", "y3"))
    sig, w = Signature(3, 3), ((P, 1),)
    apart = 0
    for seed in range(200):
        rng = random.Random(seed)
        a, b, c = (F.random(rng) for _ in range(3))
        if (b * c).is_zero():
            continue
        x, y = a / b, (a * c) / (b * c)
        apart += repr(x) != repr(y)
        assert x == y and hash(x) == hash(y)
        ex, ey = AlgebraElement(sig, F, {w: x}), AlgebraElement(sig, F, {w: y})
        assert ex == ey and hash(ex) == hash(ey)
    assert apart >= 100


def test_constant_functions_and_polynomials_hash_as_the_numbers_they_equal():
    # equal values hash alike across int, Fraction, Polynomial and
    # RationalFunction, so a set holds one of each pair
    F = FunctionField(("y1", "y2", "y3"))
    y1 = F.gen("y1")
    cases = [
        (F.from_int(3), 3), (Polynomial.constant(("y1",), 3), 3), ((2 * y1) / y1, 2),
        ((2 * y1 + 2 * y1 * y1) / (y1 + y1 * y1), 2), (F.from_int(3) / 2, Fraction(3, 2)),
        (F.zero, 0), (Polynomial(("y1",)), 0),
    ]
    for x, v in cases:
        assert x == v and hash(x) == hash(v) and len({x, v}) == 1, (x, v)


# --- the conic resultants (``reptheory._z2_resultant``) ------------------------
# Res_z2 of two conics given by their z2-coefficients, polynomials in z1;
# constant polynomials stand for coefficients in QQ or GF(p)

def _constants(field, values):
    return [UniPoly(field, [v]) for v in values]


def test_resultant_examples():
    q = lambda *ns: _constants(QQ, [Fraction(n) for n in ns])
    # Res(z^2 + 1, z^2 - 1), the 4 x 4 Sylvester determinant expanded by hand
    assert _z2_resultant(q(1, 0, 1), q(-1, 0, 1)) == q(4)[0]
    # Res(z - 5, z^2 - 3) = 5^2 - 3, and a common root gives 0
    assert _z2_resultant(q(-5, 1), q(-3, 0, 1)) == q(22)[0]
    assert _z2_resultant(q(-1, 1), q(-1, 0, 1)).is_zero()
    # a line against a nonzero constant: the constant itself
    assert _z2_resultant(q(2, 3), q(7)) == q(7)[0]
    for a, b in [(q(1, 0, 1), q(-1, 1)), (q(2, 1), q(3, 1)), (q(1, 0, 1), q(1, 0, 0, 1)),
                 (q(1, 0, 1), q(5)), (q(7), q(1, 0, 1))]:
        with pytest.raises(ValueError):
            _z2_resultant(a, b)


def test_resultant_vanishes_iff_common_root():
    # the pairs (2, 2) and (1, 2) over QQ, against the gcd over QQ
    rng = random.Random(17)
    for _ in range(40):
        roots_f = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 2))]
        roots_g = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        f = UniPoly(QQ, [Fraction(1)])
        for r in roots_f:
            f = f * UniPoly(QQ, [-r, Fraction(1)])
        g = UniPoly(QQ, [Fraction(1)])
        for r in roots_g:
            g = g * UniPoly(QQ, [-r, Fraction(1)])
        share = bool(set(roots_f) & set(roots_g))
        res = _z2_resultant(_constants(QQ, f.coeffs), _constants(QQ, g.coeffs))
        gcd = gcd_univariate(f, g)
        assert res.is_zero() == share
        assert (gcd.degree > 0) == share


def test_gcd_examples():
    z = UniPoly.x(QQ)
    one = UniPoly(QQ, [Fraction(1)])
    lin = lambda r: UniPoly(QQ, [Fraction(-r), Fraction(1)])
    assert gcd_univariate(z * z - one, lin(1)) == lin(1)
    assert gcd_univariate(z * z + one, lin(-2)) == one
    f = lin(1) * lin(2) * lin(3) * lin(4)
    g = lin(1) * lin(2) * lin(3) * lin(5)
    assert gcd_univariate(f, g) == lin(1) * lin(2) * lin(3)
    assert gcd_univariate(UniPoly(QQ, []), UniPoly(QQ, [])).is_zero()


def test_resultant_over_polynomial_ring():
    z1 = UniPoly.from_ints(QQ, [0, 1])
    one = UniPoly.from_ints(QQ, [1])
    zero = UniPoly(QQ, [])
    # Res_z2(z2 - z1, z2^2 - z1) = z1^2 - z1
    assert _z2_resultant([-z1, one], [-z1, zero, one]) == z1 * z1 - z1
    # Res_z2(z2^2 - z1, z2^2 - 1) = (z1 - 1)^2
    assert _z2_resultant([-z1, zero, one], [-one, zero, one]) == (z1 - one) * (z1 - one)


RESULTANT_BASES = {"QQ": QQ, "GF(p)": PrimeField(2**61 - 1), "QQ[z1]": QQ}


def _ring_coeff(name, ints):
    """A coefficient in z1 for the drawn case: the constant of the last
    integer, or over QQ[z1] the polynomial with these integer coefficients."""
    base = RESULTANT_BASES[name]
    if name == "QQ[z1]":
        return UniPoly(QQ, [Fraction(c) for c in ints])
    return UniPoly(base, [base.from_int(ints[-1])])


@st.composite
def _conic_pairs(draw):
    """The z2-coefficients of two conics with z2-degrees (2, 2), (1, 2) or
    (1, 0), over QQ, GF(p) or QQ[z1], often with a zero middle or constant
    coefficient, or, when both have positive degree, a common root r: then
    each is (z - r)(a z + b), or a (z - r) for the line."""
    name = draw(st.sampled_from(sorted(RESULTANT_BASES)))
    degrees = draw(st.sampled_from([(2, 2), (1, 2), (1, 0)]))
    any_c = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
    nonzero = any_c.filter(lambda ints: ints[-1] != 0)
    common = degrees[1] > 0 and draw(st.booleans())
    r = _ring_coeff(name, draw(any_c))
    polys = []
    for d in degrees:
        a = _ring_coeff(name, draw(nonzero))
        if common and d == 2:
            b = _ring_coeff(name, draw(any_c))
            cs = [-(b * r), b - a * r, a]   # (z - r)(a z + b)
        elif common:
            cs = [-(a * r), a]
        else:
            cs = [_ring_coeff(name, draw(any_c)) for _ in range(d)] + [a]
            for k in draw(st.sets(st.integers(0, d - 1))) if d else ():
                cs[k] = UniPoly(a.field, [])
        polys.append(cs)
    return name, common, polys[0], polys[1]


@settings(max_examples=300, deadline=None)
@given(_conic_pairs())
def test_closed_form_resultants_match_the_sylvester_expansion(case):
    # the Leibniz expansion of the Sylvester matrix in z2 over k[z1]
    name, common, a, b = case
    ring = PolyRing(RESULTANT_BASES[name])
    res = _z2_resultant(a, b)
    assert res == permutation_determinant(
        ring, sylvester_matrix(UniPoly(ring, a), UniPoly(ring, b))), (name, a, b)
    if common:
        assert res.is_zero()



@settings(max_examples=150, deadline=None)
@given(_conic_pairs().filter(lambda case: len(case[2]) == len(case[3]) == 3))
def test_closed_form_quadratic_resultant_matches_sylvester_bareiss(case):
    # the (2, 2) closed form against the fraction-free elimination of the
    # same 4 x 4 Sylvester matrix over k[z1]
    name, common, a, b = case
    ring = PolyRing(RESULTANT_BASES[name])
    res = _z2_resultant(a, b)
    assert res == bareiss_determinant(
        ring, sylvester_matrix(UniPoly(ring, a), UniPoly(ring, b))), (name, a, b)
    if common:
        assert res.is_zero()


@pytest.mark.parametrize("degrees", [(1, 2)], ids=["1_2"])
def test_other_degrees_keep_the_sylvester_determinant(degrees):
    # the (1, 2) closed form against both the Leibniz expansion and the
    # Bareiss elimination of the same 3 x 3 Sylvester matrix over QQ[z1]
    ring = PolyRing(QQ)
    rng = random.Random(sum(degrees) * 31 + degrees[0])
    for _ in range(4):
        a, b = ([UniPoly.from_ints(QQ, [rng.randint(-3, 3) for _ in range(3)])
                 for _ in range(d)]
                + [UniPoly.from_ints(QQ, [rng.randint(1, 3), rng.randint(-3, 3)])]
                for d in degrees)
        f, g = UniPoly(ring, a), UniPoly(ring, b)
        assert (f.degree, g.degree) == degrees
        res = _z2_resultant(a, b)
        assert res == permutation_determinant(ring, sylvester_matrix(f, g))
        assert res == bareiss_determinant(ring, sylvester_matrix(f, g))


def test_rational_and_prime_roots():
    f = UniPoly(QQ, [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)])  # (z-1)(z-2)(z-3)
    assert rational_roots(f) == [1, 2, 3]
    gf = PrimeField(10**9 + 7)
    g = UniPoly(gf, [gf.from_int(-6), gf.from_int(11), gf.from_int(-6), gf.one])
    assert prime_field_roots(gf, g) == [1, 2, 3]
    assert prime_field_roots(gf, g.scale(gf.from_int(3))) == [1, 2, 3]  # not monic
    factors = factor_cubic(gf, g)
    assert sorted(h.degree for h in factors) == [1, 1, 1]
    irr = UniPoly(gf, [gf.from_int(5), gf.from_int(3), gf.zero, gf.one])
    pieces = factor_cubic(gf, irr)
    assert sum(h.degree for h in pieces) == 3


@st.composite
def _rational_root_polys(draw):
    """Degree 1 to 9 over QQ, not monic: linear factors at small rational
    roots, zero and repeated ones among them, and quadratics with small
    coefficients, so the divisor oracle stays fast."""
    degree = draw(st.integers(1, 9))
    lead = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 5)))
    f = UniPoly(QQ, [lead])
    while f.degree < degree:
        if degree - f.degree == 1 or draw(st.booleans()):
            r = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            g = UniPoly(QQ, [-r, Fraction(1)])
        else:
            g = UniPoly(QQ, [Fraction(draw(st.integers(-3, 3))),
                             Fraction(draw(st.integers(-3, 3))),
                             Fraction(draw(st.integers(1, 2)))])
        f = f * g
    return f


@settings(max_examples=150, deadline=None)
@given(_rational_root_polys())
def test_rational_roots_match_the_divisor_oracle(f):
    assert rational_roots(f) == divisor_rational_roots(f)


@settings(max_examples=100, deadline=None)
@given(st.integers(2**29, 2**32), st.integers(2**29, 2**32), st.integers(-3, 3))
def test_rational_roots_near_the_first_lifting_step(n, q, c):
    """|n| * q about the Hensel prime 2^61 + 15, where the root needs the
    modulus squared exactly when 2 |a_0 a_k| reaches it."""
    x = Fraction(n, q)
    f = UniPoly(QQ, [-x, Fraction(1)]) * UniPoly(QQ, [Fraction(c), Fraction(1), Fraction(2)])
    assert x in rational_roots(f)


def test_rational_roots_move_past_a_prime_that_divides_the_discriminant_or_lead():
    ell = 2**61 + 15  # the first prime rational_roots tries
    z = UniPoly(QQ, [Fraction(0), Fraction(1)])
    three = UniPoly(QQ, [Fraction(-3), Fraction(1)])
    assert rational_roots(three * (z * z - UniPoly(QQ, [Fraction(ell)]))) == [3]
    assert rational_roots(UniPoly(QQ, [Fraction(-1), Fraction(ell)]) * three) == [Fraction(1, ell), 3]


def test_rational_roots_of_a_cubic_with_twelve_digit_roots():
    roots = [Fraction(-987654321098, 13), Fraction(123456789012, 7), Fraction(555555555555)]
    f = UniPoly(QQ, [Fraction(-2, 3)])
    for r in roots:
        f = f * UniPoly(QQ, [-r, Fraction(1)])
    assert rational_roots(f) == sorted(roots)
    assert rational_roots(f * UniPoly(QQ, [Fraction(1), Fraction(0), Fraction(1)])) == sorted(roots)


def test_extension_field_rejects_reducible_cubic():
    with pytest.raises(ValueError):
        ExtensionField(QQ, UniPoly.from_ints(QQ, [-1, 0, 0, 1]))  # t^3 - 1
    with pytest.raises(ValueError):
        ExtensionField(QQ, UniPoly.from_ints(QQ, [-2, 0, 0, 2]))  # not monic


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_roots_over_tiny_prime_fields_return():
    gf2 = PrimeField(2)
    z2_plus_z = UniPoly.from_ints(gf2, [0, 1, 1])  # z (z + 1): both elements
    with time_limit(5):
        assert prime_field_roots(gf2, z2_plus_z) == [0, 1]
        assert prime_field_roots(gf2, UniPoly.from_ints(gf2, [1, 1, 1])) == []
        with pytest.raises(ValueError):
            ExtensionField(gf2, z2_plus_z)
        assert ExtensionField(gf2, UniPoly.from_ints(gf2, [1, 1, 1])).degree == 2
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for cs in itertools.product(range(p), repeat=3):
            f = UniPoly.from_ints(F, list(cs) + [1])  # every monic cubic
            with time_limit(5):
                got = prime_field_roots(F, f)
            assert got == [r for r in range(p) if f.evaluate(r) == 0]


# --- extension arithmetic: the integer kernel against the UniPoly reference ---

EXTENSION_BASES = {"QQ": QQ, "GF5": PrimeField(5),
                   "GFp": PrimeField(random_prime(random.Random(19), 2**60, 2**62))}


def _extension(name, d):
    base = EXTENSION_BASES[name]
    if d == 1:
        return ExtensionField(base, UniPoly(base, [base.from_int(3), base.one]))
    return irreducible_extension(base, d)


def _qq_poly(*cs):
    return UniPoly(QQ, [Fraction(c) for c in cs])


EXTENSIONS = {(name, d): _extension(name, d) for name in EXTENSION_BASES for d in (1, 2, 3)}
# moduli with non-integral coefficients, which the kernel pre-scales to integers
EXTENSIONS.update({
    ("QQ-frac", 1): ExtensionField(QQ, _qq_poly("2/3", 1)),
    ("QQ-frac", 2): ExtensionField(QQ, _qq_poly("7/5", "1/3", 1)),
    ("QQ-frac", 3): ExtensionField(QQ, _qq_poly("5/3", "-1/2", 0, 1)),  # t^3 - t/2 + 5/3
})


def _base_coeffs(base, size=10**4):
    if base is QQ:
        return st.builds(Fraction, st.integers(-size, size), st.integers(1, size))
    return st.integers(0, base.p - 1)


@st.composite
def _ext_pairs(draw):
    E = EXTENSIONS[draw(st.sampled_from(sorted(EXTENSIONS)))]
    elem = st.lists(_base_coeffs(E.base, 10**6), max_size=E.degree)
    return E, UniPoly(E.base, draw(elem)), UniPoly(E.base, draw(elem))


def _assert_raw_residue(E, v):
    """A residue of degree < d with no trailing zero, holding Fractions over
    QQ and ints in [0, p) over GF(p)."""
    assert len(v.coeffs) <= E.degree
    assert not v.coeffs or not E.base.is_zero(v.coeffs[-1])
    if E.base is QQ:
        assert all(type(c) is Fraction for c in v.coeffs)
    else:
        assert all(type(c) is int and 0 <= c < E.base.p for c in v.coeffs)


@settings(max_examples=500, deadline=None)
@given(_ext_pairs())
def test_extension_list_arithmetic_matches_reference(case):
    E, a, b = case
    for got, ref in ((E.add(a, b), a + b), (E.sub(a, b), a - b),
                     (E.mul(a, b), (a * b) % E.modulus)):
        assert got.coeffs == ref.coeffs
        _assert_raw_residue(E, got)
    if not a.is_zero():
        inv = E.inv(a)
        assert ((a * inv) % E.modulus).coeffs == [E.base.one]
        _assert_raw_residue(E, inv)


# the kernels of the representation's 3x3 products: dot, and the base-field
# scalar paths of mul and inv, over QQ(theta) and GF(p)(theta)
KERNEL_EXTENSIONS = sorted(key for key in EXTENSIONS if key[1] in (2, 3))


def _residues(E):
    """Residues of E, with zero and base-field scalars drawn often."""
    coeff = _base_coeffs(E.base, 10**6)
    return st.one_of(st.just(E.zero), coeff.map(lambda c: UniPoly(E.base, [c])),
                     st.lists(coeff, max_size=E.degree).map(lambda cs: UniPoly(E.base, cs)))


@st.composite
def _dot_cases(draw):
    E = EXTENSIONS[draw(st.sampled_from(KERNEL_EXTENSIONS))]
    n = draw(st.integers(0, 4))
    vectors = st.lists(_residues(E), min_size=n, max_size=n)
    return E, draw(vectors), draw(vectors)


@settings(max_examples=400, deadline=None)
@given(_dot_cases())
def test_extension_kernels_match_their_oracles(case):
    E, xs, ys = case
    got = E.dot(xs, ys)
    folded = E.zero
    for a, b in zip(xs, ys):
        folded = E.add(folded, E.mul(a, b))
    assert got.coeffs == folded.coeffs
    _assert_raw_residue(E, got)
    for a, b in zip(xs, ys):
        product = E.mul(a, b)
        assert product.coeffs == (a * b).divmod(E.modulus)[1].coeffs
        _assert_raw_residue(E, product)
    for a in xs:
        if a.is_zero():
            continue
        inv = E.inv(a)
        assert E.mul(a, inv) == E.one
        _assert_raw_residue(E, inv)
        if len(a.coeffs) == 1:
            assert inv.coeffs == solve_inverse(E, a).coeffs


def test_extension_field_needs_a_qq_or_prime_field_base():
    F = FunctionField(("y",))
    with pytest.raises(TypeError):
        ExtensionField(F, UniPoly(F, [F.one, F.zero, F.one]))


# --- x^p and friends by the monic reduction loop ------------------------------

def _powmod_by_unipoly_mod(field, base, e, mod):
    """The square-and-multiply on ``UniPoly %`` that ``_poly_powmod`` ran
    before it multiplied through ``ExtensionField.mul``; kept as the oracle."""
    out = UniPoly(field, [field.one])
    b = base % mod
    while e:
        if e & 1:
            out = (out * b) % mod
        b = (b * b) % mod
        e >>= 1
    return out


POWMOD_FIELDS = (PrimeField(5), PrimeField(random_prime(random.Random(13))))


@st.composite
def _powmod_cases(draw):
    f = draw(st.sampled_from(POWMOD_FIELDS))
    coeff = st.integers(0, f.p - 1)
    mod = UniPoly(f, draw(st.lists(coeff, min_size=1, max_size=3)) + [f.one])
    base = UniPoly(f, draw(st.lists(coeff, max_size=5)))
    return f, base, draw(st.integers(0, 2**64)), mod


@settings(max_examples=300, deadline=None)
@given(_powmod_cases())
def test_poly_powmod_matches_unipoly_square_and_multiply(case):
    f, base, e, mod = case
    assert _poly_powmod(f, base, e, mod).coeffs == _powmod_by_unipoly_mod(f, base, e, mod).coeffs


# --- the one sparse accumulate ------------------------------------------------

ACCUMULATE_FIELDS = {"QQ": QQ, "GF": PrimeField(2**61 - 1), "EXT": EXTENSIONS[("QQ", 3)]}


@st.composite
def _accumulate_cases(draw):
    name = draw(st.sampled_from(sorted(ACCUMULATE_FIELDS)))
    f = ACCUMULATE_FIELDS[name]
    small = st.integers(-2, 2)       # small values, so sums often cancel
    if name == "EXT":
        coeff = st.lists(small, max_size=3).map(lambda cs: UniPoly(QQ, [Fraction(c) for c in cs]))
    else:
        coeff = small.map(f.from_int)
    return f, draw(st.lists(st.tuples(st.integers(0, 3), coeff), max_size=12))


@settings(max_examples=300, deadline=None)
@given(_accumulate_cases())
def test_add_term_is_a_dict_sum_that_stores_no_zero(case):
    f, pairs = case
    terms, plain = {}, {}
    for key, c in pairs:
        add_term(f, terms, key, c)
        plain[key] = f.add(plain.get(key, f.zero), c)
        assert not any(f.is_zero(v) for v in terms.values())
    assert set(terms) == {k for k, v in plain.items() if not f.is_zero(v)}
    assert all(f.eq(terms[k], plain[k]) for k in terms)


# --- extension inverses by the base-field solve ---------------------------------

@st.composite
def _ext_elements(draw):
    E = EXTENSIONS[draw(st.sampled_from(sorted(EXTENSIONS)))]
    cs = draw(st.lists(_base_coeffs(E.base), max_size=E.degree))
    return E, UniPoly(E.base, cs)


@settings(max_examples=300, deadline=None)
@given(_ext_elements())
def test_extension_inverse_is_a_two_sided_inverse_or_raises_on_zero(case):
    E, a = case
    if E.is_zero(a):
        with pytest.raises(ZeroDivisionError):
            E.inv(a)
        return
    inv = E.inv(a)
    assert len(inv.coeffs) <= E.degree
    assert E.mul(a, inv) == E.one and E.mul(inv, a) == E.one


@st.composite
def _zero_divisors(draw):
    """A reducible monic modulus g*h with g linear, and a multiple of g."""
    base = EXTENSION_BASES[draw(st.sampled_from(sorted(EXTENSION_BASES)))]
    coeff = _base_coeffs(base)
    g = UniPoly(base, [draw(coeff), base.one])
    h = UniPoly(base, draw(st.lists(coeff, max_size=2)) + [base.one])
    E = ExtensionField(base, g * h, check_irreducible=False)
    r = UniPoly(base, draw(st.lists(coeff, max_size=E.degree)))
    return E, (g * r) % E.modulus


@settings(max_examples=200, deadline=None)
@given(_zero_divisors())
def test_extension_inverse_of_a_zero_divisor_raises(case):
    E, a = case
    with pytest.raises(ZeroDivisionError):
        E.inv(a)
