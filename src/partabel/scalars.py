"""Exact scalar domains: rationals, prime fields, rational function fields,
and extensions of QQ and GF(p), all behind one small field contract.

Every element type here is immutable and self-contained, so values can be
shared freely across threads and memoized without copying.  The domain
objects (``QQ``, ``PrimeField``, ``FunctionField``, ``ExtensionField``)
provide construction, formatting and sampling.  Extensions
compute on integer coordinates: a sum of products (``Domain.dot``) is
reduced mod the modulus once, and a base-field scalar multiplies and
inverts in the base field.  Rational roots come from Hensel lifting.
QQ and its extensions map onto GF(l) for l near 2^61
(``Domain.modular_image``), where full-rank checks run first.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import islice, zip_longest
from math import lcm
from typing import Callable, Iterable, Sequence


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a zero of its denominator."""


class DegenerateSpecialization(RuntimeError):
    """A random specialization hit a degeneracy locus; caller should resample."""


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed small bases plus 24 random ones, drawn from a
    generator seeded by n, so the answer for n never varies."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0xC0FFEE ^ n)
    bases = _SMALL_PRIMES + [rng.randrange(2, n - 1) for _ in range(24)]
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _is_prime_modulus(p: int) -> bool:
    """``is_probable_prime`` for a ``PrimeField`` modulus, kept for the few
    moduli a process builds its fields over; the answer depends on p alone.
    ``random_prime``, which tries many composites, calls the test itself."""
    return is_probable_prime(p)


def random_prime(rng: random.Random, lo: int = 2**40, hi: int = 2**62) -> int:
    while True:
        n = rng.randrange(lo | 1, hi, 2)
        if is_probable_prime(n):
            return n


# ---------------------------------------------------------------------------
# Domain contract
# ---------------------------------------------------------------------------

class Domain:
    """Uniform contract for an exact field.

    Raw values are whatever the domain stores (``Fraction`` for QQ, ``int``
    for prime fields, ...).  All methods are pure.

    ``from_base(c)`` maps a value of the domain's base field into it.  A
    domain that is not built over another is its own base, so the default
    is the identity; ``ExtensionField`` embeds c as a constant.  A value
    computed over the base enters an extension through this one call,
    whatever the degree: at degree 1 the working field is the base field
    itself.
    """

    name = "abstract"

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        """The image of a rational number, for domains that contain QQ or
        reduce it mod p."""
        raise TypeError(f"cannot map a rational number into {self!r}")

    def from_base(self, c):
        return c

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return a / b

    def inv(self, a):
        return self.div(self.one, a)

    def dot(self, xs, ys):
        """sum(xs[i] * ys[i]), as the fold of ``mul`` and ``add`` from the
        first product; a domain may override it with a kernel that gives
        the same value."""
        terms = map(self.mul, xs, ys)
        acc = next(terms, self.zero)
        for t in terms:
            acc = self.add(acc, t)
        return acc

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a == self.zero

    def random(self, rng: random.Random):
        raise NotImplementedError

    def fmt(self, a) -> str:
        return str(a)

    def modular_image(self) -> tuple[PrimeField, Callable] | None:
        """(GF(l), h): a ring homomorphism h from the l-integral elements
        onto GF(l), for the domains whose full-rank checks run on an image
        (QQ and extensions of QQ); None for the others.  h raises
        ZeroDivisionError on an element that is not l-integral.  A rank can
        only drop under h, so an image of full rank proves full rank."""
        return None


def add_term(field: Domain, terms: dict, key, c) -> None:
    """``terms[key] += c`` in place, dropping the key when the sum is zero:
    the one sparse accumulate, so no coefficient table stores a zero."""
    if key in terms:
        c = field.add(terms[key], c)
    if field.is_zero(c):
        terms.pop(key, None)
    else:
        terms[key] = c


# Fractions are immutable, so every caller can share these two.
FRACTION_ZERO = Fraction(0)
FRACTION_ONE = Fraction(1)


class RationalField(Domain):
    """The rationals, realized by ``fractions.Fraction`` (already canonical:
    reduced, positive denominator, zero is 0/1)."""

    name = "rational"
    zero = FRACTION_ZERO
    one = FRACTION_ONE

    def is_zero(self, a) -> bool:
        return not a

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q: Fraction) -> Fraction:
        return q

    def random(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    def modular_image(self) -> tuple[PrimeField, Callable]:
        """n/d -> n d^-1 mod l = 2^61 + 15."""
        return _MODULAR_FIELD, _MODULAR_FIELD.from_fraction

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class PrimeField(Domain):
    """GF(p) on raw int residues in [0, p).  p is checked probabilistically
    at construction and must stay below 2^62 so products fit machine-friendly
    big-int fast paths."""

    name = "prime"

    def __init__(self, p: int):
        if p >= 2**62 or not _is_prime_modulus(p):
            raise ValueError(f"modulus must be a prime < 2^62, got {p}")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def from_fraction(self, q: Fraction) -> int:
        den = q.denominator % self.p
        if den == 0:  # pow(0, -1, p) would raise ValueError
            raise ZeroDivisionError("denominator vanishes mod p")
        return q.numerator * pow(den, -1, self.p) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def dot(self, xs, ys) -> int:
        return sum(map(operator.mul, xs, ys)) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:  # pow(0, -1, p) would raise ValueError
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def eq(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def random(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


# ---------------------------------------------------------------------------
# Multivariate polynomials and rational functions
# ---------------------------------------------------------------------------

def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial over QQ, keyed by exponent tuples.

    No zero coefficients are ever stored; term order is graded lexicographic.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[tuple[int, ...], Fraction] | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(e) != len(self.vars):
                    raise ValueError("exponent arity mismatch")
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "Polynomial":
        c = Fraction(c)
        z = (0,) * len(variables)
        return cls(variables, {z: c} if c else {})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        i = list(variables).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {e: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise TypeError("polynomials over different variable sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            add_term(QQ, t, e, c)
        return Polynomial(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial(self.vars)
            return Polynomial(self.vars, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        t: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(QQ, t, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Polynomial(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        return isinstance(other, Polynomial) and self.vars == other.vars \
            and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def evaluate(self, point: Sequence):
        """Evaluate at a point whose entries support ring arithmetic
        (Fractions, prime-field elements, rational functions, ...)."""
        vals = list(point)
        if len(vals) != len(self.vars):
            raise ValueError("point arity mismatch")
        acc = None
        for e, c in sorted(self.terms.items(), key=lambda t: _grlex_key(t[0])):
            term = c
            for v, k in zip(vals, e):
                for _ in range(k):
                    term = term * v
            # term-first keeps richer types (rational functions) in charge
            acc = term if acc is None else term + acc
        if acc is None:
            return Fraction(0)
        return acc

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


class RationalFunction:
    """Quotient of multivariate polynomials over QQ.

    Normalized only by common monomial factors, with the denominator's
    grlex leading coefficient scaled to 1; no gcd is divided out, so equal
    functions may be stored in different forms.  Equality is decided by
    cross-multiplication.  The hash reads what every form of one function
    shares: from a/b == c/d, a*d == c*b, and grlex leading terms multiply,
    so lc(a) == lc(c) (both denominators lead with 1) and lm(a) - lm(b) ==
    lm(c) - lm(d).  The hash is of that coefficient and exponent
    difference, and zero has its own.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.vars != den.vars:
            raise TypeError("numerator/denominator variable mismatch")
        if num.is_zero():
            den = Polynomial.constant(num.vars, 1)
        else:
            # common monomial factor
            mins = [min(e[i] for e in list(num.terms) + list(den.terms))
                    for i in range(len(num.vars))]
            if any(mins):
                shift = lambda t: {tuple(a - b for a, b in zip(e, mins)): c for e, c in t.items()}
                num = Polynomial(num.vars, shift(num.terms))
                den = Polynomial(den.vars, shift(den.terms))
            _, lc = den.leading()
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        self.num = num
        self.den = den

    @property
    def vars(self):
        return self.num.vars

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "RationalFunction":
        return cls(Polynomial.constant(variables, c))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RationalFunction":
        return cls(Polynomial.variable(variables, name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.vars, other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        if self.num.is_zero():
            return hash(0)
        (ne, nc), (de, _) = self.num.leading(), self.den.leading()
        return hash((nc, tuple(a - b for a, b in zip(ne, de))))

    def evaluate(self, point: Sequence):
        den = self.den.evaluate(point)
        num = self.num.evaluate(point)
        try:
            bad = den == 0 or (hasattr(den, "is_zero") and den.is_zero())
        except TypeError:
            bad = False
        if bad:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return num / den

    def __repr__(self) -> str:
        if self.den == Polynomial.constant(self.vars, 1):
            return repr(self.num)
        return f"({self.num})/({self.den})"


class FunctionField(Domain):
    """Field of rational functions in a fixed variable tuple over QQ."""

    name = "function"

    def __init__(self, variables: Sequence[str] = ("y1", "y2", "y3")):
        self.vars = tuple(variables)

    @property
    def zero(self) -> RationalFunction:
        return RationalFunction.constant(self.vars, 0)

    @property
    def one(self) -> RationalFunction:
        return RationalFunction.constant(self.vars, 1)

    def from_int(self, n: int) -> RationalFunction:
        return RationalFunction.constant(self.vars, n)

    def gen(self, name: str) -> RationalFunction:
        return RationalFunction.variable(self.vars, name)

    def gens(self) -> tuple[RationalFunction, ...]:
        return tuple(self.gen(v) for v in self.vars)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def random(self, rng: random.Random) -> RationalFunction:
        p = Polynomial(self.vars)
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in self.vars)
            p = p + Polynomial(self.vars, {e: Fraction(rng.randint(-5, 5))})
        q = Polynomial.constant(self.vars, rng.randint(1, 4))
        e = tuple(rng.randint(0, 1) for _ in self.vars)
        q = q + Polynomial(self.vars, {e: Fraction(rng.randint(0, 3))})
        if q.is_zero():
            q = Polynomial.constant(self.vars, 1)
        return RationalFunction(p, q)

    def __repr__(self) -> str:
        return f"QQ({','.join(self.vars)})"

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.vars == self.vars

    def __hash__(self):
        return hash(("FF", self.vars))


# ---------------------------------------------------------------------------
# Univariate polynomials over an arbitrary domain
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over a Domain; raw coefficients, no
    trailing zeros (the zero polynomial has an empty list)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Domain, coeffs: Iterable):
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = cs

    @classmethod
    def from_ints(cls, field: Domain, ints: Iterable[int]) -> "UniPoly":
        """Polynomial from integer coefficients, constant term first; kept
        for the tests, which write their moduli and cubics this way."""
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def x(cls, field: Domain) -> "UniPoly":
        return cls(field, [field.zero, field.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.field.eq(self.leading(), self.field.one)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.field.inv(self.leading())
        return UniPoly(self.field, [self.field.mul(c, inv) for c in self.coeffs])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        cs = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else f.zero
            b = other.coeffs[i] if i < len(other.coeffs) else f.zero
            cs.append(f.add(a, b))
        return UniPoly(f, cs)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        f = self.field
        if not isinstance(other, UniPoly):
            return UniPoly(f, [f.mul(c, other) for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly(f, [])
        cs = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] = f.add(cs[i + j], f.mul(a, b))
        return UniPoly(f, cs)

    def scale(self, c) -> "UniPoly":
        f = self.field
        return UniPoly(f, [f.mul(a, c) for a in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly(self.field, [self.field.zero] * k + self.coeffs)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = UniPoly(f, [])
        r = self
        inv_lead = f.inv(other.leading())
        while not r.is_zero() and r.degree >= other.degree:
            c = f.mul(r.leading(), inv_lead)
            k = r.degree - other.degree
            t = UniPoly(f, [f.zero] * k + [c])
            q = q + t
            r = r - other.scale(c).shift(k)
        return q, r

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(self.field.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash(tuple(map(self.field.fmt, self.coeffs)))

    def evaluate(self, x):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if self.field.is_zero(c):
                continue
            cs = self.field.fmt(c)
            if i == 0:
                parts.append(cs)
            else:
                x = "z" if i == 1 else f"z^{i}"
                parts.append(x if cs == "1" else f"{cs}*{x}")
        return " + ".join(parts)


def gcd_univariate(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by Euclid's algorithm over a field; gcd(0,0) = 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# Extension fields
# ---------------------------------------------------------------------------

class ExtensionField(Domain):
    """base[t]/(m) for a monic irreducible m over QQ or GF(p), the bases
    with a root finder (any other raises TypeError).  Raw values are UniPoly
    residues of degree < deg m with no trailing zeros: Fractions over QQ,
    ints in [0, p) over GF(p).  Arithmetic runs on integer coordinates:
    over QQ each operand is cleared to integers over the lcm of its
    denominators, and m is pre-scaled once to integers D m the same way."""

    name = "extension"

    def __init__(self, base: Domain, modulus: UniPoly, check_irreducible: bool = True):
        if not isinstance(base, (RationalField, PrimeField)):
            raise TypeError(f"extension fields are built over QQ or GF(p), not {base!r}")
        if modulus.field is not base and modulus.field != base:
            raise TypeError("modulus must live over the base domain")
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        if modulus.degree < 1:
            raise ValueError("modulus must have positive degree")
        if check_irreducible and modulus.degree in (2, 3):
            if base_field_roots(base, modulus):
                raise ValueError("modulus has a root in the base field; not irreducible")
        self.base = base
        self.modulus = modulus
        self._p = base.p if isinstance(base, PrimeField) else None
        # D m on integers and D; over GF(p) the residues themselves and 1
        self._int_modulus, self._scale = _clear_denominators(modulus.coeffs)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    @property
    def zero(self) -> UniPoly:
        return UniPoly(self.base, [])

    @property
    def one(self) -> UniPoly:
        return UniPoly(self.base, [self.base.one])

    def from_int(self, n: int) -> UniPoly:
        return UniPoly(self.base, [self.base.from_int(n)])

    def from_base(self, c) -> UniPoly:
        return UniPoly(self.base, [c])

    def gen(self) -> UniPoly:
        return UniPoly.x(self.base) % self.modulus

    def add(self, a: UniPoly, b: UniPoly) -> UniPoly:
        cs = [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)]
        return UniPoly(self.base, cs if self._p is None else [v % self._p for v in cs])

    def sub(self, a: UniPoly, b: UniPoly) -> UniPoly:
        cs = [x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)]
        return UniPoly(self.base, cs if self._p is None else [v % self._p for v in cs])

    def neg(self, a: UniPoly) -> UniPoly:
        return -a

    def mul(self, a: UniPoly, b: UniPoly) -> UniPoly:
        """(a * b) % modulus.  A base-field scalar (a residue with one
        coefficient) scales the other operand coordinatewise, which needs no
        reduction; any other product is ``dot`` of one pair."""
        xs, ys = a.coeffs, b.coeffs
        if len(ys) == 1:
            xs, ys = ys, xs
        if len(xs) == 1:
            c, p = xs[0], self._p
            return UniPoly(self.base, [c * y for y in ys] if p is None
                           else [c * y % p for y in ys])
        return self.dot((a,), (b,))

    def dot(self, xs, ys) -> UniPoly:
        """sum(xs[i] * ys[i]) % modulus on integer coordinates.  Over QQ each
        operand is cleared to integers over the lcm of its denominators, and
        the schoolbook products are summed over their common denominator.
        The sum is reduced once, from the top down: the coefficient c at t^k
        (k >= d) is cleared by scaling the row by D and subtracting
        c t^(k-d) D m, each step multiplying the denominator by D.  The
        residue is the one ``UniPoly.divmod`` gives, after one ``% p`` or one
        ``Fraction(v, den)`` per kept coefficient."""
        p, base = self._p, self.base
        cs: list[int] = []
        den = 1
        for a, b in zip(xs, ys):
            us, vs = a.coeffs, b.coeffs
            if not us or not vs:
                continue
            if p is None:
                us, da = _clear_denominators(us)
                vs, db = _clear_denominators(vs)
                d = da * db
                if d != den:
                    common = lcm(den, d)
                    if common != den:
                        cs = [v * (common // den) for v in cs]
                        den = common
                    if common != d:
                        us = [u * (common // d) for u in us]
            if len(cs) < len(us) + len(vs) - 1:
                cs.extend([0] * (len(us) + len(vs) - 1 - len(cs)))
            for i, u in enumerate(us):
                if u:
                    for j, v in enumerate(vs):
                        cs[i + j] += u * v
        m, scale = self._int_modulus, self._scale
        d = len(m) - 1
        while len(cs) > d:
            c = cs.pop()
            if c:
                if scale != 1:
                    cs = [v * scale for v in cs]
                    den *= scale
                k = len(cs) - d
                for i in range(d):
                    cs[k + i] -= c * m[i]
        if p is not None:
            return UniPoly(base, [v % p for v in cs])
        return UniPoly(base, [Fraction(v, den) for v in cs])

    def inv(self, a: UniPoly) -> UniPoly:
        """A base-field scalar inverts in the base field.  Otherwise solve
        a * x = 1 as the d x d base-field system whose column j is a * t^j,
        by the one dense elimination; a singular system means a is a zero
        divisor (the modulus is reducible)."""
        from .linalg import _rref  # linalg imports this module
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in extension field")
        base = self.base
        if len(a.coeffs) == 1:
            return UniPoly(base, [base.inv(a.coeffs[0])])
        d, t = self.degree, self.gen()
        cols = [a]
        for _ in range(1, d):
            cols.append(self.mul(cols[-1], t))
        zero = base.zero
        rows = [[c.coeffs[i] if i < len(c.coeffs) else zero for c in cols]
                + [base.one if i == 0 else zero] for i in range(d)]
        solved, pivots = _rref(base, rows, d)
        if len(pivots) < d:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        return UniPoly(base, [r[d] for r in solved])

    def div(self, a: UniPoly, b: UniPoly) -> UniPoly:
        return self.mul(a, self.inv(b))

    def eq(self, a: UniPoly, b: UniPoly) -> bool:
        return a == b

    def is_zero(self, a: UniPoly) -> bool:
        return a.is_zero()

    def random(self, rng: random.Random) -> UniPoly:
        return UniPoly(self.base, [self.base.random(rng) for _ in range(self.degree)])

    def fmt(self, a: UniPoly) -> str:
        if a.is_zero():
            return "0"
        parts = []
        for i in range(a.degree, -1, -1):
            c = a.coeffs[i]
            if self.base.is_zero(c):
                continue
            cs = self.base.fmt(c)
            if i == 0:
                parts.append(cs)
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if cs == "1" else f"({cs})*{t}")
        return " + ".join(parts)

    def modular_image(self) -> tuple[PrimeField, Callable] | None:
        return self._image

    @cached_property
    def _image(self) -> tuple[PrimeField, Callable] | None:
        """Over QQ: a(t) -> a(r) mod l, with l the first prime >= 2^61 + 15
        that divides no denominator of m and r the least root of m mod l.
        It is a ring homomorphism because m is monic and l-integral and
        m(r) = 0 mod l.  The walk tries ``_IMAGE_PRIMES`` primes and then
        gives up (no image).  Over GF(p) there is none."""
        if self._p is not None:
            return None
        ms, den = self._int_modulus, self._scale
        for field in islice(_modular_fields(), _IMAGE_PRIMES):
            ell = field.p
            if den % ell:  # m mod l is D m mod l over the unit D
                roots = prime_field_roots(field, UniPoly(field, [c % ell for c in ms]))
                if roots:
                    return field, partial(_residue_image, ell, roots[0])
        return None

    def __repr__(self) -> str:
        return f"{self.base!r}[t]/({self.modulus!r})"


def _clear_denominators(cs) -> tuple[list[int], int]:
    """(ns, D) with D the lcm of the denominators of the rationals cs and
    cs[i] = ns[i] / D."""
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _residue_image(ell: int, r: int, a: UniPoly) -> int:
    """a(r) mod l for a residue a over QQ; ZeroDivisionError when l divides
    a denominator."""
    ns, den = _clear_denominators(a.coeffs)
    if den % ell == 0:
        raise ZeroDivisionError("denominator vanishes mod l")
    return _horner(ns, r) * pow(den, -1, ell) % ell


def base_field_roots(base: Domain, f: UniPoly) -> list:
    """The distinct roots of f in the base field QQ or GF(p), sorted."""
    if isinstance(base, RationalField):
        return rational_roots(f)
    if isinstance(base, PrimeField):
        return prime_field_roots(base, f)
    raise TypeError(f"roots are found over QQ and GF(p) only, not {base!r}")


# ---------------------------------------------------------------------------
# Root finding over QQ and GF(p)
# ---------------------------------------------------------------------------

# 2^61 + 15, the least prime above 2^61, where ``_modular_fields`` starts
# the walk for rational_roots' Hensel prime and for the modular image of QQ
# and of its extensions (``Domain.modular_image``).  It and (it - 1) / 2, the exponents
# of prime_field_roots' square-and-multiply, have few one bits.
_MODULAR_FIELD = PrimeField(2**61 + 15)

# primes an extension of QQ tries for a root of its modulus; an irreducible
# cubic has one mod at least a third of all primes (Chebotarev)
_IMAGE_PRIMES = 16


def _modular_fields():
    """GF(l) for the primes l >= 2^61 + 15, in increasing order."""
    field = _MODULAR_FIELD
    while True:
        yield field
        ell = field.p + 2
        while not is_probable_prime(ell):
            ell += 2
        field = PrimeField(ell)


def rational_roots(f: UniPoly) -> list[Fraction]:
    """The distinct rational roots of a nonzero polynomial over QQ, sorted.

    A root n/q in lowest terms of an integer polynomial a_k z^k + ... + a_0,
    a_0 != 0, has |n| <= |a_0| and q <= |a_k|.  The squarefree part is
    cleared to integers and divided by z (0 is a root when z divides it).
    Its roots mod the first prime l >= 2^61 + 15 that keeps it squarefree
    with a_k a unit are Hensel-lifted to l^j > 2 |a_0 a_k|, where rational
    reconstruction (Wang 1981) gives back every rational root; a candidate
    is kept when the integer polynomial vanishes at it.  Polynomial in the
    bit length, and the result does not depend on l."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = UniPoly(QQ, [Fraction(c) for c in f.coeffs])
    if f.degree < 1:
        return []
    derivative = UniPoly(QQ, [i * c for i, c in enumerate(f.coeffs)][1:])
    a, _ = _clear_denominators(f.divmod(gcd_univariate(f, derivative))[0].coeffs)
    roots = [FRACTION_ZERO] if a[0] == 0 else []
    a = a[len(roots):]  # squarefree, so z divides it at most once
    da = [i * c for i, c in enumerate(a)][1:]
    for field in _modular_fields():
        ell = field.p
        fl = UniPoly(field, [c % ell for c in a])
        if a[-1] % ell and gcd_univariate(fl, UniPoly(field, [c % ell for c in da])).degree == 0:
            break
    bound = 2 * abs(a[0] * a[-1])
    for r in prime_field_roots(field, fl):
        m = ell
        while m <= bound:  # Newton's iteration doubles the precision
            m *= m
            r = (r - _horner(a, r) * pow(_horner(da, r), -1, m)) % m
        x = _rational_reconstruction(r, m, abs(a[0]))
        if _horner(a, x) == 0:
            roots.append(x)
    return sorted(roots)


def _horner(cs: list[int], x):
    """sum(cs[i] * x**i) for an int or a Fraction x."""
    return reduce(lambda v, c: v * x + c, reversed(cs), 0)


def _rational_reconstruction(r: int, m: int, bound: int) -> Fraction:
    """The n/q = r (mod m) with |n| <= bound and 0 < q <= m / (bound + 1),
    when there is one: extended Euclid on (m, r), stopped at the first
    remainder <= bound (von zur Gathen and Gerhard, Thm 5.26)."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1)


# below this p the roots are found by evaluating f at every element; the
# equal-degree split needs an odd p (over GF(2) its exponent (p - 1) / 2 is 0)
_ENUMERATE_ROOTS_BELOW = 64


def prime_field_roots(field: PrimeField, f: UniPoly) -> list[int]:
    """All roots of f in GF(p) via gcd with z^p - z and Cantor-Zassenhaus
    splitting, or by evaluation at every element for small p; fine for the
    small degrees used here."""
    p = field.p
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    if p < _ENUMERATE_ROOTS_BELOW:
        return [r for r in range(p) if f.evaluate(r) == 0]
    f = f.monic()  # the same roots; _poly_powmod reduces by a monic modulus
    xp = _powmod_x(field, p, f)
    lin = gcd_univariate(xp - UniPoly.x(field), f)
    roots: list[int] = []
    stack = [lin]
    rng = random.Random(0x5EED ^ p)
    while stack:
        g = stack.pop()
        if g.degree <= 0:
            continue
        if g.degree == 1:
            roots.append(field.neg(g.coeffs[0]))
            continue
        while True:
            c = field.random(rng)
            shifted = UniPoly(field, [c, field.one])
            h = _poly_powmod(field, shifted, (p - 1) // 2, g) - UniPoly(field, [field.one])
            d = gcd_univariate(h, g)
            if 0 < d.degree < g.degree:
                stack.append(d)
                stack.append(g.divmod(d)[0])
                break
    return sorted(roots)


def _powmod_x(field: Domain, e: int, mod: UniPoly) -> UniPoly:
    return _poly_powmod(field, UniPoly.x(field), e, mod)


def _poly_powmod(field: Domain, base: UniPoly, e: int, mod: UniPoly) -> UniPoly:
    """base^e % mod by square-and-multiply for a monic ``mod`` over QQ or
    GF(p); each product goes through ``ExtensionField.mul``, the integer
    kernel (no irreducibility is assumed or checked)."""
    mul = ExtensionField(field, mod, check_irreducible=False).mul
    out = UniPoly(field, [field.one])
    b = base % mod
    while e:
        if e & 1:
            out = mul(out, b)
        b = mul(b, b)
        e >>= 1
    return out


def factor_cubic(field: Domain, f: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors of a monic polynomial of degree <= 3 over
    QQ or GF(p), with multiplicity."""
    if not f.is_monic() or f.degree > 3:
        raise ValueError("expects a monic polynomial of degree <= 3")
    factors: list[UniPoly] = []
    rest = f
    for r in base_field_roots(field, f):
        lin = UniPoly(field, [field.neg(r), field.one])
        while True:
            q, rem = rest.divmod(lin)
            if rem.is_zero():
                factors.append(lin)
                rest = q
            else:
                break
    if rest.degree > 0:
        factors.append(rest)
    return factors
