"""Words and sparse linear combinations in the free product k^a * k^b.

The two factors are presented by orthogonal primitive idempotents
p_1..p_a and q_1..q_b with sum 1 in each factor.  The last idempotent of
each factor is eliminated through the unit relation, so the word basis uses
the reduced letters p_1..p_{a-1}, q_1..q_{b-1} only: a reduced word is a
strictly alternating string of P- and Q-letters and the set of such words
is a basis of the free product.

Words are tuples of letters; a letter is (tag, index) with tag P=0, Q=1.
The graded word order (length first, then the letter tuple lexicographically
with P < Q and smaller index first) fixes every echelon computation
downstream.

A signature may also carry free letters t_1..t_free (tag T=2, after Q in the
order): no relation holds at a seam next to one.  The representation stage
writes its t/q words this way.

Elements print in a canonical text form (``to_text``), which reports carry;
nothing parses it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterator

from .scalars import Domain, QQ, add_term

P = 0
Q = 1
T = 2

Letter = tuple[int, int]
Word = tuple[Letter, ...]

EMPTY_WORD: Word = ()


@dataclass(frozen=True)
class Signature:
    """Numbers of primitive idempotents (a, b) of the two factors, both
    >= 2, and the number of free letters.  ``free`` stays out of the hash,
    so Signature(a, b) hashes as it did before free letters existed."""

    a: int
    b: int
    free: int = dataclass_field(default=0, hash=False)

    def __post_init__(self):
        if self.a < 2 or self.b < 2:
            raise ValueError("both factors need at least two idempotents")

    def letters(self, tag: int) -> range:
        """Reduced index range for a tag."""
        if tag == T:
            return range(1, self.free + 1)
        return range(1, (self.a if tag == P else self.b))

    def validate_word(self, w: Word) -> None:
        """Reject bad tags, out-of-range indices and two idempotent letters
        of one factor side by side; a free letter may stand next to any."""
        prev = None
        for tag, idx in w:
            if tag not in (P, Q, T):
                raise ValueError(f"bad tag in {w}")
            if idx not in self.letters(tag):
                raise ValueError(f"letter index out of reduced range in {w}")
            if prev == tag != T:
                raise ValueError(f"word {w} is not alternating")
            prev = tag

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.free})" if self.free else f"({self.a},{self.b})"


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return ".".join("pqt"[tag] + str(idx) for tag, idx in w)


def word_from_str(s: str) -> Word:
    s = s.strip()
    if s == "1":
        return EMPTY_WORD
    letters = []
    for part in s.split("."):
        part = part.strip()
        if not part or part[0] not in "pqt":
            raise ValueError(f"bad letter {part!r}")
        letters.append(("pqt".index(part[0]), int(part[1:])))
    return tuple(letters)


def concat_words(u: Word, v: Word) -> Word | None:
    """Product of two reduced words: concatenation with boundary reduction.

    The same idempotent tag at the seam merges equal indices (idempotency)
    and kills different ones (orthogonality); returns None for the zero
    product.  A seam next to a free letter is never reduced.
    """
    if not u:
        return v
    if not v:
        return u
    lt, li = u[-1]
    rt, ri = v[0]
    if lt != rt or lt == T:
        return u + v
    if li != ri:
        return None
    return u + v[1:]


def words_of_length(sig: Signature, n: int) -> Iterator[Word]:
    """All reduced alternating words of exact length n, in graded-lex order."""
    if sig.free:
        raise ValueError("word enumeration covers idempotent letters only")
    if n == 0:
        yield EMPTY_WORD
        return
    for start in (P, Q):
        stack: list[Word] = [((start, i),) for i in sig.letters(start)]
        # depth-first in lex order
        out: list[Word] = []

        def extend(w: Word):
            if len(w) == n:
                out.append(w)
                return
            tag = Q if w[-1][0] == P else P
            for i in sig.letters(tag):
                extend(w + ((tag, i),))

        for s in stack:
            extend(s)
        yield from out


def words_up_to(sig: Signature, n: int) -> list[Word]:
    """All reduced words of length <= n in the graded word order."""
    out: list[Word] = []
    for k in range(n + 1):
        chunk = sorted(words_of_length(sig, k))
        out.extend(chunk)
    return out


def filtration_dim(sig: Signature, n: int) -> int:
    """Dimension of the span of words of length <= n, by enumeration."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    total = 0
    for k in range(n + 1):
        total += sum(1 for _ in words_of_length(sig, k))
    return total


class AlgebraElement:
    """Sparse linear combination of reduced words over a scalar Domain.

    Immutable by convention: all operations return fresh elements.  The
    coefficient table stores raw domain values and never keeps zeros.
    """

    __slots__ = ("sig", "field", "terms")

    def __init__(self, sig: Signature, field: Domain, terms: dict[Word, object] | None = None):
        clean = {}
        for w, c in (terms or {}).items():
            if not field.is_zero(c):
                sig.validate_word(w)
                clean[w] = c
        self.sig = sig
        self.field = field
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature, field: Domain) -> "AlgebraElement":
        return cls(sig, field, {})

    @classmethod
    def unit(cls, sig: Signature, field: Domain) -> "AlgebraElement":
        return cls(sig, field, {EMPTY_WORD: field.one})

    @classmethod
    def from_word(cls, sig: Signature, field: Domain, w: Word, coeff=None) -> "AlgebraElement":
        return cls(sig, field, {w: field.one if coeff is None else coeff})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max word length in the support; -1 for the zero element."""
        return max((len(w) for w in self.terms), default=-1)

    def coeff(self, w: Word):
        return self.terms.get(w, self.field.zero)

    def _check(self, other: "AlgebraElement"):
        if self.sig != other.sig:
            raise ValueError("signature mismatch")
        if self.field is not other.field and self.field != other.field:
            raise ValueError("scalar domain mismatch")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        f = self.field
        t = dict(self.terms)
        for w, c in other.terms.items():
            add_term(f, t, w, c)
        return AlgebraElement(self.sig, f, t)

    def __neg__(self) -> "AlgebraElement":
        f = self.field
        return AlgebraElement(self.sig, f, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        f = self.field
        if f.is_zero(c):
            return AlgebraElement.zero(self.sig, f)
        return AlgebraElement(self.sig, f, {w: f.mul(v, c) for w, v in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        f = self.field
        t: dict[Word, object] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = concat_words(u, v)
                if w is not None:
                    add_term(f, t, w, f.mul(cu, cv))
        return AlgebraElement(self.sig, f, t)

    def __pow__(self, n: int) -> "AlgebraElement":
        out = AlgebraElement.unit(self.sig, self.field)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.sig != other.sig or set(self.terms) != set(other.terms):
            return False
        return all(self.field.eq(c, other.terms[w]) for w, c in self.terms.items())

    def __hash__(self) -> int:
        # coefficients hash by value, a RationalFunction by what all its
        # stored forms share, so elements that compare equal hash alike
        return hash((self.sig, frozenset(self.terms.items())))

    def substitute_letters(self, images: dict[Letter, "AlgebraElement"],
                           coeff_map=None) -> "AlgebraElement":
        """Apply the algebra endomorphism sending each letter to its image
        element (letters absent from ``images`` map to themselves), with an
        optional field endomorphism on coefficients."""
        f = self.field
        out = AlgebraElement.zero(self.sig, f)
        cache: dict[Word, AlgebraElement] = {}
        for w, c in self.terms.items():
            img = cache.get(w)
            if img is None:
                img = AlgebraElement.unit(self.sig, f)
                for letter in w:
                    piece = images.get(letter)
                    if piece is None:
                        piece = AlgebraElement.from_word(self.sig, f, (letter,))
                    img = img * piece
                cache[w] = img
            coeff = coeff_map(c) if coeff_map else c
            out = out + img.scale(coeff)
        return out

    # -- text form (reports print it) ------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``3/2*p1.q2.p1 + (-1)*q1``."""
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            cs = self.field.fmt(self.terms[w])
            if any(op in cs[1:] for op in "+-") or cs.startswith("-") or "/" in cs and "(" not in cs and not _is_simple_fraction(cs):
                cs = f"({cs})"
            parts.append(f"{cs}*{word_str(w)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.to_text()


def _is_simple_fraction(s: str) -> bool:
    head, _, tail = s.partition("/")
    return head.lstrip("-").isdigit() and tail.isdigit()


def idempotent(sig: Signature, field: Domain, tag: int, index: int) -> AlgebraElement:
    """The idempotent p_index or q_index for the full range 1..a (or 1..b);
    the eliminated last index expands as 1 minus the others."""
    n = sig.a if tag == P else sig.b
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    if index < n:
        return AlgebraElement.from_word(sig, field, ((tag, index),))
    terms: dict[Word, object] = {EMPTY_WORD: field.one}
    for i in range(1, n):
        terms[((tag, i),)] = field.neg(field.one)
    return AlgebraElement(sig, field, terms)


def commutator(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    return u * v - v * u


def central_element_check() -> dict:
    """In k^2 * k^2 over QQ the element z = -p - q + pq + qp is central;
    verify the defining commutators vanish exactly in the free product."""
    sig = Signature(2, 2)
    p = idempotent(sig, QQ, P, 1)
    q = idempotent(sig, QQ, Q, 1)
    z = -p - q + p * q + q * p
    zp = commutator(z, p)
    zq = commutator(z, q)
    zzp = commutator(z * z, p)
    return {
        "z": z.to_text(),
        "z_commutes_with_p": zp.is_zero(),
        "z_commutes_with_q": zq.is_zero(),
        "z_squared_commutes_with_p": zzp.is_zero(),
        "central": zp.is_zero() and zq.is_zero(),
    }

