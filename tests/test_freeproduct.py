import random
from fractions import Fraction

import pytest

from partabel.freeproduct import (
    EMPTY_WORD, P, Q, T, AlgebraElement, Signature, central_element_check,
    commutator, concat_words, filtration_dim, idempotent, word_from_str,
    word_str, words_up_to,
)
from partabel.scalars import FunctionField, PrimeField, QQ, random_prime


def random_element(sig, field, rng, max_deg=4, terms=4):
    t = {}
    for _ in range(rng.randint(1, terms)):
        L = rng.randint(0, max_deg)
        w = []
        tag = rng.choice([P, Q])
        for _ in range(L):
            w.append((tag, rng.randint(1, (sig.a if tag == P else sig.b) - 1)))
            tag = 1 - tag
        t[tuple(w)] = field.from_int(rng.randint(-5, 5))
    return AlgebraElement(sig, field, t)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 2)
    sig = Signature(3, 3)
    with pytest.raises(ValueError):
        sig.validate_word(((P, 1), (P, 2)))
    with pytest.raises(ValueError):
        sig.validate_word(((P, 3),))


def test_free_letters_are_never_reduced_and_are_range_checked():
    sig = Signature(3, 3, free=2)
    t1, t2, q1, q2 = (T, 1), (T, 2), (Q, 1), (Q, 2)
    assert concat_words((t1,), (t1,)) == (t1, t1)
    assert concat_words((q1, t2), (t2, q1)) == (q1, t2, t2, q1)
    # idempotent seams still merge or vanish between free letters
    assert concat_words((t1, q1), (q1, t2)) == (t1, q1, t2)
    assert concat_words((t1, q1), (q2, t2)) is None
    sig.validate_word((t1, t1, q1, t2, (P, 2), t2))
    for bad in (((T, 3),), ((T, 0),), (t1, q1, q2)):
        with pytest.raises(ValueError):
            sig.validate_word(bad)
    with pytest.raises(ValueError):
        Signature(3, 3).validate_word((t1,))
    with pytest.raises(ValueError):
        words_up_to(sig, 2)
    assert word_str((q1, t2, t1)) == "q1.t2.t1" and word_from_str("q1.t2.t1") == (q1, t2, t1)
    x = AlgebraElement(sig, QQ, {(t1, q2): Fraction(3, 2), (q1,): Fraction(-1)})
    assert x.to_text() == "(-1)*q1 + 3/2*t1.q2"
    # the free count leaves Signature(3, 3) as it was
    assert Signature(3, 3) == Signature(3, 3, 0) != sig
    assert hash(Signature(3, 3)) == hash((3, 3)) and repr(Signature(3, 3)) == "(3,3)"


def test_idempotent_examples():
    sig = Signature(3, 3)
    p1 = idempotent(sig, QQ, P, 1)
    assert p1.to_text() == "1*p1"
    p3 = idempotent(sig, QQ, P, 3)
    assert p3 == AlgebraElement(sig, QQ, {
        EMPTY_WORD: Fraction(1), ((P, 1),): Fraction(-1), ((P, 2),): Fraction(-1)})
    sig32 = Signature(3, 2)
    q2 = idempotent(sig32, QQ, Q, 2)
    assert q2 == AlgebraElement(sig32, QQ, {
        EMPTY_WORD: Fraction(1), ((Q, 1),): Fraction(-1)})
    with pytest.raises(ValueError):
        idempotent(sig, QQ, P, 4)


def test_orthogonal_idempotent_laws_full_range():
    for sig in (Signature(3, 3), Signature(4, 2), Signature(2, 2)):
        for tag, n in ((P, sig.a), (Q, sig.b)):
            es = [idempotent(sig, QQ, tag, i) for i in range(1, n + 1)]
            total = AlgebraElement.zero(sig, QQ)
            for i, ei in enumerate(es):
                total = total + ei
                for j, ej in enumerate(es):
                    prod = ei * ej
                    assert prod == (ei if i == j else AlgebraElement.zero(sig, QQ))
            assert total == AlgebraElement.unit(sig, QQ)


def test_mul_examples():
    sig = Signature(3, 3)
    w = lambda s: AlgebraElement.from_word(sig, QQ, word_from_str(s))
    assert w("p1.q1") * w("p2") == w("p1.q1.p2")
    assert w("q1.p1") * w("p1.q2") == w("q1.p1.q2")
    assert (w("q1.p1") * w("p2.q2")).is_zero()


def test_mul_associativity_random():
    rng = random.Random(23)
    gf = PrimeField(random_prime(rng))
    for sig in (Signature(3, 3), Signature(3, 2)):
        for field in (QQ, gf):
            for _ in range(15):
                a = random_element(sig, field, rng)
                b = random_element(sig, field, rng)
                c = random_element(sig, field, rng)
                assert (a * b) * c == a * (b * c)


def test_degree_subadditive():
    rng = random.Random(29)
    sig = Signature(3, 3)
    for _ in range(40):
        a = random_element(sig, QQ, rng)
        b = random_element(sig, QQ, rng)
        p = a * b
        if not p.is_zero() and not a.is_zero() and not b.is_zero():
            assert p.degree() <= a.degree() + b.degree()


def test_commutator_examples():
    sig = Signature(3, 3)
    p1 = idempotent(sig, QQ, P, 1)
    p2 = idempotent(sig, QQ, P, 2)
    q1 = idempotent(sig, QQ, Q, 1)
    one = AlgebraElement.unit(sig, QQ)
    assert commutator(p1, p2).is_zero()
    assert commutator(p1, q1) == p1 * q1 - q1 * p1
    assert commutator(one, q1).is_zero()


def test_filtration_dimensions():
    sig = Signature(3, 3)
    for k in range(0, 11):
        assert filtration_dim(sig, k) == 2 ** (k + 2) - 3
    assert filtration_dim(Signature(3, 2), 2) == 8
    assert filtration_dim(sig, 0) == 1
    # enumeration agrees with a direct alternating-word count
    def count(sig, n):
        total = 1
        for k in range(1, n + 1):
            for start in (P, Q):
                sizes = []
                tag = start
                for _ in range(k):
                    sizes.append((sig.a if tag == P else sig.b) - 1)
                    tag = 1 - tag
                prod = 1
                for s in sizes:
                    prod *= s
                total += prod
        return total
    for sig2 in (Signature(3, 3), Signature(4, 2), Signature(2, 2), Signature(5, 4)):
        for n in range(0, 6):
            assert filtration_dim(sig2, n) == count(sig2, n)


def test_word_order_is_graded_and_stable():
    sig = Signature(3, 3)
    ws = words_up_to(sig, 3)
    assert ws[0] == EMPTY_WORD
    lens = [len(w) for w in ws]
    assert lens == sorted(lens)
    # prefix property used by the incremental span
    assert words_up_to(sig, 2) == ws[: filtration_dim(sig, 2)]


def test_central_element():
    rep = central_element_check()
    assert rep["central"]
    assert rep["z_squared_commutes_with_p"]


def test_text_form_rational():
    sig = Signature(3, 3)
    e = AlgebraElement(sig, QQ, {
        word_from_str("p1.q2.p1"): Fraction(3, 2),
        word_from_str("q1"): Fraction(-1),
    })
    assert e.to_text() == "(-1)*q1 + 3/2*p1.q2.p1"


def test_substitute_letters_is_homomorphism():
    sig = Signature(3, 3)
    rng = random.Random(43)
    p3 = idempotent(sig, QQ, P, 3)
    images = {(P, 1): p3}
    for _ in range(15):
        a = random_element(sig, QQ, rng, max_deg=3)
        b = random_element(sig, QQ, rng, max_deg=3)
        sab = (a * b).substitute_letters(images)
        assert sab == a.substitute_letters(images) * b.substitute_letters(images)


def test_degree_additive_in_concatenation_case():
    sig = Signature(3, 3)
    u = AlgebraElement.from_word(sig, QQ, word_from_str("p1.q1"))
    v = AlgebraElement.from_word(sig, QQ, word_from_str("p2.q2"))
    assert (u * v).degree() == u.degree() + v.degree()


def test_no_silent_wraparound_with_large_rationals():
    # huge numerators survive exactly in rational mode
    sig = Signature(3, 3)
    big = Fraction(10**40 + 1, 10**20 - 1)
    e = idempotent(sig, QQ, P, 1).scale(big)
    prod = e * e
    assert prod.coeff(((P, 1),)) == big * big


def test_equal_function_field_values_hash_alike():
    # (y1^2 - y2^2)/(y1 - y2) and y1 + y2 are one rational function, stored
    # unreduced and reduced; a set must keep one of them, bare or as the
    # coefficient of an algebra element
    F = FunctionField(("y1", "y2", "y3"))
    y1, y2, _ = F.gens()
    a, b = (y1 * y1 - y2 * y2) / (y1 - y2), y1 + y2
    assert a == b and len({a, b}) == 1
    sig, w = Signature(3, 3), ((P, 1),)
    ea, eb = AlgebraElement(sig, F, {w: a}), AlgebraElement(sig, F, {w: b})
    assert ea == eb and len({ea, eb}) == 1
