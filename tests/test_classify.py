import itertools
import random
from fractions import Fraction

import pytest

from partabel.classify import (
    SubspacePresentation, classify_l2, classify_p3, genericity_check,
    grassmann_chart, partition_of, rewrite_left_module,
)
from partabel.freeproduct import P, Q, AlgebraElement, Signature, commutator, idempotent
from partabel.quotient import (
    IdealSpan, _try_closure, closure_certificate, make_relation, on_quadric,
)
from partabel.scalars import FunctionField, QQ

F = QQ


def Vsub(sig, vecs):
    return SubspacePresentation(sig, F, tuple(tuple(Fraction(c) for c in v) for v in vecs))


CHART_V = Vsub(Signature(3, 3), [(1, 0, -1, 0), (0, 1, 0, -1)])


def test_genericity_examples():
    rep = genericity_check(CHART_V)
    assert rep == {"piA_surjective": True, "piB_surjective": True,
                   "generic": True, "mid_bound": 3}
    abar = Vsub(Signature(3, 3), [(1, 0, 0, 0), (0, 1, 0, 0)])
    rep = genericity_check(abar)
    assert rep["piA_surjective"] and not rep["piB_surjective"]
    v42 = Vsub(Signature(4, 2), [(1, 1, 0, 1)])
    rep = genericity_check(v42)
    assert not rep["piA_surjective"] and rep["piB_surjective"]


def test_rewrite_unit():
    one = AlgebraElement.unit(Signature(3, 3), F)
    dec = rewrite_left_module(one, CHART_V)
    assert dec.terms == {((), 0): Fraction(1)}
    assert dec.expand() == one


def test_rewrite_bv_identity_case():
    sig = Signature(3, 3)
    q1 = idempotent(sig, F, Q, 1)
    v1 = CHART_V.elements()[0]
    elem = q1 * v1
    dec = rewrite_left_module(elem, CHART_V)
    assert (dec.expand() - elem).is_zero()
    assert dec.summand_count() <= 3


def random_element(sig, rng, max_deg=4):
    t = {}
    for _ in range(rng.randint(1, 4)):
        L = rng.randint(0, max_deg)
        w = []
        tag = rng.choice([P, Q])
        for _ in range(L):
            w.append((tag, rng.randint(1, (sig.a if tag == P else sig.b) - 1)))
            tag = 1 - tag
        t[tuple(w)] = Fraction(rng.randint(-4, 4))
    return AlgebraElement(sig, F, t)


def test_rewrite_roundtrip_200_random():
    sig = Signature(3, 3)
    rng = random.Random(101)
    subspaces = [
        CHART_V,
        Vsub(sig, [(1, 0, 2, -1), (0, 1, 1, 1)]),
        Vsub(sig, [(2, 1, 1, 0), (1, 1, 0, 1)]),
    ]
    for i in range(200):
        V = subspaces[i % len(subspaces)]
        e = random_element(sig, rng)
        dec = rewrite_left_module(e, V)
        assert (dec.expand() - e).is_zero()
        assert dec.summand_count() <= 3  # dim B = 3


def test_rewrite_rejects_non_generic():
    abar = Vsub(Signature(3, 3), [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(ValueError):
        rewrite_left_module(AlgebraElement.unit(Signature(3, 3), F), abar)


# --- classification table (l, 2) -------------------------------------------

def partitions_of(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions_of(rest):
        for i, block in enumerate(part):
            yield part[:i] + [block + [first]] + part[i + 1:]
        yield [[first]] + part


def indicator_subspace(l, part, with_q=True):
    """V whose A-part cuts out exactly the given partition: for each block
    not containing l, its indicator vector (coordinates of p_i, i in block);
    blocks containing l are handled by the zero convention automatically."""
    vecs = []
    for block in part:
        if l in block:
            continue
        vec = [Fraction(0)] * l
        for i in block:
            vec[i - 1] = Fraction(1)
        vecs.append(vec[: l - 1] + [Fraction(0)])
    if with_q:
        q = [Fraction(0)] * l
        q[0] = Fraction(1)
        q[-1] = Fraction(1)  # p1 + q1: guaranteed outside Abar
        vecs.append(q)
    return vecs


def expected_tag(l, part, inside_abar):
    if inside_abar:
        return "equals_R"
    if all(len(b) == 1 for b in part):
        return "tensor_mid_1"
    if max(len(b) for b in part) == 2:
        return "mid_2"
    return "mid_infinity"


def test_classify_l2_enumerated_family():
    checked = 0
    for l in range(2, 6):
        sig = Signature(l, 2)
        for part in partitions_of(list(range(1, l + 1))):
            part = [sorted(b) for b in part]
            vecs = indicator_subspace(l, part)
            try:
                V = Vsub(sig, vecs)
            except ValueError:
                continue
            got = classify_l2(V)
            blocks = sorted(tuple(sorted(b)) for b in part)
            found = sorted(partition_of(V).blocks)
            assert found == blocks, (l, part, found)
            assert got.tag == expected_tag(l, part, inside_abar=False)
            checked += 1
        # pure Abar samples
        if l >= 3:
            vecs = [[Fraction(1 if i == 0 else 0) for i in range(l - 1)] + [Fraction(0)]]
            V = Vsub(sig, vecs)
            assert classify_l2(V).tag == "equals_R"
    assert checked >= 50  # Bell(2..5) partitions all exercised


def test_classify_l2_spec_examples():
    sig4 = Signature(4, 2)
    inside = Vsub(sig4, [(1, 0, 0, 0), (0, 1, 2, 0)])
    assert classify_l2(inside).tag == "equals_R"
    mid2 = Vsub(sig4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert classify_l2(mid2).tag == "mid_2"
    assert sorted(partition_of(mid2).blocks) == [(1, 2), (3, 4)]
    midinf = Vsub(sig4, [(1, 1, 1, 0), (1, 0, 0, 1)])
    assert classify_l2(midinf).tag == "mid_infinity"


def test_classify_l2_consistency_with_engine_tensor_case():
    # l = 3, separating V1: quotient should be the commutative tensor
    # product of dimension 2l = 6
    sig = Signature(3, 2)
    V = Vsub(sig, [(1, 2, 0), (1, 0, 1)])
    assert classify_l2(V).tag == "tensor_mid_1"
    vs = V.elements()
    relations = [commutator(a, b) for a, b in itertools.combinations(vs, 2)]
    span = IdealSpan(relations)
    span.extend_to_window(8)
    bounds = [span.bound(n) for n in range(2, 7)]
    assert bounds[-1] == bounds[-2] == 6  # dim A (x) B = 3 * 2


def test_closure_takes_its_letters_from_the_signature():
    # the tensor_mid_1 case over Signature(3, 2): the letters are p1, p2, q1
    # and there is no q2 to multiply by; the closure is k^3 (x) k^2
    sig = Signature(3, 2)
    V = Vsub(sig, [(1, 2, 0), (1, 0, 1)])
    span = IdealSpan([commutator(a, b) for a, b in itertools.combinations(V.elements(), 2)])
    span.extend_to_window(2)
    closed, leaks = _try_closure(span, 2)
    assert leaks is None
    basis_idx, letter_action = closed
    assert len(basis_idx) == 6    # 2l, l = 3
    assert list(letter_action) == [((P, 1),), ((P, 2),), ((Q, 1),)]
    assert all(len(cols) == 6 for cols in letter_action.values())


def test_closure_certificate_takes_a_list_of_relations():
    # the same relation as above, handed to closure_certificate as a list:
    # there is no point, so the certificate and its JSON carry None
    sig = Signature(3, 2)
    V = Vsub(sig, [(1, 2, 0), (1, 0, 1)])
    relations = [commutator(a, b) for a, b in itertools.combinations(V.elements(), 2)]
    cert, span = closure_certificate(relations)
    assert cert.dimension_bound == 6    # 2l, l = 3
    assert cert.point is None and cert.to_json()["point"] is None
    assert list(cert.letter_action) == [((P, 1),), ((P, 2),), ((Q, 1),)]
    assert span.relations == relations


def test_classify_l2_consistency_with_engine_equals_R_case():
    sig = Signature(3, 2)
    V = Vsub(sig, [(1, 0, 0), (0, 1, 0)])
    assert classify_l2(V).tag == "equals_R"
    vs = V.elements()
    relations = [commutator(a, b) for a, b in itertools.combinations(vs, 2)]
    assert all(r.is_zero() for r in relations)  # ideal is zero: quotient = R


def test_classify_l2_consistency_growth_evidence_for_infinite_cases():
    # the mid_2 sample at l = 4 contains k^2 * k^2 fibers (free rank-4
    # module over a polynomial center), and the mid_infinity sample maps
    # onto a free-product group algebra: both are infinite-dimensional, so
    # the span bounds must keep growing
    sig = Signature(4, 2)
    for vecs, tag in ([[(1, 1, 0, 0), (0, 0, 1, 1)], "mid_2"],
                      [[(1, 1, 1, 0), (1, 0, 0, 1)], "mid_infinity"]):
        V = Vsub(sig, vecs)
        assert classify_l2(V).tag == tag
        vs = V.elements()
        relations = [commutator(a, b) for a, b in itertools.combinations(vs, 2)]
        span = IdealSpan(relations)
        span.extend_to_window(7)
        bounds = [span.bound(n) for n in range(2, 6)]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])), (tag, bounds)


def test_grassmann_chart_symbolic_identity():
    Fn = FunctionField(("y1", "y2", "y3"))
    y1, y2, y3 = Fn.gens()
    V, pt = grassmann_chart(Fn, (y1, y2, y3))
    t1, t2 = V.elements()
    X = make_relation(Fn, point=pt).element
    assert (commutator(t1, t2) - X).is_zero()


def test_grassmann_chart_examples():
    V, pt = grassmann_chart(QQ, (Fraction(0), Fraction(0), Fraction(0)))
    assert pt == (1, 0, 0, 0)
    assert V.basis[0] == (1, 0, 0, 0)
    assert V.basis[1] == (0, 1, 1, 0)
    _, pt2 = grassmann_chart(QQ, (Fraction(1), Fraction(1), Fraction(2)))
    assert pt2 == (1, 1, 1, 2)
    assert not on_quadric(QQ, pt2)  # 1*2 != 1*1


def test_chart_quadric_compatibility():
    rng = random.Random(7)
    for _ in range(50):
        y = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
        _, pt = grassmann_chart(QQ, y)
        d = y[2] - y[0] * y[1]
        assert on_quadric(QQ, pt) == (d == 0)


def test_classify_p3_examples():
    cases = [
        ((1, 0, 0, 0), "quadric_point_mid_inf"),
        ((1, 2, 2, 4), "quadric_k9_mid1"),
        ((1, 0, 0, -1), "known_infinite_dim"),
        ((1, 2, 0, 0), "quadric_line_mid_inf"),
        ((0, 0, 1, 5), "quadric_line_mid_inf"),
        ((1, 2, 3, 7), "needs_engine"),
    ]
    for x, tag in cases:
        v = classify_p3(QQ, tuple(Fraction(c) for c in x))
        assert v.tag == tag, (x, v.tag)
        assert v.rule


def test_classify_p3_scale_invariance():
    rng = random.Random(3)
    for _ in range(60):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        if all(c == 0 for c in x):
            continue
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            lam = -lam
        v1 = classify_p3(QQ, x)
        v2 = classify_p3(QQ, tuple(lam * c for c in x))
        assert v1.tag == v2.tag


def test_all_nine_special_points_detected():
    # the nine pairwise intersections of the two line triples
    pts = []
    for i in range(3):
        for j in range(3):
            # solve the four linear conditions of l_i and l'_j
            conds = {
                0: lambda x: (x[2], x[3]),
                1: lambda x: (x[0], x[1]),
                2: lambda x: (x[0] - x[2], x[1] - x[3]),
            }
            dconds = {
                0: lambda x: (x[1], x[3]),
                1: lambda x: (x[0], x[2]),
                2: lambda x: (x[0] - x[1], x[2] - x[3]),
            }
            from itertools import product
            for cand in product([0, 1], repeat=4):
                x = tuple(Fraction(c) for c in cand)
                if any(c != 0 for c in x) and \
                        all(v == 0 for v in conds[i](x)) and \
                        all(v == 0 for v in dconds[j](x)):
                    pts.append(x)
                    break
    assert len(pts) == 9
    for x in pts:
        assert classify_p3(QQ, x).tag == "quadric_point_mid_inf"


def test_verdict_json_shape():
    v = classify_p3(QQ, tuple(Fraction(c) for c in (1, 2, 2, 4)))
    js = v.to_json()
    assert js["verdict"] == "quadric_k9_mid1"
    assert isinstance(js["rule"], str) and js["rule"]
