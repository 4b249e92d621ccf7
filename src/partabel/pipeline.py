"""End-to-end certification of one point: closure certificate (upper bound)
plus the evaluation map onto the nine characters and a 3-dimensional
representation over k read off the closure's letter action (lower bound),
with the verdict "exact" only when the two meet.  The paper's explicit
construction over the conic extension E runs only where it is the
subject: the ``wedderburn`` command's second lower bound
(``extension_lower_bound``), and the ``rep`` and ``detcurve`` commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields
from fractions import Fraction
from functools import lru_cache

from .linalg import dense_rank
from .quotient import (
    ClosureCertificate, ClosureFailure, ClosureTrace, CommutatorRelation, IdealSpan,
    canonical_point, chart_in_field, closure_certificate, make_relation, on_quadric,
    random_offquadric_chart, replay_is_growth, spanning_monomials_rank,
)
from .reptheory import (
    RepMatrices, WedderburnMap, character_value, characters33, chart_representation,
    letter_representation, wedderburn_type, wedderburn_verify,
)
from .scalars import (
    DegenerateSpecialization, Domain, PrimeField, QQ, random_prime,
)

# coordinate swaps induced by the factor symmetries p1 <-> p2 and q1 <-> q2;
# each is an algebra automorphism, so every dimension statement transfers
SWAPS = {
    "id": lambda x: x,
    "q": lambda x: (x[1], x[0], x[3], x[2]),
    "p": lambda x: (x[2], x[3], x[0], x[1]),
    "pq": lambda x: (x[3], x[2], x[1], x[0]),
}


def chart_of_point(field: Domain, x: tuple) -> tuple[tuple, str]:
    """Move a point of P^3 into the affine chart x11 = 1 by factor swaps;
    returns the chart triple (y1, y2, y3) and the swap used.

    Points passing the genericity filter always have x11 != 0 (a vanishing
    coordinate is itself one of the degeneracy planes, and the plane union
    is invariant under the swaps), so the swap is the identity on every
    certifiable point; the normalization exists for forced and exploratory
    runs."""
    x = canonical_point(field, x)
    for name in ("id", "q", "p", "pq"):
        xx = SWAPS[name](x)
        if not field.is_zero(xx[0]):
            inv = field.inv(xx[0])
            y = tuple(field.mul(c, inv) for c in xx[1:])
            return y, name
    raise ValueError("zero point")


def degeneracy_forms(field: Domain, x: tuple) -> list:
    """The nine linear forms whose vanishing marks the empirically
    non-generic planes: one entry of the relation's coefficient matrix
    vanishes in one of the idempotent-elimination charts.  On any of these
    planes (and only there, off the quadric, in extensive sampling) the
    degree-4 quotient keeps dimension 19 and the span bounds grow without
    stabilizing."""
    f = field
    x11, x12, x21, x22 = x
    return [
        x11, x12, x21, x22,
        f.sub(x11, x12), f.sub(x21, x22), f.sub(x11, x21), f.sub(x12, x22),
        f.add(f.sub(f.sub(x11, x12), x21), x22),
    ]


def suspected_nongeneric(field: Domain, x: tuple) -> bool:
    """Quadric membership or one of the nine degeneracy planes."""
    f = field
    x = canonical_point(f, x)
    return on_quadric(f, x) or any(f.is_zero(v) for v in degeneracy_forms(f, x))


@dataclass
class PointCertificate:
    """Everything the theorem verdict needs at one point over one field."""

    domain: str
    point: tuple
    chart: tuple
    swap: str
    upper_bound: int
    stabilized_at: int
    window: int
    commutative: bool
    lower_bound: int
    # irreducible_dim, center_dim, trace_form_rank and split_dims are the
    # type over k, read off the evaluation isomorphism (``wedderburn_type``);
    # None at a point that is not exact, where nothing proves the table
    # associative
    irreducible_dim: int | None
    rho_kills_relation: bool
    idempotent_identities: bool
    center_dim: int | None
    trace_form_rank: int | None
    split_dims: tuple | None
    spanning_list: dict
    exact_dimension: int | None
    # the closure certificate itself, for ``extension_lower_bound``, and the
    # span that proves it, whose trace a replay at another point feeds
    # (``certify_point_multi`` drops the span once it has read it)
    certificate: ClosureCertificate | None = dataclass_field(default=None, compare=False,
                                                             repr=False)
    span: IdealSpan | None = dataclass_field(default=None, compare=False, repr=False)

    def verdict(self) -> tuple[bool, str]:
        if self.exact_dimension == 18:
            return True, "dim S_x = 18, type k^9 (+) M3"
        return False, (f"bounds did not meet: upper {self.upper_bound}, "
                       f"lower {self.lower_bound}")


def certify_point(field: Domain, x: tuple, n_max: int = 8, slack: int = 4,
                  force: bool = False, trace: ClosureTrace | None = None) -> PointCertificate:
    """Run the full pipeline at one off-quadric point over one exact field.

    Points on the quadric or the nine degeneracy planes are rejected up
    front (the span bounds provably fail to stabilize there); ``force``
    attempts the computation anyway and lets it fail honestly.

    Every stage runs at the chart point (1 : y1 : y2 : y3) of
    ``chart_of_point``.  That is x itself when the swap is the identity, and
    otherwise its image under an automorphism, so the bounds transfer.

    The stages follow the one decision: the closure certificate (upper
    bound), then ``_evaluation_map`` over k: rho_k from the closure's letter
    action, the three checks that make the evaluation rank a lower bound,
    and the rank.  At an exact point S_x = k^9 (+) M3(k) as k-algebras, the
    type is read off that isomorphism (``wedderburn_type``), and so is
    ``commutative``: M3(k) is not commutative, so the structure table is
    built only at a point that is not exact.  No conic, cubic extension or
    t*q rewrite is involved.  When no letter gives rho_k, even after full
    growth, the point is not certified: ``DegenerateSpecialization``.

    ``trace`` is handed to ``closure_certificate`` to replay; the closure's
    own span is returned as ``span``.  A replayed certificate is
    kept only when the point is exact, so that rho_k and the characters
    prove its basis independent, and ``replay_is_growth`` then proves it is
    the certificate full growth returns; otherwise the point is certified
    again by full growth, rho_k included.  Either way the report is full
    growth's."""
    f = field
    x = canonical_point(f, x)
    y, swap = chart_of_point(f, x)
    if on_quadric(f, x):
        raise DegenerateSpecialization("point lies on the quadric; no chart pipeline")
    if not force and suspected_nongeneric(f, x):
        raise DegenerateSpecialization(
            "point lies on a degeneracy plane (a coefficient-matrix entry "
            "vanishes in some elimination chart); expected non-generic")
    rel = make_relation(f, chart=y)
    cert, span = closure_certificate(rel, n_max=n_max, slack=slack, trace=trace)
    wm, rho = _evaluation_map(rel, cert)
    if span.replayed and not (wm is not None and wm.exact_dimension is not None
                              and replay_is_growth(cert, span, n_max)):
        cert, span = closure_certificate(rel, n_max=n_max, slack=slack)
        wm, rho = _evaluation_map(rel, cert)
    if wm is None:
        raise DegenerateSpecialization(
            "no letter l gives a 3-dimensional right ideal l*J over k")
    return PointCertificate(
        domain=getattr(f, "name", "?") + (f"({f.p})" if isinstance(f, PrimeField) else ""),
        point=x,
        chart=y,
        swap=swap,
        upper_bound=cert.dimension_bound,
        stabilized_at=cert.degree,
        window=cert.window,
        commutative=not wm.exact and cert.is_commutative(),
        lower_bound=wm.rank,
        rho_kills_relation=wm.rho_kills_relation,
        idempotent_identities=wm.idempotent_identities,
        **wedderburn_type(wm, rho),
        spanning_list=spanning_monomials_rank(cert, span),
        exact_dimension=wm.exact_dimension,
        certificate=cert,
        span=span,
    )


def _evaluation_map(rel: CommutatorRelation,
                    cert: ClosureCertificate) -> tuple[WedderburnMap | None, RepMatrices | None]:
    """The evaluation map of ``cert``'s basis onto the nine characters and
    rho_k = ``letter_representation``, all over k, with the three checks
    of ``algebra_map_checks``; (None, None) when there is no rho_k."""
    rho = letter_representation(cert)
    if rho is None:
        return None, None
    return wedderburn_verify(cert, rel.element, rho), rho


def extension_lower_bound(field: Domain, pc: PointCertificate) -> tuple[dict, bool]:
    """The paper's explicit construction at the chart of ``pc``, as a second
    lower bound that shares nothing with rho_k but the closure's basis: the
    conic intersection over k, the representation induced from the
    character t1 -> z1, t2 -> z2 over its extension E, the three checks over
    E and the evaluation rank over E.  Returns the cubic's data, which the
    ``wedderburn`` report carries, and whether that rank meets the upper
    bound with every check holding."""
    spec, rho = chart_representation(field, pc.chart)
    wm = wedderburn_verify(pc.certificate, make_relation(field, chart=pc.chart).element, rho)
    return {
        "extension_degree": spec.extension_degree,
        "f_coeffs": [field.fmt(c) for c in spec.f_poly.coeffs],
        "factor_degrees": spec.factor_degrees,
        "disc_is_square": spec.disc_is_square,
    }, wm.exact


def seeded_primes(seed: int, primes: list[int] | None = None) -> list[int]:
    """The primes of prime mode, as a new list: the given ones, then
    distinct primes drawn from ``Random(seed)`` until there are two.  Every
    command that works over GF(p) takes its primes from here."""
    return list(_seeded_primes(seed, tuple(primes or ())))


@lru_cache(maxsize=64)
def _seeded_primes(seed: int, given: tuple[int, ...]) -> tuple[int, ...]:
    """``seeded_primes``, drawn once per (seed, given) in a process: the
    draw depends on those alone, and each point of ``theorem`` asks again,
    which would run Miller-Rabin on a dozen candidates every time."""
    rng = random.Random(seed)
    ps = list(given)
    while len(ps) < 2:
        p = random_prime(rng)
        if p not in ps:
            ps.append(p)
    return tuple(ps)


# the part of this process's first full growth that came out exact (18)
# that a closure reads, replayed by every later run (see certify_point_multi)
_learned_closure: ClosureTrace | None = None


def certify_point_multi(x_fractions: tuple, mode: str = "prime",
                        primes: list[int] | None = None, seed: int = 0,
                        n_max: int = 8, slack: int = 4, force: bool = False,
                        over_extension: bool = False) -> dict:
    """Certify a rational point over the requested domains; prime mode runs
    two distinct primes and demands agreement, rational mode is a single
    exact run over the rationals.  ``over_extension`` adds
    ``extension_lower_bound`` to every run: its cubic's data go into the
    run's report, and the verdict also needs that second bound exact.

    Every run replays the closure this process learned first (see
    ``_learned_closure`` and ``closure_certificate``); until there is one,
    runs grow the window, and the first that is exact at 18 fills it with
    the part of its trace that the closure reads (``ClosureTrace.pruned``,
    cut once, when learned: the pivots of leads no longer than the closure
    looks and the products that reduced them).  A trace holds products,
    indices only, so one learned mod p replays over QQ and the reverse.
    That is still independent evidence: the trace only chooses which ideal
    elements to feed, and the closure test and the lower bound are
    computed in full over each domain.  The reports are
    full growth's bytes: ``certify_point`` keeps a replay only under the
    bound sandwich of ``replay_is_growth`` and grows the window otherwise.
    The gain needs the generic shape to repeat from point to point, which
    is the paper's theorem."""
    global _learned_closure
    if mode == "rational":
        fields: list[Domain] = [QQ]
    elif mode == "prime":
        fields = [PrimeField(p) for p in seeded_primes(seed, primes)]
    else:
        raise ValueError(f"unknown mode {mode!r} (use rational or prime)")

    runs, reports, second_bound = [], [], True
    for f in fields:
        run = certify_point(f, chart_in_field(f, x_fractions), n_max=n_max,
                            slack=slack, force=force, trace=_learned_closure)
        if _learned_closure is None and run.exact_dimension == 18:
            _learned_closure = ClosureTrace.pruned(run.certificate, run.span)
        run.span = None  # read no further: the next run need not keep it alive
        runs.append(run)
        reports.append(_cert_json(run))
        if over_extension:
            cubic, exact = extension_lower_bound(f, run)
            reports[-1].update(cubic)
            second_bound = second_bound and exact
    dims = {r.exact_dimension for r in runs}
    agree = len(dims) == 1
    ok = agree and runs[0].exact_dimension == 18
    verdict = runs[0].verdict()[1] if agree else "domains disagree"
    if ok and not second_bound:
        ok, verdict = False, "the evaluation over the conic extension is not exact"
    return {
        "point": [str(Fraction(c)) for c in x_fractions],
        "mode": mode,
        "runs": reports,
        "agreement": agree,
        "verdict_ok": ok,
        "verdict": verdict,
    }


def _cert_json(r: PointCertificate) -> dict:
    out = {fd.name: getattr(r, fd.name) for fd in dataclass_fields(r)
           if fd.name not in ("point", "certificate", "span")}
    out["chart"] = [str(c) for c in r.chart]
    out["split_dims"] = list(r.split_dims) if r.split_dims else None
    return out


def certify_quadric_point(field: Domain, x: tuple, n_max: int = 8,
                          slack: int = 4) -> dict:
    """Certification at a generic quadric point: the closure certificate
    gives the upper bound |B| and the nine characters the lower bound.  They
    are distinct algebra maps to k that kill X, so by Dedekind's lemma their
    rank on B is 9.  When it is |B| (``exact_dimension``) they give an
    algebra isomorphism S_x -> k^9, and the letter action's table is that of
    k^9: ``commutative`` and ``associative_spot_check`` are proved, with no
    table built or sampled.  At a point that is not exact both are None."""
    f = field
    rel = make_relation(f, point=x)
    if not on_quadric(f, rel.point):
        raise ValueError("not a quadric point")
    cert, _ = closure_certificate(rel, n_max=n_max, slack=slack)
    rows = [[character_value(f, w, ch) for ch in characters33()] for w in cert.basis]
    char_rank = dense_rank(f, rows)
    exact = cert.dimension_bound if char_rank == cert.dimension_bound else None
    proved = True if exact else None
    return {
        "point": [f.fmt(c) for c in rel.point],
        "upper_bound": cert.dimension_bound,
        "character_rank": char_rank,
        "commutative": proved,
        "associative_spot_check": proved,
        "exact_dimension": exact,
    }


def sample_generic_points(seed: int, count: int) -> list[tuple]:
    """Deterministic random rational sample points (1 : y1 : y2 : y3) off
    the quadric and off the nine degeneracy planes (in particular never the
    known infinite-dimensional point, which lies on one of them)."""
    rng = random.Random(seed)
    pts: list[tuple] = []
    while len(pts) < count:
        y = random_offquadric_chart(rng)
        x = (Fraction(1), y[0], y[1], y[2])
        if suspected_nongeneric(QQ, x):
            continue
        pts.append(x)
    return pts


def theorem_point_worker(args) -> dict:
    """Top-level worker for process pools."""
    x, mode, primes, seed, n_max, slack, force = args
    try:
        return certify_point_multi(x, mode=mode, primes=primes, seed=seed,
                                   n_max=n_max, slack=slack, force=force)
    except (DegenerateSpecialization, ClosureFailure) as exc:
        return {"point": [str(Fraction(c)) for c in x], "mode": mode,
                "verdict_ok": False, "verdict": f"degenerate: {exc}", "runs": []}
