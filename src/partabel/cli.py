"""Command-line surface: each subcommand drives one stage of the library
and emits a versioned JSON report plus a text summary.

Exit codes: 0 when the command's claim is reproduced, 2 when the
computation ran but the claim failed, 1 on usage or internal errors.
Reports are byte-identical for identical configuration and seed; timing is
only included behind --timings so determinism survives.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .classify import classify_p3
from .freeproduct import Signature, central_element_check, filtration_dim
from .pipeline import (
    certify_point_multi, degeneracy_forms, sample_generic_points, seeded_primes,
    theorem_point_worker,
)
from .quotient import (
    ClosureFailure, chart_in_field, make_relation, sigma_check,
    standard_generator_rank, stabilization_scan,
)
from .reptheory import (
    Q1, Q2, algebra_map_checks, build_rho, chart_representation,
    commutator_conic_consistency, conics, determinantal_cubic, intersect_conics,
    irreducibility, split_determinantal_cubic, t_matrices, tq_rewrite,
)
from .scalars import (
    DegenerateSpecialization, FunctionField, PrimeField, QQ, is_probable_prime,
)

SCHEMA = "partabel-report/1"
SEED_ENV = "PARTABEL_SEED"


def _parse_fraction_tuple(s: str, n: int) -> tuple:
    s = s.strip().strip("()")
    parts = [p for p in s.replace(":", ",").split(",") if p.strip()]
    if len(parts) != n:
        raise ValueError(f"expected {n} coordinates, got {len(parts)}")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except ZeroDivisionError:
        raise ValueError(f"coordinate with a zero denominator in {s!r}") from None


def _field_for(cfg):
    if cfg.mode == "rational":
        return QQ
    return PrimeField(seeded_primes(cfg.seed, cfg.primes)[0])


def emit(cfg, command: str, results: dict, ok: bool, summary: str,
         started: float) -> int:
    report = {
        "schema": SCHEMA,
        "command": command,
        "config": {
            "point": [str(c) for c in cfg.point] if cfg.point else None,
            "chart": [str(c) for c in cfg.chart] if cfg.chart else None,
            "mode": cfg.mode,
            "primes": [str(p) for p in (cfg.primes or [])],
            "seed": cfg.seed,
            "nmax": cfg.nmax,
            "slack": cfg.slack,
            "count": cfg.count,
            "workers": cfg.workers,
        },
        "results": results,
        "verdict": {"ok": bool(ok), "summary": summary},
    }
    if cfg.timings:
        report["timing_seconds"] = round(time.time() - started, 3)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    print(("PASS" if ok else "FAIL") + f" {command}: {summary}")
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {cfg.out}")
    else:
        print(text)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_dims(cfg, t0) -> int:
    sig = Signature(3, 3)
    table = {}
    ok = True
    for k in range(0, 11):
        enum = filtration_dim(sig, k)
        closed = 2 ** (k + 2) - 3
        table[str(k)] = {"enumerated": enum, "closed_form": closed}
        ok = ok and enum == closed
    return emit(cfg, "dims", {"per_degree": table}, ok,
                "filtration dimensions match 2^(k+2)-3 for k = 0..10" if ok
                else "enumeration disagrees with the closed form", t0)


def cmd_verify42(cfg, t0) -> int:
    results = {}
    ok = True
    chart = _chart(cfg)
    for label, field in _verify_fields(cfg):
        y = chart_in_field(field, chart)
        rel = make_relation(field, chart=y)
        r = standard_generator_rank(rel)
        results[label] = r
        ok = ok and r["rank"] == 42 and r["degree4_bound"] == 19 \
            and r["rank_with_diagonal_conjugates"] == 42
    summary = ("53 canonical generators have rank 42 and degree-4 bound 19 "
               "in every domain" if ok else "generator rank mismatch")
    results["chart"] = [str(c) for c in chart]
    results["expected"] = {"rank": 42, "degree4_bound": 19, "source": "tabulated"}
    return emit(cfg, "verify42", results, ok, summary, t0)


def _verify_fields(cfg):
    out = [("rational", QQ)]
    for p in seeded_primes(cfg.seed, cfg.primes):
        out.append((f"prime_{p}", PrimeField(p)))
    return out


def cmd_bound(cfg, t0) -> int:
    field = _field_for(cfg)
    rel = make_relation(field, point=chart_in_field(field, _point(cfg)))
    rep = stabilization_scan(rel, 2, cfg.nmax, slack=cfg.slack,
                             window_cap=cfg.window_cap, with_closure=False)
    per = {str(n): {k: row[k] for k in ("dim_ambient", "counted_rank", "quotient_bound")}
           for n, row in rep.per_degree.items()}
    summary = (_cap_summary(cfg, rep.window, "") if rep.window < cfg.nmax + cfg.slack
               else f"span bounds computed to degree {cfg.nmax}")
    return emit(cfg, "bound", {"per_degree": per, "window": rep.window},
                True, summary, t0)


def _cap_summary(cfg, window: int, closure: str) -> str:
    return (f"--window-cap {window} ended the scan below window "
            f"{cfg.nmax + cfg.slack} (nmax + slack){closure}; "
            f"span bounds only up to degree {cfg.nmax}")


def cmd_scan(cfg, t0) -> int:
    field = _field_for(cfg)
    rel = make_relation(field, point=chart_in_field(field, _point(cfg)))
    rep = stabilization_scan(rel, 2, cfg.nmax, slack=cfg.slack,
                             window_cap=cfg.window_cap)
    results = rep.to_json(field)
    if rep.certificate:
        results["certificate"] = rep.certificate.to_json()
    ok = True
    if rep.stabilized_at:
        summary = (f"stabilized at degree {rep.stabilized_at} with bound "
                   f"{rep.certificate.dimension_bound}")
    elif rep.window < cfg.nmax + cfg.slack:
        summary = _cap_summary(cfg, rep.window, " without a closure")
    else:
        summary = "no stabilization up to degree %d (growth evidence)" % cfg.nmax
    return emit(cfg, "scan", results, ok, summary, t0)


def cmd_classify(cfg, t0) -> int:
    if not (cfg.point or cfg.chart):
        raise ValueError("classify needs --point x11,x12,x21,x22")
    verdict = classify_p3(QQ, chart_in_field(QQ, _point(cfg)))
    return emit(cfg, "classify", verdict.to_json(), True,
                f"verdict {verdict.tag}", t0)


def cmd_sigma(cfg, t0) -> int:
    rep = sigma_check()
    return emit(cfg, "sigma", rep, rep["all"],
                "symmetry identities hold exactly" if rep["all"]
                else "a symmetry identity failed", t0)


def cmd_zcentral(cfg, t0) -> int:
    rep = central_element_check()
    return emit(cfg, "zcentral", rep, rep["central"],
                "z = -p-q+pq+qp commutes with both generators"
                if rep["central"] else "central element check failed", t0)


def cmd_conics(cfg, t0) -> int:
    chart = _chart(cfg)
    tri = conics(QQ, chart)
    F5 = FunctionField(("y1", "y2", "y3", "z1", "z2"))
    gens = F5.gens()
    rho = build_rho(F5, gens[:3], gens[3:])
    consistency = commutator_conic_consistency(rho)
    rw = tq_rewrite(FunctionField(("y1", "y2", "y3")),
                    FunctionField(("y1", "y2", "y3")).gens())
    results = {
        "chart": [str(c) for c in chart],
        "c1": _biv_json(QQ, tri.c1),
        "c2": _biv_json(QQ, tri.c2),
        "c3": _biv_json(QQ, tri.c3),
        "commutator_consistency": consistency,
        "rewrite_verified_in_free_product": rw.verified_in_free_product,
        "rewrite_reference_mismatches": rw.reference_mismatches,
    }
    ok = consistency["equivalent"] and rw.verified_in_free_product
    return emit(cfg, "conics", results, ok,
                "conics match the commutator ideal up to unit factors" if ok
                else "conic consistency failed", t0)


def _biv_json(field, poly):
    return {f"z1^{i}*z2^{j}": field.fmt(c) for (i, j), c in sorted(poly.items())}


def cmd_detcurve(cfg, t0) -> int:
    chart = _chart(cfg)
    tri = conics(QQ, chart)
    cubic = determinantal_cubic(QQ, chart, tri)
    spec = intersect_conics(QQ, chart)
    split = split_determinantal_cubic(QQ, cubic, spec, tri)
    results = {
        "chart": [str(c) for c in chart],
        "cubic": {f"a1^{e[0]}*a2^{e[1]}*a3^{e[2]}": str(c)
                  for e, c in sorted(cubic.items())},
        "extension_degree": spec.extension_degree,
        "exact_split": {"splits": split.splits, "mode": split.mode,
                        "detail": split.detail},
    }
    if split.splits:
        summary = "determinantal cubic splits into three lines"
    elif split.splits is None:
        summary = f"split undecided: {split.detail}"
        if any(QQ.is_zero(v) for v in degeneracy_forms(QQ, (Fraction(1),) + chart)):
            summary += "; the chart lies on a degeneracy plane"
    else:
        summary = f"cubic did not split: {split.detail}"
    return emit(cfg, "detcurve", results, bool(split.splits), summary, t0)


def cmd_rep(cfg, t0) -> int:
    chart = _chart(cfg)
    field = _field_for(cfg)
    y = chart_in_field(field, chart)
    spec, rho = chart_representation(field, y)
    ext = spec.ext
    irr = irreducibility(rho)
    t1, t2 = t_matrices(field, y, rho)
    _, killed, identities = algebra_map_checks(make_relation(field, chart=y).element, rho)
    rw = tq_rewrite(FunctionField(("y1", "y2", "y3")),
                    FunctionField(("y1", "y2", "y3")).gens())
    results = {
        "chart": [str(c) for c in chart],
        "extension_degree": spec.extension_degree,
        "f_coeffs": [field.fmt(c) for c in spec.f_poly.coeffs],
        "factor_degrees": spec.factor_degrees,
        "disc_is_square": spec.disc_is_square,
        "resultant_degrees": [spec.resultant_12.degree, spec.resultant_13.degree],
        "intersection_point": {"z1": ext.fmt(spec.z1), "z2": ext.fmt(spec.z2)},
        "matrices": {
            name: [[ext.fmt(v) for v in row] for row in mat]
            for name, mat in (("t1", t1), ("t2", t2), ("q1", rho.letter_matrix(Q1)),
                              ("q2", rho.letter_matrix(Q2)))
        },
        "idempotent_identities": identities,
        "relation_killed": killed,
        "irreducibility": irr,
        "rewrite_reference_mismatches": rw.reference_mismatches,
    }
    ok = (results["idempotent_identities"] and results["relation_killed"]
          and irr["irreducible"])
    return emit(cfg, "rep", results, ok,
                "3-dimensional representation verified and irreducible" if ok
                else "representation checks failed", t0)


def cmd_wedderburn(cfg, t0) -> int:
    rep = certify_point_multi(_point(cfg), mode=cfg.mode, primes=cfg.primes, seed=cfg.seed,
                              n_max=cfg.nmax, slack=cfg.slack, force=cfg.force,
                              over_extension=True)
    return emit(cfg, "wedderburn", rep, rep["verdict_ok"], rep["verdict"], t0)


def _chart(cfg) -> tuple:
    """--chart, or else the chart of --point, or else the chart (y1, y2, y3)
    of the seeded sample point (1 : y1 : y2 : y3)."""
    if cfg.point and not cfg.chart:
        return _chart_of(cfg.point)
    return cfg.chart or sample_generic_points(cfg.seed, 1)[0][1:]


def _chart_of(x: tuple) -> tuple:
    """x/x11 for a --point x = (x11 : x12 : x21 : x22).  When x11 = 0 a swap
    of the factors would give a chart, but that of another point."""
    if not x[0]:
        raise ValueError("--point has x11 = 0 and so no chart; give --chart")
    return tuple(c / x[0] for c in x[1:])


def _point(cfg) -> tuple:
    """--point, or else (1 : y1 : y2 : y3) for the chart ``_chart`` picks."""
    return cfg.point or (Fraction(1),) + _chart(cfg)


def cmd_theorem(cfg, t0) -> int:
    pts = ([_point(cfg)] if cfg.point or cfg.chart
           else sample_generic_points(cfg.seed, cfg.count))
    jobs = [(x, cfg.mode, cfg.primes, cfg.seed, cfg.nmax, cfg.slack, cfg.force)
            for x in pts]
    if cfg.workers > 1 and len(jobs) > 1:
        results = _pool_map(theorem_point_worker, jobs, cfg.workers)
    else:
        results = [theorem_point_worker(j) for j in jobs]
    results.sort(key=lambda r: r["point"])
    ok = all(r["verdict_ok"] for r in results) and len(results) == len(pts)
    summary = ("dim S_x = 18, type k^9 (+) M3 at all %d points" % len(pts)
               if ok else "theorem verdict failed at some point")
    payload = {
        "points": results,
        "expected": {"dimension": 18, "type": "k^9 (+) M3", "source": "tabulated"},
    }
    return emit(cfg, "theorem", payload, ok, summary, t0)


def _pool_map(fn, jobs, workers):
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(fn, jobs))
    except (OSError, ImportError) as exc:
        print(f"worker pool unavailable ({exc}); running sequentially",
              file=sys.stderr)
        return [fn(j) for j in jobs]


COMMANDS = {
    "dims": cmd_dims,
    "verify42": cmd_verify42,
    "bound": cmd_bound,
    "scan": cmd_scan,
    "classify": cmd_classify,
    "sigma": cmd_sigma,
    "conics": cmd_conics,
    "detcurve": cmd_detcurve,
    "rep": cmd_rep,
    "wedderburn": cmd_wedderburn,
    "theorem": cmd_theorem,
    "zcentral": cmd_zcentral,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partabel",
        description="exact certificates for quotients of k^3 * k^3 by a "
                    "commutator relation")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--point", help="homogeneous point x11,x12,x21,x22 (or with colons)")
    ap.add_argument("--chart", help="chart triple y1,y2,y3 meaning (1:y1:y2:y3)")
    ap.add_argument("--mode", choices=["rational", "prime"],
                    default="prime")
    ap.add_argument("--primes", help="comma-separated primes for prime mode")
    ap.add_argument("--seed", type=int,
                    default=int(os.environ.get(SEED_ENV, "0")))
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--slack", type=int, default=4)
    ap.add_argument("--window-cap", type=int, default=None, dest="window_cap",
                    help="cap the product window of scan and bound (runtime control)")
    ap.add_argument("--out", help="write the JSON report to this path")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--count", type=int, default=1,
                    help="number of random points for the theorem command")
    ap.add_argument("--force", action="store_true",
                    help="attempt the pipeline even at suspected non-generic points")
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timing in the report "
                         "(breaks byte-for-byte determinism)")
    return ap


def _check_ranges(cfg) -> None:
    """Reject option values that would make a certificate vacuous or
    meaningless: no points or no workers, degrees below 2, a negative slack,
    a product window capped below the first closure window, primes small
    enough to divide the constants of the pipeline, or repeated (two runs
    over one prime would agree trivially), or a --point and a --chart that
    name different points (one of them would be ignored)."""
    if cfg.count < 1:
        raise ValueError(f"--count must be at least 1, got {cfg.count}")
    if cfg.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {cfg.workers}")
    if cfg.nmax < 2:
        raise ValueError(f"--nmax must be at least 2, got {cfg.nmax}")
    if cfg.slack < 0:
        raise ValueError(f"--slack must be at least 0, got {cfg.slack}")
    if cfg.window_cap is not None and cfg.window_cap < 2:
        raise ValueError(f"--window-cap must be at least 2, got {cfg.window_cap}")
    for p in cfg.primes or ():
        if not (2**31 <= p < 2**62 and is_probable_prime(p)):
            raise ValueError(f"--primes entry {p} is not a prime in [2^31, 2^62)")
    if cfg.primes and len(set(cfg.primes)) < len(cfg.primes):
        raise ValueError(f"--primes repeats an entry: {cfg.primes}")
    if cfg.point and cfg.chart and (not cfg.point[0] or _chart_of(cfg.point) != cfg.chart):
        raise ValueError("--point and --chart name different points")


def main(argv=None) -> int:
    t0 = time.time()
    ap = build_parser()
    try:
        cfg = ap.parse_args(argv)
        cfg.point = _parse_fraction_tuple(cfg.point, 4) if cfg.point else None
        cfg.chart = _parse_fraction_tuple(cfg.chart, 3) if cfg.chart else None
        cfg.primes = [int(p) for p in cfg.primes.split(",")] if cfg.primes else None
        _check_ranges(cfg)
    except SystemExit as exc:
        if exc.code:  # argparse has printed the usage error; exit 2 means a failed claim
            return 1
        raise
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[cfg.command](cfg, t0)
    except (DegenerateSpecialization, ClosureFailure) as exc:
        print(f"FAIL {cfg.command}: {exc}")
        return 2
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
