"""The benchmark's four workloads.

Each workload makes its inputs from a seed, runs one op on one input
through partabel's public functions, and gates the op's result against the
paper's known answer.  Only the generated inputs reach the program.

An op fails when it raises, when it delivers no certified verdict
(``undecided``: a degenerate resample), or when its verdict misses the
expected value (``gate``).  Only the last is a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from partabel import classify, pipeline, quotient, reptheory
from partabel.scalars import QQ, PrimeField, random_prime

# primes of about 2^61, drawn from the workload seed
PRIME_LO, PRIME_HI = 2 ** 60, 2 ** 61

INFINITE_POINT = (1, 0, 0, -1)


@dataclass(frozen=True)
class Workload:
    """One workload: input-size parameters at full and smoke-test size,
    the input generator, the op, its verdict checks and expected values,
    and the certificates folded into the determinism digest."""

    name: str
    why: str
    full: dict
    tiny: dict
    expected: dict
    make_inputs: Callable[[int, dict], list]
    op: Callable[[object, dict], dict]
    undecided: Callable[[dict], str | None]
    gate: Callable[[dict, dict], list]
    certificates: Callable[[object, dict], list]


def result_hash(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def inputs_hash(inputs: list) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def _primes(rng: random.Random, count: int) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        p = random_prime(rng, PRIME_LO, PRIME_HI)
        if p not in out:
            out.append(p)
    return out


def _structure_digest(field, x) -> str:
    rel = quotient.make_relation(field, point=tuple(_in_field(field, c) for c in x))
    cert, _ = quotient.closure_certificate(rel)
    return cert.structure_digest()


def _in_field(field, c):
    if isinstance(field, PrimeField):
        return field.from_fraction(Fraction(c))
    return Fraction(c)


# -- theorem_prime and anchors_rational ------------------------------------------

def _theorem_inputs(seed: int, params: dict) -> list:
    rng = random.Random(seed)
    primes = _primes(rng, 2) if params["mode"] == "prime" else None
    points = pipeline.sample_generic_points(seed, params["points"])
    return [(x, primes) for x in points]


def _theorem_op(inp, params: dict) -> dict:
    x, primes = inp
    return pipeline.theorem_point_worker(
        (x, params["mode"], primes, 0, params["n_max"], params["slack"], False))


def _theorem_undecided(res: dict) -> str | None:
    return None if res.get("runs") else res.get("verdict", "no domain runs")


def _theorem_gate(res: dict, exp: dict) -> list:
    runs = res.get("runs", [])
    bad = []
    if len(runs) != exp["domains"]:
        bad.append(f"{len(runs)} domain runs, expected {exp['domains']} "
                   f"({res.get('verdict')})")
    if not res.get("agreement"):
        bad.append("domains disagree")
    for r in runs:
        got = (r["upper_bound"], r["lower_bound"], r["exact_dimension"])
        if got != (exp["dimension"],) * 3:
            bad.append(f"{r['domain']}: upper, lower, exact = {got}, "
                       f"expected {exp['dimension']}")
    return bad


def _theorem_certificates(inp, params: dict) -> list:
    x, primes = inp
    fields = [PrimeField(p) for p in primes] if primes else [QQ]
    return [_structure_digest(f, x) for f in fields]


# -- growth_scan -----------------------------------------------------------------

def _growth_inputs(seed: int, params: dict) -> list:
    return _primes(random.Random(seed), params["primes"])


def _growth_op(p: int, params: dict) -> dict:
    f = PrimeField(p)
    rel = quotient.make_relation(f, point=tuple(f.from_int(c) for c in INFINITE_POINT))
    rep = quotient.stabilization_scan(rel, params["n_from"], params["n_to"],
                                      slack=params["slack"],
                                      window_cap=params["window_cap"])
    return rep.to_json(f)


def _growth_gate(res: dict, exp: dict) -> list:
    bad = []
    if res["stabilized_at"] is not None:
        bad.append(f"stabilized at {res['stabilized_at']}, expected no stabilization")
    bounds = {int(n): row["quotient_bound"] for n, row in res["per_degree"].items()}
    for n, want in exp["bounds"].items():
        if n in bounds and bounds[n] != want:
            bad.append(f"bound at degree {n} is {bounds[n]}, expected {want}")
    missing = [s for s in exp["note_has"] if s not in res["note"]]
    if missing:
        bad.append(f"note {res['note']!r} lacks {missing}")
    return bad


def _growth_certificates(p, params: dict) -> list:
    return []  # the scan never stabilizes here, so there is no certificate


# -- strata_mix ------------------------------------------------------------------

def _strata_inputs(seed: int, params: dict) -> list:
    rng = random.Random(seed)
    quadric = []
    while len(quadric) < params["pairs"]:
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        x = (Fraction(1), a, b, a * b)
        if not classify.lines_through(QQ, x):
            quadric.append(x)
    k = params["candidates"]
    drawn = [x[1:] for x in pipeline.sample_generic_points(seed, k * len(quadric))]
    return [(x, tuple(drawn[k * i:k * i + k])) for i, x in enumerate(quadric)]


def _strata_op(inp, params: dict) -> dict:
    x, candidates = inp
    tag = classify.classify_p3(QQ, x).tag
    quad = pipeline.certify_quadric_point(QQ, x, n_max=params["n_max"],
                                          slack=params["slack"])
    # The first candidate chart whose conics meet over a cubic extension
    # (factor pattern 3), where split_determinantal_cubic certifies the
    # split.  Charts with pattern (1, 2) or (1, 1, 1) are passed over, as
    # quadric lines are when the inputs are made: on (1, 2) only the numeric
    # fallback decides, and it fails on some of them (see README.md).
    for skipped, y in enumerate(candidates):
        spec = reptheory.intersect_conics(QQ, y)
        if spec.extension_degree == 3:
            break
    else:
        raise RuntimeError(f"none of the {len(candidates)} candidate charts "
                           "has factor pattern 3")
    # the detcurve command's stages and split rule
    tri = reptheory.conics(QQ, y)
    cubic = reptheory.determinantal_cubic(QQ, y, tri)
    exact = reptheory.split_determinantal_cubic(QQ, cubic, spec, tri)
    numeric = reptheory.split_into_lines(QQ, cubic, tol=params["tol"])
    return {
        "tag": tag,
        "quadric": quad,
        "chart": [str(c) for c in y],
        "charts_passed_over": skipped,
        "factor_degrees": spec.factor_degrees,
        "exact_split": bool(exact.splits),
        "numeric_split": numeric.splits,
    }


def _strata_gate(res: dict, exp: dict) -> list:
    bad = []
    if res["tag"] != exp["tag"]:
        bad.append(f"classified {res['tag']}, expected {exp['tag']}")
    quad = res["quadric"]
    if quad["exact_dimension"] != exp["quadric_dimension"] or not quad["commutative"]:
        bad.append(f"quadric certificate exact {quad['exact_dimension']}, "
                   f"commutative {quad['commutative']}")
    if not (res["exact_split"] or res["numeric_split"]):
        bad.append(f"cubic at chart {res['chart']} did not split")
    return bad


def _strata_certificates(inp, params: dict) -> list:
    return [_structure_digest(QQ, inp[0])]


THEOREM_EXPECTED = {"dimension": 18}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="theorem_prime",
        why="the main theorem over two seeded ~2^61 primes: closure, then the "
            "representation and Wedderburn checks over GF(p) and its cubic extension",
        full={"mode": "prime", "points": 256, "n_max": 8, "slack": 4,
              "digest_ops": 6, "trace_ops": 20},
        tiny={"mode": "prime", "points": 3, "n_max": 8, "slack": 4,
              "digest_ops": 1, "trace_ops": 1},
        expected={**THEOREM_EXPECTED, "domains": 2},
        make_inputs=_theorem_inputs, op=_theorem_op,
        undecided=_theorem_undecided, gate=_theorem_gate,
        certificates=_theorem_certificates,
    ),
    Workload(
        name="anchors_rational",
        why="the same stages over QQ: fraction growth, generic sparse echelon, "
            "dense elimination and the Wedderburn trace form dominate",
        full={"mode": "rational", "points": 64, "n_max": 8, "slack": 4,
              "digest_ops": 2, "trace_ops": 5},
        tiny={"mode": "rational", "points": 2, "n_max": 8, "slack": 4,
              "digest_ops": 1, "trace_ops": 1},
        expected={**THEOREM_EXPECTED, "domains": 1},
        make_inputs=_theorem_inputs, op=_theorem_op,
        undecided=_theorem_undecided, gate=_theorem_gate,
        certificates=_theorem_certificates,
    ),
    Workload(
        name="growth_scan",
        why="capped scan at (1:0:0:-1): wide windows where most rows reduce to "
            "zero; sparse echelon at scale, no representation theory",
        full={"primes": 32, "n_from": 2, "n_to": 8, "slack": 4, "window_cap": 10,
              "digest_ops": 2, "trace_ops": 2},
        tiny={"primes": 2, "n_from": 2, "n_to": 6, "slack": 4, "window_cap": 7,
              "digest_ops": 1, "trace_ops": 1},
        expected={"bounds": {4: 24, 5: 30, 6: 36, 7: 42, 8: 48},
                  "note_has": ("evidence", "not a proof")},
        make_inputs=_growth_inputs, op=_growth_op,
        undecided=lambda res: None, gate=_growth_gate,
        certificates=_growth_certificates,
    ),
    Workload(
        name="strata_mix",
        why="a quadric point through classify and the 9-dim commutative closure, "
            "plus one pattern-3 chart through the detcurve cubic-splitting stages",
        full={"pairs": 512, "candidates": 4, "n_max": 8, "slack": 4, "tol": 1e-9,
              "digest_ops": 8, "trace_ops": 40},
        tiny={"pairs": 3, "candidates": 4, "n_max": 8, "slack": 4, "tol": 1e-9,
              "digest_ops": 1, "trace_ops": 2},
        expected={"tag": "quadric_k9_mid1", "quadric_dimension": 9},
        make_inputs=_strata_inputs, op=_strata_op,
        undecided=lambda res: None, gate=_strata_gate,
        certificates=_strata_certificates,
    ),
)}
