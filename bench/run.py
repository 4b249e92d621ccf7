#!/usr/bin/env python3
"""Layered benchmark for partabel's certified verdicts.

Run from the repository root:

    python3 bench/run.py --workload theorem_prime --seed 1 --seconds 25 --trace 0

Workloads: theorem_prime, anchors_rational, growth_scan, strata_mix (see
workloads.py and README.md).  Each is a closed loop, one client, one
process, no threads: the next op starts when the previous one returned.

``--trace 0`` times ops for ``--seconds`` seconds with tracing off and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of ops
(the workload's ``trace_ops``) once untraced and once traced, so that its
counts repeat exactly for a seed, and prints the per-layer metrics with the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: ``failed`` counts ops that raised,
gave no verdict or gave a wrong one, and ``correct`` is false when any
verdict was wrong.

Time metrics are calibrated to a reference speed: the host this runs on is
shared, and its speed drifts by half between phases.  A fixed piece of
pure-Python work (``reference_unit``) is timed between ops; each op's
seconds are scaled by ``REF_NOMINAL_S`` over the reference time around it.
The raw seconds and the host speed are printed too.

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
# the reference unit: REF_STEPS steps take REF_NOMINAL_S on a quiet 2-core
# x86-64 VM with Python 3.11.7; it is timed again every REF_EVERY_S
REF_STEPS = 20_000
REF_MOD = 2 ** 61 - 1
REF_NOMINAL_S = 0.009
REF_EVERY_S = 0.25
P90_MIN_OPS = 100
END_TO_END_UNITS = {
    "setup_s": "s", "op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s",
    "cpu_s_per_op": "s", "ops_failed_ratio": "ratio", "peak_rss_mb": "MB",
}
# reported on stdout but left out of the result line: p90 needs at least
# 100 ops, and the failed ratio is 0 when all is well (the line carries
# attempted and failed instead)
REPORT_ONLY = ("op_s.p90", "ops_failed_ratio")


def import_program():
    pkg = SRC / "partabel" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"bench: no program source at {pkg.parent}; "
                 "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import partabel
    if Path(partabel.__file__).resolve() != pkg.resolve():
        sys.exit(f"bench: imported partabel from {partabel.__file__}, not {pkg}")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "partabel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(args, workload, params) -> dict:
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "params": params,
        "seconds": args.seconds,
        "trace": args.trace,
        "claim": None,
    }


# -- calibration -------------------------------------------------------------------

def reference_unit() -> float:
    """Seconds taken by fixed integer multiply-mod and dict work, like the
    program's inner loops, with the collector off so that the program's
    heap does not change it.  It tracks how fast the host runs us now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        row, x = {}, 12345
        for _ in range(REF_STEPS):
            x = (x * 6364136223846793005 + 1442695040888963407) % REF_MOD
            row[x & 255] = (row.get(x & 255, 0) + x) % REF_MOD
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# -- ops ---------------------------------------------------------------------------

class OpLog:
    """Per-op wall and CPU times, failures and result hashes.  ``wrong``
    counts the failures whose verdict contradicts the expected answer; the
    rest raised or delivered no certified verdict."""

    def __init__(self, workload, params, expected):
        self.w, self.params, self.expected = workload, params, expected
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.refs: list[float] = []  # reference-unit times between ops
        self.segment: list[int] = []  # per op: index of the last reference before it
        self.failures: list[str] = []
        self.wrong = 0
        self.attempted = 0
        self.hashes: dict[int, str] = {}

    def run(self, i: int, inputs: list) -> None:
        from workloads import result_hash
        k = i % len(inputs)
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            res = self.w.op(inputs[k], self.params)
        except Exception:  # an op that raises is a failed op; keep measuring
            self._timed(t0, c0)
            self.failures.append(f"op {i} (input {k}) raised: "
                                 + traceback.format_exc(limit=3))
            return
        self._timed(t0, c0)
        h = result_hash(res)
        bad = [] if self.hashes.setdefault(k, h) == h else \
            [f"input {k} gave a different result on a repeat"]
        reason = self.w.undecided(res)
        if reason is None:
            bad += self.w.gate(res, self.expected)
        if bad:
            self.wrong += 1
            self.failures.append(f"op {i} (input {k}) wrong: " + "; ".join(bad))
        elif reason is not None:
            self.failures.append(f"op {i} (input {k}) undecided: {reason}")

    def _timed(self, t0: float, c0: float):
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        self.segment.append(len(self.refs) - 1)

    def factors(self) -> list[float]:
        """Per op: the nominal reference time over the mean of the
        reference times before and after it."""
        return [2 * REF_NOMINAL_S / (self.refs[j] + self.refs[j + 1])
                for j in self.segment]

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_ops(workload, params, expected, inputs, seconds: float, min_ops: int) -> OpLog:
    """Closed loop: ops back to back until ``seconds`` have passed and at
    least ``min_ops`` ops have run, with the reference unit timed before the
    first op, after the last, and between ops every ``REF_EVERY_S``."""
    log = OpLog(workload, params, expected)
    log.refs.append(reference_unit())
    last = time.perf_counter()
    deadline = last + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if time.perf_counter() - last >= REF_EVERY_S:
            log.refs.append(reference_unit())
            last = time.perf_counter()
        log.run(i, inputs)
        i += 1
    log.refs.append(reference_unit())
    return log


def determinism_digest(workload, params, inputs, log: OpLog) -> str:
    """sha256 over the results of the first ``digest_ops`` inputs and the
    structure digests of their closure certificates."""
    rows = []
    for k in range(min(params["digest_ops"], len(inputs))):
        rows.append({"input": k, "result": log.hashes.get(k),
                     "certificates": workload.certificates(inputs[k], params)})
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# -- set-up ------------------------------------------------------------------------

def probe_setup(args) -> int:
    """Child side of a set-up measurement: import, make inputs, report."""
    import_program()
    from workloads import WORKLOADS, inputs_hash
    w = WORKLOADS[args.workload]
    inputs = w.make_inputs(args.seed, getattr(w, args.size))
    print(inputs_hash(inputs), flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter until its inputs are
    ready, i.e. until the first op could be timed, and the calibration
    factor of each set-up from the reference units before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times, scale = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_unit()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        scale.append(2 * REF_NOMINAL_S / (before + reference_unit()))
    return times, scale


# -- metrics -----------------------------------------------------------------------

def p90(samples: list[float]) -> float | None:
    """Nearest-rank 90th percentile, only with at least 10 samples beyond it."""
    if len(samples) < P90_MIN_OPS:
        return None
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def time_metrics(setup: list[float], wall: list[float], cpu: list[float]) -> dict:
    n = len(wall)
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(wall),
        "op_s.p90": p90(wall),
        "ops_per_s": n / sum(wall),
        "cpu_s_per_op": sum(cpu) / n,
    }


def untraced(args, workload, params, expected) -> tuple:
    from workloads import inputs_hash
    setup, setup_scale = measure_setup(args)
    inputs = workload.make_inputs(args.seed, params)
    log = run_ops(workload, params, expected, inputs, args.seconds, params["digest_ops"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(log.wall)
    raw = time_metrics(setup, log.wall, log.cpu)
    factors = log.factors()
    metrics = time_metrics([t * f for t, f in zip(setup, setup_scale)],
                           [t * f for t, f in zip(log.wall, factors)],
                           [t * f for t, f in zip(log.cpu, factors)])
    metrics["ops_failed_ratio"] = log.failed / log.attempted
    metrics["peak_rss_mb"] = rss_mb
    notes = {
        "setup_s": f"median of {len(setup)} set-ups, each a fresh interpreter "
                   "importing partabel and making the inputs",
        "op_s.p50": f"{n} ops",
        "op_s.p90": (f"{n} ops, {n - math.ceil(0.9 * n)} beyond" if raw["op_s.p90"]
                     is not None else f"not reported: {n} ops < {P90_MIN_OPS}"),
        "ops_per_s": f"{n} ops over their summed op time",
        "cpu_s_per_op": f"process CPU over {n} ops",
        "ops_failed_ratio": f"{log.failed} failed / {log.attempted} attempted, "
                            f"{log.wrong} of them wrong",
        "peak_rss_mb": "max resident set of this process",
    }
    speed = REF_NOMINAL_S / statistics.median(log.refs)
    print(f"  host speed {speed:.3f} of the reference ({len(log.refs)} reference "
          "units); times below are calibrated to it, raw seconds in brackets")
    for name, value in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        if raw.get(name) is not None:
            shown += f" [{raw[name]:.6g}]"
        print(f"  {name:<17} {shown:>22} {END_TO_END_UNITS[name]:<5} ({notes[name]})")
    extra = {
        "raw": raw,
        "host_speed": speed,
        "setup_samples_s": setup,
        "inputs_sha256": inputs_hash(inputs),
        "digest": determinism_digest(workload, params, inputs, log),
        "failures": log.failures[:20],
    }
    result = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
              for name, v in metrics.items() if name not in REPORT_ONLY}
    return log, result, extra


def traced(args, workload, params, expected) -> tuple:
    import spans
    from workloads import inputs_hash
    n = params["trace_ops"]
    inputs = workload.make_inputs(args.seed, params)
    plain = OpLog(workload, params, expected)
    plain.run(0, inputs)  # warm-up: lazy imports happen before either timed pass
    t0 = time.perf_counter()
    for i in range(n):
        plain.run(i, inputs)
    plain_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        inputs = workload.make_inputs(args.seed, params)
        log = OpLog(workload, params, expected)
        t0 = time.perf_counter()
        for i in range(n):
            tracer.op = i
            rec = tracer.open("op")
            try:
                log.run(i, inputs)
            finally:
                tracer.close(rec)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    log.failures += plain.failures
    log.attempted += plain.attempted
    log.wrong += plain.wrong

    metrics = spans.layer_metrics(tracer, traced_s / plain_s)
    print(f"  {n} ops traced; {len(tracer.spans)} spans; tracing overhead "
          f"{traced_s:.3f} s traced / {plain_s:.3f} s untraced wall")
    print("  note: scalars.domain_ops.calls counts add, sub, mul, div and inv on "
          "QQ and PrimeField objects; the mod-p sparse echelon does inline "
          "integer arithmetic and is not in this count")
    if tracer.missing:
        print(f"  missing wrapped names (metrics read 0): {', '.join(tracer.missing)}")
    for name, value in metrics.items():
        unit, _, moves, where = spans.LAYER_METRICS[name]
        print(f"  {name:<38} {value:>14.6g} {unit:<5} -> {moves} on {where}")

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-{args.size}"
    tracer.dump(OUT / f"spans-{tag}.jsonl")
    counts = {k: v for k, v in metrics.items() if spans.is_count(k)}
    drift = count_drift(OUT / f"counts-{tag}.json", counts)
    if drift is None:
        print("  count repeat check: no earlier traced run of this code and seed")
    elif drift:
        print(f"  count repeat check: DRIFT in {len(drift)} counts: {drift}")
    else:
        print(f"  count repeat check: all {len(counts)} counts equal the earlier "
              "traced run of this code and seed")
    extra = {"inputs_sha256": inputs_hash(inputs), "missing": tracer.missing,
             "count_drift": drift, "failures": log.failures[:20]}
    result = {name: {"value": v, "unit": spans.LAYER_METRICS[name][0]}
              for name, v in metrics.items()}
    return log, result, extra


def count_drift(path: Path, counts: dict) -> dict | None:
    """Compare counts with the previous traced run of the same source, seed
    and size, then store these; returns None when there is nothing to compare."""
    key = src_digest()
    previous = None
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved.get("src_sha256") == key:
            previous = saved["counts"]
    path.write_text(json.dumps({"src_sha256": key, "counts": counts}, sort_keys=True))
    if previous is None:
        return None
    return {k: [previous.get(k), v] for k, v in counts.items() if previous.get(k) != v}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke-test size")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    params = getattr(w, args.size)
    mode = "traced" if args.trace else "untraced"
    print(f"partabel benchmark: workload {w.name}, seed {args.seed}, {mode}, "
          f"size {args.size} {params}")
    print(f"  why: {w.why}")
    log, result, extra = (traced if args.trace else untraced)(args, w, params, w.expected)
    for f in log.failures[:5]:
        print(f"  FAILED {f.strip()}")
    print("report " + json.dumps({"stamp": stamp(args, w, params), **extra},
                                 sort_keys=True, default=str))
    print(json.dumps({"correct": log.wrong == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
