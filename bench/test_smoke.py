"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

run.import_program()
import workloads  # noqa: E402  (needs the program on sys.path)

WRONG_EXPECTED = {
    "theorem_prime": {"dimension": 17},
    "anchors_rational": {"dimension": 17},
    "growth_scan": {"bounds": {4: 25}},
    "strata_mix": {"quadric_dimension": 8},
}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
    return report, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(spans.LAYER_METRICS)
    for m in SPEC["per_layer"]:
        assert m["unit"] == spans.LAYER_METRICS[m["name"]][0]
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    proc = bench(name, 3, 0)
    report, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    for name_ in run.END_TO_END_UNITS:  # p90 and the failed ratio too
        assert f"  {name_} " in proc.stdout
    stamp = report["stamp"]
    for key in ("git_sha", "nproc", "python", "numpy", "seed", "params"):
        assert key in stamp
    assert report["host_speed"] > 0 and report["raw"]["op_s.p50"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_gate_counts_a_wrong_expected_value(name):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(5, w.tiny)
    good = run.run_ops(w, w.tiny, w.expected, inputs, 0, 1)
    assert good.failed == 0, good.failures
    wrong = {**w.expected, **WRONG_EXPECTED[name]}
    log = run.run_ops(w, w.tiny, wrong, inputs, 0, 1)
    assert log.attempted == 1 and log.failed == 1 and log.wrong == 1


def test_strata_op_passes_over_charts_without_factor_pattern_3():
    w = workloads.WORKLOADS["strata_mix"]
    x, candidates = w.make_inputs(2, w.tiny)[0]
    pattern_1_2 = tuple(workloads.Fraction(c) for c in ("3/4", "-3/2", "-1"))
    res = w.op((x, (pattern_1_2,) + candidates), w.tiny)
    assert res["charts_passed_over"] >= 1 and res["factor_degrees"] == [3]
    assert res["exact_split"] is True and w.gate(res, w.expected) == []
    with pytest.raises(RuntimeError):
        w.op((x, (pattern_1_2,)), w.tiny)


def test_digest_repeats_for_a_seed_and_inputs_follow_the_seed():
    first, _ = parse(bench("strata_mix", 7, 0))
    again, _ = parse(bench("strata_mix", 7, 0))
    other, _ = parse(bench("strata_mix", 8, 0))
    assert first["digest"] == again["digest"]
    assert first["inputs_sha256"] == again["inputs_sha256"]
    assert first["inputs_sha256"] != other["inputs_sha256"]


@pytest.mark.parametrize("name", ["theorem_prime", "growth_scan", "strata_mix"])
def test_traced_counts_repeat_exactly(name):
    _, a = parse(bench(name, 4, 1))
    report, b = parse(bench(name, 4, 1))
    assert set(a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [k for k in a["metrics"] if spans.is_count(k)]
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    assert report["count_drift"] == {}
    assert a["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_missing_wrapped_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "SPANNED_FUNCTIONS",
                        spans.SPANNED_FUNCTIONS + [("quotient", "no_such_function")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        w = workloads.WORKLOADS["growth_scan"]
        w.op(w.make_inputs(1, w.tiny)[0], w.tiny)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["quotient.no_such_function"]
    assert spans.layer_metrics(tracer, 1.0)["quotient.window_7.rows"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("theorem_prime", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
