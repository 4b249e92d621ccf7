import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from partabel import cli
from partabel.cli import main

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_dims_command(tmp_path):
    code, rep = run_cli(["dims"], tmp_path)
    assert code == 0
    assert rep["schema"] == "partabel-report/1"
    assert rep["verdict"]["ok"]
    assert rep["results"]["per_degree"]["10"]["enumerated"] == 4093


def test_verify42_command(tmp_path):
    code, rep = run_cli(["verify42", "--chart", "2,3,7", "--seed", "4"], tmp_path)
    assert code == 0
    assert rep["results"]["rational"]["rank"] == 42
    assert rep["results"]["rational"]["degree4_bound"] == 19
    prime_keys = [k for k in rep["results"] if k.startswith("prime_")]
    assert len(prime_keys) == 2
    for k in prime_keys:
        assert rep["results"][k]["rank"] == 42


def test_scan_and_bound_commands(tmp_path):
    code, rep = run_cli(["scan", "--chart", "2,3,7", "--mode", "prime"], tmp_path)
    assert code == 0
    assert rep["results"]["stabilized_at"] == 4
    assert rep["results"]["certificate"]["dimension_bound"] == 18
    assert len(rep["results"]["certificate"]["structure_constants_digest"]) == 64
    code, rep = run_cli(["bound", "--chart", "2,3,7", "--nmax", "4", "--mode", "prime"], tmp_path)
    assert code == 0
    assert rep["results"]["per_degree"]["4"]["quotient_bound"] <= 19


def test_classify_command_examples(tmp_path):
    code, rep = run_cli(["classify", "--point", "1,0,0,0"], tmp_path)
    assert code == 0 and rep["results"]["verdict"] == "quadric_point_mid_inf"
    code, rep = run_cli(["classify", "--point", "1:2:2:4"], tmp_path)
    assert code == 0 and rep["results"]["verdict"] == "quadric_k9_mid1"
    code, rep = run_cli(["classify", "--point", "1,0,0,-1"], tmp_path)
    assert code == 0 and rep["results"]["verdict"] == "known_infinite_dim"


def test_sigma_and_zcentral(tmp_path):
    code, rep = run_cli(["sigma"], tmp_path)
    assert code == 0 and rep["verdict"]["ok"]
    code, rep = run_cli(["zcentral"], tmp_path)
    assert code == 0 and rep["results"]["central"]


def test_theorem_single_point(tmp_path):
    code, rep = run_cli(["theorem", "--chart", "2,3,7", "--seed", "8"], tmp_path)
    assert code == 0
    pt = rep["results"]["points"][0]
    assert pt["verdict_ok"]
    runs = pt["runs"]
    assert len(runs) == 2  # two primes
    for r in runs:
        assert r["upper_bound"] == 18 and r["lower_bound"] == 18
        assert r["exact_dimension"] == 18


def test_theorem_known_bad_point_exits_2(tmp_path):
    code, rep = run_cli(["theorem", "--point", "1,0,0,-1"], tmp_path)
    assert code == 2
    assert not rep["verdict"]["ok"]


def test_wedderburn_quadric_point_exits_2(tmp_path):
    code, _ = run_cli(["wedderburn", "--point", "1,2,2,4"], tmp_path)
    assert code == 2


def test_usage_error_exits_1(tmp_path):
    assert main(["classify", "--point", "1,2"]) == 1


def test_determinism_byte_identical(tmp_path):
    code1, _ = run_cli(["theorem", "--chart", "2,3,7", "--seed", "5"], tmp_path, "a.json")
    code2, _ = run_cli(["theorem", "--chart", "2,3,7", "--seed", "5"], tmp_path, "b.json")
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PARTABEL_SEED", "12345")
    from partabel.cli import build_parser
    cfg = build_parser().parse_args(["dims"])
    assert cfg.seed == 12345


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "partabel", "dims", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, cwd=str(PKG_ROOT))
    assert proc.returncode == 0
    assert "PASS dims" in proc.stdout


def test_explicit_primes_flag(tmp_path):
    code, rep = run_cli(["verify42", "--chart", "2,3,7",
                         "--primes", "1099511627791,2199023255579"], tmp_path)
    assert code == 0
    assert "prime_1099511627791" in rep["results"]
    assert "prime_2199023255579" in rep["results"]


def test_force_flag_at_degenerate_point_exits_2(tmp_path):
    code, _ = run_cli(["wedderburn", "--point", "1,1,2,3", "--force",
                       "--nmax", "5", "--slack", "1"], tmp_path)
    assert code == 2


def test_window_cap_flag(tmp_path):
    code, rep = run_cli(["scan", "--point", "1,0,0,-1", "--slack", "4",
                         "--window-cap", "8"], tmp_path)
    assert code == 0
    assert rep["results"]["window"] == 8


def test_theorem_count_zero_exits_1(capsys):
    # a claim over zero points is vacuous, not checked
    assert main(["theorem", "--count", "0"]) == 1
    out = capsys.readouterr()
    assert "--count" in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize("command", ["bound", "scan", "wedderburn", "theorem"])
@pytest.mark.parametrize("nmax", ["-3", "0", "1"])
def test_nmax_below_2_exits_1(command, nmax, capsys):
    assert main([command, "--chart", "2,3,7", "--nmax", nmax]) == 1
    out = capsys.readouterr()
    assert "--nmax" in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize("primes, bad", [
    ("2,3", "2"),
    ("1099511627791,3", "3"),
    ("2147483647,2199023255579", "2147483647"),    # prime, below 2^31
    ("1099511627791,1099511627793", "1099511627793"),  # composite
])
def test_unfit_primes_exit_1_naming_the_entry(primes, bad, capsys):
    assert main(["theorem", "--count", "1", "--primes", primes]) == 1
    out = capsys.readouterr()
    assert f"--primes entry {bad} " in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("args, option", [
    (["scan", "--window-cap", "1"], "--window-cap"),
    (["scan", "--window-cap", "-2"], "--window-cap"),
    (["bound", "--nmax", "4", "--slack", "-5"], "--slack"),
    (["scan", "--slack", "-1"], "--slack"),
])
def test_window_cap_below_2_and_negative_slack_exit_1(args, option, capsys):
    # a cap below the first closure window, or a negative slack, reports
    # growth evidence or bounds that were never computed
    assert main(args + ["--chart", "2,3,7"]) == 1
    out = capsys.readouterr()
    assert option in out.err
    assert "PASS" not in out.out


def test_capped_scan_without_closure_says_the_cap_ended_it(tmp_path):
    # closure at (1:2:3:7) needs window 4; a cap of 3 proves nothing about growth
    code, rep = run_cli(["scan", "--chart", "2,3,7", "--window-cap", "3"], tmp_path)
    assert code == 0
    summary = rep["verdict"]["summary"]
    assert "growth evidence" not in summary
    assert "--window-cap 3" in summary and "span bounds" in summary
    code, rep = run_cli(["scan", "--chart", "2,3,7", "--window-cap", "4"], tmp_path)
    assert code == 0
    assert rep["verdict"]["summary"] == "stabilized at degree 4 with bound 18"


def test_config_echoes_exactly_the_given_primes(tmp_path):
    # one given prime is topped up with a seeded one for the run; the
    # report's config still shows only the prime the user gave
    code, rep = run_cli(["wedderburn", "--chart", "2,3,7",
                         "--primes", "2305843009213693951"], tmp_path)
    assert code == 0
    assert rep["config"]["primes"] == ["2305843009213693951"]
    domains = [r["domain"] for r in rep["results"]["runs"]]
    assert domains[0] == "prime(2305843009213693951)" and len(domains) == 2


def test_prime_mode_bound_runs_on_the_first_prime_of_theorem(tmp_path, monkeypatch):
    code, rep = run_cli(["theorem", "--chart", "2,3,7", "--seed", "3"], tmp_path)
    assert code == 0
    first = rep["results"]["points"][0]["runs"][0]["domain"]
    used = []
    real = cli.PrimeField
    monkeypatch.setattr(cli, "PrimeField", lambda p: used.append(p) or real(p))
    code, _ = run_cli(["bound", "--chart", "2,3,7", "--nmax", "3", "--seed", "3",
                       "--mode", "prime"], tmp_path, "bound.json")
    assert code == 0
    assert used and first == f"prime({used[0]})"


def test_bound_honours_window_cap(tmp_path):
    code, rep = run_cli(["bound", "--chart", "2,3,7", "--nmax", "4",
                         "--window-cap", "3"], tmp_path)
    assert code == 0
    assert rep["results"]["window"] == 3
    assert rep["verdict"]["summary"] == (
        "--window-cap 3 ended the scan below window 8 (nmax + slack); "
        "span bounds only up to degree 4")
    code, rep = run_cli(["bound", "--chart", "2,3,7", "--nmax", "4", "--slack", "1",
                         "--window-cap", "9"], tmp_path)
    assert code == 0
    assert rep["results"]["window"] == 5
    assert rep["verdict"]["summary"] == "span bounds computed to degree 4"


@pytest.mark.parametrize("args", [["bound", "--mode", "symbolic"],
                                  ["scan", "--nmax", "x"], ["nosuchcommand"]])
def test_argument_errors_exit_1(args, capsys):
    # argparse exits 2 on its own, which reads as "claim failed"
    assert main(args) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("chart, degree", [
    ("2,3,7", 3), ("-1,3,1", 2), ("3/4,-3/2,-1", 2), ("-1,5,3", 1),
])
def test_detcurve_certifies_the_split_exactly(chart, degree, tmp_path):
    code, rep = run_cli(["detcurve", f"--chart={chart}"], tmp_path)
    assert code == 0
    assert rep["results"]["extension_degree"] == degree
    split = rep["results"]["exact_split"]
    assert split["splits"] is True, split
    assert "numeric_split" not in rep["results"]


def test_detcurve_names_the_reason_when_the_split_is_undecided(tmp_path):
    # f has a repeated root at (1:-5:2:2) and two singular points of the
    # cubic are conjugate, so the singular-point test cannot decide; the
    # report says why instead of passing on a floating-point residual
    code, rep = run_cli(["detcurve", "--chart=-5,2,2"], tmp_path)
    assert code == 2
    split = rep["results"]["exact_split"]
    assert split["splits"] is None
    assert split["detail"] and split["detail"] in rep["verdict"]["summary"]


def test_detcurve_has_no_tolerance_option(capsys):
    assert main(["detcurve", "--chart", "2,3,7", "--tol", "1e-9"]) == 1
    assert "--tol" in capsys.readouterr().err


def test_package_runs_without_numpy(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import partabel\n"
        "from partabel.cli import main\n"
        "assert main(['detcurve', '--chart', '2,3,7', '--out', sys.argv[1]]) == 0\n"
        "assert main(['theorem', '--count', '1', '--out', sys.argv[2]]) == 0\n"
        "assert sys.modules['numpy'] is None\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "d.json"), str(tmp_path / "t.json")],
        capture_output=True, text=True, cwd=str(PKG_ROOT),
        env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert "PASS detcurve" in proc.stdout and "PASS theorem" in proc.stdout
