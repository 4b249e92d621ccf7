import hashlib
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


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_1_exits_1(workers, capsys):
    assert main(["theorem", "--count", "2", "--workers", workers]) == 1
    out = capsys.readouterr()
    assert "--workers" in out.err
    assert "PASS" not in out.out


def test_worker_pool_is_capped_at_the_job_count(tmp_path, monkeypatch):
    # a stand-in pool that runs the jobs in order: no process is started
    import concurrent.futures
    sizes = []

    class InOrderPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InOrderPool)
    code, rep = run_cli(["theorem", "--count", "2", "--workers", "64"], tmp_path)
    assert code == 0 and len(rep["results"]["points"]) == 2
    assert sizes == [2]


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


@pytest.mark.parametrize("args", [
    ["wedderburn", "--chart", "2,3,7"],
    ["theorem", "--count", "1"],
])
def test_repeated_primes_exit_1(args, capsys):
    # two runs over one prime agree trivially: the two-prime check would be
    # vacuous
    p = "4611686018427387847"
    assert main(args + ["--primes", f"{p},{p}"]) == 1
    out = capsys.readouterr()
    assert "--primes" in out.err and "repeat" in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize("args", [
    ["wedderburn", "--chart", "1/0,2,3"],
    ["wedderburn", "--chart", "1,2,-3/0"],
    ["classify", "--point", "1,2,0/0,4"],
    ["theorem", "--point", "1/0,1,2,3"],
])
def test_zero_denominator_is_a_usage_error(args, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "denominator" in err
    assert "Traceback" not in err


def test_a_chart_command_takes_the_chart_of_its_point(tmp_path):
    # --point x runs a chart command at x/x11, the chart of x itself
    code, by_point = run_cli(["detcurve", "--point", "2,4,6,14"], tmp_path, "p.json")
    assert code == 0
    _, by_chart = run_cli(["detcurve", "--chart", "2,3,7"], tmp_path, "c.json")
    assert by_point["results"] == by_chart["results"]
    code, rep = run_cli(["classify", "--point", "2,4,6,14", "--chart", "2,3,7"], tmp_path)
    assert code == 0 and rep["config"]["point"] == ["2", "4", "6", "14"]


@pytest.mark.parametrize("args, message", [
    # x11 = 0: the chart of a swapped point would be another point's chart
    (["detcurve", "--point", "0,1,2,3"], "--chart"),
    (["rep", "--point", "0,1,2,3"], "--chart"),
    # one of two points would be dropped without a word
    (["theorem", "--point", "1,2,3,7", "--chart", "2,3,5"], "different points"),
    (["detcurve", "--point", "1,2,3,7", "--chart", "2,3,5"], "different points"),
    (["wedderburn", "--point", "0,1,2,3", "--chart", "1,2,3"], "different points"),
])
def test_a_point_without_a_chart_or_two_different_points_exit_1(args, message, capsys):
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.err.startswith("usage error:") and message in out.err
    assert "PASS" not in out.out


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
    # f has a double root: at (1:-5:2:2) two base points lie above it and span
    # the line z1 = -2; at (1:-3:2:-2) a single one does, and the line joins
    # it to the base point above the other root
    ("-5,2,2", 1), ("-3,2,-2", 1),
])
def test_detcurve_certifies_the_split_exactly(chart, degree, tmp_path):
    code, rep = run_cli(["detcurve", f"--chart={chart}"], tmp_path)
    assert code == 0
    assert rep["results"]["extension_degree"] == degree
    split = rep["results"]["exact_split"]
    assert split["splits"] is True, split
    assert "numeric_split" not in rep["results"]


@pytest.mark.parametrize("y1", ["2", "-5"])
def test_detcurve_splits_when_two_base_points_lie_above_a_triple_root(y1, tmp_path):
    # f = (z - 1)^3 at (1:y1:-1:-1): the three conics meet above z1 = 1 in
    # the two rational base points z2 = 0 and z2 = 4, and the line z1 = 1
    # through them certifies the split
    code, rep = run_cli(["detcurve", f"--chart={y1},-1,-1"], tmp_path)
    assert code == 0
    assert rep["results"]["extension_degree"] == 1
    split = rep["results"]["exact_split"]
    assert split["splits"] is True and split["mode"] == "exact-base"


def test_detcurve_with_four_digit_coordinates_finishes(tmp_path):
    """The conic intersection finds the cubic's rational roots in time
    polynomial in their bit length: by divisor enumeration this chart ran
    for more than 100 s on a 2-core x86-64 VM."""
    proc = subprocess.run(
        [sys.executable, "-m", "partabel", "detcurve", "--chart", "5003,4999,7",
         "--out", str(tmp_path / "d.json")],
        capture_output=True, text=True, cwd=str(PKG_ROOT), timeout=60,
        env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


def test_detcurve_names_the_reason_when_the_split_is_undecided(tmp_path):
    # f = z^3 at (1:1:-1:2): one base point over QQ, so no two to join; the
    # report says why, and that the point lies on a degeneracy plane
    code, rep = run_cli(["detcurve", "--chart=1,-1,2"], tmp_path)
    assert code == 2
    split = rep["results"]["exact_split"]
    assert split["splits"] is None
    assert split["detail"] and split["detail"] in rep["verdict"]["summary"]
    assert "degeneracy plane" in rep["verdict"]["summary"]


@pytest.mark.parametrize("command", ["detcurve", "rep"])
@pytest.mark.parametrize("chart", ["0,-5,0", "-5,-1,5"])
def test_quadric_chart_exits_2_naming_the_quadric(command, chart, capsys):
    # both charts satisfy y3 = y1*y2; the conics degenerate there (the first
    # gave a zero resultant, the second a common-root polynomial of degree 0)
    assert main([command, f"--chart={chart}"]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {command}:") and "quadric y3 = y1*y2" in out


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


# sha256 of each --out report, recorded at the commit before the closed-form
# conic resultants, the direct line division and the on-demand normal forms;
# a change that moves one of these digests says which and why in CHANGES.md
PINNED_REPORTS = {
    "detcurve --chart 2,3,7":
        "6b550f83244316a5b9430c5047196777cd6c37daaa8a9e4984fd723d31cef652",
    "detcurve --chart=-5,-4,-4":  # degree-1 split
        "ed5b3d80e41e6fb97cb2c6479da001090e24254ae381311abb1c5654be542a4f",
    "classify --point 1,2,2,4":
        "8e188bc9539daf2b44526043210dde9265de78de459162f0d0efd6ac9b6e1e2f",
    "rep --chart 2,3,7":
        "cc4a1098182fbd8fedee84297cb930a9bfc4be28f19235ac2f66b6c2049b6d12",
    "wedderburn --chart 2,3,7 --mode rational":
        "532a029aaf8abb5074df0d2ac7f734aa5ae9f7d62e2fd15b1cc367fd1340f321",
    # theorem runs certify over k alone, so their reports carry no conic
    # extension data (extension_degree, f_coeffs, factor_degrees and
    # disc_is_square); wedderburn runs still do
    "theorem --count 2 --seed 7":
        "b5b1366eed36089e75ba9fa8f8ee95460c9a71b9ee0e366e021e0630eb67afb3",
    "theorem --count 2 --seed 7 --mode rational":
        "b974483ed5952a9090d621329df60829bf522562deafe2fedcc1aa8241708d1f",
    # rep at extension degrees 3, 1 and 2, rational wedderburn at degree 1,
    # and bound with and without a window cap
    "rep --chart 2,3,7 --mode rational":
        "b8d7bd4d9db8e2916194b19fcdb3386e9fefc43b6c93abf04d7ae28f7e7d7626",
    "rep --chart=-8,-4,7 --mode rational":
        "8f0b413c1aaa93ecdb7b038175972ff4d61825d2763d9d6ded3eed5e8ae1b9ad",
    "rep --chart=-5,-3,-1 --mode rational":
        "708dc52da5d6318e727bd17b04f9de1496235e90a77dfbb17a07fb12228eb6d0",
    "rep --chart=-5,-3,-1":
        "3272640502f4aa8eb4348e7a3e09df301bdda60ffca1a7442b0b6520bd6da74d",
    "wedderburn --chart=-8,-4,7 --mode rational":
        "2cbeb312e8cda7e117c73f8c881f6aaeacce6f62558bdec7ebcd7ad6b0a053e9",
    "bound --point 1,0,0,-1 --nmax 6":
        "461485a7e6e97400c995cd4659fd73c265defb8ef2d5db3ba71b35474b086493",
    "bound --point 1,0,0,-1 --nmax 6 --window-cap 5":
        "05b3093a522cba8a9a3c2b0b096af51e5777e1116e09354ae2b26ad82f8aea98",
    # scans recorded before rows were built from column arithmetic: the
    # wide windows of a capped scan, and a closure whose certificate the
    # report carries
    "scan --point 1,0,0,-1 --nmax 8 --window-cap 10":
        "3e23b74182352e262c27939a9d0b0051d32c79dc181d5ec39c67354d81de642e",
    "scan --point 1,2,3,7 --nmax 6":
        "f5ae06f46f82ae015cd2cc98003a9cdca8200a06d6320470eec0deb4b882fa14",
    # prime mode over GF(p)(theta): the 3x3 products through ExtensionField.dot
    "wedderburn --chart 2,3,7":
        "6e6e312ec3e36f24eea65f073e86e813b1aae246ae0e1799cd2649796ec26c42",
    # the symbolic stack (sigma, conics), the central element and the
    # generator rank, recorded before the text and JSON parsers were removed
    "sigma":
        "5b4b47bfcb529aa3aad0349ce3586163cbc2ba0af602ac253c9b92955ad09be6",
    "conics":
        "5401557c790201e159d63dda0e9df33d7f4512297355e412a005e31c9df5e4e3",
    "zcentral":
        "6ef7d07464425b39c58c41c9d24f737319e7e08be60f84bbf4f02b4a2808158f",
    "verify42":
        "387c1387afd60b71dccefcad1b6a9573d6a67ec5768067c39503a9b5dc87d261",
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_pinned_report_bytes(command, tmp_path, monkeypatch):
    monkeypatch.delenv("PARTABEL_SEED", raising=False)
    out = tmp_path / "report.json"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[command]


@pytest.mark.parametrize("force", ["no image", "short image", "not l-integral"])
@pytest.mark.parametrize("command", ["wedderburn --chart 2,3,7 --mode rational",
                                     "wedderburn --chart=-8,-4,7 --mode rational"])
def test_exact_evaluation_rows_keep_the_pinned_bytes(command, force, tmp_path, monkeypatch):
    # when the GF(l) image of rho cannot prove full rank, the evaluation
    # rows are built over rho's field QQ itself and eliminated there: same
    # report bytes
    from partabel import linalg, reptheory, scalars

    def short(gf, image_rows):
        rows = image_rows(gf)
        return rows[:-1] + [[gf.zero] * len(rows[0])]

    def not_integral(gf, image_rows):
        raise ZeroDivisionError("denominator vanishes mod l")

    def forced(field, full, image_rows, exact_rows):
        if force == "no image":
            return linalg._echelon_rank(field, exact_rows())
        alter = short if force == "short image" else not_integral
        return linalg.image_first_rank(field, full, lambda gf: alter(gf, image_rows),
                                       exact_rows)
    monkeypatch.setattr(reptheory, "image_first_rank", forced)
    exact_rows = []
    rows = reptheory._evaluation_rows

    def spy(field, basis, rho):
        if not isinstance(field, scalars.PrimeField):
            exact_rows.append(field)
        return rows(field, basis, rho)
    monkeypatch.setattr(reptheory, "_evaluation_rows", spy)
    test_pinned_report_bytes(command, tmp_path, monkeypatch)
    assert scalars.QQ in exact_rows


@pytest.mark.parametrize("chart", ["-5,-5,0", "2,0,3"])
@pytest.mark.parametrize("command", ["detcurve", "rep", "rep --mode rational"],
                         ids=["detcurve", "rep", "rep_rational"])
def test_pinned_detcurve_at_a_linear_conic_chart_writes_no_report(command, chart, tmp_path,
                                                                  capsys):
    # y3 = 0 or y2 = 0: the first conic is linear in z2, so the resultants
    # are the (1, 2) and (1, 0) closed forms, and f has degree 2
    out = tmp_path / "report.json"
    assert main(command.split() + [f"--chart={chart}", "--out", str(out)]) == 2
    assert capsys.readouterr().out == (
        f"FAIL {command.split()[0]}: common-root polynomial has degree 2, expected 3; "
        "resample the specialization\n")
    assert not out.exists()
