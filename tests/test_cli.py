"""End-to-end tests for the command-line interface.

Most tests drive ``main(argv)`` in-process and parse the JSON it prints;
a few go through a real subprocess to pin the console-script wiring and
exit codes.
"""
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from heightforge import arith, cli, heights
from heightforge._acceptance import CRITERIA
from heightforge.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
FAM2 = str(FIXTURES / "unicritical2.json")
FAM4 = str(FIXTURES / "unicritical4.json")
FAM632 = str(FIXTURES / "weighted632.json")
# two 20-digit primes: past Pollard rho's iteration limit
RHO_HARD = "300000000000000001940000000000000002091"
# the least strong pseudoprime to all 13 Miller-Rabin bases 2..41; base 43
# proves it composite
PSI_13 = "3317044064679887385961981"
# the least prime above it: it passes every base, so it cannot be proved prime
PSI_13_NEXT_PRIME = "3317044064679887385962123"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------


def test_height_preperiodic_example(capsys):
    code, out = run_cli(capsys, "height", "--family", FAM2, "--t", "-1", "--z", "0")
    assert code == 0
    assert out["lo"] == 0.0
    assert 0.0 <= out["hi"] <= 1e-9
    assert out["family"] == {"e": 2, "F": ["1", "1"]}


def test_negative_rational_after_a_space(capsys):
    # argparse would read -1/3 as an option; it parses like --t=-1/3
    for command, before, option, after in (("height", (), "--t", ("--z", "0")),
                                           ("certify", ("--t", "1"), "--z", ())):
        outs = []
        for value in ((option, "-1/3"), (f"{option}=-1/3",)):
            assert main([command, "--family", FAM2, *before, *value, *after]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    # other texts that look like options are still read as options
    code, out = run_cli(capsys, "height", "--family", FAM2, "--t", "-1/x", "--z", "0")
    assert code == 1 and out["error"] == {"kind": "usage",
                                          "message": "argument --t: expected one argument"}


def test_criterion_example(capsys):
    code, out = run_cli(capsys, "criterion", "--d", "2", "--m", "4", "--t", "1")
    assert code == 0
    assert out["solvable"] is False
    assert out["value"] == "2"
    assert out["witness"] is None


def test_constants_example(capsys):
    code, out = run_cli(capsys, "constants", "--family", FAM4, "--bad-places", "0")
    assert code == 0
    assert out["orbitBound"] == 12
    assert out["status"] == "ok"
    # epsilon is symbolic: delta/(2 d^orbitBound)
    assert out["epsilon"]["delta"] == "1/4"


def test_green_exact_escape(capsys):
    code, out = run_cli(
        capsys, "green", "--family", FAM2, "--t", "1/9", "--place", "3", "--z", "1/3"
    )
    assert code == 0
    assert out["mode"] == "exact-escape"
    assert out["exact"] == {"coeff": "1", "prime": 3}
    assert out["place"] == "3"


def test_pairing_runs(capsys):
    code, out = run_cli(
        capsys, "pairing", "--family", FAM2, "--t", "0", "--place", "inf",
        "--x", "2", "--y", "3",
    )
    assert code == 0
    assert out["lo"] <= out["hi"]


def test_resultant_ok(capsys):
    code, out = run_cli(capsys, "resultant", "--family", FAM632, "--t", "5/7")
    assert code == 0
    assert out["ok"] is True


def test_obstruct_example(capsys):
    code, out = run_cli(capsys, "obstruct", "--family", FAM2, "--t", "1/8")
    assert code == 0
    assert out["obstructed"] is True
    assert out["obstructions"][0]["place"] == "2"


def test_certify_wandering(capsys):
    code, out = run_cli(capsys, "certify", "--family", FAM2, "--t", "1/3", "--z", "1/2")
    assert code == 0
    assert out["verdict"] == "wandering"
    assert out["witness"] == "3"
    assert out["hhatLowerBound"] == pytest.approx(math.log(3) / 2)


@pytest.mark.parametrize("t, z", [("1/3", "1/2"), ("1/4", "1/6")])
def test_certify_finite_bound_is_greens_value(capsys, t, z):
    # certify reads G_3(z) in closed form at the first escaping point: f(z)
    # at the obstructed t = 1/3, z itself at t = 1/4; green runs the Green
    # loop from z and at tol 1e-6 must give the same lower end
    _, cert = run_cli(capsys, "certify", "--family", FAM2, "--t", t, "--z", z)
    code, green = run_cli(
        capsys, "green", "--family", FAM2, "--t", t, "--z", z,
        "--place", cert["witness"], "--tol", "1e-6",
    )
    assert code == 0 and cert["witness"] == "3"
    assert cert["hhatLowerBound"] == green["value_lo"]


def test_cover_with_witness(capsys):
    code, out = run_cli(
        capsys, "cover", "--cover", str(FIXTURES / "quintic_cover.json"),
        "--e", "2", "--t", "1",
    )
    assert code == 0
    assert out["eGeneral"]["e_general"] is True
    assert out["eGeneral"]["poles_prime_to_e"] == 5
    assert out["witness"] == "2"


def test_cover_inline_polynomials(capsys):
    code, out = run_cli(capsys, "cover", "--numer", "1", "--denom", "1,0,0,0,1", "--e", "2")
    assert code == 0
    assert out["eGeneral"]["e_general"] is False
    assert "witness" not in out


# ---------------------------------------------------------------------------
# exit codes and error objects
# ---------------------------------------------------------------------------


def test_malformed_family_file_exit_1(capsys, tmp_path):
    bad = tmp_path / "fam.json"
    bad.write_text("{ not json")
    code, out = run_cli(capsys, "height", "--family", str(bad), "--t", "1", "--z", "0")
    assert code == 1
    assert out["error"]["kind"] == "spec"
    assert "fam.json" in out["error"]["message"]


def test_missing_family_file_exit_1(capsys, tmp_path):
    code, out = run_cli(
        capsys, "height", "--family", str(tmp_path / "absent.json"), "--t", "1", "--z", "0"
    )
    assert code == 1
    assert out["error"]["kind"] == "spec"


def test_invalid_family_shape_exit_1(capsys, tmp_path):
    bad = tmp_path / "fam.json"
    # a float weight and a JSON true coefficient are refused, not read as 2 and 1
    for spec in ({"e": 2, "F": []}, {"e": 2.7, "F": [1, 1]}, {"e": 2, "F": [True, "1"]}):
        bad.write_text(json.dumps(spec))
        code, out = run_cli(capsys, "height", "--family", str(bad), "--t", "1", "--z", "0")
        assert code == 1, spec
        assert out["error"]["kind"] == "spec"


def test_usage_error_exit_1(capsys):
    code, out = run_cli(capsys, "height", "--family", FAM2, "--t", "1")
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_bad_rational_exit_1(capsys):
    code, out = run_cli(capsys, "height", "--family", FAM2, "--t", "x", "--z", "0")
    assert code == 1
    assert out["error"]["kind"] == "spec"


def test_bad_place_exit_1(capsys):
    code, out = run_cli(
        capsys, "green", "--family", FAM2, "--t", "1", "--place", "4", "--z", "0"
    )
    assert code == 1
    assert out["error"]["kind"] == "spec"


def test_domain_error_exit_2(capsys):
    for argv in (
        ("pairing", "--family", FAM2, "--t", "1", "--place", "inf", "--x", "1", "--y", "1"),
        # values refused before they are computed: x^m + y^m past the integer
        # cap, an infinite telescoping step count, an unprintable orbitBound
        ("criterion", "--d", "2", "--m", "1000000000", "--t", "3"),
        ("height", "--family", FAM2, "--t", "3", "--z", "1/2", "--method", "global",
         "--tol", "5e-324"),
        ("constants", "--family", FAM632, "--bad-places", "4761"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out["error"]["kind"] == "domain"


def test_criterion_t_zero_exit_2(capsys):
    code, out = run_cli(capsys, "criterion", "--d", "2", "--m", "4", "--t", "0")
    assert code == 2
    assert out["error"]["kind"] == "domain"


def test_budget_error_exit_3_with_best(capsys):
    code, out = run_cli(
        capsys, "green", "--family", FAM2, "--t", "1/4", "--place", "inf",
        "--z", "3/2", "--budget", "5", "--tol", "1e-12",
    )
    assert code == 3
    assert out["error"]["kind"] == "budget"
    lo, hi = out["error"]["best"]
    assert lo == 0.0 and hi > 0


def test_budget_error_after_restarts_is_strict_json(capsys, monkeypatch):
    monkeypatch.setattr(heights, "DEFAULT_PREC", 20)
    monkeypatch.setattr(heights, "_MAX_RESTARTS", 1)
    code = main([
        "green", "--family", FAM2, "--t", "-1", "--place", "inf", "--z", "1/3",
    ])
    assert code == 3

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert out["error"]["kind"] == "budget"
    lo, hi = out["error"]["best"]
    assert lo == 0.0 and math.isfinite(hi)


def test_cover_pole_exit_2(capsys):
    code, out = run_cli(
        capsys, "cover", "--cover", str(FIXTURES / "quintic_cover.json"),
        "--e", "2", "--t", "-1",
    )
    assert code == 2
    assert out["error"]["kind"] == "domain"


# ---------------------------------------------------------------------------
# environment and determinism
# ---------------------------------------------------------------------------


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HEIGHTFORGE_TOL", "1e-3")
    code, out = run_cli(capsys, "height", "--family", FAM2, "--t", "-1", "--z", "1/5")
    assert code == 0
    assert out["tol"] == 1e-3
    assert out["width"] <= 1e-3


def test_tol_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("HEIGHTFORGE_TOL", "1e-2")
    code, out = run_cli(
        capsys, "height", "--family", FAM2, "--t", "-1", "--z", "1/5", "--tol", "1e-6"
    )
    assert code == 0
    assert out["tol"] == 1e-6


def test_bad_tol_env_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("HEIGHTFORGE_TOL", "tiny")
    code, out = run_cli(capsys, "height", "--family", FAM2, "--t", "-1", "--z", "0")
    assert code == 1
    assert out["error"]["kind"] == "spec"


def _strip_elapsed(report: dict) -> dict:
    out = dict(report)
    out.pop("elapsedSeconds")
    return out


def test_scan_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "scan", "--family", FAM2, "--t-bound", "1.2", "--z-bound", "1.7",
        )
        assert code == 0
        runs.append(_strip_elapsed(out))
    assert runs[0] == runs[1]
    assert runs[0]["version"] == 1


def test_scan_usage_errors(capsys, tmp_path):
    box = ("scan", "--family", FAM2, "--t-bound", "1.0", "--z-bound", "1.0", "--t", "-1")
    code, out = run_cli(capsys, *box, "--csv", str(tmp_path / "missing" / "findings.csv"))
    assert code == 1
    assert out["error"]["kind"] == "usage" and "findings.csv" in out["error"]["message"]
    code, out = run_cli(capsys, *box, "--jobs", "2")  # scans run in one process
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_scan_unwritable_csv_refused_before_the_scan(capsys, tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran before the CSV path was checked")

    monkeypatch.setattr(cli, "scan", no_scan)
    read_only = tmp_path / "read_only.csv"
    read_only.write_text("kept\n")
    read_only.chmod(0o444)
    paths = [tmp_path / "missing" / "findings.csv", tmp_path, read_only / "findings.csv"]
    if not os.access(read_only, os.W_OK):  # a superuser may write it anyway
        paths.append(read_only)
    box = ("scan", "--family", FAM632, "--t-bound", "4.1", "--z-bound", "6.9")
    for path in paths:
        code, out = run_cli(capsys, *box, "--csv", str(path))
        assert code == 1 and out["error"]["kind"] == "usage", path
        assert repr(str(path)) in out["error"]["message"]
    assert read_only.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["read_only.csv"]


def test_scan_that_fails_leaves_the_csv_file_alone(capsys, tmp_path):
    csv_path = tmp_path / "findings.csv"
    csv_path.write_text("kept\n")
    code, out = run_cli(capsys, "scan", "--family", FAM2, "--t-bound", "0.8",
                        "--z-bound", "0.8", "--t", "1", "--budget", "0",
                        "--csv", str(csv_path))
    assert code == 2 and out["error"]["kind"] == "domain"
    assert csv_path.read_text() == "kept\n"
    code, out = run_cli(capsys, "scan", "--family", FAM2, "--t-bound", "0.8",
                        "--z-bound", "0.8", "--t", "1", "--budget", "0",
                        "--csv", str(tmp_path / "new.csv"))
    assert code == 2 and not (tmp_path / "new.csv").exists()


def test_scan_explicit_t_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "findings.csv"
    code, out = run_cli(
        capsys, "scan", "--family", FAM2, "--t-bound", "1.0", "--z-bound", "1.5",
        "--t", "-1", "--t", "0", "--csv", str(csv_path),
    )
    assert code == 0
    assert out["tExamined"] == 2
    found = {(f["t"], f["z"]) for f in out["preperiodicFindings"]}
    assert ("-1", "0") in found and ("0", "1") in found
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,z,preperiod,period"
    assert len(lines) == 1 + len(out["preperiodicFindings"])


def test_scan_repeated_t_examined_once(capsys):
    argv = ("scan", "--family", FAM2, "--t-bound", "1.0", "--z-bound", str(math.log(10)))
    _, once = run_cli(capsys, *argv, "--t", "-2")
    code, twice = run_cli(capsys, *argv, "--t", "-2", "--t", "-2")
    assert code == 0 and twice["tExamined"] == 1 and twice["candidatesChecked"] == 21
    assert _strip_elapsed(twice) == _strip_elapsed(once)


def test_scan_findings_replay_to_same_verdict(capsys):
    """Round-trip: re-parse the report and replay each finding."""
    code, out = run_cli(
        capsys, "scan", "--family", FAM2, "--t-bound", "1.2", "--z-bound", "1.7"
    )
    assert code == 0
    assert out["preperiodicFindings"]
    for finding in out["preperiodicFindings"]:
        code2, cert = run_cli(
            capsys, "certify", "--family", FAM2,
            "--t", finding["t"], "--z", finding["z"],
        )
        assert code2 == 0
        assert cert["verdict"] == "preperiodic"
        assert cert["preperiod"] == finding["preperiod"]
        assert cert["period"] == finding["period"]


def test_scan_composed_cover(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", FAM2, "--t-bound", str(math.log(8)),
        "--z-bound", str(math.log(12)), "--cover", str(FIXTURES / "quartic_cover.json"),
    )
    assert code == 0
    assert out["preperiodicFindings"] == []
    assert out["complete"] is True
    assert out["tFilteredByCriterion"] == out["tExamined"] - 1


# ---------------------------------------------------------------------------
# console script via subprocess
# ---------------------------------------------------------------------------


def _run_script(*argv, env_extra=None, address_space=None):
    """Run the CLI in a subprocess; `address_space` caps its memory (bytes),
    so a runaway computation dies there and not in the test runner."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "heightforge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=limit if address_space else None,
    )


def test_subprocess_success_and_json(tmp_path):
    proc = _run_script("criterion", "--d", "3", "--m", "1", "--t", "7")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["solvable"] is True
    assert out["witness"] == "2"  # 7 + 1 = 8 = 2^3


def test_subprocess_exit_codes():
    assert _run_script("criterion", "--d", "2", "--m", "4", "--t", "1").returncode == 0
    assert _run_script("criterion", "--d", "2", "--m", "4", "--t", "0").returncode == 2
    assert _run_script("nonsense").returncode == 1
    huge_z_box = ("scan", "--family", FAM2, "--t-bound", "0.5", "--z-bound", "30", "--t", "0")
    assert _run_script(*huge_z_box).returncode == 2
    point = ("--family", FAM2, "--t", "-1", "--z", "1/3")
    assert _run_script("height", *point, "--tol", "inf").returncode == 2
    assert _run_script("green", *point, "--place", "inf", "--budget", "-1").returncode == 2
    small_box = ("scan", "--family", FAM2, "--t-bound", "0.8", "--z-bound", "0.8", "--t", "1")
    assert _run_script(*small_box).returncode == 0
    obstructed = ("scan", "--family", FAM2, "--t-bound", "0.8", "--t", "1/3")
    assert _run_script(*obstructed, "--z-bound", "nan").returncode == 2
    # tol below the float resolution of G on an escaping orbit: the escape exit
    # cannot fire, and the orbit at infinity runs to its step budget in bounded
    # memory (it once built exact rationals of d^n bits there)
    for family, t, z, tol in ((FAM2, "1", "100", "1e-15"), (FAM4, "1", "-12", "5e-324")):
        proc = _run_script("green", "--family", family, "--t", t, "--z", z, "--place", "inf",
                           "--tol", tol, address_space=800 * 2**20)
        assert proc.returncode == 3, proc.stderr
        lo, hi = json.loads(proc.stdout)["error"]["best"]
        assert lo == 0.0 and math.isfinite(hi)
    proc = _run_script("height", "--family", FAM2, "--t", f"1/{RHO_HARD}", "--z", "1/2",
                       address_space=800 * 2**20)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"]["kind"] == "budget"


# each runs in a fresh interpreter, which must end with no sympy module
# loaded: sympy is imported only where a polynomial is factored or a
# discriminant taken, and no height, Green's function or orbit needs that
_HEIGHTS_SETUP = (
    "from fractions import Fraction as Q\n"
    "from heightforge import Place, build_family\n"
    "from heightforge.heights import arakelov_green, canonical_height, local_green\n"
    "fam = build_family([1, 1], 2)\n"
)
_SYMPY_FREE = {
    "import": "import heightforge.cli",
    "canonical_height": _HEIGHTS_SETUP + "canonical_height(fam, Q(1), Q(1, 3))",
    "local_green_inf": _HEIGHTS_SETUP + "local_green(fam, Q(1), Place(None), Q(1, 3))",
    "local_green_2": _HEIGHTS_SETUP + "local_green(fam, Q(1, 2), Place(2), Q(1, 3))",
    "arakelov_green": _HEIGHTS_SETUP + "arakelov_green(fam, Q(1), Place(None), Q(1, 3), Q(1, 5))",
    "cli_green": "from heightforge.cli import main\n"
                 f"assert main(['green', '--family', {FAM2!r}, '--t', '1', '--place', 'inf',"
                 " '--z', '1/3']) == 0",
    "cli_height": "from heightforge.cli import main\n"
                  f"assert main(['height', '--family', {FAM2!r}, '--t', '-1', '--z', '1/3']) == 0",
    # F(X, 1) = X + 1 is linear, so reading the exceptional places factors nothing
    "cli_certify": "from heightforge.cli import main\n"
                   f"assert main(['certify', '--family', {FAM2!r}, '--t', '1', '--z', '1/3']) == 0",
    "cli_obstruct": "from heightforge.cli import main\n"
                    f"assert main(['obstruct', '--family', {FAM2!r}, '--t', '1/9']) == 0",
    "cli_scan": "from heightforge.cli import main\n"
                f"assert main(['scan', '--family', {FAM2!r}, '--t-bound', '0.8',"
                " '--z-bound', '1.0']) == 0",
    # (X - 1)^2 (X + 2): its radical, multiplicity and discriminant come from
    # gcds and a Sylvester resultant, and the archimedean root bound is not read
    "exceptional_places_repeated": "from heightforge import build_family, exceptional_places\n"
                                   "fam = build_family([1, 0, -3, 2], 2)\n"
                                   "assert sorted(map(str, exceptional_places(fam)))"
                                   " == ['2', '3', 'inf']",
    # a scan evaluates its cover and never reads the cover's pole groups
    "analyze_cover_scan": "from heightforge import analyze_cover, build_family, scan\n"
                          "cov = analyze_cover([1], [1, 0, 0, 0, 1])\n"
                          "assert scan(build_family([1, 1], 2), 0.8, 1.0, cover=cov).complete",
}
for _fixture in ("unicritical4", "weighted632"):  # F(X, 1) of degree 2
    _path = str(FIXTURES / f"{_fixture}.json")
    for _name, _argv in (("certify", "'--t', '1', '--z', '1/3'"), ("obstruct", "'--t', '1/9'"),
                         ("scan", "'--t-bound', '0.8', '--z-bound', '1.0'")):
        _SYMPY_FREE[f"cli_{_name}_{_fixture}"] = (
            "from heightforge.cli import main\n"
            f"assert main(['{_name}', '--family', {_path!r}, {_argv}]) == 0")
# 1/(1 + s^4) and 1/(1 + s^5) have the power criterion's shape, and
# 1/((1 + s)(1 + s^2)^2) does not, so there the criterion filters no parameter
for _name, _cover in (("cli_scan_cover", "quartic_cover"),
                      ("cli_scan_cover_quintic", "quintic_cover"),
                      ("cli_scan_cover_mixed", "mixed_orders")):
    _path = str(FIXTURES / f"{_cover}.json")
    _SYMPY_FREE[_name] = (
        "from heightforge.cli import main\n"
        f"assert main(['scan', '--family', {FAM2!r}, '--cover', {_path!r}, '--t-bound', '0.8',"
        " '--z-bound', '1.0']) == 0")


@pytest.mark.parametrize("name", sorted(_SYMPY_FREE))
def test_path_loads_no_sympy(name):
    check = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    proc = subprocess.run([sys.executable, "-c", _SYMPY_FREE[name] + check],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_import_loads_no_process_pool():
    # scans run in one process, so nothing loads concurrent.futures or the
    # multiprocessing modules it brings
    check = ("import sys\nimport heightforge.cli\n"
             "print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_scan_budget_below_one_exit_2():
    # 1/3 is obstructed, so no orbit would have read the budget
    proc = _run_script("scan", "--family", FAM2, "--t-bound", "0.8", "--z-bound", "0.8",
                       "--t", "1/3", "--budget", "0")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "domain"


def test_unprovable_factoring_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(arith, "_RHO_ITERATIONS", 1 << 12)  # refuse RHO_HARD in ms
    for argv in (
        ("height", "--family", FAM2, "--t", "1", "--z", f"1/{RHO_HARD}"),
        ("resultant", "--family", FAM2, "--t", f"1/{RHO_HARD}"),
        ("obstruct", "--family", FAM2, "--t", f"1/{RHO_HARD}"),
        ("certify", "--family", FAM2, "--t", "1", "--z", f"1/{RHO_HARD}"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 3 and out["error"]["kind"] == "budget", argv
        assert out["error"]["message"] == f"cannot split {RHO_HARD} in 4096 rho iterations"
    # the obstruction at 3 is the witness, and den z is never factored
    code, out = run_cli(capsys, "certify", "--family", FAM2, "--t", "1/3", "--z", f"1/{RHO_HARD}")
    assert code == 0 and out["witness"] == "3"
    for argv in (
        ("green", "--family", FAM2, "--t", "1/3", "--place", PSI_13_NEXT_PRIME, "--z", "1/3"),
        ("certify", "--family", FAM2, "--t", f"1/{PSI_13_NEXT_PRIME}", "--z", "1/3"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 3 and out["error"]["kind"] == "budget", argv
        assert out["error"]["message"].startswith(f"cannot prove {PSI_13_NEXT_PRIME} prime")


def test_pseudoprime_psi_13_is_refuted(capsys):
    # psi_13 is refuted by a further base: not a place, and split by rho as a
    # parameter (a split past the 4 096 iterations of the test above)
    code, out = run_cli(capsys, "green", "--family", FAM2, "--t", "1/3", "--place", PSI_13,
                        "--z", "1/3")
    assert code == 1 and out["error"] == {"kind": "spec", "message": f"not a prime: {PSI_13}"}
    code, out = run_cli(capsys, "certify", "--family", FAM2, "--t", f"1/{PSI_13}", "--z", "1/3")
    assert code == 0 and int(PSI_13) % int(out["witness"]) == 0


def test_integers_past_str_digit_limit(capsys):
    # outputs of 8 000 and more digits, past Python's int-to-str limit of 4 300
    big = "1" + "0" * 4000
    for argv in (
        ("certify", "--family", FAM2, "--t", big, "--z", "0"),
        ("resultant", "--family", FAM4, "--t", "1/" + big[:1001]),
        ("criterion", "--d", "2", "--m", "5", "--t", big[:1001]),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
    assert out["value"] == "1" + "0" * 4999 + "1"  # 10^5000 + 1


def test_integer_inputs_past_str_digit_limit(capsys, tmp_path):
    # a 4 400-digit parameter certifies, and a printed 8 001-digit orbit point
    # reads back as --z
    code, _ = run_cli(capsys, "certify", "--family", FAM2, "--t", "1" + "0" * 4400, "--z", "0")
    assert code == 0
    t = "1" + "0" * 4000
    code, out = run_cli(capsys, "certify", "--family", FAM2, "--t", t, "--z", "0")
    point = out["orbit"]["points"][2]  # 10^8000 + 10^4000
    assert code == 0 and len(point) == 8001
    code, out = run_cli(capsys, "certify", "--family", FAM2, "--t", t, "--z", point)
    assert code == 0 and out["orbit"]["points"][0] == point
    # a spec coefficient far past the digit cap, as a string or a JSON number,
    # is refused before it is converted (which would take about a minute)
    spec = tmp_path / "fam.json"
    digits = "1" * (10 * arith._MAX_INTEGER_DIGITS)
    for coeff in (f'"{digits}"', digits):
        spec.write_text('{"e": 2, "F": ["1", %s]}' % coeff)
        start = time.monotonic()
        code, out = run_cli(capsys, "height", "--family", str(spec), "--t", "1", "--z", "0")
        assert time.monotonic() - start < 1
        assert code == 1 and out["error"]["kind"] == "spec"


def test_repro_battery(capsys):
    code, out = run_cli(capsys, "repro")
    assert code == 0
    assert out["ok"] is True
    names = [c["name"] for c in out["checks"]]
    assert names == [
        "functional-equation", "preperiodic-inventories", "escape-lower-bound",
        "obstruction-scan", "goodred-pairing-floor", "resultant-bound",
        "uniform-height-floor", "composed-scan-empty", "e-general-table",
        "local-global-overlap",
    ]
    assert names == list(CRITERIA)
    assert len(out["checks"]) == 10
    assert all(c["ok"] for c in out["checks"])
