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

from heightforge import arith, heights
from heightforge._acceptance import CRITERIA
from heightforge.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
FAM2 = str(FIXTURES / "unicritical2.json")
FAM4 = str(FIXTURES / "unicritical4.json")
FAM632 = str(FIXTURES / "weighted632.json")
# two 20-digit primes: past Pollard rho's iteration limit
RHO_HARD = "300000000000000001940000000000000002091"
# the least strong pseudoprime to all 13 Miller-Rabin bases: not provably prime
PSI_13 = "3317044064679887385961981"


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
    code, out = run_cli(
        capsys, "pairing", "--family", FAM2, "--t", "1", "--place", "inf",
        "--x", "1", "--y", "1",
    )
    assert code == 2
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


def test_scan_deterministic_and_parallel_equal(capsys):
    runs = []
    for jobs in ("1", "1", "2"):
        code, out = run_cli(
            capsys, "scan", "--family", FAM2, "--t-bound", "1.2",
            "--z-bound", "1.7", "--jobs", jobs,
        )
        assert code == 0
        runs.append(_strip_elapsed(out))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["version"] == 1


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
    assert _run_script(*small_box, "--jobs", "0").returncode == 2
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
        ("green", "--family", FAM2, "--t", "1/3", "--place", PSI_13, "--z", "1/3"),
        ("certify", "--family", FAM2, "--t", f"1/{PSI_13}", "--z", "1/3"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 3 and out["error"]["kind"] == "budget", argv
        assert out["error"]["message"].startswith(f"cannot prove {PSI_13} prime")


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
