"""Command-line front door: every public operation as a subcommand.

All results are JSON on standard output.  Exact values are carried as
strings ("num/den") or {"coeff", "prime"} objects; floats appear only as
interval endpoints.  Exit codes: 0 success, 1 malformed input (usage or
spec files, with a machine-readable error object), 2 domain errors,
3 budget exhaustion.  The HEIGHTFORGE_TOL environment variable overrides
the default interval tolerance of 1e-9.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from .arith import INF, Place, parse_rational
from .constants import resultant_bound_check, theorem1_constants
from .errors import BudgetExceeded, DomainError, NormalizationUnavailable, SpecError
from .family import CoverAnalysis, Family, analyze_cover, is_e_general
from .heights import arakelov_green, canonical_height, local_green, naive_height
from .preperiodic import (
    bad_place_obstruction,
    certify_point,
    find_nonpower_place,
    power_criterion,
    scan,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep codes contractual
        raise _UsageError(message)


def _default_tol() -> float:
    raw = os.environ.get("HEIGHTFORGE_TOL")
    if raw is None:
        return 1e-9
    try:
        tol = float(raw)
    except ValueError as exc:
        raise SpecError(f"HEIGHTFORGE_TOL is not a number: {raw!r}") from exc
    return tol


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path!r} is not valid JSON: {exc}") from exc


def _load_family(path: str) -> Family:
    return Family.from_json(_load_json(path))


def _load_cover(path: str) -> CoverAnalysis:
    obj = _load_json(path)
    try:
        numer, denom = obj["numer"], obj["denom"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed cover spec in {path!r}: {obj!r}") from exc
    return analyze_cover(numer, denom)


def _tol_of(args) -> float:
    return args.tol if args.tol is not None else _default_tol()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_height(args) -> dict:
    fam = _load_family(args.family)
    t, z = parse_rational(args.t), parse_rational(args.z)
    enc = canonical_height(fam, t, z, _tol_of(args), method=args.method, budget=args.budget)
    return {
        "family": fam.to_json(),
        "t": args.t,
        "z": args.z,
        "method": args.method,
        "tol": _tol_of(args),
        "lo": enc.lo,
        "hi": enc.hi,
        "width": enc.width,
    }


def _cmd_green(args) -> dict:
    fam = _load_family(args.family)
    place = Place.parse(args.place)
    result = local_green(
        fam, parse_rational(args.t), place, parse_rational(args.z),
        tol=_tol_of(args), budget=args.budget,
    )
    out = result.to_json(place)
    out["family"] = fam.to_json()
    out["t"] = args.t
    out["z"] = args.z
    return out


def _cmd_pairing(args) -> dict:
    fam = _load_family(args.family)
    place = Place.parse(args.place)
    enc = arakelov_green(
        fam, parse_rational(args.t), place,
        parse_rational(args.x), parse_rational(args.y),
        tol=_tol_of(args), budget=args.budget,
    )
    return {
        "family": fam.to_json(),
        "t": args.t,
        "place": str(place),
        "x": args.x,
        "y": args.y,
        "lo": enc.lo,
        "hi": enc.hi,
    }


def _cmd_constants(args) -> dict:
    fam = _load_family(args.family)
    return theorem1_constants(fam, args.bad_places).to_json()


def _cmd_resultant(args) -> dict:
    fam = _load_family(args.family)
    out = resultant_bound_check(fam, parse_rational(args.t)).to_json()
    out["family"] = fam.to_json()
    out["t"] = args.t
    return out


def _cmd_obstruct(args) -> dict:
    fam = _load_family(args.family)
    records = bad_place_obstruction(fam, parse_rational(args.t))
    return {
        "family": fam.to_json(),
        "t": args.t,
        "obstructions": [rec.to_json() for rec in records],
        "obstructed": any(rec.obstructed for rec in records),
    }


def _cmd_certify(args) -> dict:
    fam = _load_family(args.family)
    cert = certify_point(fam, parse_rational(args.t), parse_rational(args.z))
    out = cert.to_json()
    out["family"] = fam.to_json()
    out["t"] = args.t
    out["z"] = args.z
    return out


def _cmd_criterion(args) -> dict:
    result = power_criterion(args.d, args.m, parse_rational(args.t))
    out = result.to_json()
    out["d"] = args.d
    out["m"] = args.m
    out["t"] = args.t
    return out


def _cmd_cover(args) -> dict:
    if args.cover is not None:
        cov = _load_cover(args.cover)
    else:
        if args.numer is None or args.denom is None:
            raise _UsageError("cover needs --cover FILE or both --numer and --denom")
        cov = analyze_cover(args.numer.split(","), args.denom.split(","))
    out = {
        "analysis": cov.to_json(),
        "eGeneral": is_e_general(cov, args.e).to_json(),
    }
    if args.t is not None:
        places = [Place.parse(s) for s in args.S.split(",")] if args.S else [INF]
        witness = find_nonpower_place(cov, args.e, places, parse_rational(args.t))
        out["witness"] = None if witness is None else str(witness)
    return out


def _cmd_scan(args) -> dict:
    fam = _load_family(args.family)
    cover = _load_cover(args.cover) if args.cover else None
    t_values = [parse_rational(s) for s in args.t] if args.t else None
    report = scan(
        fam,
        args.t_bound,
        args.z_bound,
        cover=cover,
        t_values=t_values,
        budget=args.budget,
        jobs=args.jobs,
        use_criterion=not args.no_criterion,
    )
    if args.csv:
        report.write_csv(args.csv)
    return report.to_json()


# ---------------------------------------------------------------------------
# reproduction battery
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _repro_checks() -> list[dict]:
    from .family import build_family, specialized

    checks = []
    z2t = build_family([1, 1], 2)
    z3t = build_family([1, 1], 3)
    weighted = build_family([1, -3, 1], 3)
    rng = random.Random(20260819)

    # functional equation at tol 1e-9
    worst = 0.0
    for _ in range(30):
        fam = rng.choice([z2t, z3t, weighted])
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        z = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        fz = specialized(fam, t)(z)
        h1 = canonical_height(fam, t, fz, 1e-9)
        h2 = canonical_height(fam, t, z, 1e-9)
        worst = max(worst, abs(h1.mid - fam.d * h2.mid))
    checks.append(
        _check("functional-equation", worst <= 3e-9, f"worst mid defect {worst:.2e}")
    )

    # preperiodic inventories for z^2 + t
    inventories = {
        Fraction(0): {0, 1, -1},
        Fraction(-1): {0, 1, -1},
        Fraction(-2): {0, 1, -1, 2, -2},
        Fraction(1, 4): {Fraction(1, 2), Fraction(-1, 2)},
        Fraction(-3, 4): {Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)},
    }
    ok = True
    for t, expected in inventories.items():
        rep = scan(z2t, 1.5, math.log(10), t_values=[t])
        found = {f.z for f in rep.findings}
        ok = ok and found == {Fraction(v) for v in expected}
    checks.append(_check("preperiodic-inventories", ok, "5 parameters, classical orbits"))

    # exact escape lower bound at bad places with e not dividing v(t)
    ok, n_checked = True, 0
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13])
        k = rng.choice([1, 3, 5])
        t = Fraction(rng.choice([1, 2, 3, 4, 6]), p**k)
        z = Fraction(rng.randint(-30, 30))
        res = local_green(z2t, t, Place.finite(p), z)
        ok = ok and res.mode == "exact-escape" and res.value.coeff >= Fraction(k, 2)
        n_checked += 1
    checks.append(_check("escape-lower-bound", ok, f"{n_checked} exact comparisons"))

    # obstruction scans: t = 1/n, squarefree n <= 50 with an odd-valuation prime
    ok = True
    for n in range(2, 51):
        t = Fraction(1, n)
        if any(rec.obstructed for rec in bad_place_obstruction(z2t, t)):
            rep = scan(z2t, 1.0, math.log(20), t_values=[t])
            ok = ok and not rep.findings
    checks.append(_check("obstruction-scan", ok, "1/n parameters, n <= 50"))

    # good-reduction pairing floor
    from .constants import mk_a, mk_b
    from .arith import LogSum

    ok = True
    for _ in range(60):
        v = rng.choice([INF, Place.finite(2), Place.finite(3)])
        t = Fraction(rng.randint(-1, 1), rng.randint(1, 5))
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        y = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if x == y:
            continue
        g = arakelov_green(z2t, t, v, x, y, tol=1e-8)
        bound = mk_a(z2t).at(v)
        if mk_b(z2t).at(v).compare(bound) > 0:
            bound = mk_b(z2t).at(v)
        if v.is_archimedean:
            bound = bound + LogSum.single(Fraction(1), 2)
        ok = ok and g.hi >= -bound.enclosure().hi - 1e-9
    checks.append(_check("goodred-pairing-floor", ok, "60 pairs"))

    # resultant bound with the equality witness
    ok = resultant_bound_check(z2t, Fraction(1, 3)).ok
    eq = resultant_bound_check(z2t, Fraction(1, 3))
    ok = ok and eq.lhs == eq.rhs and eq.lhs.terms == {3: Fraction(4)}
    for _ in range(60):
        fam = rng.choice([z2t, z3t, weighted])
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        if t == 0:
            continue
        ok = ok and resultant_bound_check(fam, t).ok
    checks.append(_check("resultant-bound", ok, "equality at t = 1/3 plus 60 random"))

    # uniform lower-bound floor from the assembled constants
    quartic = build_family([1, 0, 1], 2)
    rep = theorem1_constants(quartic, 1)
    eps, c_const = rep.epsilon.as_float(), rep.C_float()
    ok = rep.status == "ok"
    for _ in range(25):
        t = Fraction(rng.randint(-10, 10), rng.choice([1, 3]))
        z = Fraction(rng.randint(-10, 10), rng.choice([1, 2]))
        cert = certify_point(quartic, t, z)
        if cert.is_preperiodic:
            continue
        hi = canonical_height(quartic, t, z, 1e-6).hi
        ok = ok and hi >= eps * float(naive_height(t)) - c_const - 1e-12
    checks.append(_check("uniform-height-floor", ok, "25 wandering samples at s = 1"))

    # composed-family desk scan (no preperiodic points besides infinity)
    cov4 = analyze_cover([1], [1, 0, 0, 0, 1])
    rep_scan = scan(z2t, math.log(12), math.log(20), cover=cov4)
    ok = not rep_scan.findings and rep_scan.complete
    ok = ok and rep_scan.t_filtered_criterion == rep_scan.t_examined - 1
    checks.append(
        _check(
            "composed-scan-empty",
            ok,
            f"{rep_scan.t_examined} parameters, criterion filtered all but t = 0",
        )
    )

    # pole-count table for e-generality
    cov5 = analyze_cover([1], [1, 0, 0, 0, 0, 1])
    table_ok = (
        not is_e_general(cov4, 2).ok
        and is_e_general(cov5, 2).ok
        and is_e_general(cov5, 3).ok
        and is_e_general(analyze_cover([1], [1, 1]), 5).ok is False
    )
    checks.append(_check("e-general-table", table_ok, "quartic/quintic covers"))

    # local-global agreement
    ok = True
    for _ in range(30):
        fam = rng.choice([z2t, z3t])
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        z = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        h_local = canonical_height(fam, t, z, 0.05)
        h_global = canonical_height(fam, t, z, 0.2, method="global")
        ok = ok and h_local.overlaps(h_global)
    checks.append(_check("local-global-overlap", ok, "30 samples"))
    return checks


def _cmd_repro(args) -> dict:
    checks = _repro_checks()
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="heightforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("height", _cmd_height, "canonical height enclosure")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--method", choices=["local", "global"], default="local")
    p.add_argument("--budget", type=int)

    p = add("green", _cmd_green, "local Green's function at one place")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--budget", type=int)

    p = add("pairing", _cmd_pairing, "two-point pairing at one place")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--budget", type=int)

    p = add("constants", _cmd_constants, "explicit lower-bound constants")
    p.add_argument("--family", required=True)
    p.add_argument("--bad-places", type=int, required=True)

    p = add("resultant", _cmd_resultant, "integral-model resultant and its bound")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True)

    p = add("obstruct", _cmd_obstruct, "bad-place preperiodicity obstructions")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True)

    p = add("certify", _cmd_certify, "preperiodic/wandering certificate for a point")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--z", required=True)

    p = add("criterion", _cmd_criterion, "power-denominator solvability test")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", required=True)

    p = add("cover", _cmd_cover, "pole analysis and e-generality of a cover")
    p.add_argument("--cover")
    p.add_argument("--numer")
    p.add_argument("--denom")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--t")
    p.add_argument("--S")

    p = add("scan", _cmd_scan, "box scan for preperiodic points")
    p.add_argument("--family", required=True)
    p.add_argument("--t-bound", type=float, required=True)
    p.add_argument("--z-bound", type=float, required=True)
    p.add_argument("--cover")
    p.add_argument("--t", action="append")
    p.add_argument("--budget", type=int, default=512)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv")
    p.add_argument("--no-criterion", action="store_true")

    add("repro", _cmd_repro, "run the reproduction battery")
    return parser


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = args.func(args)
    except _UsageError as exc:
        _emit({"error": {"kind": "usage", "message": str(exc)}})
        return 1
    except SpecError as exc:
        _emit({"error": {"kind": "spec", "message": str(exc)}})
        return 1
    except (DomainError, NormalizationUnavailable) as exc:
        _emit({"error": {"kind": "domain", "message": str(exc)}})
        return 2
    except BudgetExceeded as exc:
        payload: dict = {"kind": "budget", "message": str(exc)}
        if getattr(exc, "best", None) is not None:
            payload["best"] = list(exc.best)
        if getattr(exc, "steps", None) is not None:
            payload["steps"] = exc.steps
        _emit({"error": payload})
        return 3
    _emit(out)
    if args.command == "repro" and not out["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
