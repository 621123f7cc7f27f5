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
import os
import re
import sys
from typing import Optional

from .arith import INF, Place, parse_integer, parse_rational
from .constants import resultant_bound_check, theorem1_constants
from .errors import BudgetExceeded, DomainError, NormalizationUnavailable, SpecError
from .family import CoverAnalysis, Family, analyze_cover, is_e_general
from .heights import arakelov_green, canonical_height, local_green
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1/3 as an option, not as a value: match it as a
        # negative number too, so that --t -1/3 parses like --t=-1/3
        self._negative_number_matcher = re.compile(
            rf"{self._negative_number_matcher.pattern}|^-\d+/\d+$")

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
            return json.load(fh, parse_int=parse_integer)
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


def _check_csv_path(path: str) -> None:
    """Refuse a --csv path that cannot be written before the scan runs, and
    without opening it, so a scan that then fails neither truncates an
    existing file nor creates one."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif os.path.exists(path):
        if os.access(path, os.W_OK):
            return
        problem = "it is not writable"
    elif not os.path.isdir(parent):
        problem = f"{parent!r} is not a directory"
    elif not os.access(parent, os.W_OK | os.X_OK):
        problem = f"{parent!r} is not writable"
    else:
        return
    raise _UsageError(f"cannot write CSV file {path!r}: {problem}")


def _cmd_scan(args) -> dict:
    if args.csv:
        _check_csv_path(args.csv)
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
        use_criterion=not args.no_criterion,
    )
    if args.csv:
        try:
            report.write_csv(args.csv)
        except OSError as exc:  # the path changed during the scan
            raise _UsageError(f"cannot write CSV file {args.csv!r}: {exc}") from exc
    return report.to_json()


# ---------------------------------------------------------------------------
# reproduction battery
# ---------------------------------------------------------------------------


def _cmd_repro(args) -> dict:
    from ._acceptance import CRITERIA, CriterionFailed  # loaded only for this command

    checks = []
    for name, (criterion, sizes) in CRITERIA.items():
        try:
            checks.append({"name": name, "ok": True, "detail": criterion(**sizes)})
        except CriterionFailed as exc:
            checks.append({"name": name, "ok": False, "detail": str(exc)})
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
    p.add_argument("--csv", help="also write the findings to this CSV file; a path that "
                   "cannot be written exits 1 before the scan, and the file is "
                   "written only after the scan succeeds")
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
