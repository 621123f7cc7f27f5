"""Per-layer spans and counters around heightforge, installed from outside.

`Tracer.install` replaces each layer function by a wrapper in every
heightforge module that binds it (a name bound by `from .x import y` is
looked up in the importing module) and replaces methods on their classes.
Each call records a span -- name, start, end, parent, op -- in flat arrays
kept in memory; `uninstall` puts the originals back.  Facts that only a
result shows (exit kinds, steps, restarts) are read off return values.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

_clock = time.perf_counter

# Spans whose outermost time is summed into padics.s.
_PADIC = ("padics.from_fraction", "padics.mul", "padics.add")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")  # time covered by direct children
        self.outer = array("b")  # 1 when no open ancestor has the same name
        self.stack: list[int] = []
        self.depth: dict[int, int] = defaultdict(int)
        self.open_spans: dict[int, list[int]] = defaultdict(list)
        self.op_index = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.padic_phase: set[int] = set()
        self.support_seen: set[Fraction] = set()
        self._restore: list = []

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_index)
        self.end.append(0.0)
        self.child.append(0.0)
        self.outer.append(0 if self.depth[nid] else 1)
        self.depth[nid] += 1
        self.open_spans[nid].append(idx)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        end = _clock()
        self.end[idx] = end
        self.stack.pop()
        self.open_spans[nid].pop()
        self.depth[nid] -= 1
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]

    def begin_op(self, index: int) -> int:
        self.op_index = index
        self.support_seen = set()
        nid = self._id("op")
        return self._open(nid)

    def end_op(self, idx: int) -> None:
        self._close(idx, self._id("op"))

    def span(self, name, fn, before=None, after=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that read facts off arguments and results ------------------------

    def _bump_max(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def _arch_result(self, args, res):
        self.counts["heights.arch_green.steps"] += res.steps_used
        if res.value.lo == 0:
            self.counts["heights.arch_green.exit_bounded"] += 1
        else:
            self.counts["heights.arch_green.exit_escape"] += 1

    def _finite_result(self, args, res):
        self.counts["heights.finite_green.steps"] += res.steps_used
        key = {"exact-escape": "exit_exact_escape", "exact-bounded": "exit_exact_bounded",
               "interval": "exit_interval"}[res.mode]
        self.counts["heights.finite_green." + key] += 1

    def _padic_entry(self, args):
        spans = self.open_spans[self._id("heights.finite_green")]
        if spans:
            self.padic_phase.add(spans[-1])

    def _support_entry(self, args):
        q = Fraction(args[0])
        if q in self.support_seen:
            self.counts["arith.support.repeats"] += 1
        self.support_seen.add(q)

    def _factor_entry(self, args):
        self._bump_max("arith.factor_integer.max_digits", len(str(abs(args[0]))))

    def _evaluate_result(self, args, value):
        self._bump_max("polys.evaluate.max_bits",
                       value.numerator.bit_length() + value.denominator.bit_length())

    def _orbit_result(self, args, record):
        self.counts["preperiodic.iterate_orbit.steps"] += len(record.points) - 1

    def _scan_result(self, args, report):
        self.counts["preperiodic.scan.candidates"] += report.candidates_checked
        self.counts["preperiodic.scan.t_obstructed"] += report.t_obstructed
        self.counts["preperiodic.scan.t_filtered_criterion"] += report.t_filtered_criterion

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        from heightforge import _intervals, _padics, _polys, arith, constants, family
        from heightforge import heights, preperiodic

        self._replace(_intervals, "log_interval", self.span("intervals.log_interval",
                                                            _intervals.log_interval))
        self._replace(_intervals, "iv_from_fraction", self.counter(
            "intervals.iv_from_fraction.calls", _intervals.iv_from_fraction))
        self._method(_intervals.Interval, "scale", "intervals.scale")
        self._method(_padics.PAdic, "from_fraction", "padics.from_fraction",
                     before=self._padic_entry)
        self._method(_padics.PAdic, "__mul__", "padics.mul")
        self._method(_padics.PAdic, "__add__", "padics.add")
        for name, fn, before, after in (
            ("polys.evaluate", _polys.evaluate, None, self._evaluate_result),
            ("polys.det_exact", _polys.det_exact, None, None),
            ("arith.factor_integer", arith.factor_integer, self._factor_entry, None),
            ("arith.support", arith.support, self._support_entry, None),
            ("family.specialize", family.specialize, None, None),
            ("heights.canonical_height", heights.canonical_height, None, None),
            ("heights.local_green", heights.local_green, None, None),
            ("heights.arch_green", heights._arch_green, None, self._arch_result),
            ("heights.finite_green", heights._finite_green, None, self._finite_result),
            ("heights.height_defect_bound", heights.height_defect_bound, None, None),
            ("preperiodic.iterate_orbit", preperiodic.iterate_orbit, None, self._orbit_result),
            ("preperiodic.naive_height", heights._naive_height_interval, None, None),
            ("preperiodic.escape_place", preperiodic._escape_place, None, None),
            ("preperiodic.positive_green_bound", preperiodic._positive_green_bound, None, None),
            ("preperiodic.certify_point", preperiodic.certify_point, None, None),
            ("preperiodic.obstruction", preperiodic.bad_place_obstruction, None, None),
            ("preperiodic.scan", preperiodic.scan, None, self._scan_result),
            ("constants.exceptional_places", constants.exceptional_places, None, None),
            ("constants.resultant_bound_check", constants.resultant_bound_check, None, None),
        ):
            module = sys.modules[fn.__module__]
            attr = next(k for k, v in vars(module).items() if v is fn)
            self._replace(module, attr, self.span(name, fn, before, after))
        self._method(arith.LogSum, "compare", "arith.logsum_compare")

        default_prec = _intervals.DEFAULT_PREC
        arch = self._id("heights.arch_green")
        iv_prec = _intervals.iv_prec

        def counting_iv_prec(prec):
            if prec > default_prec and self.depth[arch]:
                self.counts["heights.arch_green.restarts"] += 1
            return iv_prec(prec)

        self._replace(_intervals, "iv_prec", counting_iv_prec)

    def _replace(self, module, attr, wrapper) -> None:
        """Bind `wrapper` wherever heightforge binds module.attr."""
        orig = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name != "heightforge" and not name.startswith("heightforge."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def _method(self, cls, attr, name, before=None, after=None) -> None:
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = self.span(name, fn, before, after)
        setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        names = self.names
        n_names = len(names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        nid = self._ids.get
        certify, orbit = nid("preperiodic.certify_point"), nid("preperiodic.iterate_orbit")
        pgb, local = nid("preperiodic.positive_green_bound"), nid("heights.local_green")
        padic = {nid(n) for n in _PADIC}
        orbit_rounds = pgb_rounds = 0
        padic_s = 0.0
        name, start, end, parent, child, outer = (
            self.name, self.start, self.end, self.parent, self.child, self.outer)
        for i in range(len(name)):
            k = name[i]
            dur = end[i] - start[i]
            calls[k] += 1
            self_time[k] += dur - child[i]
            if outer[i]:
                total[k] += dur
            par = parent[i]
            pk = name[par] if par >= 0 else -1
            if k in padic and pk not in padic:
                padic_s += dur
            if k == orbit and pk == certify:
                orbit_rounds += 1
            elif k == local and pk == pgb:
                pgb_rounds += 1

        def spans(metric):
            k = self._ids.get(metric)
            return (0, 0.0, 0.0) if k is None else (calls[k], total[k], self_time[k])

        out: dict[str, tuple[float, str]] = {}
        counts = self.counts

        def add(metric, value, unit):
            out[metric] = (value, unit)

        for metric, fields in LAYER_SPANS.items():
            c, s, own = spans(metric)
            if "calls" in fields:
                add(metric + ".calls", c, "count")
            if "s" in fields:
                add(metric + ".s", s, "s")
            if "self_s" in fields:
                add(metric + ".self_s", own, "s")
        add("intervals.iv_from_fraction.calls", counts["intervals.iv_from_fraction.calls"], "count")
        add("padics.s", padic_s, "s")
        add("polys.evaluate.max_bits", counts["polys.evaluate.max_bits"], "bits")
        add("arith.factor_integer.max_digits", counts["arith.factor_integer.max_digits"], "digits")
        n_support = spans("arith.support")[0]
        add("arith.support.repeat_share",
            counts["arith.support.repeats"] / n_support if n_support else 0.0, "share")
        for key in ("steps", "exit_escape", "exit_bounded", "restarts"):
            add("heights.arch_green." + key, counts["heights.arch_green." + key], "count")
        for key in ("steps", "exit_exact_escape", "exit_exact_bounded", "exit_interval"):
            add("heights.finite_green." + key, counts["heights.finite_green." + key], "count")
        add("heights.finite_green.padic_phase", len(self.padic_phase), "count")
        add("preperiodic.iterate_orbit.steps", counts["preperiodic.iterate_orbit.steps"], "count")
        add("preperiodic.positive_green_bound.rounds", pgb_rounds, "count")
        add("preperiodic.certify.orbit_rounds", orbit_rounds, "count")
        for key in ("candidates", "t_obstructed", "t_filtered_criterion"):
            add("preperiodic.scan." + key, counts["preperiodic.scan." + key], "count")
        return out

    def write(self, path) -> None:
        """Spans as CSV rows: name, start, end, parent index, op index."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")


# Span names and which of calls / inclusive seconds / self seconds each reports.
LAYER_SPANS = {
    "intervals.log_interval": ("calls", "s"),
    "intervals.scale": ("calls", "s"),
    "padics.from_fraction": ("calls",),
    "padics.mul": ("calls",),
    "polys.evaluate": ("calls", "s"),
    "polys.det_exact": ("calls", "s"),
    "arith.factor_integer": ("calls", "s"),
    "arith.support": ("calls",),
    "arith.logsum_compare": ("calls", "s"),
    "family.specialize": ("calls", "s"),
    "heights.canonical_height": ("calls", "s"),
    "heights.local_green": ("calls",),
    "heights.arch_green": ("calls", "s", "self_s"),
    "heights.finite_green": ("calls", "s"),
    "heights.height_defect_bound": ("calls", "s"),
    "preperiodic.iterate_orbit": ("calls", "s"),
    "preperiodic.naive_height": ("calls", "s"),
    "preperiodic.escape_place": ("calls", "s"),
    "preperiodic.positive_green_bound": ("calls", "s"),
    "preperiodic.obstruction": ("calls", "s"),
    "constants.exceptional_places": ("calls", "s"),
    "constants.resultant_bound_check": ("calls", "s"),
}
