"""Benchmark for heightforge: certified heights, certificates, box scans and
large parameters.

    python3 bench/run.py --workload heights --seed 1 --seconds 15 --trace 0

With --trace 0 it runs whole rounds of seeded ops until --seconds of op time
have passed and reports the end-to-end metrics, with times expressed at the
reference machine speed of `calibrate.py`.  With --trace 1 it runs a
fixed number of rounds (set by the workload and --seconds) once untraced and
once with spans around every layer, checks that both give identical outputs,
and reports the per-layer metrics.  Every output is checked outside the timed
region.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics.  --out DIR also writes that object,
and the spans of a traced run, into DIR.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
SETUP_KERNELS = 20  # calibration samples taken after each set-up
CHILD_TIMEOUT_S = 120


def import_heightforge():
    package = SRC / "heightforge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: heightforge sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import heightforge

    if Path(heightforge.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported heightforge from {heightforge.__file__}, not {package}")
    return heightforge


def setup(name: str):
    """Import heightforge, build the workload's families and covers, and run
    one warm-up op per family; returns (heightforge, workload, seconds)."""
    start = time.perf_counter()
    hf = import_heightforge()
    workload = workloads.WORKLOADS[name](hf)
    workload.warm_up()
    return hf, workload, time.perf_counter() - start


def calibrated_setup(seconds: float) -> float:
    """Set-up time at reference speed, calibrated in the process that set up."""
    calibration = Calibration()
    calibration.sample(SETUP_KERNELS)
    return seconds * calibration.scale


def setup_samples(name: str, first: float) -> list[float]:
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def reset_parameter_caches(hf) -> None:
    """Empty heightforge's per-parameter caches so two passes over the same
    ops start from the same state."""
    clear = getattr(hf.height_defect_bound, "cache_clear", None)
    if clear is not None:
        clear()


def run_round(hf, ops, tracer=None, first_index=0, calibration=None):
    """Run one round; returns (outputs, per-op seconds)."""
    outs, lat = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        span = tracer.begin_op(first_index + i) if tracer is not None else None
        t0 = clock()
        try:
            out = op.call(hf)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        seconds = clock() - t0
        if span is not None:
            tracer.end_op(span)
        lat.append(seconds)
        outs.append(out)
        if calibration is not None:
            calibration.tick(seconds)
    return outs, lat


class Tally:
    """Attempted, failed and wrong ops, and latencies of ops that succeeded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.latencies: list[float] = []

    def add(self, workload, ops, outs, lat):
        for op, out, seconds, problem in zip(ops, outs, lat, workload.check(ops, outs)):
            self.attempted += 1
            if problem is None:
                self.latencies.append(seconds)
            elif op.known_fault is not None or isinstance(out, Exception):
                self.failed += 1
                if op.known_fault is None:
                    print(f"failed op {op.fn}{op.args[1:]}: {problem}", file=sys.stderr)
            else:
                self.wrong.append(f"{op.fn}{op.args[1:]}: {problem}")


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure(hf, workload, seed: int, seconds: float, setup_s: list[float]) -> dict:
    tally = Tally()
    calibration = Calibration()
    batch = 0.0
    rounds = workload.rounds(seed)
    while batch < seconds:
        ops = next(rounds)
        outs, lat = run_round(hf, ops, calibration=calibration)
        batch += sum(lat)
        tally.add(workload, ops, outs, lat)
    ok = len(tally.latencies)
    scale = calibration.scale
    p50, p90 = (percentile(tally.latencies, share) for share in (0.5, 0.9))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_ops_s": (ok / (batch * scale), "ops/s"),
        "op_p50_ms": (p50 * scale * 1e3, "ms"),
        "op_p90_ms": (p90 * scale * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    print(f"{workload.name}: {tally.attempted} ops ({tally.failed} failed) in "
          f"{batch:.2f} s of op time; as measured {ok / batch:.2f} ops/s, "
          f"p50 {p50 * 1e3:.4f} ms, p90 {p90 * 1e3:.4f} ms; time scale {scale:.4f} "
          f"from {len(calibration.samples)} kernel runs; set-up samples {setup_s}",
          file=sys.stderr)
    return result(tally, metrics)


def summary(out):
    """A comparable digest of one output (verdicts, enclosures, scan counts)."""
    if isinstance(out, Exception):
        return ("error", type(out).__name__, str(out))
    if hasattr(out, "lo") and hasattr(out, "hi"):
        return ("interval", out.lo, out.hi)
    data = out.to_json()
    data.pop("elapsedSeconds", None)
    return json.dumps(data, sort_keys=True)


def trace(hf, workload, seed: int, seconds: float, out_dir) -> dict:
    import spans

    n_rounds = max(1, round(seconds * workload.TRACE_ROUNDS_PER_S))
    rounds = workload.rounds(seed)
    batch = [next(rounds) for _ in range(n_rounds)]

    reset_parameter_caches(hf)
    plain, plain_s, plain_speed = [], 0.0, Calibration()
    for ops in batch:
        outs, lat = run_round(hf, ops, calibration=plain_speed)
        plain.append(outs)
        plain_s += sum(lat)

    reset_parameter_caches(hf)
    tracer = spans.Tracer()
    tracer.install()
    traced, traced_s, index, traced_speed = [], 0.0, 0, Calibration()
    try:
        for ops in batch:
            outs, lat = run_round(hf, ops, tracer, index, traced_speed)
            traced.append((outs, lat))
            traced_s += sum(lat)
            index += len(ops)
    finally:
        tracer.uninstall()

    tally = Tally()
    for ops, plain_outs, (outs, lat) in zip(batch, plain, traced):
        if [summary(o) for o in plain_outs] != [summary(o) for o in outs]:
            tally.wrong.append("traced outputs differ from untraced outputs")
        tally.add(workload, ops, outs, lat)
    metrics = tracer.metrics()
    # both passes at reference speed, so machine drift between them cancels
    overhead = (traced_s * traced_speed.scale) / (plain_s * plain_speed.scale)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"{workload.name}: traced {tally.attempted} ops in {traced_s:.2f} s, "
          f"untraced {plain_s:.2f} s, {len(tracer.name)} spans", file=sys.stderr)
    if out_dir is not None:
        tracer.write(out_dir / f"spans-{workload.name}-{seed}.csv")
    return result(tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    for problem in tally.wrong[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the result JSON and, when tracing, the spans")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, _, seconds = setup(args.workload)
        print(repr(calibrated_setup(seconds)))
        return 0

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    hf, workload, first = setup(args.workload)
    if args.trace:
        res = trace(hf, workload, args.seed, args.seconds, args.out)
    else:
        res = measure(hf, workload, args.seed, args.seconds,
                      setup_samples(args.workload, calibrated_setup(first)))
    line = json.dumps(res)
    if args.out is not None:
        suffix = "trace" if args.trace else "run"
        (args.out / f"result-{args.workload}-{args.seed}-{suffix}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
