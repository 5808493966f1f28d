"""The measured process: imports the program, sets a workload up, measures it.

Run by `run.py`, never by hand:

    python3 perfbench/worker.py --root DIR --workload W --seed N
        [--seconds S --trace 0|1 --out FILE] [--setup-only] [--tiny]

It prints `ready <json>` once the package is imported and one untimed
warm-up operation is done, then (unless --setup-only) measures for the
given seconds and writes its summary as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

from calibrate import REFERENCE_NS, calibration_ns, scale

CALIBRATE_NS = 250_000_000  # wall time between calibrations of the CPU speed
WINDOWS = 20  # runs of consecutive operations behind `window_rate`


def window_rate(samples_ns: list[float]) -> tuple[float, int]:
    """Median rate, in operations per second, over windows of
    len(samples_ns) // WINDOWS consecutive operations (at least one; a
    remainder shorter than a window is dropped), and the number of windows.

    On a shared KVM guest (2 vCPU, Xeon), over five seeds, the median window
    rate of grid_corpus spread 4%, the mean rate 5% and the rate in the
    fastest tenth of the run 12% (times as measured, not scaled)."""
    size = max(1, len(samples_ns) // WINDOWS)
    rates = [size / sum(samples_ns[i:i + size]) * 1e9
             for i in range(0, len(samples_ns) - size + 1, size)]
    return statistics.median(rates), len(rates)


def summarize(samples_ns: list[float]) -> dict:
    """Median, 90th percentile, mean, median window rate, and the highest
    percentile with at least ten samples beyond it.  Below 21 samples that
    percentile would not lie above the median, so the maximum is reported
    instead (0 samples beyond)."""
    xs = sorted(samples_ns)
    n = len(xs)
    if n == 0:
        return {"n": 0}
    k = n - 11 if n >= 21 else n - 1
    per_s, windows = window_rate(samples_ns)
    return {"n": n, "p50_ns": statistics.median(xs),
            "p90_ns": statistics.quantiles(xs, n=10)[-1] if n > 1 else xs[0],
            "mean_ns": sum(xs) / n, "total_ns": sum(xs),
            "per_s": per_s, "windows": windows,
            "tail_ns": xs[k], "tail_pct": 100.0 * (k + 1) / n, "beyond_tail": n - 1 - k}


class Recorder:
    """Latencies per op kind, failures, known defects, and the input
    properties of the operations a phase ran.

    An operation whose every failure reason is one of its `known_defects`
    (see `workloads.KNOWN_DEFECTS`) is listed as a known defect of the
    program instead of a failure: it is counted and reported with its
    instance, but does not fail the run."""

    def __init__(self):
        self.latency: dict[str, list[int]] = {}
        # per op kind, the calibration each sample follows; see `summary`
        self.interval: dict[str, list[int]] = {}
        self.calibrations: list[int] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.defects: list[dict] = []
        self.status: Counter[str] = Counter()
        self.halts: Counter[str] = Counter()
        self.instances = 0
        self.degenerate = 0
        self.grid = {"solves": 0, "polylines": 0, "vertices": 0, "components": 0,
                     "discarded": 0, "candidates": 0, "normal": 0}

    def add(self, op, ns: int, out) -> None:
        self.attempted += 1
        for kind in (op.kind, op.group) if op.group else (op.kind,):
            self.latency.setdefault(kind, []).append(ns)
            self.interval.setdefault(kind, []).append(len(self.calibrations) - 1)
        if isinstance(out, Exception):
            reasons = [f"exception: {type(out).__name__}: {out}"]
        else:
            try:
                reasons = op.check(out)
            except Exception as exc:  # a malformed result fails its op
                reasons = [f"check_error: {type(exc).__name__}: {exc}"]
            self._properties(op, out)
        self._inputs(op)
        if reasons:
            known = all(r.startswith(op.known_defects) for r in reasons)
            (self.defects if known else self.failures).append(
                {"kind": op.kind, "instance": op.instance, "input": op.raw,
                 "reasons": reasons})

    def _inputs(self, op) -> None:
        from workloads import is_nondegenerate
        for raw in op.items or ([op.raw] if op.raw else []):
            self.instances += 1
            self.degenerate += not is_nondegenerate(raw)

    def _properties(self, op, out) -> None:
        if op.kind in ("grid_solve", "inproc_solve"):
            grid = out[0]
            g = self.grid
            g["solves"] += 1
            g["polylines"] += len(grid.curves)
            g["vertices"] += sum(len(cv.vertices) for cv in grid.curves)
            g["components"] += len({cv.component_id for cv in grid.curves})
            g["discarded"] += sum(cv.contains_zero_entropy for cv in grid.curves)
            g["candidates"] += len(grid.candidates)
            g["normal"] += grid.status.value == "Normal"
            self.status[grid.status.value] += 1
        elif op.kind == "cf_sweep":
            self.status.update(sol.status.value for sol in out)
        elif op.kind == "automaton_run":
            self.halts[out[0].halt_reason] += 1

    def calibrate(self) -> None:
        self.calibrations.append(calibration_ns())

    def summary(self) -> dict:
        """Statistics per op kind as measured (`ops`) and scaled to the
        reference speed by the calibrations before and after each sample
        (`scaled_ops`)."""
        cal = self.calibrations
        scaled = {k: [scale(ns, cal[i], cal[i + 1]) for ns, i in zip(v, self.interval[k])]
                  for k, v in self.latency.items()}
        return {"ops": {k: summarize(v) for k, v in self.latency.items()},
                "scaled_ops": {k: summarize(v) for k, v in scaled.items()},
                "speed": REFERENCE_NS / statistics.median(cal), "speed_samples": cal,
                "attempted": self.attempted, "failures": self.failures,
                "defects": self.defects,
                "status": self.status, "halts": self.halts,
                "instances": self.instances, "degenerate": self.degenerate,
                "grid": self.grid}


def run_phase(ops, seconds: float, tracer=None) -> Recorder:
    """Run operations in a closed loop until `seconds` have passed (at least
    one), calibrating the CPU speed between operations every CALIBRATE_NS
    and once at each end.  Garbage collection stays enabled, as it is for
    the program's users, so the collections a call's own allocations
    trigger are timed with it."""
    rec = Recorder()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    rec.calibrate()
    calibrated = clock()
    for op in ops:
        now = clock()
        if now >= deadline and rec.attempted:
            break
        if now - calibrated >= CALIBRATE_NS:
            rec.calibrate()
            calibrated = clock()
        if tracer is not None:
            tracer.begin(op.instance, op.kind)
        start = clock()
        try:
            out = op.call()
        except Exception as exc:  # a raising call is a failed operation
            out = exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.end()
        rec.add(op, elapsed, out)
    rec.calibrate()
    return rec


def matched_means(untraced: list[int], traced: list[int]) -> list[float]:
    """Mean untraced and mean traced time in ns of the same leading
    operations; the tracing overhead is their ratio minus one."""
    m = min(len(untraced), len(traced))
    return [sum(untraced[:m]) / m, sum(traced[:m]) / m] if m else [0.0, 0.0]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    # One CPU for this process and the CLI requests it starts, so that the
    # calibrations measure the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    before = calibration_ns()
    t0 = time.perf_counter()
    import spincollapse
    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(spincollapse.__file__).startswith(src + os.sep):
        print(f"error: spincollapse imported from {spincollapse.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    import workloads
    wl = workloads.make(args.workload, args.seed, args.root, args.tiny)
    try:
        wl.warmup()
        print("ready " + json.dumps({"import_s": import_s, "numpy": numpy.__version__,
                                     "scipy": scipy.__version__,
                                     "calibrations": [before, calibration_ns()]}), flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, args)
    finally:
        if wl.outdir:
            shutil.rmtree(wl.outdir, ignore_errors=True)
    result.update(grid_n=wl.grid_n, sizes=wl.sizes, traced_primary=wl.traced_primary)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(wl, args) -> dict:
    is_cli = wl.name == "cli"
    if not args.trace:
        rec = run_phase(wl.ops(), args.seconds)
        # the CLI workload's requests run in child processes
        return {"untraced": rec.summary(), "peak_rss_mb": peak_rss_mb(is_cli)}

    from tracer import Tracer
    half = args.seconds / 2.0
    untraced = run_phase(wl.ops(), half)
    result = {"untraced": untraced.summary()}
    if is_cli:
        # the requests' in-process equivalent, untraced, as the base for
        # both cli.self_ms and the tracing overhead
        base = run_phase(wl.traced_ops(), half / 2.0)
        result["inproc"] = base.summary()
        half /= 2.0
    else:
        base = untraced
    tracer = Tracer()
    with tracer.patched():
        traced = run_phase(wl.traced_ops(), half, tracer)
    result["traced"] = traced.summary()
    result["matched_mean_ns"] = matched_means(base.latency.get(wl.traced_primary, []),
                                              traced.latency.get(wl.traced_primary, []))
    result["trace"] = {"stats": tracer.stats, "spans": tracer.span_count}
    tracer.write(args.out + ".spans.jsonl")
    return result


if __name__ == "__main__":
    sys.exit(main())
