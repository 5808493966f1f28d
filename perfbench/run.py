"""spincollapse benchmark: one command per workload run.

    python3 perfbench/run.py --workload W|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`
and driven only through its public API and its CLI.  Workloads (why each
exists is in BENCHMARK.json and `workloads.WHY`):

    grid_corpus  unfiltered instances, both routes at grid 256
    grid_fine    pinned and seeded instances, grid route at grid 4096
    closed_form  closed-form sweeps, automaton runs, pfn Monte Carlo
    cli          one fresh `python -m spincollapse.cli` per request

With --trace 0 the run is untraced and reports the end-to-end metrics of the
workload's primary operation: throughput as the median over twenty
windows of the run (`ops_per_s`, see `worker.window_rate`), the median and
90th-percentile latency (`op_ms_p50`, `op_ms_p90`), set-up time and peak
RSS.  Every time among them is scaled to a reference CPU speed measured
in the measuring process (`calibrate.py`); the `#` lines give each as
measured too.  The tail the metric guide asks for (the highest percentile with at
least ten samples beyond it), mean rates and the per-workload operation
metrics are printed, as measured, on `#` lines with their sample counts,
but are not in the JSON result: on a shared 2-vCPU KVM guest (Xeon,
Python 3.11) that tail spread 22-31% over five seeds on grid_corpus and
closed_form, because it follows a handful of hard instances and the host's
bursts, while the median and 90th percentile spread 5-8%.

With --trace 1 it measures half the time untraced and half with spans
recorded around every layer boundary (`tracer.py`), and reports the
per-layer metrics and the tracing overhead.  On the in-process workloads
it also makes a short traced run of the cli workload, for `cli.self_ms`.
The last line of output is the JSON result; full results and the recorded
spans are written under `perfbench/out/`.

Set-up time is measured in SETUP_RUNS fresh processes that import the
package and run one untimed warm-up operation, from spawn to their `ready`
line; each is scaled by the calibrations the process makes before its
import and after its warm-up, and the median is reported.  The last of them
goes on to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from calibrate import scale

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid_corpus", "grid_fine", "closed_form", "cli")
SETUP_RUNS = 5
INTERP_START_RUNS = 5
CLI_PROBE_S = 6.0  # traced run of the cli workload behind cli.self_ms elsewhere
RUN_MARGIN_S = 120  # beyond --seconds, for set-up and probes; keeps a run under 180 s
LAYERS = ("bench", "solver", "contour", "entropy", "bloch", "scipy", "pfn", "automaton")

# Every end-to-end metric is measured on every workload, on that workload's
# primary operation.
PRIMARY = {
    "grid_corpus": ("grid_solve", "one unfiltered instance solved by both routes at grid 256"),
    "grid_fine": ("grid_solve", "one grid-route solve at grid 4096"),
    "closed_form": ("cf_sweep", "one sweep of closed-form solves over a block of instances"),
    "cli": ("cli_request", "one `spincollapse solve` process at the default flags or one "
                           "`spincollapse run` process on a grid config, alternating"),
}
# The operation metrics under their per-workload names:
# (name, op kind, statistic, scale, unit); a "samples" scale is the Monte
# Carlo sample count per call, a "block" scale the solves per sweep.
NAMED = {
    "grid_corpus": [("grid_solves_per_s", "grid_solve", "rate", 1, "1/s"),
                    ("grid_solve_ms_p50", "grid_solve", "p50_ns", 1e-6, "ms"),
                    ("grid_solve_ms_tail", "grid_solve", "tail_ns", 1e-6, "ms")],
    "closed_form": [("cf_solves_per_s", "cf_sweep", "rate", "block", "1/s"),
                    ("automaton_runs_per_s", "automaton_run", "rate", 1, "1/s"),
                    ("mc_samples_per_s", "mc", "rate", "samples", "1/s")],
    "cli": [("cli_solve_s_p50", "cli_solve", "p50_ns", 1e-9, "s"),
            ("cli_solve_s_tail", "cli_solve", "tail_ns", 1e-9, "s"),
            ("cli_run_s_p50", "cli_run", "p50_ns", 1e-9, "s")],
}
NAMED["grid_fine"] = NAMED["grid_corpus"]


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine(root: str, versions: dict) -> dict:
    """Machine fingerprint recorded with every result; `versions` are the
    numpy and scipy versions a worker imported."""
    model = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_text(os.path.join(base, index, "level"))
        kind = read_text(os.path.join(base, index, "type"))
        if kind != "Instruction" and level != "unknown":
            caches[f"L{level}"] = read_text(os.path.join(base, index, "size"))
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=60)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": model, "cache": caches,
            "python": platform.python_version(), "numpy": versions["numpy"],
            "scipy": versions["scipy"], "commit": commit}


def program_env(root: str) -> dict:
    """The environment of every process started: the program comes from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(root: str, args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion.  Returns its set-up time (spawn to its
    `ready` line) and its ready payload; kills it on any error or once the
    run's deadline passes."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                          env=program_env(root)) as proc:
        try:
            readable, _, _ = select.select([proc.stdout], [], [],
                                           max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if readable else ""
            setup_s = time.perf_counter() - start
            if not line.startswith("ready "):
                raise RuntimeError("worker failed or timed out during set-up")
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            raise
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return setup_s, json.loads(line[len("ready "):])


def cli_probe(root: str, args, deadline: float) -> tuple[float, dict]:
    """A short traced run of the cli workload, so that the cli layer's own
    time is measured on every workload.  Returns its import time and its
    result."""
    out = os.path.join(HERE, "out", f"cli-probe-seed{args.seed}.json")
    _, ready = run_worker(root, argparse.Namespace(**{**vars(args), "workload": "cli"}),
                          ["--seconds", str(CLI_PROBE_S), "--trace", "1", "--out", out],
                          deadline)
    with open(out) as fh:
        return ready["import_s"], json.load(fh)


def import_probe(root: str) -> dict:
    """`python -X importtime`: self time summed per top-level package."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spincollapse"],
                          capture_output=True, text=True, env=program_env(root), cwd=root,
                          timeout=60)
    per_package: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        per_package[package] = per_package.get(package, 0) + int(self_us)
    return per_package


def interpreter_start_s() -> float:
    times = []
    for _ in range(INTERP_START_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics

def op_stats(summary: dict, kind: str) -> dict:
    return summary["ops"].get(kind, {"n": 0})


def end_to_end(wl: str, res: dict, setup: list[float], setup_scaled: list[float]) -> dict:
    """(value, unit, note) of each end-to-end metric.  Times are scaled to
    the reference CPU speed (`calibrate.py`); the note gives them as
    measured."""
    kind = PRIMARY[wl][0]
    st = op_stats(res["untraced"], kind)
    sc = res["untraced"]["scaled_ops"][kind]
    n = f"n={st['n']}; measured"
    return {
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"median of {len(setup)} processes; measured {statistics.median(setup):.6g}"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "ru_maxrss"),
        "ops_per_s": (sc["per_s"], "1/s",
                      f"median of {sc['windows']} windows; {n} {st['per_s']:.6g}"),
        "op_ms_p50": (sc["p50_ns"] / 1e6, "ms", f"{n} {st['p50_ns'] / 1e6:.6g}"),
        "op_ms_p90": (sc["p90_ns"] / 1e6, "ms", f"{n} {st['p90_ns'] / 1e6:.6g}"),
    }


COLUMNS = {"calls": 0, "total_ns": 1, "self_ns": 2}


def traced_sum(trace: dict, column: str, kind: str | None = None,
               name: str | None = None, layer: str | None = None) -> int:
    """Sum one column of the tracer's statistics (op kind -> span name ->
    [calls, total ns, self ns]), filtered by op kind, span name or layer."""
    col = COLUMNS[column]
    return sum(entry[col] for k, spans in trace["stats"].items() if kind in (None, k)
               for span, entry in spans.items()
               if name in (None, span) and layer in (None, span.split(".", 1)[0]))


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(res: dict, import_s: float, probe: dict, start_s: float,
              cli: tuple[float, dict]) -> dict:
    """Layer metrics of the traced phase.  Time and count metrics of the
    grid path are per primary operation and count only the spans inside
    primary operations; automaton and pfn times are means per call.  `cli`
    is the import time and traced result of the cli workload: this run's, or
    its probe's."""
    trace, rec, untraced = res["trace"], res["traced"], res["untraced"]
    kind = res["traced_primary"]
    n_ops = traced_sum(trace, "calls", kind, "bench.op")

    def per_op(table: str, name: str | None = None, layer: str | None = None) -> float:
        return ratio(traced_sum(trace, table, kind, name, layer), n_ops)

    def per_call_us(name: str, table: str = "total_ns") -> float:
        return ratio(traced_sum(trace, table, name=name),
                     traced_sum(trace, "calls", name=name)) / 1e3

    g, status, halts = rec["grid"], rec["status"], rec["halts"]
    phases = [res[k] for k in ("untraced", "traced", "inproc") if k in res]
    n_status, n_halts = sum(status.values()), sum(halts.values())
    ms_ns = per_op("total_ns", "contour.marching_squares")
    trace_ns = per_op("total_ns", "solver.trace_level_sets")
    # a `spincollapse solve` request's wall time minus import minus the same
    # solve in-process
    cli_import_s, cli_res = cli
    cli_wall = op_stats(cli_res["untraced"], "cli_solve").get("p50_ns", 0) / 1e9
    cli_inproc = op_stats(cli_res["inproc"], "inproc_solve").get("p50_ns", 0) / 1e9
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_ms": (probe.get("scipy", 0) / 1e3, "ms"),
        "cli.import_numpy_ms": (probe.get("numpy", 0) / 1e3, "ms"),
        "cli.interp_start_s": (start_s, "s"),
        "cli.self_ms": ((cli_wall - cli_import_s - cli_inproc) * 1e3, "ms"),
        "contour.marching_squares_ms": (ms_ns / 1e6, "ms"),
        "contour.calls": (per_op("calls", "contour.marching_squares"), "count/op"),
        "contour.polylines": (ratio(g["polylines"], g["solves"]), "count/solve"),
        "contour.vertices": (ratio(g["vertices"], g["solves"]), "count/solve"),
        "solver.trace_self_ms": ((trace_ns - ms_ns) / 1e6, "ms"),
        "solver.refine_ms": ((per_op("total_ns", "solver.solve_collapse") - trace_ns) / 1e6, "ms"),
        "solver.brentq_calls": (per_op("calls", "scipy.brentq"), "count/op"),
        "bloch.overlap_calls": (per_op("calls", "bloch.overlap_from_angles"), "count/op"),
        "solver.components": (ratio(g["components"], g["solves"]), "count/solve"),
        "solver.discarded_components": (ratio(g["discarded"], g["solves"]), "count/solve"),
        "solver.candidates": (ratio(g["candidates"], g["solves"]), "count/solve"),
        "solver.useful_ratio": (ratio(g["normal"], g["candidates"]), "ratio"),
        "solver.normal_frac": (ratio(status.get("Normal", 0), n_status), "ratio"),
        "solver.death_point_frac": (ratio(status.get("DeathPoint", 0), n_status), "ratio"),
        "solver.trivial_frac": (ratio(status.get("Trivial", 0), n_status), "ratio"),
        "solver.closed_form_us": (per_call_us("solver.solve_collapse_closed_form"), "us"),
        "entropy.binary_entropy_calls": (per_op("calls", "entropy.binary_entropy"), "count/op"),
        "entropy.self_ms": (per_op("self_ns", layer="entropy") / 1e6, "ms"),
        "automaton.step_self_us": (per_call_us("automaton.step", "self_ns"), "us"),
        "automaton.jsonl_us": (per_call_us("automaton.to_jsonl"), "us"),
        "automaton.steps_per_run": (ratio(traced_sum(trace, "calls", name="automaton.step"),
                                          traced_sum(trace, "calls", name="automaton.run")),
                                    "count/run"),
        "automaton.halt_trivial_frac": (ratio(halts.get("trivial", 0), n_halts), "ratio"),
        "automaton.halt_death_point_frac": (ratio(halts.get("death_point", 0), n_halts), "ratio"),
        "automaton.halt_max_steps_frac": (ratio(halts.get("max_steps", 0), n_halts), "ratio"),
        "automaton.runs_per_s": (rate(untraced, "automaton_run"), "1/s"),
        "pfn.decide_outcome_us": (per_call_us("pfn.decide_outcome"), "us"),
        "pfn.truth_table_us": (per_call_us("pfn.to_truth_table"), "us"),
        # nanoseconds per sample read as milliseconds per 1e6 samples
        "pfn.mc_ms_per_1e6": (ratio(per_call_us("pfn.outcome_probability") * 1e3,
                                    res["sizes"]["mc_samples"]), "ms"),
        "input.nondegenerate_reject_frac": (ratio(untraced["degenerate"], untraced["instances"]),
                                            "ratio"),
        "input.field_mb": (field_mb(res["grid_n"]), "MB"),
        "solver.known_defect_frac": (ratio(sum(len(p["defects"]) for p in phases),
                                           sum(p["attempted"] for p in phases)), "ratio"),
    }

    # Self time per primary operation, layer by layer.  `bench` is the part
    # of an operation inside no program span: its share of the operation,
    # `trace.unaccounted_frac`, is the time no layer accounts for.  The
    # overhead compares the means of the same leading operations.
    layers_ms = 0.0
    for layer in LAYERS:
        m[f"selfms.{layer}"] = (per_op("self_ns", layer=layer) / 1e6, "ms")
        if layer != "bench":
            layers_ms += m[f"selfms.{layer}"][0]
    untraced_ns, traced_ns = res["matched_mean_ns"]
    m["trace.layers_ms"] = (layers_ms, "ms")
    m["trace.untraced_mean_ms"] = (untraced_ns / 1e6, "ms")
    m["trace.overhead_frac"] = (ratio(traced_ns, untraced_ns) - 1.0, "ratio")
    m["trace.unaccounted_frac"] = (ratio(per_op("self_ns", "bench.op"),
                                         per_op("total_ns", "bench.op")), "ratio")
    m["trace.spans"] = (trace["spans"], "count")
    return m


def rate(summary: dict, kind: str) -> float:
    s = op_stats(summary, kind)
    return ratio(s["n"], s.get("total_ns", 0) / 1e9)


# ---------------------------------------------------------------------------
# report

def named_lines(wl: str, summary: dict, sizes: dict) -> list[str]:
    lines = []
    for name, kind, stat, scale, unit in NAMED[wl]:
        st = op_stats(summary, kind)
        if not st["n"]:
            lines.append(f"# metric {name} = n/a {unit} (n=0)")
            continue
        value = rate(summary, kind) if stat == "rate" else st[stat]
        value *= {"samples": sizes["mc_samples"], "block": sizes["block"]}.get(scale, scale)
        tail = (f", tail percentile p{st['tail_pct']:.2f} with {st['beyond_tail']} "
                f"samples beyond" if stat == "tail_ns" else "")
        lines.append(f"# metric {name} = {value:.6g} {unit} (n={st['n']}{tail})")
    return lines


def field_mb(grid_n: int | None) -> float:
    """Size of one float64 overlap field, computed from its shape."""
    return (grid_n + 1) ** 2 * 8 / 2 ** 20 if grid_n else 0.0


def report_inputs(summary: dict, grid_n: int | None) -> str:
    """The input properties an optimisation could depend on, per solve."""
    g = summary["grid"]
    props = {"status": summary["status"], "halts": summary["halts"],
             "instances": summary["instances"],
             "nondegenerate_reject_frac": round(ratio(summary["degenerate"],
                                                      summary["instances"]), 6),
             "field_mb_computed": round(field_mb(grid_n), 3)}
    if g["solves"]:
        props.update({k: round(g[k] / g["solves"], 3)
                      for k in ("polylines", "vertices", "components", "discarded", "candidates")})
    return "# inputs: " + json.dumps(props)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and blocks, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [run_one(argparse.Namespace(**{**vars(args), "workload": w})) for w in WORKLOADS]
        return max(codes)
    return run_one(args)


def run_one(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spincollapse", "__init__.py")):
        return fail("run from the root of a spincollapse checkout (src/spincollapse missing)")
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    out = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")

    try:
        deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
        setup, ready = [], []
        for k in range(SETUP_RUNS):
            measure = k == SETUP_RUNS - 1  # the last process also measures
            seconds, payload = run_worker(
                root, args, ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--out", out] if measure else ["--setup-only"], deadline)
            setup.append(seconds)
            ready.append(payload)
        with open(out) as fh:
            res = json.load(fh)
        import_s = statistics.median(r["import_s"] for r in ready)
        probed = cli_probe(root, args, deadline) \
            if args.trace and args.workload != "cli" else None
        fingerprint = machine(root, ready[-1])
        probe = import_probe(root) if args.trace else {}
        start_s = interpreter_start_s() if args.trace else 0.0
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))

    setup_scaled = [scale(s, *r["calibrations"]) for s, r in zip(setup, ready)]
    untraced = res["untraced"]
    phases = [res[k] for k in ("untraced", "traced", "inproc") if k in res]
    if probed:
        phases += [probed[1][k] for k in ("untraced", "traced", "inproc")]
    failures = [f for phase in phases for f in phase["failures"]]
    defects = [f for phase in phases for f in phase["defects"]]
    attempted = sum(phase["attempted"] for phase in phases)
    kind, what = PRIMARY[args.workload]
    lines = [f"# perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "# machine: " + json.dumps(fingerprint),
             f"# primary operation ({kind}): {what}",
             f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup)} measured, "
             f"{', '.join(f'{s:.4f}' for s in setup_scaled)} scaled",
             f"# CPU speed: {res['untraced']['speed']:.4f} of the reference "
             f"(median of {len(res['untraced']['speed_samples'])} calibrations)"]
    lines += named_lines(args.workload, untraced, res["sizes"])
    lines.append(report_inputs(untraced, res["grid_n"]))
    if args.trace:
        metrics = per_layer(res, import_s, probe, start_s, probed or (import_s, res))
    else:
        metrics = end_to_end(args.workload, res, setup, setup_scaled)
    lines.append(f"# fail_frac = {ratio(len(failures), attempted):.6g} "
                 f"({len(failures)} of {attempted} operations)")
    lines.append(f"# known_defect_frac = {ratio(len(defects), attempted):.6g} "
                 f"({len(defects)} of {attempted} operations; ROADMAP item 3)")
    for label, found in (("failure", failures), ("known defect", defects)):
        for f in found:
            lines.append(f"# {label} {f['kind']} {f['instance']} input={f['input']}: "
                         f"{'; '.join(f['reasons'])}")
    for name, (value, unit, *note) in metrics.items():
        lines.append(f"# {name} = {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    with open(out, "w") as fh:
        json.dump({"machine": fingerprint, "setup_s": setup, "worker": res,
                   "cli_probe": probed, "result": result}, fh)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
