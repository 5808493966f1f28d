"""Command-line front end.

Subcommands: solve a single collapse instance, dump level-set polylines as
CSV, run the iterated-measurement automaton from a JSON config, and work with
boolean outcome policies.  All output on stdout is a pure function of the
flags and config; diagnostics go to stderr.  Exit codes: 0 success (death
points included), 1 usage error, 2 the grid and closed-form routes'
statuses or answers differ.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# every subcommand imports the modules it uses when it runs, so a request
# loads only what it needs: `pfn table` loads no numpy, `solve` no automaton
from .bloch import SpinState, canonicalize_axis

# former agreement tolerances: only perfbench/workloads.py reads them, and
# the benchmark change that makes its check exact deletes them
AXIS_AGREE_TOL = 1e-4
S_UP_AGREE_TOL = 1e-6
# method spellings of the run config -> SolverConfig.method
METHODS = {"grid": "grid", "closed": "closed_form", "closed_form": "closed_form"}


def _one_line(text: str) -> str:
    """text with every whitespace character but the space escaped, so that
    the user's text inside a diagnostic cannot break its line."""
    return "".join(ch.encode("unicode_escape").decode()
                   if ch.isspace() and ch != " " else ch for ch in text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors: one stderr line, exit code 1
        print(f"error: {_one_line(message)}", file=sys.stderr)
        raise SystemExit(1)


def _instance(args) -> tuple:
    axis = canonicalize_axis(args.theta_i, args.phi_i)
    state = SpinState(args.rho, args.tau)
    return axis, state


def _solution_dict(sol) -> dict:
    return {
        "status": sol.status.value,
        "theta_f": sol.axis_f.theta,
        "phi_f": sol.axis_f.phi,
        "s_up": sol.s_up,
        "s_i": sol.s_i,
        "candidates": [
            {"theta": c.axis.theta, "phi": c.axis.phi, "overlap": c.overlap,
             "s_up": c.s_up, "component": c.component_id}
            for c in sol.candidates
        ],
    }


def cmd_solve(args) -> int:
    from .solver import SolverConfig, solve_collapse, solve_collapse_closed_form

    axis, state = _instance(args)
    cfg = SolverConfig(grid_n=args.grid)
    route = (solve_collapse_closed_form if args.method == "closed"
             else solve_collapse)
    out = route(axis, state, cfg)
    agreement = None
    exit_code = 0
    if args.method == "both":
        closed = solve_collapse_closed_form(axis, state, cfg)
        # both routes build their answers by the same arithmetic, so they
        # agree only when equal; the key keeps its name, which perfbench reads
        agree = ((out.status, out.axis_f, out.s_up, out.s_i)
                 == (closed.status, closed.axis_f, closed.s_up, closed.s_i))
        agreement = {"status_match": out.status == closed.status,
                     "within_tolerance": agree}
        if not agree:
            print(f"ERROR grid and closed-form routes disagree: {agreement}",
                  file=sys.stderr)
            exit_code = 2
    payload = _solution_dict(out)
    payload["method_agreement"] = agreement
    print(json.dumps(payload))
    return exit_code


def cmd_trace(args) -> int:
    import csv

    from .solver import SolverConfig, Status, on_chart_edge, solve_collapse

    axis, state = _instance(args)
    sol = solve_collapse(axis, state, SolverConfig(grid_n=args.grid))
    rows = []
    for cv in sol.curves:
        for th, ph, overlap, s_up in cv.vertices:
            rows.append([f"{th:.12g}", f"{ph:.12g}", f"{cv.level:.12g}",
                         cv.component_id, f"{overlap:.12g}",
                         f"{s_up:.12g}", int(on_chart_edge(th, ph))])
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "phi", "level", "component",
                             "overlap", "s_up", "is_boundary"])
            writer.writerows(rows)
    except OSError as exc:
        raise ValueError(f"cannot write {_one_line(args.out)}: {exc}") \
            from None
    # after the write, so that a failed one prints its error line alone
    if sol.status is Status.TRIVIAL:
        print("warning: trivial instance, no level curves", file=sys.stderr)
    return 0


RUN_FIELDS = {
    "theta_i": float, "phi_i": float, "rho": float, "tau": float,
    "pfn": str, "memory_depth": int, "max_steps": int, "grid_n": int,
    "method": str, "seed": int, "out": str,
}


def _config_value(typ: type, value: object):
    """value as a typ config field, or None when it is not one: a str field
    takes a string, a float field a number and an int field an integral
    number; a boolean is not a number."""
    if typ is str:
        return value if isinstance(value, str) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if typ is int:
        if isinstance(value, float) and not value.is_integer():
            return None
        return int(value)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its key-value pairs; a repeated key is an error,
    where json.load would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config repeats field {key!r}")
        obj[key] = value
    return obj


def cmd_run(args) -> int:
    from .automaton import ObserverAutomaton
    from .pfn import parse_expr
    from .solver import SolverConfig

    try:
        with open(args.config) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError("config nests too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    cfgd = {}
    for name, typ in RUN_FIELDS.items():
        if name not in raw:
            raise ValueError(f"config missing field {name!r}")
        value = _config_value(typ, raw[name])
        if value is None:
            raise ValueError(f"config field {name!r} must be {typ.__name__}")
        cfgd[name] = value
    unknown = set(raw) - set(RUN_FIELDS)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")

    # a run solves each step with one route, so "both" has no meaning here
    method = METHODS.get(cfgd["method"])
    if method is None:
        raise ValueError("config field 'method' must be grid|closed")
    axis = canonicalize_axis(cfgd["theta_i"], cfgd["phi_i"])
    state = SpinState(cfgd["rho"], cfgd["tau"])
    pfn = parse_expr(cfgd["pfn"], cfgd["memory_depth"])
    solver_cfg = SolverConfig(grid_n=cfgd["grid_n"], method=method)
    machine = ObserverAutomaton(axis, pfn, cfgd["memory_depth"], solver_cfg)
    result = machine.run(state, cfgd["max_steps"])
    try:
        with open(cfgd["out"], "w") as fh:
            fh.write(result.to_jsonl())
    except OSError as exc:
        raise ValueError(f"cannot write {_one_line(cfgd['out'])}: {exc}") \
            from None
    print(json.dumps({
        "steps": len(result.records),
        "halted": result.halted,
        "halt_reason": result.halt_reason,
        "death_step": result.death_step,
    }))
    return 0


def _parse_or_diagnose(text: str, n: int):
    """parse_expr, with a syntax error's message followed by the text, its
    whitespace shown as spaces, and a caret under the failing position."""
    from .pfn import ExprSyntaxError, parse_expr

    try:
        return parse_expr(text, n)
    except ExprSyntaxError as exc:
        shown = "".join(" " if ch.isspace() else ch for ch in text)
        raise ValueError(f"{exc}\n  {shown}\n  {' ' * exc.position}^") \
            from None


def cmd_pfn(args) -> int:
    from .pfn import (CHART_UNIFORM, SPHERE_AREA, TruthTable,
                      outcome_probability, render, to_cnf, to_dnf,
                      to_truth_table)

    if args.pfn_command == "table":
        expr = _parse_or_diagnose(args.expr, args.n)
        print(to_truth_table(expr, args.n).to_hex())
        return 0
    if args.pfn_command in ("dnf", "cnf"):
        table = TruthTable.from_hex(args.table, args.n)
        expr = to_dnf(table) if args.pfn_command == "dnf" else to_cnf(table)
        print(render(expr))
        return 0
    if args.pfn_command == "prob":
        expr = _parse_or_diagnose(args.expr, args.n)
        measure = CHART_UNIFORM if args.measure == "chart" else SPHERE_AREA
        method = "analytic" if args.method == "analytic" else "monte_carlo"
        prob = outcome_probability(expr, measure, method,
                                   samples=args.samples, seed=args.seed,
                                   n=args.n)
        payload = {"probability": prob, "method": method,
                   "measure": measure.kind}
        if method == "monte_carlo":
            payload["samples"] = args.samples
            payload["seed"] = args.seed
        print(json.dumps(payload))
        return 0
    raise AssertionError(args.pfn_command)


def _add_instance_flags(p):
    p.add_argument("--theta-i", type=float, required=True, dest="theta_i",
                   help="initial axis polar angle (radians)")
    p.add_argument("--phi-i", type=float, required=True, dest="phi_i",
                   help="initial axis azimuth (radians)")
    p.add_argument("--rho", type=float, required=True,
                   help="state weight of the first amplitude, in [0,1]")
    p.add_argument("--tau", type=float, required=True,
                   help="state phase (radians)")
    p.add_argument("--grid", type=int, default=1024,
                   help="grid samples per chart dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spincollapse")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one collapse instance")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--method", choices=["grid", "closed", "both"],
                         default="both")
    p_solve.set_defaults(func=cmd_solve)

    p_trace = sub.add_parser("trace", help="write level-set polylines as CSV")
    _add_instance_flags(p_trace)
    p_trace.add_argument("--out", required=True, help="output CSV path")
    p_trace.set_defaults(func=cmd_trace)

    p_run = sub.add_parser("run", help="run the measurement automaton")
    p_run.add_argument("config", help="JSON run-config path")
    p_run.set_defaults(func=cmd_run)

    p_pfn = sub.add_parser("pfn", help="outcome-policy utilities")
    pfn_sub = p_pfn.add_subparsers(dest="pfn_command", required=True)
    p_table = pfn_sub.add_parser("table", help="truth table of an expression")
    p_table.add_argument("--expr", required=True)
    p_table.add_argument("--n", type=int, default=0)
    p_dnf = pfn_sub.add_parser("dnf", help="canonical DNF of a hex table")
    p_dnf.add_argument("--table", required=True)
    p_dnf.add_argument("--n", type=int, default=0)
    p_cnf = pfn_sub.add_parser("cnf", help="canonical CNF of a hex table")
    p_cnf.add_argument("--table", required=True)
    p_cnf.add_argument("--n", type=int, default=0)
    p_prob = pfn_sub.add_parser("prob", help="up-outcome probability")
    p_prob.add_argument("--expr", required=True)
    p_prob.add_argument("--n", type=int, default=0)
    p_prob.add_argument("--measure", choices=["chart", "sphere"],
                        default="chart")
    p_prob.add_argument("--method", choices=["analytic", "mc"],
                        default="analytic")
    p_prob.add_argument("--samples", type=int, default=1_000_000)
    p_prob.add_argument("--seed", type=int, default=0)
    p_pfn.set_defaults(func=cmd_pfn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every misuse after argument parsing
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry of `python -m spincollapse.cli` and of the
    `spincollapse` console script: main() on the process's arguments.

    Once main() returns a code, stdout and stderr are flushed and the
    process ends at once with that code, skipping interpreter teardown:
    nothing is left to run at exit, and tearing down the modules and heap
    the imports built, numpy's included, is a fixed cost of every request.
    A SystemExit or an exception from main() ends the process the usual
    way, and so does a failed flush, which the interpreter's exit then
    reports as it always has.  main() itself neither flushes nor exits,
    since tests and benchmarks call it in long-lived processes.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
