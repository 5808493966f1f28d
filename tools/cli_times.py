"""Wall time and peak RSS of fresh CLI processes, as in ROADMAP's "CLI
start-up" table.

    python tools/cli_times.py --rounds 15
    python tools/cli_times.py --rounds 25 --src ../parent/src --src src

Each request is one fresh `python` process, timed from its start to its
exit with its output discarded, its peak resident set read from the
rusage that os.wait4 returns:

    bare python            python -c pass
    import numpy           python -c "import numpy"
    solve                  spincollapse solve at its default flags (grid
                           1024, both routes) on the README's instance
    solve --method closed  the same instance, closed form only
    run (grid)             spincollapse run on a grid-route config of
                           RUN_STEPS steps at grid RUN_GRID
    pfn table              spincollapse pfn table --expr "x|y"
    pfn prob --method mc   spincollapse pfn prob --expr "x&y" --method mc
                           --samples 1000000 --seed 42
    trace                  spincollapse trace of the README's instance at
                           grid 1024, to a CSV file

The CLI requests run `python -m spincollapse.cli` with the --src tree
(default: this checkout's src/) first on PYTHONPATH; give --src twice or
more to time trees side by side.  Each round runs every request once under
every tree, in order, so that slow spells of the host fall on all columns
alike; the process and its children are pinned to one CPU, the last one
this process may run on, where the platform allows.  Each cell is the
median over --rounds rounds, with the quartiles in brackets, in
milliseconds, then the median peak RSS in MB (ru_maxrss / 1024, as the
benchmark's peak_rss_mb).  Every request must exit 0.  The first line
names the machine and says whether the bytecode cache is on: off when the
PYTHONDONTWRITEBYTECODE that the requests inherit is set, so that each
request compiles the package from source unless a cache is already there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
INSTANCE = ["--theta-i", "0.7853981633974483", "--phi-i",
            "1.5707963267948966", "--rho", "0.4", "--tau", "0"]
RUN_GRID, RUN_STEPS = 256, 10
TIMEOUT_S = 120


def requests(tmp: str) -> list[tuple[str, list[str]]]:
    """(row name, python flags) per row; the run and trace requests write
    their files under tmp."""
    config = os.path.join(tmp, "run.json")
    with open(config, "w") as fh:
        json.dump({"theta_i": 0.7853981633974483,
                   "phi_i": 1.5707963267948966, "rho": 0.4, "tau": 0.0,
                   "pfn": "x|y", "memory_depth": 0, "max_steps": RUN_STEPS,
                   "grid_n": RUN_GRID, "method": "grid", "seed": 0,
                   "out": os.path.join(tmp, "run.jsonl")}, fh)
    cli = ["-m", "spincollapse.cli"]
    return [
        ("bare python", ["-c", "pass"]),
        ("import numpy", ["-c", "import numpy"]),
        ("solve", [*cli, "solve", *INSTANCE]),
        ("solve --method closed", [*cli, "solve", *INSTANCE,
                                   "--method", "closed"]),
        ("run (grid)", [*cli, "run", config]),
        ("pfn table", [*cli, "pfn", "table", "--expr", "x|y"]),
        ("pfn prob --method mc", [*cli, "pfn", "prob", "--expr", "x&y",
                                  "--method", "mc", "--samples", "1000000",
                                  "--seed", "42"]),
        ("trace", [*cli, "trace", *INSTANCE,
                   "--out", os.path.join(tmp, "trace.csv")]),
    ]


def pin() -> str:
    """Pin this process, and so its children, to the last CPU it may run
    on; that CPU's name."""
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return f"cpu {cpu}"


def run_once(argv: list[str], src: str) -> tuple[float, float]:
    """Seconds from the start of `python argv` to its exit, and its peak
    RSS in MB; the process is killed after TIMEOUT_S seconds."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], env=env,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        stderr = proc.stderr.read()
        # wait4 reaps the process, so Popen is told its exit code
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(argv)} exited "
                           f"{proc.returncode}: {stderr.decode()}")
    return elapsed, usage.ru_maxrss / 1024.0  # KiB on Linux


def cell(runs: list[tuple[float, float]]) -> str:
    ms = sorted(1e3 * t for t, _ in runs)
    rss = f"{statistics.median(mb for _, mb in runs):.1f} MB"
    if len(ms) < 2:
        return f"{ms[0]:.1f}, {rss}"
    q1, _, q3 = statistics.quantiles(ms, n=4)
    return f"{statistics.median(ms):.1f} [{q1:.1f}, {q3:.1f}], {rss}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--src", action="append", metavar="DIR",
                    help="a src/ tree to time; repeat to compare trees")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    srcs = [os.path.abspath(s) for s in args.src or [str(REPO / "src")]]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "spincollapse", "cli.py")):
            ap.error(f"{src} holds no spincollapse package")
    pinned = pin()

    with tempfile.TemporaryDirectory() as tmp:
        rows = requests(tmp)
        runs = {name: [[] for _ in srcs] for name, _ in rows}
        for _ in range(args.rounds):
            for name, flags in rows:
                for column, src in zip(runs[name], srcs):
                    column.append(run_once(flags, src))

    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"# {os.cpu_count()} CPUs, {pinned}, Python "
          f"{platform.python_version()}, bytecode cache {cache}; median "
          f"[quartiles] of {args.rounds} rounds, ms, and median peak RSS")
    print("| command | " + " | ".join(srcs) + " |")
    print("|---|" + "---|" * len(srcs))
    for name, _ in rows:
        print(f"| {name} | "
              + " | ".join(map(cell, runs[name])) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
