"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench

Every workload runs end to end through `run.py --tiny`, in both modes; the
checks must count a deliberately wrong expectation as a failure.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    # the per-workload names, each with its sample count
    named = [line for line in lines if line.startswith("# metric ")]
    assert [line.split()[2] for line in named] == [n[0] for n in run.NAMED[workload]]
    assert all("(n=" in line for line in named)
    assert any(line.startswith("# machine: ") for line in lines)
    assert any(line.startswith("# fail_frac = ") for line in lines)
    assert any(line.startswith("# known_defect_frac = ") for line in lines)


def test_spec_names_the_workloads_and_their_reasons():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert tuple(workloads.WHY) == run.WORKLOADS


def test_wrong_expected_value_is_counted_as_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.EXPECT, "generic",
                        dict(workloads.EXPECT["generic"], theta_f=0.5))
    wl = workloads.make("grid_fine", 1, ROOT, tiny=True)
    rec = worker.run_phase(wl.ops(), 0.0)  # runs one operation: the pinned generic
    assert rec.attempted == 1
    assert [f["instance"] for f in rec.failures] == ["generic"]
    assert "pinned_generic: theta_f" in rec.failures[0]["reasons"][0]
    assert rec.defects == []


def test_known_defects_are_listed_apart_from_failures():
    def op(instance, reasons, known):
        return workloads.Op("probe", instance, lambda: None, lambda out: reasons,
                            known_defects=workloads.KNOWN_DEFECTS if known else ())

    rec = worker.Recorder()
    rec.add(op("corpus[0]", [], True), 1, workloads.solver.DegenerateGridError("x"))
    rec.add(op("corpus[1]", ["route_disagreement: status"], True), 1, None)
    rec.add(op("corpus[2]", ["route_disagreement: status", "entropy_identity: 1"], True),
            1, None)
    rec.add(op("generic", ["route_disagreement: status"], False), 1, None)
    assert [f["instance"] for f in rec.defects] == ["corpus[0]", "corpus[1]"]
    assert [f["instance"] for f in rec.failures] == ["corpus[2]", "generic"]


def test_time_outside_every_layer_is_unaccounted():
    tr = tracer.Tracer()
    layer = tr.wrap("solver.x", lambda: time.sleep(0.01))
    tr.begin("i", "op")
    layer()
    time.sleep(0.02)  # the benchmark's own code inside the operation
    tr.end()
    stats = tr.stats["op"]  # span name -> [calls, total ns, self ns]
    assert stats["solver.x"][2] >= 10**7
    assert stats["bench.op"][2] >= 2 * 10**7
    assert stats["bench.op"][1] == stats["bench.op"][2] + stats["solver.x"][1]


def test_inputs_follow_the_seed():
    take = lambda seed: [next(gen) for gen in [workloads.uniform_instances(seed, 1)]
                         for _ in range(3)]
    assert take(5) == take(5)
    assert take(5) != take(6)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    s = worker.summarize(range(1, 101))
    assert (s["tail_ns"], s["beyond_tail"], s["tail_pct"]) == (90, 10, 90.0)
    assert worker.summarize(range(1, 21))["tail_ns"] == 20  # too few samples: the maximum


def test_window_rate_is_the_median_over_twenty_windows():
    ms = 10**6
    samples = [100 * ms] * 20 + [50 * ms] * 20 + [100 * ms]
    # twenty windows of two operations, 10 at 10/s and 10 at 20/s; the last
    # operation is a remainder shorter than a window and is dropped
    assert worker.window_rate(samples) == (15.0, 20)
    assert worker.window_rate([2000 * ms] * 3) == (0.5, 3)  # one operation a window


def test_times_are_scaled_to_the_reference_speed():
    rec = worker.Recorder()
    ref = calibrate.REFERENCE_NS
    rec.calibrations = [2 * ref]  # the loop ran at half the reference speed
    rec.add(workloads.Op("probe", "a", lambda: None, lambda out: []), 10**6, None)
    rec.calibrations.append(2 * ref)
    summary = rec.summary()
    assert summary["ops"]["probe"]["p50_ns"] == 10**6
    assert summary["scaled_ops"]["probe"]["p50_ns"] == 10**6 / 2
    assert summary["speed"] == 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "grid_corpus", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
