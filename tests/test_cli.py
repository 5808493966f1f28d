"""Command-line interface: exit codes, output schemas, determinism, and
diagnostics.  main() is invoked in-process with an argv list;
TestProcessEntry holds fresh processes to the same bytes."""

import csv
import gc
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import spincollapse
from spincollapse import cli
from spincollapse.cli import main
from spincollapse.pfn import MAX_NESTING

from conftest import CHART_EDGE_INSTANCES, run_python

PI = math.pi

GENERIC = ["--theta-i", "0.7853981633974483", "--phi-i", "1.5707963267948966",
        "--rho", "0.4", "--tau", "0"]
DEATH = ["--theta-i", "0.862", "--phi-i", "1.197",
        "--rho", "0.8535533905932737", "--tau", "1.5707963267948966"]
# instance whose flip-level arc is smaller than a coarse grid cell: the grid
# route misses it at --grid 64 and disagrees with the closed form
COARSE_DISAGREE = ["--theta-i", "1.0211529639366868",
                   "--phi-i", "0.11857080550292924",
                   "--rho", "0.7622022120425378",
                   "--tau", "0.058755822715722696"]
# instances with p_same next to EPS_TRIVIAL, where the routes split Trivial
# from the rest while the grid route took p_same from a second formula:
# grid Trivial and closed DeathPoint, grid DeathPoint and closed Trivial,
# and a third split
TRIVIAL_THRESHOLD = {
    "grid-trivial": ("2.406990101858639", "2.415044533677107",
                     "0.8710698050142086", "5.5566371872669"),
    "closed-trivial": ("1.6128127723601748", "0.9835509640354732",
                       "0.5210336368985076", "4.125143617625266"),
    "third": ("0.34785601745248684", "1.2510413071765178",
              "0.02995792050245022", "4.392633960766311"),
}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # usage errors raise instead of returning
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_generic_instance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "1024")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Normal"
        assert payload["theta_f"] == pytest.approx(0.862, abs=1e-3)
        assert payload["phi_f"] == pytest.approx(1.197, abs=1e-3)
        assert payload["s_up"] == pytest.approx(0.0980, abs=1e-4)
        assert payload["method_agreement"]["within_tolerance"]

    def test_death_instance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *DEATH, "--grid", "1024")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "DeathPoint"
        assert payload["theta_f"] == 0.862
        assert payload["phi_f"] == 1.197

    def test_trivial_instance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--theta-i", "0",
                               "--phi-i", "0", "--rho", "1", "--tau", "0")
        assert code == 0
        assert json.loads(out)["status"] == "Trivial"

    def test_near_trivial_routes_agree(self, capsys):
        # p_flip = 7.5e-10 is within EPS_TRIVIAL, so both routes say Trivial
        code, out, _ = run_cli(capsys, "solve", "--theta-i", "0", "--phi-i",
                               "0", "--rho", "0.99999999925", "--tau", "0",
                               "--grid", "256")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Trivial"
        assert payload["method_agreement"]["status_match"]

    def test_method_single_routes(self, capsys):
        for method in ("grid", "closed"):
            code, out, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "256",
                                   "--method", method)
            assert code == 0
            payload = json.loads(out)
            assert payload["status"] == "Normal"
            assert payload["method_agreement"] is None

    def test_grid_candidates_are_refined_extrema(self, capsys):
        for method in ("grid", "both"):
            code, out, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "256",
                                   "--method", method)
            assert code == 0
            payload = json.loads(out)
            cands = payload["candidates"]
            assert cands
            for c in cands:
                assert set(c) == {"theta", "phi", "overlap", "s_up",
                                  "component"}
            assert (payload["theta_f"], payload["phi_f"]) in \
                [(c["theta"], c["phi"]) for c in cands]

    def test_coarse_grid_disagreement_is_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *COARSE_DISAGREE,
                               "--grid", "64", "--method", "both")
        assert code == 2
        payload = json.loads(out)
        assert not payload["method_agreement"]["within_tolerance"]

    def test_one_ulp_value_split_is_exit_2(self, capsys, monkeypatch):
        # no tolerance hides a split: a closed form whose Normal answer has
        # theta one ulp off the grid route's disagrees with it
        from spincollapse import solver

        closed_form = solver.solve_collapse_closed_form

        def nudged(axis, state, cfg=None):
            sol = closed_form(axis, state, cfg)
            return sol._replace(axis_f=sol.axis_f._replace(
                theta=math.nextafter(sol.axis_f.theta, 0.0)))

        monkeypatch.setattr(solver, "solve_collapse_closed_form", nudged)
        code, out, err = run_cli(capsys, "solve", *GENERIC, "--grid", "256")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "Normal"
        assert payload["method_agreement"] == {"status_match": True,
                                               "within_tolerance": False}
        assert err.startswith("ERROR grid and closed-form routes disagree")

    @pytest.mark.parametrize("argv", [
        GENERIC, DEATH,
        ["--theta-i", "0", "--phi-i", "0", "--rho", "0.99999999925",
         "--tau", "0"],
    ], ids=["normal", "death-point", "trivial"])
    def test_one_ulp_s_i_split_is_exit_2(self, capsys, monkeypatch, argv):
        # s_i is part of the answer too, whatever the status: a closed form
        # whose s_i is one ulp off the grid route's disagrees with it
        from spincollapse import solver

        closed_form = solver.solve_collapse_closed_form

        def nudged(axis, state, cfg=None):
            sol = closed_form(axis, state, cfg)
            return sol._replace(s_i=math.nextafter(sol.s_i, math.inf))

        monkeypatch.setattr(solver, "solve_collapse_closed_form", nudged)
        code, out, err = run_cli(capsys, "solve", *argv, "--grid", "256")
        assert code == 2
        payload = json.loads(out)
        assert payload["method_agreement"] == {"status_match": True,
                                               "within_tolerance": False}
        assert err.startswith("ERROR grid and closed-form routes disagree")

    def test_every_call_writes_its_own_disagreement_line(self, capsys):
        # the line goes to the stderr of the call that found the
        # disagreement, not to a stream fixed by an earlier call
        for _ in range(2):
            code, _, err = run_cli(capsys, "solve", *COARSE_DISAGREE,
                                   "--grid", "64", "--method", "both")
            assert code == 2
            assert err.startswith("ERROR grid and closed-form routes "
                                  "disagree: {'status_match': ")
            assert err.count("\n") == 1 and err.endswith("}\n")

    def test_fine_grid_resolves_the_disagreement(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *COARSE_DISAGREE,
                               "--grid", "1024", "--method", "both")
        assert code == 0
        assert json.loads(out)["method_agreement"]["within_tolerance"]

    @pytest.mark.parametrize("label", ["7:508", "7:1305", "7:2136"])
    def test_routes_agree_next_to_the_chart_edge(self, capsys, label):
        theta, phi, rho, tau = CHART_EDGE_INSTANCES[label]
        code, out, _ = run_cli(capsys, "solve", "--theta-i", repr(theta),
                               "--phi-i", repr(phi), "--rho", repr(rho),
                               "--tau", repr(tau), "--grid", "256",
                               "--method", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Normal"
        assert payload["method_agreement"]["within_tolerance"]

    @pytest.mark.parametrize("label", sorted(TRIVIAL_THRESHOLD))
    def test_routes_agree_at_the_trivial_threshold(self, capsys, label):
        theta, phi, rho, tau = TRIVIAL_THRESHOLD[label]
        code, out, err = run_cli(capsys, "solve", "--theta-i", theta,
                                 "--phi-i", phi, "--rho", rho, "--tau", tau)
        assert (code, err) == (0, "")
        assert json.loads(out)["method_agreement"]["status_match"]

    def test_usage_error_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--theta-i", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_range_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--theta-i", "0.5",
                               "--phi-i", "0.5", "--rho", "2.0", "--tau", "0")
        assert code == 1
        assert "error" in err

    def test_huge_grid_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", *GENERIC,
                                 "--grid", "100000000")
        assert code == 1
        assert out == ""
        assert err == "error: grid_n must be in [64, 8192]\n"

    def test_json_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", *GENERIC, "--json")
        assert code == 1
        assert out == ""
        assert err == "error: unrecognized arguments: --json\n"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "256")
        _, out2, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "256")
        assert out1 == out2

    def test_phi_spellings_of_one_axis(self, capsys):
        # -1e-15 and the float below 2pi name the axis phi = 0: the chart
        # folds them twice, back onto (theta, 0) bit for bit, although
        # pi - (pi - 0.7) rounds off 0.7
        for theta in ("0.5", "0.7"):
            outs = set()
            for phi in ("0", "-1e-15", "6.283185307179585"):
                code, out, _ = run_cli(capsys, "solve", "--theta-i", theta,
                                       f"--phi-i={phi}", "--rho", "0.4",
                                       "--tau", "1.0", "--grid", "256")
                assert code == 0
                outs.add(out)
            assert len(outs) == 1, theta


class TestTrace:
    def test_generic_instance_has_two_components(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "trace", *GENERIC, "--grid", "256",
                             "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0].keys()) == {"theta", "phi", "level", "component",
                                       "overlap", "s_up", "is_boundary"}
        assert len({r["component"] for r in rows}) == 2

    def test_death_instance_has_one_component(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "trace", *DEATH, "--grid", "256",
                             "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["component"] for r in rows}) == 1

    def test_trivial_instance_writes_header_only(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, err = run_cli(capsys, "trace", "--theta-i", "0",
                               "--phi-i", "0", "--rho", "1", "--tau", "0",
                               "--out", str(out_path))
        assert code == 0
        assert "trivial" in err.lower()
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("theta,phi,level")

    def test_unwritable_path_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "trace", *GENERIC, "--grid", "256",
                               "--out", "/nonexistent-dir/trace.csv")
        assert code == 1
        assert "error" in err

    def test_trivial_instance_warns_once_at_every_log_level(self, tmp_path):
        # a fresh process per level: COLLAPSE_LOG, which the CLI once read,
        # changes nothing
        src = pathlib.Path(spincollapse.__file__).parents[1]
        for level in ("error", "info", "debug"):
            out_path = tmp_path / f"trace-{level}.csv"
            env = dict(os.environ, PYTHONPATH=str(src), COLLAPSE_LOG=level)
            proc = subprocess.run(
                [sys.executable, "-m", "spincollapse.cli", "trace",
                 "--theta-i", "0", "--phi-i", "0", "--rho", "1", "--tau", "0",
                 "--out", str(out_path)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0
            assert proc.stdout == ""
            assert proc.stderr == "warning: trivial instance, no level curves\n"

    def test_method_flag_is_rejected(self, capsys, tmp_path):
        # trace always runs the grid route: the closed form has no curves
        out_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "trace", *GENERIC, "--grid", "256",
                                 "--method", "closed", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --method closed" in err
        assert not out_path.exists()


def run_config(tmp_path, **overrides):
    """A run config for the generic instance with the given fields replaced,
    written to tmp_path; returns its path and its trace path."""
    cfg = {
        "theta_i": PI / 4, "phi_i": PI / 2, "rho": 0.4, "tau": 0.0,
        "pfn": "x|y", "memory_depth": 0, "max_steps": 10,
        "grid_n": 256, "method": "grid", "seed": 0,
        "out": str(tmp_path / "trace.jsonl"),
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg["out"]


class TestRun:
    def config(self, tmp_path, **overrides):
        return run_config(tmp_path, **overrides)

    def test_death_within_two_steps(self, capsys, tmp_path):
        cfg_path, out_path = self.config(tmp_path)
        code, out, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["steps"] == 2
        assert summary["halted"]
        assert summary["halt_reason"] in ("trivial", "death_point")
        lines = open(out_path).read().strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["status"] == "Normal"
        assert json.loads(lines[1])["status"] in ("Trivial", "DeathPoint")

    def test_trivial_start_halts_immediately(self, capsys, tmp_path):
        cfg_path, _ = self.config(tmp_path, rho=math.cos(PI / 8) ** 2,
                                  tau=PI / 2, max_steps=1)
        code, out, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["steps"] == 1
        assert summary["halted"]

    def test_replay_byte_identical(self, capsys, tmp_path):
        cfg_path, out_path = self.config(tmp_path)
        run_cli(capsys, "run", str(cfg_path))
        first = open(out_path, "rb").read()
        run_cli(capsys, "run", str(cfg_path))
        second = open(out_path, "rb").read()
        assert first == second

    def test_missing_field_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"theta_i": 0.5}))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "missing field" in err

    def test_malformed_json_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "line" in err

    def test_deeply_nested_json_is_exit_1(self, capsys, tmp_path):
        # nested past the decoder's recursion limit, which used to end in
        # a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: config nests too deeply\n"

    def test_unwritable_out_is_exit_1(self, capsys, tmp_path):
        cfg_path, out_path = self.config(
            tmp_path, out=str(tmp_path / "missing" / "trace.jsonl"))
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_huge_grid_n_is_exit_1(self, capsys, tmp_path):
        cfg_path, out_path = self.config(tmp_path, grid_n=100_000_000)
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == "error: grid_n must be in [64, 8192]\n"

    @pytest.mark.parametrize("root", [5, "theta_i", ["theta_i", 0.5]],
                             ids=["number", "string", "list"])
    def test_non_object_root_is_exit_1(self, capsys, tmp_path, root):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(root))
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: config must be a JSON object\n"

    @pytest.mark.parametrize("field, value", [
        ("memory_depth", 1.9), ("grid_n", 256.7), ("max_steps", True),
        ("seed", False), ("grid_n", "256")])
    def test_int_fields_take_integral_numbers_only(self, capsys, tmp_path,
                                                   field, value):
        cfg_path, _ = self.config(tmp_path, **{field: value})
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == f"error: config field {field!r} must be int\n"

    @pytest.mark.parametrize("field, value", [
        ("rho", "0.4"), ("theta_i", True)])
    def test_float_fields_take_numbers_only(self, capsys, tmp_path, field,
                                            value):
        cfg_path, _ = self.config(tmp_path, **{field: value})
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == f"error: config field {field!r} must be float\n"

    def test_float_field_beyond_the_float_range(self, capsys, tmp_path):
        # a JSON integer literal of 400 digits has no float value
        cfg_path, _ = self.config(tmp_path, rho=10 ** 399)
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == "error: config field 'rho' must be float\n"

    @pytest.mark.parametrize("field, value", [("pfn", 1), ("method", ["grid"])])
    def test_str_fields_take_strings_only(self, capsys, tmp_path, field,
                                          value):
        cfg_path, _ = self.config(tmp_path, **{field: value})
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == f"error: config field {field!r} must be str\n"

    @pytest.mark.parametrize("method", ["both", "Grid", ""])
    def test_method_must_name_one_route(self, capsys, tmp_path, method):
        # a run solves each step with one route and never cross-checks, so
        # "both" is rejected rather than read as "grid"
        cfg_path, out_path = self.config(tmp_path, method=method)
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == "error: config field 'method' must be grid|closed\n"
        assert not pathlib.Path(out_path).exists()

    @pytest.mark.parametrize("method", ["closed", "closed_form"])
    def test_method_spellings_of_one_route(self, capsys, tmp_path, method):
        cfg_path, _ = self.config(tmp_path, method=method)
        code, out, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        assert json.loads(out)["steps"] == 2

    def test_integral_numbers_are_accepted(self, capsys, tmp_path):
        cfg_path, _ = self.config(tmp_path, grid_n=256.0, tau=0, max_steps=1e1)
        code, out, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        assert json.loads(out)["steps"] == 2

    def test_unknown_field_diagnostic(self, capsys, tmp_path):
        cfg_path, _ = self.config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["bogus"] = 1
        cfg_path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 1
        assert "unknown" in err

    def test_death_instance_reports_the_death_step(self, capsys, tmp_path):
        cfg_path, out_path = self.config(
            tmp_path, theta_i=0.862, phi_i=1.197, rho=math.cos(PI / 8) ** 2,
            tau=PI / 2)
        code, out, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        assert json.loads(out) == {"steps": 1, "halted": True,
                                   "halt_reason": "death_point",
                                   "death_step": 1}
        lines = open(out_path).read().strip().split("\n")
        assert [json.loads(line)["status"] for line in lines] == ["DeathPoint"]

    def test_long_policy_runs(self, capsys, tmp_path):
        # 3000 operands parse into one flat node
        cfg_path, _ = self.config(tmp_path, pfn="|".join(["x"] * 3000))
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 0, err
        assert json.loads(out)["steps"] == 2


class TestPfn:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "pfn", "table", "--expr", "x|y")
        assert code == 0
        assert out.strip() == "7"

    def test_dnf_cnf(self, capsys):
        code, out, _ = run_cli(capsys, "pfn", "dnf", "--table", "7")
        assert code == 0
        assert out.strip() == "!x&y|x&!y|x&y"
        code, out, _ = run_cli(capsys, "pfn", "cnf", "--table", "7")
        assert code == 0
        assert out.strip() == "x|y"

    @pytest.mark.parametrize("form, flags, message", [
        ("dnf", ["--table=-1"], "must not be negative"),
        ("cnf", ["--table=-1"], "must not be negative"),
        ("dnf", ["--table", "7", "--n", "-1"], "memory depth must be in [0, 4]"),
        ("cnf", ["--table", "7", "--n", "-1"], "memory depth must be in [0, 4]"),
        ("dnf", ["--table", "7", "--n", "99"], "memory depth must be in [0, 4]"),
        ("cnf", ["--table", "7", "--n", "99"], "memory depth must be in [0, 4]"),
        ("dnf", ["--table=-0"], "must not be negative: '-0'"),
        ("dnf", ["--table", "0x3"], "hex digits [0-9a-fA-F]: '0x3'"),
        ("cnf", ["--table", " 3"], "hex digits [0-9a-fA-F]: ' 3'"),
        ("dnf", ["--table", "1_0", "--n", "1"], "hex digits [0-9a-fA-F]: '1_0'"),
        ("cnf", ["--table", "\uff18"], "hex digits [0-9a-fA-F]: '\uff18'"),
        ("dnf", ["--table", ""], "hex digits [0-9a-fA-F]: ''"),
    ], ids=["dnf", "cnf", "dnf-n-1", "cnf-n-1", "dnf-n99", "cnf-n99",
            "minus-zero", "0x-prefix", "space", "underscore", "fullwidth",
            "empty"])
    def test_negative_table_is_exit_1(self, capsys, form, flags, message):
        code, out, err = run_cli(capsys, "pfn", form, *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_prob_analytic(self, capsys):
        code, out, _ = run_cli(capsys, "pfn", "prob", "--expr", "x|y")
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"] == 0.75
        assert payload["method"] == "analytic"

    def test_prob_analytic_with_memory(self, capsys):
        # memory variables are fair coins: 24 of the 32 rows are 1
        code, out, _ = run_cli(capsys, "pfn", "prob", "--n", "1",
                               "--expr", "x1^y1|s1")
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"] == 0.75
        assert payload["method"] == "analytic"

    def test_prob_monte_carlo(self, capsys):
        code, out, _ = run_cli(capsys, "pfn", "prob", "--expr", "x&y",
                               "--method", "mc", "--samples", "200000",
                               "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"] == pytest.approx(0.25, abs=0.004)
        assert payload["seed"] == 42

    def test_prob_too_many_samples_is_exit_1(self, capsys):
        # rejected before the 72.8 TiB of draws would be allocated
        code, out, err = run_cli(capsys, "pfn", "prob", "--expr", "x",
                                 "--method", "mc",
                                 "--samples", "10000000000000")
        assert code == 1
        assert out == ""
        assert err == "error: samples must be in [1, 10000000]\n"

    def test_prob_negative_seed_is_exit_1(self, capsys):
        # the message names the flag, not numpy's generator
        code, out, err = run_cli(capsys, "pfn", "prob", "--expr", "x|y",
                                 "--method", "mc", "--seed", "-3",
                                 "--samples", "10")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be non-negative, not -3\n"

    def test_syntax_error_caret(self, capsys):
        code, _, err = run_cli(capsys, "pfn", "table", "--expr", "x||y")
        assert code == 1
        assert "^" in err

    def test_arity_error(self, capsys):
        code, _, err = run_cli(capsys, "pfn", "table", "--expr", "x1", "--n",
                               "0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("form, n, table", [
        ("dnf", 3, "f" * 512), ("cnf", 3, "0" * 511 + "1"),
        ("dnf", 4, "f" * 4096), ("cnf", 4, "0" * 4095 + "1")],
        ids=["dnf3", "cnf3", "dnf4", "cnf4"])
    def test_deep_tables_have_normal_forms(self, capsys, form, n, table):
        # thousands of terms, which once nested a chain past the recursion
        # limit; depth 4 is checked by exit code only, since a round trip at
        # that size evaluates 16384 rows of a 16384-term expression
        code, out, err = run_cli(capsys, "pfn", form, "--n", str(n),
                                 "--table", table)
        assert code == 0, err
        assert err == ""
        rows = 1 << (2 + 3 * n)
        if form == "dnf":  # a minterm per row
            assert out.count("|") == rows - 1
        else:  # a maxterm per row but the last
            assert out.count("&") == rows - 2

    def test_sparse_depth3_table_round_trips(self, capsys):
        bits = ["0"] * 2048
        for row in (0, 5, 777, 1024, 2047):
            bits[row] = "1"
        table = f"{int(''.join(bits), 2):x}"
        code, dnf, _ = run_cli(capsys, "pfn", "dnf", "--n", "3",
                               "--table", table)
        assert code == 0 and dnf.count("|") == 4
        code, out, _ = run_cli(capsys, "pfn", "table", "--n", "3",
                               "--expr", dnf.strip())
        assert code == 0
        assert out.strip() == table

    def test_long_chain_evaluates(self, capsys):
        expr = "|".join(["x"] * 3000)
        code, out, err = run_cli(capsys, "pfn", "table", "--expr", expr)
        assert code == 0, err
        assert out.strip() == "3"
        code, out, err = run_cli(capsys, "pfn", "prob", "--expr", expr)
        assert code == 0, err
        assert json.loads(out)["probability"] == 0.5

    @pytest.mark.parametrize("command, expr", [
        ("table", "(" * 2000 + "x" + ")" * 2000),
        ("table", "!" * 5000 + "x"),
        # these parsed once, then rendering or evaluating them overflowed
        # the interpreter's stack
        ("table", "!" * 500 + "x"),
        ("table", "!" * 600 + "x"),
        ("table", "!" * 800 + "x"),
        ("prob", "!" * 500 + "x"),
        ("table", "x|y^x&(" * 200 + "x" + ")" * 200)],
        ids=["parentheses", "nots", "nots500", "nots600", "nots800",
             "prob-nots500", "every-level200"])
    def test_over_deep_nesting_is_a_syntax_error(self, capsys, command, expr):
        code, out, err = run_cli(capsys, "pfn", command, "--expr", expr)
        assert code == 1
        assert out == ""
        lines = err.split("\n")
        assert len(lines) == 4 and lines[3] == ""
        assert lines[0].startswith(
            "error: expression nests too deeply at position ")
        assert lines[1] == f"  {expr}"
        position = int(lines[0].rsplit(" ", 1)[1])
        assert lines[2] == "  " + " " * position + "^"
        assert "Traceback" not in err


class TestErrorExit:
    """Every misuse after argument parsing reaches main's one handler: exit
    1, nothing on stdout, and one error line on stderr."""

    def test_unreadable_config(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "run", str(missing))
        assert (code, out) == (1, "")
        assert err == ("error: cannot read config: [Errno 2] No such file or "
                       f"directory: '{missing}'\n")

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"theta_i": 0.5,\n  oops}')
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: config parse error at line 2 column 3: "
                       "Expecting property name enclosed in double quotes\n")

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"theta_i": 0.5}))
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert err == "error: config missing field 'phi_i'\n"

    def test_unknown_fields(self, capsys, tmp_path):
        cfg_path, _ = run_config(tmp_path, zeta=1, bogus=2)
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == "error: unknown config fields: ['bogus', 'zeta']\n"

    def test_repeated_field(self, capsys, tmp_path):
        # json.load alone would run with the last value
        cfg_path, out_path = run_config(tmp_path)
        text = cfg_path.read_text()
        cfg_path.write_text(text[:-1] + ', "theta_i": 1.0}')
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == "error: config repeats field 'theta_i'\n"
        assert not os.path.exists(out_path)

    def test_unwritable_run_trace(self, capsys, tmp_path):
        target = tmp_path / "missing" / "trace.jsonl"
        cfg_path, _ = run_config(tmp_path, out=str(target))
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == (f"error: cannot write {target}: [Errno 2] No such file "
                       f"or directory: '{target}'\n")

    def test_unwritable_trace_csv(self, capsys, tmp_path):
        target = tmp_path / "missing" / "trace.csv"
        code, out, err = run_cli(capsys, "trace", *GENERIC, "--grid", "64",
                                 "--out", str(target))
        assert (code, out) == (1, "")
        assert err == (f"error: cannot write {target}: [Errno 2] No such file "
                       f"or directory: '{target}'\n")

    def test_policy_syntax_error_in_a_run_config(self, capsys, tmp_path):
        # no caret: the text is in a file, not on the command line
        cfg_path, _ = run_config(tmp_path, pfn="x||y")
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == "error: unexpected '|' at position 2\n"

    def test_over_deep_policy_in_a_run_config(self, capsys, tmp_path):
        cfg_path, _ = run_config(tmp_path, pfn="!" * 500 + "x")
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == ("error: expression nests too deeply at position "
                       f"{MAX_NESTING - 2}\n")

    def test_arity_error_has_no_caret(self, capsys):
        code, out, err = run_cli(capsys, "pfn", "prob", "--expr", "x & s2",
                                 "--n", "1")
        assert (code, out) == (1, "")
        assert err == "error: variable s2 exceeds memory depth 1\n"

    def test_bare_s_has_a_caret(self, capsys):
        code, out, err = run_cli(capsys, "pfn", "table", "--expr", "s")
        assert (code, out) == (1, "")
        assert err == ("error: bare 's' needs a memory index at position 0\n"
                       "  s\n"
                       "  ^\n")

    def test_syntax_error_has_a_caret(self, capsys):
        code, out, err = run_cli(capsys, "pfn", "table", "--expr", "x & (y")
        assert (code, out) == (1, "")
        assert err == ("error: expected ')' at position 6\n"
                       "  x & (y\n"
                       "        ^\n")


class TestLogging:
    def test_stdout_stays_clean_under_debug(self, capsys, monkeypatch):
        monkeypatch.setenv("COLLAPSE_LOG", "debug")
        code, out, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "256")
        assert code == 0
        json.loads(out)  # stdout is pure JSON


# the flip circle enters the chart by less than a grid-256 cell near the
# pole, so the grid route traces no flip curve: DeathPoint on the grid,
# Normal in closed form, exit 2
NEAR_POLE = ["--theta-i", "1.1146400075878837",
             "--phi-i", "1.5762296533934865",
             "--rho", "0.07566222706142572",
             "--tau", "4.7178217269126765", "--grid", "256"]
ENTRY_CASES = [
    pytest.param(["solve", *GENERIC], 0, id="exit-0"),
    pytest.param(["solve", *GENERIC, "--grid", "63"], 1, id="exit-1"),
    pytest.param(["solve", *NEAR_POLE], 2, id="exit-2"),
]


# the two ways a process reaches cli.entry
FORMS = ["module", "script"]


def entry_flags(form: str) -> list[str]:
    """The python flags that start the process entry: the module run, or
    what the script that pip writes for pyproject's console-script target
    does."""
    if form == "module":
        return ["-m", "spincollapse.cli"]
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spincollapse"]
    module, func = target.split(":")
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


class TestProcessEntry:
    """A process started either way answers as main() does in-process."""

    def expect(self, capsys, argv, code):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        return code, out.encode(), err.encode()

    @pytest.mark.parametrize("argv, code", ENTRY_CASES)
    def test_module_run_matches_main(self, capsys, argv, code):
        expected = self.expect(capsys, argv, code)
        assert run_python("-m", "spincollapse.cli", *argv) == expected

    @pytest.mark.parametrize("argv, code", ENTRY_CASES)
    def test_console_script_matches_main(self, capsys, argv, code):
        flags = entry_flags("script")
        expected = self.expect(capsys, argv, code)
        assert run_python(*flags, *argv) == expected

    @pytest.mark.parametrize("form", FORMS)
    def test_help_matches_main(self, capsys, monkeypatch, form):
        # argparse wraps the help to COLUMNS, in both processes alike
        monkeypatch.setenv("COLUMNS", "80")
        flags = entry_flags(form)
        expected = self.expect(capsys, ["--help"], 0)
        assert expected[1].startswith(b"usage: spincollapse")
        assert run_python(*flags, "--help") == expected

    @pytest.mark.parametrize("form", FORMS)
    def test_grid_run_matches_main(self, capsys, tmp_path, form):
        flags = entry_flags(form)
        cfg_path, out_path = run_config(tmp_path)
        expected = self.expect(capsys, ["run", str(cfg_path)], 0)
        jsonl = pathlib.Path(out_path).read_bytes()
        os.remove(out_path)
        assert run_python(*flags, "run", str(cfg_path)) == expected
        assert pathlib.Path(out_path).read_bytes() == jsonl

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("argv, code", ENTRY_CASES)
    def test_output_to_files_is_flushed(self, capsys, tmp_path, form, argv,
                                        code):
        # without PYTHONUNBUFFERED, stdout to a file is block-buffered: its
        # bytes reach the file only if they are flushed before the exit
        flags = entry_flags(form)
        expected = self.expect(capsys, argv, code)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(pathlib.Path(__file__).parents[1] / "src")
        out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.run([sys.executable, *flags, *argv], stdout=out,
                                  stderr=err, env=env, timeout=120)
        assert (proc.returncode, out_path.read_bytes(),
                err_path.read_bytes()) == expected

    @pytest.mark.skipif(os.name != "posix", reason="POSIX pipe semantics")
    def test_failed_flush_exits_as_the_interpreter_does(self):
        # stdout is a pipe nobody reads: the flush fails, and the
        # interpreter's exit reports it and exits 120, as it always has
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(pathlib.Path(__file__).parents[1] / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *entry_flags("module"), "pfn", "table",
                 "--expr", "x|y"], stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert b"BrokenPipeError" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_entry_exits_with_the_code_of_main(self, capsys, monkeypatch):
        exits = []
        monkeypatch.setattr(cli.os, "_exit", exits.append)
        monkeypatch.setattr(sys, "argv",
                            ["spincollapse", "solve", *GENERIC, "--grid", "63"])
        cli.entry()
        assert exits == [1]
        # a SystemExit from main() leaves as it always has
        monkeypatch.setattr(sys, "argv", ["spincollapse", "--help"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert (exc.value.code, exits) == (0, [1])
        capsys.readouterr()

    def test_main_returns_and_leaves_the_process_alone(self, capsys, tmp_path,
                                                       monkeypatch):
        # only the process entry ends the process; main() runs inside
        # long-lived processes, and leaves their collector as it was
        def no_exit(code):
            raise AssertionError(f"main() ended the process with {code}")

        monkeypatch.setattr(cli.os, "_exit", no_exit)
        cfg_path, _ = run_config(tmp_path)
        collector = (gc.isenabled(), gc.get_freeze_count())
        for argv, code in ((["solve", *GENERIC, "--grid", "256"], 0),
                           (["solve", *GENERIC, "--grid", "63"], 1),
                           (["run", str(cfg_path)], 0),
                           (["pfn", "table", "--expr", "x|y"], 0)):
            assert main(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == collector
        capsys.readouterr()
