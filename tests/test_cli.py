"""Command-line interface: exit codes, output schemas, determinism, and
diagnostics.  main() is invoked in-process with an argv list."""

import csv
import json
import math
import pathlib

import pytest

from spincollapse.cli import main

from conftest import CHART_EDGE_INSTANCES

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

    def test_method_flag_is_rejected(self, capsys, tmp_path):
        # trace always runs the grid route: the closed form has no curves
        out_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "trace", *GENERIC, "--grid", "256",
                                 "--method", "closed", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --method closed" in err
        assert not out_path.exists()


class TestRun:
    def config(self, tmp_path, **overrides):
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

    def test_syntax_error_caret(self, capsys):
        code, _, err = run_cli(capsys, "pfn", "table", "--expr", "x||y")
        assert code == 1
        assert "^" in err

    def test_arity_error(self, capsys):
        code, _, err = run_cli(capsys, "pfn", "table", "--expr", "x1", "--n",
                               "0")
        assert code == 1
        assert "error" in err


class TestLogging:
    def test_stdout_stays_clean_under_debug(self, capsys, monkeypatch):
        monkeypatch.setenv("COLLAPSE_LOG", "debug")
        code, out, _ = run_cli(capsys, "solve", *GENERIC, "--grid", "256")
        assert code == 0
        json.loads(out)  # stdout is pure JSON
