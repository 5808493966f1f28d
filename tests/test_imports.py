"""What a process loads: the package serves its names from their submodules
on first use, and each CLI subcommand imports only the modules it runs.
Every check runs in a fresh interpreter, since this one has loaded them
all."""

import json

import pytest

import spincollapse

from conftest import run_python

GENERIC = ["--theta-i", "0.7853981633974483", "--phi-i", "1.5707963267948966",
           "--rho", "0.4", "--tau", "0", "--grid", "256"]


def fresh(code: str):
    """The JSON value that code prints on its last stdout line, run in a
    fresh interpreter."""
    returncode, out, err = run_python("-c", code)
    assert returncode == 0, err.decode()
    return json.loads(out.decode().splitlines()[-1])


def loaded_after_main(argv: list[str]) -> list[str]:
    """The modules in sys.modules after main(argv) in a fresh interpreter."""
    return fresh("import json, sys\n"
                 "from spincollapse.cli import main\n"
                 f"assert main({argv!r}) == 0\n"
                 "print(json.dumps(sorted(sys.modules)))\n")


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        loaded = fresh("import json, sys\n"
                       "import spincollapse\n"
                       "print(json.dumps(sorted(sys.modules)))\n")
        assert "spincollapse" in loaded
        assert not [m for m in loaded if m.startswith("spincollapse.")]
        assert "numpy" not in loaded

    def test_every_export_imports_from_its_submodule(self):
        assert len(set(spincollapse.__all__)) == 37
        # a name that fails to import ends the process with ImportError
        homeless = fresh(
            "import importlib, json\n"
            "import spincollapse\n"
            "def homes(name):\n"
            "    ns = {}\n"
            "    exec(f'from spincollapse import {name}', ns)\n"
            "    return [m for m in ('automaton', 'bloch', 'entropy', 'pfn',\n"
            "                        'solver')\n"
            "            if getattr(importlib.import_module(f'spincollapse.{m}'),\n"
            "                       name, None) is ns[name]]\n"
            "print(json.dumps([n for n in spincollapse.__all__ if not homes(n)]))\n")
        assert homeless == []

    def test_dir_lists_every_export(self):
        listed = fresh("import json\n"
                       "import spincollapse\n"
                       "print(json.dumps(dir(spincollapse)))\n")
        assert set(spincollapse.__all__) <= set(listed)
        assert "__version__" in listed

    def test_unknown_attribute_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            spincollapse.no_such_name
        assert not hasattr(spincollapse, "no_such_name")
        with pytest.raises(ImportError):
            from spincollapse import no_such_name  # noqa: F401


class TestSubcommandImports:
    def test_solve_loads_no_policy_automaton_or_csv(self):
        loaded = loaded_after_main(["solve", *GENERIC])
        assert "spincollapse.solver" in loaded
        for module in ("spincollapse.pfn", "spincollapse.automaton", "csv"):
            assert module not in loaded

    @pytest.mark.parametrize("argv", [
        pytest.param(["pfn", "table", "--expr", "x|y"], id="table"),
        pytest.param(["pfn", "prob", "--expr", "x|y"], id="analytic-prob"),
        pytest.param(["pfn", "dnf", "--table", "7"], id="dnf"),
    ])
    def test_policy_commands_load_no_numpy(self, argv):
        loaded = loaded_after_main(argv)
        assert "spincollapse.pfn" in loaded
        assert "numpy" not in loaded
        assert "spincollapse.solver" not in loaded


class TestNoClassFactory:
    """The value types are plain class statements, so no request loads
    dataclasses, whose class factory generates code at import, nor, for
    the numpy-free policy commands, the inspect module that dataclasses
    loads."""

    def test_requests_load_no_dataclasses(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "theta_i": 0.7853981633974483, "phi_i": 1.5707963267948966,
            "rho": 0.4, "tau": 0.0, "pfn": "x|y", "memory_depth": 0,
            "max_steps": 10, "grid_n": 256, "method": "grid", "seed": 0,
            "out": str(tmp_path / "run.jsonl")}))
        for argv in (["solve", *GENERIC], ["run", str(config)],
                     ["trace", *GENERIC, "--out", str(tmp_path / "t.csv")],
                     ["pfn", "table", "--expr", "x|y"]):
            assert "dataclasses" not in loaded_after_main(argv), argv

    @pytest.mark.parametrize("argv", [
        pytest.param(["pfn", "table", "--expr", "x|y"], id="table"),
        pytest.param(["pfn", "prob", "--expr", "x|y"], id="analytic-prob"),
    ])
    def test_policy_commands_load_no_inspect(self, argv):
        loaded = loaded_after_main(argv)
        assert "inspect" not in loaded
        assert "dataclasses" not in loaded
