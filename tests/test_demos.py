"""Smoke test of the narrative demos: each runs to completion and prints."""

import os
import pathlib
import subprocess
import sys

import pytest

import spincollapse

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(spincollapse.__file__)))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # in tmp_path: demo 02 writes level_sets.csv into its working directory
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.stem == "02_entropy_level_sets":
        # the component through the generic instance's initial axis
        assert "zero-entropy point=True" in proc.stdout
