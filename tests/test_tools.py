"""tools/solve_digest.py: one digest over a seeded corpus of grid solves."""

import importlib.util
import pathlib
import re

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"
spec = importlib.util.spec_from_file_location("solve_digest", TOOL)
solve_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solve_digest)


def digest(capsys, *argv):
    assert solve_digest.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"[0-9a-f]{64}\n", out)
    return out


def test_digest_is_a_function_of_the_corpus(capsys):
    first = digest(capsys, "--seed", "3", "--grids", "64:4,128:2")
    assert digest(capsys, "--seed", "3", "--grids", "64:4,128:2") == first
    assert digest(capsys, "--seed", "4", "--grids", "64:4,128:2") != first
    assert digest(capsys, "--seed", "3", "--grids", "64:4,128:1") != first


def test_floats_are_hashed_by_their_bytes():
    zero, minus_zero = solve_digest.Digest(), solve_digest.Digest()
    zero.floats(0.0)
    minus_zero.floats(-0.0)
    assert zero.hash.digest() != minus_zero.hash.digest()


@pytest.mark.parametrize("text, plan", [
    ("256:300,1024:100,4096:12", [(256, 300), (1024, 100), (4096, 12)]),
    ("64:1", [(64, 1)])])
def test_parse_grids(text, plan):
    assert solve_digest.parse_grids(text) == plan
