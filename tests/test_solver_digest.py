"""``tools/solver_digest.py``: seeded random eigen and threshold solves, and
how two digests of them differ."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solver_digest.py"


@pytest.fixture(scope="module")
def solver_digest():
    spec = importlib.util.spec_from_file_location("solver_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def small(solver_digest):
    return solver_digest.digest(seed=3, eigen_cases=4, threshold_cases=2)


def test_a_digest_depends_on_the_seed_alone(solver_digest, small, capsys):
    assert [c["kind"] for c in small["cases"]] == ["sigma"] * 4 + ["r0"] * 4 + ["n_star"] * 2
    assert all(c["iterations"] > 0 for c in small["cases"])
    assert solver_digest.digest(seed=3, eigen_cases=4, threshold_cases=2) == small
    assert solver_digest.compare(small, small) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("sigma: largest relative difference 0 (case ")
    assert out[-2:] == [f"{side}: 0 of 2 N* cases uncertified, "
                        f"{sum(c['iterations'] for c in small['cases'][8:])} ascent steps in all"
                        for side in "AB"]


def test_the_files_it_writes_compare_through_the_command_line(solver_digest, small,
                                                              tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))    # main puts SRC first on it
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "a.json"
    args = [str(src), str(out), "--seed", "3", "--eigen-cases", "4", "--threshold-cases", "2"]
    assert solver_digest.main(args) == 0
    assert json.loads(out.read_text()) == small
    assert solver_digest.main(["--compare", str(out), str(out)]) == 0


@pytest.mark.parametrize("case, key, value, line", [
    (0, "iterations", 99, "case 0 (sigma, nx {nx}, d {d}): iterations {old} -> 99"),
    (9, "converged", False, "case 9 (n_star, nx {nx}, d {d}): converged True -> False"),
    (5, "value", None, "case 5 (r0, nx {nx}, d {d}): value {old} -> None"),
    (1, "value", float("nan"), "case 1 (sigma, nx {nx}, d {d}): value {old} -> nan"),
], ids=["count", "certificate", "no_value", "nan"])
def test_a_changed_count_or_a_value_that_is_not_finite_fails(solver_digest, small, capsys,
                                                             case, key, value, line):
    changed = copy.deepcopy(small)
    changed["cases"][case][key] = value
    assert solver_digest.compare(small, changed) == 1
    old = small["cases"][case]
    assert capsys.readouterr().out.splitlines()[0] == line.format(
        nx=old["nx"], d=f"{old['d']:.3g}", old=old[key])
