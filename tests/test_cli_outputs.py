"""``tools/cli_outputs.py --compare``: how two recordings of the command
line's outputs differ, numbers apart from everything else."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


@pytest.fixture(scope="module")
def cli_outputs():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_numbers_that_move_are_measured(cli_outputs, tmp_path, capsys):
    common = {"eigen_sim1b.txt": "exit 0\nsigma = 0.5\n"}
    a = _record(tmp_path / "a", {**common, "runs/x/profiles.csv": "x,S,I\n0,2.0,1e-3\n1,4.0,-inf\n",
                                 "classify.txt": "verdict PASS  sup_I_rel 0.1071\n"})
    b = _record(tmp_path / "b", {**common, "runs/x/profiles.csv": "x,S,I\n0,2.0,1.1e-3\n1,4.5,-inf\n",
                                 "classify.txt": "verdict PASS  sup_I_rel 0.1072\n"})
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    # S moves by 0.5 against a column maximum of 4.5 at b, 4.0 at a
    assert out == [
        "classify.txt: 1 numbers moved, max abs 0.0001, max rel 0.000933",
        "runs/x/profiles.csv: 2 numbers moved, max abs 0.5, max rel 0.111, "
        "max per column scale 0.125",
        "1 of 3 files byte-identical",
    ]


@pytest.mark.parametrize("text_b, where", [
    ("verdict FAIL  sup_I_rel 0.1071\n", " at line 1: 'verdict PASS  sup_I_rel 0.1071' vs "
                                          "'verdict FAIL  sup_I_rel 0.1071'"),
    ("verdict PASS  sup_I_rel 0.1071\nerror: pivot 3 below 1e-14\n", ": 1 lines vs 2"),
    ("verdict PASS  sup_I_rel 0.1071 0.2\n", " at line 1"),
])
def test_a_difference_that_is_not_numeric_is_flagged(cli_outputs, text_b, where):
    line = cli_outputs.compare_file("verdict PASS  sup_I_rel 0.1071\n", text_b, csv=False)
    assert line.startswith(f"NOT NUMERIC{where}")


def test_a_file_on_one_side_only_fails_the_comparison(cli_outputs, tmp_path, capsys):
    a = _record(tmp_path / "a", {"one.txt": "1\n", "two.txt": "2\n"})
    b = _record(tmp_path / "b", {"one.txt": "1\n"})
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"two.txt: NOT NUMERIC: only in {a}", "1 of 2 files byte-identical"]


def test_numbers_spelled_otherwise_and_nan_are_equal(cli_outputs):
    assert cli_outputs.compare_file("t=2 nan\n", "t=2.0 nan\n", csv=False) == \
        "same numbers, other spelling"
    # digits inside names are numbers that do not move
    assert cli_outputs.compare_file("sim1b info 1\n", "sim1b info 2\n", csv=False).startswith(
        "1 numbers moved")


def test_a_number_that_turns_nan_is_an_infinite_difference(cli_outputs):
    assert cli_outputs.compare_file("x,I\n0,1.0\n1,2.0\n", "x,I\n0,nan\n1,2.0\n", csv=True) == \
        "1 numbers moved, max abs inf, max rel inf, max per column scale inf"
