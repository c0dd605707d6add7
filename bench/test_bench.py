"""The benchmark's own tests: smoke-sized runs of every workload, the
agreement of BENCHMARK.json with the code, and the tracer's handling of
targets that a refactor removed.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(tracing.PER_LAYER + run.RUNNER_PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["bench.wrappers_absent"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_the_seed_sets_the_inputs():
    def initial_infected(seed):
        w = copy.copy(workloads.WORKLOADS["sim_mass_action"])
        w.setup(seed, True, ROOT / ".bench_run")
        return [c.I0.values.tobytes() for c in w.cases]

    assert initial_infected(5) == initial_infected(5)
    assert initial_infected(5) != initial_infected(6)


def test_missing_target_is_a_note_not_a_failure(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("sislab.operators", "no_such_solver", "operators.no_such_solver", None),
        ("sislab.no_such_module", "run", "models.gone", None),
    ))
    tracer = tracing.Tracer()
    import sislab.models

    original = sislab.models.run
    with tracer.installed():
        assert sislab.models.run is not original
    assert sislab.models.run is original
    assert tracer.absent == ["sislab.operators.no_such_solver", "sislab.no_such_module.run"]
    assert len(tracer.notes) == 2


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.pass_index = 0
    tracer.spans = [
        ["models.run", 0.0, 10.0, -1, 0, {"steps": 4}],
        ["operators.solve_shifted", 1.0, 3.0, 0, 0, None],
        ["operators.solve_shifted", 4.0, 7.0, 0, 0, None],
    ]
    m = tracing.layer_metrics(tracer, [0], jobs=1, untraced_wall_s=10.0)
    assert m["models.run.s"] == [10.0]
    assert m["models.run.self_s"] == [5.0]
    assert m["operators.solve_shifted.calls"] == [2]
    assert m["models.us_per_step"] == [2.5e6]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "knee_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
