"""The names other code binds: the package's public API, every function
the benchmark's tracer wraps, and the calls the benchmark's workloads make.
A refactor that drops a traced binding, routes the work around it, or
changes a signature a workload uses fails here instead of silently zeroing
that layer's benchmark metrics or failing only the benchmark."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import pytest

import sislab
from sislab import (classify, config, diagnostics, expressions, mesh, models, operators,
                    output, spectral, sweep, threshold)
from sislab.config import preset_config
from sislab.mesh import build_grid, eval_expression

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_public_api_is_pinned():
    assert sislab.__all__ == [
        "Field", "Grid", "build_grid", "eval_expression",
        "ModelSpec", "State", "Trajectory", "Variant", "run",
        "EigenResult", "basic_reproduction_number", "principal_eigenvalue",
        "OptimizerOptions", "ThresholdResult", "critical_population",
        "OutcomeReport", "Regime", "RegimePrediction", "predict_regime",
        "verify_outcome",
        "PRESETS", "RunConfig", "SweepConfig", "load_config", "preset_config",
        "run_sweep",
    ]
    for name in sislab.__all__:
        assert hasattr(sislab, name), name
    # the risk partition is one sign array; the incidence is the Variant's
    for name in ("RiskMode", "RiskProfile", "risk_sets"):
        assert not hasattr(mesh, name), name
    assert not hasattr(models.Variant, "mass_action")
    # a reload reads profiles.csv alone; T37's limit level is its predicted_S
    assert not hasattr(output, "read_diagnostics_csv")
    assert "r_tilde_min" not in {f.name for f in fields(classify.RegimePrediction)}
    # a predicted limit is a Field, a level a constant one, and one helper
    # measures every profile error
    limits = typing.get_type_hints(classify.RegimePrediction)
    assert limits["predicted_S"] == limits["predicted_I"] == typing.Optional[mesh.Field]
    assert not hasattr(classify, "_best_concentration_snapshot")
    # a prediction states its limits and nothing they fix, and the kernel
    # keeps what a step size needs in one table
    assert tuple(f.name for f in fields(classify.RegimePrediction)) == (
        "regime", "predicted_S", "predicted_I", "min_indices", "notes")
    assert not hasattr(classify, "_concentration")
    for name in ("reaction_half", "_cache", "_diffusion"):
        assert not hasattr(models._Kernel, name), name
    # a sweep point has one shape, and output names the diagnostics columns
    assert not hasattr(sweep.SweepResult, "table")
    assert not hasattr(diagnostics.DiagnosticsRecord, "CSV_COLUMNS")
    # one quadrature, one run reader, one sweep-config reader, and no
    # wrapper that only a test called
    assert not hasattr(mesh, "integrate")
    assert not hasattr(mesh.Grid, "window_mask")
    assert not hasattr(output, "read_profiles_csv")
    assert not hasattr(output, "trajectory_from_csv")
    assert not hasattr(expressions, "parse_expression")
    assert not hasattr(config, "sweep_config_from_entries")
    # one way to build a Field, a kernel nothing trims, and nothing kept that
    # no caller reads or reaches
    assert not hasattr(mesh.Field, "constant")
    assert not hasattr(models._Kernel, "keep_rows")
    assert tuple(f.name for f in fields(classify.OutcomeReport)) == (
        "measured_errors", "passed", "notes")
    error = spectral.EigenConvergenceError("iteration", 10, 0.5)
    assert not hasattr(error, "iterations") and not hasattr(error, "residual")
    assert "raise" not in inspect.getsource(config._last_concentration_fraction)
    expression_source = inspect.getsource(expressions)
    assert "isdecimal" not in expression_source
    assert "trailing input" not in expression_source
    # the exposure factor is exp(-beta*J), formed where a caller needs it
    assert not hasattr(classify, "estimate_lambda_star")
    # one grid rule, Grid.__eq__ through mesh.common_grid; rmin_set is
    # internal, and its callers pass it data models.check_initial_data passed
    assert not hasattr(mesh, "_require_same_grid")
    assert "rmin_set" not in sislab.__all__ and not hasattr(sislab, "rmin_set")
    # one tridiagonal route, L D L^T on S times the matrix: no LU solve, no
    # nonsymmetric matrix and no helper converting between the two
    for name in ("dgtsv", "halve_end_rows", "TridiagonalMatrix"):
        assert not hasattr(operators, name), name


@pytest.mark.parametrize("where", ["extension", "fallback"])
def test_the_lapack_loader_returns_scipys_symmetric_routines(where, tmp_path):
    # the extension operators found beside scipy, or an empty folder
    import scipy.linalg.lapack

    folder = Path(scipy.__file__).parent / "linalg" if where == "extension" else tmp_path
    routines = operators._load_lapack(folder)
    assert routines == (scipy.linalg.lapack.dpttrf, scipy.linalg.lapack.dpttrs,
                        scipy.linalg.lapack.dptsv)
    assert (operators.dpttrf, operators.dpttrs, operators.dptsv) == routines


def test_option_surface_is_pinned():
    # each value below has one setting in use, so it is a module constant
    # (mesh.EPS_REG, spectral.DEFAULT_MAX_ITER, spectral._TOL,
    # diagnostics.CONCENTRATION_RADIUS, threshold's tolerances and ascent
    # cap), not an option
    def params(fn):
        return tuple(inspect.signature(fn).parameters)

    assert tuple(f.name for f in fields(threshold.OptimizerOptions)) == ("seed",)
    assert tuple(f.name for f in fields(models.ModelSpec)) == (
        "variant", "beta", "gamma", "d_S", "d_I")
    assert params(spectral.principal_eigenvalue) == ("d", "h", "start")
    assert params(spectral.basic_reproduction_number) == ("d_I", "beta", "gamma")
    assert params(spectral._noda) == ("what", "d", "grid", "c", "w", "u", "op_scale")
    assert params(mesh.incidence_quotient) == ("x", "S", "I")
    assert params(diagnostics.lyapunov_std_ds0) == ("S", "I", "beta", "gamma", "d_I")
    assert params(diagnostics.lyapunov_std_di0) == (
        "S", "I", "beta", "gamma", "d_S", "high_mask")
    assert params(diagnostics.concentration_fraction) == ("I", "min_indices")
    assert params(models.Trajectory.trailing) == ("self",)
    # each caller forms its own risk indicator, and a run carries its own r and beta
    assert params(mesh.risk_signs) == ("indicator",)
    assert params(output.read_run) == ("spec", "run_dir")
    assert params(output.run_model) == ("run_dir",)


@pytest.mark.parametrize("module_name, path", [
    (target[0], target[1]) for target in _load_bench("tracing").TARGETS
])
def test_every_traced_binding_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", sorted(_load_bench("workloads").WORKLOADS))
def test_every_benchmark_workload_sets_up(name, tmp_path):
    # one smoke-sized pass, checked as the benchmark checks it: a result the
    # benchmark would count as incorrect fails here first
    workloads = _load_bench("workloads")
    workload = workloads.WORKLOADS[name]
    workload.setup(seed=1, smoke=True, workdir=tmp_path)
    tasks = [workloads.call(*task) for task in workload.plan(1)]
    assert tasks
    assert [task.error for task in tasks if task.error] == []
    assert workload.check(tasks) == {}


def _count_factorizations(monkeypatch):
    sizes = []

    def counting(routine, position):
        def count(*args, **kwargs):
            sizes.append(len(args[position]))
            return routine(*args, **kwargs)
        return count

    # dptsv factors as it solves, so each of its calls is a factorization too
    monkeypatch.setattr(operators, "dpttrf", counting(operators.dpttrf, 0))
    monkeypatch.setattr(operators, "dptsv", counting(operators.dptsv, 0))
    return sizes


@pytest.fixture
def factorizations(monkeypatch):
    """The sizes of the matrices factored through operators' dpttrf and
    dptsv bindings."""
    return _count_factorizations(monkeypatch)


def _span_count(tracer, name):
    return sum(span[0] == name for span in tracer.spans)


@pytest.mark.parametrize("overrides, dispersing", [
    ({}, 1),                              # mass_action_ds0: only I disperses
    ({"model": "full", "d_S": 0.5}, 2),   # both compartments disperse
], ids=["degenerate", "full"])
def test_a_run_factors_once_and_traces_every_crank_nicolson_solve(
        factorizations, overrides, dispersing):
    # the fixed-dt path; the sim1b preset itself sets dt_tol
    cfg = preset_config("sim1b", nx=41, T=0.05, dt_tol=None, **overrides)
    spec, _, S0, I0 = cfg.build()
    tracer = _load_bench("tracing").Tracer()
    with tracer.installed():
        traj = models.run(spec, S0, I0, **cfg.run_kwargs())
    steps = round(traj.final.t / cfg.dt)
    assert steps == 50
    assert _span_count(tracer, "models.run") == 1
    assert _span_count(tracer, "operators.solve_shifted") == dispersing * steps
    assert factorizations == [41] * dispersing


def test_an_adaptive_run_traces_three_solves_per_trial_and_bounds_its_factorizations(
        factorizations):
    # each trial is one step of h and two of h/2, one solve per step for the
    # one dispersing compartment; the step sizes come off the ladder
    # dt * 2^(k/4) or are clipped onto a snapshot time, so few of them recur
    cfg = preset_config("sim1b", nx=41, T=2.0)
    assert cfg.dt_tol == 3e-7
    spec, _, S0, I0 = cfg.build()
    tracer = _load_bench("tracing").Tracer()
    with tracer.installed():
        traj = models.run(spec, S0, I0, **cfg.run_kwargs())
    trials = traj.steps + traj.rejected_steps
    assert traj.steps > 100 and trials < round(cfg.T / cfg.dt)
    assert _span_count(tracer, "operators.solve_shifted") == 3 * trials
    # one factorization per step size, not two per trial
    assert len(factorizations) <= models._CACHED_STEP_SIZES
    assert set(factorizations) == {41}


def test_eigen_solves_factor_and_trace_once_per_iteration(factorizations):
    # each Noda step shifts, so it solves its own matrix once, in one dptsv call
    grid = build_grid(0, 1, 101)
    h = eval_expression(grid, "cos(2*pi*x)")
    tracer = _load_bench("tracing").Tracer()
    with tracer.installed():
        res = spectral.principal_eigenvalue(0.1, h)
        assert res.iterations > 0
        assert _span_count(tracer, "operators.solve_tridiagonal") == res.iterations
        assert factorizations == [101] * res.iterations
        # a start that already meets the tolerance factors nothing
        assert spectral.principal_eigenvalue(0.1, h, start=res.phi.values).iterations == 0
        assert factorizations == [101] * res.iterations
        spectral.basic_reproduction_number(1.0, eval_expression(grid, "2 - sin(pi*x)"),
                                           eval_expression(grid, "1.5"))
    r0_iterations = _span_count(tracer, "operators.solve_tridiagonal") - res.iterations
    assert r0_iterations > 0
    assert factorizations == [101] * (res.iterations + r0_iterations)


def test_the_fallback_routines_factor_once(monkeypatch, tmp_path):
    # what operators runs on where scipy keeps no _flapack file beside it
    for name, routine in zip(("dpttrf", "dpttrs", "dptsv"), operators._load_lapack(tmp_path)):
        monkeypatch.setattr(operators, name, routine)
    test_eigen_solves_factor_and_trace_once_per_iteration(_count_factorizations(monkeypatch))
    for overrides, dispersing in ({}, 1), ({"model": "full", "d_S": 0.5}, 2):
        test_a_run_factors_once_and_traces_every_crank_nicolson_solve(
            _count_factorizations(monkeypatch), overrides, dispersing)


_STARTUP_PROBE = """
import json, sys
import sislab.cli
unused = [m for m in ("scipy.linalg", "numpy.f2py", "concurrent.futures.process")
          if m in sys.modules]
from sislab import spectral
from sislab.config import SweepConfig, preset_config
from sislab.mesh import build_grid, eval_expression
from sislab.sweep import run_sweep
h = eval_expression(build_grid(0, 1, 41), "cos(2*pi*x)")
sweep = SweepConfig(preset_config("sim1c", nx=41, T=0.5), "a", 0.5, 1.5, 4, "I_mass_at_T")
print(json.dumps({
    "unused": unused,
    "dense": spectral.dense_principal_eigenvalue(0.1, h)[0],
    "noda": spectral.principal_eigenvalue(0.1, h).sigma,
    "parallel": run_sweep(sweep, jobs=2).points,
    "serial": run_sweep(sweep, jobs=1).points,
}))
"""


def test_the_cli_starts_without_the_packages_it_does_not_run():
    # scipy.linalg (and numpy.f2py under it) costs more than the rest of
    # start-up; the process pool is imported by the sweeps that use it
    env = {**os.environ, "PYTHONPATH": str(Path(sislab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout)
    assert probe["unused"] == []
    # the lazily imported code still runs
    assert abs(probe["dense"] - probe["noda"]) <= 1e-8
    assert probe["parallel"] == probe["serial"]
    assert [error for _, _, error in probe["serial"]] == [None] * 4


def test_threshold_counts_the_eigen_solves_the_benchmark_traces():
    tracing = _load_bench("tracing")
    spec, _, S0, _ = preset_config("sim1c").build()
    tracer = tracing.Tracer()
    with tracer.installed():
        res = threshold.critical_population(S0, spec.risk_ratio(), spec.beta, spec.d_I)
    metrics = tracing.layer_metrics(tracer, [-1], jobs=1, untraced_wall_s=1.0)
    assert res.eigen_solves == metrics["threshold.sigma_evals"][0] > 0
    assert res.eigen_iterations == metrics["spectral.iterations"][0] > 0
    assert res.iterations == metrics["threshold.iterations"][0]
