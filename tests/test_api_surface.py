"""The names other code binds: the package's public API and every function
the benchmark's tracer wraps.  A refactor that drops a traced binding fails
here instead of silently zeroing that layer's benchmark metrics."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sislab

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_is_pinned():
    assert sislab.__all__ == [
        "Field", "Grid", "RiskMode", "RiskProfile", "build_grid", "eval_expression",
        "integrate", "risk_sets", "rmin_set",
        "ModelSpec", "State", "Trajectory", "Variant", "run", "step",
        "EigenResult", "basic_reproduction_number", "principal_eigenvalue",
        "OptimizerOptions", "ThresholdResult", "critical_population",
        "OutcomeReport", "Regime", "RegimePrediction", "estimate_lambda_star",
        "predict_regime", "verify_outcome",
        "PRESETS", "RunConfig", "SweepConfig", "load_config", "preset_config",
        "run_sweep",
    ]
    for name in sislab.__all__:
        assert hasattr(sislab, name), name


@pytest.mark.parametrize("module_name, path", [
    (target[0], target[1]) for target in _load_tracing().TARGETS
])
def test_every_traced_binding_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
