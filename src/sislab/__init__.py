"""Numerical laboratory for degenerate SIS reaction-diffusion models.

Simulates susceptible-infected-susceptible dynamics on an interval with
mass-action or standard (frequency-dependent) incidence when one
compartment's dispersal rate is zero, computes the spectral quantities
that govern persistence (principal eigenvalue, basic reproduction number,
critical population size), monitors energy functionals along trajectories,
and classifies and verifies the long-time regime.
"""

from .mesh import (
    Field,
    Grid,
    build_grid,
    eval_expression,
    rmin_set,
)
from .models import ModelSpec, State, Trajectory, Variant, run
from .spectral import (
    EigenResult,
    basic_reproduction_number,
    principal_eigenvalue,
)
from .threshold import OptimizerOptions, ThresholdResult, critical_population
from .classify import (
    OutcomeReport,
    Regime,
    RegimePrediction,
    estimate_lambda_star,
    predict_regime,
    verify_outcome,
)
from .config import PRESETS, RunConfig, SweepConfig, load_config, preset_config
from .sweep import run_sweep

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Grid",
    "build_grid",
    "eval_expression",
    "rmin_set",
    "ModelSpec",
    "State",
    "Trajectory",
    "Variant",
    "run",
    "EigenResult",
    "basic_reproduction_number",
    "principal_eigenvalue",
    "OptimizerOptions",
    "ThresholdResult",
    "critical_population",
    "OutcomeReport",
    "Regime",
    "RegimePrediction",
    "estimate_lambda_star",
    "predict_regime",
    "verify_outcome",
    "PRESETS",
    "RunConfig",
    "SweepConfig",
    "load_config",
    "preset_config",
    "run_sweep",
]
