"""Predicts the asymptotic regime from model parameters and verifies a
finished trajectory against the prediction.

Two properties of the coefficients are undecidable from nodal samples and
are settled by explicit heuristics, whose inputs are echoed in the
prediction notes: a moderate-risk set counts as having positive measure
when its quadrature weight exceeds two mesh cells, and the reciprocal risk
gap counts as non-integrable when its capped quadrature more than doubles
from the quarter-resolution subsample to the full grid (power-law blowup
grows like 1/dx across that refinement; an integrable or merely
logarithmic singularity does not).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Union

import numpy as np

from .mesh import Field, quadrature, risk_signs, rmin_set
from .models import ModelSpec, Trajectory, Variant, check_initial_data
from .diagnostics import concentration_fraction
from .threshold import critical_population

RECIPROCAL_CAP = 1e12
DIVERGENCE_GROWTH = 2.0
# share of the infected mass a point-mass limit must gather near its target
CONCENTRATION_MIN = 0.9


class Regime(enum.Enum):
    T32_EXTINCTION = "extinction (small population, susceptibles locked, mass action)"
    T32_ENDEMIC_UNIFORM = "uniform endemic limit (susceptibles locked, mass action)"
    T37_EXTINCTION_UNIFORM = "extinction with uniform susceptibles (infected locked, mass action)"
    T37_CONCENTRATION = "point concentration at highest risk (infected locked, mass action)"
    T42_EXTINCTION = "extinction via low-risk sites (susceptibles locked, std incidence)"
    T42_ENDEMIC = "uniform endemic infected level (susceptibles locked, std incidence)"
    T43_EXTINCTION = "extinction via fat moderate-risk set (susceptibles locked, std incidence)"
    T43_SUBSEQ_EXTINCTION = "subsequential extinction (susceptibles locked, std incidence)"
    T46_PERSISTENCE = "persistence on high-risk sites (infected locked, std incidence)"
    INDETERMINATE = "indeterminate"


@dataclass
class RegimePrediction:
    regime: Regime
    predicted_S: Union[Field, float, None] = None
    predicted_I: Union[Field, float, None] = None
    predicted_I_mass: Optional[float] = None
    min_indices: Optional[np.ndarray] = None
    high_mask: Optional[np.ndarray] = None
    notes: list[str] = dataclass_field(default_factory=list)


@dataclass
class OutcomeReport:
    measured_errors: dict[str, float]
    passed: Optional[bool]
    notes: list[str] = dataclass_field(default_factory=list)


def predict_regime(spec: ModelSpec, S0: Field, I0: Field) -> RegimePrediction:
    """Decision table over the four degenerate systems."""
    predictor = _PREDICTORS.get(spec.variant)
    if predictor is None:
        raise ValueError("regime prediction covers only the degenerate systems")
    check_initial_data(spec, S0, I0)
    N = quadrature(spec.grid, S0.values + I0.values)
    return predictor(spec, S0, I0, N)


def _predict_mass_ds0(spec, S0, I0, N):
    grid = spec.grid
    r = spec.risk_ratio()
    int_r = quadrature(grid, r.values)
    notes = [f"N={N:.6g}, int r={int_r:.6g}"]
    if N < int_r:
        pred = RegimePrediction(Regime.T32_EXTINCTION, notes=notes)
        return pred

    gap = S0.values - r.values
    beta_span = spec.beta.max() - spec.beta.min()
    beta_const = beta_span <= 1e-12 * max(1.0, abs(spec.beta.max()))
    sign_tol = 1e-9 * max(1.0, float(np.abs(gap).max()))
    constant_sign = gap.min() >= -sign_tol or gap.max() <= sign_tol
    endemic_I = (N - int_r) / grid.length

    if (beta_const or constant_sign) and N > int_r:
        notes.append("threshold equals int r here (constant transmission rate "
                     "or one-signed S0 - r)")
        return RegimePrediction(Regime.T32_ENDEMIC_UNIFORM, predicted_S=r,
                                predicted_I=endemic_I, predicted_I_mass=N - int_r,
                                notes=notes)
    res = critical_population(S0, r, spec.beta, spec.d_I)
    notes.append(f"critical population N*={res.n_star:.6g} "
                 f"(bounds [{res.lower_bound:.6g}, {res.upper_bound:.6g}])")
    if N > res.n_star:
        return RegimePrediction(Regime.T32_ENDEMIC_UNIFORM, predicted_S=r,
                                predicted_I=endemic_I, predicted_I_mass=N - int_r,
                                notes=notes)
    notes.append("population lies in the undecided band above int r")
    return RegimePrediction(Regime.INDETERMINATE, notes=notes)


def _predict_mass_di0(spec, S0, I0, N):
    grid = spec.grid
    signs = risk_signs((N / grid.length) * spec.beta.values - spec.gamma.values)
    active_high = (signs > 0) & (I0.values > 0)
    r = spec.risk_ratio()
    r_min, min_idx = rmin_set(r, I0)
    notes = [f"high-risk nodes meeting the infected support: {int(active_high.sum())}"]
    if not active_high.any():
        return RegimePrediction(Regime.T37_EXTINCTION_UNIFORM,
                                predicted_S=N / grid.length, predicted_I=0.0,
                                predicted_I_mass=0.0, min_indices=min_idx,
                                notes=notes)
    mass = N - grid.length * r_min
    notes.append(f"limit infected mass N - |domain|*min r = {mass:.6g}")
    return RegimePrediction(Regime.T37_CONCENTRATION, predicted_S=r_min,
                            predicted_I_mass=mass, min_indices=min_idx,
                            notes=notes)


def _predict_std_ds0(spec, S0, I0, N):
    grid = spec.grid
    bv, gv = spec.beta.values, spec.gamma.values
    signs = risk_signs(bv - gv)
    notes = [f"risk partition sizes +:{np.count_nonzero(signs > 0)} "
             f"0:{np.count_nonzero(signs == 0)} -:{np.count_nonzero(signs < 0)}"]
    if (signs < 0).any():
        return RegimePrediction(Regime.T42_EXTINCTION, predicted_I=0.0, notes=notes)
    if (signs > 0).all():
        I_star = N / quadrature(grid, bv / (bv - gv))
        S_star = Field(grid, gv * I_star / (bv - gv))
        notes.append(f"endemic infected level {I_star:.6g}")
        return RegimePrediction(Regime.T42_ENDEMIC, predicted_S=S_star,
                                predicted_I=I_star,
                                predicted_I_mass=I_star * grid.length, notes=notes)
    zero_measure = quadrature(grid, (signs == 0).astype(float))
    notes.append(f"moderate-risk weight {zero_measure:.3g} vs 2*dx={2*grid.dx:.3g}")
    if zero_measure > 2 * grid.dx:
        return RegimePrediction(Regime.T43_EXTINCTION, predicted_I=0.0, notes=notes)
    divergent, detail = _reciprocal_gap_divergent(spec, mask=None)
    notes.append(detail)
    if divergent:
        return RegimePrediction(Regime.T43_SUBSEQ_EXTINCTION, predicted_I=0.0,
                                notes=notes)
    if divergent is False:
        notes.append("reciprocal risk gap looks integrable; no decision rule applies")
    return RegimePrediction(Regime.INDETERMINATE, notes=notes)


def _predict_std_di0(spec, S0, I0, N):
    grid = spec.grid
    bv, gv = spec.beta.values, spec.gamma.values
    high = (risk_signs(bv - gv) > 0) & (I0.values > 0)
    notes = [f"high-risk infected-support nodes: {int(high.sum())}"]
    if not high.any():
        notes.append("no high-risk site meets the infected support")
        return RegimePrediction(Regime.INDETERMINATE, high_mask=high, notes=notes)
    divergent, detail = _reciprocal_gap_divergent(spec, mask=high)
    notes.append(detail)
    if divergent:
        notes.append("reciprocal risk gap blows up on the active high-risk set")
    if divergent is not False:
        return RegimePrediction(Regime.INDETERMINATE, high_mask=high, notes=notes)
    excess = np.where(high, np.maximum(bv - gv, 0.0) / gv, 0.0)
    S_star = N / (grid.length + quadrature(grid, excess))
    I_star = Field(grid, excess * S_star)
    notes.append(f"uniform susceptible level {S_star:.6g}")
    return RegimePrediction(Regime.T46_PERSISTENCE, predicted_S=S_star,
                            predicted_I=I_star,
                            predicted_I_mass=quadrature(grid, I_star.values),
                            high_mask=high, notes=notes)


_PREDICTORS = {
    Variant.MASS_ACTION_DS0: _predict_mass_ds0,
    Variant.MASS_ACTION_DI0: _predict_mass_di0,
    Variant.STD_INCIDENCE_DS0: _predict_std_ds0,
    Variant.STD_INCIDENCE_DI0: _predict_std_di0,
}


def _reciprocal_gap_divergent(spec: ModelSpec, mask: np.ndarray | None
                              ) -> tuple[Optional[bool], str]:
    """Capped-quadrature growth test for 1/(beta-gamma) on an optional mask;
    None when the grid has no quarter-resolution subsample to compare with."""
    grid = spec.grid
    gap = spec.beta.values - spec.gamma.values
    if mask is None:
        mask = np.ones(grid.nx, dtype=bool)

    def capped_quadrature(stride: int) -> float:
        sub_gap = gap[::stride]
        sub_mask = mask[::stride] & (sub_gap > 0)
        vals = np.zeros_like(sub_gap)
        vals[sub_mask] = np.minimum(1.0 / sub_gap[sub_mask], RECIPROCAL_CAP)
        # the subsample's trapezoid weights; scaling by stride 1 or 4 is exact
        return float((stride * grid.weights[::stride]) @ vals)

    if (grid.nx - 1) % 4:
        return None, "grid not 4x-subsamplable (nx - 1 not divisible by 4); cannot tell"
    coarse = capped_quadrature(4)
    fine = capped_quadrature(1)
    if coarse <= 0:
        return False, "reciprocal gap vanishes on the region"
    ratio = fine / coarse
    return ratio > DIVERGENCE_GROWTH, (
        f"capped quadrature of 1/(beta-gamma): {coarse:.6g} at quarter resolution, "
        f"{fine:.6g} at full, growth {ratio:.3g} (divergent beyond {DIVERGENCE_GROWTH:g})"
    )


def check_tolerance(tol: float) -> None:
    """A verdict's tolerance is positive and finite (a NaN fails too)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def verify_outcome(traj: Trajectory, pred: RegimePrediction, tol: float) -> OutcomeReport:
    """Measure the trajectory against the predicted limit.

    Errors are normalized (relative to the predicted scale, or to the mean
    density N/|domain| for extinction checks) so the single tolerance
    applies across checks; the concentration shortfall is judged against
    ``CONCENTRATION_MIN`` instead because the point-mass limit is subsequential.
    Indeterminate predictions are reported without a verdict.
    """
    check_tolerance(tol)
    errors: dict[str, float] = {}
    notes: list[str] = []
    grid = traj.spec.grid
    final = traj.final
    density_scale = traj.N / grid.length
    Sv = final.S.values
    Iv = final.I.values
    regime = pred.regime

    if regime is Regime.INDETERMINATE:
        notes.append("no verdict: the prediction is indeterminate")
        notes.append(f"final sup S={Sv.max():.6g}, sup I={Iv.max():.6g}, "
                     f"infected mass={quadrature(grid, Iv):.6g}")
        return OutcomeReport({}, None, notes)

    if regime in (Regime.T32_EXTINCTION, Regime.T42_EXTINCTION, Regime.T43_EXTINCTION):
        errors["sup_I_rel"] = Iv.max() / density_scale
    elif regime is Regime.T32_ENDEMIC_UNIFORM:
        I_star = float(pred.predicted_I)
        r_vals = pred.predicted_S.values
        errors["I_mass_rel"] = abs(quadrature(grid, Iv) - pred.predicted_I_mass) \
            / pred.predicted_I_mass
        errors["I_profile_rel"] = float(np.abs(Iv - I_star).max()) / I_star
        errors["S_vs_risk_ratio_rel"] = float(np.abs(Sv - r_vals).max()) / r_vals.max()
    elif regime is Regime.T37_EXTINCTION_UNIFORM:
        level = float(pred.predicted_S)
        errors["S_uniform_rel"] = float(np.abs(Sv - level).max()) / level
        errors["I_mass_rel"] = quadrature(grid, Iv) / traj.N
    elif regime is Regime.T37_CONCENTRATION:
        best = _best_concentration_snapshot(traj, pred)
        errors["I_mass_rel"] = abs(best["mass"] - pred.predicted_I_mass) \
            / pred.predicted_I_mass
        errors["concentration_shortfall"] = 1.0 - best["fraction"]
        errors["S_level_rel"] = best["s_err"] / pred.predicted_S
        notes.append(f"best trailing snapshot at t={best['t']:g}")
    elif regime is Regime.T42_ENDEMIC:
        I_star = float(pred.predicted_I)
        S_star = pred.predicted_S.values
        errors["I_uniform_rel"] = float(np.abs(Iv - I_star).max()) / I_star
        errors["S_profile_rel"] = float(np.abs(Sv - S_star).max()) / S_star.max()
    elif regime is Regime.T43_SUBSEQ_EXTINCTION:
        sup_trail = min(float(np.abs(s.I.values).max()) for s in traj.trailing())
        errors["sup_I_rel"] = sup_trail / density_scale
        notes.append("subsequential claim: judged on the best trailing snapshot")
    elif regime is Regime.T46_PERSISTENCE:
        S_star = float(pred.predicted_S)
        I_star = pred.predicted_I.values
        high = pred.high_mask
        errors["S_uniform_rel"] = float(np.abs(Sv - S_star).max()) / S_star
        scale = float(I_star.max())
        errors["I_high_rel"] = float(np.abs((Iv - I_star)[high]).max()) / scale
        off = ~high
        if off.any():
            errors["I_off_rel"] = float(Iv[off].max()) / scale

    passed = all(
        err <= (1.0 - CONCENTRATION_MIN if name == "concentration_shortfall" else tol)
        for name, err in errors.items()
    )
    return OutcomeReport(errors, passed, notes)


def _best_concentration_snapshot(traj: Trajectory, pred: RegimePrediction) -> dict:
    grid = traj.spec.grid
    best = None
    for state in traj.trailing():
        Iv = state.I.values
        mass = quadrature(grid, Iv)
        frac = (concentration_fraction(state.I, pred.min_indices)
                if mass > 0 else 0.0)
        s_err = float(np.abs(state.S.values - pred.predicted_S).max())
        score = frac - abs(mass - pred.predicted_I_mass) / max(pred.predicted_I_mass, 1e-300)
        if best is None or score > best["score"]:
            best = {"t": state.t, "mass": mass, "fraction": frac,
                    "s_err": s_err, "score": score}
    return best
