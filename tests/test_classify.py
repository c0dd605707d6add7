import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sislab import models
from sislab.classify import (
    Regime,
    predict_regime,
    verify_outcome,
)
from sislab.config import PRESETS, preset_config
from sislab.mesh import Field, build_grid, quadrature, risk_signs
from sislab.models import ModelSpec, Variant
from sislab.spectral import principal_eigenvalue
from test_models import _cosine_series


def _level(limit: Field) -> float:
    """The value of a predicted limit that is uniform, as it must be."""
    assert isinstance(limit, Field) and limit.min() == limit.max()
    return limit.max()


EXPECTED_REGIMES = {
    "sim1a": Regime.T32_EXTINCTION,
    "sim1b": Regime.T32_ENDEMIC_UNIFORM,
    "sim2a": Regime.T37_EXTINCTION_UNIFORM,
    "sim2b": Regime.T37_CONCENTRATION,
    "sim2c": Regime.T37_CONCENTRATION,
    "sim3a": Regime.T42_EXTINCTION,
    "sim3b": Regime.T42_ENDEMIC,
    "sim3c": Regime.T43_SUBSEQ_EXTINCTION,
    "sim4a": Regime.T46_PERSISTENCE,
    "sim4b": Regime.T46_PERSISTENCE,
}


class TestPredictions:
    @pytest.mark.parametrize("name,regime", sorted(EXPECTED_REGIMES.items()))
    def test_preset_regimes(self, preset_setup, name, regime):
        spec, grid, S0, I0 = preset_setup(name)
        pred = predict_regime(spec, S0, I0)
        assert pred.regime is regime

    def test_endemic_level_for_the_large_population_case(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim1b")
        pred = predict_regime(spec, S0, I0)
        assert _level(pred.predicted_I) == pytest.approx(2.5, abs=1e-3)
        assert isinstance(pred.predicted_S, Field)

    def test_concentration_targets(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim2b")
        pred = predict_regime(spec, S0, I0)
        # the limit's infected mass is what its susceptibles leave of N
        I_mass = quadrature(grid, S0.values + I0.values - pred.predicted_S.values)
        assert I_mass == pytest.approx(np.pi - 0.5, abs=1e-6)
        assert grid.nodes[pred.min_indices] == pytest.approx([0.5])
        spec, grid, S0, I0 = preset_setup("sim2c")
        pred = predict_regime(spec, S0, I0)
        assert grid.nodes[pred.min_indices] == pytest.approx([0.125, 0.625])

    def test_persistence_level_closes_the_mass_balance(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim4a")
        pred = predict_regime(spec, S0, I0)
        S_star = _level(pred.predicted_S)
        assert S_star == pytest.approx(63 / 19, rel=1e-3)
        total = S_star * grid.length + quadrature(pred.predicted_I.grid, pred.predicted_I.values)
        assert total == pytest.approx(3.5, rel=1e-9)

    def test_endemic_uniform_level_matches_recomputation(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim3b")
        pred = predict_regime(spec, S0, I0)
        bv, gv = spec.beta.values, spec.gamma.values
        level = 3.5 / quadrature(grid, bv / (bv - gv))
        assert _level(pred.predicted_I) == pytest.approx(level, rel=1e-12)
        assert _level(pred.predicted_I) == pytest.approx(1.1159, abs=2e-4)

    def test_reciprocal_gap_heuristic_notes_are_reported(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim3c")
        pred = predict_regime(spec, S0, I0)
        assert any("capped quadrature" in n for n in pred.notes)

    def test_a_fat_moderate_risk_set_predicts_extinction(self):
        # beta = gamma on [0.3, 0.7], weight 0.4 against 2*dx = 0.01
        spec, _, S0, I0 = preset_config(
            "sim3a", beta_expr="1.5 + max(abs(x - 0.5) - 0.2, 0)", gamma_expr="1.5").build()
        pred = predict_regime(spec, S0, I0)
        assert pred.regime is Regime.T43_EXTINCTION
        assert _level(pred.predicted_I) == 0.0
        assert "moderate-risk weight 0.405 vs 2*dx=0.01" in pred.notes

    def test_full_variant_is_rejected(self):
        g = build_grid(0, 1, 11)
        spec = ModelSpec(Variant.FULL, Field(g, 1.0),
                         Field(g, 1.0), d_S=1.0, d_I=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            predict_regime(spec, Field(g, 1.0), Field(g, 1.0))

    def test_small_population_beats_threshold_logic(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim1a")
        pred = predict_regime(spec, S0, I0)
        assert pred.regime is Regime.T32_EXTINCTION

    def test_undecided_band_is_indeterminate(self, preset_setup):
        # sim1c coefficients with a population inside (int r, N*): no decision
        # rule pins the outcome, which is exactly what the sweep probes
        spec, grid, S0, I0 = preset_setup("sim1c")
        small_I0 = Field(grid, np.maximum(0.80 + np.cos(np.pi * grid.nodes), 0.0))
        pred = predict_regime(spec, S0, small_I0)
        assert pred.regime is Regime.INDETERMINATE
        assert any("critical population" in n for n in pred.notes)

    def test_an_integrable_reciprocal_gap_is_indeterminate(self):
        # beta - gamma = |x - 0.5|^0.5 vanishes at one node only, and its
        # reciprocal is integrable, so neither T43 rule applies
        spec, _, S0, I0 = preset_config(
            "sim3a", beta_expr="1.5 + abs(x - 0.5)^0.5", gamma_expr="1.5").build()
        pred = predict_regime(spec, S0, I0)
        assert pred.regime is Regime.INDETERMINATE
        assert pred.notes[-1] == "reciprocal risk gap looks integrable; no decision rule applies"

    def test_a_high_risk_set_off_the_subsample_has_a_vanishing_gap(self):
        # infecteds only at node 2, which the stride-4 subsample skips: the
        # capped quadrature there is 0, so the gap counts as integrable
        spec, grid, S0, _ = preset_config("sim4b").build()
        I0 = Field(grid, np.where(np.arange(grid.nx) == 2, 1.0, 0.0))
        pred = predict_regime(spec, S0, I0)
        assert pred.regime is Regime.T46_PERSISTENCE
        assert "reciprocal gap vanishes on the region" in pred.notes

    @pytest.mark.parametrize("nx", [201, 202, 203])
    def test_non_integrable_reciprocal_gap_is_indeterminate_at_every_nx(self, nx):
        # 1/(beta - gamma) = 1/|x - 0.5|^2 is not integrable, so no T46 limit
        # exists; a grid without a quarter-resolution subsample cannot tell
        # and must not fall back to "integrable"
        cfg = preset_config("sim4b").with_overrides(
            beta_expr="1.5 + abs(x - 0.5)^2", gamma_expr="1.5", nx=nx)
        spec, grid, S0, I0 = cfg.build()
        assert predict_regime(spec, S0, I0).regime is Regime.INDETERMINATE

    def test_decision_table_is_total_on_random_inputs(self):
        g = build_grid(0, 1, 41)
        rng = np.random.default_rng(0)
        variants = [Variant.MASS_ACTION_DS0, Variant.MASS_ACTION_DI0,
                    Variant.STD_INCIDENCE_DS0, Variant.STD_INCIDENCE_DI0]
        for k in range(24):
            variant = variants[k % 4]
            base = 0.5 + rng.uniform(0, 2)
            beta = Field(g, base + rng.uniform(0, base - 0.2)
                         * np.sin((k + 1) * g.nodes))
            gamma = Field(g, 0.3 + rng.uniform(0, 2))
            d_S, d_I = (0.0, 1.0) if variant.locks_s else (1.0, 0.0)
            spec = ModelSpec(variant, beta, gamma, d_S=d_S, d_I=d_I)
            S0 = Field(g, rng.uniform(0.0, 2.0, g.nx))
            I0 = Field(g, np.maximum(rng.uniform(-0.5, 1.0, g.nx), 0.0))
            if not (I0.values > 0).any():
                continue
            pred = predict_regime(spec, S0, I0)
            assert isinstance(pred.regime, Regime)


    @pytest.mark.parametrize("name", ["sim1b", "sim1c", "sim2b", "sim3b", "sim4a"])
    @pytest.mark.parametrize("bad", ["negative_I0", "nan_I0", "inf_I0", "zero_I0",
                                     "I0_on_a_wider_domain",
                                     "S0_on_a_wider_domain"])
    def test_a_prediction_refuses_exactly_the_data_a_run_refuses(self, preset_setup,
                                                                  name, bad):
        spec, grid, S0, I0 = preset_setup(name)
        # equal node counts on [0, 5] and [0, 1] are two different grids
        wide = build_grid(grid.a, grid.a + 5 * grid.length, grid.nx)
        S0, I0 = {
            "negative_I0": (S0, Field(grid, grid.nodes - 0.5)),
            "nan_I0": (S0, Field(grid, np.where(grid.nodes < 0.5, 1.0, np.nan))),
            "inf_I0": (S0, Field(grid, np.where(grid.nodes < 0.5, 1.0, np.inf))),
            "zero_I0": (S0, Field(grid, 0.0)),
            "I0_on_a_wider_domain": (S0, Field(wide, I0.values)),
            "S0_on_a_wider_domain": (Field(wide, S0.values), I0),
        }[bad]
        with pytest.raises(ValueError) as refused:
            models.run(spec, S0, I0, dt=1e-3, T=1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            predict_regime(spec, S0, I0)


DEGENERATE = [v for v in Variant if v.locks_s or v.locks_i]


@pytest.mark.parametrize("variant", DEGENERATE, ids=lambda v: v.value)
@given(nx=st.integers(17, 65), data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_predicted_limit_is_a_field_on_the_grid(variant, nx, data):
    g = build_grid(0, 1, nx)
    d_S = 0.0 if variant.locks_s else data.draw(st.floats(0.01, 2))
    d_I = 0.0 if variant.locks_i else data.draw(st.floats(0.01, 2))
    spec = ModelSpec(variant, _cosine_series(data.draw, g, 0.1),
                     _cosine_series(data.draw, g, 0.1), d_S=d_S, d_I=d_I)
    # I0 vanishes beyond a drawn node, so its support may be part of the domain
    support = np.arange(nx) < data.draw(st.integers(1, nx))
    I0 = Field(g, np.where(support, _cosine_series(data.draw, g, 0.01).values, 0.0))
    pred = predict_regime(spec, _cosine_series(data.draw, g, 0.01), I0)
    for limit in (pred.predicted_S, pred.predicted_I):
        assert limit is None or (isinstance(limit, Field) and limit.grid == spec.grid)
    if pred.regime is Regime.T46_PERSISTENCE:
        # the persistence set is where the stated I limit is positive
        high = (risk_signs(spec.beta.values - spec.gamma.values) > 0) & (I0.values > 0)
        assert np.array_equal(pred.predicted_I.values > 0, high)


# a configuration for every decided regime
DECIDED = [
    ("sim1a", {}, Regime.T32_EXTINCTION),
    ("sim1b", {}, Regime.T32_ENDEMIC_UNIFORM),
    ("sim2a", {}, Regime.T37_EXTINCTION_UNIFORM),
    ("sim2b", {}, Regime.T37_CONCENTRATION),
    ("sim3a", {}, Regime.T42_EXTINCTION),
    ("sim3b", {}, Regime.T42_ENDEMIC),
    ("sim3a", {"beta_expr": "1.5 + max(abs(x - 0.5) - 0.2, 0)", "gamma_expr": "1.5"},
     Regime.T43_EXTINCTION),
    ("sim3c", {}, Regime.T43_SUBSEQ_EXTINCTION),
    ("sim4a", {}, Regime.T46_PERSISTENCE),
]


@pytest.mark.parametrize("name, overrides, regime", DECIDED,
                         ids=[regime.name for *_, regime in DECIDED])
def test_a_run_at_its_predicted_limit_verifies_with_zero_profile_error(name, overrides,
                                                                        regime):
    spec, grid, S0, I0 = preset_config(name, **overrides).build()
    pred = predict_regime(spec, S0, I0)
    assert pred.regime is regime
    S = S0 if pred.predicted_S is None else pred.predicted_S
    N = quadrature(grid, S0.values + I0.values)
    I = pred.predicted_I
    if I is None:
        # a point mass has no Field form: the mass N - int S_inf, on min_indices
        I = np.zeros(grid.nx)
        I[pred.min_indices] = (N - quadrature(grid, S.values)) \
            / grid.weights[pred.min_indices].sum()
        I = Field(grid, I)
    at_limit = models.State(0.0, S, I, None)
    report = verify_outcome(models.Trajectory(spec, [at_limit], [], N), pred, tol=1e-12)
    profile = {k: err for k, err in report.measured_errors.items() if k != "I_mass_rel"}
    assert profile and all(err == 0.0 for err in profile.values()), profile
    assert report.passed is True


class TestLambdaStarEstimate:
    def test_extinction_run_certificate(self, preset_run, preset_setup):
        # the exposure factor exp(-beta*J) of a died-out run certifies a
        # nonpositive constrained eigenvalue up to finite-horizon truncation
        spec, grid, S0, I0 = preset_setup("sim1a")
        traj = preset_run("sim1a")
        lam = np.exp(-spec.beta.values * traj.final.J.values)
        h = Field(grid, spec.beta.values * lam * (S0.values - spec.risk_ratio().values))
        assert principal_eigenvalue(spec.d_I, h).sigma <= 1e-3


class TestVerifyOutcome:
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True, reason="sup_I_rel 0.107 at T = 200: the subsequential decay at "
                                "the double zero of beta - gamma is algebraic (ROADMAP "
                                "item 6)")) if name == "sim3c" else name
        for name in sorted(PRESETS)])
    def test_every_preset_passes_its_own_verification(self, preset_run, preset_setup,
                                                      name):
        spec, grid, S0, I0 = preset_setup(name)
        report = verify_outcome(preset_run(name), predict_regime(spec, S0, I0), tol=0.01)
        assert report.passed

    def test_endemic_uniform_pass(self, preset_run, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim1b")
        traj = preset_run("sim1b")
        report = verify_outcome(traj, predict_regime(spec, S0, I0), tol=0.01)
        assert report.passed
        assert report.measured_errors["I_mass_rel"] <= 0.01

    def test_concentration_pass_with_mass_tolerance(self, preset_run, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim2b")
        traj = preset_run("sim2b")
        report = verify_outcome(traj, predict_regime(spec, S0, I0), tol=0.02)
        assert report.passed
        assert report.measured_errors["I_mass_rel"] <= 0.02
        assert report.measured_errors["concentration_shortfall"] <= 0.1

    def test_endemic_constant_pass(self, preset_run, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim3b")
        traj = preset_run("sim3b")
        report = verify_outcome(traj, predict_regime(spec, S0, I0), tol=0.01)
        assert report.passed
        assert report.measured_errors["I_uniform_rel"] <= 0.01

    def test_indeterminate_is_reported_without_verdict(self, preset_run, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim1c")
        traj = preset_run("sim1c")
        from sislab.classify import RegimePrediction

        pred = RegimePrediction(Regime.INDETERMINATE)
        report = verify_outcome(traj, pred, tol=0.01)
        assert report.passed is None
        assert report.measured_errors == {}
        assert any("no verdict" in n for n in report.notes)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, preset_run, preset_setup, tol):
        spec, grid, S0, I0 = preset_setup("sim1b")
        pred = predict_regime(spec, S0, I0)
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, "
                                             f"got {re.escape(repr(tol))}$"):
            verify_outcome(preset_run("sim1b"), pred, tol=tol)

    def test_failure_is_reported_not_hidden(self, preset_run, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim1b")
        traj = preset_run("sim1b")
        pred = predict_regime(spec, S0, I0)
        strict = verify_outcome(traj, pred, tol=1e-16)
        assert strict.passed is False
