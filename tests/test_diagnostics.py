import numpy as np
import pytest

from sislab import models
from sislab.diagnostics import (
    DiagnosticsContext,
    concentration_fraction,
    harnack_ratio,
    lyapunov_mass_action_di0,
    lyapunov_std_di0,
    lyapunov_std_ds0,
)
from sislab.mesh import Field, build_grid, eval_expression, risk_signs
from sislab.operators import gradient_energy_values


@pytest.fixture
def grid():
    return build_grid(0, 1, 201)


class TestMassActionEnergy:
    def test_reaction_term_vanishes_on_the_nullcline(self, grid):
        r = eval_expression(grid, "4 - pi*sin(pi*x)")
        I = eval_expression(grid, "1 + x")
        beta = Field(grid, 1.0)
        V, dissipation = lyapunov_mass_action_di0(r, I, beta, r, d_S=1.0)
        assert dissipation == pytest.approx(gradient_energy_values(r.values, grid.dx),
                                            rel=1e-12)

    def test_disease_free_constant_state_dissipates_nothing(self, grid):
        S = Field(grid, 2.0)
        I = Field(grid, 0.0)
        beta = Field(grid, 1.0)
        r = eval_expression(grid, "1 + x")
        V, dissipation = lyapunov_mass_action_di0(S, I, beta, r, d_S=1.0)
        assert dissipation == 0.0
        assert V == pytest.approx(2.0, rel=1e-12)

    def test_rate_matches_dissipation_along_a_run(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim2b")
        r = spec.risk_ratio()

        def residual(dt):
            traj = models.run(spec, S0, I0, dt=dt, T=0.5, snapshot_every=dt,
                              steady_tol=0.0)
            worst = 0.0
            snaps = traj.snapshots
            for k in range(1, len(snaps) - 1):
                Vm, _ = lyapunov_mass_action_di0(snaps[k - 1].S, snaps[k - 1].I,
                                                 spec.beta, r, spec.d_S)
                V0, diss = lyapunov_mass_action_di0(snaps[k].S, snaps[k].I,
                                                    spec.beta, r, spec.d_S)
                Vp, _ = lyapunov_mass_action_di0(snaps[k + 1].S, snaps[k + 1].I,
                                                 spec.beta, r, spec.d_S)
                worst = max(worst, abs((Vp - Vm) / (2 * dt) + diss))
            return worst

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r1 / r2 == pytest.approx(4.0, rel=0.4)


class TestStdIncidenceLockedSusceptibleEnergy:
    def test_disease_free_value(self, grid):
        beta = Field(grid, 2.0)
        gamma = Field(grid, 1.0)
        S = Field(grid, 3.0)
        I = Field(grid, 0.0)
        V, dissipation = lyapunov_std_ds0(S, I, beta, gamma, d_I=1.0)
        assert dissipation == 0.0
        # kappa = (beta - gamma)/gamma = 1
        assert V == pytest.approx(0.5 * 9.0, rel=1e-12)

    def test_balanced_constant_state_dissipates_nothing(self, grid):
        beta = Field(grid, 3.0)
        gamma = Field(grid, 1.0)   # kappa = 2
        S = Field(grid, 1.0)
        I = Field(grid, 2.0)       # I = kappa S
        _, dissipation = lyapunov_std_ds0(S, I, beta, gamma, d_I=1.0)
        assert dissipation == pytest.approx(0.0, abs=1e-14)

    def test_rejects_dominated_transmission(self, grid):
        beta = eval_expression(grid, "1 + sin(pi*x)")
        gamma = Field(grid, 1.5)
        with pytest.raises(ValueError, match="beta >= gamma"):
            lyapunov_std_ds0(Field(grid, 1.0), Field(grid, 1.0),
                             beta, gamma, d_I=1.0)

    @pytest.mark.parametrize("low, has_energy", [(-1e-11, False), (-1e-13, True)])
    def test_beta_dominates_where_the_risk_partition_has_no_low_risk_node(
            self, grid, low, has_energy):
        # beta - gamma is 1e-3 but at one node; the energy exists exactly when
        # risk_signs, whose band is 1e-9 of max|beta - gamma| = 1e-12, finds
        # no low-risk node
        gamma = Field(grid, 1.0)
        beta_values = np.full(grid.nx, 1.0 + 1e-3)
        beta_values[100] = 1.0 + low
        beta = Field(grid, beta_values)
        assert (risk_signs(beta.values - gamma.values) < 0).any() is not has_energy
        spec = models.ModelSpec(models.Variant.STD_INCIDENCE_DS0, beta, gamma,
                                d_S=0.0, d_I=1.0)
        context = DiagnosticsContext(spec, Field(grid, 1.0))
        assert (context.energy is not None) is has_energy
        S, I = Field(grid, 1.0), Field(grid, 1.0)
        if has_energy:
            lyapunov_std_ds0(S, I, beta, gamma, d_I=1.0)
        else:
            with pytest.raises(ValueError, match="beta >= gamma"):
                lyapunov_std_ds0(S, I, beta, gamma, d_I=1.0)

    def test_monotone_along_an_endemic_run(self, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim3b")
        traj = models.run(spec, S0, I0, dt=1e-3, T=30.0, snapshot_every=0.5,
                          steady_tol=0.0)
        V = [rec.lyapunov for rec in traj.diagnostics]
        assert all(v is not None for v in V)
        allowed = 10 * 1e-3**2 * round(0.5 / 1e-3)
        assert all(b - a <= allowed for a, b in zip(V, V[1:]))


class TestStdIncidenceLockedInfectedEnergy:
    def test_disease_free_terms_vanish(self, grid):
        beta = eval_expression(grid, "2 - sin(pi*x)")
        gamma = Field(grid, 1.5)
        high = (beta.values - gamma.values) > 0
        S = Field(grid, 2.0)
        I = Field(grid, 0.0)
        V, g, lo, hi = lyapunov_std_di0(S, I, beta, gamma, 1.0, high)
        assert (g, lo, hi) == (0.0, 0.0, 0.0)

    def test_empty_high_risk_set_kills_that_term(self, grid):
        beta = Field(grid, 1.0)
        gamma = Field(grid, 1.5)
        high = np.zeros(grid.nx, dtype=bool)
        S = eval_expression(grid, "2 + cos(pi*x)")
        I = eval_expression(grid, "1.5 + cos(pi*x)")
        V, g, lo, hi = lyapunov_std_di0(S, I, beta, gamma, 1.0, high)
        assert hi == 0.0
        assert g > 0

    def test_cumulative_terms_stay_finite_along_a_run(self, preset_run, preset_setup):
        spec, grid, S0, I0 = preset_setup("sim4a")
        high = (risk_signs(spec.beta.values - spec.gamma.values) > 0) & (I0.values > 0)
        traj = models.run(spec, S0, I0, dt=5e-3, T=40.0, snapshot_every=0.5,
                          steady_tol=0.0)
        lows, highs = 0.0, 0.0
        for snap in traj.snapshots:
            _, _, lo, hi = lyapunov_std_di0(snap.S, snap.I, spec.beta, spec.gamma,
                                            spec.d_S, high)
            lows += abs(lo) * 0.5
            highs += hi * 0.5
        assert np.isfinite(lows) and np.isfinite(highs)
        assert highs < 50.0 and lows < 50.0


class TestHarnackAndConcentration:
    def test_constant_profile(self, grid):
        assert harnack_ratio(Field(grid, 2.0)) == 1.0

    def test_cosine_profile(self, grid):
        I = eval_expression(grid, "1 + 0.5*cos(pi*x)")
        assert harnack_ratio(I) == pytest.approx(3.0, rel=1e-12)

    def test_absent_when_not_positive(self, grid):
        assert harnack_ratio(Field(grid, 0.0)) is None

    def test_bounded_along_diffusive_run(self, preset_run):
        traj = preset_run("sim1b")
        ratios = [rec.harnack_ratio for rec in traj.diagnostics if rec.t >= 1.0]
        assert all(r is not None for r in ratios)
        assert max(ratios) < 50.0

    def test_point_mass_fraction(self, grid):
        I = Field(grid, np.where(grid.nodes == 0.5, 1.0, 0.0))
        assert concentration_fraction(I, [100]) == pytest.approx(1.0)

    def test_uniform_profile_window_fraction(self, grid):
        I = Field(grid, 1.0)
        frac = concentration_fraction(I, [100])
        assert frac == pytest.approx(0.1, abs=1e-12)

    def test_needs_positive_mass(self, grid):
        with pytest.raises(ValueError, match="positive infected mass"):
            concentration_fraction(Field(grid, 0.0), [3])

    def test_late_time_concentration_on_the_point_mass_preset(self, preset_run):
        traj = preset_run("sim2b")
        late = [rec.concentration_fraction for rec in traj.diagnostics
                if rec.t >= traj.final.t / 2]
        assert all(f is not None for f in late)
        assert late[-1] >= 0.9


class TestRecordWiring:
    def test_variant_specific_columns(self, preset_run):
        rec_ds0 = preset_run("sim1b").diagnostics[-1]
        assert rec_ds0.lyapunov is None
        assert rec_ds0.concentration_fraction is None
        assert rec_ds0.harnack_ratio is not None

        rec_di0 = preset_run("sim2b").diagnostics[-1]
        assert rec_di0.lyapunov is not None
        assert rec_di0.concentration_fraction is not None

    def test_total_mass_recorded(self, preset_run):
        traj = preset_run("sim1b")
        for rec in traj.diagnostics:
            assert rec.total_mass == pytest.approx(traj.N, rel=1e-12)

    def test_record_value_ranges(self, preset_run):
        for name in ("sim1b", "sim2b"):
            for rec in preset_run(name).diagnostics:
                assert rec.total_mass > 0
                if rec.harnack_ratio is not None:
                    assert rec.harnack_ratio >= 1.0
                if rec.concentration_fraction is not None:
                    assert 0.0 <= rec.concentration_fraction <= 1.0 + 1e-12
