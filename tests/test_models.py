import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sislab import models
from sislab.mesh import Field, build_grid, eval_expression, incidence_quotient, quadrature
from sislab.models import (
    MassConservationError,
    ModelSpec,
    StepSizeError,
    Variant,
    _Kernel,
    run,
    run_batch,
)


def unit_grid(nx=201):
    return build_grid(0, 1, nx)


def make_spec(variant=Variant.MASS_ACTION_DS0, beta="2", gamma="4 - pi*sin(pi*x)",
              d_S=0.0, d_I=1.0, nx=201):
    g = unit_grid(nx)
    return ModelSpec(variant, eval_expression(g, beta), eval_expression(g, gamma),
                     d_S=d_S, d_I=d_I), g


class TestReactionTerms:
    def test_mass_action_vanishes_without_either_compartment(self):
        spec, g = make_spec()
        kernel = _Kernel([spec], 1e-3)
        S = np.linspace(0.5, 3.0, g.nx)
        # no infecteds: the exact flow leaves the pair and the exposure fixed
        (S1,), (I1,), (J1,) = kernel.reaction_half(S[None], np.zeros((1, g.nx)),
                                                   np.zeros((1, g.nx)), 1e-3)
        assert S1 == pytest.approx(S, abs=1e-14)
        assert np.abs(I1).max() <= 1e-14
        assert np.all(J1 == 0.0)
        # no susceptibles: the infected only recover, I' = -gamma*I at tau -> 0
        I = np.linspace(0.5, 3.0, g.nx)
        tau = 1e-7
        _, (I1,), _ = kernel.reaction_half(np.zeros((1, g.nx)), I[None],
                                           np.zeros((1, g.nx)), tau)
        assert (I1 - I) / tau == pytest.approx(-spec.gamma.values * I, rel=1e-5)

    def test_mass_action_nullcline(self):
        # at S = gamma/beta the infected gain exactly balances recovery
        spec, g = make_spec()
        kernel = _Kernel([spec], 1e-3)
        r = spec.gamma.values / spec.beta.values
        I = np.full(g.nx, 1.5)
        (S1,), (I1,), _ = kernel.reaction_half(r[None].copy(), I[None],
                                               np.zeros((1, g.nx)), 1e-2)
        assert np.array_equal(S1, r)
        assert I1 == pytest.approx(I, rel=1e-15)

    def test_std_incidence_origin_and_arithmetic(self):
        S = np.array([0.0, 1.0, 4e-13, 1.0])
        I = np.array([0.0, 1.0, 5e-13, 0.0])
        q = incidence_quotient(2.0 * S * I, S, I)
        assert q[0] == 0.0 and q[2] == 0.0 and q[3] == 0.0  # S + I <= EPS_REG
        assert q[1] == pytest.approx(1.0)
        # the reaction flow on the same nodes: where S + I <= EPS_REG the
        # incidence is 0, so the infecteds only recover, I*e^{-gamma*tau}
        spec, g = make_spec(Variant.STD_INCIDENCE_DS0, beta="2 - sin(pi*x)", gamma="1.5",
                            nx=4)
        tau = 0.3
        (S1,), (I1,), (J1,) = _Kernel([spec], 1e-3).reaction_half(S[None], I[None],
                                                                  np.zeros((1, 4)), tau)
        empty = np.array([True, False, True, False])
        decay = np.exp(-1.5 * tau)
        assert I1[empty] == pytest.approx(I[empty] * decay, rel=1e-15, abs=0.0)
        assert J1[empty] == pytest.approx(I[empty] * (1.0 - decay) / 1.5, rel=1e-14, abs=0.0)
        assert np.array_equal(S1, S + I - I1)
        assert S1[0] == I1[0] == J1[0] == 0.0
        assert (S1[3], I1[3], J1[3]) == (1.0, 0.0, 0.0)  # no infecteds, no exposure

    @given(
        S=st.floats(0, 10),
        I=st.floats(0, 10),
        beta=st.floats(0.01, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_std_incidence_bounded_by_the_smaller_density(self, S, I, beta):
        Sv, Iv = np.array([S]), np.array([I])
        f = incidence_quotient(beta * Sv * Iv, Sv, Iv)[0]
        assert f <= beta * min(S, I) + 1e-12


class TestModelSpecValidation:
    def test_locked_susceptible_variant_needs_zero_ds(self):
        g = unit_grid(11)
        with pytest.raises(ValueError, match="d_S = 0"):
            ModelSpec(Variant.MASS_ACTION_DS0, Field(g, 1.0),
                      Field(g, 1.0), d_S=0.5, d_I=1.0)

    def test_locked_infected_variant_needs_zero_di(self):
        g = unit_grid(11)
        with pytest.raises(ValueError, match="d_I = 0"):
            ModelSpec(Variant.STD_INCIDENCE_DI0, Field(g, 1.0),
                      Field(g, 1.0), d_S=1.0, d_I=0.5)

    def test_rates_must_be_positive(self):
        g = unit_grid(11)
        with pytest.raises(ValueError, match="positive"):
            ModelSpec(Variant.FULL, Field(g, 0.0),
                      Field(g, 1.0), d_S=1.0, d_I=1.0)

    @pytest.mark.parametrize("variant, d_S, d_I, name", [
        (Variant.MASS_ACTION_DS0, 0.0, np.inf, "d_I"),
        (Variant.STD_INCIDENCE_DI0, np.inf, 0.0, "d_S"),
        (Variant.FULL, np.nan, 1.0, "d_S"),
        (Variant.FULL, 1.0, np.inf, "d_I"),
    ])
    def test_dispersal_rates_must_be_finite(self, variant, d_S, d_I, name):
        g = unit_grid(11)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelSpec(variant, Field(g, 1.0), Field(g, 1.0),
                      d_S=d_S, d_I=d_I)

    @pytest.mark.parametrize("beta, gamma", [(1.0, np.inf), (np.inf, 1.0), (1.0, np.nan)])
    def test_rates_must_be_finite(self, beta, gamma):
        g = unit_grid(11)
        with pytest.raises(ValueError, match="must be finite and positive everywhere"):
            ModelSpec(Variant.MASS_ACTION_DS0, Field(g, beta),
                      Field(g, gamma), d_S=0.0, d_I=1.0)

    @pytest.mark.parametrize("variant, d_S, d_I, message", [
        (Variant.MASS_ACTION_DS0, 0.5, 1.0, "mass_action_ds0 requires d_S = 0, got 0.5"),
        (Variant.STD_INCIDENCE_DI0, 0.0, 0.0,
         "d_S must be finite and positive for std_incidence_di0, got 0.0"),
        (Variant.FULL, 0.0, 1.0, "d_S must be finite and positive for full, got 0.0"),
        (Variant.FULL, 1.0, -1.0, "d_I must be finite and positive for full, got -1.0"),
    ])
    def test_the_lockdown_rule_names_the_rate_and_the_variant(self, variant, d_S, d_I,
                                                              message):
        g = unit_grid(11)
        with pytest.raises(ValueError) as info:
            ModelSpec(variant, Field(g, 1.0), Field(g, 1.0),
                      d_S=d_S, d_I=d_I)
        assert str(info.value) == message

    @pytest.mark.parametrize("a, b, nx", [(0, 5, 11), (0, 1, 21)])
    def test_rates_must_share_one_grid(self, a, b, nx):
        # equal node counts on [0, 5] and [0, 1] are two different grids
        with pytest.raises(ValueError, match="^fields live on different grids$"):
            ModelSpec(Variant.MASS_ACTION_DS0, Field(build_grid(a, b, nx), 2.0),
                      Field(unit_grid(11), 1.0), d_S=0.0, d_I=1.0)

    def test_variant_parsing(self):
        assert Variant.parse("mass_action_ds0") is Variant.MASS_ACTION_DS0
        assert Variant.parse("Std_Incidence_dI0") is Variant.STD_INCIDENCE_DI0
        with pytest.raises(ValueError, match="unknown model variant"):
            Variant.parse("sir")


class TestStep:
    def test_rejects_oversized_steps(self):
        # Crank-Nicolson at d*dt/dx^2 = 20 overshoots below zero on a
        # one-node spike of the dispersing compartment
        g = unit_grid(21)
        spec = ModelSpec(Variant.MASS_ACTION_DS0, Field(g, 1.0),
                         Field(g, 2.0), d_S=0.0, d_I=1.0)
        spike = np.full(g.nx, 1e-3)
        spike[10] = 1.0
        with pytest.raises(StepSizeError, match="drove I down to") as failed:
            _Kernel([spec], 0.05).advance(np.ones((1, g.nx)), spike[None],
                                          np.zeros((1, g.nx)), 1)
        assert failed.value.partial == []
        # here the spike grows out of the reaction (S - r is 8 at the middle
        # node and -1 elsewhere), and the run fails after five snapshots
        S0 = np.ones(g.nx)
        S0[10] = 10.0
        S0, I0 = Field(g, S0), Field(g, 1e-3)
        with pytest.raises(StepSizeError, match="between t=1 and t=1.2") as failed:
            run(spec, S0, I0, dt=0.05, T=4.0, snapshot_every=0.2, steady_tol=0.0)
        partial, = failed.value.partial
        clean = run(spec, S0, I0, dt=0.05, T=1.0, snapshot_every=0.2, steady_tol=0.0)
        assert [s.t for s in partial.snapshots] == [s.t for s in clean.snapshots]
        assert len(partial.snapshots) == 6
        # the run stopped at its last snapshot, not at the T it asked for
        assert partial.warnings == ["steady detection did not trigger by T=1"]
        for a, b in zip(partial.snapshots, clean.snapshots):
            for name in ("S", "I", "J"):
                assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
        # the same data at a smaller step run clean
        run(spec, S0, I0, dt=0.005, T=4.0, snapshot_every=0.2, steady_tol=0.0)

    def test_reaction_transfer_is_antisymmetric(self):
        # single node pair: S + I is conserved bitwise by the reaction flow
        spec, g = make_spec()
        kernel = _Kernel([spec], 1e-3)
        rng = np.random.default_rng(0)
        S = rng.uniform(0, 3, g.nx)
        I = rng.uniform(0, 3, g.nx)
        total = S + I
        (S2,), (I2,), _ = kernel.reaction_half(S[None], I[None], np.zeros((1, g.nx)), 5e-4)
        assert np.abs(S2 + I2 - total).max() <= 2 * np.finfo(float).eps * total.max()
        assert S2.min() >= 0 and I2.min() >= 0

    def test_std_incidence_reaction_conserves_mass(self):
        spec, g = make_spec(Variant.STD_INCIDENCE_DS0, beta="2 - sin(pi*x)",
                            gamma="1.5")
        kernel = _Kernel([spec], 1e-3)
        rng = np.random.default_rng(1)
        S = rng.uniform(0, 3, g.nx)
        I = rng.uniform(0, 3, g.nx)
        (S2,), (I2,), _ = kernel.reaction_half(S[None], I[None], np.zeros((1, g.nx)), 5e-4)
        assert S2 + I2 == pytest.approx(S + I, abs=1e-15)
        assert S2.min() >= 0 and I2.min() >= 0

    def test_batched_rows_advance_as_their_own_kernels(self):
        # rows with their own coefficients, one of them with nodes where
        # S + I <= EPS_REG
        specs = [make_spec(Variant.STD_INCIDENCE_DS0, beta=beta, gamma="1.5", nx=11)[0]
                 for beta in ("2 - sin(pi*x)", "3")]
        empty = np.arange(11) % 4 == 0
        S = np.stack([np.where(empty, 0.0, 2.0), np.full(11, 2.0)])
        I = np.stack([np.where(empty, 5e-13, 1.0), np.full(11, 0.5)])
        batch = _Kernel(specs, 1e-3)
        got = batch.reaction_half(S, I, np.zeros_like(S), 2.0)
        for k, spec in enumerate(specs):
            single = _Kernel([spec], 1e-3)
            want = single.reaction_half(S[k:k + 1], I[k:k + 1], np.zeros((1, 11)), 2.0)
            for a, (b,) in zip(got, want):
                assert np.array_equal(a[k], b)
        assert got[1][0][empty] == pytest.approx(5e-13 * np.exp(-1.5 * 2.0), rel=1e-15, abs=0.0)

    def test_pure_diffusion_conserves_mass_exactly(self):
        # reaction disabled: drive only the diffusion substep
        spec, g = make_spec(Variant.FULL, beta="1", gamma="1", d_S=1.0, d_I=0.7)
        kernel = _Kernel([spec], 1e-3)
        S = eval_expression(g, "2 + cos(pi*x)").values[None]
        I = eval_expression(g, "1.5 + cos(3*pi*x)").values[None]
        target = quadrature(g, (S + I)[0])
        for _ in range(1000):
            S, I = kernel.diffuse(S, I)
        drift = abs(quadrature(g, (S + I)[0]) - target)
        assert drift <= 1e-13 * target
        assert np.ptp(S) < 1e-3  # diffusion has flattened the profile

    def test_one_step_vs_two_half_steps_self_consistency(self):
        # The locked component shows the smooth-data third-order collapse;
        # the diffusing component's stiff modes damp slower nodewise (its
        # clean second-order behaviour is asserted globally in acceptance),
        # so the combined discrepancy is only required to shrink
        # superlinearly per halving and strongly per quartering.
        spec, g = make_spec()
        S0 = eval_expression(g, "2 + cos(pi*x)").values[None]
        I0 = eval_expression(g, "1.5 + cos(pi*x)").values[None]
        J0 = np.zeros((1, g.nx))

        def discrepancy(dt):
            one = _Kernel([spec], dt).advance(S0, I0, J0, 1)
            kernel = _Kernel([spec], dt / 2)
            half = kernel.advance(*kernel.advance(S0, I0, J0, 1), 1)
            return (np.abs(one[0] - half[0]).max(),
                    np.abs(one[1] - half[1]).max())

        vals = {dt: discrepancy(dt) for dt in (1.6e-2, 8e-3, 4e-3)}
        s_ratio = vals[1.6e-2][0] / vals[4e-3][0]
        i_ratio = vals[1.6e-2][1] / vals[4e-3][1]
        assert s_ratio > 20.0          # locked component: near dt^3 collapse
        assert i_ratio > 5.0           # diffusing component: superlinear
        assert vals[8e-3][1] < vals[1.6e-2][1] / 2.2


class TestRun:
    def test_rejects_vanishing_infected_data(self):
        spec, g = make_spec()
        with pytest.raises(ValueError, match="identically zero"):
            run(spec, Field(g, 2.0), Field(g, 0.0), dt=1e-3, T=1.0)

    def test_rejects_negative_initial_data(self):
        spec, g = make_spec()
        with pytest.raises(ValueError, match="nonnegative"):
            run(spec, Field(g, -0.1), Field(g, 1.0), dt=1e-3, T=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            run(spec, Field(g, 1.0), Field(g, g.nodes - 0.5), dt=1e-3, T=1.0)

    @pytest.mark.parametrize("which", ["S0", "I0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_initial_data_before_any_step(self, monkeypatch, which,
                                                             value):
        def no_step(*args):
            raise AssertionError("a step ran on data the run should have refused")

        monkeypatch.setattr(models._Kernel, "advance", no_step)
        spec, g = make_spec(nx=11)
        data = {"S0": Field(g, 2.0), "I0": Field(g, 1.0)}
        data[which] = Field(g, np.where(g.nodes < 0.5, 1.0, value))
        with pytest.raises(ValueError, match="^initial densities must be finite and "
                                             "nonnegative$"):
            run(spec, data["S0"], data["I0"], dt=1e-3, T=1.0)

    @pytest.mark.parametrize("a, b, nx", [(0, 5, 11), (0, 1, 21)])
    @pytest.mark.parametrize("which", ["S0", "I0"])
    def test_rejects_initial_data_on_another_grid(self, which, a, b, nx):
        spec, g = make_spec(nx=11)
        data = {"S0": Field(g, 2.0), "I0": Field(g, 1.0)}
        data[which] = Field(build_grid(a, b, nx), 1.0)
        with pytest.raises(ValueError, match="^fields live on different grids$"):
            run(spec, data["S0"], data["I0"], dt=1e-3, T=1.0)

    @pytest.mark.parametrize("other", [
        dict(nx=21), dict(variant=Variant.STD_INCIDENCE_DS0), dict(d_I=2.0)])
    def test_a_batch_shares_its_grid_variant_and_dispersal_rates(self, other):
        spec, g = make_spec(nx=11)
        row, h = make_spec(**{"nx": 11, **other})
        with pytest.raises(ValueError, match="batched specs must share"):
            run_batch([spec, row], [Field(g, 2.0), Field(h, 2.0)],
                      [Field(g, 1.0), Field(h, 1.0)], dt=1e-3, T=1.0)
        # equal grids built apart are one grid
        same, h = make_spec(nx=11, beta="3")
        rows = run_batch([spec, same], [Field(g, 2.0), Field(h, 2.0)],
                         [Field(g, 1.0), Field(h, 1.0)], dt=1e-3, T=1e-3)
        assert [len(t.snapshots) for t in rows] == [2, 2]

    @pytest.mark.parametrize("name, value", [
        ("dt", np.inf), ("dt", np.nan), ("dt", 0.0), ("T", np.inf), ("T", np.nan),
        ("T", -1.0), ("snapshot_every", np.nan), ("snapshot_every", np.inf),
        ("snapshot_every", 0.0),
    ])
    def test_run_lengths_must_be_positive_and_finite(self, name, value):
        spec, g = make_spec(nx=11)
        kwargs = {"dt": 1e-3, "T": 1.0, "snapshot_every": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            run(spec, Field(g, 2.0), Field(g, 1.0), **kwargs)

    def test_a_run_that_would_take_no_step_is_an_error(self):
        # round(T/dt) steps: T at most half a step would return the initial
        # state as a finished run
        spec, g = make_spec(nx=11)
        S0, I0 = Field(g, 2.0), Field(g, 1.0)
        with pytest.raises(ValueError, match=r"^T=0\.0004 is at most half a step of "
                                             r"dt=0\.001, so the run would take no step$"):
            run(spec, S0, I0, dt=1e-3, T=4e-4)
        assert run(spec, S0, I0, dt=1e-3, T=6e-4).final.t == 1e-3

    def test_rounding_to_whole_steps_is_a_warning(self):
        spec, g = make_spec(nx=21)
        S0, I0 = Field(g, 2.0), Field(g, 1.0)
        traj = run(spec, S0, I0, dt=1e-3, T=0.0016, snapshot_every=0.0007)
        assert [s.t for s in traj.snapshots] == [0.0, 0.001, 0.002]
        assert traj.warnings == [
            "T=0.0016 is not a whole number of steps of dt=0.001; the run used T=0.002",
            "snapshot_every=0.0007 is not a whole number of steps of dt=0.001; "
            "the run used snapshot_every=0.001",
            # the time the run reached, not the T it asked for
            "steady detection did not trigger by T=0.002",
        ]
        # whole steps up to roundoff, as every preset takes them, say nothing
        for T, every in ((0.002, 0.001), (0.3, 0.1), (2.0, 0.5)):
            whole = run(spec, S0, I0, dt=1e-3, T=T, snapshot_every=every)
            assert not any("whole number" in w for w in whole.warnings)

    def test_rejects_nan_steady_tolerance(self):
        # NaN fails every comparison, so steady detection could never fire
        spec, g = make_spec(nx=11)
        with pytest.raises(ValueError, match="steady_tol must be a number"):
            run(spec, Field(g, 2.0), Field(g, 1.0), dt=1e-3, T=1.0,
                steady_tol=np.nan)

    def test_a_nan_mass_fails_the_mass_check(self, monkeypatch):
        spec, g = make_spec(nx=11)
        monkeypatch.setattr(_Kernel, "advance",
                            lambda self, S, I, J, steps: (S * np.nan, I, J))
        with pytest.raises(MassConservationError, match="drifted to nan"):
            run(spec, Field(g, 2.0), Field(g, 1.0), dt=1e-3, T=1.0)

    def test_snapshots_and_mass(self):
        spec, g = make_spec(nx=101)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        traj = run(spec, S0, I0, dt=1e-3, T=2.0, snapshot_every=0.5, steady_tol=0.0)
        times = [s.t for s in traj.snapshots]
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        for s in traj.snapshots:
            assert abs(s.total_mass() - traj.N) <= 1e-12 * traj.N
            assert s.S.min() >= 0 and s.I.min() >= 0

    def test_a_short_last_interval_is_timed_by_its_own_length(self):
        # sim1b at T = 1.2 with snapshots every 0.5: the last interval is 0.2
        spec, g = make_spec(nx=41)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        traj = run(spec, S0, I0, dt=1e-3, T=1.2, snapshot_every=0.5)
        assert [s.t for s in traj.snapshots] == pytest.approx([0.0, 0.5, 1.0, 1.2])
        for a, b, rec in zip(traj.snapshots, traj.snapshots[1:], traj.diagnostics[1:]):
            change = max(np.abs(b.S.values - a.S.values).max(),
                         np.abs(b.I.values - a.I.values).max())
            assert rec.sup_change_rate == pytest.approx(change / (b.t - a.t), rel=1e-12)
        assert traj.diagnostics[-1].sup_change_rate == pytest.approx(0.0584, abs=5e-5)

    def test_exposure_is_nondecreasing(self):
        spec, g = make_spec(nx=101)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        traj = run(spec, S0, I0, dt=1e-3, T=1.0, snapshot_every=0.1, steady_tol=0.0)
        for a, b in zip(traj.snapshots, traj.snapshots[1:]):
            assert np.all(b.J.values >= a.J.values - 1e-15)

    def test_exact_exposure_identity_along_the_run(self):
        spec, g = make_spec(nx=101)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        r = spec.risk_ratio().values
        traj = run(spec, S0, I0, dt=1e-3, T=3.0, snapshot_every=0.5, steady_tol=0.0)
        for s in traj.snapshots:
            reconstructed = r + (S0.values - r) * np.exp(-spec.beta.values * s.J.values)
            assert np.abs(s.S.values - reconstructed).max() <= 1e-10 * S0.max()

    def test_nondegenerate_variant_runs(self):
        spec, g = make_spec(Variant.FULL, beta="1", gamma="2 + sin(pi*x)",
                            d_S=0.5, d_I=1.0, nx=101)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        traj = run(spec, S0, I0, dt=1e-3, T=2.0, snapshot_every=0.5, steady_tol=0.0)
        for s in traj.snapshots:
            assert abs(s.total_mass() - traj.N) <= 1e-11 * traj.N
            assert s.I.min() >= 0 and s.S.min() >= 0

    def test_steady_detection_flags(self):
        spec, g = make_spec(nx=101)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        traj = run(spec, S0, I0, dt=1e-3, T=60.0, snapshot_every=0.5)
        assert traj.steady_detected
        short = run(spec, S0, I0, dt=1e-3, T=1.0, snapshot_every=0.5)
        assert not short.steady_detected
        assert any("steady detection" in w for w in short.warnings)

    def test_susceptible_bounded_by_data_and_risk_ratio(self):
        spec, g = make_spec(nx=101)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        bound = max(S0.max(), spec.risk_ratio().max())
        traj = run(spec, S0, I0, dt=1e-3, T=5.0, snapshot_every=0.5, steady_tol=0.0)
        for s in traj.snapshots:
            assert s.S.max() <= bound + 1e-12

    @pytest.mark.parametrize("name", ["sim2b", "sim2c"])
    def test_mass_action_infected_stays_nonnegative(self, preset_run, name):
        # I = C - S cancels where I is near 0; roundoff must not carry it below 0
        for s in preset_run(name).snapshots:
            assert s.I.min() >= 0

    def test_eventual_infected_bounds_for_locked_infected_incidence(
            self, preset_run, preset_setup):
        # late in the run, each infected node is pinched between the excess
        # ratio times the late-window extremes of the susceptible level
        spec, grid, S0, I0 = preset_setup("sim4a")
        traj = preset_run("sim4a")
        late = traj.snapshots[-(len(traj.snapshots) // 4):]
        s_lo = min(s.S.min() for s in late)
        s_hi = max(s.S.max() for s in late)
        excess = np.maximum(spec.beta.values / spec.gamma.values - 1.0, 0.0)
        support = I0.values > 0
        I_final = traj.final.I.values
        slack = 3e-3
        assert np.all(I_final[support] <= excess[support] * s_hi + slack)
        assert np.all(I_final[support] >= excess[support] * s_lo - slack)


@given(
    S=st.floats(0, 4),
    I=st.floats(1e-6, 4),
    beta=st.floats(0.1, 3),
    gamma=st.floats(0.1, 3),
    tau=st.floats(1e-5, 0.05),
)
@settings(max_examples=80, deadline=None)
def test_exact_reaction_flow_matches_a_fine_ode_integration(S, I, beta, gamma, tau):
    g = build_grid(0, 1, 3)
    spec = ModelSpec(Variant.MASS_ACTION_DS0, Field(g, beta),
                     Field(g, gamma), d_S=0.0, d_I=1.0)
    kernel = _Kernel([spec], 1e-3)
    Sv = np.full((1, 3), S)
    Iv = np.full((1, 3), I)
    (S1,), (I1,), (J1,) = kernel.reaction_half(Sv, Iv, np.zeros((1, 3)), tau)

    # independent oracle: 4th-order Runge-Kutta on the nodewise pair, with
    # the exposure integral carried as an extra state component
    total = S + I
    r = gamma / beta

    def rhs(y):
        s, j = y
        return np.array([-beta * (s - r) * (total - s), total - s])

    n = 1600
    h = tau / n
    y = np.array([S, 0.0])
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert S1[0] == pytest.approx(y[0], rel=1e-9, abs=1e-11)
    assert I1[0] == pytest.approx(total - y[0], rel=1e-9, abs=1e-11)
    assert J1[0] == pytest.approx(y[1], rel=1e-9, abs=1e-11)


@given(
    S=st.floats(0, 4),
    I=st.floats(1e-6, 4),
    beta=st.floats(0.1, 3),
    gamma=st.floats(0.1, 3),
    tau=st.floats(1e-5, 0.05),
)
@settings(max_examples=80, deadline=None)
def test_exact_std_flow_matches_a_fine_ode_integration(S, I, beta, gamma, tau):
    # the middle node has beta = gamma, where the logistic rate a vanishes
    g = build_grid(0, 1, 3)
    beta_v = np.full(3, beta)
    gamma_v = np.array([gamma, beta, gamma])
    spec = ModelSpec(Variant.STD_INCIDENCE_DS0, Field(g, beta_v), Field(g, gamma_v),
                     d_S=0.0, d_I=1.0)
    kernel = _Kernel([spec], 1e-3)
    (S1,), (I1,), (J1,) = kernel.reaction_half(np.full((1, 3), S), np.full((1, 3), I),
                                               np.zeros((1, 3)), tau)

    # independent oracle: 4th-order Runge-Kutta on the nodewise pair, with
    # the exposure integral carried as an extra state component
    total = S + I

    def rhs(y):
        i, j = y
        return np.array([beta_v * (total - i) * i / total - gamma_v * i, i])

    n = 1600
    h = tau / n
    y = np.array([np.full(3, I), np.zeros(3)])
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert I1 == pytest.approx(y[0], rel=1e-9, abs=1e-11)
    assert S1 == pytest.approx(total - y[0], rel=1e-9, abs=1e-11)
    assert J1 == pytest.approx(y[1], rel=1e-9, abs=1e-11)


@given(
    variant=st.sampled_from([Variant.MASS_ACTION_DS0, Variant.STD_INCIDENCE_DS0]),
    S=st.lists(st.floats(0, 4), min_size=4, max_size=4),
    I=st.lists(st.floats(0, 4), min_size=4, max_size=4),
    beta=st.floats(0.1, 3),
    gamma=st.floats(0.1, 3),
    tau=st.floats(1e-5, 0.5),
)
@settings(max_examples=80, deadline=None)
def test_reaction_flows_are_semigroups(variant, S, I, beta, gamma, tau):
    # R(tau) R(tau) = R(2 tau) is what lets a run merge the two half
    # reactions between steps; the last two nodes are a typical node and one
    # with S + I <= EPS_REG
    g = build_grid(0, 1, 6)
    spec = ModelSpec(variant, Field(g, np.linspace(beta, 2 * beta, 6)),
                     Field(g, gamma), d_S=0.0, d_I=1.0)
    kernel = _Kernel([spec], 1e-3)
    S = np.array([S + [2.0, 0.0]])
    I = np.array([I + [1.0, 5e-13]])
    twice = kernel.reaction_half(*kernel.reaction_half(S, I, np.zeros((1, 6)), tau), tau)
    once = kernel.reaction_half(S, I, np.zeros((1, 6)), 2 * tau)
    for a, b in zip(twice, once):
        assert np.abs(a - b).max() <= 1e-13 * (S + I).max()


@pytest.mark.parametrize("variant, beta, gamma", [
    (Variant.MASS_ACTION_DS0, "2", "4 - pi*sin(pi*x)"),
    (Variant.STD_INCIDENCE_DS0, "2.5 + sin(pi*x)", "1.5 + sin(pi*x)"),
])
def test_merged_reactions_change_only_roundoff(variant, beta, gamma):
    # snapshot_every = dt runs every step's two half reactions on their own
    spec, g = make_spec(variant, beta=beta, gamma=gamma, nx=101)
    S0 = eval_expression(g, "2 + cos(pi*x)")
    I0 = eval_expression(g, "1.5 + cos(pi*x)")
    merged = run(spec, S0, I0, dt=1e-3, T=1.0, snapshot_every=0.5, steady_tol=0.0)
    unmerged = run(spec, S0, I0, dt=1e-3, T=1.0, snapshot_every=1e-3, steady_tol=0.0)
    shared = {round(s.t, 9): s for s in unmerged.snapshots}
    assert len(merged.snapshots) == 3
    for a in merged.snapshots:
        b = shared[round(a.t, 9)]
        for name in ("S", "I", "J"):
            assert np.abs(getattr(a, name).values - getattr(b, name).values).max() <= 1e-12


def _cosine_series(draw, grid, floor):
    """A random smooth field floor + c0 + sum a_k cos(k pi x), k <= 3, that
    stays above floor."""
    amps = [draw(st.floats(-1, 1)) for _ in range(3)]
    c0 = sum(abs(a) for a in amps) + draw(st.floats(0, 2))
    x = (grid.nodes - grid.a) / (grid.b - grid.a)
    return Field(grid, floor + c0 + sum(a * np.cos((k + 1) * np.pi * x)
                                        for k, a in enumerate(amps)))


@given(variant=st.sampled_from(list(Variant)), nx=st.integers(17, 65),
       dt=st.sampled_from([1e-3, 5e-3]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_smooth_runs_keep_their_invariants(variant, nx, dt, data):
    g = unit_grid(nx)
    d_S = 0.0 if variant.locks_s else data.draw(st.floats(0.01, 2))
    d_I = 0.0 if variant.locks_i else data.draw(st.floats(0.01, 2))
    spec = ModelSpec(variant, _cosine_series(data.draw, g, 0.1),
                     _cosine_series(data.draw, g, 0.1), d_S=d_S, d_I=d_I)
    S0 = _cosine_series(data.draw, g, 0.01)
    I0 = _cosine_series(data.draw, g, 0.01)
    # a StepSizeError here means the guard fired on smooth data
    traj = run(spec, S0, I0, dt=dt, T=0.5, snapshot_every=0.1, steady_tol=0.0)
    assert len(traj.snapshots) == 6
    r = spec.risk_ratio().values
    for s in traj.snapshots:
        assert abs(s.total_mass() - traj.N) <= 1e-12 * traj.N
        assert s.S.min() >= 0 and s.I.min() >= 0
        if variant is Variant.MASS_ACTION_DS0:
            locked = r + (S0.values - r) * np.exp(-spec.beta.values * s.J.values)
            assert np.abs(s.S.values - locked).max() <= 1e-10 * S0.max()
