import numpy as np
import pytest

from sislab import models
from sislab.config import OBSERVABLES, SweepConfig, preset_config
from sislab.sweep import detect_knee, run_sweep


class TestKneeDetection:
    def test_corner_of_a_hockey_stick(self):
        params = np.linspace(0, 1, 11)
        vals = np.maximum(params - 0.5, 0.0) * 2.0
        assert detect_knee(list(zip(params, vals))) == pytest.approx(0.5)

    def test_constant_observable_has_no_knee(self):
        assert detect_knee([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]) is None

    def test_two_points_have_no_knee(self):
        assert detect_knee([(0.0, 1.0), (1.0, 2.0)]) is None

    def test_failed_points_are_skipped(self):
        pairs = [(0.0, 0.0), (0.25, None), (0.5, 0.0), (0.75, 1.0), (1.0, 2.0)]
        assert detect_knee(pairs) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def small_sweep():
    base = preset_config("sim1c", nx=41, T=2.0, dt=2e-3)
    return SweepConfig(base=base, parameter="a", lo=0.5, hi=1.5, count=4,
                       observable="I_mass_at_T")


class TestRunSweep:
    def test_serial_and_parallel_agree(self, small_sweep):
        serial = run_sweep(small_sweep, jobs=1)
        parallel = run_sweep(small_sweep, jobs=2)
        assert [p.parameter for p in serial.points] == \
            [p.parameter for p in parallel.points]
        for a, b in zip(serial.points, parallel.points):
            assert a.value == b.value  # bitwise: same code path per point

    def test_table_is_sorted_and_complete(self, small_sweep):
        res = run_sweep(small_sweep)
        params = [p.parameter for p in res.points]
        assert params == sorted(params)
        assert len(params) == 4
        assert all(p.error is None for p in res.points)

    def test_failures_recorded_not_raised(self):
        # a = -3 drives the initial infected data identically to zero
        base = preset_config("sim1c", nx=41, T=1.0, dt=2e-3)
        cfg = SweepConfig(base=base, parameter="a", lo=-3.0, hi=1.5, count=3,
                          observable="I_mass_at_T")
        res = run_sweep(cfg)
        assert res.points[0].error is not None
        assert "identically zero" in res.points[0].error
        assert res.points[-1].error is None

    def test_a_dt_too_small_to_count_steps_fails_its_own_point(self):
        base = preset_config("sim1b", nx=21, T=1.0)
        cfg = SweepConfig(base=base, parameter="dt", lo=1e-310, hi=2e-3, count=2,
                          observable="I_mass_at_T")
        res = run_sweep(cfg)
        assert [p.error for p in res.points] == [
            "ValueError: dt=1e-310 is too small to count the steps of T=1.0", None]

    def test_extinction_is_dispersal_independent_below_threshold(self):
        # small-population extinction happens at every infected dispersal rate
        base = preset_config("sim1a", nx=101, T=40.0)
        cfg = SweepConfig(base=base, parameter="d_I", lo=0.1, hi=10.0, count=3,
                          observable="final_sup_I")
        res = run_sweep(cfg)
        assert all(p.error is None for p in res.points)
        assert all(p.value <= 1e-3 for p in res.points)


def _batched_and_single_runs(cfg):
    """Every point of the sweep run as one batch and one at a time."""
    cfgs = [cfg.point(float(v)) for v in cfg.values()]
    specs, _, S0s, I0s = zip(*(c.build() for c in cfgs))
    batched = models.run_batch(list(specs), list(S0s), list(I0s), **cfgs[0].run_kwargs())
    singles = [models.run(spec, S0, I0, **c.run_kwargs())
               for spec, S0, I0, c in zip(specs, S0s, I0s, cfgs)]
    return specs, batched, singles


def _assert_bitwise_equal(batched, single):
    assert [s.t for s in batched.snapshots] == [s.t for s in single.snapshots]
    for a, b in zip(batched.snapshots, single.snapshots):
        for name in "SIJ":
            assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
    assert batched.diagnostics == single.diagnostics
    assert batched.steady_detected == single.steady_detected
    assert batched.warnings == single.warnings
    assert batched.N == single.N
    assert (batched.steps, batched.rejected_steps) == (single.steps, single.rejected_steps)


class TestBatchedRows:
    """A batch's rows advance as one state; each must be its own run bit for bit."""

    def test_knee_sweep_rows_going_steady_at_different_times(self):
        base = preset_config("sim1c", nx=41, T=40.0, dt=4e-3, steady_tol=1e-4)
        cfg = SweepConfig(base=base, parameter="a", lo=-0.5, hi=1.5, count=5,
                          observable="I_mass_at_T")
        _, batched, singles = _batched_and_single_runs(cfg)
        ends = [traj.final.t for traj in batched]
        assert len(set(ends)) >= 4 and max(ends) == 40.0 and min(ends) < 40.0
        for b, s in zip(batched, singles):
            _assert_bitwise_equal(b, s)
        res = run_sweep(cfg)
        for point, single in zip(res.points, singles):
            assert point.error is None
            assert point.value == float(single.final.I.values @ single.spec.grid.weights)

    def test_std_incidence_rows_going_steady_at_different_times(self):
        # the rows left after each steady stop get a kernel of their own,
        # with their own cached reaction factors
        base = preset_config("sim3b", nx=21, T=40.0, dt=4e-3, steady_tol=1e-4,
                             gamma_expr="g + sin(pi*x)", params={"g": 1.0})
        cfg = SweepConfig(base=base, parameter="g", lo=0.5, hi=2.0, count=4,
                          observable="I_mass_at_T")
        _, batched, singles = _batched_and_single_runs(cfg)
        ends = [traj.final.t for traj in batched]
        assert len(set(ends) - {40.0}) >= 3
        for b, s in zip(batched, singles):
            _assert_bitwise_equal(b, s)

    def test_rows_with_their_own_coefficients(self):
        base = preset_config("sim1c", nx=41, T=2.0, dt=2e-3, beta_expr="b*(1 + x)",
                             params={"a": 1.5, "b": 0.5})
        cfg = SweepConfig(base=base, parameter="b", lo=0.3, hi=0.9, count=4,
                          observable="I_mass_at_T")
        specs, batched, singles = _batched_and_single_runs(cfg)
        assert not np.array_equal(specs[0].beta.values, specs[1].beta.values)
        for b, s in zip(batched, singles):
            _assert_bitwise_equal(b, s)

    def test_standard_incidence_rows_with_their_own_initial_data(self):
        base = preset_config("sim4b", nx=41, T=2.0, I0_expr="c + cos(pi*x)",
                             params={"c": 1.5})
        cfg = SweepConfig(base=base, parameter="c", lo=1.0, hi=2.0, count=3,
                          observable="I_mass_at_T")
        _, batched, singles = _batched_and_single_runs(cfg)
        for b, s in zip(batched, singles):
            _assert_bitwise_equal(b, s)

    def test_failing_points_in_a_batch_keep_their_errors(self):
        # a = -3 and a = -1.5 drive the initial infected data to zero
        base = preset_config("sim1c", nx=41, T=1.0, dt=2e-3)
        cfg = SweepConfig(base=base, parameter="a", lo=-3.0, hi=1.5, count=4,
                          observable="I_mass_at_T")
        res = run_sweep(cfg)
        zero = "ValueError: initial infected density is identically zero"
        assert [p.error for p in res.points] == [zero, zero, None, None]
        assert [p.value for p in res.points[:2]] == [None, None]
        for point in res.points[2:]:
            spec, _, S0, I0 = cfg.point(point.parameter).build()
            single = models.run(spec, S0, I0, **base.run_kwargs())
            assert point.value == float(single.final.I.values @ spec.grid.weights)


class TestObservables:
    def test_an_observable_that_raises_reruns_no_point(self, monkeypatch):
        # each point fails in its own observable, which batching cannot cause
        def no_value(traj):
            raise ValueError("this run has no value")

        monkeypatch.setitem(OBSERVABLES, "I_mass_at_T", no_value)
        base = preset_config("sim1c", nx=41, T=0.5)
        cfg = SweepConfig(base=base, parameter="a", lo=0.5, hi=1.5, count=4,
                          observable="I_mass_at_T")
        rows = []
        run_batch = models.run_batch

        def counting_run_batch(specs, *args, **kwargs):
            rows.append(len(specs))
            return run_batch(specs, *args, **kwargs)

        monkeypatch.setattr(models, "run_batch", counting_run_batch)
        res = run_sweep(cfg)
        assert rows == [4]
        error = "ValueError: this run has no value"
        assert [p.error for p in res.points] == [error] * 4
        assert [p.value for p in res.points] == [None] * 4

    def test_concentration_fraction_is_the_last_recorded_one(self):
        base = preset_config("sim2b", nx=41, T=2.0)
        cfg = SweepConfig(base=base, parameter="d_S", lo=0.5, hi=1.5, count=3,
                          observable="concentration_fraction")
        res = run_sweep(cfg)
        assert len(res.points) == 3
        for point in res.points:
            spec, _, S0, I0 = cfg.point(point.parameter).build()
            single = models.run(spec, S0, I0, **base.run_kwargs())
            last = single.diagnostics[-1].concentration_fraction
            assert last is not None
            assert point.error is None
            assert point.value == last
