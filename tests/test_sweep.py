import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sislab
from sislab import models, sweep
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


def _worker_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def _is_gone(pid: int, timeout: float = 30.0) -> bool:
    """Whether process ``pid`` has ended and been reaped within ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _end_worker(payload):
    os._exit(1)


def _pool_state(queue):
    queue.put((sweep._pool is None, sweep._pool_lock.acquire(blocking=False)))


def _sweep_in_child(cfg, queue):
    points = run_sweep(cfg, jobs=2).points
    queue.put((points, _worker_pids()))


# An executor left to interpreter teardown can be collected after
# concurrent.futures' globals are cleared; its callback then prints an
# ignored AttributeError.  atexit runs hooks last in, first out, so the
# check registered before multiprocessing loads runs after its exit function.
_ONE_PARALLEL_SWEEP = """
import atexit, json, weakref
pools = []
atexit.register(lambda: print(json.dumps([ref() is None for ref in pools])))
import multiprocessing
from sislab import sweep
from sislab.config import SweepConfig, preset_config
cfg = SweepConfig(preset_config("sim1c", nx=41, T=0.5), "a", 0.5, 1.5, 4, "I_mass_at_T")
sweep.run_sweep(cfg, jobs=2)
pools.append(weakref.ref(sweep._pool[1]))
print(json.dumps([p.pid for p in multiprocessing.active_children()]))
"""


class TestWorkerPool:
    """One pool per process: reused, replaced when it must be, never left behind."""

    def test_later_sweeps_run_on_the_same_workers(self, small_sweep):
        first = run_sweep(small_sweep, jobs=2)
        workers = _worker_pids()
        second = run_sweep(small_sweep, jobs=2)
        assert len(workers) == 2
        assert _worker_pids() == workers
        assert second.points == first.points

    def test_another_worker_count_replaces_the_pool(self, small_sweep, monkeypatch):
        from concurrent.futures import process

        run_sweep(small_sweep, jobs=2)
        old = _worker_pids()
        gone_at_start = []

        class Recording(process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                gone_at_start.extend(_is_gone(pid, timeout=0.0) for pid in old)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
        three = SweepConfig(small_sweep.base, "a", 0.5, 1.5, 3, "I_mass_at_T")
        run_sweep(three, jobs=3)
        new = _worker_pids()
        assert len(old) == 2 and len(new) == 3
        assert gone_at_start == [True, True]  # one pool at a time

    def test_a_killed_idle_worker_is_replaced(self, small_sweep):
        serial = run_sweep(small_sweep, jobs=1)
        run_sweep(small_sweep, jobs=2)
        old = _worker_pids()
        os.kill(old[0], signal.SIGKILL)
        # the pool has seen the death once the dead worker is reaped
        assert _is_gone(old[0])
        parallel = run_sweep(small_sweep, jobs=2)
        assert parallel.points == serial.points
        assert parallel.knee == serial.knee
        new = _worker_pids()
        assert len(new) == 2 and not set(old) & set(new)

    def test_a_pool_that_breaks_twice_raises(self, small_sweep, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        serial = run_sweep(small_sweep, jobs=1)
        monkeypatch.setattr(sweep, "_evaluate_point", _end_worker)
        with pytest.raises(BrokenProcessPool):
            run_sweep(small_sweep, jobs=2)
        assert _worker_pids() == []
        monkeypatch.undo()
        assert run_sweep(small_sweep, jobs=2).points == serial.points

    def test_no_worker_outlives_its_process(self):
        env = {**os.environ, "PYTHONPATH": str(Path(sislab.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", _ONE_PARALLEL_SWEEP], env=env,
                              timeout=120, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        workers, collected = map(json.loads, done.stdout.splitlines())
        assert len(workers) == 2
        assert collected == [True]
        assert all(_is_gone(pid, timeout=0.0) for pid in workers)

    def test_a_forked_child_starts_its_own_pool(self, small_sweep):
        # the inherited pool's manager thread did not survive the fork, so a
        # child that used it would wait forever for its tasks
        run_sweep(small_sweep, jobs=2)
        fork = multiprocessing.get_context("fork")
        queue = fork.Queue()
        with sweep._pool_lock:  # held at the fork, as by a sweep in another thread
            child = fork.Process(target=_pool_state, args=(queue,))
            child.start()
        assert queue.get(timeout=60) == (True, True)
        child.join(timeout=60)
        assert child.exitcode == 0

    def test_a_child_process_that_sweeps_exits(self, small_sweep):
        # multiprocessing joins a child's children before concurrent.futures'
        # exit hook would run, so idle workers would keep it from exiting
        serial = run_sweep(small_sweep, jobs=1)
        sweep._close_pool()
        fork = multiprocessing.get_context("fork")
        queue = fork.Queue()
        child = fork.Process(target=_sweep_in_child, args=(small_sweep, queue))
        child.start()
        workers = []
        try:
            points, workers = queue.get(timeout=60)
            child.join(timeout=60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                for pid in [*workers, child.pid]:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                child.join(timeout=60)
        assert points == serial.points
        assert len(workers) == 2
        assert all(_is_gone(pid, timeout=0.0) for pid in workers)

    def test_the_exit_hook_runs_before_the_queue_feeders_close(self, small_sweep):
        # multiprocessing runs exit hooks from the highest priority down; the
        # pool's shutdown still writes to its call queue
        from multiprocessing import queues, util

        run_sweep(small_sweep, jobs=2)
        feeders = [key[0] for key, hook in list(util._finalizer_registry.items())
                   if hook._callback == queues.Queue._finalize_close]
        assert feeders
        assert sweep._pool[2]._key[0] > max(feeders)

    @pytest.mark.parametrize("parameter, lo, hi, failures",
                             [("d_I", 0.5, 2.0, 0), ("a", -3.0, 1.5, 2)],
                             ids=["run_field", "failing_point"])
    def test_parallel_equals_serial_twice_on_one_pool(self, parameter, lo, hi, failures):
        base = preset_config("sim1c", nx=41, T=1.0, dt=2e-3)
        cfg = SweepConfig(base, parameter, lo, hi, 4, "I_mass_at_T")
        serial = run_sweep(cfg, jobs=1)
        assert sum(p.error is not None for p in serial.points) == failures
        for _ in range(2):
            parallel = run_sweep(cfg, jobs=2)
            assert parallel.points == serial.points  # bitwise: floats compare exactly
            assert parallel.knee == serial.knee

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_an_error(self, small_sweep, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_sweep(small_sweep, jobs=jobs)


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
