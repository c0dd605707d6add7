"""Parameter sweep driver: one simulation per parameter value (points that
share the model's matrices run as the rows of one batch, any other point as
a batch of one), a sorted table of observables, and knee detection by the
largest second difference."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import models
from .config import OBSERVABLES, SweepConfig


class SweepPoint(NamedTuple):
    parameter: float
    value: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    observable: str
    parameter: str
    points: list[SweepPoint]
    knee: float | None


def _evaluate_point(payload) -> list[SweepPoint]:
    """The points of a chunk of the sweep.

    A chunk is points that differ only in an expression constant, or one
    point of a run-field sweep, and runs as one ``run_batch``.  If building
    or running a chunk of several points raises, its points rerun as
    chunks of one, so a failing point records its own error and the others
    still succeed; an observable that raises fails its own point only.
    """
    sweep_cfg, values = payload
    observable = OBSERVABLES[sweep_cfg.observable]
    chunks, points = [values], []
    while chunks:
        chunk = chunks.pop(0)
        try:
            cfgs = [sweep_cfg.point(value) for value in chunk]
            specs, _, S0s, I0s = zip(*(cfg.build() for cfg in cfgs))
            trajs = models.run_batch(list(specs), list(S0s), list(I0s),
                                     **cfgs[0].run_kwargs())
        except Exception as exc:  # per-point failures recorded, sweep continues
            if len(chunk) > 1:
                chunks += [[value] for value in chunk]
            else:
                points.append(SweepPoint(chunk[0], None, f"{type(exc).__name__}: {exc}"))
            continue
        for value, traj in zip(chunk, trajs):
            try:
                points.append(SweepPoint(value, observable(traj)))
            except Exception as exc:  # fails this point alone
                points.append(SweepPoint(value, None, f"{type(exc).__name__}: {exc}"))
    return points


# The process's sweep worker pool as (workers, executor, exit hook): made by
# the first parallel sweep and kept for later ones.  The lock makes each
# sweep's check-then-replace atomic.
_pool = None
_pool_lock = threading.Lock()
# Pools a forked child inherited, kept uncollected: collecting one takes a
# lock and writes to a pipe that belong to the parent's threads.
_inherited = []


def _forget_pool() -> None:
    """In a forked child: leave the parent's pool, whose manager thread did
    not survive the fork, and the lock, which the fork may have left held."""
    global _pool, _pool_lock
    if _pool is not None:
        _inherited.append(_pool)
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _close_pool() -> None:
    """Shut the pool down, wait for its workers, and drop it.

    Each pool also registers this as its exit hook, which multiprocessing
    runs at exit before it joins the process's children: a process started
    by multiprocessing skips concurrent.futures' own exit hook, and would
    wait forever on idle workers.  The hook also drops the executor while
    the modules it calls back into still exist; left to interpreter
    teardown, its collection can print an ignored AttributeError.
    """
    global _pool
    if _pool is not None:
        _, executor, exit_hook = _pool
        _pool = None
        executor.shutdown()
        exit_hook.cancel()


def _map_on_pool(workers: int, payloads) -> list[list[SweepPoint]]:
    """``_evaluate_point`` of each payload on the pool of ``workers`` processes.

    A pool of another size is shut down, and waited for, before this one
    starts.  A pool that breaks (a worker died) is dropped and the chunks
    run once more on a fresh one: they are pure, so the rerun is safe.  A
    second break drops that pool too and raises ``BrokenProcessPool``.
    """
    global _pool
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing.util import Finalize

    with _pool_lock:
        for last_try in (False, True):
            if _pool is not None and _pool[0] != workers:
                _close_pool()
            if _pool is None:
                # before the exit hooks that close multiprocessing's queue
                # feeders, which the shutdown still needs: CPython's
                # Lib/multiprocessing/queues.py registers them in
                # Queue._start_thread at exitpriority=10 (checked by
                # test_the_exit_hook_runs_before_the_queue_feeders_close)
                _pool = (workers, ProcessPoolExecutor(max_workers=workers),
                         Finalize(None, _close_pool, exitpriority=15))
            try:
                return list(_pool[1].map(_evaluate_point, payloads))
            except BrokenProcessPool:
                _close_pool()
                if last_try:
                    raise


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run the sweep, optionally across processes; the table stays sorted.

    A sweep over an expression constant goes in at most ``jobs`` contiguous
    chunks, each one batch; any other sweep runs one point per task.  With
    ``jobs > 1`` the chunks run on ``min(jobs, chunks)`` worker processes of
    one pool per process: the first parallel sweep starts it, later sweeps
    that need as many workers reuse it, one that needs another count
    replaces it, and the workers end when the process exits (a forked child
    starts a pool of its own).  A sweep whose pool breaks (a worker died)
    reruns its chunks once on a fresh pool, then raises
    ``BrokenProcessPool``.  A change to module state after the pool started
    (a monkeypatch, an edit of ``config.OBSERVABLES``) does not reach the
    workers: under the ``fork`` start method (Linux's default before Python
    3.14) they run a copy of the state of that moment, under ``spawn`` or
    ``forkserver`` a fresh import.  Idle workers hold their memory until
    the process exits.  ``jobs`` below 1 raises ``ValueError``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    values = [float(v) for v in cfg.values()]
    size = math.ceil(len(values) / jobs) if cfg.varies_params else 1
    payloads = [(cfg, values[i:i + size]) for i in range(0, len(values), size)]
    if jobs > 1:
        chunks = _map_on_pool(min(jobs, len(payloads)), payloads)
    else:
        chunks = [_evaluate_point(p) for p in payloads]
    points = sorted((p for chunk in chunks for p in chunk), key=lambda p: p.parameter)
    knee = detect_knee([(p.parameter, p.value) for p in points])
    return SweepResult(cfg.observable, cfg.parameter, points, knee)


def detect_knee(pairs) -> float | None:
    """Parameter value with the largest curvature (second difference).

    Returns None for fewer than three usable points or an essentially
    constant observable.
    """
    usable = [(p, v) for p, v in pairs if v is not None and math.isfinite(v)]
    if len(usable) < 3:
        return None
    params = np.array([p for p, _ in usable])
    vals = np.array([v for _, v in usable])
    if vals.max() - vals.min() <= 1e-12 * max(1.0, abs(vals).max()):
        return None
    second = np.abs(vals[2:] - 2.0 * vals[1:-1] + vals[:-2])
    return float(params[1 + int(np.argmax(second))])
