"""Parameter sweep driver: one simulation per parameter value (points that
share the model's matrices run as the rows of one batch, any other point as
a batch of one), a sorted table of observables, and knee detection by the
largest second difference."""

from __future__ import annotations

import math
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


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run the sweep, optionally across processes; the table stays sorted.

    A sweep over an expression constant goes in at most ``jobs`` contiguous
    chunks, each one batch; any other sweep runs one point per task.
    """
    values = [float(v) for v in cfg.values()]
    size = math.ceil(len(values) / max(jobs, 1)) if cfg.varies_params else 1
    payloads = [(cfg, values[i:i + size]) for i in range(0, len(values), size)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            chunks = list(pool.map(_evaluate_point, payloads))
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
