"""The benchmark's workloads: inputs made from a seed, one pass of work
through sislab's public API, and the correctness checks on its results.

Each workload calls sislab through module attributes (``models.run``,
``spectral.principal_eigenvalue``, ...) so that the tracer's wrappers, which
replace those attributes, see every call.

``plan`` lists a pass's calls; the runner makes each call into a ``Task``
record.  ``outcomes`` turns the tasks into named units
(one per run, solve or sweep point) with a digest of everything the unit
produced; the runner compares digests across passes and counts a unit as
failed when it raised, failed its check, or differs from the first pass.
Checks and digests run outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from sislab import classify, config, models, output, spectral, sweep, threshold
from sislab.mesh import Field, build_grid, eval_expression

# Tolerances of the acceptance suite (tests/test_acceptance.py).
MASS_DRIFT_TOL = 3.5e-10     # criterion 7, absolute, on every snapshot
IDENTITY_TOL = 1e-10         # criterion 7, relative to max S0
VERIFY_TOL = 0.01            # verify_outcome tolerance
DENSE_TOL = 1e-8             # criterion 9, dense oracle
BOUND_SLACK = 1e-9           # criterion 10, N* sandwich
FEAS_TOL = 1e-8              # criterion 10, sigma at the optimum

DENSE_MAX_NX = 2001
SMOKE_T = 0.05


@dataclass
class Task:
    name: str
    seconds: float
    value: object = None
    error: str | None = None


def call(name: str, fn, args) -> Task:
    start = perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # a failing task is counted; the pass goes on
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Task(name, perf_counter() - start, value, error)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


@dataclass
class _Case:
    preset: str
    cfg: config.RunConfig
    spec: models.ModelSpec
    S0: object
    I0: object
    own_end: float
    out_dir: Path


class Simulation:
    """``models.run`` on two presets, each followed by
    ``predict_regime`` -> ``verify_outcome`` -> ``emit_csv``.

    The seed sets the phase of a zero-mean bump added to the preset's I0, so
    the total population (3.5) and the predicted regime stay those of the
    preset.  ``horizons`` shortens a preset's T; a run that is cut short
    is not expected to pass ``verify_outcome``.
    """

    EXPECTED_REGIME = {
        "sim1b": "T32_ENDEMIC_UNIFORM",
        "sim2b": "T37_CONCENTRATION",
        "sim3b": "T42_ENDEMIC",
        "sim4b": "T46_PERSISTENCE",
    }

    def __init__(self, name: str, why: str, horizons: dict[str, float | None]):
        self.name = name
        self.why = why
        self.horizons = horizons
        self.jobs = 1

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.cases = []
        for preset, horizon in self.horizons.items():
            cfg = config.preset_config(preset)
            own_end = cfg.T
            cfg = cfg.with_overrides(
                I0_expr=f"{cfg.I0_expr} + 0.05*cos(2*pi*(x - phase))",
                params={**cfg.params, "phase": float(rng.uniform())},
                T=SMOKE_T if smoke else (horizon or cfg.T),
            )
            spec, _, S0, I0 = cfg.build()
            self.cases.append(_Case(preset, cfg, spec, S0, I0, own_end, workdir / preset))

    def sizes(self) -> dict:
        return {c.preset: {"nx": c.cfg.nx, "dt": c.cfg.dt, "T": c.cfg.T,
                           "max_steps": round(c.cfg.T / c.cfg.dt)} for c in self.cases}

    def plan(self, jobs: int) -> list[tuple]:
        return [(c.preset, self._pipeline, (c,)) for c in self.cases]

    @staticmethod
    def _pipeline(c: _Case):
        traj = models.run(c.spec, c.S0, c.I0, **c.cfg.run_kwargs())
        pred = classify.predict_regime(c.spec, c.S0, c.I0)
        report = classify.verify_outcome(traj, pred, tol=VERIFY_TOL)
        files = output.emit_csv(traj, c.out_dir)
        return traj, pred, report, files

    def outcomes(self, tasks: list[Task]) -> list[tuple[str, str | None, str | None]]:
        units = []
        for task in tasks:
            if task.error:
                units.append((task.name, None, task.error))
                continue
            traj, pred, report, files = task.value
            units.append((task.name, _digest(
                *(Path(f).read_bytes() for f in files), pred.regime.name,
                sorted(report.measured_errors.items()), report.passed,
                traj.steady_detected), None))
        return units

    def check(self, tasks: list[Task]) -> dict[str, list[str]]:
        cases = {c.preset: c for c in self.cases}
        failures = {}
        for task in tasks:
            if task.error:
                continue
            c = cases[task.name]
            traj, pred, report, _ = task.value
            bad = []
            drift = max(abs(s.total_mass() - traj.N) for s in traj.snapshots)
            if drift > MASS_DRIFT_TOL:
                bad.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
            if c.spec.variant is models.Variant.MASS_ACTION_DS0:
                r = c.spec.risk_ratio().values
                S0, beta = c.S0.values, c.spec.beta.values
                ident = max(float(np.abs(s.S.values - (r + (S0 - r) * np.exp(-beta * s.J.values))).max())
                            for s in traj.snapshots) / float(S0.max())
                if ident > IDENTITY_TOL:
                    bad.append(f"lockdown identity {ident:.3e} > {IDENTITY_TOL:g}")
            if pred.regime.name != self.EXPECTED_REGIME[c.preset]:
                bad.append(f"predicted {pred.regime.name}, expected {self.EXPECTED_REGIME[c.preset]}")
            reached_end = traj.steady_detected or traj.final.t >= c.own_end
            if reached_end and report.passed is not True:
                bad.append(f"verify_outcome failed at tol {VERIFY_TOL}: {report.measured_errors}")
            if bad:
                failures[task.name] = bad
        return failures

    def pass_metrics(self, tasks: list[Task], wall: float) -> dict[str, float]:
        model_time = sum(t.value[0].final.t for t in tasks if not t.error)
        return {"model_time_per_s": model_time / wall}


class SpectralThreshold:
    """``critical_population`` on sim1c, cold ``principal_eigenvalue`` solves
    at three grid sizes, and ``basic_reproduction_number`` for every preset
    whose infected compartment disperses.

    The seed sets the optimizer's random start and the phases of the cosine
    potentials.  Phases are drawn from [0.38, 0.62], where the potential's
    peak sits well inside the domain and the iteration count does not depend
    on the phase (near 0 or 1 two boundary modes almost tie and the count
    grows several-fold).
    """

    EIGEN_D = 1e-3
    PHASES_PER_NX = 3

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self.jobs = 1

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        nx = 41 if smoke else None
        cfg = config.preset_config("sim1c", **({"nx": nx} if nx else {}))
        spec, _, S0, _ = cfg.build()
        self.threshold_args = (S0, spec.risk_ratio(), spec.beta, spec.d_I,
                               threshold.OptimizerOptions(seed=seed))
        self.eigen_cases = []
        for n in ((201, 2001) if smoke else (201, 2001, 20001)):
            grid = build_grid(0.0, 1.0, n)
            for k in range(self.PHASES_PER_NX):
                phase = 0.38 + 0.24 * float(rng.uniform())
                h = eval_expression(grid, "cos(2*pi*(x - phase))", {"phase": phase})
                self.eigen_cases.append((f"eigen.nx{n}.{k}", h))
        self.r0_cases = []
        for preset in sorted(config.PRESETS):
            cfg = config.preset_config(preset, **({"nx": nx} if nx else {}))
            if cfg.d_I > 0:
                self.r0_cases.append((f"R0.{preset}", cfg.build()[0]))

    def sizes(self) -> dict:
        return {"threshold_nx": self.threshold_args[0].grid.nx,
                "eigen_nx": sorted({h.grid.nx for _, h in self.eigen_cases}),
                "eigen_solves": len(self.eigen_cases), "eigen_d": self.EIGEN_D,
                "r0_solves": len(self.r0_cases)}

    def plan(self, jobs: int) -> list[tuple]:
        return ([("threshold.sim1c", threshold.critical_population, self.threshold_args)]
                + [(name, spectral.principal_eigenvalue, (self.EIGEN_D, h))
                   for name, h in self.eigen_cases]
                + [(name, spectral.basic_reproduction_number, (s.d_I, s.beta, s.gamma))
                   for name, s in self.r0_cases])

    def outcomes(self, tasks: list[Task]) -> list[tuple[str, str | None, str | None]]:
        units = []
        for task in tasks:
            v = task.value
            if task.error:
                digest = None
            elif task.name.startswith("threshold."):
                digest = _digest(v.n_star, v.sigma_at_opt, v.iterations, v.converged,
                                 v.lambda_star.values.tobytes())
            elif task.name.startswith("eigen."):
                digest = _digest(v.sigma, v.iterations, v.residual, v.phi.values.tobytes())
            else:
                digest = _digest(v)
            units.append((task.name, digest, task.error))
        return units

    def check(self, tasks: list[Task]) -> dict[str, list[str]]:
        eigen_h = dict(self.eigen_cases)
        r0_spec = dict(self.r0_cases)
        failures = {}
        for task in tasks:
            if task.error:
                continue
            v, bad = task.value, []
            if task.name.startswith("threshold."):
                if not v.lower_bound - BOUND_SLACK <= v.n_star <= v.upper_bound + BOUND_SLACK:
                    bad.append(f"N*={v.n_star!r} outside [{v.lower_bound!r}, {v.upper_bound!r}]")
                if v.sigma_at_opt > FEAS_TOL:
                    bad.append(f"sigma at optimum {v.sigma_at_opt:.3e} > {FEAS_TOL:g}")
            elif task.name.startswith("eigen."):
                h = eigen_h[task.name]
                if not h.mean() - 1e-12 <= v.sigma <= h.max() + 1e-12:
                    bad.append(f"sigma={v.sigma!r} outside [mean h, max h]")
                if h.grid.nx <= DENSE_MAX_NX:
                    dense = spectral.dense_principal_eigenvalue(self.EIGEN_D, h)[0]
                    if abs(v.sigma - dense) > DENSE_TOL:
                        bad.append(f"sigma={v.sigma!r} vs dense {dense!r}")
            else:
                s = r0_spec[task.name]
                sigma = spectral.principal_eigenvalue(
                    s.d_I, Field(s.grid, s.beta.values - s.gamma.values)).sigma
                if np.sign(v - 1.0) != np.sign(sigma):
                    bad.append(f"R0={v!r} but sigma(d_I, beta - gamma)={sigma!r}")
            if bad:
                failures[task.name] = bad
        return failures

    def pass_metrics(self, tasks: list[Task], wall: float) -> dict[str, float]:
        return {"threshold_s": tasks[0].seconds,
                "eigen_s": sum(t.seconds for t in tasks[1:])}


class KneeSweep:
    """``run_sweep`` over sim1c's amplitude ``a`` with many short runs, one
    process per core.

    The seed shifts the swept window of width 1 inside [0.2, 1.3].
    """

    def __init__(self, name: str, why: str, points: int, horizon: float):
        self.name = name
        self.why = why
        self.points = points
        self.horizon = horizon
        self.jobs = len(os.sched_getaffinity(0))

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        lo = 0.2 + 0.1 * float(np.random.default_rng(seed).uniform())
        base = config.preset_config("sim1c", T=SMOKE_T if smoke else self.horizon)
        self.cfg = config.SweepConfig(base, "a", lo, lo + 1.0,
                                      4 if smoke else self.points, "I_mass_at_T")

    def sizes(self) -> dict:
        b = self.cfg.base
        return {"nx": b.nx, "dt": b.dt, "T": b.T, "steps_per_point": round(b.T / b.dt),
                "points": self.cfg.count, "jobs": self.jobs,
                "a_range": [self.cfg.lo, self.cfg.hi]}

    def plan(self, jobs: int) -> list[tuple]:
        return [("sweep", sweep.run_sweep, (self.cfg, jobs))]

    def outcomes(self, tasks: list[Task]) -> list[tuple[str, str | None, str | None]]:
        task = tasks[0]
        if task.error:
            return [(f"point.{i}", None, task.error) for i in range(self.cfg.count)]
        result = task.value
        units = [(f"point.{i}", _digest(p.parameter, p.value), p.error)
                 for i, p in enumerate(result.points)]
        units.append(("knee", _digest(result.knee), None))
        return units

    def check(self, tasks: list[Task]) -> dict[str, list[str]]:
        task = tasks[0]
        if task.error:
            return {}
        bad = {f"point.{i}": [f"point a={p.parameter!r} failed: {p.error}"]
               for i, p in enumerate(task.value.points) if p.error}
        if len(task.value.points) != self.cfg.count:
            bad["knee"] = [f"{len(task.value.points)} points for {self.cfg.count} values"]
        return bad

    def pass_metrics(self, tasks: list[Task], wall: float) -> dict[str, float]:
        return {"points_per_s": self.cfg.count / wall,
                "model_time_per_s": self.cfg.count * self.cfg.base.T / wall}


WORKLOADS = {
    w.name: w for w in (
        Simulation(
            "sim_mass_action",
            "mass-action runs (sim2b forms a spike, sim1b goes steady): exact logistic flow and the CN solve; "
            "skips the std-incidence Heun path",
            {"sim2b": 2.0, "sim1b": None}),
        Simulation(
            "sim_std_incidence",
            "std-incidence runs (sim3b, sim4b): the Heun reaction on the same CN solve, so a CN change "
            "moves both sim workloads",
            {"sim3b": 2.0, "sim4b": 2.0}),
        SpectralThreshold(
            "spectral_threshold",
            "N* optimizer, cold eigen solves at nx 201 to 20001 and R0: a new tridiagonal matrix per "
            "solve and no models calls"),
        KneeSweep(
            "knee_sweep",
            "many short sim1c runs on one process per core: per-run config build, parsing and dispatch "
            "weigh most; the only sweep-layer workload",
            points=16, horizon=1.0),
    )
}
