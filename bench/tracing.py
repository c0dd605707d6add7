"""Spans around calls into sislab's public functions, and the per-layer
metrics derived from them.

Wrappers are installed by attribute name on the module (or class) through
which the caller looks the function up, so a span records the call as the
program makes it: ``sislab.models.solve_shifted`` is the Crank-Nicolson solve
the integrator binds, ``sislab.threshold.principal_eigenvalue`` the eigen
solve the optimizer binds.  A target that no longer exists is skipped with a
note; the run goes on and the layer's metrics read zero.

Spans are kept in memory as ``[name, start, end, parent, pass, tags]`` and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children (calls are synchronous, so children
never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from time import perf_counter


def _eigen_tags(fn, args, kwargs, result):
    h = kwargs.get("h", args[1] if len(args) > 1 else None)
    return {"nx": int(h.grid.nx), "iterations": int(result.iterations)}


def _iteration_tags(fn, args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _bytes_tags(fn, args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _run_tags(fn, args, kwargs, result):
    # steps = model time / dt; only meaningful for a fixed numeric dt
    bound = inspect.signature(fn).bind(*args, **kwargs)
    dt = bound.arguments.get("dt")
    if not isinstance(dt, (int, float)) or dt <= 0:
        return {"model_time": float(result.final.t)}
    return {"model_time": float(result.final.t), "steps": round(result.final.t / dt)}


def _sweep_tags(fn, args, kwargs, result):
    return {"points": len(result.points),
            "failed": sum(p.error is not None for p in result.points)}


# (owner module, attribute path, span name, tag function)
TARGETS = (
    ("sislab.config", "RunConfig.build", "config.build", None),
    ("sislab.models", "run", "models.run", _run_tags),
    ("sislab.models", "solve_shifted", "operators.solve_shifted", None),
    ("sislab.spectral", "solve_tridiagonal", "operators.solve_tridiagonal", None),
    ("sislab.spectral", "neumann_laplacian", "operators.neumann_laplacian", None),
    ("sislab.diagnostics", "DiagnosticsContext.record", "diagnostics.record", None),
    ("sislab.output", "emit_csv", "output.emit_csv", _bytes_tags),
    ("sislab.classify", "predict_regime", "classify.predict_regime", None),
    ("sislab.classify", "verify_outcome", "classify.verify_outcome", None),
    ("sislab.spectral", "principal_eigenvalue", "spectral.principal_eigenvalue", _eigen_tags),
    ("sislab.threshold", "principal_eigenvalue", "spectral.principal_eigenvalue", _eigen_tags),
    ("sislab.spectral", "basic_reproduction_number", "spectral.basic_reproduction_number", None),
    ("sislab.threshold", "critical_population", "threshold.critical_population", _iteration_tags),
    ("sislab.classify", "critical_population", "threshold.critical_population", _iteration_tags),
    ("sislab.sweep", "run_sweep", "sweep.run_sweep", _sweep_tags),
    ("sislab.sweep", "_evaluate_point", "sweep.point", None),
)

COLD_EIGEN_NX = (201, 2001, 20001)

# Per-layer metrics, (name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("config.build.calls", "count"),
    ("config.build.s", "s"),
    ("config.build.us_per_call", "us"),
    ("models.run.calls", "count"),
    ("models.run.s", "s"),
    ("models.run.self_s", "s"),
    ("models.steps", "count"),
    ("models.us_per_step", "us"),
    ("operators.solve_shifted.calls", "count"),
    ("operators.solve_shifted.s", "s"),
    ("operators.solve_shifted.us_per_call", "us"),
    ("operators.solve_tridiagonal.calls", "count"),
    ("operators.solve_tridiagonal.s", "s"),
    ("operators.solve_tridiagonal.us_per_call", "us"),
    ("operators.neumann_laplacian.calls", "count"),
    ("diagnostics.record.calls", "count"),
    ("diagnostics.record.s", "s"),
    ("diagnostics.record.us_per_call", "us"),
    ("output.emit_csv.calls", "count"),
    ("output.emit_csv.s", "s"),
    ("output.bytes_written", "bytes"),
    ("classify.predict_regime.calls", "count"),
    ("classify.predict_regime.s", "s"),
    ("classify.verify_outcome.calls", "count"),
    ("classify.verify_outcome.s", "s"),
    ("spectral.principal_eigenvalue.calls", "count"),
    ("spectral.principal_eigenvalue.s", "s"),
    ("spectral.principal_eigenvalue.us_per_call", "us"),
    *((f"spectral.principal_eigenvalue.nx{nx}.us_per_call", "us") for nx in COLD_EIGEN_NX),
    ("spectral.iterations", "count"),
    ("spectral.iterations_per_call", "count"),
    ("spectral.basic_reproduction_number.calls", "count"),
    ("spectral.basic_reproduction_number.s", "s"),
    ("threshold.critical_population.calls", "count"),
    ("threshold.critical_population.s", "s"),
    ("threshold.critical_population.self_s", "s"),
    ("threshold.sigma_evals", "count"),
    ("threshold.iterations", "count"),
    ("threshold.evals_per_iteration", "ratio"),
    ("sweep.run_sweep.calls", "count"),
    ("sweep.run_sweep.s", "s"),
    ("sweep.points", "count"),
    ("sweep.points_failed", "count"),
    ("sweep.parallel_efficiency", "ratio"),
)


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: list[str] = []
        self.absent: list[str] = []
        self.pass_index = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.pass_index, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, tags=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if tags is not None:
                try:
                    span[5] = tags(fn, args, kwargs, result)
                except Exception as exc:  # a changed signature or result type
                    note = f"{name}: counters unavailable ({type(exc).__name__}: {exc})"
                    if note not in tracer.notes:
                        tracer.notes.append(note)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every reachable target for the duration of the block."""
        restore = []
        for module_name, path, name, tags in TARGETS:
            where = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if where not in self.absent:
                    self.absent.append(where)
                    self.notes.append(f"{where} is absent; {name} metrics read 0")
                continue
            setattr(owner, attr, self.wrap(original, name, tags))
            restore.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "tags"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, passes: list[int], jobs: int,
                  untraced_wall_s: float) -> dict[str, list[float]]:
    """Per-pass values of every PER_LAYER metric over the traced passes.

    ``untraced_wall_s`` is the median wall time of the workload's normal
    (untraced, ``jobs``-process) pass; it is the base of the sweep's
    parallel efficiency.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def under(index: int, name: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    per_pass: dict[int, dict[str, float]] = {p: {} for p in passes}

    def add(p: int, key: str, value: float) -> None:
        bucket = per_pass[p]
        bucket[key] = bucket.get(key, 0.0) + value

    for i, (name, start, end, _, p, tags) in enumerate(spans):
        if p not in per_pass:
            continue
        busy = end - start
        add(p, f"{name}.calls", 1)
        add(p, f"{name}.s", busy)
        add(p, f"{name}.self_s", busy - child_time[i])
        tags = tags or {}
        if name == "models.run":
            add(p, "models.steps", tags.get("steps", 0))
        elif name == "output.emit_csv":
            add(p, "output.bytes_written", tags.get("bytes", 0))
        elif name == "spectral.principal_eigenvalue":
            add(p, "spectral.iterations", tags.get("iterations", 0))
            if under(i, "threshold.critical_population"):
                add(p, "threshold.sigma_evals", 1)
            else:
                add(p, f"cold.nx{tags.get('nx')}.calls", 1)
                add(p, f"cold.nx{tags.get('nx')}.s", busy)
        elif name == "threshold.critical_population":
            add(p, "threshold.iterations", tags.get("iterations", 0))
        elif name == "sweep.run_sweep":
            add(p, "sweep.points", tags.get("points", 0))
            add(p, "sweep.points_failed", tags.get("failed", 0))

    def ratio(num: str, den: str, scale: float = 1.0):
        def f(bucket):
            d = bucket.get(den, 0.0)
            return scale * bucket.get(num, 0.0) / d if d else 0.0
        return f

    derived = {
        "config.build.us_per_call": ratio("config.build.s", "config.build.calls", 1e6),
        "models.us_per_step": ratio("models.run.s", "models.steps", 1e6),
        "operators.solve_shifted.us_per_call":
            ratio("operators.solve_shifted.s", "operators.solve_shifted.calls", 1e6),
        "operators.solve_tridiagonal.us_per_call":
            ratio("operators.solve_tridiagonal.s", "operators.solve_tridiagonal.calls", 1e6),
        "diagnostics.record.us_per_call":
            ratio("diagnostics.record.s", "diagnostics.record.calls", 1e6),
        "spectral.principal_eigenvalue.us_per_call":
            ratio("spectral.principal_eigenvalue.s", "spectral.principal_eigenvalue.calls", 1e6),
        "spectral.iterations_per_call":
            ratio("spectral.iterations", "spectral.principal_eigenvalue.calls"),
        "threshold.evals_per_iteration":
            ratio("threshold.sigma_evals", "threshold.iterations"),
    }
    for nx in COLD_EIGEN_NX:
        derived[f"spectral.principal_eigenvalue.nx{nx}.us_per_call"] = \
            ratio(f"cold.nx{nx}.s", f"cold.nx{nx}.calls", 1e6)
    for p, bucket in per_pass.items():
        for key, f in derived.items():
            bucket[key] = f(bucket)
        # the sweep points' busy time is only visible when they run in-process
        busy = bucket.get("sweep.point.s", 0.0)
        base = jobs * untraced_wall_s
        bucket["sweep.parallel_efficiency"] = busy / base if busy and base else 0.0

    return {name: [per_pass[p].get(name, 0.0) for p in passes] for name, _ in PER_LAYER}
