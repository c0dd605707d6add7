"""Run configuration: flat key=value files, built-in scenario presets, and
construction of model objects from expressions."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .mesh import Field, Grid, build_grid, eval_expression, quadrature
from .models import ModelSpec, Variant

# Scenario presets.  All share the unit interval, S0 = 2 + cos(pi x) and
# I0 = 1.5 + cos(pi x) (total population 3.5); sim1c swaps in a movable
# infected amplitude `a` for bifurcation sweeps.  Two presets override the
# default horizon/step: sim2c concentrates onto near-single-node spikes,
# whose accuracy (not any stability bound) needs the smaller step, and sim4a
# approaches its limit only algebraically, which needs a longer horizon.
_COMMON = {
    "S0_expr": "2 + cos(pi*x)",
    "I0_expr": "1.5 + cos(pi*x)",
}


def _preset(model: str, beta: str, gamma: str, **extra: str) -> dict[str, str]:
    """A lockdown preset on the common initial data: the compartment its
    variant locks has dispersal rate 0, the other 1."""
    locks_s = Variant(model).locks_s
    return {**_COMMON, "model": model, "beta_expr": beta, "gamma_expr": gamma,
            "d_S": "0" if locks_s else "1", "d_I": "1" if locks_s else "0", **extra}


PRESETS: dict[str, dict[str, str]] = {
    "sim1a": _preset("mass_action_ds0", "0.5", "4 - pi*sin(pi*x)"),
    # settles slowly and smoothly, so error-controlled steps (README)
    "sim1b": _preset("mass_action_ds0", "2", "4 - pi*sin(pi*x)", dt_tol="3e-7"),
    # nonconstant transmission with sign-changing S0 - gamma/beta, so no
    # closed-form threshold applies (int gamma/beta ~ 2.82); the clamp keeps
    # the movable initial datum nonnegative at small a
    "sim1c": _preset("mass_action_ds0", "0.5*(1 + x)", "4 - pi*sin(pi*x)",
                     I0_expr="max(a + cos(pi*x), 0)", T="40", **{"param.a": "1.5"}),
    "sim2a": _preset("mass_action_di0", "0.2", "4 - pi*sin(pi*x)"),
    "sim2b": _preset("mass_action_di0", "1", "4 - pi*sin(pi*x)"),
    "sim2c": _preset("mass_action_di0", "2", "14 - 4*pi*sin(4*pi*x)", T="60", dt="5e-4"),
    "sim3a": _preset("std_incidence_ds0", "1 + sin(pi*x)", "1.5"),
    "sim3b": _preset("std_incidence_ds0", "2.5 + sin(pi*x)", "1.5 + sin(pi*x)"),
    "sim3c": _preset("std_incidence_ds0", "2 - sin(pi*x)", "1"),
    "sim4a": _preset("std_incidence_di0", "2 - abs(x - 0.5)^0.5", "1.5", T="1000", dt="5e-3"),
    "sim4b": _preset("std_incidence_di0", "2 - sin(pi*x)", "1.5"),
}


def _last_concentration_fraction(traj) -> float:
    # a sweep asks this of mass_action_di0 runs alone, whose record at t = 0
    # always holds a fraction
    return [r.concentration_fraction for r in traj.diagnostics
            if r.concentration_fraction is not None][-1]


# What a sweep may record of each point: the reader of its finished Trajectory.
OBSERVABLES = {
    "I_mass_at_T": lambda traj: quadrature(traj.spec.grid, traj.final.I.values),
    "final_sup_I": lambda traj: float(traj.final.I.values.max()),
    "concentration_fraction": _last_concentration_fraction,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: str
    beta_expr: str
    gamma_expr: str
    S0_expr: str
    I0_expr: str
    d_S: float
    d_I: float
    nx: int = 201
    x_min: float = 0.0
    x_max: float = 1.0
    dt: float = 1e-3
    T: float = 200.0
    snapshot_every: float = 0.5
    steady_tol: float = 1e-7
    dt_tol: float | None = None
    output_dir: str = "."
    preset: str | None = None
    params: dict = field(default_factory=dict)

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def build(self) -> tuple[ModelSpec, Grid, Field, Field]:
        grid = build_grid(self.x_min, self.x_max, self.nx)
        beta = eval_expression(grid, self.beta_expr, self.params)
        gamma = eval_expression(grid, self.gamma_expr, self.params)
        S0 = eval_expression(grid, self.S0_expr, self.params)
        I0 = eval_expression(grid, self.I0_expr, self.params)
        spec = ModelSpec(Variant.parse(self.model), beta, gamma,
                         d_S=self.d_S, d_I=self.d_I)
        return spec, grid, S0, I0

    def run_kwargs(self) -> dict:
        return {
            "dt": self.dt,
            "T": self.T,
            "snapshot_every": self.snapshot_every,
            "steady_tol": self.steady_tol,
            "dt_tol": self.dt_tol,
        }


# Numeric run fields a sweep may vary; any other sweep parameter must name an
# expression constant of the base run (a `param.<name>` key).
_SWEEPABLE_FIELDS = ("d_S", "d_I", "dt", "T", "snapshot_every", "steady_tol")


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    parameter: str
    lo: float
    hi: float
    count: int
    observable: str

    def __post_init__(self):
        # every point runs the base model, so a model no run accepts, or one
        # that does not record the observable, fails before any point runs
        try:
            variant = Variant.parse(self.base.model)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"unknown observable {self.observable!r}; "
                              f"choose from {', '.join(OBSERVABLES)}")
        if self.observable == "concentration_fraction" and not variant.records_concentration:
            recording = ", ".join(v.value for v in Variant if v.records_concentration)
            raise ConfigError(f"{variant.value} records no concentration fraction; "
                              f"only {recording} does")
        if not self.lo < self.hi:
            raise ConfigError("sweep range needs lo < hi")
        if self.count < 2:
            raise ConfigError("sweep needs at least 2 points")
        if self.parameter not in _SWEEPABLE_FIELDS and self.parameter not in self.base.params:
            allowed = [*_SWEEPABLE_FIELDS, *sorted(self.base.params)]
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}; "
                              f"choose from {', '.join(allowed)}")

    @property
    def varies_params(self) -> bool:
        """Whether the points differ only in an expression constant, so that
        they share the grid, the variant and the Crank-Nicolson matrices."""
        return self.parameter not in _SWEEPABLE_FIELDS

    def point(self, value: float) -> RunConfig:
        """The base run with the swept parameter set to ``value``."""
        if not self.varies_params:
            return self.base.with_overrides(**{self.parameter: value})
        return self.base.with_overrides(params={**self.base.params, self.parameter: value})

    def values(self):
        return np.linspace(self.lo, self.hi, self.count)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, tuple[str, int]]:
    """Parse `key = value` lines; returns {key: (value, line_number)}."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


def preset_config(name: str, **overrides) -> RunConfig:
    return load_config(None, {"preset": name}).with_overrides(**overrides)


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a config file (``path=None`` reads none), then apply ``overrides``,
    which win over the file and may name a preset."""
    return config_from_entries(*_read_entries(path, overrides))


def _read_entries(path, overrides: dict[str, str] | None
                  ) -> tuple[dict[str, tuple[str, int]], str]:
    source = "<config>" if path is None else str(path)
    entries = {} if path is None else parse_config_text(Path(path).read_text(), source)
    for key, value in (overrides or {}).items():
        entries[key] = (value, 0)
    return entries, source


def config_from_entries(entries: dict[str, tuple[str, int]],
                        source: str = "<config>") -> RunConfig:
    """Build a RunConfig; keys, value types and defaults are RunConfig's fields."""
    entries = dict(entries)
    preset = entries.pop("preset", (None, 0))[0]
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"{source}: unknown preset {preset!r}; available: "
                              + ", ".join(sorted(PRESETS)))
        entries = {**{k: (v, 0) for k, v in PRESETS[preset].items()}, **entries}
    kwargs: dict = {"preset": preset, "params": {}}
    for key, (value, lineno) in entries.items():
        where = f"{source}:{lineno}" if lineno else source
        if key in _FIELD_PARSERS:
            kwargs[key] = _FIELD_PARSERS[key](value, key, where)
        elif key.startswith("param."):
            kwargs["params"][key[len("param."):]] = _parse_float(value, key, where)
        elif key not in _SWEEP_KEYS:  # sweep keys are read by load_sweep_config
            raise ConfigError(f"{where}: unknown key {key!r}")
    missing = [f.name for f in fields(RunConfig) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)} "
                          f"(or give preset = <name>)")
    return RunConfig(**kwargs)


_SWEEP_KEYS = {"sweep_parameter", "sweep_lo", "sweep_hi", "sweep_count", "sweep_observable"}


def load_sweep_config(path, overrides: dict[str, str] | None = None) -> SweepConfig:
    """``load_config``'s run plus the sweep_* keys, read from the same entries."""
    entries, source = _read_entries(path, overrides)
    base = config_from_entries(entries, source)
    try:
        parameter = entries["sweep_parameter"][0]
        lo = _parse_float(entries["sweep_lo"][0], "sweep_lo", source)
        hi = _parse_float(entries["sweep_hi"][0], "sweep_hi", source)
        count = _parse_int(entries["sweep_count"][0], "sweep_count", source)
    except KeyError as exc:
        raise ConfigError(f"{source}: sweep needs sweep_parameter, sweep_lo, "
                          f"sweep_hi, sweep_count (missing {exc.args[0]})") from None
    observable = entries.get("sweep_observable", ("I_mass_at_T", 0))[0]
    return SweepConfig(base, parameter, lo, hi, count, observable)


def _parse_float(value: str, key: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects a real number, got {value!r}") from None


def _parse_int(value: str, key: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects an integer, got {value!r}") from None


def _parse_tolerance(value: str, key: str, where: str) -> float | None:
    """A positive finite number, or ``none`` for no tolerance."""
    if value.lower() == "none":
        return None
    tol = _parse_float(value, key, where)
    if not 0 < tol < math.inf:
        raise ConfigError(f"{where}: {key} expects a positive finite number or none, "
                          f"got {value!r}")
    return tol


_PARSERS = {str: lambda value, key, where: value, float: _parse_float, int: _parse_int,
            float | None: _parse_tolerance}

# How each settable RunConfig field is read from its string value; `preset`
# and `params` are set through the `preset` key and `param.<name>` keys.
_FIELD_PARSERS = {name: _PARSERS[tp] for name, tp in get_type_hints(RunConfig).items()
                  if tp in _PARSERS}
