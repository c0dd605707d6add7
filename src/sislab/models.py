"""Time integration of the SIS reaction-diffusion systems.

Scheme: Strang splitting.  Each step runs a half reaction step, a full
Crank-Nicolson diffusion step for every component with a positive dispersal
rate, then another half reaction step.

The mass-action reaction pair is a nodewise logistic system and is advanced
by its exact flow, which keeps the locked component positive without any
clipping and accumulates the per-node exposure integral J = int I dt in the
same closed form that drives the update.  Standard-incidence reaction steps
use a Heun update on the infected increment; the susceptible node takes the
negated increment, so the reaction transfer is antisymmetric in floating
point and total mass is conserved exactly by construction.

Runs that share the grid, variant and dispersal rates share the
Crank-Nicolson matrices; ``run_batch`` advances them as the rows of one
state, and ``run`` is its one-run case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import diagnostics as diag_mod
from .mesh import Field, Grid, incidence_quotient, quadrature
# The tridiagonal solve is bound as `solve_shifted`, the name the
# Crank-Nicolson solve is traced under (bench/tracing.py).
from .operators import TridiagonalMatrix, neumann_laplacian, solve_tridiagonal as solve_shifted


# consecutive slow snapshots that declare a run steady
STEADY_WINDOW = 10


class Variant(enum.Enum):
    """The nondegenerate system plus the four lockdown variants.

    The degenerate variants carry their incidence mechanism in the name;
    FULL (both compartments dispersing) uses mass-action incidence and
    exists mainly as the nondegenerate reference.
    """

    FULL = "full"
    MASS_ACTION_DS0 = "mass_action_ds0"
    MASS_ACTION_DI0 = "mass_action_di0"
    STD_INCIDENCE_DS0 = "std_incidence_ds0"
    STD_INCIDENCE_DI0 = "std_incidence_di0"

    @property
    def mass_action(self) -> bool:
        return self in (Variant.MASS_ACTION_DS0, Variant.MASS_ACTION_DI0)

    @property
    def std_incidence(self) -> bool:
        return self in (Variant.STD_INCIDENCE_DS0, Variant.STD_INCIDENCE_DI0)

    @property
    def locks_s(self) -> bool:
        return self in (Variant.MASS_ACTION_DS0, Variant.STD_INCIDENCE_DS0)

    @property
    def locks_i(self) -> bool:
        return self in (Variant.MASS_ACTION_DI0, Variant.STD_INCIDENCE_DI0)

    @staticmethod
    def parse(name: str) -> "Variant":
        key = name.strip().lower()
        for v in Variant:
            if v.value == key:
                return v
        raise ValueError(f"unknown model variant {name!r}; expected one of "
                         + ", ".join(v.value for v in Variant))


class StepSizeError(ValueError):
    def __init__(self, dt: float, dt_max: float, t: float):
        super().__init__(
            f"dt={dt:g} exceeds the positivity-stability bound {dt_max:g} at t={t:g}"
        )
        self.dt = dt
        self.dt_max = dt_max


class MassConservationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """Which system is being solved, with its coefficients and dispersal rates."""

    variant: Variant
    beta: Field
    gamma: Field
    d_S: float
    d_I: float
    eps_reg: float = 1e-12

    def __post_init__(self):
        if self.beta.grid.nx != self.gamma.grid.nx:
            raise ValueError("beta and gamma live on different grids")
        if self.beta.min() <= 0 or self.gamma.min() <= 0:
            raise ValueError("transmission and recovery rates must be positive everywhere")
        v = self.variant
        if v.locks_s and not (self.d_S == 0.0 and self.d_I > 0):
            raise ValueError(f"{v.value} requires d_S = 0 and d_I > 0")
        if v.locks_i and not (self.d_I == 0.0 and self.d_S > 0):
            raise ValueError(f"{v.value} requires d_I = 0 and d_S > 0")
        if v is Variant.FULL and (self.d_S <= 0 or self.d_I <= 0):
            raise ValueError("the nondegenerate system needs both dispersal rates positive")

    @property
    def grid(self) -> Grid:
        return self.beta.grid

    def risk_ratio(self) -> Field:
        """gamma/beta, the local recovery-to-transmission ratio."""
        return Field(self.grid, np.asarray(self.gamma.values) / np.asarray(self.beta.values))


@dataclass(frozen=True)
class State:
    t: float
    S: Field
    I: Field
    J: Field | None  # accumulated nodewise exposure int_0^t I dt; None if unknown

    def total_mass(self) -> float:
        return float(self.S.grid.weights @ (np.asarray(self.S.values)
                                            + np.asarray(self.I.values)))


@dataclass
class Trajectory:
    spec: ModelSpec
    snapshots: list[State]
    diagnostics: list["diag_mod.DiagnosticsRecord"]
    N: float
    steady_detected: bool = False
    warnings: list[str] = dataclass_field(default_factory=list)

    @property
    def final(self) -> State:
        return self.snapshots[-1]

    def trailing(self, fraction: float = 0.5) -> list[State]:
        k = max(1, int(len(self.snapshots) * fraction))
        return self.snapshots[-k:]


def _rows(fields: list[Field]) -> np.ndarray:
    """The fields' values: one (nx,) array when every row shares them, else
    the (K, nx) stack."""
    first = np.asarray(fields[0].values)
    if all(np.array_equal(f.values, first) for f in fields[1:]):
        return first
    return np.stack([f.values for f in fields])


class _Kernel:
    """Precomputed arrays and substeps for one step size.

    ``spec`` is one ModelSpec, whose state is a pair of (nx,) arrays, or a
    list of K specs, whose states are the rows of (K, nx) arrays.  The specs
    of a list share the grid, variant, dispersal rates and ``eps_reg``, so
    they share the Crank-Nicolson matrices; their coefficients stay (nx,)
    when equal and are (K, nx) otherwise.  Every substep is nodewise or acts
    along the last axis, so each row advances exactly as it would alone.
    """

    def __init__(self, spec: ModelSpec | list[ModelSpec], dt: float):
        batch = isinstance(spec, list)
        specs = spec if batch else [spec]
        self.spec = specs[0]
        self.grid = self.spec.grid
        self.dt = dt
        self.beta = _rows([s.beta for s in specs])
        self.gamma = _rows([s.gamma for s in specs])
        self.r = self.gamma / self.beta
        self.L = neumann_laplacian(self.grid)
        # mass moved by positivity clipping, per row of a list's state
        self.clipped_mass = np.zeros(len(specs)) if batch else 0.0
        self.reaction_half = (self._std_incidence_heun if self.spec.variant.std_incidence
                              else self._mass_action_flow)
        self._diffuse_S = self._crank_nicolson(self.spec.d_S)
        self._diffuse_I = self._crank_nicolson(self.spec.d_I)

    def dt_max(self, S: np.ndarray, I: np.ndarray) -> float:
        """The step-size bound of the row that binds hardest."""
        return 0.5 / float((self.beta * (S + I) + self.gamma).max())

    def keep_rows(self, keep: list[int]) -> None:
        """Restrict a list's kernel to the rows ``keep`` of its state."""
        for name in ("beta", "gamma", "r"):
            values = getattr(self, name)
            if values.ndim == 2:
                setattr(self, name, values[keep])
        self.clipped_mass = self.clipped_mass[keep]

    # -- reaction ----------------------------------------------------------

    def _mass_action_flow(self, S, I, J, tau):
        # Exact nodewise solution of S' = -beta*(S-r)*I, I' = -S'.
        # With C = S+I and D = C-r, u = S-r obeys a logistic equation whose
        # closed form also yields the exposure increment int I dt.
        C = S + I
        D = C - self.r
        u0 = S - self.r
        E = np.expm1(self.beta * tau * D)
        denom = D + I * E
        degenerate = (D == 0.0) | (denom == 0.0)
        if degenerate.any():
            D_safe = np.where(degenerate, 1.0, D)
            denom_safe = np.where(degenerate, 1.0, denom)
            lin = 1.0 + self.beta * I * tau
            u_new = np.where(degenerate, u0 / lin, D * u0 / denom_safe)
            dJ = np.where(degenerate,
                          np.log1p(self.beta * I * tau) / self.beta,
                          np.log1p(I * E / D_safe) / self.beta)
        else:
            u_new = D * u0 / denom
            dJ = np.log1p(I * E / D) / self.beta
        S_new = self.r + u_new
        I_new = C - S_new
        return S_new, I_new, J + dJ

    def _std_incidence_heun(self, S, I, J, tau):
        k1 = self._std_rate(S, I)
        S_mid = np.maximum(S - tau * k1, 0.0)
        I_mid = np.maximum(I + tau * k1, 0.0)
        k2 = self._std_rate(S_mid, I_mid)
        dI = 0.5 * tau * (k1 + k2)
        I_new = I + dI
        S_new = S - dI
        neg_i = I_new < 0.0
        neg_s = S_new < 0.0
        if neg_i.any() or neg_s.any():
            tot = S + I
            moved = np.where(neg_i, -I_new, 0.0) + np.where(neg_s, -S_new, 0.0)
            if moved.ndim == 1:
                self.clipped_mass += quadrature(self.grid, moved)
            else:  # row by row, so each row sums as it would alone
                self.clipped_mass += [quadrature(self.grid, row) for row in moved]
            S_new = np.where(neg_i, tot, np.where(neg_s, 0.0, S_new))
            I_new = np.where(neg_i, 0.0, np.where(neg_s, tot, I_new))
        dJ = 0.5 * tau * (I + I_new)
        return S_new, I_new, J + dJ

    def _std_rate(self, S, I):
        return incidence_quotient(self.beta * S * I, S, I, self.spec.eps_reg) - self.gamma * I

    # -- diffusion ---------------------------------------------------------

    def diffuse(self, S, I):
        return self._diffuse_S(S), self._diffuse_I(I)

    def _crank_nicolson(self, d):
        """One CN step at dispersal rate d, or the identity when d = 0."""
        if d <= 0:
            return lambda u: u
        # Incremental form of the trapezoidal step: (Id - cL) delta = 2cL u.
        # Solving for the update keeps the quadrature-mass roundoff
        # proportional to |delta| instead of |u|, which is what lets runs of
        # hundreds of thousands of steps hold mass to ~1e-12 relative.
        # Id - cL is the same at every step, so it is factored once here.
        L = self.L
        c = 0.5 * d * self.dt
        lu = TridiagonalMatrix(-c * L.lower, 1.0 - c * L.diag, -c * L.upper).factor()
        # The rows of a (K, nx) state are the K columns of one dgttrs call.
        return lambda u: u + solve_shifted(lu, ((2.0 * c) * L.matvec(u)).T).T

    # -- one full step -----------------------------------------------------

    def strang_step(self, S, I, J, t):
        dt = self.dt
        bound = self.dt_max(S, I)
        if dt > bound:
            raise StepSizeError(dt, bound, t)
        S, I, J = self.reaction_half(S, I, J, 0.5 * dt)
        S, I = self.diffuse(S, I)
        S, I, J = self.reaction_half(S, I, J, 0.5 * dt)
        return S, I, J


def step(spec: ModelSpec, state: State, dt: float) -> State:
    """Advance one Strang step; rejects dt above the stability bound.

    A state without an exposure field (``J is None``) stays without one.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = spec.grid
    kernel = _Kernel(spec, dt)
    J0 = np.zeros(grid.nx) if state.J is None else np.array(state.J.values)
    S, I, J = kernel.strang_step(np.array(state.S.values), np.array(state.I.values),
                                 J0, state.t)
    return State(state.t + dt, Field(grid, S), Field(grid, I),
                 None if state.J is None else Field(grid, J))


def run(spec: ModelSpec, S0: Field, I0: Field, dt: float, T: float,
        snapshot_every: float = 0.5, steady_tol: float = 1e-7) -> Trajectory:
    """Integrate to time T or until the state stops changing.

    Snapshots (with diagnostics) are recorded every ``snapshot_every`` time
    units; steadiness is declared when the per-unit-time sup-norm change
    rate stays below ``steady_tol`` over ``STEADY_WINDOW`` consecutive
    snapshots.
    """
    return run_batch([spec], [S0], [I0], dt, T, snapshot_every, steady_tol)[0]


class _Recorder:
    """One run's snapshots, diagnostics, warnings and steady stop."""

    def __init__(self, spec: ModelSpec, S0: Field, I0: Field):
        grid = spec.grid
        self.spec = spec
        self.context = diag_mod.DiagnosticsContext(spec, I0)
        S, I = np.asarray(S0.values), np.asarray(I0.values)
        self.N = quadrature(grid, S + I)
        self.snapshots = [State(0.0, Field(grid, S), Field(grid, I),
                                Field.constant(grid, 0.0))]
        self.records = [self.context.record(self.snapshots[0], math.inf)]
        self.rates: list[float] = []
        self.warnings: list[str] = []
        self.clipped = 0.0
        self.steady = False

    def snapshot(self, t: float, S, I, J, clipped: float, dt_snap: float,
                 steady_tol: float) -> bool:
        """Check and record the state at time t; True once the run is steady."""
        grid = self.spec.grid
        mass = quadrature(grid, S + I)
        if abs(mass - self.N) > 1e-8 * self.N:
            raise MassConservationError(
                f"total mass drifted to {mass!r} (started at {self.N!r}) by t={t:g}"
            )
        clip_new = clipped - self.clipped
        if clip_new > 1e-8 * self.N:
            self.warnings.append(f"positivity clipping moved {clip_new:.3e} mass near t={t:g}")
        self.clipped = clipped
        prev = self.snapshots[-1]
        rate = max(np.abs(S - prev.S.values).max(), np.abs(I - prev.I.values).max()) / dt_snap
        state = State(t, Field(grid, S), Field(grid, I), Field(grid, J))
        self.snapshots.append(state)
        self.records.append(self.context.record(state, rate))
        self.rates.append(rate)
        self.steady = len(self.rates) >= STEADY_WINDOW and all(
            r < steady_tol for r in self.rates[-STEADY_WINDOW:])
        return self.steady

    def trajectory(self, T: float) -> Trajectory:
        if not self.steady:
            self.warnings.append(f"steady detection did not trigger by T={T:g}")
        return Trajectory(spec=self.spec, snapshots=self.snapshots, diagnostics=self.records,
                          N=self.N, steady_detected=self.steady, warnings=self.warnings)


def run_batch(specs: list[ModelSpec], S0s: list[Field], I0s: list[Field], dt: float,
              T: float, snapshot_every: float = 0.5,
              steady_tol: float = 1e-7) -> list[Trajectory]:
    """``run`` for K models that share one Crank-Nicolson matrix, advanced as
    the rows of one (K, nx) state; one model runs on (nx,) arrays.

    The specs must share the grid, variant, dispersal rates and ``eps_reg``;
    coefficients and initial data may differ.  Every row keeps its own
    snapshots, diagnostics, warnings and steady stop, and equals its own
    ``run`` bit for bit.  A row that goes steady leaves the state.  Any
    row's error is raised for the whole batch.
    """
    def shared(s: ModelSpec) -> tuple:
        return s.grid.a, s.grid.b, s.grid.nx, s.variant, s.d_S, s.d_I, s.eps_reg

    spec = specs[0]
    if any(shared(row_spec) != shared(spec) for row_spec in specs[1:]):
        raise ValueError("batched specs must share the grid, variant, dispersal rates "
                         "and eps_reg")
    for row_spec, S0, I0 in zip(specs, S0s, I0s):
        if S0.grid.nx != row_spec.grid.nx or I0.grid.nx != row_spec.grid.nx:
            raise ValueError("initial data must live on the model grid")
        if S0.min() < 0 or I0.min() < 0:
            raise ValueError("initial densities must be nonnegative")
        if not (np.asarray(I0.values) > 0).any():
            raise ValueError("initial infected density is identically zero")
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")

    if len(specs) == 1:
        kernel = _Kernel(spec, dt)
        S, I = np.array(S0s[0].values), np.array(I0s[0].values)
    else:
        kernel = _Kernel(list(specs), dt)
        S, I = np.stack([f.values for f in S0s]), np.stack([f.values for f in I0s])
    J = np.zeros_like(S)
    recorders = [_Recorder(*row) for row in zip(specs, S0s, I0s)]
    active = list(recorders)

    steps_per_snap = max(1, round(snapshot_every / dt))
    dt_snap = steps_per_snap * dt
    n_steps = round(T / dt)

    k = 0
    while k < n_steps:
        t = k * dt
        S, I, J = kernel.strang_step(S, I, J, t)
        k += 1
        if k % steps_per_snap == 0 or k == n_steps:
            steady = [rec.snapshot(k * dt, *row, dt_snap, steady_tol) for rec, *row in zip(
                active, np.atleast_2d(S), np.atleast_2d(I), np.atleast_2d(J),
                np.atleast_1d(kernel.clipped_mass))]
            if any(steady):
                keep = [i for i, done in enumerate(steady) if not done]
                if not keep:
                    break
                active = [active[i] for i in keep]
                S, I, J = S[keep], I[keep], J[keep]
                kernel.keep_rows(keep)

    return [rec.trajectory(T) for rec in recorders]
