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
    reached_final_time: bool = False
    warnings: list[str] = dataclass_field(default_factory=list)

    @property
    def final(self) -> State:
        return self.snapshots[-1]

    def trailing(self, fraction: float = 0.5) -> list[State]:
        k = max(1, int(len(self.snapshots) * fraction))
        return self.snapshots[-k:]


class _Kernel:
    """Precomputed arrays and substeps for one model spec and step size."""

    def __init__(self, spec: ModelSpec, dt: float):
        self.spec = spec
        self.grid = spec.grid
        self.dt = dt
        self.beta = np.asarray(spec.beta.values)
        self.gamma = np.asarray(spec.gamma.values)
        self.r = self.gamma / self.beta
        self.L = neumann_laplacian(self.grid)
        self.clipped_mass = 0.0
        self.reaction_half = (self._std_incidence_heun if spec.variant.std_incidence
                              else self._mass_action_flow)
        self._diffuse_S = self._crank_nicolson(spec.d_S)
        self._diffuse_I = self._crank_nicolson(spec.d_I)

    def dt_max(self, S: np.ndarray, I: np.ndarray) -> float:
        return 0.5 / float((self.beta * (S + I) + self.gamma).max())

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
            self.clipped_mass += quadrature(self.grid, moved)
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
        return lambda u: u + solve_shifted(lu, (2.0 * c) * L.matvec(u))

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
    grid = spec.grid
    if S0.grid.nx != grid.nx or I0.grid.nx != grid.nx:
        raise ValueError("initial data must live on the model grid")
    if S0.min() < 0 or I0.min() < 0:
        raise ValueError("initial densities must be nonnegative")
    if not (np.asarray(I0.values) > 0).any():
        raise ValueError("initial infected density is identically zero")
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")

    kernel = _Kernel(spec, dt)
    context = diag_mod.DiagnosticsContext(spec, I0)

    S = np.array(S0.values)
    I = np.array(I0.values)
    J = np.zeros(grid.nx)
    N = quadrature(grid, S + I)

    steps_per_snap = max(1, round(snapshot_every / dt))
    n_steps = round(T / dt)

    snapshots = [State(0.0, Field(grid, S), Field(grid, I), Field(grid, J))]
    records = [context.record(None, snapshots[0], math.inf)]

    warnings: list[str] = []
    steady = False
    rates: list[float] = []
    prev_S, prev_I = S.copy(), I.copy()
    prev_clip = 0.0

    k = 0
    while k < n_steps:
        t = k * dt
        S, I, J = kernel.strang_step(S, I, J, t)
        k += 1
        if k % steps_per_snap == 0 or k == n_steps:
            t_snap = k * dt
            state = State(t_snap, Field(grid, S), Field(grid, I), Field(grid, J))
            mass = quadrature(grid, S + I)
            if abs(mass - N) > 1e-8 * N:
                raise MassConservationError(
                    f"total mass drifted to {mass!r} (started at {N!r}) by t={t_snap:g}"
                )
            clip_new = kernel.clipped_mass - prev_clip
            if clip_new > 1e-8 * N:
                warnings.append(
                    f"positivity clipping moved {clip_new:.3e} mass near t={t_snap:g}"
                )
            prev_clip = kernel.clipped_mass
            dt_snap = steps_per_snap * dt
            rate = max(np.abs(S - prev_S).max(), np.abs(I - prev_I).max()) / dt_snap
            prev_S, prev_I = S.copy(), I.copy()
            snapshots.append(state)
            records.append(context.record(snapshots[-2], state, rate))
            rates.append(rate)
            if len(rates) >= STEADY_WINDOW and all(
                r < steady_tol for r in rates[-STEADY_WINDOW:]
            ):
                steady = True
                break

    traj = Trajectory(
        spec=spec,
        snapshots=snapshots,
        diagnostics=records,
        N=N,
        steady_detected=steady,
        reached_final_time=not steady,
        warnings=warnings,
    )
    if not steady:
        traj.warnings.append(f"steady detection did not trigger by T={T:g}")
    return traj
