"""Time integration of the SIS reaction-diffusion systems.

Scheme: Strang splitting.  Each step runs a half reaction step, a full
Crank-Nicolson diffusion step for every component with a positive dispersal
rate, then another half reaction step.

Both reactions are nodewise logistic systems, since S + I is constant at a
node while only the reaction acts, and each is advanced by its exact flow.
The flows keep both densities nonnegative for every step size, conserve the
node's S + I to roundoff, and accumulate the per-node exposure integral
J = int I dt in the same closed form that drives the update.  Exact flows
compose, R(tau) R(tau) = R(2 tau), so between two snapshots the half
reactions that meet between consecutive steps run as one flow over dt.

Crank-Nicolson is unconditionally stable but not positivity preserving: on
rough data at large d*dt/dx^2 it can overshoot below zero.  That is the one
thing that still bounds dt, and it is checked after every solve.

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
from .mesh import EPS_REG, Field, Grid, common_grid, quadrature
# The factored tridiagonal solve is bound as `solve_shifted`, the name the
# Crank-Nicolson solve is traced under (bench/tracing.py).
from .operators import TridiagonalMatrix, neumann_laplacian, solve_factored as solve_shifted


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
    def std_incidence(self) -> bool:
        return self in (Variant.STD_INCIDENCE_DS0, Variant.STD_INCIDENCE_DI0)

    @property
    def locks_s(self) -> bool:
        return self in (Variant.MASS_ACTION_DS0, Variant.STD_INCIDENCE_DS0)

    @property
    def locks_i(self) -> bool:
        return self in (Variant.MASS_ACTION_DI0, Variant.STD_INCIDENCE_DI0)

    @property
    def records_concentration(self) -> bool:
        """Whether a run records the share of infected mass near the minimum
        of the risk ratio, where this variant's infecteds concentrate."""
        return self is Variant.MASS_ACTION_DI0

    @staticmethod
    def parse(name: str) -> "Variant":
        key = name.strip().lower()
        for v in Variant:
            if v.value == key:
                return v
        raise ValueError(f"unknown model variant {name!r}; expected one of "
                         + ", ".join(v.value for v in Variant))


# A Crank-Nicolson step may leave a density below zero by roundoff; below
# -CN_OVERSHOOT_TOL times the component's maximum it is the scheme's own
# overshoot on data too rough for dt.  Smooth data stay far above it: no
# preset at its own dt leaves a negative value after any solve.
CN_OVERSHOOT_TOL = 1e-10


class StepSizeError(ValueError):
    """A Crank-Nicolson step overshot below zero: dt is too large for how
    rough the data are.  ``partial`` holds the trajectories recorded before
    the failure (empty when raised outside ``run_batch``)."""

    def __init__(self, message: str, partial: list["Trajectory"] | None = None):
        super().__init__(message)
        self.partial = partial or []


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

    def __post_init__(self):
        common_grid(self.beta, self.gamma)
        # a NaN minimum fails the first test
        if not all(0 < f.min() and f.max() < math.inf for f in (self.beta, self.gamma)):
            raise ValueError("transmission and recovery rates must be finite and positive "
                             "everywhere")
        # a locked compartment does not disperse; the other one must
        v = self.variant
        for name, rate, locked in (("d_S", self.d_S, v.locks_s), ("d_I", self.d_I, v.locks_i)):
            if locked and rate != 0.0:
                raise ValueError(f"{v.value} requires {name} = 0, got {rate!r}")
            if not locked and not 0.0 < rate < math.inf:
                raise ValueError(f"{name} must be finite and positive for {v.value}, "
                                 f"got {rate!r}")

    @property
    def grid(self) -> Grid:
        return self.beta.grid

    def risk_ratio(self) -> Field:
        """gamma/beta, the local recovery-to-transmission ratio."""
        return Field(self.grid, self.gamma.values / self.beta.values)


def check_initial_data(spec: ModelSpec, S0: Field, I0: Field) -> None:
    """The one test of the initial data that a run and a regime prediction
    take: on the spec's grid, finite and nonnegative, and I0 not identically
    zero."""
    common_grid(spec.beta, S0, I0)
    # a NaN minimum fails the first test
    if not all(0 <= f.min() and f.max() < math.inf for f in (S0, I0)):
        raise ValueError("initial densities must be finite and nonnegative")
    if not (I0.values > 0).any():
        raise ValueError("initial infected density is identically zero")


@dataclass(frozen=True)
class State:
    t: float
    S: Field
    I: Field
    J: Field | None  # accumulated nodewise exposure int_0^t I dt; None if unknown

    def total_mass(self) -> float:
        return quadrature(self.S.grid, self.S.values + self.I.values)


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

    def trailing(self) -> list[State]:
        """The last half of the snapshots, at least one."""
        return self.snapshots[-max(1, len(self.snapshots) // 2):]


class _Kernel:
    """Precomputed arrays and substeps for one step size.

    The state of K specs is a triple of (K, nx) arrays, one row per spec,
    and beta, gamma and r are (K, nx) stacks of the specs' coefficients.
    The specs share the grid, variant and dispersal rates, so they share the
    Crank-Nicolson matrices.  Every substep is nodewise or acts along the
    last axis, so each row advances exactly as it would alone.
    """

    def __init__(self, specs: list[ModelSpec], dt: float):
        self.spec = specs[0]
        self.grid = self.spec.grid
        self.dt = dt
        self.beta = np.stack([s.beta.values for s in specs])
        self.gamma = np.stack([s.gamma.values for s in specs])
        self.r = self.gamma / self.beta
        self.L = neumann_laplacian(self.grid)
        # the reaction flow over tau, called with tau = dt/2 and tau = dt
        self.reaction_half = (self._std_incidence_flow if self.spec.variant.std_incidence
                              else self._mass_action_flow)
        self._std_factors_by_tau: dict[float, tuple] = {}
        self._diffuse_S = self._crank_nicolson(self.spec.d_S, "S")
        self._diffuse_I = self._crank_nicolson(self.spec.d_I, "I")

    # -- reaction ----------------------------------------------------------

    def _mass_action_flow(self, S, I, J, tau):
        # Exact nodewise solution of S' = -beta*(S-r)*I, I' = -S'.
        # With C = S+I and D = C-r, u = S-r obeys a logistic equation:
        # u(tau) = u/(1 + I*g) with g = expm1(beta*tau*D)/D, whose limit at
        # D = 0 is beta*tau, and int I dt = log1p(I*g)/beta.  Bounding S_new
        # by C, as the exact flow is, keeps I_new >= 0 under roundoff.
        C = S + I
        D = C - self.r
        g = self.beta * np.full_like(D, tau)
        g = np.divide(np.expm1(g * D), D, out=g, where=D != 0.0)
        S_new = np.minimum(self.r + (S - self.r) / (1.0 + I * g), C)
        return S_new, C - S_new, J + np.log1p(I * g) / self.beta

    def _std_incidence_flow(self, S, I, J, tau):
        # Exact nodewise solution of I' = beta*S*I/C - gamma*I, S' = -I'.
        # With C = S+I fixed this is I' = a*I - (beta/C)*I^2, a = beta-gamma:
        # I(tau) = I*e^{a tau}/(1 + x) with x = beta*g*I/C, g = (e^{a tau}-1)/a,
        # and int I dt = (C/beta)*log1p(x).  Where C <= EPS_REG the incidence
        # is exactly 0, so I only recovers: I*e^{-gamma tau}.
        growth, beta_g, decay, recovered = self._std_factors(tau)
        C = S + I
        empty = C <= EPS_REG
        if empty.any():
            C_safe = np.where(empty, 1.0, C)
            x = np.where(empty, 0.0, beta_g * I / C_safe)
            I_new = np.where(empty, decay * I, growth * I / (1.0 + x))
            dJ = np.where(empty, recovered * I, C_safe / self.beta * np.log1p(x))
        else:
            x = beta_g * I / C
            I_new = growth * I / (1.0 + x)
            dJ = C / self.beta * np.log1p(x)
        return C - I_new, I_new, J + dJ

    def _std_factors(self, tau):
        """e^{a tau}, beta*g, e^{-gamma tau} and (1 - e^{-gamma tau})/gamma,
        which depend on tau alone; g = tau where a = 0."""
        factors = self._std_factors_by_tau.get(tau)
        if factors is None:
            a = self.beta - self.gamma
            flat = a == 0.0
            g = np.where(flat, tau, np.expm1(a * tau) / np.where(flat, 1.0, a))
            factors = (np.exp(a * tau), self.beta * g, np.exp(-self.gamma * tau),
                       -np.expm1(-self.gamma * tau) / self.gamma)
            self._std_factors_by_tau[tau] = factors
        return factors

    # -- diffusion ---------------------------------------------------------

    def diffuse(self, S, I):
        return self._diffuse_S(S), self._diffuse_I(I)

    def _crank_nicolson(self, d, name):
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

        def cn_step(u):
            # The K rows of the state are the K columns of one dgttrs call.
            u = u + solve_shifted(lu, ((2.0 * c) * L.matvec(u)).T).T
            # one whole-state reduction per step; the per-row test runs only
            # once some value is negative
            if u.min() < 0.0 and (u.min(axis=-1) < -CN_OVERSHOOT_TOL * u.max(axis=-1)).any():
                raise StepSizeError(
                    f"dt={self.dt:g} is too large for these data: a Crank-Nicolson "
                    f"step drove {name} down to {u.min():.3e}")
            return u

        return cn_step

    # -- steps -------------------------------------------------------------

    def advance(self, S, I, J, steps: int):
        """``steps`` Strang steps.  The two half reactions that meet between
        consecutive steps run as one flow over dt, which for exact flows is
        the same scheme up to roundoff."""
        dt = self.dt
        S, I, J = self.reaction_half(S, I, J, 0.5 * dt)
        for k in range(steps):
            if k:
                S, I, J = self.reaction_half(S, I, J, dt)
            S, I = self.diffuse(S, I)
        return self.reaction_half(S, I, J, 0.5 * dt)


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

    def __init__(self, spec: ModelSpec, S0: Field, I0: Field, warnings: list[str]):
        grid = spec.grid
        self.spec = spec
        self.context = diag_mod.DiagnosticsContext(spec, I0)
        S, I = S0.values, I0.values
        self.N = quadrature(grid, S + I)
        self.snapshots = [State(0.0, Field(grid, S), Field(grid, I), Field(grid, 0.0))]
        self.records = [self.context.record(self.snapshots[0], math.inf)]
        self.warnings = list(warnings)
        self.steady = False

    def snapshot(self, t: float, S, I, J, elapsed: float, steady_tol: float) -> bool:
        """Check and record the state at time t, ``elapsed`` after the last
        snapshot; True once the run is steady."""
        grid = self.spec.grid
        mass = quadrature(grid, S + I)
        if not abs(mass - self.N) <= 1e-8 * self.N:  # a NaN mass fails too
            raise MassConservationError(
                f"total mass drifted to {mass!r} (started at {self.N!r}) by t={t:g}"
            )
        prev = self.snapshots[-1]
        rate = max(np.abs(S - prev.S.values).max(), np.abs(I - prev.I.values).max()) / elapsed
        state = State(t, Field(grid, S), Field(grid, I), Field(grid, J))
        self.snapshots.append(state)
        self.records.append(self.context.record(state, rate))
        # the first record, of the initial state, has no rate
        self.steady = len(self.records) > STEADY_WINDOW and all(
            rec.sup_change_rate < steady_tol for rec in self.records[-STEADY_WINDOW:])
        return self.steady

    def trajectory(self) -> Trajectory:
        if not self.steady:
            # the time reached: T rounded to whole steps, or where a step failed
            self.warnings.append(
                f"steady detection did not trigger by T={self.snapshots[-1].t:g}")
        return Trajectory(spec=self.spec, snapshots=self.snapshots, diagnostics=self.records,
                          N=self.N, steady_detected=self.steady, warnings=self.warnings)


def run_batch(specs: list[ModelSpec], S0s: list[Field], I0s: list[Field], dt: float,
              T: float, snapshot_every: float = 0.5,
              steady_tol: float = 1e-7) -> list[Trajectory]:
    """``run`` for K models that share one Crank-Nicolson matrix, advanced as
    the rows of one (K, nx) state; ``run`` is the case K = 1.

    The specs must share the grid, variant and dispersal rates;
    coefficients and initial data may differ.  Every row keeps its own
    snapshots, diagnostics, warnings and steady stop, and equals its own
    ``run`` bit for bit.  A row that goes steady leaves the state, and the
    rows that remain get a kernel of their own.  Any row's error is raised
    for the whole batch; a StepSizeError carries every row's trajectory up
    to its last snapshot.  ``T`` and ``snapshot_every`` are rounded to whole
    steps of ``dt``, and every trajectory warns when that moves either by
    more than 1e-9 relative.
    """
    def shared(s: ModelSpec) -> tuple:
        return s.grid, s.variant, s.d_S, s.d_I

    spec = specs[0]
    if any(shared(row_spec) != shared(spec) for row_spec in specs[1:]):
        raise ValueError("batched specs must share the grid, variant and dispersal rates")
    for row in zip(specs, S0s, I0s):
        check_initial_data(*row)
    for name, value in (("dt", dt), ("T", T), ("snapshot_every", snapshot_every)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if math.isnan(steady_tol):
        raise ValueError("steady_tol must be a number, got nan")
    n_steps = round(T / dt)
    if n_steps < 1:
        raise ValueError(f"T={T!r} is at most half a step of dt={dt!r}, so the run "
                         f"would take no step")

    steps_per_snap = max(1, round(snapshot_every / dt))
    rounding = [f"{name}={value:g} is not a whole number of steps of dt={dt:g}; "
                f"the run used {name}={used:g}"
                for name, value, used in (("T", T, n_steps * dt),
                                          ("snapshot_every", snapshot_every,
                                           steps_per_snap * dt))
                if abs(value - used) > 1e-9 * used]

    kernel = _Kernel(specs, dt)
    S, I = np.stack([f.values for f in S0s]), np.stack([f.values for f in I0s])
    J = np.zeros_like(S)
    recorders = [_Recorder(*row, rounding) for row in zip(specs, S0s, I0s)]
    active = list(recorders)

    k = 0
    while k < n_steps:
        steps = min(steps_per_snap, n_steps - k)
        try:
            S, I, J = kernel.advance(S, I, J, steps)
        except StepSizeError as exc:
            raise StepSizeError(f"{exc} between t={k * dt:g} and t={(k + steps) * dt:g}",
                                [rec.trajectory() for rec in recorders]) from None
        k += steps
        steady = [rec.snapshot(k * dt, *row, steps * dt, steady_tol)
                  for rec, *row in zip(active, S, I, J)]
        if any(steady):
            keep = [i for i, done in enumerate(steady) if not done]
            if not keep:
                break
            active = [active[i] for i in keep]
            S, I, J = S[keep], I[keep], J[keep]
            kernel = _Kernel([rec.spec for rec in active], dt)

    return [rec.trajectory() for rec in recorders]
