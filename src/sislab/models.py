"""Time integration of the SIS reaction-diffusion systems.

Scheme: Strang splitting.  Each step runs a half reaction step, a full
Crank-Nicolson diffusion step for every component with a positive dispersal
rate, then another half reaction step.

Both reactions are nodewise logistic systems, since S + I is constant at a
node while only the reaction acts, and each is advanced by its exact flow.
The flows keep both densities nonnegative for every step size and conserve
the node's S + I to roundoff.  For mass_action_ds0 alone, whose lockdown
identity S - r = (S0 - r)e^{-beta J} reads it, the flow also accumulates the
per-node exposure integral J = int I dt in the same closed form that drives
the update; every other variant's run carries J = None.  Exact flows
compose, R(tau) R(tau) = R(2 tau), so between two snapshots the half
reactions that meet between consecutive steps run as one flow over dt.

Each Crank-Nicolson step solves for its update, (S - cSL) delta = 2c S L u,
with S = diag(1/2, 1, ..., 1, 1/2) halving the end rows so that the matrix
is symmetric and is factored once per step size.  The right-hand side is a
difference of fluxes, 2c (S L u)_i = F_{i+1} - F_i with
F_i = (2c/dx^2)(u_i - u_{i-1}) and both end fluxes zero (no flux through a
reflecting boundary), so the update's quadrature mass telescopes to
roundoff.

Crank-Nicolson is unconditionally stable but not positivity preserving: on
rough data at large d*dt/dx^2 it can overshoot below zero.  That is the one
thing that still bounds dt, and it is checked after every solve.

Steps are of a fixed dt, or with ``dt_tol`` set, sized by a step-doubling
error estimate (``_StepDoubling``).  Only the splitting and Crank-Nicolson
error depends on the step size, so the mass and the lockdown identity hold
at either.

At about 201 nodes a step costs numpy call overhead, not arithmetic, so the
step makes few calls and keeps its intermediates in work arrays the kernel
allocates once; every state it returns is a fresh array.

Runs that share the grid, variant and dispersal rates share the
Crank-Nicolson matrices; ``run_batch`` advances them as the rows of one
state, and ``run`` is its one-run case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field
from itertools import repeat

import numpy as np

from . import diagnostics as diag_mod
from .mesh import EPS_REG, Field, Grid, common_grid, quadrature
# The factored tridiagonal solve is bound as `solve_shifted`, the name the
# Crank-Nicolson solve is traced under (bench/tracing.py).
from .operators import factor_symmetric, neumann_laplacian, solve_factored as solve_shifted


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

    @property
    def records_exposure(self) -> bool:
        """Whether a run records the exposure J = int_0^t I dt.  Only
        mass_action_ds0 has a use for it: with S locked under mass action,
        S - r = (S0 - r)e^{-beta J} (the lockdown identity)."""
        return self is Variant.MASS_ACTION_DS0

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

# Step sizes a kernel's table keeps, oldest dropped first: an adaptive run
# visits a few dozen rungs of its ladder dt * 2^(k/4), plus the steps clipped
# to land on snapshot times.
_CACHED_STEP_SIZES = 64

# An adaptive run gives up on a step below this fraction of dt.
_STEP_FLOOR = 1e-6


class StepSizeError(ValueError):
    """A Crank-Nicolson step overshot below zero: dt is too large for how
    rough the data are; or, under ``dt_tol``, the error control needed a
    step below its floor.  ``partial`` holds the trajectories recorded before
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
    # accumulated nodewise exposure int_0^t I dt, for a mass_action_ds0 run
    # (Variant.records_exposure); None for every other variant and reloaded run
    J: Field | None

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
    # Strang steps taken, and trial steps the error control rejected
    steps: int = 0
    rejected_steps: int = 0

    @property
    def final(self) -> State:
        return self.snapshots[-1]

    def trailing(self) -> list[State]:
        """The last half of the snapshots, at least one."""
        return self.snapshots[-max(1, len(self.snapshots) // 2):]


class _Kernel:
    """Precomputed arrays and substeps, by default of step dt.  What depends
    on the step size alone is made once per step size, in one table.

    The state of K specs is a triple S, I, J of (K, nx) arrays, one row per
    spec, with J None unless the variant records the exposure; beta, gamma
    and r are (K, nx) stacks of the specs' coefficients.
    The specs share the grid, variant and dispersal rates, so they share the
    Crank-Nicolson matrices.  Every substep is nodewise or acts along the
    last axis, so each row advances exactly as it would alone.  The flows
    keep their intermediates in ``_scratch``, four (K, nx) work arrays, and
    never write into their arguments: what they return is fresh.
    """

    def __init__(self, specs: list[ModelSpec], dt: float):
        self.spec = specs[0]
        self.grid = self.spec.grid
        self.dt = dt
        self.beta = np.stack([s.beta.values for s in specs])
        self.gamma = np.stack([s.gamma.values for s in specs])
        self.r = self.gamma / self.beta
        self._scratch = tuple(np.empty_like(self.beta) for _ in range(4))
        # the Crank-Nicolson right-hand side: a zero-padded flux buffer whose
        # end columns stay zero, and the buffer dpttrs solves in
        self._flux = np.zeros((len(self.beta), self.grid.nx + 1))
        self._rhs = np.empty_like(self.beta)
        # everything a Strang step of h needs, per h: the reaction factors
        # over h/2 and h, and the Crank-Nicolson steps of S and I; a fixed-dt
        # run fills one entry
        self._by_h: dict[float, tuple] = {}

    # -- reaction ----------------------------------------------------------

    @property
    def reaction(self):
        """The variant's reaction flow, called with the factors over tau, and
        the builder of those factors.  Bound methods kept on the kernel would
        make a reference cycle, which holds a finished kernel and its table
        until the cyclic collector runs."""
        if self.spec.variant.std_incidence:
            return self._std_incidence_flow, self._std_factors
        return self._mass_action_flow, self._mass_action_factors

    def _mass_action_factors(self, tau):
        return self.beta * tau

    def _mass_action_flow(self, S, I, J, beta_tau):
        # Exact nodewise solution of S' = -beta*(S-r)*I, I' = -S'.
        # With C = S+I and D = C-r, u = S-r obeys a logistic equation:
        # u(tau) = u/(1 + I*g) with g = expm1(beta*tau*D)/D, and
        # int I dt = log1p(I*g)/beta.  The limit g = beta*tau at D = 0 is
        # taken only when some node has D == 0; the masked divide that takes
        # it costs several plain ones, and gives the same bits elsewhere.
        # Bounding S_new by C, as the exact flow is, keeps I_new >= 0 under
        # roundoff.  With J None the exposure is not formed: so it is in every
        # run but mass_action_ds0's, and in the step of h of a doubling trial.
        C, D, g, w = self._scratch
        np.add(S, I, out=C)
        np.subtract(C, self.r, out=D)
        np.expm1(np.multiply(beta_tau, D, out=w), out=w)
        if np.count_nonzero(D) == D.size:
            np.divide(w, D, out=g)
        else:
            np.copyto(g, beta_tau)
            np.divide(w, D, out=g, where=D != 0.0)
        Ig = np.multiply(I, g, out=g)
        u = np.divide(np.subtract(S, self.r, out=D), np.add(1.0, Ig, out=w), out=D)
        S_new = np.add(self.r, u)
        np.minimum(S_new, C, out=S_new)
        if J is not None:
            J = J + np.divide(np.log1p(Ig, out=Ig), self.beta, out=Ig)
        return S_new, C - S_new, J

    def _std_incidence_flow(self, S, I, J, factors):
        # Exact nodewise solution of I' = beta*S*I/C - gamma*I, S' = -I'.
        # With C = S+I fixed this is I' = a*I - (beta/C)*I^2, a = beta-gamma:
        # I(tau) = I*e^{a tau}/(1 + x) with x = beta*g*I/C, g = (e^{a tau}-1)/a.
        # Where C <= EPS_REG the incidence is exactly 0, so I only recovers:
        # I*e^{-gamma tau}.  No std-incidence run records the exposure
        # (Variant.records_exposure), so J, None in every run, is not read
        # and None is returned.
        growth, beta_g, decay = factors
        C, x, w, v = self._scratch
        np.add(S, I, out=C)
        # fmin skips NaN, so a NaN node leaves the choice of branch to the
        # others, as the mask below does
        if np.fmin.reduce(C, axis=None) <= EPS_REG:
            empty = C <= EPS_REG
            x = np.where(empty, 0.0, beta_g * I / np.where(empty, 1.0, C))
            I_new = np.where(empty, decay * I, growth * I / (1.0 + x))
        else:
            np.divide(np.multiply(beta_g, I, out=x), C, out=x)
            I_new = np.divide(np.multiply(growth, I, out=w), np.add(1.0, x, out=v))
        return C - I_new, I_new, None

    def _std_factors(self, tau):
        """e^{a tau}, beta*g and e^{-gamma tau}, which depend on tau alone;
        g = tau where a = 0."""
        a = self.beta - self.gamma
        flat = a == 0.0
        g = np.where(flat, tau, np.expm1(a * tau) / np.where(flat, 1.0, a))
        return np.exp(a * tau), self.beta * g, np.exp(-self.gamma * tau)

    # -- diffusion ---------------------------------------------------------

    def _crank_nicolson(self, d, name, h):
        """One CN step of h at dispersal rate d, or the identity when d = 0."""
        if d <= 0:
            return lambda u: u
        # Incremental form of the trapezoidal step: (Id - cL) delta = 2cL u.
        # Solving for the update keeps the quadrature-mass roundoff
        # proportional to |delta| instead of |u|, which is what lets runs of
        # hundreds of thousands of steps hold mass to ~1e-12 relative.
        # Both sides are multiplied by S = weights/dx, which halves the end rows
        # exactly: S(Id - cL) = S - c(S L) is symmetric positive definite and
        # the same at every step of h, so it is factored once here as L D L^T.
        SL = neumann_laplacian(self.grid)
        c = 0.5 * d * h
        factors = factor_symmetric(self.grid.weights / self.grid.dx - c * SL.diag, -c * SL.off)
        # The right-hand side 2c(S L)u is a flux difference, F_{i+1} - F_i with
        # F_i = k(u_i - u_{i-1}), k = 2c/dx^2, and F_0 = F_nx = 0: the halved
        # end rows are the reflecting boundary's zero flux.  Its entries sum
        # to zero up to the roundoff of the differences, which is the mass
        # argument for the update.  It takes three calls on a buffer whose end
        # columns stay zero, where the tridiagonal product takes six, and it is
        # exactly 0 on a constant state.
        k = 2.0 * c / self.grid.dx**2
        flux, rhs = self._flux, self._rhs
        inner, right, left = flux[:, 1:-1], flux[:, 1:], flux[:, :-1]

        def cn_step(u):
            np.subtract(u[:, 1:], u[:, :-1], out=inner)
            np.multiply(inner, k, out=inner)
            np.subtract(right, left, out=rhs)
            # The K rows of the state are the K columns of one dpttrs call,
            # which solves in rhs's memory.
            u = u + solve_shifted(factors, rhs.T).T
            # one whole-state reduction per step; the per-row test runs only
            # once some value is negative
            if (np.minimum.reduce(u, axis=None) < 0.0
                    and (u.min(axis=-1) < -CN_OVERSHOOT_TOL * u.max(axis=-1)).any()):
                raise StepSizeError(
                    f"dt={h:g} is too large for these data: a Crank-Nicolson "
                    f"step drove {name} down to {u.min():.3e}")
            return u

        return cn_step

    # -- steps -------------------------------------------------------------

    def _strang(self, h):
        """The table's entry for h, made on first use; a full table first
        drops its oldest entry."""
        entry = self._by_h.get(h)
        if entry is None:
            if len(self._by_h) >= _CACHED_STEP_SIZES:
                del self._by_h[next(iter(self._by_h))]
            _, factors = self.reaction
            entry = self._by_h[h] = (factors(0.5 * h), factors(h),
                                     self._crank_nicolson(self.spec.d_S, "S", h),
                                     self._crank_nicolson(self.spec.d_I, "I", h))
        return entry

    def advance(self, S, I, J, steps: int, h: float | None = None):
        """``steps`` Strang steps of h, by default the kernel's dt.  The two
        half reactions that meet between consecutive steps run as one flow
        over h, which for exact flows is the same scheme up to roundoff."""
        react, _ = self.reaction
        half, full, diffuse_S, diffuse_I = self._strang(self.dt if h is None else h)
        S, I, J = react(S, I, J, half)
        for k in range(steps):
            if k:
                S, I, J = react(S, I, J, full)
            S, I = diffuse_S(S), diffuse_I(I)
        return react(S, I, J, half)


def _fixed_steps(kernel: _Kernel, S, I, J, steps: int):
    """``steps`` steps of dt: the state, and the accepted and rejected steps."""
    return (*kernel.advance(S, I, J, steps), steps, 0)


class _StepDoubling:
    """Error control of the Strang step size by step doubling (Hairer,
    Norsett & Wanner, Solving ODEs I, II.4).

    A trial compares one step of h with two steps of h/2.  The local error
    of a step is O(h^3), so two steps of h/2 err a quarter as much as one
    of h, and their difference is 3/4 of the error of the step of h: the
    estimate is 4/3 of its sup norm over S and I, divided by max(1, sup u),
    and the largest over the rows of a batch.  The trial is accepted when
    that is at most ``tol``, and the more accurate h/2 result is kept.
    Either way the next h is h * 0.9 (tol/err)^(1/3), held within
    [h/5, 2h] and rounded down onto the ladder dt * 2^(k/4), so that a run
    visits few step sizes and the kernel factors each once.  A trial whose
    Crank-Nicolson step overshoots is a rejected step.  Steps are clipped to
    land on the end of the interval, and a step that would leave less than
    itself is halved, so no sliver is left.  The mass and the lockdown
    identity do not depend on h, since the reaction flows are exact and the
    Crank-Nicolson update is conservative at every step size.
    """

    def __init__(self, dt: float, tol: float):
        self.dt = dt
        self.tol = tol
        self.h = dt
        # below this step the controller gives up
        self.floor = _STEP_FLOOR * dt

    def advance(self, kernel: _Kernel, S, I, J, steps: int):
        """Cover ``steps`` steps of dt: the state, and the accepted and
        rejected steps."""
        remaining = steps * self.dt
        accepted = rejected = 0
        while remaining > 0.0:
            h = self.h
            if h >= remaining:
                h = remaining
            elif 2.0 * h > remaining:
                h = 0.5 * remaining
            try:
                halves = kernel.advance(S, I, J, 2, 0.5 * h)
                # the step of h is only compared, so it forms no exposure
                err = _doubling_error(kernel.advance(S, I, None, 1, h), halves)
                failure = None
            except StepSizeError as exc:
                err, failure = math.inf, exc
            if err <= self.tol:
                S, I, J = halves
                remaining -= h
                accepted += 1
            else:
                rejected += 1
            # a NaN error fails both comparisons and shrinks h fivefold
            factor = 2.0 if err == 0.0 else min(2.0, max(0.2, 0.9 * (self.tol / err) ** (1 / 3)))
            self.h = self.dt * 2.0 ** (math.floor(4.0 * math.log2(h * factor / self.dt)
                                                  + 1e-9) / 4.0)
            if self.h < self.floor:
                last = failure or f"its error estimate was {err:.3e}"
                raise StepSizeError(
                    f"dt_tol={self.tol:g} needs a step below {self.floor:g}: "
                    f"the last trial, h={h:g}, failed ({last})")
        return S, I, J, accepted, rejected


def _doubling_error(one, two) -> float:
    """4/3 of the sup-norm gap of S and I between one step and two half
    steps, over max(1, sup u), the largest over the rows.  It overwrites
    the S and I of ``one``, the step of h that the trial discards, and
    leaves ``two``, the kept result, as it is."""
    (S1, I1, _), (S2, I2, _) = one, two
    np.abs(np.subtract(S1, S2, out=S1), out=S1)
    np.abs(np.subtract(I1, I2, out=I1), out=I1)
    gap = np.maximum.reduce(np.maximum(S1, I1, out=S1), axis=-1)
    scale = np.maximum.reduce(np.maximum(S2, I2, out=I1), axis=-1)
    return 4.0 / 3.0 * float(np.maximum.reduce(gap / np.maximum(scale, 1.0, out=scale)))


def run(spec: ModelSpec, S0: Field, I0: Field, dt: float, T: float,
        snapshot_every: float = 0.5, steady_tol: float = 1e-7,
        dt_tol: float | None = None) -> Trajectory:
    """Integrate to time T or until the state stops changing.

    Snapshots (with diagnostics) are recorded every ``snapshot_every`` time
    units; steadiness is declared when the per-unit-time sup-norm change
    rate stays below ``steady_tol`` over ``STEADY_WINDOW`` consecutive
    snapshots.  Steps are of ``dt``, or with ``dt_tol`` set, of the size
    that keeps each step's error estimate within ``dt_tol``, starting at
    ``dt`` (``_StepDoubling``).
    """
    return run_batch([spec], [S0], [I0], dt, T, snapshot_every, steady_tol, dt_tol)[0]


class _Recorder:
    """One run's snapshots, diagnostics, warnings and steady stop."""

    def __init__(self, spec: ModelSpec, S0: Field, I0: Field, warnings: list[str]):
        grid = spec.grid
        self.spec = spec
        self.context = diag_mod.DiagnosticsContext(spec, I0)
        S, I = S0.values, I0.values
        self.N = quadrature(grid, S + I)
        J = Field(grid, 0.0) if spec.variant.records_exposure else None
        self.snapshots = [State(0.0, Field(grid, S), Field(grid, I), J)]
        self.records = [self.context.record(self.snapshots[0], math.inf)]
        self.warnings = list(warnings)
        self.steady = False
        self.steps = self.rejected_steps = 0

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
        state = State(t, Field(grid, S), Field(grid, I), None if J is None else Field(grid, J))
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
                          N=self.N, steady_detected=self.steady, warnings=self.warnings,
                          steps=self.steps, rejected_steps=self.rejected_steps)


def run_batch(specs: list[ModelSpec], S0s: list[Field], I0s: list[Field], dt: float,
              T: float, snapshot_every: float = 0.5, steady_tol: float = 1e-7,
              dt_tol: float | None = None) -> list[Trajectory]:
    """``run`` for K models that share one Crank-Nicolson matrix, advanced as
    the rows of one (K, nx) state; ``run`` is the case K = 1.

    The specs must share the grid, variant and dispersal rates;
    coefficients and initial data may differ.  Every row keeps its own
    snapshots, diagnostics, warnings and steady stop, and at fixed dt equals
    its own ``run`` bit for bit; under ``dt_tol`` one controller, held by the
    largest error over the rows, sizes every row's steps.  A row that goes
    steady leaves the state, and the rows that remain get a kernel of their
    own.  Any row's error is raised for the whole batch; a StepSizeError
    carries every row's trajectory up to its last snapshot.  ``T`` and
    ``snapshot_every`` are rounded to whole steps of ``dt``, and every
    trajectory warns when that moves either by more than 1e-9 relative;
    the error control lands on the same snapshot times.
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
        if value / dt == math.inf:
            raise ValueError(f"dt={dt!r} is too small to count the steps of {name}={value!r}")
    if math.isnan(steady_tol):
        raise ValueError("steady_tol must be a number, got nan")
    if dt_tol is not None and not 0 < dt_tol < math.inf:
        raise ValueError(f"dt_tol must be positive and finite, or None, got {dt_tol!r}")
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
    J = np.zeros_like(S) if spec.variant.records_exposure else None
    recorders = [_Recorder(*row, rounding) for row in zip(specs, S0s, I0s)]
    active = list(recorders)
    advance = _fixed_steps if dt_tol is None else _StepDoubling(dt, dt_tol).advance

    k = 0
    while k < n_steps:
        steps = min(steps_per_snap, n_steps - k)
        try:
            S, I, J, accepted, rejected = advance(kernel, S, I, J, steps)
        except StepSizeError as exc:
            raise StepSizeError(f"{exc} between t={k * dt:g} and t={(k + steps) * dt:g}",
                                [rec.trajectory() for rec in recorders]) from None
        k += steps
        for rec in active:
            rec.steps += accepted
            rec.rejected_steps += rejected
        steady = [rec.snapshot(k * dt, *row, steps * dt, steady_tol)
                  for rec, *row in zip(active, S, I, repeat(None) if J is None else J)]
        if any(steady):
            keep = [i for i, done in enumerate(steady) if not done]
            if not keep:
                break
            active = [active[i] for i in keep]
            S, I, J = S[keep], I[keep], None if J is None else J[keep]
            kernel = _Kernel([rec.spec for rec in active], dt)

    return [rec.trajectory() for rec in recorders]
