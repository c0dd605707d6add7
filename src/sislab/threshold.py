"""Critical population size by eigenvalue-constrained maximization.

Maximizes N(lam) = int(lam*S0 + (1-lam)*r) over nodewise lam in [0, 1]
subject to sigma(d_I, beta*lam*gap) <= _FEAS_TOL, where gap = S0 - r.  The
eigenvalue is a supremum of linear functionals of the potential, so the
feasible set is convex and a KKT point of this linear objective is the
global optimum: with phi the principal eigenfunction at lam, lam = 1 where
gap*(tau - beta*phi^2) > 0 and lam = 0 where it is negative, for one level
tau.  Each ascent step moves every node toward that target by at most its
trust radius at the largest level whose true eigenvalue stays feasible; the
nodes left between 0 and 1 are then solved for exactly, so every iterate is
feasible.  The tangent plane of the convex eigenvalue at an iterate gives,
by LP duality, an upper bound on N*; the ascent stops once that bound
certifies the iterate to the relative gap ``_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Field, common_grid, quadrature
from .operators import TridiagonalSolveError, neumann_laplacian, solve_tridiagonal
from .spectral import principal_eigenvalue

_TOL = 1e-6                      # certified relative gap (dual_bound - N*) / N*
_FEAS_TOL = 1e-8                 # allowed eigenvalue at the returned point
_MAX_ITER = 200                  # ascent steps per start
_RANDOM_STARTS = 1               # random first-step scores, tried only when
                                 # the deterministic start does not certify
# The completion aims sigma at this fraction of _FEAS_TOL: the rest is room for
# the roundoff of its solve, and the certificate's slack is what remains.
_AIM = 0.9


@dataclass(frozen=True)
class OptimizerOptions:
    seed: int = 0                # seeds the random starts


@dataclass(frozen=True)
class ThresholdResult:
    n_star: float
    lambda_star: Field
    sigma_at_opt: float
    lower_bound: float
    upper_bound: float
    dual_bound: float            # certified upper bound on the optimum
    converged: bool              # dual_bound - n_star <= _TOL * n_star
    iterations: int              # ascent steps over all starts
    eigen_solves: int            # principal_eigenvalue calls
    eigen_iterations: int        # their iterations, summed


class _Problem:
    def __init__(self, S0: Field, r: Field, beta: Field, d_I: float):
        self.grid = S0.grid
        self.gap = S0.values - r.values
        self.beta = beta.values
        self.d_I = d_I
        self.base = quadrature(self.grid, r.values)
        self.c = self.grid.weights * self.gap
        self.laplacian = neumann_laplacian(self.grid)      # S L
        self.s = self.grid.weights / self.grid.dx
        self.eigen_solves = 0
        self.eigen_iterations = 0

    def objective(self, lam: np.ndarray) -> float:
        return self.base + float(self.c @ lam)

    def sigma(self, lam: np.ndarray, warm: np.ndarray | None):
        h = Field(self.grid, self.beta * lam * self.gap)
        eig = principal_eigenvalue(self.d_I, h, start=warm)
        self.eigen_solves += 1
        self.eigen_iterations += eig.iterations
        return eig.sigma, eig.phi.values

    def dual_bound(self, lam: np.ndarray, sigma: float, phi: np.ndarray) -> float:
        """max N over the box and the tangent half-space of sigma at lam.

        By LP duality this is int r + min over mu >= 0 of
        mu*slack + sum((c - mu*g)^+), a convex piecewise-linear function of
        mu with its minimum at mu = 0 or at a breakpoint c_i/g_i.  Past its
        breakpoint a node with c > 0 leaves the sum and one with c < 0
        enters it, so both change the sum by |c_i| - mu*|g_i|.
        """
        score = self.beta * phi * phi
        g = self.c * score                              # d sigma / d lam
        slack = float(g @ lam) - sigma + _FEAS_TOL
        up = self.c > 0
        order = np.argsort(score)[::-1]
        mu = 1.0 / score[order]
        at_zero = float(self.c[up].sum())
        values = (mu * (slack - g[up].sum() + np.cumsum(np.abs(g[order])))
                  + at_zero - np.cumsum(np.abs(self.c[order])))
        return self.base + min(at_zero, float(values.min()))

    def level_step(self, lam: np.ndarray, phi: np.ndarray, scores: np.ndarray,
                   radius: np.ndarray):
        """The trust-region move to the largest feasible level of ``scores``,
        as (lam, sigma, phi), or None; the node crossing the level is
        completed."""
        order = np.argsort(scores, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # a node's target below and above its level; raising the level from
        # one to the other raises the node's potential
        below = lam + np.clip((self.gap < 0) - lam, -radius, radius)
        above = lam + np.clip((self.gap > 0) - lam, -radius, radius)

        def trial(k):
            return np.where(rank < k, above, below)

        lo, hi = 0, order.size
        top = self.sigma(trial(hi), phi)
        if top[0] <= _FEAS_TOL:
            return trial(hi), *top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.sigma(trial(mid), phi)[0] <= _FEAS_TOL:
                lo = mid
            else:
                hi = mid
        return self.complete(trial(lo), rank == lo)

    def complete(self, lam: np.ndarray, free: np.ndarray):
        """Values of the ``free`` nodes at which sigma is at its aim and
        beta*phi^2 is level on them: the KKT conditions of nodes strictly
        inside [0, 1], which the bang-bang steps only approach.

        With phi = beta^(-1/2) on the free nodes, the eigen equation on the
        other nodes is one symmetric solve for phi there, and the equation
        at a free node then gives its potential.  Its matrix has nonpositive
        off-diagonals, so phi > 0 exists exactly when it is positive
        definite, and otherwise the solve stops at a nonpositive pivot.  A
        free node whose value leaves [0, 1] is fixed at the bound and the
        solve repeated.  Returns (lam, sigma, phi), or None if no feasible
        point results.
        """
        d, SL, s = self.d_I, self.laplacian, self.s
        target = _AIM * _FEAS_TOL
        free = free & (self.gap != 0)
        x = lam.copy()
        while free.any():
            fixed = ~free
            # -S(d*L + h - tau) on the fixed rows (L's diagonal is S L's over
            # s, exactly) and the identity on the free ones; the fixed rows'
            # couplings to the free values are moved to the right-hand side
            diag = -s * (d * (SL.diag / s) + self.beta * x * self.gap - target)
            psi = np.where(fixed, 0.0, self.beta ** -0.5)
            try:
                psi = solve_tridiagonal(np.where(fixed, diag, 1.0),
                                        np.where(fixed[:-1] & fixed[1:], -d * SL.off, 0.0),
                                        np.where(fixed, d * SL.matvec(psi), psi))
            except TridiagonalSolveError:
                return None
            value = (target - d * (SL.matvec(psi) / s) / psi)[free] / (self.beta * self.gap)[free]
            x[free] = np.clip(value, 0.0, 1.0)
            inside = (value >= 0) & (value <= 1)
            if inside.all():
                sigma, phi = self.sigma(x, psi)
                return (x, sigma, phi) if sigma <= _FEAS_TOL else None
            free[np.flatnonzero(free)[~inside]] = False
        return None


def critical_population(S0: Field, r: Field, beta: Field, d_I: float,
                        opts: OptimizerOptions | None = None) -> ThresholdResult:
    """Threshold population below which susceptible-lockdown extinction
    outcomes remain possible; see module docstring for the program solved."""
    grid = common_grid(S0, r, beta)
    # a NaN minimum fails the first test
    if not (0 <= S0.min() and S0.max() < math.inf):
        raise ValueError("S0: initial susceptible density must be nonnegative and finite")
    for name, what, f in (("r", "risk ratio", r), ("beta", "transmission rate", beta)):
        if not (0 < f.min() and f.max() < math.inf):
            raise ValueError(f"{name}: {what} must be positive and finite")
    if not 0 < d_I < math.inf:
        raise ValueError(f"d_I: infected dispersal rate must be positive and finite, "
                         f"got {d_I!r}")
    opts = opts or OptimizerOptions()
    prob = _Problem(S0, r, beta, d_I)

    lam0 = np.zeros(grid.nx)
    sigma0, phi0 = prob.sigma(lam0, None)            # lam = 0 is always feasible
    best = (prob.objective(lam0), lam0, sigma0)
    bound = prob.dual_bound(lam0, sigma0, phi0)
    rng = np.random.default_rng(opts.seed)
    iterations = 0

    def certified():
        return bound - best[0] <= _TOL * best[0]

    for start in range(1 + _RANDOM_STARTS):
        if certified():
            break
        lam, phi, n = lam0, phi0, prob.base
        scores = prob.beta * phi * phi if start == 0 else rng.uniform(size=grid.nx)
        radius = np.ones(grid.nx)
        heading = np.zeros(grid.nx)
        for _ in range(_MAX_ITER):
            if certified():
                break
            iterations += 1
            step = prob.level_step(lam, phi, scores, radius)
            if step is None or prob.objective(step[0]) <= n:
                radius *= 0.5
                continue
            # a node that turns back halves its radius, so nodes oscillating
            # about a singular arc settle; the others double theirs, up to 1
            move = np.sign(step[0] - lam)
            radius = np.where(move * heading < 0, 0.5 * radius, np.minimum(2.0 * radius, 1.0))
            heading = np.where(move != 0, move, heading)
            lam, sigma, phi = step
            arc = prob.complete(lam, (lam > 0) & (lam < 1))
            if arc is not None and prob.objective(arc[0]) > prob.objective(lam):
                lam, sigma, phi = arc
            n = prob.objective(lam)
            bound = min(bound, prob.dual_bound(lam, sigma, phi))
            if n > best[0]:
                best = (n, lam, sigma)
            scores = prob.beta * phi * phi

    n_star, lam, sigma = best
    return ThresholdResult(
        n_star=n_star,
        lambda_star=Field(grid, lam),
        sigma_at_opt=sigma,
        lower_bound=prob.base,
        upper_bound=quadrature(grid, np.maximum(S0.values, r.values)),
        dual_bound=bound,
        converged=certified(),
        iterations=iterations,
        eigen_solves=prob.eigen_solves,
        eigen_iterations=prob.eigen_iterations,
    )
