"""Principal eigenvalue of d*Laplacian + h and the basic reproduction number.

Both solvers use Noda iteration (T. Noda, Numer. Math. 17, 1971): inverse
iteration whose shift moves every step to the Collatz-Wielandt bound of the
positive iterate, so each step factors its shifted tridiagonal matrix and
solves once.  The shifts converge quadratically (L. Elsner, Linear Algebra
Appl. 15, 1976), so a cold solve takes a handful of steps even when the two
largest eigenvalues nearly tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Field, quadrature
from .operators import TridiagonalMatrix, neumann_laplacian, solve_tridiagonal

# iteration cap of both solvers
DEFAULT_MAX_ITER = 10_000
# Least distance of a shift from its Rayleigh quotient, relative to the
# operator scale: once the shift has converged onto the eigenvalue this keeps
# the shifted matrix's last pivot far above the factorization's 1e-14 floor.
_MARGIN = 1e-12


class EigenConvergenceError(RuntimeError):
    def __init__(self, what: str, iterations: int, residual: float):
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(last residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class EigenResult:
    sigma: float
    phi: Field          # positive, normalized to unit weighted L2 norm
    iterations: int
    residual: float


def principal_eigenvalue(d: float, h: Field, tol: float = 1e-12,
                         start: np.ndarray | None = None) -> EigenResult:
    """Largest eigenvalue of d*L + diag(h) under zero-flux boundaries.

    Each step shifts to max(A u / u), the Collatz-Wielandt upper bound on
    sigma of the positive iterate u (never above the previous shift, which
    starts at h_max + 1), factors (shift*Id - A) and solves once.  The
    off-diagonals of A are nonnegative and the shift lies above sigma, so
    the factored matrix is a nonsingular M-matrix and the next iterate is
    positive.  ``iterations`` counts the solves: a start that already meets
    the tolerance returns after none.  The d -> 0 limit is max(h); use that
    directly instead of calling this with a tiny d.  ``start`` warm-starts
    the iteration with a positive vector (used by the threshold optimizer).
    """
    if d <= 0:
        raise ValueError("diffusion rate must be positive; the d->0 limit is max(h)")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    grid = h.grid
    hv = np.asarray(h.values)
    L = neumann_laplacian(grid)
    lower, diag, upper = -d * L.lower, d * L.diag + hv, -d * L.upper

    if start is not None and np.asarray(start).min() > 0:
        u = np.asarray(start, dtype=float)
        u = u / np.sqrt(quadrature(grid, u * u))
    else:
        u = np.full(grid.nx, 1.0 / np.sqrt(grid.length))
    # The attainable max-norm residual scales with the operator norm (the
    # Laplacian amplifies solver roundoff by d/dx^2), so the tolerance is
    # applied relative to that scale; the Rayleigh quotient is quadratically
    # accurate in the residual, which keeps eigenvalues far tighter.
    op_scale = max(1.0, float(np.abs(hv).max()) + 4.0 * d / grid.dx**2)
    shift = float(hv.max()) + 1.0
    for it in range(DEFAULT_MAX_ITER + 1):
        Au = d * L.matvec(u) + hv * u
        sigma = float(quadrature(grid, u * Au))
        residual = float(np.abs(Au - sigma * u).max())
        if residual <= tol * op_scale:
            return EigenResult(sigma, Field(grid, u), it, residual)
        if it == DEFAULT_MAX_ITER:
            break
        shift = min(shift, max(float(_finite_ratios(Au, u).max()), sigma + _MARGIN * op_scale))
        lu = TridiagonalMatrix(lower, shift - diag, upper).factor()
        v = solve_tridiagonal(lu, u)
        u = v / np.sqrt(quadrature(grid, v * v))
    raise EigenConvergenceError("principal eigenvalue iteration", DEFAULT_MAX_ITER, residual)


def basic_reproduction_number(d_I: float, beta: Field, gamma: Field,
                              tol: float = 1e-12) -> float:
    """Spectral threshold quantity for disease invasion.

    The largest generalized eigenvalue rho of the pencil
    (diag(beta), B = -d_I*L + diag(gamma)), found as the smallest eigenvalue
    mu = 1/rho of B u = mu*beta*u.  Each step raises mu to
    min(B u / (beta*u)), the Collatz-Wielandt lower bound on 1/rho of the
    positive iterate u (never below the previous mu, which starts at 0),
    factors B - mu*diag(beta) and solves once against beta*u.  B has
    nonpositive off-diagonals and is positive definite for d_I > 0 and
    positive recovery rates, so for mu below 1/rho the factored matrix is a
    nonsingular M-matrix and the next iterate is positive.
    """
    if d_I <= 0:
        raise ValueError("diffusion rate must be positive")
    grid = beta.grid
    bv = np.asarray(beta.values)
    gv = np.asarray(gamma.values)
    if bv.min() <= 0 or gv.min() <= 0:
        raise ValueError("transmission and recovery rates must be positive")
    L = neumann_laplacian(grid)
    B = TridiagonalMatrix(-d_I * L.lower, gv - d_I * L.diag, -d_I * L.upper)
    op_scale = max(1.0, float(bv.max() + gv.max()) + 4.0 * d_I / grid.dx**2)

    u = np.full(grid.nx, 1.0 / np.sqrt(grid.length))
    mu = 0.0
    for it in range(DEFAULT_MAX_ITER + 1):
        bu = bv * u
        Bu = B.matvec(u)
        rho = quadrature(grid, bu * u) / quadrature(grid, u * Bu)
        residual = float(np.abs(bu - rho * Bu).max())
        if residual <= tol * op_scale:
            return float(rho)
        if it == DEFAULT_MAX_ITER:
            break
        # the margin is in units of mu, hence the division by beta
        cw = float(_finite_ratios(Bu, bu).min())
        mu = max(mu, min(cw, 1.0 / rho - _MARGIN * op_scale / bv.min()))
        lu = TridiagonalMatrix(B.lower, B.diag - mu * bv, B.upper).factor()
        v = solve_tridiagonal(lu, bu)
        u = v / np.sqrt(quadrature(grid, v * v))
    raise EigenConvergenceError("reproduction number iteration", DEFAULT_MAX_ITER, residual)


def _finite_ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The finite entries of num/den: a component of den that underflowed to
    0 makes its ratio inf or nan and carries no information."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    return ratios[np.isfinite(ratios)]


def dense_principal_eigenvalue(d: float, h: Field) -> tuple[float, np.ndarray]:
    """Dense oracle: full symmetric-tridiagonal eigendecomposition.

    Symmetrizes with the square root of the quadrature weights, so both
    routes discretize the same weighted operator.
    """
    import scipy.linalg

    grid = h.grid
    L = neumann_laplacian(grid)
    hv = np.asarray(h.values)
    sqw = np.sqrt(grid.weights)
    diag = d * L.diag + hv
    off = d * L.upper * sqw[:-1] / sqw[1:]
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    phi = vecs[:, -1] / sqw
    phi /= np.sqrt(quadrature(grid, phi * phi))
    if phi.max() < 0:
        phi = -phi
    return float(vals[-1]), phi
