"""Principal eigenvalue of d*Laplacian + h and the basic reproduction number.

Both solvers use shifted inverse power iteration on the tridiagonal
discretization.  The iteration matrix is an M-matrix, so iterates started
from a positive vector stay positive and converge to the principal pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Field, quadrature
from .operators import TridiagonalMatrix, neumann_laplacian, solve_tridiagonal

# iteration cap of both solvers
DEFAULT_MAX_ITER = 10_000


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

    The shift h_max + 1 makes (shift*Id - A) positive definite and
    diagonally dominant, so it is factored once and each inverse-power step
    is one safe tridiagonal solve.  The d -> 0 limit is max(h); use that
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
    shift = float(hv.max()) + 1.0
    lu = TridiagonalMatrix(-d * L.lower, shift - (d * L.diag + hv), -d * L.upper).factor()

    if start is not None and np.asarray(start).min() > 0:
        u = np.asarray(start, dtype=float)
        u = u / np.sqrt(quadrature(grid, u * u))
    else:
        u = np.full(grid.nx, 1.0 / np.sqrt(grid.length))
    sigma = float(quadrature(grid, hv * u * u))
    residual = np.inf
    # The attainable max-norm residual scales with the operator norm (the
    # Laplacian amplifies solver roundoff by d/dx^2), so the tolerance is
    # applied relative to that scale; the Rayleigh quotient is quadratically
    # accurate in the residual, which keeps eigenvalues far tighter.
    op_scale = max(1.0, float(np.abs(hv).max()) + 4.0 * d / grid.dx**2)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        v = solve_tridiagonal(lu, u)
        norm = np.sqrt(quadrature(grid, v * v))
        u = v / norm
        Au = d * L.matvec(u) + hv * u
        sigma = float(quadrature(grid, u * Au))
        residual = float(np.abs(Au - sigma * u).max())
        if residual <= tol * op_scale:
            phi = Field(grid, u if u.max() > 0 else -u)
            return EigenResult(sigma, phi, it, residual)
    raise EigenConvergenceError("principal eigenvalue iteration", DEFAULT_MAX_ITER, residual)


def basic_reproduction_number(d_I: float, beta: Field, gamma: Field,
                              tol: float = 1e-12) -> float:
    """Spectral threshold quantity for disease invasion.

    Computed as the largest generalized eigenvalue of the pencil
    (diag(beta), -d_I*L + diag(gamma)) by inverse power iteration; the
    right-hand operator is positive definite for d_I > 0 and positive
    recovery rates, and is factored once per call.
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
    B_lu = B.factor()
    op_scale = max(1.0, float(bv.max() + gv.max()) + 4.0 * d_I / grid.dx**2)

    u = np.full(grid.nx, 1.0 / np.sqrt(grid.length))
    rho = np.inf
    for _ in range(DEFAULT_MAX_ITER):
        v = solve_tridiagonal(B_lu, bv * u)
        norm = np.sqrt(quadrature(grid, v * v))
        u = v / norm
        Bu = B.matvec(u)
        num = quadrature(grid, bv * u * u)
        den = quadrature(grid, u * Bu)
        rho = num / den
        residual = float(np.abs(bv * u - rho * Bu).max())
        if residual <= tol * op_scale:
            return float(rho)
    raise EigenConvergenceError("reproduction number iteration", DEFAULT_MAX_ITER, residual)


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
