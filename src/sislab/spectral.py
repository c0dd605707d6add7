"""Principal eigenvalue of d*Laplacian + h and the basic reproduction number.

Both solvers run one Noda iteration (T. Noda, Numer. Math. 17, 1971): inverse
iteration whose shift moves every step to the Collatz-Wielandt bound of the
positive iterate, so each step solves its own shifted tridiagonal matrix
once, with one LAPACK call.  The shifts converge quadratically (L. Elsner,
Linear Algebra Appl. 15, 1976), so a cold solve takes a handful of steps
even when the two largest eigenvalues nearly tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Field, Grid, common_grid, quadrature
from .operators import neumann_laplacian, solve_tridiagonal

# iteration cap of both solvers
DEFAULT_MAX_ITER = 10_000
# stopping tolerance of both solvers, on the max-norm residual relative to the
# operator scale
_TOL = 1e-12
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


@dataclass(frozen=True)
class EigenResult:
    sigma: float
    phi: Field          # positive, normalized to unit weighted L2 norm
    iterations: int
    residual: float


def principal_eigenvalue(d: float, h: Field, start: np.ndarray | None = None) -> EigenResult:
    """Largest eigenvalue of d*L + diag(h) under zero-flux boundaries.

    The d -> 0 limit is max(h); use that directly instead of calling this
    with a tiny d.  ``iterations`` counts the solves: a start that already
    meets the tolerance returns after none.  ``start`` warm-starts the
    iteration with a positive vector (used by the threshold optimizer).
    """
    if not 0 < d < np.inf:
        raise ValueError("diffusion rate d must be positive and finite; "
                         "the d->0 limit is max(h)")
    grid = h.grid
    hv = h.values
    if not np.isfinite(hv).all():
        raise ValueError("potential h must be finite")
    # The attainable max-norm residual scales with the operator norm (the
    # Laplacian amplifies solver roundoff by d/dx^2), so the tolerance is
    # applied relative to that scale; the Rayleigh quotient is quadratically
    # accurate in the residual, which keeps eigenvalues far tighter.
    op_scale = max(1.0, float(np.abs(hv).max()) + 4.0 * d / grid.dx**2)
    if start is not None and np.asarray(start).min() > 0:
        u = np.asarray(start, dtype=float)
        u = u / np.sqrt(quadrature(grid, u * u))
    else:
        u = np.full(grid.nx, 1.0 / np.sqrt(grid.length))
    return _noda("principal eigenvalue iteration", d, grid, hv, 1.0, u, op_scale)


def basic_reproduction_number(d_I: float, beta: Field, gamma: Field) -> float:
    """Spectral threshold quantity for disease invasion.

    The largest generalized eigenvalue rho of the pencil
    (diag(beta), B = -d_I*L + diag(gamma)).  B u = (1/rho)*beta*u is
    (d_I*L - diag(gamma)) u = lambda*beta*u with lambda = -1/rho, and B is
    positive definite for d_I > 0 and positive recovery rates, so rho is
    -1/lambda for the largest lambda.
    """
    if not 0 < d_I < np.inf:
        raise ValueError("diffusion rate d_I must be positive and finite")
    grid = common_grid(beta, gamma)
    bv = beta.values
    gv = gamma.values
    # min and max propagate a NaN, which fails every comparison
    if not (0 < bv.min() and bv.max() < np.inf and 0 < gv.min() and gv.max() < np.inf):
        raise ValueError("transmission and recovery rates must be positive and finite")
    op_scale = max(1.0, float(bv.max() + gv.max()) + 4.0 * d_I / grid.dx**2)
    u = np.full(grid.nx, 1.0 / np.sqrt(quadrature(grid, bv)))
    result = _noda("reproduction number iteration", d_I, grid, -gv, bv, u, op_scale)
    return float(-1.0 / result.sigma)


def _noda(what: str, d: float, grid: Grid, c: np.ndarray, w: float | np.ndarray,
          u: np.ndarray, op_scale: float) -> EigenResult:
    """Largest lambda of (d*L + diag(c)) u = lambda*w*u for weights w > 0,
    one per node or one for all.

    Each step shifts to max(A u / (w*u)), the Collatz-Wielandt upper bound
    on lambda of the positive iterate u (never above the previous shift,
    which starts at max(c/w) + 1, nor below the floor kept above every
    diag(A)/w), and solves (shift*diag(w) - A) x = w*u once.  The
    off-diagonals of A are nonnegative and the shift lies above lambda, so
    that matrix is a nonsingular M-matrix and the next iterate is positive.
    The start u is positive with int(w*u^2) = 1, every iterate is
    normalized so, and convergence is checked before each solve.

    Every iterate is written into the start's memory, and each step works
    in arrays allocated once per call, so a step allocates no array.
    """
    L = neumann_laplacian(grid)
    n = grid.nx
    Au, wu, tmp, diag, dd = (np.empty(n) for _ in range(5))
    # the shifted matrix's off-diagonals live in A u and the scratch array,
    # which are free from the Collatz-Wielandt bound to the next step
    dl, du = Au[:-1], tmp[:-1]
    np.multiply(L.diag, d, out=diag)
    diag += c                                       # the diagonal of A

    # the margin is in units of lambda, hence the division by w
    margin = _MARGIN * op_scale / float(np.min(w))
    # Every shift keeps a relative margin above the largest ratio diag/w (at
    # most lambda): where d*L.diag is below half an ulp of c, diag rounds onto
    # c, so a shift of max(c/w) would leave a zero pivot there.  A ratio that
    # overflows is -inf and drops out of both maxima.
    with np.errstate(over="ignore"):
        peak = float(np.divide(c, w, out=tmp).max())
        top = float(np.divide(diag, w, out=tmp).max())
    floor = top + _MARGIN * abs(top)
    shift = max(peak + 1.0, floor)
    # A value that overflows or is not a number ends the iteration through
    # the residual test, so no step warns of it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(DEFAULT_MAX_ITER + 1):
            # A u = d*(L u) + c*u, with L u summed as TridiagonalMatrix.matvec sums it
            np.multiply(L.diag, u, out=Au)
            Au[:-1] += np.multiply(L.upper, u[1:], out=tmp[1:])
            Au[1:] += np.multiply(L.lower, u[:-1], out=tmp[1:])
            Au *= d
            Au += np.multiply(c, u, out=tmp)
            np.multiply(w, u, out=wu)
            lam = quadrature(grid, np.multiply(u, Au, out=tmp))
            np.subtract(Au, np.multiply(lam, wu, out=tmp), out=tmp)
            residual = float(np.abs(tmp, out=tmp).max())
            if residual <= _TOL * op_scale:
                return EigenResult(lam, Field(grid, u), it, residual)
            if it == DEFAULT_MAX_ITER or not residual < np.inf:
                break
            bound = float(np.divide(Au, wu, out=tmp).max())
            if not np.isfinite(bound):
                # a component of w*u that underflowed to 0 makes its ratio inf
                # or nan, which carries no information: take the largest finite
                bound = float(tmp.max(where=np.isfinite(tmp), initial=-np.inf))
            shift = min(shift, max(bound, lam + margin, floor))
            # shift*diag(w) - A, whose three diagonals each solve overwrites
            np.subtract(np.multiply(shift, w, out=dd), diag, out=dd)
            np.multiply(L.lower, -d, out=dl)
            np.multiply(L.upper, -d, out=du)
            x = solve_tridiagonal(dl, dd, du, wu)
            norm2 = quadrature(grid, np.multiply(np.multiply(w, x, out=tmp), x, out=tmp))
            if not 0 < norm2 < np.inf:
                # w*x^2 underflowed (a shift near 1e300 leaves x near 1e-300)
                # or overflowed: scale x to a largest entry of 1 first
                x /= np.abs(x).max()
                norm2 = quadrature(grid, np.multiply(np.multiply(w, x, out=tmp), x, out=tmp))
            np.divide(x, np.sqrt(norm2), out=u)
    raise EigenConvergenceError(what, it, residual)


def dense_principal_eigenvalue(d: float, h: Field) -> tuple[float, np.ndarray]:
    """Direct oracle: the largest eigenpair of the symmetric tridiagonal
    matrix by LAPACK bisection and inverse iteration, independent of Noda.

    Symmetrizes with the square root of the quadrature weights, so both
    routes discretize the same weighted operator.
    """
    import scipy.linalg

    grid = h.grid
    L = neumann_laplacian(grid)
    hv = h.values
    sqw = np.sqrt(grid.weights)
    diag = d * L.diag + hv
    off = d * L.upper * sqw[:-1] / sqw[1:]
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(grid.nx - 1, grid.nx - 1))
    phi = vecs[:, -1] / sqw
    phi /= np.sqrt(quadrature(grid, phi * phi))
    if phi.max() < 0:
        phi = -phi
    return float(vals[-1]), phi
