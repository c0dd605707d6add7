"""Discrete Neumann Laplacian, tridiagonal solves, and gradient energy.

The boundary rows use ghost-point reflection, which keeps rows summing to
zero exactly; combined with trapezoid weights this makes the operator
symmetric in the weighted inner product and makes discrete mass
conservation and summation-by-parts identities hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mesh import Field, Grid


class TridiagonalSolveError(RuntimeError):
    """A pivot fell below the safe threshold during elimination."""


@dataclass(frozen=True)
class TridiagonalMatrix:
    lower: np.ndarray  # sub-diagonal, length n-1
    diag: np.ndarray   # main diagonal, length n
    upper: np.ndarray  # super-diagonal, length n-1

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out


def neumann_laplacian(grid: Grid) -> TridiagonalMatrix:
    """Second-order Laplacian with reflecting (zero-flux) boundary rows."""
    n = grid.nx
    inv_dx2 = 1.0 / grid.dx**2
    diag = np.full(n, -2.0 * inv_dx2)
    lower = np.full(n - 1, inv_dx2)
    upper = np.full(n - 1, inv_dx2)
    upper[0] = 2.0 * inv_dx2
    lower[-1] = 2.0 * inv_dx2
    return TridiagonalMatrix(lower, diag, upper)


def solve_shifted(L: TridiagonalMatrix, alpha: float, rhs):
    """Solve (Id - alpha*L) u = rhs by tridiagonal elimination.

    ``rhs`` may be a Field or a plain array; the result matches.  For
    alpha >= 0 with the Neumann stencil the system is strictly diagonally
    dominant, so the fast banded path is always safe; otherwise a pivoting
    scan guards against near-singular systems.
    """
    if isinstance(rhs, Field):
        return Field(rhs.grid, solve_shifted(L, alpha, np.asarray(rhs.values)))
    rhs = np.asarray(rhs, dtype=float)
    if alpha == 0.0:
        return rhs.copy()
    lower = -alpha * L.lower
    diag = 1.0 - alpha * L.diag
    upper = -alpha * L.upper
    return solve_tridiagonal(lower, diag, upper, rhs)


def solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """General tridiagonal solve with a pivot-magnitude guard."""
    n = diag.shape[0]
    dominance = np.abs(diag).copy()
    dominance[1:] -= np.abs(lower)
    dominance[:-1] -= np.abs(upper)
    if dominance.min() > 1e-10:
        return _solve_banded(lower, diag, upper, rhs)
    # Not obviously dominant: run Thomas elimination with explicit pivot checks.
    c = np.empty(n - 1)
    d = np.empty(n)
    piv = diag[0]
    if abs(piv) < 1e-14:
        raise TridiagonalSolveError("pivot 0 below 1e-14")
    c[0] = upper[0] / piv
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * c[i - 1]
        if abs(piv) < 1e-14:
            raise TridiagonalSolveError(f"pivot {i} below 1e-14")
        if i < n - 1:
            c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def _solve_banded(lower, diag, upper, rhs) -> np.ndarray:
    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)


def gradient_energy_values(values: np.ndarray, dx: float) -> float:
    """Midpoint-rule value of the squared-gradient integral.

    Uses edge differences so that <L f, f>_w == -gradient_energy_values(f, dx)
    exactly, which is what makes the dissipation identities testable to
    roundoff.
    """
    diffs = np.diff(values)
    return float((diffs @ diffs) / dx)
