"""Discrete Neumann Laplacian, the tridiagonal solves, and gradient energy.

The boundary rows use ghost-point reflection, which keeps rows summing to
zero exactly; combined with trapezoid weights this makes the operator
symmetric in the weighted inner product and makes discrete mass
conservation and summation-by-parts identities hold to machine precision.
The same symmetry holds entrywise once the two end rows are halved, which
is exact in floating point: S L and S (Id - cL), S = diag(1/2, 1, ..., 1,
1/2) the trapezoid weights over dx, are symmetric tridiagonal, and the
second is positive definite for c >= 0.  So a Crank-Nicolson matrix is
factored as L D L^T (``factor_symmetric``, ``solve_factored``), and a
matrix that is not symmetric or not definite is solved by LU with partial
pivoting in one call (``solve_tridiagonal``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy  # its __init__ runs first: some builds set up library paths there

from .mesh import Grid


def _load_lapack(folder: Path):
    """``dpttrf``, ``dpttrs`` and ``dgtsv`` from scipy's compiled LAPACK wrappers.

    ``folder`` is where scipy keeps ``_flapack``, the extension that
    ``scipy.linalg.lapack`` re-exports.  Loading that file alone skips the
    ``scipy.linalg`` package, whose import takes longer than the rest of
    sislab's start-up.  The interpreter registers the loaded extension
    under its package name, so a later ``import scipy.linalg`` reuses it
    and the routines are the same objects either way.  A scipy laid out
    otherwise is imported the usual way.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            lapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(lapack)
            break
    else:
        from scipy.linalg import lapack
    return lapack.dpttrf, lapack.dpttrs, lapack.dgtsv


dpttrf, dpttrs, dgtsv = _load_lapack(Path(scipy.__file__).parent / "linalg")


class TridiagonalSolveError(RuntimeError):
    """A pivot of the factorization fell below the safe threshold."""


def _check_pivots(pivots: np.ndarray, info: int) -> None:
    """LAPACK flags only a pivot that stops the elimination (``info`` > 0:
    an exactly zero one in LU, a non-positive one in LDL^T, left in
    ``pivots``), so every pivot is checked against 1e-14."""
    small = np.flatnonzero(pivots < 1e-14)
    if info or small.size:
        raise TridiagonalSolveError(f"pivot {small[0]} below 1e-14")


@dataclass(frozen=True)
class TridiagonalMatrix:
    lower: np.ndarray  # sub-diagonal, length n-1
    diag: np.ndarray   # main diagonal, length n
    upper: np.ndarray  # super-diagonal, length n-1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for an (n,) vector, or for every row of a (K, n) array."""
        out = self.diag * v
        out[..., :-1] += self.upper * v[..., 1:]
        out[..., 1:] += self.lower * v[..., :-1]
        return out


class SymmetricFactors(NamedTuple):
    """A = L D L^T for a symmetric positive-definite tridiagonal A, as
    ``dpttrf`` returns it: D's diagonal ``d`` and L's subdiagonal ``e``."""

    d: np.ndarray
    e: np.ndarray


def factor_symmetric(diag: np.ndarray, off: np.ndarray) -> SymmetricFactors:
    """L D L^T factorization (LAPACK ``dpttrf``) of the symmetric
    positive-definite tridiagonal matrix with diagonal ``diag`` and
    off-diagonal ``off``, for a matrix solved many times.  It takes no
    pivots, so every pivot of D must be positive: one below 1e-14 raises
    ``TridiagonalSolveError``."""
    d, e, info = dpttrf(diag, off)
    _check_pivots(d, info)
    return SymmetricFactors(d, e)


def solve_factored(factors: SymmetricFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs from A's factorization (LAPACK ``dpttrs``); an (n, K)
    ``rhs`` solves for its K columns in one call.  ``rhs`` is work space: a
    Fortran-contiguous float64 one is overwritten, and x is returned in its
    memory."""
    return dpttrs(*factors, rhs, overwrite_b=1)[0]


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Solve A x = b in one LAPACK ``dgtsv`` call (LU with partial pivoting),
    for a matrix solved once that need not be symmetric or definite.  The
    four arrays are work space: contiguous float64 ones are overwritten, and
    x is returned in ``b``'s memory."""
    _, u_diag, _, x, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                  overwrite_du=1, overwrite_b=1)
    _check_pivots(np.abs(u_diag), info)
    return x


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


def halve_end_rows(m: TridiagonalMatrix) -> TridiagonalMatrix:
    """S m for S = diag(1/2, 1, ..., 1, 1/2): ``m`` with its first and last
    rows halved, exactly.  For the Neumann Laplacian L, S L and S (Id - cL)
    have equal sub- and super-diagonals."""
    lower, diag, upper = m.lower.copy(), m.diag.copy(), m.upper.copy()
    diag[[0, -1]] *= 0.5
    upper[0] *= 0.5
    lower[-1] *= 0.5
    return TridiagonalMatrix(lower, diag, upper)


def gradient_energy_values(values: np.ndarray, dx: float) -> float:
    """Midpoint-rule value of the squared-gradient integral.

    Uses edge differences so that <L f, f>_w == -gradient_energy_values(f, dx)
    exactly, which is what makes the dissipation identities testable to
    roundoff.
    """
    diffs = np.diff(values)
    return float((diffs @ diffs) / dx)
