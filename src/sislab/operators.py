"""Discrete Neumann Laplacian, the tridiagonal solves, and gradient energy.

The boundary rows use ghost-point reflection, which keeps rows summing to
zero exactly; combined with trapezoid weights this makes the operator
symmetric in the weighted inner product and makes discrete mass
conservation and summation-by-parts identities hold to machine precision.
The same symmetry holds entrywise once the two end rows are halved, which
is exact in floating point: with S = diag(1/2, 1, ..., 1, 1/2), the
trapezoid weights over dx, S L is symmetric tridiagonal, and that is the
form ``neumann_laplacian`` returns.  Every matrix sislab solves is S times
a matrix built on L, symmetric and, where a solution is wanted, positive
definite: a Crank-Nicolson matrix S (Id - cL), a shifted eigen matrix
S (shift*W - d*L - h), and the fixed-node block -S (d*L + h - tau) of the
threshold completion.  So there is one factorization, L D L^T without
pivoting, whose pivot check also tells a matrix that is not definite:
``factor_symmetric`` and ``solve_factored`` for a matrix solved many times,
and ``solve_tridiagonal`` for one solved once.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy  # its __init__ runs first: some builds set up library paths there

from .mesh import Grid


def _load_lapack(folder: Path):
    """``dpttrf``, ``dpttrs`` and ``dptsv`` from scipy's compiled LAPACK wrappers.

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
    return lapack.dpttrf, lapack.dpttrs, lapack.dptsv


dpttrf, dpttrs, dptsv = _load_lapack(Path(scipy.__file__).parent / "linalg")


class TridiagonalSolveError(RuntimeError):
    """A pivot of the factorization fell below the safe threshold."""


def _check_pivots(d: np.ndarray, info: int) -> None:
    """LAPACK flags only a pivot of D that stops the factorization (``info``
    > 0: a non-positive one, left in ``d``), so every pivot is checked
    against 1e-14."""
    small = np.flatnonzero(d < 1e-14)
    if info or small.size:
        raise TridiagonalSolveError(f"pivot {small[0]} below 1e-14")


class SymmetricTridiagonal(NamedTuple):
    """The symmetric tridiagonal matrix with diagonal ``diag`` and both
    off-diagonals ``off``.  ``matvec`` broadcasts them over the rows of a
    (K, n) array."""

    diag: np.ndarray   # length n
    off: np.ndarray    # length n-1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for an (n,) vector, or for every row of a (K, n) array."""
        out = self.diag * v
        out[..., :-1] += self.off * v[..., 1:]
        out[..., 1:] += self.off * v[..., :-1]
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


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b in one LAPACK ``dptsv`` call, for a matrix solved once:
    the bits of ``factor_symmetric`` followed by ``solve_factored``, with the
    same pivot check.  The three arrays are work space: contiguous float64
    ones are overwritten, and x is returned in ``b``'s memory."""
    d, _, x, info = dptsv(diag, off, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    _check_pivots(d, info)
    return x


def neumann_laplacian(grid: Grid) -> SymmetricTridiagonal:
    """S L: the second-order Laplacian L with reflecting (zero-flux)
    boundary rows, times S = diag(1/2, 1, ..., 1, 1/2).  L u is S L u with
    its two end entries doubled, which is exact, so it has the bits of the
    unhalved product."""
    inv_dx2 = 1.0 / grid.dx**2
    diag = np.full(grid.nx, -2.0 * inv_dx2)
    diag[[0, -1]] = -inv_dx2
    return SymmetricTridiagonal(diag, np.full(grid.nx - 1, inv_dx2))


def gradient_energy_values(values: np.ndarray, dx: float) -> float:
    """Midpoint-rule value of the squared-gradient integral.

    Uses edge differences so that <L f, f>_w == -gradient_energy_values(f, dx)
    exactly, which is what makes the dissipation identities testable to
    roundoff.
    """
    diffs = np.diff(values)
    return float((diffs @ diffs) / dx)
