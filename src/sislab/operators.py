"""Discrete Neumann Laplacian, the tridiagonal solves, and gradient energy.

The boundary rows use ghost-point reflection, which keeps rows summing to
zero exactly; combined with trapezoid weights this makes the operator
symmetric in the weighted inner product and makes discrete mass
conservation and summation-by-parts identities hold to machine precision.
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
    """``dgttrf``, ``dgttrs`` and ``dgtsv`` from scipy's compiled LAPACK wrappers.

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
    return lapack.dgttrf, lapack.dgttrs, lapack.dgtsv


dgttrf, dgttrs, dgtsv = _load_lapack(Path(scipy.__file__).parent / "linalg")


class TridiagonalSolveError(RuntimeError):
    """A pivot of the LU factorization fell below the safe threshold."""


def _check_pivots(u_diag: np.ndarray, info: int) -> None:
    """LAPACK flags only an exactly zero pivot (``info`` > 0, which leaves
    that 0 in ``u_diag``), so every pivot of U is checked against 1e-14."""
    small = np.flatnonzero(np.abs(u_diag) < 1e-14)
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

    def factor(self) -> "TridiagonalLU":
        """LU factorization with partial pivoting (LAPACK ``dgttrf``), for a
        matrix solved many times."""
        *factors, info = dgttrf(self.lower, self.diag, self.upper)
        lu = TridiagonalLU(*factors)
        _check_pivots(lu.d, info)
        return lu


class TridiagonalLU(NamedTuple):
    """The factors ``dgttrf`` returns, in LAPACK's names: the multipliers
    ``dl``, U's diagonal ``d`` and two superdiagonals ``du``/``du2``, and the
    row interchanges ``ipiv``."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray


def solve_factored(lu: TridiagonalLU, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs from A's factorization (LAPACK ``dgttrs``); an (n, K)
    ``rhs`` solves for its K columns in one call."""
    return dgttrs(*lu, rhs)[0]


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Solve A x = b in one LAPACK ``dgtsv`` call, for a matrix solved once:
    ``factor`` and ``solve_factored`` in one pass, with the same bits.  The
    four arrays are work space: contiguous float64 ones are overwritten, and
    x is returned in ``b``'s memory."""
    _, u_diag, _, x, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                  overwrite_du=1, overwrite_b=1)
    _check_pivots(u_diag, info)
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


def gradient_energy_values(values: np.ndarray, dx: float) -> float:
    """Midpoint-rule value of the squared-gradient integral.

    Uses edge differences so that <L f, f>_w == -gradient_energy_values(f, dx)
    exactly, which is what makes the dissipation identities testable to
    roundoff.
    """
    diffs = np.diff(values)
    return float((diffs @ diffs) / dx)
