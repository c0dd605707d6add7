"""Uniform 1D grid, grid functions, quadrature, and the risk partition."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .expressions import Expression


def _frozen(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [a, b] with composite-trapezoid quadrature weights.
    Grids are equal when their a, b and nx are, which fix all the rest."""

    a: float
    b: float
    nx: int
    dx: float = field(compare=False)
    nodes: np.ndarray = field(compare=False)
    weights: np.ndarray = field(compare=False)

    @property
    def length(self) -> float:
        """Measure of the domain, b - a."""
        return self.b - self.a


def build_grid(a: float, b: float, nx: int) -> Grid:
    if not math.isfinite(a) or not math.isfinite(b):
        raise ValueError(f"grid endpoints must be finite, got [{a}, {b}]")
    if b <= a:
        raise ValueError(f"right endpoint must exceed left endpoint, got [{a}, {b}]")
    if nx < 3:
        raise ValueError(f"need at least 3 nodes, got nx={nx}")
    nodes = np.linspace(a, b, nx)
    dx = (b - a) / (nx - 1)
    weights = np.full(nx, dx)
    weights[0] = weights[-1] = dx / 2
    return Grid(float(a), float(b), int(nx), float(dx), _frozen(nodes), _frozen(weights))


@dataclass(frozen=True)
class Field:
    """A real-valued grid function: ``Field(grid, value)`` takes a scalar, which
    is the constant field, or exactly one value per node.

    Nonnegativity is not enforced here; operations that require it
    (densities, rates) check it themselves.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape not in ((), (self.grid.nx,)):
            raise ValueError(f"field values of shape {arr.shape} are neither a scalar nor "
                             f"one value per node of a {self.grid.nx}-node grid")
        object.__setattr__(self, "values", _frozen(np.broadcast_to(arr, (self.grid.nx,))))

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    def mean(self) -> float:
        """Quadrature average over the domain."""
        return quadrature(self.grid, self.values) / self.grid.length


def eval_expression(grid: Grid, expr: str | Expression,
                    params: Mapping[str, float] | None = None) -> Field:
    """Evaluate a coefficient expression at every node of ``grid``."""
    if isinstance(expr, str):
        expr = Expression(expr)
    return Field(grid, expr.evaluate(grid.nodes, params))


def quadrature(grid: Grid, values: np.ndarray) -> float:
    """Composite-trapezoid approximation of the integral of nodal values over
    the domain."""
    return float(grid.weights @ values)


# Standard incidence beta*S*I/(S+I) is undefined where S + I = 0; it is taken
# as exactly 0 wherever S + I <= EPS_REG.
EPS_REG = 1e-12


def incidence_quotient(x: np.ndarray, S: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Nodewise x/(S+I) where S+I > EPS_REG and exactly 0 elsewhere: the one
    place standard incidence divides by the local population."""
    tot = S + I
    positive = tot > EPS_REG
    return np.where(positive, x / np.where(positive, tot, 1.0), 0.0)


def risk_signs(indicator: np.ndarray) -> np.ndarray:
    """+1/0/-1 at the high/moderate/low-risk nodes: the sign of the risk
    indicator, (N/|domain|)*beta - gamma under mass action and beta - gamma
    under standard incidence, taken as 0 within 1e-9 of its largest magnitude."""
    indicator = np.asarray(indicator, dtype=float)
    tol_zero = 1e-9 * float(np.abs(indicator).max())
    return np.where(np.abs(indicator) > tol_zero, np.sign(indicator), 0.0).astype(int)


def rmin_set(r: Field, I0: Field) -> tuple[float, np.ndarray]:
    """Minimum of the risk ratio over the support of I0, and where it is attained.

    Returns ``(r_min, indices)`` where the indices are restricted to the grid
    closure of the support (support nodes plus their immediate neighbours).
    The data are as ``models.check_initial_data`` passes them.
    """
    support = I0.values > 0
    r_min = float(r.values[support].min())
    tol_zero = 1e-9 * max(1.0, float(np.abs(r.values).max()))
    closure = support.copy()
    closure[1:] |= support[:-1]
    closure[:-1] |= support[1:]
    at_min = closure & (r.values <= r_min + tol_zero)
    return r_min, np.flatnonzero(at_min)


def common_grid(*fields: Field) -> Grid:
    """The grid that every one of ``fields`` lives on."""
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("fields live on different grids")
    return grid
