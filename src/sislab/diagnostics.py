"""Per-snapshot monitored quantities: mass, Lyapunov values, Harnack ratio,
and the concentration metric for point-mass limits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import Field, incidence_quotient, quadrature, risk_signs, rmin_set
from .operators import gradient_energy_values

# radius of the window around the minimum set that the concentration
# diagnostic and the point-mass verdict measure
CONCENTRATION_RADIUS = 0.05


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    total_mass: float
    lyapunov: Optional[float]
    lyapunov_dissipation: Optional[float]
    harnack_ratio: Optional[float]
    concentration_fraction: Optional[float]
    sup_change_rate: float


def lyapunov_mass_action_di0(S: Field, I: Field, beta: Field, r: Field,
                             d_S: float) -> tuple[float, float]:
    """Energy V = int(S^2/2 + r*I) and its dissipation rate.

    Along the infected-locked mass-action flow, dV/dt equals minus the
    returned dissipation (gradient energy of S plus the weighted squared
    distance of S from the risk ratio on the infected set).
    """
    grid = S.grid
    Sv, Iv = S.values, I.values
    rv, bv = r.values, beta.values
    V = quadrature(grid, 0.5 * Sv * Sv + rv * Iv)
    dissipation = d_S * gradient_energy_values(Sv, grid.dx) \
        + quadrature(grid, bv * (Sv - rv) ** 2 * Iv)
    return V, dissipation


def lyapunov_std_ds0(S: Field, I: Field, beta: Field, gamma: Field,
                     d_I: float) -> tuple[float, float]:
    """Energy V = int(kappa*S^2 + I^2)/2 with kappa = (beta-gamma)/gamma.

    Only defined where transmission dominates recovery everywhere; rejects
    inputs with a low-risk node (``risk_signs(beta - gamma) < 0``).  The
    weight makes dV/dt = -dissipation an exact identity of the semi-discrete
    system; note the ratio is taken against gamma, which is what the
    dissipation form requires.
    """
    bv, gv = beta.values, gamma.values
    if (risk_signs(bv - gv) < 0).any():
        raise ValueError("this energy requires beta >= gamma at every node")
    grid = S.grid
    kappa = np.maximum(bv - gv, 0.0) / gv
    Sv, Iv = S.values, I.values
    V = 0.5 * quadrature(grid, kappa * Sv * Sv + Iv * Iv)
    reaction = incidence_quotient(gv * (kappa * Sv - Iv) ** 2 * Iv, Sv, Iv)
    dissipation = d_I * gradient_energy_values(Iv, grid.dx) + quadrature(grid, reaction)
    return V, dissipation


def lyapunov_std_di0(S: Field, I: Field, beta: Field, gamma: Field, d_S: float,
                     high_mask: np.ndarray) -> tuple[float, float, float, float]:
    """Energy V = int(S^2 + kappa*I^2)/2, kappa = gamma/(beta-gamma) on the
    high-risk infected support, and the three terms of its rate.

    Returns (V, gradient_term, lowrisk_term, highrisk_term) with
    dV/dt = -gradient_term + lowrisk_term - highrisk_term.  The low-risk
    term is sign-indefinite, so V need not decay monotonically.
    """
    grid = S.grid
    Sv, Iv = S.values, I.values
    bv, gv = beta.values, gamma.values
    kappa = np.zeros(grid.nx)
    kappa[high_mask] = gv[high_mask] / (bv[high_mask] - gv[high_mask])
    V = 0.5 * quadrature(grid, Sv * Sv + kappa * Iv * Iv)

    term_grad = d_S * gradient_energy_values(Sv, grid.dx)

    incidence = incidence_quotient(bv * Sv * Iv, Sv, Iv)
    low = np.where(high_mask, 0.0, Sv * (-incidence + gv * Iv))
    term_lowrisk = quadrature(grid, low)

    high = np.where(high_mask, incidence_quotient(
        np.maximum(bv - gv, 0.0) * (Sv - kappa * Iv) ** 2 * Iv, Sv, Iv), 0.0)
    term_highrisk = quadrature(grid, high)
    return V, term_grad, term_lowrisk, term_highrisk


def harnack_ratio(I: Field) -> Optional[float]:
    """max/min of a positive profile; None when the minimum is not positive."""
    lo = I.min()
    if lo <= 0:
        return None
    return I.max() / lo


def concentration_fraction(I: Field, min_indices) -> float:
    """Share of the infected mass within CONCENTRATION_RADIUS of the minimum set."""
    grid = I.grid
    Iv = I.values
    total = quadrature(grid, Iv)
    if total <= 0:
        raise ValueError("concentration fraction needs positive infected mass")
    centers = grid.nodes[np.asarray(min_indices, dtype=int)]
    mask = (np.abs(grid.nodes[:, None] - centers) <= CONCENTRATION_RADIUS).any(axis=1)
    return quadrature(grid, np.where(mask, Iv, 0.0)) / total


class DiagnosticsContext:
    """Per-run wiring, decided once from the variant: which energy, which
    component the Harnack ratio tracks, and the concentration target for
    point-mass limits."""

    def __init__(self, spec, I0: Field):
        variant = spec.variant
        self.harnack_on_s = variant.locks_i
        self.min_indices = None
        # (S, I) -> (V, dissipation rate), or None when the variant has no energy
        self.energy = None
        if variant.std_incidence:
            gap = spec.beta.values - spec.gamma.values
            if variant.locks_i:  # std_incidence_di0
                high_mask = (risk_signs(gap) > 0) & (I0.values > 0)

                def energy(S, I):
                    V, grad, low, high = lyapunov_std_di0(S, I, spec.beta, spec.gamma,
                                                          spec.d_S, high_mask)
                    return V, grad - low + high

                self.energy = energy
            elif not (risk_signs(gap) < 0).any():  # std_incidence_ds0 with beta >= gamma
                self.energy = lambda S, I: lyapunov_std_ds0(S, I, spec.beta, spec.gamma,
                                                            spec.d_I)
        elif variant.records_concentration:  # mass_action_di0
            r = spec.risk_ratio()
            _, self.min_indices = rmin_set(r, I0)
            self.energy = lambda S, I: lyapunov_mass_action_di0(S, I, spec.beta, r,
                                                                spec.d_S)

    def record(self, state, sup_change_rate: float) -> DiagnosticsRecord:
        S, I = state.S, state.I
        V, dissipation = (None, None) if self.energy is None else self.energy(S, I)
        conc = None
        if self.min_indices is not None and quadrature(I.grid, I.values) > 0:
            conc = concentration_fraction(I, self.min_indices)

        return DiagnosticsRecord(
            t=state.t,
            total_mass=state.total_mass(),
            lyapunov=V,
            lyapunov_dissipation=dissipation,
            harnack_ratio=harnack_ratio(S if self.harnack_on_s else I),
            concentration_fraction=conc,
            sup_change_rate=sup_change_rate,
        )
