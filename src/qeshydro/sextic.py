"""Map solved states onto the sextic oscillator with a centrifugal barrier.

The change of variables r = rho^2, theta = 2 phi turns the planar radial
problem into

    -1/2 zeta'' + (4 mt^2 - 1)/(8 rho^2) zeta + (2 omega_l mt - 4E) rho^2 zeta
    + 4k rho^4 zeta + 2 omega_l^2 rho^6 zeta = 4z zeta,

with mt = 2m and zeta(rho) = sqrt(rho) R(rho^2): each solved state is an
exact eigenstate of the sextic problem with eigenvalue exactly 4z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._polyops import kept
from .model import (DEFAULT_R_MIN, ENVELOPE_DECAY, ModelParams, QesState,
                    RadialGrid, _decay_cutoff, _fd_second_interior, _scale_error)

__all__ = [
    "SexticState",
    "to_sextic",
    "sextic_wavefunction",
    "rho_grid_for",
    "sextic_residual",
    "DEFAULT_RHO_POINTS",
]

#: Default rho-grid size.  The mapped wavefunction has a sqrt(rho) cusp at the
#: origin for m = 0, so the geometric grid must be dense enough that the
#: second-difference truncation error of the cusp stays inside the residual
#: budget; 16384 points balances that against eps/h^2 roundoff.
DEFAULT_RHO_POINTS = 16384


@dataclass(frozen=True)
class SexticState:
    """Sextic-oscillator problem solved exactly by one mapped state."""

    m_tilde: int
    centrifugal_coeff: float
    rho2_coeff: float
    rho4_coeff: float
    rho6_coeff: float
    eigenvalue: float
    source: QesState

    def __post_init__(self):
        if self.m_tilde != 2 * self.source.params.m:
            raise ValueError("m_tilde must equal 2 m of the source state")
        if not self.rho6_coeff > 0:
            raise ValueError("the sextic coefficient must be positive")
        if self.eigenvalue != 4.0 * self.source.z:
            raise ValueError("eigenvalue must equal exactly 4 z of the source")

    def to_dict(self) -> dict:
        return {
            "m_tilde": self.m_tilde,
            "coefficients": {
                "centrifugal": self.centrifugal_coeff,
                "rho2": self.rho2_coeff,
                "rho4": self.rho4_coeff,
                "rho6": self.rho6_coeff,
            },
            "eigenvalue": self.eigenvalue,
        }


def to_sextic(state: QesState) -> SexticState:
    """Populate the mapped problem's coefficients from a solved state."""
    params = state.params
    omega = float(params.omega_l)
    m_tilde = 2 * params.m
    return SexticState(
        m_tilde=m_tilde,
        centrifugal_coeff=(4.0 * m_tilde * m_tilde - 1.0) / 8.0,
        rho2_coeff=2.0 * omega * m_tilde - 4.0 * state.energy,
        rho4_coeff=4.0 * float(params.k),
        rho6_coeff=2.0 * omega * omega,
        eigenvalue=4.0 * state.z,
        source=state,
    )


def sextic_wavefunction(sextic: SexticState, rho):
    """Mapped wavefunction sqrt(rho) R(rho^2) on positive rho."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    return np.sqrt(rho) * sextic.source.radial_values(rho * rho)


def _log_zeta_envelope(params: ModelParams, rho: float) -> float:
    omega = float(params.omega_l)
    delta = float(params.k) / omega
    power = 2 * params.abs_m + 0.5
    return power * math.log(rho) - 0.5 * omega * rho**4 - delta * rho * rho


def rho_grid_for(params: ModelParams) -> RadialGrid:
    """Geometric rho grid of DEFAULT_RHO_POINTS points from sqrt(DEFAULT_R_MIN)
    to where the mapped envelope falls below ENVELOPE_DECAY of its peak.

    Raises DomainError when the envelope's peak rounds to 0 or the cutoff
    is not above sqrt(DEFAULT_R_MIN)."""
    power = 2 * params.abs_m + 0.5
    omega = float(params.omega_l)
    delta = float(params.k) / omega
    # Peak of the log envelope: power = 2 omega rho^4 + 2 delta rho^2.
    u_peak = (-delta + math.sqrt(delta * delta + 2.0 * omega * power)) / (2.0 * omega)
    if not u_peak > 0:
        raise _scale_error(params, "the mapped envelope's peak rounds to 0")
    rho_peak = math.sqrt(u_peak)
    target = _log_zeta_envelope(params, rho_peak) + math.log(ENVELOPE_DECAY)
    rho_max = _decay_cutoff(lambda rho: _log_zeta_envelope(params, rho),
                            rho_peak, target)
    rho_min = math.sqrt(DEFAULT_R_MIN)
    if not rho_max > rho_min:
        raise _scale_error(params, f"the mapped envelope decays before the grid "
                                   f"starts: rho_max = {rho_max!r} <= rho_min = {rho_min!r}")
    return RadialGrid.geometric(rho_min, rho_max, DEFAULT_RHO_POINTS)


def _sextic_potential(sextic: SexticState, grid: RadialGrid) -> np.ndarray:
    """The sextic potential at the interior points of the rho ``grid``.

    It depends only on the four coefficients, which all states of one level
    share, so one slot per grid keeps the most recent coefficients' values.
    """
    key = (sextic.centrifugal_coeff, sextic.rho2_coeff, sextic.rho4_coeff,
           sextic.rho6_coeff)

    def potential():
        _, rho4, rho6 = grid._rho_powers
        inner = slice(1, -1)
        rho = grid.points[inner]
        return (
            sextic.centrifugal_coeff / grid._squares[inner]
            + sextic.rho2_coeff * rho * rho
            + sextic.rho4_coeff * rho4[inner]
            + sextic.rho6_coeff * rho6[inner]
        )

    return kept(grid.__dict__, "_sextic_potential_slot", key, potential)


def sextic_residual(sextic: SexticState, grid: RadialGrid | None = None) -> float:
    """Max relative finite-difference residual of the sextic equation.

    Interior maximum of |(H_sextic - 4z) zeta| scaled by max(|4z zeta|,
    machine floor), mirroring the radial verification convention.  The
    powers of rho, the stencil and the envelope are those the grid keeps.
    zeta is built in place, and the residual in one buffer with one work
    buffer, both made per call, so concurrent calls share no buffer.  Each
    element is -zeta''/2 + V zeta - 4z zeta, summed left to right, with
    zeta''s stencil terms in the order of :func:`_fd_second_interior`.
    """
    source = sextic.source
    grid = rho_grid_for(source.params) if grid is None else grid
    if len(grid) - 2 < 32:
        raise ValueError("rho grid too coarse: need at least 32 interior points")
    # zeta = sqrt(rho) R(rho^2) = sqrt(rho) ((c P(rho^2)) envelope(rho^2)).
    zeta = source.polynomial_values(grid._squares)
    zeta *= source.norm_constant
    zeta *= grid._envelope_samples(source.params, squared=True)
    zeta *= grid._rho_powers[0]
    peak = float(np.max(np.abs(zeta)))
    inner = zeta[1:-1]
    work = np.empty_like(inner)
    residual = _fd_second_interior(grid, zeta, np.empty_like(inner), work)
    residual *= -0.5
    residual += np.multiply(_sextic_potential(sextic, grid), inner, out=work)
    residual -= np.multiply(sextic.eigenvalue, inner, out=work)
    floor = float(np.finfo(float).eps) * peak
    scale = max(abs(sextic.eigenvalue) * peak, floor, 1e-300)
    return float(np.max(np.abs(residual, out=residual))) / scale
