"""Map solved states onto the sextic oscillator with a centrifugal barrier.

The change of variables r = rho^2, theta = 2 phi turns the planar radial
problem into

    -1/2 zeta'' + (4 mt^2 - 1)/(8 rho^2) zeta + (2 omega_l mt - 4E) rho^2 zeta
    + 4k rho^4 zeta + 2 omega_l^2 rho^6 zeta = 4z zeta,

with mt = 2m and zeta(rho) = sqrt(rho) R(rho^2): each solved state is an
exact eigenstate of the sextic problem with eigenvalue exactly 4z.

:func:`sextic_residual` checks this as an exact polynomial identity, on no
grid; :func:`_rho_range` only sets the range of sampled values of zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DEFAULT_R_MIN, ENVELOPE_DECAY, ModelParams, QesState,
                    RadialGrid, _decay_cutoff, _scale_error)

__all__ = [
    "SexticState",
    "to_sextic",
    "sextic_wavefunction",
    "rho_grid_for",
    "sextic_residual",
    "DEFAULT_RHO_POINTS",
]

#: Default rho-grid size, dense enough for a second-difference residual to
#: resolve zeta's sqrt(rho) cusp at the origin (m = 0).
DEFAULT_RHO_POINTS = 16384
#: Largest :func:`sextic_residual` of an exact map: correct float maps read
#: at most 1.9e-14 at levels 1-200, and at k > 0 a 1e-6 relative shift of
#: one sextic coefficient or of the eigenvalue at least 4.6e-12.
MAX_SEXTIC_RESIDUAL = 3e-13


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


def _rho_range(params: ModelParams) -> tuple[float, float]:
    """(rho_min, rho_max): sqrt(DEFAULT_R_MIN), and where the mapped
    envelope falls below ENVELOPE_DECAY of its peak, the range of
    map-sextic's samples.  Raises DomainError when the envelope's peak
    rounds to 0 or the cutoff is not above sqrt(DEFAULT_R_MIN)."""
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
    return rho_min, rho_max


def rho_grid_for(params: ModelParams) -> RadialGrid:
    """DEFAULT_RHO_POINTS geometric rho points over :func:`_rho_range`."""
    return RadialGrid.geometric(*_rho_range(params), DEFAULT_RHO_POINTS)


def _map_defect(sextic: SexticState):
    """The coefficients t_i, i = 0 .. level + 3, of T(u) = u (H_sextic -
    eigenvalue) zeta / g in u = rho^2, and the sum of the absolute values
    of each one's terms.  With s = 2|m| + 1/2, delta = k/omega_l, g = rho^s
    exp(-omega_l rho^4/2 - delta rho^2), zeta = g sum_j q_j u^j (the
    state's factor; q_j = 0 outside 0 <= j < level, the norm constant left
    out) and C the centrifugal coefficient:

        t_i = (C - s(s-1)/2 - (2s+1) i - 2i(i-1)) q_i
              + ((2s+1) delta + 4 delta (i-1) - eigenvalue) q_{i-1}
              + (rho2 - 2 delta^2 + (2s+3) omega_l + 4 omega_l (i-2)) q_{i-2}
              + (rho4 - 4 omega_l delta) q_{i-3} + (rho6 - 2 omega_l^2) q_{i-4},

    all zero for an exact map.
    """
    params, level = sextic.source.params, sextic.source.level
    omega = float(params.omega_l)
    delta = float(params.k) / omega
    s = 2 * params.abs_m + 0.5
    i = np.arange(level + 4.0)
    half = 0.5 * s * (s - 1.0)
    c2 = (2.0 * s + 3.0) * omega - 2.0 * delta * delta
    d0 = (2.0 * s + 1.0) * i + 2.0 * i * (i - 1.0)
    d1 = (2.0 * s + 1.0 + 4.0 * (i - 1.0)) * delta
    d2 = 4.0 * omega * (i - 2.0)
    # q[4 + j] = q_j, so q[4 - k:][:level + 4] holds q_{i-k}.
    q = np.zeros(level + 8)
    q[4:level + 4] = sextic.source.poly
    t = (sextic.centrifugal_coeff - half - d0) * q[4:]
    t += (d1 - sextic.eigenvalue) * q[3:-1]
    t += (sextic.rho2_coeff + c2 + d2) * q[2:-2]
    t += (sextic.rho4_coeff - 4.0 * omega * delta) * q[1:-3]
    t += (sextic.rho6_coeff - 2.0 * omega * omega) * q[:-4]
    a = np.abs(q)
    terms = (abs(sextic.centrifugal_coeff) + abs(half) + d0) * a[4:]
    terms += (np.abs(d1) + abs(sextic.eigenvalue)) * a[3:-1]
    terms += (abs(sextic.rho2_coeff) + abs(c2) + np.abs(d2)) * a[2:-2]
    terms += (abs(sextic.rho4_coeff) + 4.0 * omega * abs(delta)) * a[1:-3]
    terms += (abs(sextic.rho6_coeff) + 2.0 * omega * omega) * a[:-4]
    return t, terms


def sextic_residual(sextic: SexticState, grid: RadialGrid | None = None) -> float:
    """The map's relative defect: the largest |t_i| of :func:`_map_defect`
    over the largest sum of the absolute values of the terms of one t_i, in
    O(level) work; ``grid`` is ignored.  One scale serves all t_i: a t_i
    whose terms all vanish (every other coefficient of a z = 0 state at
    k = 0) or cancel (deep monomial coefficients) holds only rounding."""
    t, terms = _map_defect(sextic)
    return float(np.max(np.abs(t))) / float(np.max(terms))
