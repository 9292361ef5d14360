"""Independent checks on solved states: operator residuals, normalization,
node counts, cross-method agreement, and scaling audits."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import series, sl2
from ._polyops import _polyval_sets, as_half_integer, is_exact, polyval
from .model import (
    DEFAULT_GRID_POINTS,
    QesState,
    RadialGrid,
    _interior_residual,
    _simpson,
)

__all__ = [
    "VerificationReport",
    "verify_state",
    "cross_validate",
    "scaling_audit",
    "count_nodes",
    "residual_convergence_ratio",
]


#: The largest scaled residual and normalization error :func:`verify_state`
#: passes.
MAX_RESIDUAL = 1e-5
MAX_NORM_ERROR = 1e-8
#: The highest level :func:`cross_validate` takes.
MAX_CROSS_LEVEL = 13
#: The largest route difference :func:`cross_validate` passes, and the largest
#: relative error :func:`scaling_audit` passes.
MAX_ROUTE_DELTA = 1e-9
MAX_SCALING_DELTA = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run; unset metrics are None."""

    state_label: str
    max_residual: float | None = None
    norm_error: float | None = None
    node_count: int | None = None
    cross_method_delta: float | None = None
    cross_energy_delta: float | None = None
    cross_poly_delta: float | None = None
    passed: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {"state": self.state_label}
        for key in (
            "max_residual",
            "norm_error",
            "node_count",
            "cross_method_delta",
            "cross_energy_delta",
            "cross_poly_delta",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["passed"] = self.passed
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _state_label(state: QesState) -> str:
    p = state.params
    return (
        f"level={state.level} m={p.m} omega_l={p.omega_l:.12g} "
        f"k={p.k:.12g} z={state.z:.12g}"
    )


def _sign_changes(values: np.ndarray) -> int:
    """Sign changes along ``values``, skipping exact zeros."""
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] != signs[1:]))


#: Points of the sign scan of :func:`count_nodes` on (0, r_max].
_NODE_MESH_POINTS = 4096


def count_nodes(poly, r_max: float) -> int:
    """Sign changes of the polynomial factor on (0, r_max]; 0 for a
    constant.

    A sign scan over ``_NODE_MESH_POINTS`` equally spaced points from
    r_max / _NODE_MESH_POINTS to r_max: roots closer together, or closer
    to 0, than that spacing are not resolved.  It takes any polynomial,
    so it cannot count coefficient signs as :func:`verify_state` does: a
    cubic with three zeros in (0, 5) times ``1 + r + r**2`` has 5 sign
    changes and 3 positive zeros, and ``(2, -3, 1)`` has 2 but 1 node on
    (0, 1.5].
    """
    coeffs = [float(c) for c in poly]
    degree = len(coeffs) - 1
    while degree > 0 and coeffs[degree] == 0.0:
        degree -= 1
    if degree <= 0:
        return 0
    mesh = np.linspace(r_max / _NODE_MESH_POINTS, r_max, _NODE_MESH_POINTS)
    return _sign_changes(polyval(coeffs, mesh))


def _norm_estimate(state: QesState, grid: RadialGrid, samples: np.ndarray,
                   head_poly: np.ndarray) -> float:
    """Simpson norm on the grid plus endpoint tail estimates, from the
    state's ``samples`` on the grid points and its polynomial factor
    ``head_poly`` at the grid's head nodes on [0, r_min]."""
    r = grid.points
    density = samples ** 2 * r
    total = float(_simpson(density, r, grid._simpson_weights))

    s, half, weights = grid._state_points
    head_values = state.norm_constant * head_poly * state.params.envelope(s)
    head = float(half * np.sum(weights * (head_values ** 2 * s)))

    # Beyond r_max the density is dominated by a decaying exponential whose
    # local rate includes the polynomial/power growth; bound the tail by a
    # single exponential majorant.
    p = state.params
    degree = state.level - 1
    r_max = grid.r_max
    rate = (
        2.0 * float(p.omega_l) * r_max
        + 2.0 * float(p.k) / float(p.omega_l)
        - (2.0 * p.abs_m + 1.0 + 2.0 * degree) / r_max
    )
    rate = max(rate, float(p.omega_l) * r_max)
    tail = float(density[-1]) / rate
    return total + head + tail


def verify_state(state: QesState, grid: RadialGrid | None = None) -> VerificationReport:
    """Residual, normalization, and node-count report for one state, on
    ``grid`` or the default grid of the state's parameters.

    The residual is the interior maximum of |(H - E) R| scaled by
    max(|E R|, machine floor) over the grid, from the interior kernel of
    :func:`radial_operator_apply` alone; normalization error is the
    deviation of the Simpson-plus-tails norm from one.  They pass within
    :data:`MAX_RESIDUAL` and :data:`MAX_NORM_ERROR`.  The node count is the sign changes
    of the float coefficients, zeros skipped: by Descartes' rule, every
    positive zero of a factor whose zeros are real and simple, as both
    routes' are (Stieltjes), when each coefficient is accurate relative to
    its own size.

    The polynomial factor is evaluated once on each of two point sets,
    each alone: the grid points and the head nodes of the norm.  Below 16
    coefficients (levels up to 15) that is Horner's rule, so the residual
    and norm are the ones earlier versions gave, byte for byte.  From 16
    coefficients it is :func:`polyval`'s blocked evaluation, within
    Horner's error bound ``2 D eps sum_i |a_i| |x|**i``, with the powers of
    the two sets built once for the most recent grid; a block product's
    bits can depend on the size of its array, so evaluating each set alone
    keeps the samples on the grid points
    ``state.radial_values(grid.points)``, bit for bit.
    """
    params = state.params
    grid = RadialGrid.for_params(params) if grid is None else grid
    coeffs = np.array(state.poly, dtype=float)
    if not (np.abs(coeffs) > 0).any():
        raise ValueError("state has an identically zero polynomial factor")

    on_grid, on_head = _polyval_sets(state.poly, grid,
                                     (grid.points, grid._state_points[0]))

    samples = state.norm_constant * on_grid * grid._envelope_samples(params)
    residual = _interior_residual(params, state.z, state.energy, grid, samples)
    peak = float(np.max(np.abs(samples)))
    floor = float(np.finfo(float).eps) * peak
    scale = max(abs(state.energy) * peak, floor, 1e-300)
    max_residual = float(np.max(np.abs(residual, out=residual))) / scale

    norm_error = abs(_norm_estimate(state, grid, samples, on_head) - 1.0)
    nodes = _sign_changes(coeffs)

    passed = max_residual <= MAX_RESIDUAL and norm_error <= MAX_NORM_ERROR
    return VerificationReport(
        state_label=_state_label(state),
        max_residual=max_residual,
        norm_error=norm_error,
        node_count=nodes,
        passed=passed,
    )


def residual_convergence_ratio(state: QesState) -> float:
    """Ratio of max residuals on the default grid and its 2x refinement."""
    coarse = verify_state(state)
    fine = verify_state(
        state, RadialGrid.for_params(state.params, n=2 * DEFAULT_GRID_POINTS))
    return coarse.max_residual / fine.max_residual


def cross_validate(j, m: int, omega_l, k) -> VerificationReport:
    """Solve by both routes and compare matched roots.

    Roots are matched in sorted order (the minimal-distance assignment for
    two sorted real sequences).  A series that fails to terminate, a
    root-count mismatch after reality filtering, and no real roots on
    either route are reported as failures, not raised.

    The routes agree when every difference is within
    :data:`MAX_ROUTE_DELTA`.  The report's notes are the algebraic route's
    ``Level.notes``, then the series route's (on a failure to terminate,
    the error's ``__notes__``), then the failure, if any.

    The algebraic states come from :func:`sl2.solve_admissible_z`, which
    keeps its most recent solve in one slot; so a solve followed by this
    check on the same set runs the algebraic route once.  Both routes'
    parameter sets share the set's ``r_max`` and norm quadrature by value.
    """
    jf = as_half_integer(j)
    level = int(2 * jf) + 1
    if level > MAX_CROSS_LEVEL:
        raise ValueError("cross_validate is intended for levels up to "
                         f"{MAX_CROSS_LEVEL}")
    algebra = sl2.solve_admissible_z(jf, m, omega_l, k)
    label = f"j={jf} m={m} omega_l={float(omega_l):.12g} k={float(k):.12g}"
    try:
        power = series.solve_series_states(level, m, omega_l, k)
    except RuntimeError as exc:  # the series failed to terminate
        notes = algebra.notes + tuple(getattr(exc, "__notes__", ()))
        failure = str(exc)
    else:
        notes, failure = algebra.notes + power.notes, None
        if len(algebra) != len(power):
            failure = (f"root-count mismatch: {len(algebra)} from the algebraic "
                       f"route, {len(power)} from the series route")
        elif not algebra:
            failure = "both routes returned no real roots"
    if failure is not None:
        return VerificationReport(label, passed=False, notes=notes + (failure,))

    dz = max(abs(a.z - b.z) for a, b in zip(algebra, power))
    de = max(abs(a.energy - b.energy) for a, b in zip(algebra, power))
    dp = max(max(abs(ca - cb) for ca, cb in zip(a.poly, b.poly))
             for a, b in zip(algebra, power))
    return VerificationReport(label, cross_method_delta=dz, cross_energy_delta=de,
                              cross_poly_delta=dp,
                              passed=max(dz, de, dp) <= MAX_ROUTE_DELTA, notes=notes)


def scaling_audit(j, m: int, omega_l, k, lam) -> VerificationReport:
    """Check the covariance (omega_l, k) -> (lam^2 omega_l, lam^3 k).

    Every admissible strength must scale by lam and every energy by lam^2,
    with the ascending ordering preserved, to :data:`MAX_SCALING_DELTA`.
    """
    jf = as_half_integer(j)
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if is_exact(omega_l) and is_exact(k) and is_exact(lam):
        lam_f = Fraction(lam)
        scaled_omega, scaled_k = lam_f**2 * Fraction(omega_l), lam_f**3 * Fraction(k)
    else:
        lam_f = float(lam)
        scaled_omega, scaled_k = lam_f**2 * float(omega_l), lam_f**3 * float(k)
    label = (f"j={jf} m={m} omega_l={float(omega_l):.12g} k={float(k):.12g} "
             f"lambda={float(lam):.12g}")

    base = sl2.solve_admissible_z(jf, m, omega_l, k)
    scaled = sl2.solve_admissible_z(jf, m, scaled_omega, scaled_k)
    if len(base) != len(scaled):
        return VerificationReport(label, passed=False, notes=(
            f"root-count mismatch under scaling: {len(base)} vs {len(scaled)}",))

    lam_v = float(lam)

    def rel(a: float, b: float) -> float:
        if a == b:
            return 0.0
        return abs(a - b) / max(abs(a), abs(b), 1e-30)

    dz = max(rel(s.z, lam_v * b.z) for s, b in zip(scaled, base))
    de = max(rel(s.energy, lam_v * lam_v * b.energy) for s, b in zip(scaled, base))
    return VerificationReport(label, cross_method_delta=dz, cross_energy_delta=de,
                              passed=max(dz, de) <= MAX_SCALING_DELTA)
