"""Physical parameters, solved states, radial grids, and the radial operator.

Parameters, states and grids are immutable after construction.  What depends
only on a grid (the weights of the residual stencil, the squares of its
points, its Simpson weights times the points, the head nodes of
verification's norm) is memoised on that grid.  One-entry slots keep, on a
grid, the envelope sampled on it for the most recent (omega_l, k, |m|) and
``V - E`` without the Coulomb term for the most recent (omega_l, k, m, E),
and in this module ``r_max`` and the quadrature of
:func:`l2_norm_constants` for the most recent (omega_l, k, |m|): every
:class:`ModelParams` of a set shares them by value.  A memo is a pure
function of immutable data, and a slot is read once and replaced by one
assignment (``_polyops.kept``), so evaluating concurrently over grids and
parameter sets stays safe.
The interior of (H - E) R has one kernel, :func:`_interior_residual`, in
difference form, which :func:`radial_operator_apply` and ``verify_state``
share: every element gets the same operations in the same order, in
buffers reused in place.  Every grid of :meth:`RadialGrid.for_params`
starts at DEFAULT_R_MIN.  The norm quadrature squares each state's values
scaled by a power of two, so finite values do not overflow there.

Conventions (atomic units throughout):

* the radial Hamiltonian is
  ``-1/2 d^2/dr^2 - 1/(2r) d/dr + omega_l^2 r^2 / 2 + k r + omega_l m
  - z/r + m^2/(2 r^2)``,
* bound radial functions factor as ``P(r) * r^|m| * exp(-omega_l r^2 / 2
  - (k/omega_l) r)`` with a polynomial ``P``,
* states are normalized in L2((0, inf), r dr) with ``P(0) = 1`` before the
  overall normalization constant is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._polyops import (_BLOCK, DomainError, _block_powers, _polyval_blocks, allocated,
                       bisect, check_level, check_m, coerce_couplings, kept,
                       polyval)

#: Default grid controls.  The spacing floor guards the second-difference
#: stencil against float cancellation: without it a geometric grid reaches
#: h ~ 2e-6 near r_min where eps/h^2 noise would swamp the residual budget.
DEFAULT_GRID_POINTS = 4096
DEFAULT_R_MIN = 1e-3
ENVELOPE_DECAY = 1e-12
_SPACING_FLOOR_AT_DEFAULT = 1.25e-4
#: Gauss-Legendre nodes of the norm's head on [0, r_min].
_HEAD_NODES = 16


class GridError(ValueError):
    """The supplied radial grid is unfit for the requested operation."""


@dataclass(frozen=True)
class ModelParams:
    """Couplings and quantum number of the planar model; the Coulomb
    strength is the spectral unknown, so each state carries its own."""

    omega_l: float
    k: float
    m: int

    def __post_init__(self):
        coerce_couplings(self.omega_l, self.k)
        check_m(self.m)

    @property
    def abs_m(self) -> int:
        return abs(self.m)

    def envelope(self, r):
        """Normalizable envelope r^|m| exp(-omega_l r^2/2 - (k/omega_l) r)."""
        r = np.asarray(r, dtype=float)
        omega = float(self.omega_l)
        delta = float(self.k) / omega
        return r**self.abs_m * np.exp(-0.5 * omega * r * r - delta * r)

    def log_envelope(self, r: float) -> float:
        """log of the envelope; requires r > 0 when m != 0."""
        omega = float(self.omega_l)
        delta = float(self.k) / omega
        power = self.abs_m * math.log(r) if self.abs_m else 0.0
        return power - 0.5 * omega * r * r - delta * r


def level_energy(level: int, m: int, omega_l, k):
    """Energy of the level-n terminating solution:
    omega_l (n + |m| + m) - k^2 / (2 omega_l^2).

    Exact (Fraction) when omega_l and k are rational.
    """
    if check_level(level) == 0:
        raise DomainError(
            "level must be >= 1: the terminating series admits no level-0 "
            "(ground) state"
        )
    m = check_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    return omega * (level + abs(m) + m) - kk * kk / (2 * omega * omega)


@dataclass(frozen=True)
class QesState:
    """One solved state of the quasi-exactly solvable family.

    ``poly`` holds the coefficients (ascending powers) of the polynomial
    factor with ``poly[0] = 1``; ``norm_constant`` makes the reconstructed
    radial function unit-norm in L2(r dr).
    """

    level: int
    z: float
    energy: float
    poly: tuple[float, ...]
    norm_constant: float
    params: ModelParams

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if len(self.poly) != self.level:
            raise ValueError(
                f"poly must have level={self.level} coefficients, "
                f"got {len(self.poly)}"
            )
        if not self.norm_constant > 0:
            raise ValueError("norm_constant must be positive")
        expected = float(level_energy(self.level, self.params.m,
                                      self.params.omega_l, self.params.k))
        if abs(self.energy - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(
                f"energy {self.energy} inconsistent with level {self.level}"
            )

    @property
    def j(self) -> float:
        """The spin label of the level, (level - 1) / 2."""
        return 0.5 * (self.level - 1)

    def polynomial_values(self, r):
        return np.asarray(polyval(self.poly, np.asarray(r, dtype=float)))

    def radial_values(self, r):
        """Normalized radial function R(r) on positive radii."""
        r = np.asarray(r, dtype=float)
        return self.norm_constant * self.polynomial_values(r) * self.params.envelope(r)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "j": self.j,
            "z": self.z,
            "energy": self.energy,
            "poly": list(self.poly),
            "norm_constant": self.norm_constant,
        }

    @classmethod
    def from_dict(cls, data: dict, params: ModelParams) -> "QesState":
        """The state of a :meth:`to_dict` dictionary; its ``j`` must be
        (level - 1) / 2."""
        state = cls(
            level=int(data["level"]),
            z=float(data["z"]),
            energy=float(data["energy"]),
            poly=tuple(float(c) for c in data["poly"]),
            norm_constant=float(data["norm_constant"]),
            params=params,
        )
        if float(data["j"]) != state.j:
            raise ValueError(f"j {data['j']!r} inconsistent with level "
                             f"{state.level}: expected {state.j!r}")
        return state


class Level(list):
    """A solver's result for one level: its states, ascending in strength,
    as a list, and ``notes``, a tuple of strings naming what the solve
    dropped or doubted (complex roots, eigenvector defects), in the order
    the solve met them."""

    def __init__(self, states=(), notes=()):
        super().__init__(states)
        self.notes = tuple(notes)


def level_states(params: ModelParams, level: int, energy: float, strengths,
                 polys, notes) -> Level:
    """The :class:`Level` of ``params`` with the solve's ``notes``: one state
    per polynomial factor in ``polys``, with the strength at its place in
    ``strengths`` and the level's ``energy``, normalised together by
    :func:`l2_norm_constants`, whose errors it raises before any state is
    built."""
    norms = l2_norm_constants(params, polys)
    return Level((QesState(level=level, z=float(z), energy=energy,
                           poly=poly, norm_constant=norm, params=params)
                  for z, poly, norm in zip(strengths, polys, norms)), notes)


def envelope_r_max(params: ModelParams) -> float:
    """Radius where the envelope has fallen below ENVELOPE_DECAY of its peak.

    Overshoots the crossing by half a decade so the bound holds strictly on
    any grid that ends there.  Raises DomainError when m != 0 and the
    envelope's peak radius rounds to 0.
    """
    omega = float(params.omega_l)
    delta = float(params.k) / omega
    am = params.abs_m
    if am == 0:
        r_peak, log_peak = 0.0, 0.0
    else:
        r_peak = (-delta + math.sqrt(delta * delta + 4.0 * omega * am)) / (2.0 * omega)
        if not r_peak > 0:
            raise _scale_error(params, "the envelope's peak radius rounds to 0")
        log_peak = params.log_envelope(r_peak)
    target = log_peak + math.log(ENVELOPE_DECAY) - 0.5 * math.log(10.0)
    return _decay_cutoff(params.log_envelope, max(r_peak, 1e-12), target)


#: (key, (r_max, norm rule)) of the most recent (omega_l, k, |m|).
_last_set = None


def _set_constants(params: ModelParams):
    """``r_max`` (:func:`envelope_r_max`) and the norm rule of ``params``:
    the 256-point Gauss-Legendre rule on [0, r_max] (half-width, weights,
    nodes), the envelope at its nodes and a call that gives the nodes'
    block powers (``_polyops._block_powers``), made once when a factor of
    16 or more coefficients first needs them.  Both depend on (omega_l, k,
    |m|) alone, so a :func:`kept` slot keyed by them as floats holds them."""
    def compute():
        r_max = envelope_r_max(params)
        half, weights, nodes = _gauss_rule(0.0, r_max, 256)
        # A non-finite envelope is raised as l2_norm_constants' error, so
        # numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            return r_max, (half, weights, nodes, params.envelope(nodes),
                           cache(lambda: _block_powers(nodes)))

    key = (float(params.omega_l), float(params.k), params.abs_m)
    return kept(globals(), "_last_set", key, compute)


def _scale_error(params: ModelParams, cause: str) -> DomainError:
    """DomainError naming ``cause``, a length scale of ``params`` that
    double precision or the grid cannot resolve, and the couplings."""
    return DomainError(
        f"{cause} at omega-l = {float(params.omega_l)!r}, "
        f"k = {float(params.k)!r}, m = {params.m}"
    )


def _decay_cutoff(log_envelope, start: float, target: float) -> float:
    """Upper end of the bisected bracket where a decaying ``log_envelope``
    falls to ``target`` past ``start``; ``start + 1`` doubles to bracket it."""
    hi = start + 1.0
    while log_envelope(hi) > target:
        hi *= 2.0
    return bisect(lambda r: log_envelope(r) > target, start, hi)[1]


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing positive radii.

    ``points`` is a read-only copy of the radii passed in, so the arrays
    derived from it and kept on the grid cannot go stale.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise GridError("grid needs at least 3 points")
        if pts[0] <= 0:
            raise GridError("radii must be positive")
        if not np.all(np.diff(pts) > 0):
            raise GridError("radii must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @property
    def r_min(self) -> float:
        return float(self.points[0])

    @property
    def r_max(self) -> float:
        return float(self.points[-1])

    @cached_property
    def _squares(self) -> np.ndarray:
        """x * x at every point."""
        return self.points * self.points

    @cached_property
    def _stencil(self):
        """The weights ``a`` and ``b`` of :func:`_interior_residual` at the
        interior points: ``(hm + hm^2/(2x))/D`` and ``(hp - hp^2/(2x))/D``
        with ``D = hm hp (hm + hp)``, so that the centered ``-f''/2 -
        f'/(2x)`` is ``b (f_i - f_{i-1}) - a (f_{i+1} - f_i)``."""
        x = self.points
        hm = x[1:-1] - x[:-2]
        hp = x[2:] - x[1:-1]
        denom = hm * hp * (hm + hp)
        twice = 2.0 * x[1:-1]
        return (hm + hm * hm / twice) / denom, (hp - hp * hp / twice) / denom

    @cached_property
    def _norm_weights(self):
        """The composite Simpson weights of the points
        (:func:`_simpson_weights`), each times its point: the rule's weights
        for ``|R|^2`` under the ``r dr`` measure."""
        x = self.points
        stop, (width, c0, c1, c2), end = _simpson_weights(x)
        weights = np.zeros_like(x)
        weights[0:stop:2] += width * c0
        weights[1:stop + 1:2] += width * c1
        weights[2:stop + 2:2] += width * c2
        if end is not None:
            alpha, beta, eta = end
            weights[-3:] += (-eta, beta, alpha)
        weights *= x
        return weights

    @cached_property
    def _state_points(self):
        """The Gauss-Legendre head nodes on [0, r_min], where verification
        evaluates a state's polynomial factor besides the grid points; with
        the rule's half-width and weights."""
        half, weights, head = _gauss_rule(0.0, self.r_min, _HEAD_NODES)
        head.setflags(write=False)
        return head, half, weights

    def _envelope_samples(self, params: ModelParams) -> np.ndarray:
        """``params.envelope`` at the points, in one slot per grid for the
        most recent (omega_l, k, |m|): a parameter set's states share it."""
        key = (float(params.omega_l), float(params.k), params.abs_m)
        return kept(self.__dict__, "_envelope_slot", key,
                    lambda: params.envelope(self.points))

    @classmethod
    def uniform(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        return cls(np.linspace(r_min, r_max, n))

    @classmethod
    def geometric(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        return cls(np.geomspace(r_min, r_max, n))

    @classmethod
    def for_params(cls, params: ModelParams, n: int = DEFAULT_GRID_POINTS) -> "RadialGrid":
        """Default grid: n points from DEFAULT_R_MIN, geometric spacing with
        a roundoff floor.

        r_max is adaptive (:func:`envelope_r_max`).  The local step is
        max(growth * r, floor) with floor scaled so that refining the
        point count refines the floor proportionally; this keeps the
        finite-difference residual second-order under grid doubling while
        bounding eps/h^2 roundoff near the origin.  Raises DomainError when
        r_max is not above DEFAULT_R_MIN, or too close to it for n distinct
        radii, and when the n points cannot be allocated; GridError when
        n < 3.  As |m| <= 2**53, m**2/(2 r**2) is below 4.1e37 on the grid.
        """
        if n < 3:
            raise GridError("grid needs at least 3 points")
        r_min, r_max = DEFAULT_R_MIN, _set_constants(params)[0]
        if not r_max > r_min:
            raise _scale_error(params, f"the envelope decays before the grid "
                                       f"starts: r_max = {r_max!r} <= r_min = {r_min!r}")
        floor = _SPACING_FLOOR_AT_DEFAULT * (DEFAULT_GRID_POINTS / n)
        pts = allocated(lambda: _floored_geometric(r_min, r_max, n, floor),
                        f"grid of {n} points needs {n} doubles", n)
        if not np.all(pts[1:] > pts[:-1]):
            raise _scale_error(params, f"r_min = {r_min!r} and r_max = {r_max!r} "
                                       f"are too close for n = {n} distinct radii")
        return cls(pts)


def _floored_geometric(r_min: float, r_max: float, n: int, floor: float) -> np.ndarray:
    if (n - 1) * floor >= (r_max - r_min):
        return np.linspace(r_min, r_max, n)

    def uniform_steps(g: float) -> int:
        if g * r_min >= floor:
            return 0
        return min(n - 1, max(0, math.ceil((floor / g - r_min) / floor)))

    def end(g: float) -> float:
        n1 = uniform_steps(g)
        return (r_min + n1 * floor) * (1.0 + g) ** (n - 1 - n1)

    g_lo, g_hi = bisect(lambda g: end(g) < r_max, 1e-16,
                        (r_max / r_min) ** (1.0 / (n - 1)) - 1.0)
    g = 0.5 * (g_lo + g_hi)
    n1 = uniform_steps(g)
    head = r_min + floor * np.arange(n1 + 1)
    tail = head[-1] * (1.0 + g) ** np.arange(1, n - n1)
    pts = np.concatenate([head, tail])
    pts[-1] = r_max
    return pts


def _simpson_weights(x: np.ndarray):
    """The factors of the composite Simpson rule on strictly increasing,
    irregular ``x`` of at least three points (as every RadialGrid is): the
    panel stop, the panel factors of the parabolic panels over pairs of
    intervals and, for an even point count, Cartwright's (2017) correction
    of the last interval.  Their operations and order are those of the
    common reference implementation."""
    h = np.diff(x)
    stop = x.size - 2 if x.size % 2 else x.size - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    panels = (hsum / 6.0, 2.0 - 1.0 / h0divh1, hsum * (hsum / (h0 * h1)),
              2.0 - h0divh1)
    end = None
    if x.size % 2 == 0:
        # 0-d arrays, not scalars: numpy's array power loop may round b**3
        # differently from the scalar one, and the reference uses arrays.
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        end = ((2 * b**2 + 3 * a * b) / (6 * (b + a)),
               (b**2 + 3.0 * a * b) / (6 * a),
               b**3 / (6 * a * (a + b)))
    return stop, panels, end


def _potential_less_energy(params: ModelParams, energy, grid: RadialGrid):
    """``V - E`` without the Coulomb term at the grid points, ``0.5
    omega_l^2 x^2 + k x + omega_l m + 0.5 m^2 / x^2 - E``, kept on the grid
    for the most recent (omega_l, k, m, E): the states of a level share
    it."""
    omega, k, m, x = float(params.omega_l), float(params.k), params.m, grid.points
    e = float(energy)
    return kept(grid.__dict__, "_potential_slot", (omega, k, m, e), lambda: (
        0.5 * omega * omega * x * x + k * x + omega * m
        + 0.5 * m * m / grid._squares - e))


def _interior_residual(params: ModelParams, z, energy, grid: RadialGrid, f):
    """``-f''/2 - f'/(2x) + (V - E) f`` at the interior points, for the
    Coulomb strength ``z``, and the peak ``max |f|``: the interior of
    :func:`radial_operator_apply`.

    In difference form, ``b_i (f_i - f_{i-1}) - a_i (f_{i+1} - f_i) + (c_i
    - z/x_i) f_i``, summed left to right, with the grid's ``a`` and ``b``
    (``RadialGrid._stencil``) and ``c`` of :func:`_potential_less_energy`:
    eight passes over two buffers after the two of the peak.  Taking the
    differences before weighting them keeps the digits that weighting the
    samples loses to cancellation.  Raises as that function does for the
    samples and the grid; the peak of samples that are not all finite is
    not finite, since ``np.max`` propagates NaN."""
    x = grid.points
    if f.shape != x.shape:
        raise ValueError("r_samples must match the grid")
    if x.size - 2 < 32:
        raise GridError(f"grid too coarse: {x.size - 2} interior points, "
                        f"need at least 32")
    buffer = np.abs(f)
    peak = float(np.max(buffer))
    if not math.isfinite(peak):
        raise ValueError("r_samples must be finite")
    a, b = grid._stencil
    c = _potential_less_energy(params, energy, grid)
    steps = np.subtract(f[1:], f[:-1], out=buffer[:-1])
    back, ahead = steps[:-1], steps[1:]
    residual = np.multiply(a, ahead)
    np.multiply(b, back, out=back)
    np.subtract(back, residual, out=residual)
    work = np.divide(float(z), x[1:-1], out=back)
    np.subtract(c[1:-1], work, out=work)
    work *= f[1:-1]
    residual += work
    return residual, peak


def radial_operator_apply(params: ModelParams, z, energy: float, grid: RadialGrid,
                          r_samples: np.ndarray):
    """Apply (H - E) for the Coulomb strength ``z`` to sampled radial
    function values.

    Returns ``(residual, interior)`` where ``interior`` flags the points
    computed with centered stencils (:func:`_interior_residual`); the
    endpoints use one-sided stencils and are flagged False.

    Raises if the grid has fewer than 32 interior points or the samples
    are not finite.
    """
    x = grid.points
    f = np.asarray(r_samples, dtype=float)
    residual = np.empty_like(x)
    residual[1:-1] = _interior_residual(params, z, energy, grid, f)[0]

    # One one-sided stencil for both ends, each read inward; the right
    # end's spacings are negative, which flips signs exactly.
    ends, inward = [0, -1], [[0, 1, 2], [-1, -2, -3]]
    (x0, x1, x2), (f0, f1, f2) = x[inward].T, f[inward].T
    h1, h2 = x1 - x0, x2 - x1
    slope = (-(2.0 * h1 + h2) / (h1 * (h1 + h2)) * f0 + (h1 + h2) / (h1 * h2) * f1
             - h1 / (h2 * (h1 + h2)) * f2)
    curve = 2.0 * (f0 / (h1 * (h1 + h2)) - f1 / (h1 * h2) + f2 / (h2 * (h1 + h2)))
    potential = _potential_less_energy(params, energy, grid)[ends] - float(z) / x0
    residual[ends] = -0.5 * curve - 0.5 * slope / x0 + potential * f0
    interior = np.ones_like(x, dtype=bool)
    interior[0] = interior[-1] = False
    return residual, interior


def _gauss_rule(a: float, b: float, n: int):
    """Half-width, weights and nodes of the n-point Gauss-Legendre rule on
    [a, b], for n in :data:`_GAUSS_RULES`."""
    x, w = _GAUSS_RULES[n]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return half, w, mid + half * x


def l2_norm_constant(params: ModelParams, poly) -> float:
    """Normalization constant for P(r) * envelope under the r dr measure:
    :func:`l2_norm_constants` of the one polynomial factor ``poly``."""
    return l2_norm_constants(params, [poly])[0]


def l2_norm_constants(params: ModelParams, polys) -> list[float]:
    """Normalization constants for P(r) * envelope under the r dr measure,
    one for each polynomial factor in ``polys``.

    Uses Gauss-Legendre quadrature on [0, r_max]; deliberately a different
    quadrature from the grid-based Simpson rule used in verification, so the
    reported normalization error is a genuine two-method comparison.  The
    rule is :func:`_set_constants`', shared by value, and the factors'
    values at its nodes are :func:`_node_values`.  Each factor's values
    times the envelope are scaled by 2**-e, e the exponent of their largest
    magnitude, before they are squared, and its constant by 2**-e after:
    exact scalings, which keep the unscaled constant's bits.

    Raises, for the first factor in ``polys`` whose constant is not a
    finite positive double, DomainError when that factor is nonzero (the
    unscaled integral is 0: the envelope underflows; else the state
    overflows) and ValueError when it is zero.
    """
    if not polys:
        return []
    # A constant that is not finite is raised below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half, w, r, envelope, powers = _set_constants(params)[1]
        # In place, to keep one (n_states, nodes) temporary: acc becomes
        # base = P * envelope * 2**-e, then integrands = w * (base * base * r).
        acc, nodes = _node_values(polys, r, powers)
        acc *= envelope
        exponents = np.frexp(np.max(np.abs(acc), axis=1))[1]
        np.ldexp(acc, -exponents[:, None], out=acc)
        integrands = acc * acc
        integrands *= nodes
        integrands *= w
        totals = half * integrands.sum(axis=1)
        integrals = np.ldexp(totals, 2 * exponents).tolist()
        constants = np.ldexp(1.0 / np.sqrt(totals), -exponents).tolist()
    for poly, integral, constant in zip(polys, integrals, constants):
        if not 0.0 < constant < math.inf:
            if not any(poly):
                raise ValueError("polynomial factor gives zero norm")
            cause = ("the envelope underflows" if integral == 0.0
                     else "the state overflows")
            raise DomainError(
                f"{cause} double precision at omega-l = {float(params.omega_l)!r}, "
                f"k = {float(params.k)!r}, m = {params.m}: its norm integral is "
                f"{integral!r}"
            )
    return constants


def _node_values(polys, r: np.ndarray, powers):
    """The factors ``polys`` at the nodes ``r``, one row each, and the nodes
    in every row (a full-shape operand, not a broadcast row); ``powers()``
    gives the nodes' block powers.  Each row has the bits of ``polyval`` of
    its factor's floats on ``r`` alone.

    Factors below 16 coefficients go in one row-wise Horner pass, with the
    operations, and their order, of evaluating each alone.  The others go
    in blocks, grouped by their count of blocks ``nb``: each keeps the
    product shape it has alone, and a group of ``S`` goes ceil(S/nb)
    factors at a time, so no temporary outgrows the (S, nodes) values.
    """
    values = np.empty((len(polys), r.size))
    nodes = np.broadcast_to(r, values.shape).copy()
    blocked: dict[int, list[int]] = {}
    for i, poly in enumerate(polys):
        if len(poly) >= _BLOCK:
            blocked.setdefault(-(-len(poly) // _BLOCK), []).append(i)
    if len(polys) > sum(map(len, blocked.values())):
        # Zero coefficients above a short row's degree leave its Horner
        # values unchanged: 0.0 * r + 0.0 is 0.0 at the positive nodes.  A
        # blocked factor's row of zeros is replaced below.
        short = [poly if len(poly) < _BLOCK else () for poly in polys]
        coeffs = np.zeros((len(polys), max(map(len, short))))
        for row, poly in zip(coeffs, short):
            row[:len(poly)] = poly
        values[:] = 0 * r
        for col in range(coeffs.shape[1] - 1, -1, -1):
            np.multiply(values, nodes, out=values)
            values += coeffs[:, col:col + 1]
    for nb, picked in blocked.items():
        stack = np.zeros((len(picked), nb * _BLOCK))
        for row, i in zip(stack, picked):
            row[:len(polys[i])] = polys[i]
        stack = stack.reshape(len(picked), nb, _BLOCK)
        step = -(-len(picked) // nb)
        for start in range(0, len(picked), step):
            values[picked[start:start + step]] = _polyval_blocks(
                stack[start:start + step], powers())
    return values, nodes


# The non-negative halves of the Gauss-Legendre rules on [-1, 1] that the
# library uses: _X16 and _W16 for the norm's head, _X256 and _W256 for
# l2_norm_constants.  Nodes ascend, and each weight belongs to its node.
# The nodes are the eigenvalues of the rule's Jacobi matrix (Golub & Welsch,
# Math. Comp. 23 (1969) 221); these literals are those of
# numpy.polynomial.legendre.leggauss, which makes its rule exactly
# symmetric, so the two halves rebuild its rule bit for bit.
_X16 = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
)
_W16 = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176,
)
_X256 = (
    0.006123912375189531, 0.018370818478813666, 0.030614968779979032,
    0.0428545265363791, 0.05508765569463399, 0.0673125211657164,
    0.07952728910023296, 0.09173012716351955, 0.1039192048105094,
    0.1160926935603328, 0.1282487672706071, 0.14038560241137588,
    0.1525013783386564, 0.16459427756755385, 0.176662486044902,
    0.18870419342138883, 0.20071759332312666, 0.21270088362262596,
    0.22465226670913196, 0.23656994975828402, 0.24845214500105667,
    0.2602970699919425, 0.2721029478763366, 0.28386800765708176,
    0.29559048446013564, 0.3072686197993191, 0.3189006618401063,
    0.33048486566241697, 0.34201949352237165, 0.35350281511297,
    0.364933107823654, 0.3763086569987164, 0.38762775619451556,
    0.3988887074354591, 0.41008982146871653, 0.4212294180176238,
    0.4323058260337413, 0.44331738394752734, 0.45426243991759,
    0.4651393520784793, 0.4759464887869833, 0.48668222886689033,
    0.49734496185218147, 0.507933088228616, 0.5184450196736745,
    0.5288791792948223, 0.5392340018660592, 0.5495079340627186,
    0.5596994346944811, 0.5698069749365687, 0.579829038559083,
    0.5897641221544543, 0.5996107353629683, 0.6093674010963339,
    0.6190326557592613, 0.628605049469015, 0.6380831462729114,
    0.6474655243637248, 0.6567507762929732, 0.6659375091820485,
    0.6750243449311628, 0.684009920426076, 0.692892887742577,
    0.7016719143486851, 0.7103456833045433, 0.7189128934599714,
    0.7273722596496521, 0.7357225128859178, 0.7439624005491116,
    0.752090686575492, 0.7601061516426555, 0.7680075933524456,
    0.7757938264113258, 0.7834636828081838, 0.791016011989546,
    0.7984496810321707, 0.8057635748129987, 0.8129565961764316,
    0.8200276660989171, 0.8269757238508125, 0.8337997271555049,
    0.8404986523457627, 0.8470714945172962, 0.853517267679503,
    0.8598350049033764, 0.8660237584665545, 0.8720825999954883,
    0.8780106206047066, 0.8838069310331583, 0.8894706617776109,
    0.8950009632230845, 0.9003970057703036, 0.9056579799601446,
    0.910783096595065, 0.9157715868574904, 0.9206227024251465,
    0.9253357155833162, 0.9299099193340057, 0.9343446275020031,
    0.9386391748378148, 0.9427929171174625, 0.9468052312391275,
    0.9506755153166283, 0.9544031887697162, 0.9579876924111781,
    0.9614284885307322, 0.9647250609757064, 0.9678769152284894,
    0.970883578480743, 0.9737445997043704, 0.9764595497192342,
    0.979028021257622, 0.9814496290254644, 0.9837240097603155,
    0.985850822286126, 0.9878297475648606, 0.9896604887450652,
    0.9913427712075831, 0.9928763426088221, 0.9942609729224097,
    0.9954964544810964, 0.9965826020233816, 0.9975192527567208,
    0.9983062664730065, 0.9989435258434088, 0.9994309374662614,
    0.9997684374092631, 0.9999560500189922,
)
_W256 = (
    0.01224767164028977, 0.012245834369747927, 0.012242160104272818,
    0.012236649395040164, 0.012229303068710272, 0.012220122227303983,
    0.012209108248037236, 0.012196262783114717, 0.0121815877594818,
    0.01216508537853553, 0.012146758115794461, 0.01212660872052733,
    0.012104640215340452, 0.012080855895724548, 0.012055259329560157,
    0.01202785435658256, 0.011998645087805815, 0.011967635904905911,
    0.011934831459563571, 0.011900236672766486, 0.011863856734071082,
    0.011825697100824012, 0.011785763497343425, 0.011744061914060555,
    0.01170059860662072, 0.01165538009494524, 0.011608413162253107,
    0.011559704854043663, 0.011509262477039477, 0.01145709359809065,
    0.01140320604303918, 0.011347607895545442, 0.011290307495875555,
    0.011231313439649657, 0.011170634576553503, 0.011108280009009859,
    0.011044259090813937, 0.010978581425729578, 0.010911256866049015,
    0.010842295511114838, 0.010771707705804639, 0.010699504038979827,
    0.01062569534189659, 0.010550292686581478, 0.010473307384170362,
    0.010394750983211642, 0.010314635267933976, 0.01023297225647818,
    0.010149774199094892, 0.01006505357630643, 0.009978823097034855,
    0.009891095696695865, 0.009801884535257415, 0.009711202995266321,
    0.009619064679840658, 0.009525483410629317, 0.009430473225737632,
    0.009334048377623323, 0.009236223330956434, 0.00913701276045089,
    0.009036431548662736, 0.008934494783758056, 0.008831217757248752,
    0.008726615961698865, 0.008620705088401114, 0.0085135010250225,
    0.008405019853221535, 0.008295277846235188, 0.008184291466438315,
    0.008072077362873532, 0.007958652368754223, 0.007844033498939812,
    0.007728237947381427, 0.0076112830845457505, 0.007493186454805949,
    0.007373965773812469, 0.007253638925833793, 0.007132223961075262,
    0.007009739092969723, 0.00688620269544629, 0.006761633300173868,
    0.006636049593781082, 0.006509470415053494, 0.006381914752107766,
    0.006253401739542205, 0.0061239506555676995, 0.0059935809191152024,
    0.00586231208692235, 0.005730163850601189, 0.005597156033682747,
    0.005463308588644495, 0.00532864159391577, 0.0051931752508694255,
    0.005056929880786852, 0.004919925921813843, 0.004782183925892294,
    0.004643724555680214, 0.004504568581447931, 0.004364736877968051,
    0.004224250421381767, 0.004083130286052795, 0.003941397641408539,
    0.003799073748765895, 0.003656179958142877, 0.0035127377050566265,
    0.0033687685073154226, 0.0032242939617941786, 0.0030793357411993804,
    0.0029339155908297237, 0.002788055325327215, 0.0026417768254266855,
    0.0024951020347042303, 0.0023480529563273764, 0.0022006516498400642,
    0.0020529202279657766, 0.0019048808534989038, 0.001756555736331586,
    0.0016079671307496996, 0.0014591373333118964, 0.0013100886819022608,
    0.0011608435575676233, 0.0010114243932076955, 0.0008618537014202671,
    0.0007121541634721278, 0.0005623489540324628, 0.00041246325442342033,
    0.00026253494430205363, 0.00011278901782107633,
)


def _unfold(nodes, weights):
    """The whole rule, read-only, from its non-negative half."""
    x, w = np.array(nodes), np.array(weights)
    rule = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    for values in rule:
        values.setflags(write=False)
    return rule


#: Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by n.
_GAUSS_RULES = {16: _unfold(_X16, _W16), 256: _unfold(_X256, _W256)}
