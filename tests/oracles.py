"""The paper's derivation, kept as test oracles: the sl(2) realisation and
coefficient dictionary of the algebraic route, the step-by-step recurrence
objects of the series route, the gauge factor, the full wavefunction and a
Gauss-Legendre integrator.

No solver, verifier or CLI path calls these, so they live with the tests
that check the library against them: ``qes_matrix_from_generators`` is an
independent, dense construction of ``build_qes_matrix``, ``band_rows`` the
dense rows of a matrix's bands, ``energy_x`` of
``level_energy``, ``recurrence_next`` of the float and exact constraint
recurrences, and ``gauss_integrate`` integrates one state at a time where
the library integrates a level's states in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qeshydro._polyops import as_half_integer, check_integer_m, coerce_couplings
from qeshydro.model import ModelParams, QesState, _gauss_rule
from qeshydro.series import _HALF, _terms, constraint_polynomial


@dataclass(frozen=True, eq=False)
class Sl2Rep:
    """Spin-j ladder matrices with their exact integer/half-integer data.

    ``weights`` are the diagonal of t_zero (j, j-1, ..., -j) and
    ``radicands[i]`` is the exact square of the i-th ladder entry
    (i = 1 .. 2j), so commutator identities can be checked in rational
    arithmetic even though the float matrices hold square roots.
    """

    j: Fraction
    t_plus: np.ndarray
    t_minus: np.ndarray
    t_zero: np.ndarray
    weights: tuple[Fraction, ...]
    radicands: tuple[int, ...]

    @property
    def dim(self) -> int:
        return int(2 * self.j) + 1


def build_generators(j) -> Sl2Rep:
    """Ladder matrices for spin j in the basis |j, j>, |j, j-1>, ..., |j, -j>.

    The raising entry above the diagonal at step i is sqrt(i (2j + 1 - i)),
    the lowering matrix is its transpose, and the weight matrix is diagonal
    with entries j .. -j.
    """
    jf = as_half_integer(j)
    two_j = int(2 * jf)
    dim = two_j + 1
    radicands = tuple(i * (two_j + 1 - i) for i in range(1, two_j + 1))
    weights = tuple(jf - i for i in range(dim))

    t_plus = np.zeros((dim, dim))
    t_minus = np.zeros((dim, dim))
    t_zero = np.diag([float(w) for w in weights])
    for i, rad in enumerate(radicands, start=1):
        entry = math.sqrt(rad)
        t_plus[i - 1, i] = entry
        t_minus[i, i - 1] = entry
    return Sl2Rep(jf, t_plus, t_minus, t_zero, weights, radicands)


def commutator_defects(rep: Sl2Rep) -> dict[str, Fraction]:
    """Exact defects of the three sl(2) commutator identities.

    All products that appear are rational: [T+, T-] is diagonal with entries
    radicand differences, and [T0, T+-] rescales ladder entries by exact
    weight differences.  Every defect is zero for a true representation.
    """
    rads = (0,) + rep.radicands + (0,)
    w = rep.weights
    plus_minus = max(
        (abs(Fraction(rads[i + 1] - rads[i]) - 2 * w[i]) for i in range(rep.dim)),
        default=Fraction(0),
    )
    zero_plus = max(
        (abs((w[i] - w[i + 1]) - 1) for i in range(rep.dim - 1)),
        default=Fraction(0),
    )
    zero_minus = max(
        (abs((w[i + 1] - w[i]) + 1) for i in range(rep.dim - 1)),
        default=Fraction(0),
    )
    return {
        "plus_minus": plus_minus,
        "zero_plus": zero_plus,
        "zero_minus": zero_minus,
    }


@dataclass(frozen=True)
class Sl2Coefficients:
    """Coefficients of the generator combination for given (j, m, couplings).

    ``c0_linear_part`` is the Coulomb-free part of the constant term, i.e.
    the shift that makes the matrix eigenvalue exactly the admissible
    strength z; ``x_energy`` is the common energy of the 2j+1 solved states.
    """

    j: Fraction
    m: int
    omega_l: object
    k: object
    c1: object
    c2: object
    c3: object
    c4: object
    c0_linear_part: object
    x_energy: object


def sl2_coefficients(j, m: int, omega_l, k) -> Sl2Coefficients:
    jf = as_half_integer(j)
    m = check_integer_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    half = Fraction(1, 2)
    am = abs(m)
    jval = jf if exact else float(jf)
    return Sl2Coefficients(
        j=jf,
        m=m,
        omega_l=omega,
        k=kk,
        c1=-half if exact else -0.5,
        c2=-omega,
        c3=kk / omega,
        c4=-(1 + jval + 2 * am) / 2 if exact else -0.5 * (1 + jval + 2 * am),
        c0_linear_part=(kk / omega) * (am + half + jval),
        x_energy=omega * (2 * jval + 1 + m + am) - (kk / omega) ** 2 / 2,
    )


def energy_x(j, m: int, omega_l, k):
    """Common energy of the spin-j block:
    omega_l (2j + 1 + m + |m|) - (k/omega_l)^2 / 2."""
    return sl2_coefficients(j, m, omega_l, k).x_energy


def qes_matrix_from_generators(j, m: int, omega_l, k) -> list[list]:
    """Dense rows of the same operator, assembled term by term from the
    generator combination: Fractions for rational couplings, else floats.

    Uses the polynomial realization (exact rational entries)

        T+ r^n = (2j - n) r^{n+1},  T0 r^n = (n - j) r^n,  T- r^n = n r^{n-1},

    so for rational couplings the rows must be tridiagonal and equal the
    :func:`band_rows` of :func:`build_qes_matrix`; kept as an independent
    construction for cross-checking.
    """
    jf = as_half_integer(j)
    m = check_integer_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    co = sl2_coefficients(jf, m, omega, kk)
    dim = int(2 * jf) + 1

    def mat():
        return [[Fraction(0) if exact else 0.0 for _ in range(dim)] for _ in range(dim)]

    t_plus, t_zero, t_minus = mat(), mat(), mat()
    for n in range(dim):
        if n + 1 < dim:
            t_plus[n + 1][n] = 2 * jf - n if exact else float(2 * jf - n)
        t_zero[n][n] = n - jf if exact else float(n - jf)
        if n >= 1:
            t_minus[n - 1][n] = n if exact else float(n)

    def matmul(a, b):
        return [
            [sum(a[i][l] * b[l][q] for l in range(dim)) for q in range(dim)]
            for i in range(dim)
        ]

    zero_minus = matmul(t_zero, t_minus)
    rows = mat()
    for i in range(dim):
        for q in range(dim):
            rows[i][q] = (
                co.c1 * zero_minus[i][q]
                + co.c2 * t_plus[i][q]
                + co.c3 * t_zero[i][q]
                + co.c4 * t_minus[i][q]
                + (co.c0_linear_part if i == q else (Fraction(0) if exact else 0.0))
            )
    return rows


def band_rows(bands) -> list[list]:
    """The dense rows of the tridiagonal matrix with rational bands ``(diag,
    upper, lower)``: ``diag[i]`` = M[i][i], ``upper[i - 1]`` = M[i - 1][i],
    ``lower[i - 1]`` = M[i][i - 1], and Fraction(0) off the bands."""
    diag, upper, lower = bands
    dim = len(diag)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = diag[i]
        if i:
            rows[i - 1][i], rows[i][i - 1] = upper[i - 1], lower[i - 1]
    return rows


@dataclass(frozen=True)
class IndicialData:
    """Power-law exponents at the origin: |m| + 1/2 for the reduced radial
    function u = sqrt(r) R, and 0 for the polynomial factor."""

    s_zero: Fraction
    s_phi: int = 0


def indicial_exponent(m: int) -> IndicialData:
    m = check_integer_m(m)
    return IndicialData(s_zero=abs(m) + _HALF, s_phi=0)


@dataclass(frozen=True)
class RecurrenceState:
    """Coefficients a_0 .. a_current of the polynomial factor plus the model
    data (m, omega_l, k, energy, z) that drives the recurrence."""

    m: int
    omega_l: object
    k: object
    energy: object
    z: object
    coeffs: tuple

    def extended(self) -> "RecurrenceState":
        n = len(self.coeffs) - 1
        nxt = recurrence_next(self, n)
        return RecurrenceState(
            self.m, self.omega_l, self.k, self.energy, self.z,
            self.coeffs + (nxt,),
        )


def recurrence_next(state: RecurrenceState, n: int):
    """Next coefficient a_{n+1} from a_{n-1} and a_n (a_{-1} = 0).

    a_{n+1} = { [omega_l (n + |m| + m) - k^2/(2 omega_l^2) - E] a_{n-1}
              + [(|m| + 1/2 + n) k/omega_l - Z] a_n }
              / [ (n + 1) (|m| + (1 + n)/2) ]

    The denominator is strictly positive for every n >= 0.
    """
    if n < 0 or n >= len(state.coeffs):
        raise ValueError(f"coefficient a_{n} is not available")
    a_prev = state.coeffs[n - 1] if n >= 1 else 0
    e_term, b_term, denom = _terms(n, state.m, state.omega_l, state.k, state.energy)
    return (e_term * a_prev + (b_term - state.z) * state.coeffs[n]) / denom


def constraint_value(level: int, m: int, omega_l, k, z):
    """Feasibility check: evaluate the termination constraint at a given z."""
    return constraint_polynomial(level, m, omega_l, k)(z)


@dataclass(frozen=True)
class GaugeTransform:
    """Envelope coefficients (mu, delta, nu) of the normalizable gauge factor."""

    mu: float
    delta: float
    nu: float


def gauge_transform(params: ModelParams) -> GaugeTransform:
    """Resolve the sign branches so the gauged wavefunction is normalizable.

    The admissible branch is (mu, delta, nu) = (omega_l, k/omega_l, -|m|):
    positive mu kills the Gaussian growth at infinity and nu = -|m| selects
    the regular power law at the origin.
    """
    omega, k, exact = coerce_couplings(params.omega_l, params.k)
    return GaugeTransform(mu=omega, delta=k / omega, nu=-params.abs_m)


def assemble_full_wavefunction(state: QesState, m: int, r, theta) -> complex:
    """Full wavefunction (2 pi)^(-1/2) e^{i m theta} R(r) at a point."""
    m = check_integer_m(m)
    r = float(r)
    if r <= 0:
        raise ValueError("r must be positive")
    radial = float(state.radial_values(r))
    return radial / math.sqrt(2.0 * math.pi) * complex(math.cos(m * theta),
                                                       math.sin(m * theta))


def gauss_integrate(fn, a: float, b: float, n: int = 256) -> float:
    """Gauss-Legendre quadrature of fn over [a, b]."""
    half, w, r = _gauss_rule(a, b, n)
    return float(half * np.sum(w * fn(r)))
