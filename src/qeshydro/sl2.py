"""Lie-algebraic route: generator matrices, coefficient dictionary, and the
finite eigenproblem whose eigenvalues are the admissible Coulomb strengths.

The gauged radial operator, multiplied by r, restricts to the space of
polynomials of degree <= 2j.  Expanded in ascending monomials r^0 .. r^{2j}
it is tridiagonal with a closed form used throughout:

    M[n, n]     = (k/omega_l) (n + |m| + 1/2)
    M[n-1, n]   = -n (|m| + n/2)
    M[n+1, n]   = -omega_l (2j - n)

and the admissible strengths are exactly its eigenvalues.  Its exact
characteristic polynomial follows from the three-term continuant of these
entries in O(n^2) operations on Python integers over one common
denominator, with one rational reduction per coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model
from ._polyops import (
    as_half_integer,
    check_integer_m,
    coerce_couplings,
    newton_polish,
)
from .model import ModelParams, QesState, gauge_transform  # noqa: F401  (re-export)

__all__ = [
    "Sl2Rep",
    "Sl2Coefficients",
    "QesMatrix",
    "build_generators",
    "commutator_defects",
    "sl2_coefficients",
    "energy_x",
    "build_qes_matrix",
    "qes_matrix_from_generators",
    "characteristic_polynomial",
    "solve_admissible_z",
    "gauge_transform",
]


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


@dataclass(frozen=True, eq=False)
class QesMatrix:
    """The finite eigenproblem in the ascending monomial basis r^0 .. r^{2j}.

    ``entries`` is a nested list of Fractions when both couplings are
    rational, otherwise a float ndarray.  The eigenvalues are the admissible
    Coulomb strengths.  The descending-monomial form of the same operator is
    the reversal permutation similarity of this matrix.
    """

    j: Fraction
    m: int
    omega_l: object
    k: object
    entries: object
    exact: bool

    @property
    def dim(self) -> int:
        return int(2 * self.j) + 1

    def as_array(self) -> np.ndarray:
        if self.exact:
            return np.array([[float(e) if e else 0.0 for e in row]
                             for row in self.entries])
        return np.asarray(self.entries, dtype=float)


def build_qes_matrix(j, m: int, omega_l, k) -> QesMatrix:
    """Closed tridiagonal form of the generator combination.

    Float couplings fill the three diagonals of a zero array; rational
    couplings make one Fraction per nonzero entry from integers.
    """
    jf = as_half_integer(j)
    m = check_integer_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    dim = int(2 * jf) + 1
    am = abs(m)
    ratio = kk / omega

    if not exact:
        rows = np.zeros((dim, dim))
        for n in range(dim):
            rows[n, n] = ratio * (n + am + 0.5)
            if n >= 1:
                rows[n - 1, n] = -(n * (2 * am + n)) / 2
            if n + 1 < dim:
                rows[n + 1, n] = -omega * (dim - 1 - n)
        return QesMatrix(jf, m, omega, kk, rows, False)

    p, q = ratio.numerator, ratio.denominator
    a, b = omega.numerator, omega.denominator
    zero = Fraction(0)
    rows = [[zero] * dim for _ in range(dim)]
    for n in range(dim):
        rows[n][n] = Fraction(p * (2 * (n + am) + 1), 2 * q)
        if n >= 1:
            rows[n - 1][n] = Fraction(-(n * (2 * am + n)), 2)
        if n + 1 < dim:
            rows[n + 1][n] = Fraction(-a * (dim - 1 - n), b)
    return QesMatrix(jf, m, omega, kk, rows, True)


def qes_matrix_from_generators(j, m: int, omega_l, k) -> QesMatrix:
    """Same operator assembled term by term from the generator combination.

    Uses the polynomial realization (exact rational entries)

        T+ r^n = (2j - n) r^{n+1},  T0 r^n = (n - j) r^n,  T- r^n = n r^{n-1},

    so the result must coincide with :func:`build_qes_matrix`; kept as an
    independent construction for cross-checking.
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
    if not exact:
        return QesMatrix(jf, m, omega, kk, np.array(rows, dtype=float), False)
    return QesMatrix(jf, m, omega, kk, rows, True)


def characteristic_polynomial(matrix: QesMatrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial det(z I - M), ascending coefficients.

    Three-term continuant of the tridiagonal matrix, with the diagonal
    d_i = M[i][i] and the couplings c_i = M[i-1][i] M[i][i-1]:

        p_0 = 1,  p_1 = z - d_0,
        p_{i+1} = (z - d_i) p_i - c_i p_{i-1}.

    It runs on Python integers (Bareiss, Math. Comp. 22 (1968) 565): with
    ``den`` the lcm of the denominators of every d_i and c_i (each c_i
    taken as the product of the two entries' numerators over the product
    of their denominators), u_i = den d_i and v_i = den c_i, the integer
    polynomials

        q_0 = 1,  q_{i+1}(w) = (w - u_i) q_i(w) - den v_i q_{i-1}(w)

    satisfy q_i(den z) = den^i p_i(z), so the coefficient of z^e in
    det(z I - M) is q_n[e] / den^(n-e), the one rational reduction made.
    O(n^2) integer operations; any rational tridiagonal matrix.

    Requires an exact, tridiagonal matrix.
    """
    if not matrix.exact:
        raise ValueError("characteristic_polynomial requires exact entries")
    n = matrix.dim
    a = matrix.entries
    if any(any(row[:max(i - 1, 0)]) or any(row[i + 2:n])
           for i, row in enumerate(a[:n])):
        raise ValueError("characteristic_polynomial requires a tridiagonal matrix")

    # (numerator, denominator) of every d_i and c_i, c_0 = 0.
    diag = [(a[i][i].numerator, a[i][i].denominator) for i in range(n)]
    couple = [(0, 1)] + [
        (a[i - 1][i].numerator * a[i][i - 1].numerator,
         a[i - 1][i].denominator * a[i][i - 1].denominator)
        for i in range(1, n)
    ]
    den = math.lcm(*(d for _, d in diag + couple))
    u = [x * (den // d) for x, d in diag]
    g = [den * x * (den // d) for x, d in couple]

    prev, cur = [], [1]
    for i in range(n):
        nxt = [0] + cur
        for d, c in enumerate(cur):
            nxt[d] -= u[i] * c
        for d, c in enumerate(prev):
            nxt[d] -= g[i] * c
        prev, cur = cur, nxt
    return tuple(Fraction(c, den ** (n - e)) for e, c in enumerate(cur))


#: The most recent successful solve: (key, states, diagnostics).  It is
#: replaced by one assignment and read once per call, so a concurrent caller
#: can only miss it, never read a key with another call's states.
_last_solve = None


def solve_admissible_z(j, m: int, omega_l, k, tol: float = 1e-9,
                       diagnostics: list[str] | None = None) -> list[QesState]:
    """Diagonalize the finite matrix and package the real-eigenvalue states.

    Eigenvalues come from a general dense eigensolver, are polished with a
    few Newton steps on the characteristic polynomial, and are sorted
    ascending.  Eigenvalues with an imaginary part above ``tol`` times the
    spectral scale are excluded and reported through ``diagnostics``.
    Eigenvectors are rescaled so the constant coefficient is one.  Every
    state carries the level's energy, :func:`model.level_energy`.

    The most recent solve is kept in one slot, keyed by the coerced inputs:
    j, m, whether the couplings are exact, omega_l, k with the sign of a
    zero k, and tol.  A call with the same key returns a new list of the
    same immutable states and appends the same diagnostics; a call that
    raises keeps nothing.
    """
    global _last_solve
    if tol <= 0:
        raise ValueError("tol must be positive")
    jf = as_half_integer(j)
    m = check_integer_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    key = (jf, m, exact, omega, kk, math.copysign(1.0, kk), tol)
    last = _last_solve
    if last is None or last[0] != key:
        last = (key, *_solve(jf, m, omega, kk, tol))
        _last_solve = last
    if diagnostics is not None:
        diagnostics.extend(last[2])
    return list(last[1])


def _solve(jf: Fraction, m: int, omega, kk, tol: float):
    """The states of :func:`solve_admissible_z` for coerced inputs, as a
    tuple, with the tuple of its diagnostics."""
    matrix = build_qes_matrix(jf, m, omega, kk)
    a = matrix.as_array()
    eigvals, eigvecs = np.linalg.eig(a)
    scale = max(1.0, float(np.max(np.abs(eigvals))))

    if matrix.exact:
        char = [float(c) for c in characteristic_polynomial(matrix)]
    else:
        char = np.poly(a)[::-1].tolist()

    level = matrix.dim
    energy = float(model.level_energy(level, m, omega, kk))
    params = ModelParams(float(omega), float(kk), m)

    diagnostics: list[str] = []
    accepted = []
    for idx in range(eigvals.size):
        lam = complex(eigvals[idx])
        if abs(lam.imag) > tol * scale:
            diagnostics.append(
                f"excluded complex eigenvalue {lam!r} at j={matrix.j}, m={m}"
            )
            continue
        z = newton_polish(char, lam.real)
        vec = np.real(eigvecs[:, idx])
        if abs(vec[0]) > 1e-12 * float(np.max(np.abs(vec))):
            vec = vec / vec[0]
        else:
            lead = np.nonzero(np.abs(vec) > 1e-12 * float(np.max(np.abs(vec))))[0][0]
            vec = vec / vec[lead]
            diagnostics.append(
                f"eigenvector with vanishing constant term at z={z!r}; "
                f"scaled leading coefficient instead"
            )
        defect = float(np.max(np.abs(a @ vec - z * vec)))
        if defect > tol * scale * float(np.max(np.abs(vec))):
            diagnostics.append(
                f"eigenvector consistency defect {defect:.3e} at z={z!r}"
            )
        accepted.append((z, vec))

    if not accepted:
        diagnostics.append(f"no real eigenvalues at j={matrix.j}, m={m}")

    accepted.sort(key=lambda pair: pair[0])
    polys = [tuple(float(c) for c in vec) for _, vec in accepted]
    norms = model.l2_norm_constants(params, polys)
    states = tuple(
        QesState(
            level=level,
            j=float(matrix.j),
            z=float(z),
            energy=energy,
            poly=poly,
            norm_constant=norm,
            params=params,
        )
        for (z, _), poly, norm in zip(accepted, polys, norms)
    )
    return states, tuple(diagnostics)
