"""Lie-algebraic route: the finite eigenproblem whose eigenvalues are the
admissible Coulomb strengths.

The gauged radial operator, multiplied by r, restricts to the space of
polynomials of degree <= 2j.  Expanded in ascending monomials r^0 .. r^{2j}
it is tridiagonal (Turbiner, Commun. Math. Phys. 118 (1988) 467), so a
:class:`QesMatrix` is its three bands, with a closed form used throughout:

    M[n, n]     = (k/omega_l) (n + |m| + 1/2)
    M[n-1, n]   = -n (|m| + n/2)
    M[n+1, n]   = -omega_l (2j - n)

The paired off-diagonals multiply to a positive number, so a diagonal
similarity makes it a real symmetric tridiagonal (Jacobi) matrix: its
eigenvalues, the admissible strengths, are real and simple, and
``eigvalsh`` returns them from :meth:`QesMatrix.as_array`'s Jacobi form.
The eigenvectors come from the bands themselves, by a twisted
factorisation in O(n^2) for all n of them.  Its exact
characteristic polynomial (the series constraint, up to normalisation) is
the three-term continuant of the bands, O(n^2) operations on Python
integers over one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import model
from ._polyops import (allocated, as_half_integer, check_m,
                       coerce_couplings, is_exact, kept)
from .model import Level, ModelParams

__all__ = [
    "QesMatrix",
    "build_qes_matrix",
    "characteristic_polynomial",
    "solve_admissible_z",
]


@dataclass(frozen=True, eq=False)
class QesMatrix:
    """The finite eigenproblem in the ascending monomial basis r^0 .. r^{2j},
    held as its labels.  Its eigenvalues are the admissible Coulomb
    strengths; its descending-monomial form is the reversal permutation
    similarity of this matrix."""

    j: Fraction
    m: int
    omega_l: object
    k: object

    @property
    def exact(self) -> bool:
        """Whether both couplings, and so the bands, are rational."""
        return is_exact(self.omega_l) and is_exact(self.k)

    @property
    def dim(self) -> int:
        return int(2 * self.j) + 1

    @cached_property
    def bands(self):
        """(M[n, n], M[n-1, n], M[n+1, n]) of the closed form, of lengths dim,
        dim - 1 and dim - 1: tuples of Fractions made from integers when
        both couplings are rational, else float arrays whose every entry
        gets the operations of the closed form's scalar expression."""
        dim, am = self.dim, abs(self.m)
        if self.exact:
            p, q = (Fraction(self.k) / self.omega_l).as_integer_ratio()
            a, b = self.omega_l.as_integer_ratio()
            return (tuple(Fraction(p * (2 * (n + am) + 1), 2 * q) for n in range(dim)),
                    tuple(Fraction(-(n * (2 * am + n)), 2) for n in range(1, dim)),
                    tuple(Fraction(-a * (dim - 1 - n), b) for n in range(dim - 1)))
        # 2.0 * am keeps n (2|m| + n) in doubles, where int64 could wrap.
        omega, n = float(self.omega_l), np.arange(dim)
        return (float(self.k) / omega * (n + (am + 0.5)),
                -(n[1:] * (2.0 * am + n[1:])) / 2,
                -omega * n[:0:-1])

    def as_array(self, jacobi: bool = False) -> np.ndarray:
        """The dense dim x dim float matrix, the one place that takes dim**2
        values; DomainError when it cannot be allocated.  With ``jacobi``,
        the upper triangle of its Jacobi form: the real symmetric
        tridiagonal matrix a diagonal similarity makes of it, as
        M[n-1, n] M[n, n-1] > 0, with the diagonal and the off-diagonal
        -sqrt(-M[n-1, n]) sqrt(-M[n, n-1]), whose factors cannot overflow
        where their product could."""
        dim = self.dim
        a = allocated(lambda: np.zeros((dim, dim)),
                      f"level {dim} needs a {dim} x {dim} matrix of doubles", dim * dim)
        bands = self.bands
        if jacobi:
            diag, upper, lower = (np.asarray(band, dtype=float) for band in bands)
            bands = diag, -(np.sqrt(-upper) * np.sqrt(-lower))
        for start, band in zip((0, 1, dim), bands):
            a.reshape(-1)[start::dim + 1] = band
        return a


def build_qes_matrix(j, m: int, omega_l, k) -> QesMatrix:
    """The matrix of validated labels: j a half-integer, m (:func:`check_m`)
    and the couplings both Fraction or both float (:func:`coerce_couplings`)."""
    return QesMatrix(as_half_integer(j), check_m(m),
                     *coerce_couplings(omega_l, k)[:2])


def characteristic_polynomial(matrix: QesMatrix) -> tuple[Fraction, ...]:
    """Monic det(z I - M), ascending: :func:`_continuant` of the bands of
    a matrix with exact couplings."""
    if not matrix.exact:
        raise ValueError("characteristic_polynomial requires exact entries")
    return _continuant(*matrix.bands)


def _continuant(diag, upper, lower) -> tuple[Fraction, ...]:
    """det(z I - M), ascending, for the tridiagonal M with the rational bands
    d_i = M[i][i] (``diag``), M[i-1][i] (``upper``) and M[i][i-1]
    (``lower``): the three-term continuant in c_i = M[i-1][i] M[i][i-1],

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
    O(n^2) integer operations.
    """
    n = len(diag)
    # (numerator, denominator) of every d_i and c_i, c_0 = 0.
    pairs = [(d.numerator, d.denominator) for d in diag]
    couple = [(0, 1)] + [(u.numerator * w.numerator, u.denominator * w.denominator)
                         for u, w in zip(upper, lower)]
    den = math.lcm(*(d for _, d in pairs + couple))
    u = [x * (den // d) for x, d in pairs]
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


#: The largest eigenvector defect ``max |M v - z v|``, in units of the
#: spectral scale times ``max |v|``, that is not reported.
MAX_DEFECT = 1e-9

#: The most recent successful solve, (key, Level), a :func:`kept` slot.
_last_solve = None


def solve_admissible_z(j, m: int, omega_l, k) -> Level:
    """Diagonalize the finite matrix and return the level's states as a
    :class:`model.Level`.

    The strengths are the eigenvalues, ascending, of the matrix's Jacobi
    form (:meth:`QesMatrix.as_array`): all ``2j + 1`` of them, real and
    simple.  Each state's coefficients are the monomial matrix's
    eigenvector with constant coefficient one, built from the bands by
    :func:`_coefficients`, and a defect above :data:`MAX_DEFECT` is noted.
    Every state carries the level's energy, :func:`model.level_energy`.
    Eigenvalues that do not converge, or a coefficient vector that is not
    finite in doubles, are a DomainError naming the level and couplings.

    The most recent solve is kept in one slot, keyed by the coerced inputs:
    j, m, whether the couplings are exact, omega_l, and k with the sign of
    a zero k.  A call with the same key returns a new Level of the same
    immutable states with the same notes; a call that raises keeps nothing.
    """
    jf = as_half_integer(j)
    m = check_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    key = (jf, m, exact, omega, kk, math.copysign(1.0, kk))
    level = kept(globals(), "_last_solve", key, lambda: _solve(jf, m, omega, kk))
    return Level(level, level.notes)


def _solve(jf: Fraction, m: int, omega, kk) -> Level:
    """The Level of :func:`solve_admissible_z` for coerced inputs: the
    strengths by ``eigvalsh``, then every strength's coefficients and
    defect as one array."""
    matrix = QesMatrix(jf, m, omega, kk)
    level = matrix.dim
    params = ModelParams(float(omega), float(kk), m)
    try:
        strengths = np.linalg.eigvalsh(matrix.as_array(jacobi=True), UPLO="U")
    except np.linalg.LinAlgError:
        raise model._scale_error(params, f"the eigenvalues of level {level} "
                                         f"do not converge") from None
    diag, upper, lower = (np.asarray(band, dtype=float) for band in matrix.bands)
    scale = max(1.0, -strengths[0], strengths[-1])
    # A vector that is not finite is raised, and a defect that overflows
    # is noted, so numpy need not warn.
    with np.errstate(all="ignore"):
        vecs, shifted = _coefficients(diag, upper, lower, strengths, scale)
        peaks = np.abs(vecs).max(axis=0)
        if not np.isfinite(peaks).all():
            raise model._scale_error(params, f"a coefficient vector of level "
                                             f"{level} overflows double precision")
        # |(M - z) v| from the bands, every column at once.
        residual = shifted * vecs
        residual[:-1] += upper[:, None] * vecs[1:]
        residual[1:] += lower[:, None] * vecs[:-1]
        defects = np.abs(residual, out=residual).max(axis=0)
        defective = np.flatnonzero(defects > MAX_DEFECT * scale * peaks)
    notes = [f"eigenvector consistency defect {float(defects[c]):.3e} "
             f"at z={float(strengths[c])!r}" for c in defective]
    energy = float(model.level_energy(level, m, omega, kk))
    return model.level_states(params, level, energy, strengths.tolist(),
                              [tuple(vec) for vec in vecs.T.tolist()], notes)


def _coefficients(diag, upper, lower, strengths, scale):
    """The monomial matrix's eigenvectors at the ascending ``strengths``, as
    the columns of one array whose first row is 1, and ``d - z`` per
    column; ``scale`` is max(1, max |z|).

    The twisted factorisation of M - z (Parlett & Dhillon, Linear Algebra
    Appl. 267 (1997) 247) in ratios of the coefficients: from the top,
    rho_n = a_{n+1}/a_n = B_n + C_n/rho_{n-1} with B_n = -(d_n - z)/M[n, n+1]
    and C_n = -M[n, n-1]/M[n, n+1]; from the bottom, tau_n = a_{n-1}/a_n,
    likewise with M[n, n-1] and M[n, n+1] swapped.  Both run in one loop.
    Row k of (M - z) v over a_k, with top ratios below k and bottom ones
    above, is gamma_k = 1/[(M - z)^-1]_kk, which the similarity keeps, so
    the twist at the smallest |gamma_k| is where the Jacobi form's
    eigenvector peaks.  A column's coefficients are the running product
    from a_0 = 1 of the top ratios up to its twist and the bottom ones
    after it, so they overflow only where a coefficient does.  Each column
    gets the operations, in the order, of the recurrence run on it alone.

    A strength equal to a diagonal entry (0 is one at k = 0 on an odd
    level) would give a zero ratio and then an infinite one, whose product
    is NaN: that entry of d - z is moved to 2**-104 (eps**2) times
    ``scale``, far below the rounding of any other.
    """
    level, count = diag.size, strengths.size
    shifted = diag[:, None] - strengths
    vecs = np.empty((level, count))
    vecs[0] = 1.0
    if level == 1:
        return vecs, shifted
    shifted[shifted == 0.0] = scale * 2.0**-104
    # Row i holds rho_i, then tau_{level-1-i}: B_i and B'_{level-1-i} first.
    ratios = np.empty((level - 1, 2 * count))
    top, bottom = ratios[:, :count], ratios[::-1, count:]
    np.divide(shifted[:-1], -upper[:, None], out=top)
    np.divide(shifted[1:], -lower[:, None], out=bottom)
    steps = np.empty((level - 2, 2 * count))
    steps[:, :count] = (-lower[:-1] / upper[1:])[:, None]
    steps[:, count:] = (-upper[:0:-1] / lower[-2::-1])[:, None]
    for c, row, prev in zip(steps, ratios[1:], ratios):
        np.divide(c, prev, out=c)
        row += c
    gamma = shifted.copy()
    gamma[1:] += lower[:, None] / top
    gamma[:-1] += upper[:, None] / bottom
    twist = np.argmin(np.abs(gamma), axis=0)
    np.reciprocal(bottom, out=bottom)
    np.copyto(bottom, top, where=np.arange(1, level)[:, None] <= twist)
    np.cumprod(bottom, axis=0, out=vecs[1:])
    return vecs, shifted
