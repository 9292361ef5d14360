"""Lie-algebraic route: the finite eigenproblem whose eigenvalues are the
admissible Coulomb strengths.

The gauged radial operator, multiplied by r, restricts to the space of
polynomials of degree <= 2j.  Expanded in ascending monomials r^0 .. r^{2j}
it is tridiagonal (Turbiner, Commun. Math. Phys. 118 (1988) 467), so a
:class:`QesMatrix` is its three bands, with a closed form used throughout:

    M[n, n]     = (k/omega_l) (n + |m| + 1/2)
    M[n-1, n]   = -n (|m| + n/2)
    M[n+1, n]   = -omega_l (2j - n)

The admissible strengths are exactly its eigenvalues, as a dense
eigensolver returns them from :meth:`QesMatrix.as_array`.  Its exact
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
                       coerce_couplings, imaginary, is_exact, kept)
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

    def as_array(self) -> np.ndarray:
        """The dense dim x dim float matrix, the one place that takes dim**2
        values; DomainError when it cannot be allocated."""
        dim = self.dim
        a = allocated(lambda: np.zeros((dim, dim)),
                      f"level {dim} needs a {dim} x {dim} matrix of doubles", dim * dim)
        for start, band in zip((0, 1, dim), self.bands):
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
    """Diagonalize the finite matrix and return the level's real-eigenvalue
    states as a :class:`model.Level`.

    The strengths are a dense eigensolver's eigenvalues as it returns them,
    sorted ascending: Newton steps on the ill-conditioned monomial
    characteristic polynomial would only move them off.  Eigenvalues that
    ``_polyops.imaginary`` finds complex are excluded, each with a note.
    Eigenvectors are rescaled so the constant coefficient is one, and a
    defect above :data:`MAX_DEFECT` is noted.  Every state carries the
    level's energy, :func:`model.level_energy`.

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
    """The Level of :func:`solve_admissible_z` for coerced inputs.  The
    eigenvectors of the eigenvalues that pass ``imaginary`` are scaled as
    one array; a defect above :data:`MAX_DEFECT` is noted with the last
    digits of the one matrix product giving all."""
    a = QesMatrix(jf, m, omega, kk).as_array()
    eigvals, eigvecs = np.linalg.eig(a)
    excluded, scale = imaginary(eigvals)
    level = len(a)
    energy = float(model.level_energy(level, m, omega, kk))
    params = ModelParams(float(omega), float(kk), m)

    # The accepted eigenvectors as the columns of one array, each given the
    # operations of a column alone; one matrix product gives the defects.
    cols = np.flatnonzero(~excluded)
    strengths = eigvals.real[cols]
    vecs = eigvecs.real[:, cols]
    peaks = np.max(np.abs(vecs), axis=0)
    pivots = vecs[0].copy()
    vanishing = ~(np.abs(pivots) > 1e-12 * peaks)
    for c in np.flatnonzero(vanishing):
        pivots[c] = vecs[np.flatnonzero(np.abs(vecs[:, c]) > 1e-12 * peaks[c])[0], c]
    vecs /= pivots
    defects = np.max(np.abs(a @ vecs - vecs * strengths), axis=0)
    # Rounding is monotone, so peak / |pivot| is max |vec| after the division.
    defective = defects > MAX_DEFECT * scale * (peaks / np.abs(pivots))

    notes: list[str] = []
    flagged = excluded.copy()
    flagged[cols] = vanishing | defective
    for idx in np.flatnonzero(flagged):
        if excluded[idx]:
            notes.append(f"excluded complex eigenvalue "
                         f"{complex(eigvals[idx])!r} at j={jf}, m={m}")
            continue
        c = idx - np.count_nonzero(excluded[:idx])
        z = float(strengths[c])
        if vanishing[c]:
            notes.append(f"eigenvector with vanishing constant term at "
                         f"z={z!r}; scaled leading coefficient instead")
        if defective[c]:
            notes.append(f"eigenvector consistency defect "
                         f"{float(defects[c]):.3e} at z={z!r}")
    if not cols.size:
        notes.append(f"no real eigenvalues at j={jf}, m={m}")

    order = np.argsort(strengths, kind="stable")
    return model.level_states(params, level, energy, strengths[order].tolist(),
                              [tuple(vec) for vec in vecs.T[order].tolist()], notes)
