"""Analytic route: the three-term recurrence for the polynomial part, and
the termination constraint whose roots are the admissible Coulomb
strengths.

With the level-n energy fixed, the coefficient in front of a_{n-1} in the
recurrence vanishes at index n, so a vanishing a_n kills the whole tail of
the series: the polynomial factor then has degree n - 1 and the state is
exactly normalizable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model
from ._polyops import (
    check_integer_m,
    coerce_couplings,
    is_exact,
    monic,
    polyval,
    real_roots,
)
from .model import DomainError, ModelParams, QesState, level_energy

__all__ = [
    "NoGroundStateError",
    "ConstraintPolynomial",
    "constraint_polynomial",
    "solve_series_states",
]

_HALF = Fraction(1, 2)


class NoGroundStateError(DomainError):
    """Raised for level-0 requests: the terminating family starts at level 1.

    Assuming a constant solution forces its own coefficient to vanish
    through the recurrence, so no level-0 (nodeless-constant) state exists.
    """

    DEFAULT_MESSAGE = (
        "level 0 is inadmissible: the terminating family has no ground "
        "state, the lowest solvable level is 1"
    )

    def __init__(self, message: str | None = None):
        super().__init__(message or self.DEFAULT_MESSAGE)


def _terms(n: int, m: int, omega, k, energy):
    """Step-n recurrence data: the a_{n-1} coefficient, the z-free part of
    the a_n coefficient, and the divisor of a_{n+1} in

        a_{n+1} = { [omega_l (n + |m| + m) - k^2/(2 omega_l^2) - E] a_{n-1}
                  + [(|m| + 1/2 + n) k/omega_l - Z] a_n }
                  / [ (n + 1) (|m| + (1 + n)/2) ],

    with a_{-1} = 0 and a_0 = 1.  The divisor is positive for every n >= 0.

    Rational couplings keep the half-integers exact; float couplings take
    them as floats, which hold them exactly, so the results are the same
    bits as through Fraction at a fraction of the cost.
    """
    am = abs(m)
    half = _HALF if is_exact(omega) and is_exact(k) else 0.5
    e_term = omega * (n + am + m) - k * k / (2 * omega * omega) - energy
    b_term = (am + half + n) * (k / omega)
    denom = (n + 1) * (am + half * (1 + n))
    return e_term, b_term, denom


@dataclass(frozen=True)
class ConstraintPolynomial:
    """Termination constraint for one level, as a polynomial in the Coulomb
    strength z (ascending coefficients, exact for rational couplings)."""

    level: int
    m: int
    omega_l: object
    k: object
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return polyval(self.coeffs, z)

    def monic(self) -> tuple:
        return monic(self.coeffs)


def constraint_polynomial(level: int, m: int, omega_l, k) -> ConstraintPolynomial:
    """Run the recurrence symbolically in z from a_0 = 1 and return a_level.

    The level energy is fixed first, so the vanishing of a_level terminates
    the series at degree level - 1.  Exact rational coefficients whenever the
    couplings are rational; degree equals the level exactly.

    Float couplings run the recurrence of :func:`_terms` on arrays
    of float coefficients, each with the operations, in the order, of a
    loop over a list.  Rational couplings run it on Python integers over
    one common denominator (Bareiss, Math. Comp. 22 (1968) 565).  At the
    level energy the a_{n-1} coefficient is exactly omega_l (n - level), and
    the divisor of a_{n+1} is h_n / 2 with h_n = (n + 1)(2|m| + n + 1).
    Write omega_l = A/B, k/omega_l = P/Q, D = 2QB, w = D z and
    u_n = PB(2|m| + 2n + 1), so that (|m| + 1/2 + n) k/omega_l - z =
    (u_n - w)/D.  Then a_n = alpha_n(w) / R_n with R_0 = 1, alpha_0 = 1,
    alpha_{-1} = 0 and

        R_{n+1} = R_n D h_n,
        alpha_{n+1} = 2 (u_n - w) alpha_n
                      + 8 Q^2 A B (n - level) h_{n-1} alpha_{n-1},

    integer polynomials in w, so the coefficient of z^e in a_level is
    alpha_level[e] D^e / R_level, the one rational reduction made.
    """
    if level == 0:
        raise NoGroundStateError()
    if level < 0 or int(level) != level:
        raise ValueError(f"level must be a positive integer, got {level!r}")
    m = check_integer_m(m)
    omega, kk, exact = coerce_couplings(omega_l, k)
    if exact:
        return ConstraintPolynomial(level, m, omega, kk,
                                    _exact_constraint(level, m, omega, kk))
    energy = level_energy(level, m, omega, kk)

    # Coefficients a_n are arrays of polynomials in z.  Each coefficient of
    # a_{n+1} is ((0.0 + e a_{n-1}) - z-shifted a_n + b a_n) / divisor.
    a_prev = np.zeros(0)       # a_{-1} = 0
    a_cur = np.ones(1)         # a_0 = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(level):
            e_term, b_term, denom = _terms(n, m, omega, kk, energy)
            nxt = np.zeros(a_cur.size + 1)
            nxt[:a_prev.size] += e_term * a_prev
            nxt[1:] -= a_cur
            nxt[:-1] += b_term * a_cur
            nxt /= denom
            a_prev, a_cur = a_cur, nxt
    return ConstraintPolynomial(level, m, omega, kk, tuple(a_cur.tolist()))


def _exact_constraint(level: int, m: int, omega: Fraction, k: Fraction):
    """Coefficients of a_level(z) for rational couplings, by the integer
    recurrence in the docstring of :func:`constraint_polynomial`."""
    am = abs(m)
    ratio = k / omega
    a, b = omega.numerator, omega.denominator
    p, q = ratio.numerator, ratio.denominator
    scale = 2 * q * b                      # D
    pull = 8 * q * q * a * b
    alpha_prev: list = []                  # alpha_{-1} = 0
    alpha: list = [1]                      # alpha_0 = 1
    reduce_by = 1                          # R_0
    h_prev = 0
    for n in range(level):
        u = p * b * (2 * am + 2 * n + 1)
        h = (n + 1) * (2 * am + n + 1)
        nxt = [0] + [-2 * c for c in alpha]
        for i, c in enumerate(alpha):
            nxt[i] += 2 * u * c
        e = pull * (n - level) * h_prev
        for i, c in enumerate(alpha_prev):
            nxt[i] += e * c
        alpha_prev, alpha = alpha, nxt
        reduce_by *= scale * h
        h_prev = h
    return tuple(Fraction(c * scale ** e, reduce_by)
                 for e, c in enumerate(alpha))


def _regenerate(terms, z: float) -> list[float]:
    """Float coefficients a_0 .. a_{level+1} at one strength z from the
    level's float recurrence ``terms`` (steps 0 .. level): the polynomial
    factor and the two tail terms that must vanish."""
    coeffs = [1.0]
    for n, (e_term, b_term, denom) in enumerate(terms):
        a_prev = coeffs[n - 1] if n >= 1 else 0.0
        coeffs.append((e_term * a_prev + (b_term - z) * coeffs[n]) / denom)
    return coeffs


#: Floor of the two checks whose outcome decides a run's verdict, the
#: series tail here and the route agreement of ``verify.cross_validate``:
#: a ``tol`` below it is raised to it.  4096 machine epsilons, 9.1e-13.  At
#: omega_l = k = 1, m = 0, level 3 the routes agree to 4 eps in z and 5 eps
#: in the polynomial coefficients, and the largest scaled tail is 0.3 eps,
#: so a tol of 1e-15 failed correct solves.  At omega_l = 2, k = 0.25,
#: m = 1, level 6 the differences are 96 and 768 eps: the floor leaves 5
#: times the larger.
TOL_FLOOR = 4096 * sys.float_info.epsilon


def solve_series_states(level: int, m: int, omega_l, k, tol: float = 1e-9,
                        diagnostics: list[str] | None = None) -> list[QesState]:
    """States of one level from the real roots of the termination constraint.

    Roots come from the companion matrix of the constraint polynomial with a
    Newton polish on its float-rounded coefficients; complex roots are
    excluded and reported.  For each root the recurrence is re-run
    numerically and the coefficients past the degree are checked to vanish,
    to ``tol`` but no closer than :data:`TOL_FLOOR`.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    constraint = constraint_polynomial(level, m, omega_l, k)
    if tol < TOL_FLOOR and diagnostics is not None:
        diagnostics.append(
            f"tol {tol!r} is below the floor {TOL_FLOOR!r}: series termination "
            f"and route agreement are checked at the floor"
        )
    roots = real_roots([float(c) for c in constraint.coeffs], tol, diagnostics)
    if not roots and diagnostics is not None:
        diagnostics.append(
            f"no real admissible z at level={level}, m={m}"
        )

    energy = float(level_energy(level, m, omega_l, k))
    params = ModelParams(float(omega_l), float(k), int(m))
    terms = [_terms(n, m, float(omega_l), float(k), energy)
             for n in range(level + 1)]
    limit = max(tol, TOL_FLOOR)
    polys = []
    unterminated = None
    for z in roots:
        coeffs = _regenerate(terms, z)
        scale = max(1.0, max(abs(c) for c in coeffs[:level]))
        tail = max(abs(coeffs[level]), abs(coeffs[level + 1]))
        if tail > limit * scale:
            unterminated = z, tail
            break
        polys.append(tuple(coeffs[:level]))
    # The states below the first unterminated root are normalised first, so
    # a norm failure among them is raised ahead of it.  The error is made
    # only at the raise: kept in a local, it and this frame would hold each
    # other, and every caller's frame, until a cyclic garbage collection.
    states = model.level_states(params, level, energy, roots, polys)
    if unterminated is not None:
        z, tail = unterminated
        raise RuntimeError(
            f"series failed to terminate at level {level}, z={z!r}: "
            f"tail coefficient {tail:.3e}"
        )
    return states
