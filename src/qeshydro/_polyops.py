"""Internal helpers: coupling validation and exact-vs-float coercion, the
bisection loop, and small polynomial utilities.

Polynomials are coefficient sequences in ascending order of the power.
Coefficients may be `Fraction` (exact mode) or `float`; the two modes never
mix inside one polynomial.

:func:`polyval` evaluates a float64 1-D array of points with 16 or more
float coefficients in blocks of ``_BLOCK`` = 16 (Estrin, 1960): one matrix
product gives every block's value from the rows ``x**0 .. x**15``, and
Horner's rule in ``x**16`` combines the blocks.  :func:`_polyval_sets`
keeps the rows of the point sets of the most recent grid, so the states
verified on one grid build them once.  ``model.l2_norm_constants``, the
norm quadrature, evaluates a level's factors of 16 or more coefficients
at its 256 nodes in stacks of block matrices, each row with the bits of
:func:`polyval` on the nodes alone.  The error stays within Horner's
a-priori bound, ``|p^(x) - p(x)| <= 2 D eps sum_i |a_i| |x|**i`` at degree
``D`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
section 5.1).  Its last bits follow the BLAS kernel and the number of
threads BLAS splits the product over, and may depend on the size of the
array: in one process, evaluations of the same coefficients on arrays of
the same size agree bit for bit.  Below 16 coefficients, and for every
other input, it is Horner's loop, so every value at levels up to 15, the
norm constants included, is Horner's, byte for byte.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction
from numbers import Integral, Rational

import numpy as np


#: Largest k/omega_l whose square is still a finite double.
_MAX_K_OVER_OMEGA = math.sqrt(sys.float_info.max)


class DomainError(ValueError):
    """A structurally inadmissible request (distinct from a usage slip)."""


def allocated(make, need: str, count: int):
    """``make()``, an array of ``count`` doubles, or DomainError "``need``,
    <bytes> bytes: more than can be allocated" when numpy refuses it (a
    MemoryError, or a ValueError for a size past numpy's limits)."""
    try:
        return make()
    except (MemoryError, ValueError):
        size = 8 * count if 8 * count < sys.float_info.max else Decimal(8 * count)
        raise DomainError(f"{need}, {size:.3g} bytes: more than can be allocated") from None


def is_exact(value) -> bool:
    """True when the value can enter exact rational arithmetic."""
    return isinstance(value, Rational) and not isinstance(value, bool)


def coerce_couplings(omega_l, k):
    """Return (omega_l, k, exact) with both couplings Fraction or both float.

    The one check of the couplings, in this order: float couplings are
    finite, omega_l > 0, k >= 0, and float couplings keep omega_l**2 and
    (k/omega_l)**2 normal doubles, as every energy carries both.  The last
    check raises DomainError; the others raise ValueError.
    """
    if is_exact(omega_l) and is_exact(k):
        omega, kk, exact = Fraction(omega_l), Fraction(k), True
    else:
        omega, kk, exact = float(omega_l), float(k), False
        for name, value in (("omega_l", omega), ("k", kk)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
    if not omega > 0:
        raise ValueError(f"omega_l must be > 0, got {omega}")
    if kk < 0:
        raise ValueError(f"k must be >= 0, got {kk}")
    if not exact and (omega * omega < sys.float_info.min
                      or kk / omega > _MAX_K_OVER_OMEGA):
        raise DomainError(
            f"omega-l {omega!r} is too small for double precision at "
            f"k = {kk!r}: omega-l**2 underflows or (k/omega-l)**2 overflows"
        )
    return omega, kk, exact


def as_half_integer(j) -> Fraction:
    """Validate a non-negative half-integer label, not a bool, and return it
    as a Fraction."""
    jf = Fraction(j) if not isinstance(j, float) else Fraction(j).limit_denominator(2)
    if isinstance(j, float) and jf != Fraction(j):
        raise ValueError(f"j must be a half-integer, got {j!r}")
    if isinstance(j, bool) or jf < 0 or (2 * jf).denominator != 1:
        raise ValueError(f"j must be a non-negative half-integer, got {j!r}")
    return jf


def check_integer(value, name: str = "m") -> int:
    """Validate that ``value`` (m, or the label ``name``) is an exact integer."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an exact integer, got {value!r}")
    return int(value)


def check_m(m) -> int:
    """Validate m, an exact integer with |m| <= 2**53, where every integer
    is a double, so the float expressions of m take the m given; a larger
    |m| is a DomainError naming it."""
    m = check_integer(m)
    if abs(m) > 2**53:
        raise DomainError(f"m = {m} is too large for double precision: "
                          f"|m| must be at most 2**53")
    return m


def check_level(level) -> int:
    """Validate a level, an exact integer that is not negative; level 0 is
    left to the caller."""
    if check_integer(level, "level") < 0:
        raise ValueError(f"level must be a positive integer, got {level!r}")
    return int(level)


def bisect(above, lo: float, hi: float) -> tuple[float, float]:
    """Bisect ``[lo, hi]`` toward the point where ``above`` turns false.

    ``above(mid)`` moves ``lo`` up to ``mid``, otherwise ``hi`` comes down.
    A step that leaves both ends unchanged is repeated by every later step,
    so the loop stops there with the result all 200 steps give.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ends = (mid, hi) if above(mid) else (lo, mid)
        if ends == (lo, hi):
            break
        lo, hi = ends
    return lo, hi


#: Coefficients per block of :func:`polyval`'s blocked evaluation.
_BLOCK = 16


def polyval(coeffs, x):
    """Horner evaluation; exact when both coeffs and x are rational.

    A float64 array of points with float coefficients is evaluated in one
    buffer, by the same operations in the same order; a 1-D one with
    ``_BLOCK`` or more coefficients in blocks (:func:`_polyval_blocks`).
    """
    acc = 0 * x
    if (isinstance(x, np.ndarray) and x.ndim and x.dtype == np.float64
            and all(isinstance(c, float) for c in coeffs)):
        if x.ndim == 1 and len(coeffs) >= _BLOCK:
            return _polyval_blocks(_blocks(coeffs), _block_powers(x))
        for c in reversed(coeffs):
            np.multiply(acc, x, out=acc)
            acc += c
        return acc
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def kept(store: dict, name: str, key, compute):
    """``compute()``, kept in the one-entry slot ``store[name]`` as ``(key,
    value)`` until a call brings another ``key``.  Read once and replaced by
    one assignment, a slot can be missed by a concurrent caller, never read
    with another key's value; a ``compute`` that raises keeps nothing."""
    slot = store.get(name)
    if slot is None or slot[0] != key:
        slot = (key, compute())
        store[name] = slot
    return slot[1]


#: (owner, block powers of its point sets) of the most recent owner; it keeps
#: the owner alive, so no new object can reuse the owner's id and match it.
_last_powers = None


def _polyval_sets(coeffs, owner, point_sets):
    """``[polyval(coeffs, x) for x in point_sets]``, bit for bit, for the 1-D
    float64 arrays ``point_sets`` of ``owner`` (equal only to itself),
    padding ``_BLOCK`` or more float coefficients once and keeping the
    sets' block powers."""
    if len(coeffs) < _BLOCK or not all(isinstance(c, float) for c in coeffs):
        return [polyval(coeffs, x) for x in point_sets]
    blocks = _blocks(coeffs)
    powers = kept(globals(), "_last_powers", owner,
                  lambda: [_block_powers(x) for x in point_sets])
    return [_polyval_blocks(blocks, p) for p in powers]


def _blocks(coeffs) -> np.ndarray:
    """The coefficients in rows of ``_BLOCK``, the last padded with zeros."""
    nb = -(-len(coeffs) // _BLOCK)
    blocks = np.zeros(nb * _BLOCK)
    blocks[:len(coeffs)] = coeffs
    return blocks.reshape(nb, _BLOCK)


def _block_powers(x: np.ndarray):
    """The rows ``x**0 .. x**15`` by repeated multiplication, and ``x**16``."""
    rows = np.empty((_BLOCK, x.size))
    rows[0] = 1.0
    rows[1] = x
    for i in range(2, _BLOCK):
        np.multiply(rows[i - 1], x, out=rows[i])
    return rows, rows[-1] * x


def _polyval_blocks(blocks: np.ndarray, powers) -> np.ndarray:
    """``sum_b q_b(x) x**(16 b)`` for the rows ``q_b`` of ``blocks``
    (:func:`_blocks`) on the points of ``powers`` (:func:`_block_powers`):
    one matrix product with the rows ``x**0 .. x**15`` gives every ``q_b``,
    then Horner's rule in ``x**16`` runs over the blocks, highest first.
    A stack of such block matrices gives one row of values each: numpy
    makes each one's product alone, so each row has the bits of its
    factor evaluated alone."""
    rows, step = powers
    q = blocks @ rows
    if q.shape[-2] == 1:
        return q[..., 0, :]
    acc = q[..., -1, :] * step
    acc += q[..., -2, :]
    for b in range(q.shape[-2] - 3, -1, -1):
        acc *= step
        acc += q[..., b, :]
    return acc


def polyder(coeffs):
    """Derivative coefficients (ascending order)."""
    return tuple(n * c for n, c in enumerate(coeffs) if n > 0)


def monic(coeffs):
    """Scale so the leading coefficient is one; exact for Fraction input."""
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient is zero")
    return tuple(c / lead for c in coeffs)


def newton_polish(coeffs, roots) -> np.ndarray:
    """Three guarded Newton steps on a polynomial with float coefficients,
    from each of ``roots`` at once, as a float array.

    Each root gets the operations, in the order, of the steps taken from it
    alone, Horner's rule on the root as a Python float included, and keeps
    the value it has when it first meets a guard: a derivative that is 0
    or not finite, or a step that is not finite or above a tenth of
    ``max(1, |root|)``.
    """
    z = np.array(roots, dtype=float)
    # A step within a finite tenth is finite; dp = 0 gives an infinite step,
    # and a root that is not finite a NaN dp (its Horner sum starts 0 * z).
    tenth = 0.1 * np.fmax(1.0, np.abs(z))
    der = polyder(coeffs)
    going = np.ones(z.size, dtype=bool)
    # A non-finite value or step stops its root, so numpy need not warn.
    with np.errstate(all="ignore"):
        for _ in range(3):
            dp, value = 0 * z, 0 * z
            for c in reversed(der):
                dp *= z
                dp += c
            for c in reversed(coeffs):
                value *= z
                value += c
            going &= np.isfinite(dp)
            step = np.divide(value, dp, out=value)
            going &= np.abs(step) <= tenth
            np.subtract(z, step, out=z, where=going)
    return z


#: The largest |imag| / max(1, max |value|) of a root taken as real.
MAX_IMAG = 1e-9


def real_roots(coeffs):
    """Real roots of a float-coefficient polynomial, ascending, by the
    companion matrix (numpy.roots) and Newton polishing; and the roots whose
    imaginary part is above :data:`MAX_IMAG` times the spectral scale,
    excluded as complex, as Python complex numbers."""
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if len(cs) < 2:
        return [], []
    raw = np.roots(cs[::-1])
    complex_ = np.abs(raw.imag) > MAX_IMAG * max(1.0, float(np.max(np.abs(raw))))
    return (sorted(newton_polish(cs, raw.real[~complex_]).tolist()),
            [complex(z) for z in raw[complex_]])
