"""Independent reference for the admissible Coulomb strengths, and the checks
the benchmark applies to every strength the program returns.

The QES matrix documented in ``qeshydro.sl2`` is tridiagonal with

    M[n, n]   = (k/omega_l) (n + |m| + 1/2)
    M[n-1, n] = -n (|m| + n/2)
    M[n, n-1] = -omega_l (2j - n + 1)

The paired off-diagonals multiply to n (|m| + n/2) omega_l (2j - n + 1) > 0,
so a diagonal similarity turns M into a real symmetric tridiagonal (Jacobi)
matrix with the same eigenvalues.  The reference takes them from
``numpy.linalg.eigvalsh``, which is backward stable for symmetric matrices.
Nothing here imports ``qeshydro``.
"""

from __future__ import annotations

import math

import numpy as np

#: A returned strength is accurate when it lies within this share of
#: max(1, |z|max) of a reference strength no other returned strength matched.
ACCURACY_RTOL = 1e-9

#: Energies follow from a closed form; only rounding may separate them.
ENERGY_RTOL = 1e-12


def jacobi_matrix(level: int, m: int, omega_l, k) -> np.ndarray:
    """Symmetrized QES matrix of size ``level`` = 2j + 1."""
    w, kk = float(omega_l), float(k)
    am = abs(m)
    two_j = level - 1
    n = np.arange(level, dtype=float)
    i = n[1:]
    diag = (kk / w) * (n + am + 0.5)
    off = -np.sqrt(i * (am + i / 2) * w * (two_j - i + 1))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def reference_strengths(level: int, m: int, omega_l, k) -> np.ndarray:
    """All 2j + 1 admissible strengths, ascending."""
    return np.linalg.eigvalsh(jacobi_matrix(level, m, omega_l, k))


def count_accurate(strengths, reference, rtol: float = ACCURACY_RTOL) -> int:
    """Number of returned strengths that match distinct reference strengths."""
    reference = np.asarray(reference, dtype=float)
    tol = rtol * max(1.0, float(np.max(np.abs(reference))))
    used = set()
    for z in strengths:
        idx = int(np.argmin(np.abs(reference - z)))
        if idx not in used and abs(reference[idx] - z) <= tol:
            used.add(idx)
    return len(used)


def closed_form_energy(level: int, m: int, omega_l, k) -> tuple[float, float]:
    """omega_l (2j + 1 + m + |m|) - (k/omega_l)^2 / 2 and the size of its terms."""
    w, kk = float(omega_l), float(k)
    linear = w * (level + m + abs(m))
    quadratic = (kk / w) ** 2 / 2
    return linear - quadratic, max(1.0, abs(linear), quadratic)


def outside_spectral_bound(level: int, m: int, omega_l, k, strengths) -> int:
    """Returned strengths beyond the Gershgorin bound of the matrix, which no
    eigenvalue can exceed.  They count as inaccurate; this only names them."""
    bound = float(np.max(np.abs(jacobi_matrix(level, m, omega_l, k)).sum(axis=1)))
    return sum(abs(float(z)) > bound * (1 + 1e-9) for z in strengths)


def invariant_violations(level: int, m: int, omega_l, k, strengths,
                         energies) -> list[str]:
    """Breaches of what every returned spectrum satisfies, however inaccurate
    its strengths are: at most 2j + 1 finite strengths in ascending order,
    and the closed-form energy for every state."""
    out = []
    zs = [float(z) for z in strengths]
    if len(zs) > level:
        out.append(f"{len(zs)} strengths returned for level {level}")
    if not all(math.isfinite(z) for z in zs):
        out.append("non-finite strength")
    elif zs != sorted(zs):
        out.append("strengths not in ascending order")
    energy, scale = closed_form_energy(level, m, omega_l, k)
    if any(not abs(float(e) - energy) <= ENERGY_RTOL * scale for e in energies):
        out.append(f"energy differs from the closed form {energy!r}")
    return out
