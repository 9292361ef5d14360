"""Spectral engine for the quasi-exactly solvable planar hydrogen-like atom
with a linear potential in a uniform magnetic field.

Two independent solvers (a Lie-algebraic finite eigenproblem and a
power-series termination constraint) produce the admissible Coulomb
strengths and eigenstates; verification checks operator residuals,
normalization, node counts, and cross-method agreement; every solved state
maps onto an exact eigenstate of a sextic oscillator with a centrifugal
barrier.
"""

__version__ = "0.1.0"

from .model import (
    DomainError,
    GridError,
    ModelParams,
    QesState,
    RadialGrid,
    envelope_r_max,
    l2_norm_constant,
    level_energy,
    radial_operator_apply,
)
from .series import (
    ConstraintPolynomial,
    NoGroundStateError,
    constraint_polynomial,
    solve_series_states,
)
from .sextic import (
    SexticState,
    rho_grid_for,
    sextic_residual,
    sextic_wavefunction,
    to_sextic,
)
from .sl2 import (
    QesMatrix,
    build_qes_matrix,
    characteristic_polynomial,
    solve_admissible_z,
)
from .verify import (
    VerificationReport,
    count_nodes,
    cross_validate,
    residual_convergence_ratio,
    scaling_audit,
    verify_state,
)

__all__ = [
    "__version__",
    "DomainError",
    "GridError",
    "NoGroundStateError",
    "ModelParams",
    "QesState",
    "RadialGrid",
    "ConstraintPolynomial",
    "QesMatrix",
    "SexticState",
    "VerificationReport",
    "build_qes_matrix",
    "characteristic_polynomial",
    "constraint_polynomial",
    "count_nodes",
    "cross_validate",
    "envelope_r_max",
    "l2_norm_constant",
    "level_energy",
    "radial_operator_apply",
    "residual_convergence_ratio",
    "rho_grid_for",
    "scaling_audit",
    "sextic_residual",
    "sextic_wavefunction",
    "solve_admissible_z",
    "solve_series_states",
    "to_sextic",
    "verify_state",
]
