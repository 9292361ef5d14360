"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to
see the lines as they appear).
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qeshydro import (
    RadialGrid,
    build_qes_matrix,
    characteristic_polynomial,
    constraint_polynomial,
    level_energy,
    residual_convergence_ratio,
    rho_grid_for,
    scaling_audit,
    solve_admissible_z,
    solve_series_states,
    to_sextic,
    verify_state,
)
from oracles import energy_x, fd_sextic_residual
from qeshydro.model import ModelParams

OMEGA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
K_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f": {detail}" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300) or a == b


def test_criterion_1_level_one_closed_form():
    started = time.perf_counter()
    failures = []
    for omega in OMEGA_GRID:
        for k in K_GRID:
            for m in range(-2, 3):
                states = solve_admissible_z(0, m, omega, k)
                expected = (abs(m) + 0.5) * k / omega
                if len(states) != 1 or not _close(states[0].z, expected, 1e-12):
                    failures.append((omega, k, m))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _report("criterion 1 (level-1 closed form, 125 parameter points)", ok,
            f"{len(failures)} mismatches, {elapsed:.2f}s")
    assert not failures
    assert elapsed < 1.0


def test_criterion_2_level_two_closed_form():
    started = time.perf_counter()
    failures = []
    for omega in OMEGA_GRID:
        for k in K_GRID:
            for m in range(-2, 3):
                states = solve_admissible_z(0.5, m, omega, k)
                disc = k * k / 4 + omega**3 * (0.5 + abs(m))
                lo = (k * (abs(m) + 1) - math.sqrt(disc)) / omega
                hi = (k * (abs(m) + 1) + math.sqrt(disc)) / omega
                energy = omega * (2 + m + abs(m)) - k * k / (2 * omega * omega)
                good = (
                    len(states) == 2
                    and _close(states[0].z, lo, 1e-12)
                    and _close(states[1].z, hi, 1e-12)
                    and all(_close(s.energy, energy, 1e-12) for s in states)
                )
                if not good:
                    failures.append((omega, k, m))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _report("criterion 2 (level-2 closed form and energies)", ok,
            f"{len(failures)} mismatches, {elapsed:.2f}s")
    assert not failures
    assert elapsed < 1.0


def test_criterion_3_method_equivalence():
    started = time.perf_counter()
    exact_failures = []
    worst_root_delta = 0.0
    for omega, k in ((1, 1), (2, 1), (1, 3)):
        for m in range(-3, 4):
            for level in range(1, 14):
                j = Fraction(level - 1, 2)
                char = characteristic_polynomial(
                    build_qes_matrix(j, m, Fraction(omega), Fraction(k)))
                constraint = constraint_polynomial(
                    level, m, Fraction(omega), Fraction(k)).monic()
                if char != constraint:
                    exact_failures.append((omega, k, m, level))
                    continue
                algebra = solve_admissible_z(j, m, omega, k)
                power = solve_series_states(level, m, omega, k)
                if len(algebra) != len(power):
                    exact_failures.append((omega, k, m, level))
                    continue
                for a, b in zip(algebra, power):
                    worst_root_delta = max(
                        worst_root_delta,
                        abs(a.z - b.z) / max(1.0, abs(a.z), abs(b.z)))
    elapsed = time.perf_counter() - started
    ok = not exact_failures and worst_root_delta < 1e-9 and elapsed < 30.0
    _report("criterion 3 (exact polynomial equivalence, levels 1..13)", ok,
            f"{len(exact_failures)} exact mismatches, worst root delta "
            f"{worst_root_delta:.2e}, {elapsed:.1f}s")
    assert not exact_failures
    assert worst_root_delta < 1e-9
    assert elapsed < 30.0


def test_criterion_4_eigenfunction_residuals():
    # Sweep at the unit couplings used throughout; residual < 1e-5 on the
    # default 4096-point grid and a 3.5-4.5x drop under 2x refinement.
    started = time.perf_counter()
    residual_failures = []
    ratio_failures = []
    worst = 0.0
    for m in range(-4, 5):
        params = ModelParams(1.0, 1.0, m)
        grid = RadialGrid.for_params(params)
        for level in range(1, 8):
            for state in solve_series_states(level, m, 1.0, 1.0):
                report = verify_state(state, grid=grid)
                worst = max(worst, report.max_residual)
                if not report.max_residual < 1e-5:
                    residual_failures.append(
                        (m, level, round(state.z, 3), report.max_residual))
                ratio = residual_convergence_ratio(state)
                if not 3.5 <= ratio <= 4.5:
                    ratio_failures.append((m, level, round(state.z, 3), ratio))
    elapsed = time.perf_counter() - started
    ok = not residual_failures and not ratio_failures and elapsed < 60.0
    _report("criterion 4 (residuals < 1e-5 to level 7 plus 2nd-order drop)",
            ok,
            f"{len(residual_failures)} residual violations (worst "
            f"{worst:.2e}), {len(ratio_failures)} ratio violations, "
            f"{elapsed:.1f}s")
    assert elapsed < 60.0
    assert not ratio_failures, ratio_failures[:5]
    assert not residual_failures, (
        f"{len(residual_failures)} states exceed the 1e-5 residual budget "
        f"(worst {worst:.2e}); sample: {residual_failures[:5]}"
    )


def test_criterion_5_sextic_mapping():
    failures = []
    eig_failures = []
    worst = 0.0
    for m in range(-4, 5):
        grid = rho_grid_for(ModelParams(1.0, 3.0, m))
        for level in range(1, 8):
            for state in solve_series_states(level, m, 1.0, 3.0):
                mapped = to_sextic(state)
                if mapped.eigenvalue != 4.0 * state.z:
                    eig_failures.append((m, level))
                residual = fd_sextic_residual(mapped, grid)
                worst = max(worst, residual)
                if not residual < 1e-5:
                    failures.append((m, level, round(state.z, 3), residual))
    identity_ok = all(
        Fraction(4 * (2 * m) ** 2 - 1, 8)
        == (2 * abs(Fraction(m)) + Fraction(1, 2))
        * (2 * abs(Fraction(m)) - Fraction(1, 2)) / 2
        for m in range(-6, 7)
    )
    ok = not failures and not eig_failures and identity_ok
    _report("criterion 5 (sextic residuals, 4z eigenvalue, exponent identity)",
            ok, f"worst residual {worst:.2e}, {len(failures)} over budget")
    assert not eig_failures
    assert identity_ok
    assert not failures, failures[:5]


def test_criterion_6_energy_identity():
    failures = []
    for level in range(1, 14):
        j = Fraction(level - 1, 2)
        for m in range(-3, 4):
            for omega, k in ((Fraction(1), Fraction(1)),
                             (Fraction(2), Fraction(1)),
                             (Fraction(1, 2), Fraction(3, 4))):
                if level_energy(level, m, omega, k) != energy_x(j, m, omega, k):
                    failures.append((level, m, omega, k))
    _report("criterion 6 (exact energy identity to level 13)", not failures)
    assert not failures


def test_criterion_7_scaling_covariance():
    failures = []
    for lam in (2, Fraction(1, 3)):
        for level in (1, 2, 3, 5, 8):
            for m in (-2, 0, 1):
                j = Fraction(level - 1, 2)
                report = scaling_audit(j, m, Fraction(1), Fraction(1), lam)
                if not report.passed:
                    failures.append((float(lam), level, m))
    _report("criterion 7 (scaling covariance, lambda in {2, 1/3})",
            not failures)
    assert not failures


def test_criterion_8_node_counts():
    rng = random.Random(20260808)
    failures = []
    for _ in range(20):
        omega = math.exp(rng.uniform(math.log(0.3), math.log(5.0)))
        k = rng.uniform(0.0, 5.0)
        m = rng.randint(-3, 3)
        states = solve_series_states(2, m, omega, k)
        nodes = [verify_state(s).node_count for s in states]
        if len(states) != 2 or nodes != [0, 1]:
            failures.append((omega, k, m, nodes))
    _report("criterion 8 (level-2 node counts on 20 random draws)",
            not failures)
    assert not failures


def test_criterion_9_no_ground_state_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "qeshydro", "solve", "--omega-l", "1",
         "--k", "1", "--m", "0", "--level", "0"],
        capture_output=True, text=True)
    ok = proc.returncode == 3 and "ground state" in proc.stderr
    usage = subprocess.run(
        [sys.executable, "-m", "qeshydro", "solve", "--omega-l", "0",
         "--k", "1", "--m", "0", "--level", "1"],
        capture_output=True, text=True)
    ok = ok and usage.returncode == 2
    _report("criterion 9 (level-0 domain exit code and message)", ok,
            f"exit={proc.returncode}, message={proc.stderr.strip()!r}")
    assert proc.returncode == 3
    assert "ground state" in proc.stderr
    assert usage.returncode == 2
