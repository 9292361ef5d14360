import math
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import (
    NoGroundStateError,
    constraint_polynomial,
    level_energy,
    solve_series_states,
)
from oracles import (
    RecurrenceState,
    constraint_value,
    energy_x,
    indicial_exponent,
    recurrence_next,
)

HALF = Fraction(1, 2)


class TestIndicial:
    @pytest.mark.parametrize("m,expected", [(0, HALF), (-3, Fraction(7, 2)),
                                            (2, Fraction(5, 2))])
    def test_reduced_function_exponent(self, m, expected):
        data = indicial_exponent(m)
        assert data.s_zero == expected
        assert data.s_phi == 0

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            indicial_exponent(0.5)


class TestRecurrence:
    def test_first_step_terminates_at_admissible_z(self):
        state = RecurrenceState(m=0, omega_l=Fraction(1), k=Fraction(1),
                                energy=HALF, z=HALF, coeffs=(Fraction(1),))
        assert recurrence_next(state, 0) == 0

    def test_second_step_confirms_level_one(self):
        state = RecurrenceState(m=0, omega_l=Fraction(1), k=Fraction(1),
                                energy=HALF, z=HALF,
                                coeffs=(Fraction(1), Fraction(0)))
        assert recurrence_next(state, 1) == 0

    def test_zero_pair_stays_zero(self):
        state = RecurrenceState(m=2, omega_l=1.0, k=0.7, energy=3.0, z=1.1,
                                coeffs=(1.0, -0.3, 0.0, 0.0))
        assert recurrence_next(state, 3) == 0.0

    def test_extended_appends(self):
        state = RecurrenceState(m=0, omega_l=1.0, k=1.0, energy=0.5, z=0.5,
                                coeffs=(1.0,))
        grown = state.extended().extended()
        assert len(grown.coeffs) == 3
        assert grown.coeffs[1] == pytest.approx(0.0)

    def test_requires_available_coefficient(self):
        state = RecurrenceState(m=0, omega_l=1.0, k=1.0, energy=0.5, z=0.5,
                                coeffs=(1.0,))
        with pytest.raises(ValueError):
            recurrence_next(state, 1)

    def test_denominator_positive(self):
        # (n + 1)(|m| + (1 + n)/2) > 0 for every n >= 0 and any m
        for m in range(-6, 7):
            for n in range(0, 20):
                denom = (n + 1) * (abs(m) + Fraction(1 + n, 2))
                assert denom > 0


class TestConstraintPolynomial:
    def test_level_one_unit_couplings(self):
        c = constraint_polynomial(1, 0, 1, 1)
        assert c.degree == 1
        # proportional to 1/2 - z: monic form is z - 1/2
        assert c.monic() == (-HALF, Fraction(1))

    def test_level_two_unit_couplings(self):
        c = constraint_polynomial(2, 0, 1, 1)
        assert c.monic() == (Fraction(1, 4), Fraction(-2), Fraction(1))

    def test_level_one_zero_slope_root_at_origin(self):
        for m in (-2, 0, 3):
            c = constraint_polynomial(1, m, 1, 0)
            assert c.monic() == (Fraction(0), Fraction(1))

    @pytest.mark.parametrize("level", range(1, 10))
    def test_degree_equals_level(self, level):
        c = constraint_polynomial(level, -1, Fraction(2), Fraction(3))
        assert c.degree == level
        assert all(isinstance(x, Fraction) for x in c.coeffs)

    def test_level_zero_rejected(self):
        with pytest.raises(NoGroundStateError):
            constraint_polynomial(0, 0, 1, 1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="positive integer, got -2"):
            constraint_polynomial(-2, 0, 1, 1)

    @pytest.mark.parametrize("level", [2.0, 2.5, True, Fraction(2), "2"])
    def test_level_must_be_an_exact_integer(self, level):
        with pytest.raises(ValueError, match="level must be an exact integer"):
            constraint_polynomial(level, 0, 1.0, 1.0)

    def test_numpy_integer_level(self):
        assert constraint_polynomial(np.int64(2), 0, 1, 1).coeffs == \
            constraint_polynomial(2, 0, 1, 1).coeffs

    def test_feasibility_evaluation(self):
        assert constraint_value(1, 0, 1, 1, HALF) == 0
        assert constraint_value(1, 0, 1, 1, Fraction(1, 3)) != 0

    def test_float_couplings_supported(self):
        c = constraint_polynomial(2, 0, 1.0, 1.0)
        roots = sorted(np.roots(list(c.coeffs)[::-1]).real)
        assert roots[0] == pytest.approx(1 - math.sqrt(3) / 2, rel=1e-12)


class TestSolveSeries:
    def test_level_one(self):
        states = solve_series_states(1, 0, 1, 1)
        assert len(states) == 1
        assert states[0].z == pytest.approx(0.5, rel=1e-14)
        assert states[0].poly == (1.0,)
        assert states[0].energy == pytest.approx(0.5)

    def test_level_two_polynomials(self):
        states = solve_series_states(2, 0, 1, 1)
        for s in states:
            # a1 = ((|m| + 1/2)(k/omega) - z) / (|m| + 1/2) = 1 - 2z
            assert s.poly[1] == pytest.approx(1 - 2 * s.z, rel=1e-12)
        low = states[0]
        assert low.poly[1] == pytest.approx(math.sqrt(3) - 1, rel=1e-12)
        assert low.poly[1] > 0

    @pytest.mark.parametrize("m,omega,k", [(1, 1.0, 2.0), (-3, 0.5, 1.0),
                                           (0, 2.0, 0.0)])
    def test_level_two_linear_coefficient_general(self, m, omega, k):
        half_m = abs(m) + 0.5
        for s in solve_series_states(2, m, omega, k):
            expected = (half_m * k / omega - s.z) / half_m
            assert s.poly[1] == pytest.approx(expected, rel=1e-11)

    def test_roots_satisfy_constraint(self):
        for level, m in [(3, 0), (5, -2), (8, 1)]:
            c = constraint_polynomial(level, m, 1.0, 1.0)
            scale = max(abs(x) for x in c.coeffs)
            for s in solve_series_states(level, m, 1.0, 1.0):
                assert abs(c(s.z)) < 1e-9 * scale * max(1.0, abs(s.z)) ** level

    def test_level_zero_raises_with_message(self):
        with pytest.raises(NoGroundStateError, match="ground state"):
            solve_series_states(0, 0, 1, 1)

    def test_termination_of_trailing_coefficients(self):
        for level, m in [(3, 0), (5, 1), (7, -2)]:
            for s in solve_series_states(level, m, 1, 1):
                state = RecurrenceState(m=m, omega_l=1.0, k=1.0,
                                        energy=s.energy, z=s.z, coeffs=(1.0,))
                for _ in range(level + 3):
                    state = state.extended()
                scale = max(abs(c) for c in state.coeffs[:level])
                for tail in state.coeffs[level:]:
                    assert abs(tail) < 1e-9 * scale

    def test_sorted_by_z(self):
        states = solve_series_states(6, 2, 1, 2)
        zs = [s.z for s in states]
        assert zs == sorted(zs)


class TestEnergyIdentity:
    @pytest.mark.parametrize("level", range(1, 14))
    def test_exact_for_rational_couplings(self, level):
        j = Fraction(level - 1, 2)
        for m in range(-3, 4):
            for omega, k in [(Fraction(1), Fraction(1)),
                             (Fraction(2), Fraction(1)),
                             (Fraction(1, 2), Fraction(3, 4))]:
                assert level_energy(level, m, omega, k) == energy_x(j, m, omega, k)


def test_excluded_root_diagnostics_have_no_numpy_reprs():
    # At level 60 np.roots returns complex pairs, which are excluded and
    # noted; their text must not carry numpy scalar reprs.
    notes = solve_series_states(60, 0, 1.0, 1.0).notes
    assert any("excluded complex root" in d for d in notes)
    assert not any("np." in d for d in notes)
