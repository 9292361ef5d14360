"""The algebraic solve keeps its most recent result in one slot: a repeat
call returns the same states and diagnostics as a cold call, and inputs
that differ only in exactness, the sign of a zero k or tol do not share it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import DomainError, cross_validate, level_energy, sl2, solve_admissible_z

HALF = Fraction(1, 2)

# At this input the algebraic route reports no diagnostics at tol = 1e-9
# and twelve eigenvector-consistency defects at tol = TIGHT.
NOISY = (Fraction(11, 2), -4, 0.22317077664872895, 2.9363511648986176)
TIGHT = 1e-30


@pytest.fixture
def solves(empty_slots, monkeypatch):
    """Empty slots, and the list of inputs the solve actually computed."""
    computed = []
    original = sl2._solve

    def counting(*args):
        computed.append(args)
        return original(*args)

    monkeypatch.setattr(sl2, "_solve", counting)
    return computed


def cold(*args, **kwargs):
    """A solve with the slot emptied first."""
    sl2._last_solve = None
    diagnostics = []
    states = solve_admissible_z(*args, diagnostics=diagnostics, **kwargs)
    return states, diagnostics


def same_bits(a, b):
    """Two lists of states with the same z and energy, sign bits included."""
    za, zb = np.array([s.z for s in a]), np.array([s.z for s in b])
    ea, eb = np.array([s.energy for s in a]), np.array([s.energy for s in b])
    return (np.array_equal(za, zb) and np.array_equal(np.signbit(za), np.signbit(zb))
            and np.array_equal(ea, eb)
            and np.array_equal(np.signbit(ea), np.signbit(eb))
            and [s.poly for s in a] == [s.poly for s in b])


class TestRepeatCall:
    def test_same_states_new_list_same_diagnostics(self, solves):
        first, second = [], []
        a = solve_admissible_z(*NOISY, TIGHT, diagnostics=first)
        b = solve_admissible_z(*NOISY, TIGHT, diagnostics=second)
        assert len(solves) == 1
        assert a is not b and a == b
        assert all(x is y for x, y in zip(a, b))
        assert first == second
        assert sum("consistency defect" in d for d in first) == 12
        a.clear()
        assert solve_admissible_z(*NOISY, TIGHT) == b

    def test_float_and_fraction_j_share_the_entry(self, solves):
        solve_admissible_z(2.5, 1, 0.7, 1.3)
        solve_admissible_z(Fraction(5, 2), 1, 0.7, 1.3)
        assert len(solves) == 1

    def test_cross_validate_after_a_solve_matches_a_cold_call(self, solves):
        reference = cross_validate(*NOISY, TIGHT)
        sl2._last_solve = None
        solve_admissible_z(*NOISY, TIGHT)
        report = cross_validate(*NOISY, TIGHT)
        assert len(solves) == 2
        assert report == reference
        assert sum("consistency defect" in n for n in report.notes) == 12


class TestKey:
    def test_exact_and_float_couplings_do_not_share(self, solves):
        # k/omega_l = 1/3 is rounded once in the exact matrix's diagonal and
        # twice in the float one's, so the two give different strengths.
        exact, _ = cold(Fraction(3, 2), 1, 3, 1)
        floats, _ = cold(Fraction(3, 2), 1, 3.0, 1.0)
        assert [s.z for s in exact] != [s.z for s in floats]
        del solves[:]
        for omega_l, k, expected in [(3, 1, exact), (Fraction(3), Fraction(1), exact),
                                     (3.0, 1.0, floats), (3.0, 1, floats),
                                     (3, 1, exact)]:
            assert same_bits(solve_admissible_z(Fraction(3, 2), 1, omega_l, k),
                             expected)
        # int and Fraction couplings are one exact input, a float and an int
        # one float input.
        assert len(solves) == 3

    def test_sign_of_a_zero_k(self, solves):
        plus, _ = cold(0, 0, 1.0, 0.0)
        minus, _ = cold(0, 0, 1.0, -0.0)
        assert np.signbit(minus[0].z) and not np.signbit(plus[0].z)
        for k, expected in [(0.0, plus), (-0.0, minus), (0.0, plus)]:
            assert same_bits(solve_admissible_z(0, 0, 1.0, k), expected)

    def test_tol(self, solves):
        loose = cold(*NOISY)
        tight = cold(*NOISY, tol=TIGHT)
        assert len(loose[1]) == 0 and len(tight[1]) == 12
        for tol, (states, diagnostics) in [(1e-9, loose), (TIGHT, tight),
                                           (1e-9, loose)]:
            seen = []
            assert same_bits(solve_admissible_z(*NOISY, tol, diagnostics=seen),
                             states)
            assert seen == diagnostics
        assert len(solves) == 5


class TestFailures:
    def test_a_raising_input_is_not_kept(self, solves):
        kept = solve_admissible_z(HALF, 0, 1.0, 1.0)
        for _ in range(2):
            with pytest.raises(DomainError):
                solve_admissible_z(HALF, 0, 1e100, 1.0)
        assert len(solves) == 3
        assert solve_admissible_z(HALF, 0, 1.0, 1.0) == kept
        assert len(solves) == 3


class TestEnergy:
    def test_energy_is_the_level_energy_near_zero(self):
        # At this omega_l the level-2 energy is near 0, where the
        # generator-coefficient formula rounds differently.
        omega_l = 1e7
        k = math.sqrt(4e7) * omega_l * (1 + 1e-10)
        states = solve_admissible_z(0.5, 0, omega_l, k)
        assert len(states) == 2
        expected = float(level_energy(2, 0, omega_l, k))
        assert all(s.energy == expected for s in states)
