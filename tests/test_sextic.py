import copy
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import (
    DomainError,
    ModelParams,
    rho_grid_for,
    sextic_residual,
    sextic_wavefunction,
    solve_admissible_z,
    solve_series_states,
    to_sextic,
)
from oracles import fd_sextic_residual
from qeshydro.sextic import MAX_SEXTIC_RESIDUAL, _map_defect


class TestMapping:
    def test_level_one_unit_couplings(self):
        state = solve_series_states(1, 0, 1, 1)[0]
        mapped = to_sextic(state)
        assert mapped.m_tilde == 0
        assert mapped.centrifugal_coeff == -0.125
        assert mapped.rho2_coeff == -2.0
        assert mapped.rho4_coeff == 4.0
        assert mapped.rho6_coeff == 2.0
        assert mapped.eigenvalue == 2.0

    def test_zero_slope_drops_quartic(self):
        state = solve_series_states(1, 0, 1, 0)[0]
        assert to_sextic(state).rho4_coeff == 0.0

    def test_unit_m_centrifugal(self):
        state = solve_series_states(1, 1, 1, 1)[0]
        mapped = to_sextic(state)
        assert mapped.m_tilde == 2
        assert mapped.centrifugal_coeff == pytest.approx(15.0 / 8.0)

    def test_eigenvalue_exactly_four_z(self):
        for level, m in [(1, 0), (2, -1), (4, 2), (6, 0)]:
            for s in solve_series_states(level, m, 1, 1):
                assert to_sextic(s).eigenvalue == 4.0 * s.z

    def test_even_angular_label(self):
        for m in range(-4, 5):
            s = solve_series_states(1, m, 1, 1)[0]
            assert to_sextic(s).m_tilde == 2 * m
            assert to_sextic(s).m_tilde % 2 == 0


class TestWavefunction:
    def test_level_one_closed_form(self):
        state = solve_series_states(1, 0, 1, 1)[0]
        mapped = to_sextic(state)
        rho = np.linspace(0.1, 1.5, 20)
        expected = state.norm_constant * np.sqrt(rho) * np.exp(-rho**4 / 2 - rho**2)
        assert np.allclose(sextic_wavefunction(mapped, rho), expected, rtol=1e-13)

    def test_small_rho_exponent(self):
        # zeta ~ rho^(2|m| + 1/2) near the origin
        for m in (0, 1, 3):
            state = solve_series_states(1, m, 1, 1)[0]
            mapped = to_sextic(state)
            power = 2 * abs(m) + 0.5
            rho = np.array([1e-4, 2e-4])
            vals = sextic_wavefunction(mapped, rho)
            measured = math.log(vals[1] / vals[0]) / math.log(2.0)
            assert measured == pytest.approx(power, abs=1e-6)

    def test_unit_rho_equals_radial_value(self):
        state = solve_series_states(2, 1, 1, 1)[1]
        mapped = to_sextic(state)
        assert float(sextic_wavefunction(mapped, 1.0)) == \
            pytest.approx(float(state.radial_values(1.0)), rel=1e-14)

    def test_rejects_non_positive_rho(self):
        mapped = to_sextic(solve_series_states(1, 0, 1, 1)[0])
        with pytest.raises(ValueError):
            sextic_wavefunction(mapped, 0.0)

    def test_even_polynomial_structure(self):
        # the polynomial factor in rho has degree 2(level-1), even powers only
        state = solve_series_states(3, 1, 1, 1)[0]
        mapped = to_sextic(state)
        rho = np.linspace(0.2, 2.0, 30)
        rho_poly = np.zeros(2 * (state.level - 1) + 1)
        rho_poly[::2] = state.poly
        envelope = rho ** (2 * abs(1) + 0.5) * np.exp(-rho**4 / 2 - rho**2)
        expected = state.norm_constant * envelope * \
            np.polynomial.polynomial.polyval(rho, rho_poly)
        assert np.allclose(sextic_wavefunction(mapped, rho), expected, rtol=1e-12)


class TestResidual:
    def test_level_one_default_grid(self):
        mapped = to_sextic(solve_series_states(1, 0, 1, 1)[0])
        assert sextic_residual(mapped) < 1e-5

    def test_level_two_pair(self):
        states = solve_series_states(2, 0, 1, 1)
        root = math.sqrt(3) / 2
        for s, expected in zip(states, (4 * (1 - root), 4 * (1 + root))):
            mapped = to_sextic(s)
            assert mapped.eigenvalue == pytest.approx(expected, rel=1e-12)
            assert sextic_residual(mapped) < 1e-5

    def test_nonzero_m(self):
        grid = rho_grid_for(ModelParams(1, 1, 2))
        for s in solve_series_states(3, 2, 1, 1):
            assert sextic_residual(to_sextic(s), grid) < 1e-5

    # These two grade the test oracle's finite-difference residual.
    def test_grid_too_coarse(self):
        from qeshydro import RadialGrid
        mapped = to_sextic(solve_series_states(1, 0, 1, 1)[0])
        grid = RadialGrid.geometric(0.03, 2.0, 16)
        with pytest.raises(ValueError):
            fd_sextic_residual(mapped, grid)


    @pytest.mark.parametrize("level,m", [(1, 0), (7, -2), (13, 3)])
    def test_warm_call_holds_three_grid_arrays(self, level, m):
        # zeta, the residual and one work buffer: a warm call (the grid's
        # powers, stencil, envelope and potential kept) makes nothing else
        # the size of the grid.
        states = solve_admissible_z((level - 1) / 2, m, 1.3, 0.7)
        rho = rho_grid_for(states[0].params)
        mapped = to_sextic(states[-1])
        fd_sextic_residual(mapped, rho)
        tracemalloc.start()
        try:
            fd_sextic_residual(mapped, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * rho.points.nbytes


def shifted(sextic, field, rel=1e-6):
    """``sextic`` with ``field`` moved by ``rel`` relative, past the checks
    of ``SexticState``."""
    wrong = copy.copy(sextic)
    object.__setattr__(wrong, field, getattr(sextic, field) * (1.0 + rel))
    return wrong


def sweep_range_sets(count, seed, zero_slope=False):
    """Seeded (omega_l, k, m, level) over the sweep benchmark's ranges:
    omega_l log-spread over [0.2, 5], k in (0, 4] (0 for every tenth set
    when ``zero_slope``), m -4..4, levels 1-13."""
    rng = random.Random(seed)
    for i in range(count):
        omega_l = 0.2 * 25.0 ** rng.random()
        k = 4.0 * (1.0 - rng.random())
        m, level = rng.randint(-4, 4), rng.randint(1, 13)
        yield omega_l, 0.0 if zero_slope and i % 10 == 0 else k, m, level


#: Sets above the cross-validation cap, at levels the deep benchmark covers.
DEEP_SETS = [(1.1, 1.7, 1, 40), (0.5, 2.0, 0, 100), (0.23, 3.1, -2, 150),
             (3.0, 0.5, -3, 200)]
SHIFTED_FIELDS = ("centrifugal_coeff", "rho2_coeff", "rho4_coeff", "rho6_coeff",
                  "eigenvalue")


def ref_map_defect_values(sextic, rho):
    """u (H_sextic - eigenvalue) zeta / g at ``rho``, u = rho**2, from the
    derivatives in rho of zeta = g P(rho**2), g = rho**s exp(phi(rho)),
    phi = -omega_l rho**4 / 2 - delta rho**2, with log g' = s/rho + phi'."""
    params = sextic.source.params
    omega = float(params.omega_l)
    delta = float(params.k) / omega
    s = 2 * abs(params.m) + 0.5
    coeffs = np.zeros(2 * sextic.source.level - 1)
    coeffs[::2] = sextic.source.poly
    p = np.polynomial.Polynomial(coeffs)
    lg1 = s / rho - 2 * omega * rho**3 - 2 * delta * rho
    lg2 = -s / rho**2 - 6 * omega * rho**2 - 2 * delta
    second = p.deriv(2)(rho) + 2 * lg1 * p.deriv(1)(rho) + (lg1 * lg1 + lg2) * p(rho)
    potential = (sextic.centrifugal_coeff / rho**2 + sextic.rho2_coeff * rho**2
                 + sextic.rho4_coeff * rho**4 + sextic.rho6_coeff * rho**6)
    return rho**2 * (-0.5 * second + (potential - sextic.eigenvalue) * p(rho))


class TestExactIdentity:
    @pytest.mark.parametrize("m", range(-3, 4))
    def test_level_one_unit_couplings_read_zero(self, m):
        # Every coefficient and term is a binary fraction, so the float
        # identity holds exactly.
        mapped = to_sextic(solve_series_states(1, m, 1, 1)[0])
        assert sextic_residual(mapped) == 0.0

    def test_grid_is_ignored(self):
        from qeshydro import RadialGrid
        mapped = to_sextic(solve_admissible_z(3, 1, 1.3, 0.7)[2])
        value = sextic_residual(mapped)
        assert sextic_residual(mapped, rho_grid_for(mapped.source.params)) == value
        assert sextic_residual(mapped, RadialGrid.geometric(0.03, 2.0, 16)) == value

    @pytest.mark.parametrize("field", SHIFTED_FIELDS)
    @pytest.mark.parametrize("level,m", [(1, 0), (4, -1), (9, 2)])
    def test_coefficients_are_the_operator_in_rho(self, field, level, m):
        # The u-recurrence of _map_defect against derivatives taken in rho:
        # a map shifted by 10% has T(u) != 0, and both must give its values
        # to within rounding of the reference's own cancelling terms.
        state = solve_admissible_z((level - 1) / 2, m, 1.3, 0.7)[-1]
        wrong = shifted(to_sextic(state), field, 0.1)
        t, _ = _map_defect(wrong)
        u = np.linspace(0.2, 1.6, 15) ** 2
        expected = ref_map_defect_values(wrong, np.sqrt(u))
        tol = 1e-8 * np.polynomial.polynomial.polyval(u, np.abs(t))
        assert np.max(np.abs(expected)) > 100 * np.max(tol)
        assert np.all(np.abs(np.polynomial.polynomial.polyval(u, t) - expected) <= tol)

    def test_every_shift_fails_and_every_state_passes(self):
        # Unshifted maps read below the tolerance, also at k = 0, where a
        # z = 0 state has every odd coefficient 0; a 1e-6 relative shift of
        # any sextic coefficient or of the eigenvalue reads above it.  Sets
        # with k = 0 are not shifted: rho4 is 0 there, and the z = 0
        # state's eigenvalue is rounding, so a relative shift moves nothing.
        sets = [*sweep_range_sets(60, 11, zero_slope=True), *DEEP_SETS]
        passing, failing = [], []
        for omega_l, k, m, level in sets:
            for state in solve_admissible_z((level - 1) / 2, m, omega_l, k):
                mapped = to_sextic(state)
                value = sextic_residual(mapped)
                if not value <= MAX_SEXTIC_RESIDUAL:
                    passing.append((omega_l, k, m, level, state.z, value))
                if k == 0.0:
                    continue
                for field in SHIFTED_FIELDS:
                    value = sextic_residual(shifted(mapped, field))
                    if not value > MAX_SEXTIC_RESIDUAL:
                        failing.append((omega_l, k, m, level, state.z, field, value))
        assert passing == []
        assert failing == []

    def test_zero_slope_zero_strength_passes(self):
        # Level 3 at k = 0: the middle state has z = 0 and q_1 = 0, which a
        # scale of each coefficient's own terms would read as O(1).
        states = solve_admissible_z(1, -2, 0.32509356124902405, 0.0)
        assert abs(states[1].z) < 1e-15
        assert sextic_residual(to_sextic(states[1])) <= MAX_SEXTIC_RESIDUAL

    @pytest.mark.parametrize("level,m", [(1, 0), (13, 3), (200, -1)])
    def test_warm_call_allocates_nothing_the_size_of_the_rho_grid(self, level, m):
        states = solve_admissible_z((level - 1) / 2, m, 1.3, 0.7)
        rho = rho_grid_for(states[0].params)
        mapped = to_sextic(states[-1])
        sextic_residual(mapped, rho)
        tracemalloc.start()
        try:
            sextic_residual(mapped, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # At most a dozen arrays of level + 8 doubles and their headers.
        assert peak < 12 * 8 * (level + 8) + 4096 < rho.points.nbytes / 4


class TestRhoGridScale:
    def test_a_cutoff_below_rho_min_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"rho_max = .* <= rho_min = "
                                              r"0\.0316.* at omega-l = 1\.0, "
                                              r"k = 100000\.0, m = 0$"):
            rho_grid_for(ModelParams(1, 1e5, 0))

    @pytest.mark.parametrize("omega_l,k,m", [
        (0.016920855145779415, 2179245.6679086657, 21), (1.0, 1e9, 0)])
    def test_a_peak_that_rounds_to_zero_is_a_domain_error(self, omega_l, k, m):
        with pytest.raises(DomainError, match=f"peak rounds to 0 at omega-l = "
                                              f"{omega_l!r}, k = {k!r}, m = {m}$"):
            rho_grid_for(ModelParams(omega_l, k, m))


class TestExponentIdentity:
    @pytest.mark.parametrize("m", range(-6, 7))
    def test_centrifugal_matches_indicial(self, m):
        # (4 mt^2 - 1)/8 == s(s - 1)/2 with s = 2|m| + 1/2, exactly
        mt = 2 * m
        s = 2 * abs(Fraction(m)) + Fraction(1, 2)
        assert Fraction(4 * mt * mt - 1, 8) == s * (s - 1) / 2
