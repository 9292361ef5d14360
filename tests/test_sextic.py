import math
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

    def test_grid_too_coarse(self):
        from qeshydro import RadialGrid
        mapped = to_sextic(solve_series_states(1, 0, 1, 1)[0])
        grid = RadialGrid.geometric(0.03, 2.0, 16)
        with pytest.raises(ValueError):
            sextic_residual(mapped, grid)


    @pytest.mark.parametrize("level,m", [(1, 0), (7, -2), (13, 3)])
    def test_warm_call_holds_three_grid_arrays(self, level, m):
        # zeta, the residual and one work buffer: a warm call (the grid's
        # powers, stencil, envelope and potential kept) makes nothing else
        # the size of the grid.
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
        assert peak <= 3.1 * rho.points.nbytes

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
