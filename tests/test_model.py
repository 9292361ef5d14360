import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import (
    DomainError,
    GridError,
    ModelParams,
    QesState,
    RadialGrid,
    build_qes_matrix,
    constraint_polynomial,
    cross_validate,
    envelope_r_max,
    l2_norm_constant,
    level_energy,
    model,
    radial_operator_apply,
    solve_admissible_z,
    solve_series_states,
)
from oracles import assemble_full_wavefunction, gauge_transform


class TestModelParams:
    def test_rejects_zero_omega(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0, 0)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            ModelParams(-1.0, 1.0, 0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, -0.5, 0)

    @pytest.mark.parametrize("omega_l,k,name", [(1.0, float("nan"), "k"),
                                                (1.0, float("inf"), "k"),
                                                (float("inf"), 1.0, "omega_l")])
    def test_rejects_non_finite_couplings(self, omega_l, k, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(omega_l, k, 0)

    def test_rejects_tiny_omega_as_domain_error(self):
        with pytest.raises(DomainError, match="too small for double precision"):
            ModelParams(1e-300, 1.0, 0)

    def test_rejects_non_integer_m(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, True)


class TestHugeM:
    """|m| is at most 2**53, where every integer is a double: one check,
    ``_polyops.check_m``, raises DomainError naming a larger m at every
    entry, before any int64 or float arithmetic can overflow."""

    @pytest.mark.parametrize("m", [2**53 + 1, -(2**53) - 1, 2**62, 2**63, -2**63,
                                   10**200])
    def test_every_entry_names_m(self, m):
        message = (f"^m = {m} is too large for double precision: "
                   r"\|m\| must be at most 2\*\*53$")
        for call in (lambda: ModelParams(1.0, 1.0, m),
                     lambda: level_energy(2, m, 1.0, 1.0),
                     lambda: constraint_polynomial(2, m, 1.0, 1.0),
                     lambda: constraint_polynomial(2, m, 1, 1),
                     lambda: solve_admissible_z(0.5, m, 1.0, 1.0),
                     lambda: solve_series_states(2, m, 1.0, 1.0),
                     lambda: cross_validate(0.5, m, 1.0, 1.0),
                     lambda: build_qes_matrix(0.5, m, 1.0, 1.0)):
            with pytest.raises(DomainError, match=message):
                call()

    @pytest.mark.parametrize("m", [2**53, -2**53])
    def test_the_largest_m_keeps_the_grid_finite(self, m):
        # m**2/(2 r**2) is below 4.1e37 from DEFAULT_R_MIN up.
        params = ModelParams(1.0, 1.0, m)
        grid = RadialGrid.for_params(params)
        assert grid.r_min == model.DEFAULT_R_MIN
        with np.errstate(all="raise"):
            c = model._potential_less_energy(params, level_energy(1, m, 1.0, 1.0), grid)
        assert np.all(np.isfinite(c))


class TestGaugeTransform:
    def test_negative_m(self):
        g = gauge_transform(ModelParams(1, 1, -2))
        assert (g.mu, g.delta, g.nu) == (1, 1, -2)

    def test_zero_slope(self):
        g = gauge_transform(ModelParams(2, 0, 0))
        assert (g.mu, g.delta, g.nu) == (2, 0, 0)

    def test_fractional_couplings(self):
        g = gauge_transform(ModelParams(Fraction(1, 2), 1, 1))
        assert (g.mu, g.delta, g.nu) == (Fraction(1, 2), 2, -1)


class TestGaussRules:
    """The rules are literals: they must be numpy's leggauss to the bit."""

    @pytest.mark.parametrize("n", [16, 256])
    def test_equal_to_leggauss_bit_for_bit(self, n):
        nodes, weights = model._GAUSS_RULES[n]
        expected_nodes, expected_weights = np.polynomial.legendre.leggauss(n)
        # tobytes compares every bit, sign bits included.
        assert nodes.tobytes() == expected_nodes.tobytes()
        assert weights.tobytes() == expected_weights.tobytes()

    def test_one_rule_per_size_the_library_uses(self):
        assert sorted(model._GAUSS_RULES) == sorted({model._HEAD_NODES, 256})

    @pytest.mark.parametrize("n", [16, 256])
    def test_shape_of_the_rule(self, n):
        nodes, weights = model._GAUSS_RULES[n]
        assert nodes.shape == weights.shape == (n,)
        assert np.all(np.diff(nodes) > 0)
        assert -1.0 < nodes[0] and nodes[-1] < 1.0
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(np.signbit(nodes), ~np.signbit(nodes[::-1]))
        assert np.array_equal(weights, weights[::-1])
        assert np.all(weights > 0)
        assert abs(math.fsum(weights) - 2.0) <= 4 * np.finfo(float).eps
        for i in range(9):
            exact = 2.0 / (2 * i + 1)
            assert abs(float(np.sum(weights * nodes ** (2 * i))) - exact) <= 1e-14

    def test_read_only(self):
        for rule in model._GAUSS_RULES.values():
            for values in rule:
                with pytest.raises(ValueError):
                    values[0] = 0.0


class TestLevelEnergy:
    def test_unit_level_one(self):
        assert level_energy(1, 0, 1, 1) == Fraction(1, 2)

    def test_negative_m_cancels(self):
        # m + |m| = 0 for negative m
        assert level_energy(3, -5, 2, 0) == 6

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError):
            level_energy(0, 0, 1, 1)

    def test_negative_level_rejected(self):
        # Named, as constraint_polynomial names it; level 0 is a DomainError.
        with pytest.raises(ValueError) as caught:
            level_energy(-3, 0, 1, 1)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "level must be a positive integer, got -3"
        with pytest.raises(DomainError, match="no level-0"):
            level_energy(0, 0, 1, 1)

    @pytest.mark.parametrize("level", [-1, -3, -200, np.int64(-2)])
    def test_negative_levels_are_named_alike(self, level):
        errors = []
        for call in (level_energy, constraint_polynomial):
            with pytest.raises(ValueError) as caught:
                call(level, 0, 1.0, 1.0)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1] == (
            ValueError, f"level must be a positive integer, got {level!r}")

    @pytest.mark.parametrize("level", [2.0, 2.5, True, Fraction(2)])
    def test_level_must_be_an_exact_integer(self, level):
        with pytest.raises(ValueError, match="must be an exact integer") as caught:
            level_energy(level, 0, 1.0, 1.0)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("omega_l", [0.0, -1.0])
    def test_non_positive_omega_rejected(self, omega_l):
        with pytest.raises(ValueError, match="omega_l must be > 0"):
            level_energy(1, 0, omega_l, 1.0)


class TestRadialGrid:
    def test_monotone_positive_required(self):
        with pytest.raises(GridError):
            RadialGrid(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(GridError):
            RadialGrid(np.array([1.0, 1.0, 2.0]))

    def test_default_grid_shape(self):
        grid = RadialGrid.for_params(ModelParams(1, 1, 0))
        assert len(grid) == 4096
        d = np.diff(grid.points)
        assert np.all(d > 0)
        assert grid.points[0] == pytest.approx(1e-3)

    def test_envelope_decay_at_r_max(self):
        # the envelope must have fallen below 1e-12 of its true peak at r_max
        for omega, k, m in [(1, 1, 0), (8, 4, 2), (0.5, 0, -3), (2, 1, 4)]:
            p = ModelParams(omega, k, m)
            grid = RadialGrid.for_params(p)
            mesh = np.linspace(1e-6, grid.r_max, 200001)
            peak = p.envelope(mesh).max()
            assert float(p.envelope(grid.r_max)) <= 1e-12 * peak


    def test_points_are_a_read_only_copy(self):
        radii = np.array([0.5, 1.0, 2.0, 4.0])
        grid = RadialGrid(radii)
        with pytest.raises(ValueError, match="read-only"):
            grid.points[1] = 1.5
        radii[1] = 1.5  # the caller's array stays writable and is not shared
        assert grid.points[1] == 1.0

    @pytest.mark.parametrize("n", [-5, 0, 1, 2])
    def test_for_params_refuses_fewer_than_three_points_first(self, n):
        # Before any other work: also where r_max would be refused.
        for params in [ModelParams(1, 1, 0), ModelParams(1, 1e5, 0),
                       ModelParams(57564627.324851125, 0, 0)]:
            with pytest.raises(GridError, match="^grid needs at least 3 points$"):
                RadialGrid.for_params(params, n=n)
        assert len(RadialGrid.for_params(ModelParams(1, 1, 0), n=3)) == 3

    def test_for_params_reuses_the_parameters_r_max(self):
        p = ModelParams(0.7, 1.9, -2)
        assert RadialGrid.for_params(p).r_max == envelope_r_max(p)
        assert RadialGrid.for_params(p, n=100).r_max == envelope_r_max(p)

    @pytest.mark.parametrize("grid", [
        RadialGrid.uniform(0.25, 3.0, 7), RadialGrid.geometric(1e-3, 9.0, 101),
        RadialGrid.for_params(ModelParams(0.7, 1.9, -2), n=500)])
    def test_ends_are_the_first_and_last_points(self, grid):
        assert (grid.r_min, grid.r_max) == (grid.points[0], grid.points[-1])
        assert type(grid.r_min) is float and type(grid.r_max) is float

    def test_a_grid_is_built_from_its_points_alone(self):
        points = RadialGrid.for_params(ModelParams(1, 1, 0)).points
        with pytest.raises(TypeError):
            RadialGrid(points, "geometric", 0.5, 3.0)

    def test_a_cutoff_below_r_min_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"r_max = 0\.000287.* <= "
                                              r"r_min = 0\.001 at omega-l = 1\.0, "
                                              r"k = 100000\.0, m = 0$"):
            RadialGrid.for_params(ModelParams(1, 1e5, 0))
        with pytest.raises(DomainError, match=r"<= r_min = 0\.001 at omega-l = 60000000\.0, "):
            RadialGrid.for_params(ModelParams(6e7, 0.0, 0))

    def test_a_cutoff_within_ulps_of_r_min_is_a_domain_error(self):
        # r_max is 0.0010000000000000002, one ulp above r_min: 4096 radii
        # between them repeat, which the grid's own check calls a usage error.
        with pytest.raises(DomainError, match=r"^r_min = 0\.001 and "
                                              r"r_max = 0\.0010000000000000002 are too "
                                              r"close for n = 4096 distinct radii at "
                                              r"omega-l = 57564627\.324851125, k = 0\.0, "
                                              r"m = 0$"):
            RadialGrid.for_params(ModelParams(57564627.324851125, 0.0, 0))
        # r_max is 0.0010000000000000005, two ulps above r_min.
        with pytest.raises(DomainError, match="too close for n = 64 distinct"):
            RadialGrid.for_params(ModelParams(57564627.3248511, 0.0, 0), n=64)
        with pytest.raises(GridError, match="strictly increasing"):
            RadialGrid(np.linspace(0.001, 0.0010000000000000002, 4096))
        grid = RadialGrid.for_params(ModelParams(57000000.0, 0.0, 0))
        assert len(grid) == 4096 and np.all(np.diff(grid.points) > 0)

    def test_a_peak_that_rounds_to_zero_is_a_domain_error(self):
        params = ModelParams(0.016920855145779415, 2179245.6679086657, 21)
        with pytest.raises(DomainError, match="peak radius rounds to 0 at "
                                              "omega-l = 0.016920855145779415"):
            envelope_r_max(params)
        with pytest.raises(DomainError, match="peak radius rounds to 0"):
            RadialGrid.for_params(params)


class TestParameterMemo:
    def test_memo_takes_no_part_in_eq_hash_repr(self):
        used, fresh = ModelParams(1.5, 0.5, 1), ModelParams(1.5, 0.5, 1)
        before = repr(used)
        l2_norm_constant(used, (1.0, -0.25))
        RadialGrid.for_params(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == before == repr(fresh)

    def test_norm_constant_is_the_same_from_a_fresh_instance(self):
        poly = (1.0, -0.4, 0.02)
        used = ModelParams(2.0, 3.0, -1)
        first = l2_norm_constant(used, poly)
        assert l2_norm_constant(used, poly) == first
        assert l2_norm_constant(ModelParams(2.0, 3.0, -1), poly) == first

    def test_envelope_underflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"envelope underflows .* omega-l = 1e\+100"):
            l2_norm_constant(ModelParams(1e100, 0.0, 3), (1.0, 2.0, 3.0))

    def test_zero_polynomial_is_still_a_usage_error(self):
        with pytest.raises(ValueError, match="zero norm") as info:
            l2_norm_constant(ModelParams(1.0, 1.0, 0), (0.0, 0.0))
        assert not isinstance(info.value, DomainError)

    def test_threads_sharing_the_slot_get_their_own_set(self, empty_slots):
        # Four threads (more than the cores) take turns at the one module
        # slot for three sets; a value read with another set's key would
        # give another r_max or norm constant.
        sets = [ModelParams(0.7, 1.3, -2), ModelParams(2.0, 0.5, 1),
                ModelParams(1.0, 3.0, 0)]
        poly = (1.0, -0.4, 0.02)
        expected = [(envelope_r_max(p), l2_norm_constant(p, poly)) for p in sets]

        def work(offset):
            wrong = []
            for i in range(300):
                p = sets[(i + offset) % 3]
                got = (RadialGrid.for_params(p, n=64).r_max,
                       l2_norm_constant(p, poly))
                if got != expected[(i + offset) % 3]:
                    wrong.append(got)
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work, t) for t in range(4)]
                # result() raises what a thread raised, or TimeoutError.
                wrong = [got for f in futures for got in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestRadialOperator:
    def test_closed_form_state_residual_is_discretization_error(self):
        # R(r) = exp(-r^2/2 - r) solves the model at (1, 1, 0, z=1/2, E=1/2)
        # exactly, so the residual is pure finite-difference error.  On a
        # uniform [0.01, 8] grid with 2000 points the 1/(2r) d/dr term
        # amplifies the O(h^2) error near the left edge to ~1.9e-4; away
        # from the edge the residual is at the plain O(h^2) level.
        params = ModelParams(1, 1, 0)
        grid = RadialGrid.uniform(0.01, 8.0, 2000)
        samples = np.exp(-grid.points**2 / 2 - grid.points)
        residual, interior = radial_operator_apply(params, 0.5, 0.5, grid, samples)
        rel = np.abs(residual) / np.max(np.abs(samples))
        assert rel[interior].max() < 5e-4
        away = interior & (grid.points >= 0.5)
        assert rel[away].max() < 1e-5

    def test_second_order_convergence_on_uniform_grid(self):
        # measured away from the left edge, whose nearest interior point
        # moves as the grid is refined
        params = ModelParams(1, 1, 0)
        maxima = []
        for n in (2000, 4000):
            grid = RadialGrid.uniform(0.01, 8.0, n)
            samples = np.exp(-grid.points**2 / 2 - grid.points)
            residual, interior = radial_operator_apply(params, 0.5, 0.5, grid, samples)
            window = interior & (grid.points >= 0.5)
            maxima.append(np.abs(residual[window]).max())
        ratio = maxima[0] / maxima[1]
        assert 3.5 < ratio < 4.5

    def test_zero_samples_zero_residual(self):
        params = ModelParams(1, 1, 0)
        grid = RadialGrid.uniform(0.01, 8.0, 100)
        residual, _ = radial_operator_apply(params, 0.5, 0.5, grid,
                                            np.zeros(len(grid)))
        assert np.all(residual == 0.0)

    def test_too_coarse_grid_refused(self):
        params = ModelParams(1, 1, 0)
        grid = RadialGrid.uniform(0.01, 8.0, 20)
        with pytest.raises(GridError, match="too coarse"):
            radial_operator_apply(params, 0.5, 0.5, grid, np.ones(len(grid)))

    def test_non_finite_samples_rejected(self):
        params = ModelParams(1, 1, 0)
        grid = RadialGrid.uniform(0.01, 8.0, 100)
        bad = np.ones(len(grid))
        bad[5] = np.inf
        with pytest.raises(ValueError):
            radial_operator_apply(params, 0.5, 0.5, grid, bad)


@pytest.fixture(scope="module")
def state():
    return solve_series_states(1, 0, 1, 1)[0]


class TestFullWavefunction:
    def test_m_zero_theta_independent(self, state):
        values = {assemble_full_wavefunction(state, 0, 1.0, t) for t in
                  (0.0, 0.7, 2.0, np.pi)}
        assert len({complex(round(v.real, 14), round(v.imag, 14))
                    for v in values}) == 1

    def test_phase_preserves_modulus(self, state):
        base = abs(assemble_full_wavefunction(state, 3, 1.3, 0.0))
        for theta in (0.4, 1.1, 5.0):
            assert abs(assemble_full_wavefunction(state, 3, 1.3, theta)) == \
                pytest.approx(base, rel=1e-14)

    def test_half_turn_flips_sign_for_unit_m(self, state):
        psi = assemble_full_wavefunction(state, 1, 0.8, math.pi)
        radial = float(state.radial_values(0.8))
        assert psi.real == pytest.approx(-radial / math.sqrt(2 * math.pi), rel=1e-12)
        assert psi.imag == pytest.approx(0.0, abs=1e-14)

    def test_rejects_non_positive_radius(self, state):
        with pytest.raises(ValueError):
            assemble_full_wavefunction(state, 0, 0.0, 0.0)


class TestQesState:
    def test_poly_length_must_match_level(self):
        params = ModelParams(1, 1, 0)
        with pytest.raises(ValueError):
            QesState(level=2, z=0.5, energy=1.5, poly=(1.0,),
                     norm_constant=1.0, params=params)

    def test_energy_consistency_enforced(self):
        params = ModelParams(1, 1, 0)
        with pytest.raises(ValueError):
            QesState(level=1, z=0.5, energy=0.75, poly=(1.0,),
                     norm_constant=1.0, params=params)

    def test_round_trip_dict(self):
        state = solve_series_states(2, 1, 1, 1)[0]
        clone = QesState.from_dict(state.to_dict(), state.params)
        assert clone == state

    @pytest.mark.parametrize("level", [1, 2, 5, 13, 40])
    def test_j_follows_the_level_on_both_routes(self, level):
        states = solve_admissible_z((level - 1) / 2, -1, 1.3, 0.7)
        if level <= 13:
            states += solve_series_states(level, -1, 1.3, 0.7)
        assert states
        for state in states:
            assert state.j == 0.5 * (level - 1)
            assert state.to_dict()["j"] == 0.5 * (level - 1)

    def test_j_is_not_stored(self):
        with pytest.raises(TypeError):
            QesState(level=3, j=7.0, z=0.5, energy=3.5, poly=(1.0, 0.0, 0.0),
                     norm_constant=1.0, params=ModelParams(1, 1, 0))

    @pytest.mark.parametrize("j", [7.0, 0.0, 1.0000000000000002, "nan"])
    def test_from_dict_rejects_a_j_that_disagrees_with_the_level(self, j):
        state = solve_series_states(3, 1, 1, 1)[0]
        data = dict(state.to_dict(), j=j)
        with pytest.raises(ValueError, match="inconsistent with level 3"):
            QesState.from_dict(data, state.params)

    def test_level_one_matches_closed_form(self):
        # R = a0 r^|m| exp(-omega r^2/2 - (k/omega) r), up to normalization
        state = solve_series_states(1, -2, 2, 1)[0]
        r = np.linspace(0.05, 3.0, 40)
        expected = state.norm_constant * r**2 * np.exp(-r * r - 0.5 * r)
        assert np.allclose(state.radial_values(r), expected, rtol=1e-13)


class TestScalingCovariance:
    def test_level_one_closed_form(self):
        # (omega, k) -> (lam^2 omega, lam^3 k) sends z -> lam z
        for lam in (2.0, 1.0 / 3.0):
            base = solve_admissible_z(0, 1, 1.0, 1.0)[0]
            scaled = solve_admissible_z(0, 1, lam**2, lam**3)[0]
            assert scaled.z == pytest.approx(lam * base.z, rel=1e-12)
            assert scaled.energy == pytest.approx(lam**2 * base.energy, rel=1e-12)

    def test_level_two_closed_form(self):
        lam = 2.0
        base = solve_admissible_z(0.5, 0, 1.0, 1.0)
        scaled = solve_admissible_z(0.5, 0, 4.0, 8.0)
        for b, s in zip(base, scaled):
            assert s.z == pytest.approx(lam * b.z, rel=1e-12)

    def test_polynomial_roots_contract(self):
        # r -> r/lam on polynomial roots; check on the level-2 node.
        lam = 3.0
        base = solve_series_states(2, 0, 1.0, 1.0)[1]
        scaled = solve_series_states(2, 0, lam**2, lam**3)[1]
        root_base = -base.poly[0] / base.poly[1]
        root_scaled = -scaled.poly[0] / scaled.poly[1]
        assert root_scaled == pytest.approx(root_base / lam, rel=1e-10)

    def test_numeric_higher_level(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lam = float(rng.uniform(0.4, 2.5))
            base = solve_series_states(4, 1, 1.0, 0.5)
            scaled = solve_series_states(4, 1, lam**2 * 1.0, lam**3 * 0.5)
            assert len(base) == len(scaled)
            for b, s in zip(base, scaled):
                assert s.z == pytest.approx(lam * b.z, rel=1e-9)


def test_public_names_resolve():
    import qeshydro

    missing = [name for name in qeshydro.__all__ if not hasattr(qeshydro, name)]
    assert missing == []
