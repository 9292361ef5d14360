import inspect
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import (
    DomainError,
    ModelParams,
    QesState,
    RadialGrid,
    count_nodes,
    cross_validate,
    envelope_r_max,
    residual_convergence_ratio,
    scaling_audit,
    solve_admissible_z,
    solve_series_states,
    verify_state,
)
from qeshydro import model, series, sl2, verify
from qeshydro._polyops import real_roots
from qeshydro.model import Level, l2_norm_constant
from oracles import _simpson

HALF = Fraction(1, 2)


class TestVerifyState:
    def test_level_one_unit_couplings(self):
        state = solve_series_states(1, 0, 1, 1)[0]
        report = verify_state(state)
        assert report.max_residual < 1e-5
        assert report.norm_error < 1e-8
        assert report.node_count == 0
        assert report.passed

    def test_level_two_node_counts(self):
        states = solve_series_states(2, 0, 1, 1)
        low, high = (verify_state(s) for s in states)
        assert low.node_count == 0
        assert high.node_count == 1

    def test_zero_polynomial_rejected(self):
        params = ModelParams(1, 1, 0)
        state = QesState(level=1, z=0.5, energy=0.5, poly=(0.0,),
                         norm_constant=1.0, params=params)
        with pytest.raises(ValueError):
            verify_state(state)

    @pytest.mark.parametrize("poly", [(math.nan,), (0.0, -0.0),
                                      (Fraction(0), math.nan)])
    def test_zero_or_nan_factor_rejected(self, poly):
        # A NaN is not above zero in magnitude, so it counts as zero here.
        state = solve_series_states(len(poly), 0, 1, 1)[0]
        with pytest.raises(ValueError, match="identically zero"):
            verify_state(replace(state, poly=poly))

    def test_norm_error_small_across_states(self):
        # normalization stays below 1e-8 on the default grid for the whole
        # desk-scale family (levels to 7, |m| to 4)
        for m in range(-4, 5):
            grid = None
            for level in range(1, 8):
                for s in solve_series_states(level, m, 1, 1):
                    if grid is None:
                        grid = RadialGrid.for_params(s.params)
                    assert verify_state(s, grid=grid).norm_error < 1e-8

    def test_node_count_reads_the_coefficients(self):
        # The ground state's coefficients share one sign; a negated top
        # coefficient adds one sign change and so one counted node.
        ground = solve_admissible_z(3, 1, 1.0, 1.0)[0]
        assert verify_state(ground).node_count == 0
        poly = (*ground.poly[:-1], -ground.poly[-1])
        flipped = replace(ground, poly=poly,
                          norm_constant=l2_norm_constant(ground.params, poly))
        assert verify_state(flipped).node_count == 1

    def test_report_dict(self):
        report = verify_state(solve_series_states(1, 0, 1, 1)[0])
        data = report.to_dict()
        assert set(data) >= {"state", "max_residual", "norm_error",
                             "node_count", "passed"}



class TestGridFromItsPoints:
    """A grid is its points: rebuilt from them alone it verifies every
    state to the same report, field for field."""

    @pytest.mark.parametrize("level,m,omega_l,k,n,r_min", [
        (1, 0, 1.0, 1.0, None, None), (13, -2, 0.7, 1.9, None, None),
        (40, 3, 1.3, 0.4, None, None), (5, 1, 2.0, 0.5, 700, 0.02)])
    def test_same_report_on_the_points(self, level, m, omega_l, k, n, r_min):
        states = solve_admissible_z((level - 1) / 2, m, omega_l, k)
        options = {} if n is None else {"n": n, "r_min": r_min}
        grid = RadialGrid.for_params(states[0].params, **options)
        alone = RadialGrid(grid.points)
        assert (alone.r_min, alone.r_max) == (grid.r_min, grid.r_max)
        assert len(states) == level
        for state in states:
            assert verify_state(state, alone) == verify_state(state, grid)


class TestNodeCounting:
    def test_known_polynomials(self):
        assert count_nodes((1.0,), 10.0) == 0
        assert count_nodes((1.0, -1.0), 10.0) == 1          # root at 1
        assert count_nodes((2.0, -3.0, 1.0), 10.0) == 2     # roots 1 and 2
        assert count_nodes((2.0, -3.0, 1.0), 1.5) == 1      # only root 1 inside
        assert count_nodes((-6.0, 11.0, -6.0, 1.0), 10.0) == 3

    def test_mesh_matches_sturm_for_low_degree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            roots = np.sort(rng.uniform(0.1, 5.0, size=3))
            cubic = np.polynomial.polynomial.polyfromroots(roots)
            # a positive-definite factor pushes the degree onto the mesh path
            # without adding positive roots
            quintic = np.polynomial.polynomial.polymul(cubic, [1.0, 1.0, 1.0])
            assert count_nodes(tuple(cubic), 6.0) == 3
            assert count_nodes(tuple(quintic), 6.0) == 3


class TestOscillationTheorem:
    """The i-th strength in ascending order has exactly i nodes: z is the
    spectral parameter of a Sturm-Liouville problem with weight 1.  On the
    algebraic route's states verify_state's count of coefficient signs
    agrees with it and with the mesh scan of count_nodes."""

    @pytest.mark.parametrize("omega_l,k", [(0.3, 4), (1, 1), (3, 0)])
    @pytest.mark.parametrize("m", [-2, 0, 3])
    def test_node_count_equals_ascending_index(self, omega_l, k, m):
        r_max = envelope_r_max(ModelParams(omega_l, k, m))
        checked = 0
        for level in range(1, 14):
            algebra = solve_admissible_z((level - 1) / 2, m, omega_l, k)
            grid = RadialGrid.for_params(algebra[0].params)
            assert [verify_state(s, grid=grid).node_count for s in algebra] == \
                list(range(level))
            routes = [algebra]
            try:
                routes.append(solve_series_states(level, m, omega_l, k))
            except RuntimeError:
                pass  # the series did not terminate at this input
            for states in routes:
                zs = [s.z for s in states]
                assert zs == sorted(zs)
                nodes = [count_nodes(s.poly, r_max) for s in states]
                assert nodes == list(range(len(states)))
                checked += len(states)
        assert checked > 0


class TestCrossValidate:
    def test_spin_half_unit_couplings(self):
        report = cross_validate(HALF, 0, 1, 1)
        assert report.passed
        assert report.cross_method_delta < 1e-10
        assert report.cross_energy_delta < 1e-10
        assert report.cross_poly_delta < 1e-10

    def test_level_one_essentially_exact(self):
        report = cross_validate(0, -2, 2, 3)
        assert report.cross_method_delta < 1e-14

    def test_level_one_exact_in_rational_mode(self):
        from qeshydro import build_qes_matrix, characteristic_polynomial, \
            constraint_polynomial
        mat = build_qes_matrix(0, -2, Fraction(2), Fraction(3))
        assert characteristic_polynomial(mat) == \
            constraint_polynomial(1, -2, Fraction(2), Fraction(3)).monic()

    def test_spin_three(self):
        report = cross_validate(3, 1, 1, 2)
        assert report.passed
        assert report.cross_method_delta < 1e-9

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            cross_validate(7, 0, 1, 1)

    def test_series_failure_is_reported_not_raised(self):
        # At this input the series route fails to terminate at a root.
        report = cross_validate(6, 0, 0.2, 4)
        assert not report.passed
        assert any("series failed to terminate" in n for n in report.notes)


class TestOneParameterSet:
    """Both routes of a set and their caller share the set's r_max and norm
    rule by value, each with its own ModelParams, so the set's r_max is
    bisected once; a ModelParams keeps nothing beyond its three fields."""

    @pytest.mark.parametrize("omega_l,k", [(1.5, 0.75), (Fraction(3, 2), Fraction(3, 4))])
    def test_one_bisection_per_cross_validated_set(self, bisections, omega_l, k):
        states = solve_admissible_z(Fraction(5, 2), 1, omega_l, k)
        report = cross_validate(Fraction(5, 2), 1, omega_l, k)
        assert report.passed
        assert len(bisections) == 1
        assert bisections[0] is states[0].params

    @pytest.mark.parametrize("omega_l,k", [(0.5, 2.0), (Fraction(1, 2), 2)])
    def test_cold_cross_validation(self, bisections, omega_l, k):
        assert cross_validate(2, -1, omega_l, k).passed
        assert len(bisections) == 1

    @pytest.mark.parametrize("omega_l,k,m,level", [(1.5, 0.75, 1, 6),
                                                   (0.4, 2.0, -3, 9)])
    def test_sweep_calls(self, bisections, omega_l, k, m, level):
        # The benchmark's sweep unit: solve, a grid on the caller's own
        # ModelParams, then cross-validation.
        j = (level - 1) / 2
        params = ModelParams(omega_l, k, m)
        states = solve_admissible_z(j, m, omega_l, k)
        grid = RadialGrid.for_params(params)
        reports = [verify_state(s, grid=grid) for s in states]
        cross_validate(j, m, omega_l, k)
        assert len(reports) == level
        assert len(bisections) == 1
        assert vars(params) == {"omega_l": omega_l, "k": k, "m": m}
        assert vars(states[0].params) == {"omega_l": omega_l, "k": k, "m": m}

    @pytest.mark.parametrize("omega_l,k,m,level", [(1.5, 0.75, 1, 20),
                                                   (0.4, 2.0, -3, 16)])
    def test_deep_calls(self, bisections, omega_l, k, m, level):
        # The benchmark's deep unit: solve, the series route, then a grid on
        # the caller's own ModelParams.
        states = solve_admissible_z((level - 1) / 2, m, omega_l, k)
        power = solve_series_states(level, m, omega_l, k)
        params = ModelParams(omega_l, k, m)
        grid = RadialGrid.for_params(params)
        for state in states:
            verify_state(state, grid=grid)
        assert states and power
        assert len(bisections) == 1
        for held in (params, states[0].params, power[0].params):
            assert vars(held) == {"omega_l": omega_l, "k": k, "m": m}

    def test_a_raising_set_keeps_nothing(self, bisections):
        # The envelope's peak radius rounds to 0 at |m| = 3; each error
        # names the m it was given.
        for m in (-3, -3, 3):
            with pytest.raises(DomainError, match=f"rounds to 0 .* m = {m}$"):
                RadialGrid.for_params(ModelParams(1.0, 1e20, m))
        assert len(bisections) == 3


class TestScalingAudit:
    def test_identity_scaling(self):
        report = scaling_audit(HALF, 0, 1, 1, 1)
        assert report.passed
        assert report.cross_method_delta == 0.0

    def test_level_one_doubling(self):
        # z = 1/2 at (1, 1) must become 1 at (4, 8)
        report = scaling_audit(0, 0, Fraction(1), Fraction(1), 2)
        assert report.passed
        scaled = solve_admissible_z(0, 0, 4, 8)[0]
        assert scaled.z == pytest.approx(1.0, rel=1e-12)

    def test_spin_half_tripling(self):
        report = scaling_audit(HALF, 0, Fraction(1), Fraction(1), 3)
        assert report.passed

    def test_rejects_non_positive_lambda(self):
        with pytest.raises(ValueError):
            scaling_audit(0, 0, 1, 1, 0)


class TestFixedThresholds:
    """Each check reads its own bound, a module constant, and no public
    function takes a tolerance."""

    def test_route_agreement_reads_max_route_delta(self, monkeypatch):
        report = cross_validate(Fraction(5, 2), 1, 2.0, 0.25)
        delta = max(report.cross_method_delta, report.cross_energy_delta,
                    report.cross_poly_delta)
        assert report.passed and 0 < delta <= verify.MAX_ROUTE_DELTA == 1e-9
        monkeypatch.setattr(verify, "MAX_ROUTE_DELTA", delta)
        assert cross_validate(Fraction(5, 2), 1, 2.0, 0.25).passed
        monkeypatch.setattr(verify, "MAX_ROUTE_DELTA", delta / 2)
        assert not cross_validate(Fraction(5, 2), 1, 2.0, 0.25).passed

    def test_series_tail_reads_max_tail(self, monkeypatch):
        assert series.MAX_TAIL == 1e-9
        monkeypatch.setattr(series, "MAX_TAIL", 0.0)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            solve_series_states(6, 1, 2.0, 0.25)
        report = cross_validate(Fraction(5, 2), 1, 2.0, 0.25)
        assert not report.passed
        assert "failed to terminate" in report.notes[-1]

    def test_scaling_audit_reads_max_scaling_delta(self, monkeypatch):
        report = scaling_audit(Fraction(5, 2), 1, 0.7, 1.3, 1.7)
        delta = max(report.cross_method_delta, report.cross_energy_delta)
        assert report.passed and 0 < delta <= verify.MAX_SCALING_DELTA == 1e-10
        monkeypatch.setattr(verify, "MAX_SCALING_DELTA", delta / 2)
        assert not scaling_audit(Fraction(5, 2), 1, 0.7, 1.3, 1.7).passed

    def test_no_public_callable_takes_tol(self):
        import qeshydro

        callables = [getattr(qeshydro, name) for name in qeshydro.__all__
                     if callable(getattr(qeshydro, name))]
        assert len(callables) > 20
        for item in callables:
            try:
                params = inspect.signature(item).parameters
            except ValueError:  # no signature to inspect
                continue
            assert "tol" not in params, item

    @pytest.mark.parametrize("call", [
        lambda: solve_admissible_z(HALF, 0, 1.0, 1.0, 1e-9),
        lambda: solve_series_states(2, 0, 1.0, 1.0, 1e-9),
        lambda: cross_validate(HALF, 0, 1.0, 1.0, 1e-9),
        lambda: scaling_audit(HALF, 0, 1.0, 1.0, 2.0, 1e-10),
        lambda: real_roots([1.0, -3.0, 2.0], 1e-9)])
    def test_a_positional_tolerance_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()


class TestNotesAreReturned:
    """Both solvers return a ``model.Level``: a list of states with their
    notes.  No public callable, and not ``real_roots``, takes a
    ``diagnostics`` list to append to."""

    def test_no_public_callable_takes_diagnostics(self):
        import qeshydro

        callables = [getattr(qeshydro, name) for name in qeshydro.__all__
                     if callable(getattr(qeshydro, name))]
        assert len(callables) > 20
        for item in [*callables, real_roots]:
            try:
                params = inspect.signature(item).parameters
            except ValueError:  # no signature to inspect
                continue
            assert "diagnostics" not in params, item

    @pytest.mark.parametrize("call", [
        lambda: solve_admissible_z(HALF, 0, 1.0, 1.0, diagnostics=[]),
        lambda: solve_series_states(2, 0, 1.0, 1.0, diagnostics=[]),
        lambda: cross_validate(HALF, 0, 1.0, 1.0, diagnostics=[]),
        lambda: real_roots([1.0, -3.0, 2.0], diagnostics=[])])
    def test_passing_diagnostics_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_both_solvers_return_a_level(self):
        # At level 60 the series route drops complex roots, with a note each.
        deep = solve_series_states(60, 0, 1.0, 1.0)
        for level in (solve_admissible_z(Fraction(5, 2), 1, 2.0, 0.25),
                      solve_series_states(6, 1, 2.0, 0.25), deep):
            assert isinstance(level, Level) and isinstance(level, list)
            assert type(level.notes) is tuple
            assert all(type(note) is str for note in level.notes)
        assert len(deep.notes) == 60 - len(deep) > 0

    def test_real_roots_returns_what_it_excluded(self):
        # x^2 + 1 has no real root; (x - 1)(x - 2) has two.
        roots, excluded = real_roots([1.0, 0.0, 1.0])
        assert roots == [] and all(type(z) is complex for z in excluded)
        assert sorted(excluded, key=lambda z: z.imag) == [-1j, 1j]
        assert real_roots([2.0, -3.0, 1.0]) == ([1.0, 2.0], [])
        assert real_roots([0.0]) == ([], [])

    def test_cross_validate_joins_both_routes_notes(self, monkeypatch):
        # Defects noted by the algebraic route, and a complex root excluded
        # by the series route, in that order, then the verdict's figures.
        monkeypatch.setattr(sl2, "MAX_DEFECT", 1e-30)
        monkeypatch.setattr(sl2, "_last_solve", None)
        args = (Fraction(5, 2), 1, 2.0, 0.25)
        true_roots = series.real_roots
        monkeypatch.setattr(series, "real_roots", lambda coeffs: (
            true_roots(coeffs)[0], [complex(3.0, 4.0)]))
        algebra = solve_admissible_z(*args)
        power = solve_series_states(6, 1, 2.0, 0.25)
        assert algebra.notes and power.notes == ("excluded complex root (3+4j)",)
        report = cross_validate(*args)
        assert report.passed
        assert report.notes == algebra.notes + power.notes

    def test_an_unterminated_series_keeps_its_notes(self, monkeypatch):
        # The RuntimeError carries the series route's notes as __notes__, so
        # the report lists them before the failure, as when they were
        # appended to a shared list.
        monkeypatch.setattr(series, "MAX_TAIL", 0.0)
        true_roots = series.real_roots
        monkeypatch.setattr(series, "real_roots", lambda coeffs: (
            true_roots(coeffs)[0], [complex(3.0, 4.0)]))
        with pytest.raises(RuntimeError, match="failed to terminate") as caught:
            solve_series_states(6, 1, 2.0, 0.25)
        assert caught.value.__notes__ == ["excluded complex root (3+4j)"]
        report = cross_validate(Fraction(5, 2), 1, 2.0, 0.25)
        algebra = solve_admissible_z(Fraction(5, 2), 1, 2.0, 0.25)
        assert not report.passed
        assert report.notes == (*algebra.notes, "excluded complex root (3+4j)",
                                str(caught.value))

    def test_each_failure_is_the_last_note(self, monkeypatch):
        args = (Fraction(5, 2), 1, 2.0, 0.25)
        monkeypatch.setattr(series, "solve_series_states",
                            lambda *a: Level(solve_admissible_z(*args)[:5], ("n",)))
        report = cross_validate(*args)
        assert not report.passed and report.notes == (
            "n", "root-count mismatch: 6 from the algebraic route, 5 from the "
                 "series route")
        monkeypatch.setattr(sl2, "solve_admissible_z", lambda *a: Level((), ("a",)))
        monkeypatch.setattr(series, "solve_series_states", lambda *a: Level((), ("s",)))
        report = cross_validate(*args)
        assert not report.passed
        assert report.notes == ("a", "s", "both routes returned no real roots")


class TestResidualConvergence:
    @pytest.mark.parametrize("level,m", [(1, 0), (2, 0), (3, 1)])
    def test_second_order_ratio(self, level, m):
        for state in solve_series_states(level, m, 1, 1):
            ratio = residual_convergence_ratio(state)
            assert 3.5 <= ratio <= 4.5

    def test_node_ordering_recorded_for_higher_levels(self):
        # No assertion on ordering beyond level 2 by design; record only.
        observed = {}
        for level in (3, 4):
            states = solve_series_states(level, 0, 1, 1)
            observed[level] = [verify_state(s).node_count for s in states]
        print(f"node counts by ascending z: {observed}")
        assert set(observed) == {3, 4}


def _density_samples():
    """(density, radii) pairs on default and fixed-policy grids."""
    for omega_l, k, m, level in ((1, 1, 0, 3), (0.3, 2, -2, 6), (4, 0, 3, 9)):
        params = ModelParams(omega_l, k, m)
        states = solve_admissible_z((level - 1) / 2, m, omega_l, k)
        grids = [RadialGrid.for_params(params, n=n) for n in (33, 34, 4096, 4097)]
        for state in states[:: max(1, len(states) // 3)]:
            for grid in grids:
                r = grid.points
                yield state.radial_values(r) ** 2 * r, r
    state = solve_series_states(2, 1, 1, 1)[1]
    for grid in (RadialGrid.uniform(1e-3, 12.0, 1000),
                 RadialGrid.geometric(1e-3, 12.0, 1001)):
        r = grid.points
        yield state.radial_values(r) ** 2 * r, r


class TestSimpson:
    def test_bit_identical_to_reference(self):
        integrate = pytest.importorskip("scipy.integrate")
        for y, x in _density_samples():
            assert _simpson(y, x) == integrate.simpson(y, x=x)
        # Random irregular grids reach rounding cases the smooth grids miss.
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = 2 * int(rng.integers(2, 200))
            x = np.cumsum(rng.uniform(0.1, 1.0, n))
            y = rng.normal(size=n)
            assert _simpson(y, x) == integrate.simpson(y, x=x)

    @pytest.mark.parametrize("n", [3, 4, 101, 102])
    def test_exact_for_quadratics(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(-1.0, 2.0, n))
        y = 3 * x**2 + 2 * x + 1
        exact = float(np.diff(x[[0, -1]] ** 3 + x[[0, -1]] ** 2 + x[[0, -1]])[0])
        assert _simpson(y, x) == pytest.approx(exact, rel=1e-13)

    def test_norm_weights_integrate_like_simpson(self):
        # verify_state's Simpson term is sum((R * w) * R): the rule's
        # weights folded into one vector per grid, times the points.  A
        # reordered sum, so it agrees to rounding, not bit for bit.
        rng = np.random.default_rng(5)
        sizes = [3, 4, 5, 6, *(int(n) for n in rng.integers(7, 400, 40))]
        for n in sizes:
            x = np.cumsum(rng.uniform(0.1, 1.0, n))
            y = rng.uniform(0.0, 1.0, n)
            got = float(np.sum(RadialGrid(x)._norm_weights * y))
            assert got == pytest.approx(float(_simpson(y * x, x)), rel=1e-14, abs=0)
        assert {n % 2 for n in sizes} == {0, 1}
        for y, x in _density_samples():
            got = float(np.sum(RadialGrid(x)._norm_weights * (y / x)))
            assert got == pytest.approx(float(_simpson(y, x)), rel=1e-14, abs=0)


def _dyadic(values):
    """Integers ``n_i`` and a shift ``s`` with ``values[i] == n_i / 2**s``
    exactly: every double is a dyadic rational."""
    ratios = [Fraction(float(v)) for v in values]
    shift = max(q.denominator.bit_length() - 1 for q in ratios)
    return [q.numerator << (shift - q.denominator.bit_length() + 1)
            for q in ratios], shift


def _exact_interior_residual(params, z, energy, x, f):
    """The three-point residual ``-f''/2 - f'/(2x) + (V - E) f`` at the
    interior points of the doubles ``x``, on the doubles ``f``, evaluated
    exactly, each value rounded once to the nearest double.

    With ``x = X / 2**s``, ``f = F / 2**t`` and the couplings, ``z`` and
    ``E`` over ``2**v``, the stencil term is ``2**(2s) (Bn dF0 - An dF1) /
    (Q 2**t)`` with ``An = 2X HM + HM**2``, ``Bn = 2X HP - HP**2`` and ``Q =
    2X HM HP (HM + HP)``, and the potential term ``P F / (2 X**2
    2**(2v + 2s + t))``, where ``P / 2**(2v + 4s)`` is ``2x**2 (V - z/x -
    E)``: integers throughout, and Python's integer division rounds the
    one quotient correctly."""
    X, s = _dyadic(x)
    F, t = _dyadic(f)
    (W, K, Z, E), v = _dyadic([params.omega_l, params.k, z, energy])
    m = params.m
    out = []
    for i in range(1, len(X) - 1):
        xi, hm, hp = X[i], X[i] - X[i - 1], X[i + 1] - X[i]
        stencil = ((2 * xi * hp - hp * hp) * (F[i] - F[i - 1])
                   - (2 * xi * hm + hm * hm) * (F[i + 1] - F[i])) << (2 * s)
        q = 2 * xi * hm * hp * (hm + hp)
        x2 = xi * xi
        p = (W * W * x2 * x2 + ((2 * K * x2 * xi) << (v + s))
             + ((2 * (W * m - E) * x2) << (v + 2 * s)) + ((m * m) << (2 * v + 4 * s))
             - ((2 * Z * xi) << (v + 3 * s)))
        den = q * 2 * x2 << (2 * v + 2 * s + t)
        out.append((((stencil * 2 * x2) << (2 * v + 2 * s)) + p * F[i] * q) / den)
    return np.array(out)


def _kernel_inputs():
    """Seeded solved states on their default grids: twelve parameter sets
    at levels 1-13 and four at 14-80, the lowest, a middle and the highest
    state of each."""
    rng = random.Random(37)
    for i in range(16):
        omega_l, k = 0.2 * 25.0 ** rng.random(), 0.0 if i % 8 == 0 else 4.0 * rng.random()
        m, level = rng.randint(-4, 4), rng.randint(*((1, 13) if i < 12 else (14, 80)))
        states = solve_admissible_z((level - 1) / 2, m, omega_l, k)
        grid = RadialGrid.for_params(ModelParams(omega_l, k, m))
        for index in sorted({0, len(states) // 2, len(states) - 1}):
            yield states[index], grid


class TestResidualKernelAgainstExact:
    """The residual kernel against the same three-point stencil evaluated
    exactly on the same double samples and grid.

    Over 395 seeded states like these (levels 1-13, and 14-80 for one in
    four sets), the relative error of ``max_residual`` was at most 2.3e-7
    (median 1e-10); the stencil weighting the samples instead of their
    differences reached 6.4e-4 (median 1e-8).  Pointwise, each of the
    kernel's roundings is within ``eps/2`` of a term no larger than ``T =
    |b (f_i - f_{i-1})| + |a (f_{i+1} - f_i)| + (|terms of V - E| +
    |z/x|) |f_i|``, and about a dozen roundings reach the result, so the
    error is within about ``6 eps T``, and the test allows ``8 eps T``.  It
    measured at most ``2.1 eps T`` on 102 states, where the weighted
    samples reached ``8e4 eps T``."""

    def test_max_residual_and_every_point(self):
        eps = float(np.finfo(float).eps)
        checked = set()
        for state, grid in _kernel_inputs():
            p, x = state.params, grid.points
            f = state.radial_values(x)
            residual, peak = model._interior_residual(p, state.z, state.energy, grid, f)
            exact = _exact_interior_residual(p, state.z, state.energy, x, f)
            assert peak == float(np.max(np.abs(f)))

            a, b = grid._stencil
            inner, mid = x[1:-1], np.abs(f[1:-1])
            omega, k, m = float(p.omega_l), float(p.k), p.m
            potential = (0.5 * omega * omega * inner * inner + abs(k) * inner
                         + abs(omega * m) + 0.5 * m * m / (inner * inner)
                         + abs(state.energy) + abs(state.z) / inner)
            bound = 8.0 * eps * (np.abs(b * (f[1:-1] - f[:-2]))
                                 + np.abs(a * (f[2:] - f[1:-1])) + potential * mid)
            assert (np.abs(residual - exact) <= bound).all()

            report = verify_state(state, grid=grid)
            scale = max(abs(state.energy) * peak, eps * peak, 1e-300)
            want = float(np.max(np.abs(exact))) / scale
            assert report.max_residual == pytest.approx(want, rel=1e-6, abs=0)
            checked.add(state.level > 13)
        assert checked == {False, True}
