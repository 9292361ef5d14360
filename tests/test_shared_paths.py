"""The arrays shared by the states of a parameter set give the same bits as
the per-state formulas they replace.

The reference functions below are the per-state formulas, written as they
were before the stencil, the powers of the points, the envelope samples and
the norm quadrature were kept on the grid or on the parameters, and before
each state's polynomial factor was evaluated once for all its checks and
the norm constants of a solve in one pass; the residual in difference form
and the Simpson term as one weight per point, as the library computes them.
Every comparison is ``==``: sharing must not move a single bit.

A state's polynomial factor of 16 or more coefficients is evaluated in
blocks (``ref_blocks``, the reference copy in ``test_float_paths``), whose
bits depend on the size of the array of points; so ``ref_state_values``
evaluates each point set alone, as the library does: the grid points, the
head nodes and the 256 nodes of the norm quadrature.  Below 16
coefficients every evaluation is Horner's loop.

The finite-difference residual of the sextic map is a test oracle,
``oracles.fd_sextic_residual``; its slot of grid arrays is held to the
same per-state reference.
"""

import gc
import math
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import (
    GridError,
    ModelParams,
    QesState,
    RadialGrid,
    build_qes_matrix,
    constraint_polynomial,
    envelope_r_max,
    level_energy,
    radial_operator_apply,
    rho_grid_for,
    series,
    sl2,
    solve_admissible_z,
    solve_series_states,
    to_sextic,
    verify_state,
)
from qeshydro import _polyops
from qeshydro._polyops import DomainError, real_roots
from qeshydro.model import l2_norm_constant, l2_norm_constants, level_states
from qeshydro.series import _HALF, _regenerate, _terms
from oracles import fd_sextic_residual, gauss_integrate
from test_float_paths import ref_blocks


def ref_fd_derivatives(x, f):
    f1 = np.empty_like(f)
    f2 = np.empty_like(f)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    denom = hm * hp * (hm + hp)
    f1[1:-1] = (hm * hm * f[2:] + (hp * hp - hm * hm) * f[1:-1] - hp * hp * f[:-2]) / denom
    f2[1:-1] = 2.0 * (hm * f[2:] - (hm + hp) * f[1:-1] + hp * f[:-2]) / denom
    h1, h2 = x[1] - x[0], x[2] - x[1]
    f1[0] = (
        -(2.0 * h1 + h2) / (h1 * (h1 + h2)) * f[0]
        + (h1 + h2) / (h1 * h2) * f[1]
        - h1 / (h2 * (h1 + h2)) * f[2]
    )
    f2[0] = 2.0 * (
        f[0] / (h1 * (h1 + h2)) - f[1] / (h1 * h2) + f[2] / (h2 * (h1 + h2))
    )
    g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
    f1[-1] = (
        (2.0 * g1 + g2) / (g1 * (g1 + g2)) * f[-1]
        - (g1 + g2) / (g1 * g2) * f[-2]
        + g1 / (g2 * (g1 + g2)) * f[-3]
    )
    f2[-1] = 2.0 * (
        f[-1] / (g1 * (g1 + g2)) - f[-2] / (g1 * g2) + f[-3] / (g2 * (g1 + g2))
    )
    return f1, f2


def ref_polyval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ref_state_values(coeffs, x):
    """A state's polynomial factor on the points ``x`` alone: Horner's loop
    below 16 coefficients, the blocked evaluation from 16."""
    return ref_polyval(coeffs, x) if len(coeffs) < 16 else ref_blocks(coeffs, x)


def ref_envelope(params, r):
    omega = float(params.omega_l)
    delta = float(params.k) / omega
    return r**params.abs_m * np.exp(-0.5 * omega * r * r - delta * r)


def ref_radial_values(state, r):
    return (state.norm_constant * np.asarray(ref_state_values(state.poly, r))
            * ref_envelope(state.params, r))


def ref_norm_weights(x):
    """The composite Simpson weights of the points ``x``, one per point,
    each times its point: ``sum(ref_norm_weights(x) * y)`` is the rule for
    ``y * x``, with the panel factors of the common reference rule."""
    h = np.diff(x)
    stop = x.size - 2 if x.size % 2 else x.size - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    weights = np.zeros_like(x)
    weights[0:stop:2] += hsum / 6.0 * (2.0 - 1.0 / h0divh1)
    weights[1:stop + 1:2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
    weights[2:stop + 2:2] += hsum / 6.0 * (2.0 - h0divh1)
    if x.size % 2 == 0:
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        weights[-1] += (2 * b**2 + 3 * a * b) / (6 * (b + a))
        weights[-2] += (b**2 + 3.0 * a * b) / (6 * a)
        weights[-3] -= b**3 / (6 * a * (a + b))
    return weights * x


def ref_sign_changes(poly):
    """Sign changes of the float coefficients, zeros skipped."""
    positive = [float(c) > 0 for c in poly if float(c) != 0.0]
    return sum(a != b for a, b in zip(positive, positive[1:]))


def ref_residual(params, z, energy, x, f):
    """(H - E) f on the points ``x``, endpoints included: at the interior
    points in difference form, ``b (f_i - f_{i-1}) - a (f_{i+1} - f_i) +
    (c - z/x) f_i`` with ``c = V - E`` without ``z``."""
    omega, k, m = float(params.omega_l), float(params.k), params.m
    c = (0.5 * omega * omega * x * x + k * x + omega * m
         + 0.5 * m * m / (x * x) - float(energy))
    potential = c - float(z) / x
    f1, f2 = ref_fd_derivatives(x, f)
    residual = -0.5 * f2 - 0.5 * f1 / x + potential * f
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    denom = hm * hp * (hm + hp)
    inner = x[1:-1]
    a = (hm + hm * hm / (2.0 * inner)) / denom
    b = (hp - hp * hp / (2.0 * inner)) / denom
    residual[1:-1] = (b * (f[1:-1] - f[:-2]) - a * (f[2:] - f[1:-1])
                      + potential[1:-1] * f[1:-1])
    return residual


def ref_report(state, grid):
    """(max_residual, norm_error, node_count) by the per-state formulas;
    the node count is the coefficient sign count."""
    p = state.params
    x = grid.points
    f = ref_radial_values(state, x)
    omega, k = float(p.omega_l), float(p.k)
    residual = ref_residual(p, state.z, state.energy, x, f)
    floor = float(np.finfo(float).eps) * float(np.max(np.abs(f)))
    scale = max(abs(state.energy) * float(np.max(np.abs(f))), floor, 1e-300)
    max_residual = float(np.max(np.abs(residual[1:-1]))) / scale

    total = float(np.sum((f * ref_norm_weights(x)) * f))
    head = gauss_integrate(lambda s: ref_radial_values(state, s) ** 2 * s,
                           0.0, grid.r_min, n=16)
    r_max = grid.r_max
    rate = (2.0 * omega * r_max + 2.0 * k / omega
            - (2.0 * p.abs_m + 1.0 + 2.0 * (state.level - 1)) / r_max)
    rate = max(rate, omega * r_max)
    norm = total + head + float(f[-1] ** 2 * x[-1]) / rate
    return max_residual, abs(norm - 1.0), ref_sign_changes(state.poly)


def ref_sextic_residual(sextic, grid):
    rho = grid.points
    zeta = np.sqrt(rho) * ref_radial_values(sextic.source, rho * rho)
    _, z2 = ref_fd_derivatives(rho, zeta)
    operator = (
        -0.5 * z2
        + (
            sextic.centrifugal_coeff / (rho * rho)
            + sextic.rho2_coeff * rho * rho
            + sextic.rho4_coeff * rho**4
            + sextic.rho6_coeff * rho**6
        )
        * zeta
    )
    residual = operator - sextic.eigenvalue * zeta
    floor = float(np.finfo(float).eps) * float(np.max(np.abs(zeta)))
    scale = max(abs(sextic.eigenvalue) * float(np.max(np.abs(zeta))), floor, 1e-300)
    return float(np.max(np.abs(residual[1:-1]))) / scale


def ref_norm_constant(params, poly):
    coeffs = [float(c) for c in poly]

    def integrand(r):
        base = ref_state_values(coeffs, r) * ref_envelope(params, r)
        return base * base * r

    total = gauss_integrate(integrand, 0.0, envelope_r_max(params), n=256)
    return 1.0 / math.sqrt(total)


def ref_ldexp(x, e):
    """x * 2**e, inf of x's sign where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def ref_norm_outcome(params, poly):
    """The per-state norm constant, or the type and text of what the
    per-state ``l2_norm_constant`` raised.  The values P * envelope are
    scaled by 2**-e, e the exponent of their largest magnitude, before they
    are squared, and the constant by 2**-e after."""
    coeffs = [float(c) for c in poly]
    exponent = []

    def integrand(r):
        base = ref_state_values(coeffs, r) * ref_envelope(params, r)
        exponent.append(math.frexp(float(np.max(np.abs(base))))[1])
        base = np.ldexp(base, -exponent[0])
        return base * base * r

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        total = gauss_integrate(integrand, 0.0, envelope_r_max(params), n=256)
    e = exponent[0]
    if 0.0 < total < math.inf:
        constant = ref_ldexp(1.0 / math.sqrt(total), -e)
        if 0.0 < constant < math.inf:
            return constant
    if not any(coeffs):
        return ValueError, "polynomial factor gives zero norm"
    integral = ref_ldexp(total, 2 * e)
    cause = "the envelope underflows" if integral == 0.0 else "the state overflows"
    return DomainError, (
        f"{cause} double precision at omega-l = {float(params.omega_l)!r}, "
        f"k = {float(params.k)!r}, m = {params.m}: its norm integral is "
        f"{integral!r}")


def sweep_like_inputs(count, seed):
    """Seeded (omega_l, k, m, level) like the sweep benchmark's: omega_l
    log-spread over [0.2, 5], k in [0, 4] (0 for every tenth), m -4..4,
    levels 1-13."""
    rng = random.Random(seed)
    for i in range(count):
        omega_l = 0.2 * 25.0 ** rng.random()
        k = 0.0 if i % 10 == 0 else 4.0 * rng.random()
        yield omega_l, k, rng.randint(-4, 4), rng.randint(1, 13)


def assert_report_matches(state, grid):
    report = verify_state(state, grid=grid)
    assert (report.max_residual, report.norm_error, report.node_count) == \
        ref_report(state, grid)


class TestSharedEqualsPerState:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_reports_residuals_and_norms(self, seed):
        for omega_l, k, m, level in sweep_like_inputs(12, seed):
            params = ModelParams(omega_l, k, m)
            states = solve_admissible_z((level - 1) / 2, m, omega_l, k)
            assert states
            grid = RadialGrid.for_params(params)
            rho = rho_grid_for(params)
            for state in states:
                assert state.norm_constant == ref_norm_constant(params, state.poly)
                assert l2_norm_constant(params, state.poly) == state.norm_constant
                assert_report_matches(state, grid)
                sextic = to_sextic(state)
                assert fd_sextic_residual(sextic, rho) == ref_sextic_residual(sextic, rho)

    def test_default_grids_match(self):
        for omega_l, k, m, level in sweep_like_inputs(4, 3):
            state = solve_admissible_z((level - 1) / 2, m, omega_l, k)[-1]
            report = verify_state(state)
            grid = RadialGrid.for_params(ModelParams(omega_l, k, m))
            assert (report.max_residual, report.norm_error, report.node_count) == \
                ref_report(state, grid)
            sextic = to_sextic(state)
            assert fd_sextic_residual(sextic) == \
                ref_sextic_residual(sextic, rho_grid_for(state.params))

    def test_one_grid_for_two_parameter_sets_in_both_orders(self):
        # The grid keeps the envelope of the most recent parameters only; a
        # slot that did not notice the change would give the other set's
        # samples.
        first = solve_admissible_z(2, 1, 1.3, 0.7)
        second = solve_admissible_z(2, -1, 0.6, 2.1)
        grid = RadialGrid.for_params(first[0].params)
        rho = rho_grid_for(first[0].params)
        for states in (first, second, first, second[::-1], first[::-1]):
            for state in states:
                assert_report_matches(state, grid)
                sextic = to_sextic(state)
                assert fd_sextic_residual(sextic, rho) == ref_sextic_residual(sextic, rho)

    def test_same_couplings_other_m_is_a_new_envelope(self):
        a = solve_admissible_z(1, 2, 1.0, 1.0)[0]
        b = solve_admissible_z(1, -3, 1.0, 1.0)[0]
        grid = RadialGrid.for_params(a.params)
        for state in (a, b, a):
            assert_report_matches(state, grid)

    @pytest.mark.parametrize("j", [1, 9.5])
    def test_same_couplings_opposite_m_is_a_new_potential(self, j):
        # m = 2 and m = -2 share the envelope, which depends on |m|, but
        # not the potential, whose omega_l m term has the sign of m.
        plus = solve_admissible_z(j, 2, 1.0, 1.0)[0]
        minus = solve_admissible_z(j, -2, 1.0, 1.0)[0]
        grid = RadialGrid.for_params(plus.params)
        for state in (plus, minus, plus):
            fresh = RadialGrid.for_params(state.params)
            report = verify_state(state, grid=grid)
            assert report == verify_state(state, grid=fresh)
            assert (report.max_residual, report.norm_error,
                    report.node_count) == ref_report(state, fresh)

    def test_interior_residual_of_the_grid(self):
        # verify_state and radial_operator_apply share one interior kernel;
        # both must give the residual built from the reference derivatives.
        # The 34-point grid has the 32 interior points allowed at least.
        grids = (RadialGrid.for_params(ModelParams(0.7, 1.5, 2)),
                 RadialGrid.geometric(1e-3, 9.0, 101),
                 RadialGrid.uniform(0.1, 3.0, 34))
        states = [solve_admissible_z(j, m, omega_l, k)[i]
                  for j, m, omega_l, k in ((2, 2, 0.7, 1.5), (1.5, -3, 1.3, 0.0),
                                           (9.5, 0, 0.9, 2.2), (0, -1, 2.0, 0.4))
                  for i in (0, -1)]
        for grid in grids:
            x = grid.points
            for state in states:
                assert_report_matches(state, grid)
                for f in (ref_radial_values(state, x), np.sin(x) * np.exp(-x)):
                    residual, interior = radial_operator_apply(
                        state.params, state.z, state.energy, grid, f)
                    want = ref_residual(state.params, state.z, state.energy, x, f)
                    assert np.array_equal(residual, want)
                    assert np.array_equal(np.signbit(residual), np.signbit(want))
                    assert not interior[0] and not interior[-1]
                    assert interior[1:-1].all()

    def test_interior_residual_refuses_what_it_refused(self):
        state = solve_admissible_z(1, -2, 1.0, 0.5)[0]
        with pytest.raises(GridError, match="31 interior points"):
            verify_state(state, grid=RadialGrid.uniform(0.1, 3.0, 33))
        params = ModelParams(1.0, 1.0, 0)
        energy = float(level_energy(2, 0, 1.0, 1.0))
        overflowing = QesState(level=2, z=1.0, energy=energy,
                               poly=(1.0, 1e300), norm_constant=1e300,
                               params=params)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="^r_samples must be finite$"):
            verify_state(overflowing)


def deep_like_inputs(count, seed, levels):
    """Seeded (omega_l, k, m, level) like the deep benchmark's: the sweep's
    couplings and m, levels drawn from ``levels``."""
    rng = random.Random(seed)
    for i in range(count):
        omega_l = 0.2 * 25.0 ** rng.random()
        k = 0.0 if i % 6 == 0 else 4.0 * rng.random()
        yield omega_l, k, rng.randint(-4, 4), rng.randint(*levels)


def some(states):
    """The first and the last state and about three between."""
    if not states:
        return []
    step = max(1, len(states) // 4)
    return [states[i] for i in sorted({*range(0, len(states), step),
                                       len(states) - 1})]


@pytest.fixture(scope="module")
def solved():
    """(params, grid, algebraic states, series states or the exception)
    for 12 inputs at levels 14-200 and 4 at levels 1-13."""
    out = []
    inputs = [*deep_like_inputs(12, 15, (14, 200)),
              *deep_like_inputs(4, 16, (1, 13))]
    for omega_l, k, m, level in inputs:
        params = ModelParams(omega_l, k, m)
        algebra = solve_admissible_z((level - 1) / 2, m, omega_l, k)
        try:
            series = solve_series_states(level, m, omega_l, k)
        except (RuntimeError, ValueError) as exc:
            series = exc
        out.append((params, RadialGrid.for_params(params), algebra, series))
    return out


class TestOnePassPerState:
    def test_reports_and_node_counts_at_depth(self, solved):
        checked = 0
        for params, grid, algebra, series in solved:
            for states in (algebra, series):
                if isinstance(states, Exception):
                    continue
                for state in some(states):
                    report = verify_state(state, grid=grid)
                    assert (report.max_residual, report.norm_error,
                            report.node_count) == ref_report(state, grid)
                    checked += 1
        assert checked > 100

    def test_norm_constants_at_depth(self, solved):
        for params, _, algebra, series in solved:
            for states in (algebra, series):
                if isinstance(states, Exception):
                    continue
                polys = [s.poly for s in states]
                norms = [s.norm_constant for s in states]
                assert l2_norm_constants(params, polys) == norms
                for state in some(states):
                    assert l2_norm_constant(params, state.poly) == state.norm_constant
                    assert state.norm_constant == ref_norm_outcome(params, state.poly)

    def test_series_raises_what_the_first_failing_state_raised(self, solved):
        # At this input the 23rd state's P * envelope is not finite; the
        # states before it are normalised, and the error names the overflow.
        level, m, omega_l, k = 120, 220, 1.0, 1.0
        params = ModelParams(omega_l, k, m)
        constraint = constraint_polynomial(level, m, omega_l, k)
        roots, _ = real_roots([float(c) for c in constraint.coeffs])
        energy = float(level_energy(level, m, omega_l, k))
        terms = [_terms(n, m, omega_l, k, energy) for n in range(level + 1)]
        outcomes = [ref_norm_outcome(params, _regenerate(terms, z)[:level])
                    for z in roots]
        failing = [o for o in outcomes if isinstance(o, tuple)]
        assert failing and failing[0][0] is DomainError
        assert outcomes.index(failing[0]) == 22
        with pytest.raises(DomainError) as caught:
            solve_series_states(level, m, omega_l, k)
        assert type(caught.value) is failing[0][0]
        assert str(caught.value) == failing[0][1]

    def test_norm_failure_before_an_unterminated_root_is_raised(self, monkeypatch):
        # At m = 400 every norm overflows.  Root by root, the first state's
        # norm raised before the appended root could fail to terminate.
        true_roots = series.real_roots

        def with_unterminated_root(coeffs):
            roots, excluded = true_roots(coeffs)
            return roots + [2.0 * roots[-1] + 1.0], excluded

        monkeypatch.setattr(series, "real_roots", with_unterminated_root)
        with pytest.raises(DomainError, match="the state overflows"):
            solve_series_states(2, 400, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            solve_series_states(2, 3, 1.0, 1.0)

    def test_unterminated_root_leaves_no_reference_cycle(self, monkeypatch):
        # A cycle through the solver's frame would keep every caller's frame,
        # and the grids in their locals, alive until a cyclic collection.
        true_roots = series.real_roots

        def with_unterminated_root(coeffs):
            roots, excluded = true_roots(coeffs)
            return roots + [9.0], excluded

        monkeypatch.setattr(series, "real_roots", with_unterminated_root)
        gc.collect()
        gc.disable()
        try:
            try:
                solve_series_states(2, 3, 1.0, 1.0)
            except RuntimeError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 2, 0)])
    def test_batch_raises_for_the_first_failing_row(self, order):
        params = ModelParams(1.0, 1.0, 0)
        rows = [(1.0, -0.5), (1.0, 1e308, 1e308), (0.0, 0.0)]
        ordered = [rows[i] for i in order]
        expected = next(o for o in (ref_norm_outcome(params, r) for r in ordered)
                        if isinstance(o, tuple))
        with pytest.raises(ValueError) as caught:
            l2_norm_constants(params, ordered)
        assert (type(caught.value), str(caught.value)) == expected

    def test_rows_of_different_lengths(self):
        params = ModelParams(0.7, 2.5, -3)
        polys = [(1.0,), (1.0, -0.3, 0.02), (1.0, 0.0, 0.0), (1.0, -2.0)]
        expected = [ref_norm_outcome(params, p) for p in polys]
        assert l2_norm_constants(params, polys) == expected
        assert l2_norm_constants(params, []) == []

    def test_one_grid_for_two_parameter_sets_at_depth(self):
        first = solve_admissible_z(14.5, 3, 1.7, 0.4)
        second = solve_admissible_z(8, -2, 0.5, 3.1)
        grid = RadialGrid.for_params(first[0].params)
        for states in (first, second, first[::-1], second[::-1]):
            for state in some(states):
                assert_report_matches(state, grid)

    @pytest.mark.parametrize("level,m,omega_l,k", [
        (17, 0, 1.0, 1.0), (40, -2, 0.6, 2.2), (80, 4, 3.1, 0.8),
        (120, 3, 2.5, 0.0), (200, 1, 1.0, 1.0)])
    def test_blocked_values_match_the_public_evaluations(
            self, monkeypatch, level, m, omega_l, k):
        # verify_state evaluates the grid points and the head nodes in
        # separate calls, so its samples and head values are those of
        # radial_values and an evaluation on the head nodes alone, bit for
        # bit.  Level 80 (5 blocks) is one where OpenBLAS's Haswell kernel
        # gave other bits for the grid points in one call with other points.
        # The samples are scaled in place, so each is copied as the kernel
        # gets it, with the peak the kernel returns.
        from qeshydro import verify
        samples, peaks, heads = [], [], []
        apply, norm = verify._interior_residual, verify._norm_estimate

        def keeping(params, z, energy, grid, values):
            samples.append(values.copy())
            residual, peak = apply(params, z, energy, grid, values)
            peaks.append(peak)
            return residual, peak

        def keeping_head(state, grid, values, head_poly):
            heads.append(head_poly)
            return norm(state, grid, values, head_poly)

        monkeypatch.setattr(verify, "_interior_residual", keeping)
        monkeypatch.setattr(verify, "_norm_estimate", keeping_head)
        states = solve_admissible_z((level - 1) / 2, m, omega_l, k)
        grid = RadialGrid.for_params(states[0].params)
        for state in some(states):
            verify_state(state, grid=grid)
            want = state.radial_values(grid.points)
            assert np.array_equal(samples[-1], want)
            assert np.array_equal(np.signbit(samples[-1]), np.signbit(want))
            assert peaks[-1] == float(np.max(np.abs(want)))
            head = grid._state_points[0]
            assert np.array_equal(heads[-1], state.polynomial_values(head))

    def test_block_powers_follow_the_grid(self):
        # verify_state keeps the block powers of the most recent grid only:
        # A, then B, then A again each need their own grid's powers, and
        # the one kept grid must not outlive the caller's last use of A.
        first = solve_admissible_z(8, 3, 1.7, 0.4)
        second = solve_admissible_z(39.5, -2, 0.6, 2.2)
        third = solve_admissible_z(19.5, 1, 1.1, 0.9)
        grid_a = RadialGrid.for_params(first[0].params)
        grid_b = RadialGrid.for_params(second[0].params)
        for grid in (grid_a, grid_b, grid_a):
            for states in (first, second, third):
                for state in some(states)[:3]:
                    assert_report_matches(state, grid)
        probe = weakref.ref(grid_a)
        del grid, grid_a
        verify_state(second[-1], grid=grid_b)
        assert probe() is None

    def test_sextic_potential_follows_the_level(self):
        # Two levels at the same couplings and m differ only in the rho**2
        # coefficient of the sextic potential.
        rho = rho_grid_for(ModelParams(1.1, 0.9, 1))
        low = solve_admissible_z(0.5, 1, 1.1, 0.9)
        high = solve_admissible_z(2, 1, 1.1, 0.9)
        for state in (low[0], high[0], high[-1], low[-1]):
            sextic = to_sextic(state)
            assert fd_sextic_residual(sextic, rho) == ref_sextic_residual(sextic, rho)


class TestFloatRecurrenceTerms:
    @staticmethod
    def ref_terms(n, m, omega, k, energy):
        am = abs(m)
        e_term = omega * (n + am + m) - k * k / (2 * omega * omega) - energy
        b_term = (am + _HALF + n) * (k / omega)
        denom = (n + 1) * (am + Fraction(1 + n, 2))
        return e_term, b_term, denom

    def test_float_terms_equal_fraction_terms(self):
        rng = random.Random(7)
        for m in range(-6, 7):
            omega, k = 0.2 * 25.0 ** rng.random(), 4.0 * rng.random()
            energy = omega * (5 + abs(m) + m) - k * k / (2 * omega * omega)
            probes = [rng.uniform(-1e3, 1e3) for _ in range(3)]
            for n in range(401):
                e_new, b_new, d_new = _terms(n, m, omega, k, energy)
                e_old, b_old, d_old = self.ref_terms(n, m, omega, k, energy)
                assert type(d_new) is float and type(b_new) is float
                assert (e_new, b_new, d_new) == (e_old, b_old, d_old)
                for x in probes:
                    assert x / d_new == x / d_old

    @pytest.mark.parametrize("omega,k", [(Fraction(2, 3), Fraction(5, 2)), (1, 2)])
    def test_rational_couplings_stay_exact(self, omega, k):
        for n in (0, 1, 7, 40):
            e_term, b_term, denom = _terms(n, -3, omega, k, Fraction(1, 3))
            assert isinstance(denom, Fraction)
            assert denom == self.ref_terms(n, -3, omega, k, Fraction(1, 3))[2]
            if isinstance(omega, Fraction):
                assert isinstance(b_term, Fraction)


def ref_solve(jf, m, omega, kk, tol):
    """``sl2._solve`` by its loop over the eigenvectors one column at a
    time, with ``tol`` for both its complex filter and its defect bound."""
    matrix = build_qes_matrix(jf, m, omega, kk)
    a = matrix.as_array()
    eigvals, eigvecs = np.linalg.eig(a)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    level = matrix.dim
    energy = float(level_energy(level, m, omega, kk))
    params = ModelParams(float(omega), float(kk), m)
    notes = []
    accepted = []
    for idx in range(eigvals.size):
        lam = complex(eigvals[idx])
        if abs(lam.imag) > tol * scale:
            notes.append(
                f"excluded complex eigenvalue {lam!r} at j={matrix.j}, m={m}")
            continue
        z = lam.real
        vec = np.real(eigvecs[:, idx])
        peak = float(np.max(np.abs(vec)))
        pivot = vec[0]
        if not abs(pivot) > 1e-12 * peak:
            pivot = vec[np.nonzero(np.abs(vec) > 1e-12 * peak)[0][0]]
            notes.append(
                f"eigenvector with vanishing constant term at z={z!r}; "
                f"scaled leading coefficient instead")
        vec = vec / pivot
        defect = float(np.max(np.abs(a @ vec - z * vec)))
        if defect > tol * scale * (peak / abs(pivot)):
            notes.append(
                f"eigenvector consistency defect {defect:.3e} at z={z!r}")
        accepted.append((z, vec))
    if not accepted:
        notes.append(f"no real eigenvalues at j={matrix.j}, m={m}")
    accepted.sort(key=lambda pair: pair[0])
    return level_states(params, level, energy, [z for z, _ in accepted],
                        [tuple(vec.tolist()) for _, vec in accepted], notes)


#: The deep-like inputs, at most of whose levels from 76 up the eigensolver
#: returns complex pairs, and omega_l = k = 1, m = 0 at level 76.
EIGEN_INPUTS = [*deep_like_inputs(12, 15, (14, 200)),
                *deep_like_inputs(4, 16, (1, 13)), (1.0, 1.0, 0, 76)]


def bits(values):
    return [(v, math.copysign(1.0, v)) for v in values]


class TestOneEigenvectorPass:
    def test_states_and_diagnostics_equal_the_column_loop(self):
        assert _polyops.MAX_IMAG == sl2.MAX_DEFECT == 1e-9
        excluded = 0
        for omega_l, k, m, level in EIGEN_INPUTS:
            jf = Fraction(level - 1, 2)
            states = sl2._solve(jf, m, omega_l, k)
            want_states = ref_solve(jf, m, omega_l, k, sl2.MAX_DEFECT)
            assert states == want_states
            for state, want in zip(states, want_states):
                assert bits(state.poly) == bits(want.poly)
            notes = states.notes
            assert notes == want_states.notes
            excluded += sum(n.startswith("excluded complex") for n in notes)
        assert excluded >= 4

    def test_tight_diagnostics_keep_their_kinds_order_and_strengths(self, monkeypatch):
        # At a bound of 1e-30 most eigenvectors report a defect.  One matrix
        # product may round a defect otherwise than a column's product, so
        # only its printed value may differ.
        def kinds(notes):
            return [re.sub(r"defect \S+ at", "defect at", n) for n in notes]

        monkeypatch.setattr(_polyops, "MAX_IMAG", 1e-30)
        monkeypatch.setattr(sl2, "MAX_DEFECT", 1e-30)
        defects = 0
        for omega_l, k, m, level in EIGEN_INPUTS[::3]:
            jf = Fraction(level - 1, 2)
            states = sl2._solve(jf, m, omega_l, k)
            want_states = ref_solve(jf, m, omega_l, k, 1e-30)
            assert states == want_states
            notes = states.notes
            assert kinds(notes) == kinds(want_states.notes)
            defects += sum("consistency defect" in n for n in notes)
        assert defects > 100


def ref_float_constraint(level, m, omega, kk):
    """The float ``constraint_polynomial`` coefficients by the loop over
    coefficient lists."""
    energy = level_energy(level, m, omega, kk)
    a_prev, a_cur = [], [1.0]
    for n in range(level):
        e_term, b_term, denom = _terms(n, m, omega, kk, energy)
        width = max(len(a_prev), len(a_cur) + 1)
        nxt = [0.0] * width
        for i, c in enumerate(a_prev):
            nxt[i] += e_term * c
        for i, c in enumerate(a_cur):
            nxt[i] += b_term * c
            nxt[i + 1] -= c
        nxt = [c / denom for c in nxt]
        a_prev, a_cur = a_cur, nxt
    return tuple(a_cur)


class TestArrayRecurrence:
    @pytest.mark.parametrize("omega_l,k,m,levels", [
        (1.0, 0.0, 0, range(1, 201)),
        (0.37, 2.9, -3, [*range(1, 25), 64, 127, 200]),
        (4.1, 0.6, 4, [*range(1, 25), 99, 151, 200])])
    def test_float_constraint_equals_the_list_loop(self, omega_l, k, m, levels):
        zeros = 0
        for level in levels:
            got = constraint_polynomial(level, m, omega_l, k).coeffs
            want = ref_float_constraint(level, m, omega_l, k)
            assert all(type(c) is float for c in got)
            assert bits(got) == bits(want)
            zeros += sum(c == 0.0 for c in want)
        # k = 0 leaves every other coefficient a signed zero.
        assert zeros > 0 or k > 0
