import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import (
    QesMatrix,
    _polyops,
    build_qes_matrix,
    characteristic_polynomial,
    constraint_polynomial,
    cross_validate,
    sl2,
    solve_admissible_z,
)
from oracles import (
    band_rows,
    build_generators,
    commutator_defects,
    energy_x,
    qes_matrix_from_generators,
    sl2_coefficients,
)

HALF = Fraction(1, 2)


class TestGenerators:
    def test_spin_zero_is_trivial(self):
        rep = build_generators(0)
        for mat in (rep.t_plus, rep.t_minus, rep.t_zero):
            assert mat.shape == (1, 1)
            assert mat[0, 0] == 0.0

    def test_spin_half_matrices(self):
        rep = build_generators(HALF)
        assert rep.t_plus.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert rep.t_minus.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert rep.t_zero.tolist() == [[0.5, 0.0], [0.0, -0.5]]

    def test_spin_one_ladder_entries(self):
        # sqrt((j - m)(j + m + 1)) at j = 1 gives sqrt(2) twice
        rep = build_generators(1)
        assert rep.radicands == (2, 2)
        assert rep.t_plus[0, 1] == pytest.approx(math.sqrt(2))
        assert rep.t_plus[1, 2] == pytest.approx(math.sqrt(2))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            build_generators(-1)
        with pytest.raises(ValueError):
            build_generators(0.3)

    @pytest.mark.parametrize("two_j", range(0, 26))
    def test_commutators_exact(self, two_j):
        rep = build_generators(Fraction(two_j, 2))
        defects = commutator_defects(rep)
        assert all(d == 0 for d in defects.values())

    def test_commutators_float(self):
        rep = build_generators(Fraction(9, 2))
        plus_minus = rep.t_plus @ rep.t_minus - rep.t_minus @ rep.t_plus
        assert np.allclose(plus_minus, 2 * rep.t_zero, atol=1e-13)
        zero_plus = rep.t_zero @ rep.t_plus - rep.t_plus @ rep.t_zero
        assert np.allclose(zero_plus, rep.t_plus, atol=1e-13)


class TestCoefficients:
    def test_defining_system(self):
        # rebuild every field from the defining equations
        for j, m, omega, k in [(HALF, 0, Fraction(1), Fraction(1)),
                               (Fraction(3, 2), -2, Fraction(2), Fraction(3)),
                               (Fraction(3), 1, Fraction(1, 2), Fraction(1, 4))]:
            co = sl2_coefficients(j, m, omega, k)
            am = abs(m)
            assert co.c1 == -HALF
            assert co.c2 == -omega
            assert co.c3 == k / omega
            assert co.c4 - j * co.c1 == -am - HALF
            assert co.c0_linear_part == (k / omega) * (am + HALF + j)
            assert co.x_energy == omega * (2 * j + 1 + m + am) - (k / omega) ** 2 / 2

    def test_energy_examples(self):
        assert energy_x(0, 0, 1, 1) == HALF
        assert energy_x(HALF, 0, 1, 1) == Fraction(3, 2)

    def test_negative_m_drops_out(self):
        # m + |m| = 0, so the energy is omega (2j + 1) at k = 0
        for j in (0, HALF, Fraction(5, 2)):
            assert energy_x(j, -5, Fraction(3), 0) == 3 * (2 * j + 1)


class TestQesMatrix:
    def test_spin_half_unit_couplings(self):
        mat = build_qes_matrix(HALF, 0, 1, 1)
        assert mat.bands == ((HALF, Fraction(3, 2)), (-HALF,), (Fraction(-1),))
        assert band_rows(mat.bands) == [[HALF, -HALF], [Fraction(-1), Fraction(3, 2)]]

    def test_spin_zero_scalar(self):
        for m, omega, k in [(0, 1, 1), (-3, 2, 5), (2, Fraction(1, 2), Fraction(3, 4))]:
            mat = build_qes_matrix(0, m, Fraction(omega), Fraction(k))
            assert mat.bands == ((Fraction(k, omega) * (abs(m) + HALF),), (), ())

    def test_spin_one_tridiagonal_values(self):
        mat = build_qes_matrix(1, 0, 1, 2)
        expected = [
            [Fraction(1), -HALF, Fraction(0)],
            [Fraction(-2), Fraction(3), Fraction(-2)],
            [Fraction(0), Fraction(-1), Fraction(5)],
        ]
        assert band_rows(mat.bands) == expected

    @pytest.mark.parametrize("two_j,m", [(4, 0), (7, -2), (10, 3)])
    def test_tridiagonal_structure(self, two_j, m):
        # The fact that lets a QesMatrix store three bands.
        rows = qes_matrix_from_generators(Fraction(two_j, 2), m, 1, 1)
        assert any(rows[i][i - 1] for i in range(1, two_j + 1))
        for i in range(two_j + 1):
            for q in range(two_j + 1):
                if abs(i - q) > 1:
                    assert rows[i][q] == 0
        diag, upper, lower = build_qes_matrix(Fraction(two_j, 2), m, 1, 1).bands
        assert (len(diag), len(upper), len(lower)) == (two_j + 1, two_j, two_j)

    @pytest.mark.parametrize("two_j,m,omega,k", [
        (0, 0, 1, 1), (1, 0, 1, 1), (2, -1, 2, 3),
        (5, 2, Fraction(1, 2), Fraction(1, 3)), (9, -4, 3, 0),
    ])
    def test_generator_combination_matches_closed_form(self, two_j, m, omega, k):
        j = Fraction(two_j, 2)
        direct = build_qes_matrix(j, m, omega, k)
        assert band_rows(direct.bands) == qes_matrix_from_generators(j, m, omega, k)

    def test_float_couplings_give_float_matrix(self):
        mat = build_qes_matrix(HALF, 0, 1.0, 1.0)
        assert not mat.exact
        assert np.allclose(mat.as_array(), [[0.5, -0.5], [-1.0, 1.5]])

    @pytest.mark.parametrize("omega,k,exact", [
        (1, 1, True), (Fraction(1, 2), 3, True), (1.0, 1, False), (2, 0.5, False)])
    def test_exactness_follows_the_couplings(self, omega, k, exact):
        mat = build_qes_matrix(1, -1, omega, k)
        assert mat.exact is exact
        assert all(isinstance(e, Fraction) is exact for band in mat.bands for e in band)
        assert all(isinstance(band, np.ndarray) is not exact for band in mat.bands)
        assert all(isinstance(e, Fraction) is exact
                   for row in qes_matrix_from_generators(1, -1, omega, k) for e in row)
        # Four labels and nothing else: no stored entries.
        with pytest.raises(TypeError):
            QesMatrix(HALF, 0, 1.0, 1.0, np.zeros((2, 2)))

    def test_bands_at_depth_are_linear_in_the_level(self):
        # 2j = 10**4: three bands of O(level) Fractions, where the dense
        # rows would hold 10**8 entries.
        mat = build_qes_matrix(5000, 3, Fraction(2, 3), Fraction(5, 7))
        tracemalloc.start()
        try:
            diag, upper, lower = mat.bands
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(diag), len(upper), len(lower)) == (10001, 10000, 10000)
        assert peak < 2000 * 10001
        ratio = Fraction(5, 7) / Fraction(2, 3)
        for n in (0, 1, 5000, 10000):
            assert diag[n] == ratio * (n + 3 + HALF)
            if n:
                assert upper[n - 1] == -(n * (3 + Fraction(n, 2)))
                assert lower[n - 1] == -Fraction(2, 3) * (10000 - (n - 1))

    @pytest.mark.parametrize("m,omega,k", [(0, 1, 1), (-2, 2, 3),
                                           (1, Fraction(1, 2), Fraction(1, 4))])
    def test_descending_basis_form(self, m, omega, k):
        # reversing the basis order must give
        # [[(k/w)(|m| + 3/2), -w], [-(|m| + 1/2), (k/w)(|m| + 1/2)]]
        rows = band_rows(build_qes_matrix(HALF, m, Fraction(omega), Fraction(k)).bands)
        rev = [[rows[1][1], rows[1][0]],
               [rows[0][1], rows[0][0]]]
        am = abs(m)
        ratio = Fraction(k) / Fraction(omega)
        assert rev == [[ratio * (am + Fraction(3, 2)), -Fraction(omega)],
                       [-(am + HALF), ratio * (am + HALF)]]

    def test_characteristic_polynomial_spin_half(self):
        mat = build_qes_matrix(HALF, 0, 1, 1)
        # z^2 - 2 z + 1/4
        assert characteristic_polynomial(mat) == (Fraction(1, 4), Fraction(-2),
                                                  Fraction(1))

    def test_characteristic_polynomial_requires_exact(self):
        with pytest.raises(ValueError):
            characteristic_polynomial(build_qes_matrix(HALF, 0, 1.0, 1.0))


def _sympy_charpoly(entries):
    sympy = pytest.importorskip("sympy")
    coeffs = sympy.Matrix(entries).charpoly().all_coeffs()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))


@pytest.mark.parametrize("j", [True, False])
@pytest.mark.parametrize("call", [
    lambda j: solve_admissible_z(j, 0, 1.0, 1.0),
    lambda j: build_qes_matrix(j, 0, 1.0, 1.0),
    lambda j: cross_validate(j, 0, 1.0, 1.0)],
    ids=["solve_admissible_z", "build_qes_matrix", "cross_validate"])
def test_a_bool_j_is_rejected_by_name(j, call):
    # True is the integer 1 to Fraction, so it once solved the level j = 1.
    with pytest.raises(ValueError) as caught:
        call(j)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"j must be a non-negative half-integer, got {j!r}"


def test_bands_stay_in_doubles_at_the_largest_m():
    # n (2|m| + n) passes 2**63 from n = 512 at |m| = 2**53; int64 would
    # wrap it to the wrong sign.
    matrix = build_qes_matrix(Fraction(1000), 2**53, 1.0, 1.0)
    upper = matrix.bands[1]
    exact = [Fraction(-(n * (2 * 2**53 + n)), 2) for n in range(1, matrix.dim)]
    assert np.all(upper < 0)
    assert max(abs(Fraction(u) - e) / abs(e) for u, e in zip(upper.tolist(), exact)) < 1e-15


class TestCharacteristicPolynomialReference:
    def test_random_tridiagonal_matches_sympy(self):
        rng = np.random.default_rng(11)

        def rationals(count):
            return [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                    for _ in range(count)]

        for dim in range(1, 16):
            bands = (rationals(dim), rationals(dim - 1), rationals(dim - 1))
            assert sl2._continuant(*bands) == _sympy_charpoly(band_rows(bands))

    @pytest.mark.parametrize("two_j,m,omega,k", [
        (0, 0, 1, 1), (3, -1, 2, 3), (6, 2, Fraction(1, 2), Fraction(1, 3)),
        (9, -4, 3, 0), (12, 1, Fraction(5, 3), Fraction(7, 2)),
    ])
    def test_generator_matrices_match_sympy(self, two_j, m, omega, k):
        j = Fraction(two_j, 2)
        assert characteristic_polynomial(build_qes_matrix(j, m, omega, k)) == (
            _sympy_charpoly(qes_matrix_from_generators(j, m, omega, k)))

    @pytest.mark.parametrize("omega,k", [(Fraction(1), Fraction(1)),
                                         (Fraction(3, 2), Fraction(2, 5))])
    def test_equals_constraint_polynomial_to_level_25(self, omega, k):
        for m in (-2, 0, 3):
            for level in range(1, 26):
                mat = build_qes_matrix(Fraction(level - 1, 2), m, omega, k)
                constraint = constraint_polynomial(level, m, omega, k).monic()
                assert characteristic_polynomial(mat) == constraint


class TestSolveAdmissible:
    def test_level_one_closed_form(self):
        states = solve_admissible_z(0, 0, 1, 1)
        assert len(states) == 1
        s = states[0]
        assert s.z == pytest.approx(0.5, rel=1e-14)
        assert s.energy == pytest.approx(0.5, rel=1e-14)
        assert s.poly == (1.0,)

    def test_spin_half_roots(self):
        states = solve_admissible_z(HALF, 0, 1, 1)
        assert len(states) == 2
        root = math.sqrt(3) / 2
        assert states[0].z == pytest.approx(1 - root, rel=1e-13)
        assert states[1].z == pytest.approx(1 + root, rel=1e-13)
        for s in states:
            assert s.energy == pytest.approx(1.5, rel=1e-14)

    def test_zero_slope_limit(self):
        states = solve_admissible_z(HALF, 0, 1, 0)
        expected = math.sqrt(0.5)
        assert states[0].z == pytest.approx(-expected, rel=1e-13)
        assert states[1].z == pytest.approx(expected, rel=1e-13)

    def test_spin_half_always_two_real_roots(self):
        # discriminant k^2/4 + omega^3 (|m| + 1/2) is positive for every
        # omega > 0, k >= 0
        rng = np.random.default_rng(23)
        for _ in range(30):
            omega = float(rng.uniform(0.05, 10.0))
            k = float(rng.uniform(0.0, 10.0))
            m = int(rng.integers(-5, 6))
            states = solve_admissible_z(HALF, m, omega, k)
            assert len(states) == 2
            assert not states.notes

    def test_level_one_energy_via_admissible_strength(self):
        # with z = (|m| + 1/2) k/omega the level-1 energy can be written
        # omega (1 + m + |m|) - (z / (|m| + 1/2))^2 / 2
        for m, omega, k in [(0, 1.0, 1.0), (2, 0.5, 2.0), (-1, 3.0, 0.25)]:
            state = solve_admissible_z(0, m, omega, k)[0]
            alt = omega * (1 + m + abs(m)) - (state.z / (abs(m) + 0.5)) ** 2 / 2
            assert state.energy == pytest.approx(alt, rel=1e-12)

    def test_sorted_ascending(self):
        states = solve_admissible_z(Fraction(5, 2), 1, 1, 2)
        zs = [s.z for s in states]
        assert zs == sorted(zs)

    def test_eigenvector_consistency(self):
        for two_j, m in [(3, 0), (6, -2), (9, 1)]:
            j = Fraction(two_j, 2)
            mat = build_qes_matrix(j, m, 1, 1).as_array()
            for s in solve_admissible_z(j, m, 1, 1):
                vec = np.array(s.poly)
                defect = np.max(np.abs(mat @ vec - s.z * vec))
                assert defect < 1e-9 * max(1.0, np.max(np.abs(vec)))

    def test_constant_coefficient_normalized(self):
        for s in solve_admissible_z(Fraction(7, 2), -1, 2, 1):
            assert s.poly[0] == 1.0

    def test_empirical_spectrum_is_real_at_desk_scale(self):
        # Reported as an observation: the off-diagonal products of the
        # tridiagonal matrix are positive, so no complex pairs appear.
        notes = []
        for two_j in range(0, 13):
            states = solve_admissible_z(Fraction(two_j, 2), 1, 1, 1)
            assert len(states) == two_j + 1
            notes += states.notes
        assert not notes


def jacobi_strengths(level, m, omega_l, k):
    """Strengths from numpy.linalg.eigvalsh on the symmetrized matrix.

    The paired off-diagonals of the monomial matrix multiply to
    n (|m| + n/2) omega_l (level - n) > 0, so a diagonal similarity makes it
    symmetric tridiagonal with that product's square root off the diagonal.
    With Fraction couplings each entry is exact until one rounding to float.
    """
    am = abs(m)
    ratio = k / omega_l
    diag = [float(ratio * (n + am + HALF)) for n in range(level)]
    off = [-math.sqrt(n * (am + HALF * n) * omega_l * (level - n))
           for n in range(1, level)]
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(jacobi)


def seeded_couplings(exact: bool, count: int = 60):
    rng = random.Random(1729 + exact)
    for case in range(count):
        level = 1 + case % 13
        m = rng.randint(-6, 6)
        if exact:
            omega_l = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            k = Fraction(rng.randint(0, 60), rng.randint(1, 12))
        else:
            omega_l = 10 ** rng.uniform(-1, 1)
            k = rng.uniform(0, 6) if case % 7 else 0.0
        yield level, m, omega_l, k


class TestStrengthAccuracy:
    """The strengths are the dense eigensolver's eigenvalues, accurate to a
    few ulps of the spectral scale.  Newton steps on the monomial
    characteristic polynomial, ill-conditioned at these degrees, moved them
    by up to 3.4e-6 on these inputs."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_strengths_match_the_symmetric_eigensolver(self, exact):
        worst = 0.0
        for level, m, omega_l, k in seeded_couplings(exact):
            states = solve_admissible_z(Fraction(level - 1, 2), m, omega_l, k)
            reference = jacobi_strengths(level, m, omega_l, k)
            assert len(states) == level
            scale = max(1.0, float(np.max(np.abs(reference))))
            error = float(np.max(np.abs([s.z for s in states] - reference)))
            worst = max(worst, error / scale)
        assert worst <= 1e-13

    def test_no_characteristic_polynomial_and_no_polish(self, empty_slots,
                                                         monkeypatch):
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        counted(np, "poly")
        counted(_polyops, "newton_polish")
        counted(sl2, "characteristic_polynomial")
        for omega_l, k in [(0.7, 1.3), (Fraction(7, 10), Fraction(13, 10))]:
            for level in (1, 6, 13):
                assert len(solve_admissible_z(Fraction(level - 1, 2), -2,
                                              omega_l, k)) == level
        assert calls == []
