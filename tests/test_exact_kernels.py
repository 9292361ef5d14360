"""The integer kernels of the exact path give the same rationals as the
`Fraction` arithmetic they replace.

The reference functions below are copies of the `Fraction` continuant, the
`Fraction` constraint recurrence and the exact matrix build as they were
before the kernels moved to Python integers over one common denominator;
the continuant and the build read dense rows, here the ``band_rows`` of a
matrix's bands.  Every comparison is ``==``, and every returned coefficient
or band entry must still be a `Fraction`.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qeshydro import (  # noqa: E402
    build_qes_matrix,
    characteristic_polynomial,
    constraint_polynomial,
)
from qeshydro.sl2 import _continuant  # noqa: E402
from oracles import band_rows, qes_matrix_from_generators  # noqa: E402

HALF = Fraction(1, 2)
BIG = 10**6


def ref_characteristic_polynomial(a):
    n = len(a)
    prev, cur = [], [Fraction(1)]
    for i in range(n):
        diag = a[i][i]
        nxt = [Fraction(0)] + cur
        for d, c in enumerate(cur):
            nxt[d] -= diag * c
        if i:
            couple = a[i - 1][i] * a[i][i - 1]
            for d, c in enumerate(prev):
                nxt[d] -= couple * c
        prev, cur = cur, nxt
    return tuple(cur)


def ref_terms(n, m, omega, k, energy):
    am = abs(m)
    e_term = omega * (n + am + m) - k * k / (2 * omega * omega) - energy
    b_term = (am + HALF + n) * (k / omega)
    denom = (n + 1) * (am + HALF * (1 + n))
    return e_term, b_term, denom


def ref_constraint(level, m, omega, k):
    omega, k = Fraction(omega), Fraction(k)
    energy = omega * (level + abs(m) + m) - k * k / (2 * omega * omega)
    a_prev, a_cur = [], [Fraction(1)]
    for n in range(level):
        e_term, b_term, denom = ref_terms(n, m, omega, k, energy)
        width = max(len(a_prev), len(a_cur) + 1)
        nxt = [Fraction(0)] * width
        for i, c in enumerate(a_prev):
            nxt[i] += e_term * c
        for i, c in enumerate(a_cur):
            nxt[i] += b_term * c
            nxt[i + 1] -= c
        nxt = [c / denom for c in nxt]
        a_prev, a_cur = a_cur, nxt
    return tuple(a_cur)


def ref_build(level, m, omega, k):
    omega, k = Fraction(omega), Fraction(k)
    jf = Fraction(level - 1, 2)
    dim = level
    am = abs(m)
    rows = [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
    for n in range(dim):
        rows[n][n] = (k / omega) * (n + am + HALF)
        if n >= 1:
            rows[n - 1][n] = -(n * (am + Fraction(n, 2)))
        if n + 1 < dim:
            rows[n + 1][n] = -omega * (2 * jf - n)
    return rows


def all_fractions(values):
    return all(type(c) is Fraction for c in values)


def rationals(min_numerator):
    return st.builds(Fraction, st.integers(min_numerator, BIG), st.integers(1, BIG))


omegas = st.one_of(st.integers(1, BIG), rationals(1))
ks = st.one_of(st.just(0), st.integers(0, BIG), rationals(0))
ms = st.integers(-6, 6)


class TestConstraintPolynomial:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(level=st.integers(1, 40), m=ms, omega=omegas, k=ks)
    @example(level=1, m=0, omega=1, k=0)
    @example(level=40, m=-6, omega=Fraction(BIG, BIG - 1), k=Fraction(BIG - 1, BIG))
    def test_equals_fraction_recurrence(self, level, m, omega, k):
        coeffs = constraint_polynomial(level, m, omega, k).coeffs
        assert coeffs == ref_constraint(level, m, omega, k)
        assert all_fractions(coeffs)

    def test_float_couplings_keep_floats(self):
        coeffs = constraint_polynomial(5, 2, 1.5, 0.25).coeffs
        assert all(type(c) is float for c in coeffs)


class TestBuildQesMatrix:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(level=st.integers(1, 40), m=ms, omega=omegas, k=ks)
    def test_equals_fraction_build(self, level, m, omega, k):
        mat = build_qes_matrix(Fraction(level - 1, 2), m, omega, k)
        assert mat.exact
        assert all(type(band) is tuple and all_fractions(band) for band in mat.bands)
        assert band_rows(mat.bands) == ref_build(level, m, omega, k)


class TestCharacteristicPolynomial:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(level=st.integers(1, 40), m=ms, omega=omegas, k=ks)
    def test_qes_matrix(self, level, m, omega, k):
        mat = build_qes_matrix(Fraction(level - 1, 2), m, omega, k)
        char = characteristic_polynomial(mat)
        assert char == ref_characteristic_polynomial(band_rows(mat.bands))
        assert all_fractions(char)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(level=st.integers(1, 12), m=ms, omega=omegas, k=ks)
    def test_generator_matrix(self, level, m, omega, k):
        j = Fraction(level - 1, 2)
        char = characteristic_polynomial(build_qes_matrix(j, m, omega, k))
        assert char == ref_characteristic_polynomial(
            qes_matrix_from_generators(j, m, omega, k))
        assert all_fractions(char)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data(), dim=st.integers(1, 12))
    def test_random_rational_tridiagonal(self, data, dim):
        # Zero entries make zero off-diagonal products; signs are free, so
        # products of either sign occur.
        entry = st.one_of(
            st.just(Fraction(0)),
            st.integers(-BIG, BIG),
            st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
        )
        bands = [data.draw(st.lists(entry, min_size=size, max_size=size))
                 for size in (dim, dim - 1, dim - 1)]
        char = _continuant(*bands)
        assert char == ref_characteristic_polynomial(band_rows(bands))
        assert all_fractions(char)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(level=st.integers(1, 40), m=ms, omega=omegas, k=ks)
    def test_equals_monic_constraint(self, level, m, omega, k):
        mat = build_qes_matrix(Fraction(level - 1, 2), m, omega, k)
        assert characteristic_polynomial(mat) == (
            constraint_polynomial(level, m, omega, k).monic())
