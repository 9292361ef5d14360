"""The float matrix build and the one-buffer Horner loop give the same bits
as the code they replace, and the blocked evaluation of 16 or more
coefficients gives the bits of its reference copy and stays within
Horner's error bound.  The norm quadrature's stacked evaluation of a
level's factors gives each factor the bits of ``polyval`` on the nodes, so
that bound holds for it too.

The reference functions are copies of the float build through `Fraction`
rows, whose bits ``QesMatrix.as_array`` must give from the bands, of the
allocating Horner loop and of the blocked evaluation.  Arrays are compared
with ``np.array_equal`` and by their sign bits, so a -0.0 for 0.0 also
fails.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qeshydro import ModelParams, build_qes_matrix, solve_admissible_z
from qeshydro._polyops import polyval
from qeshydro.model import _node_values, _set_constants
from oracles import band_rows

HALF = Fraction(1, 2)


def ref_build_float(j, m, omega, k):
    omega, k = float(omega), float(k)
    jf = Fraction(j)
    dim = int(2 * jf) + 1
    am = abs(m)
    rows = [[0.0 for _ in range(dim)] for _ in range(dim)]
    for n in range(dim):
        rows[n][n] = (k / omega) * (n + am + HALF)
        if n >= 1:
            rows[n - 1][n] = -(n * (am + Fraction(n, 2)))
        if n + 1 < dim:
            rows[n + 1][n] = -omega * (2 * jf - n)
    return np.array([[float(e) for e in row] for row in rows])


def ref_polyval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ref_blocks(coeffs, x):
    """The blocked evaluation: one product of the 16-coefficient blocks
    with the rows x**0 .. x**15, then Horner's rule in x**16."""
    nb = -(-len(coeffs) // 16)
    blocks = np.zeros(nb * 16)
    blocks[:len(coeffs)] = coeffs
    rows = np.empty((16, x.size))
    rows[0] = 1.0
    rows[1] = x
    for i in range(2, 16):
        rows[i] = rows[i - 1] * x
    q = blocks.reshape(nb, 16) @ rows
    step = rows[15] * x
    acc = q[nb - 1]
    for b in range(nb - 2, -1, -1):
        acc = acc * step + q[b]
    return acc


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def float_cases(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        level = 1 + (i * 199) // (count - 1) if i % 3 else rng.randint(1, 200)
        omega = 10 ** rng.uniform(-3, 3)
        k = (0.0, -0.0)[i % 2] if i % 5 == 0 else 10 ** rng.uniform(-3, 3)
        yield level, rng.randint(-6, 6), omega, k


class TestFloatBuild:
    @pytest.mark.parametrize("level,m,omega,k", list(float_cases(40, 14)))
    def test_same_bits_as_fraction_rows(self, level, m, omega, k):
        j = Fraction(level - 1, 2)
        mat = build_qes_matrix(j, m, omega, k)
        assert not mat.exact
        assert all(type(band) is np.ndarray for band in mat.bands)
        assert same_bits(mat.as_array(), ref_build_float(j, m, omega, k))

    def test_exact_as_array_same_bits(self):
        for level, m, omega, k in [(1, 0, 1, 0), (7, -3, Fraction(7, 3), 5),
                                   (13, 4, Fraction(1, 9), Fraction(2, 7))]:
            mat = build_qes_matrix(Fraction(level - 1, 2), m, omega, k)
            ref = np.array([[float(e) for e in row] for row in band_rows(mat.bands)])
            assert same_bits(mat.as_array(), ref)


def exact_error_and_bound(coeffs, points):
    """For each (x, computed value) in ``points``: the error |p^(x) - p(x)|
    and Horner's a-priori bound 2 D eps sum |a_i| |x|**i, both exact.

    Every double is an integer over a power of two, so p(x) and the bound's
    sum are integers over one common power of two."""
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    degree = len(coeffs) - 1
    eps = Fraction(np.finfo(float).eps)
    errors, bounds = [], []
    for x, got in points:
        num, den = x.as_integer_ratio()
        shifts = [(d * den ** i).bit_length() - 1 for i, (_, d) in enumerate(ratios)]
        top = max(shifts)
        value = majorant = 0
        power = 1
        for (n, _), shift in zip(ratios, shifts):
            term = n * power << (top - shift)
            value += term
            majorant += abs(term)
            power *= num
        errors.append(abs(Fraction(got) - Fraction(value, 1 << top)))
        bounds.append(2 * degree * eps * Fraction(majorant, 1 << top))
    return errors, bounds


class TestPolyval:
    def test_float_arrays_match_the_allocating_loop(self):
        # Below 16 coefficients: Horner's loop, bit for bit.
        rng = np.random.default_rng(14)
        x = np.linspace(-3.0, 25.0, 4096)
        for degree in (7, 13, 14):
            coeffs = tuple(float(c) for c in rng.normal(size=degree + 1))
            assert same_bits(polyval(coeffs, x), ref_polyval(coeffs, x))
            as_numpy = tuple(rng.normal(size=degree + 1))   # np.float64
            assert same_bits(polyval(as_numpy, x), ref_polyval(as_numpy, x))

    def test_float_arrays_match_the_blocked_reference(self):
        # From 16 coefficients on a 1-D array: the blocked evaluation.
        rng = np.random.default_rng(14)
        x = np.linspace(-3.0, 25.0, 4096)
        for degree in (15, 16, 40, 100, 200):
            coeffs = tuple(float(c) for c in rng.normal(size=degree + 1))
            assert same_bits(polyval(coeffs, x), ref_blocks(coeffs, x))
            as_numpy = tuple(rng.normal(size=degree + 1))   # np.float64
            assert same_bits(polyval(as_numpy, x), ref_blocks(as_numpy, x))
            assert same_bits(polyval(coeffs, x[:16]), ref_blocks(coeffs, x[:16]))

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 31, 32, 33, 100, 201])
    def test_within_horners_error_bound(self, count):
        # Exactly 16 coefficients is one block: Horner's rule in x**16 must
        # not add it twice.
        rng = np.random.default_rng(count)
        x = np.linspace(-3.0, 25.0, 4096)
        picked = list(range(0, x.size, 97)) + [x.size - 1]
        families = [tuple(float(c) for c in rng.normal(size=count)),
                    # (x - 2)**D, rounded: cancels near x = 2.
                    tuple(float(math.comb(count - 1, i) * (-2.0) ** (count - 1 - i))
                          for i in range(count))]
        for coeffs in families:
            values = polyval(coeffs, x)
            errors, bounds = exact_error_and_bound(
                coeffs, [(float(x[i]), float(values[i])) for i in picked])
            assert all(e <= b for e, b in zip(errors, bounds))

    def test_two_dimensional_and_overflowing_points(self):
        x = np.array([[0.0, -0.0, 1e300], [np.inf, -np.inf, np.nan]])
        coeffs = (1.0, -2.0, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(polyval(coeffs, x), ref_polyval(coeffs, x))

    def test_input_is_not_written(self):
        x = np.linspace(0.0, 1.0, 9)
        before = x.copy()
        polyval((1.0, 2.0, 3.0), x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("coeffs,x", [
        ((HALF, Fraction(1, 3)), Fraction(2)),
        ((HALF, Fraction(1, 3)), np.array([1.0, 2.0])),
        ((0.5, 1.5), 2.0),
        ((0.5, 1.5), 2),
        ((0.5, 1.5), np.float64(2.0)),
        ((0.5, 1.5), np.array(2.0)),
        ((1, 2), np.array([1.0, 2.0])),
        ((0.5, 1.5), np.array([1.0, 2.0], dtype=np.float32)),
        ((), np.array([1.0, -1.0])),
    ])
    def test_other_inputs_keep_type_and_value(self, coeffs, x):
        got, want = polyval(coeffs, x), ref_polyval(coeffs, x)
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            assert list(got.ravel()) == list(want.ravel())
        else:
            assert got == want


class TestNormNodeValues:
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("level", [16, 17, 40, 100, 200])
    def test_each_row_is_polyval_on_the_nodes(self, level, m):
        states = solve_admissible_z((level - 1) / 2, m, 1.1, 1.7)
        assert len(states) > 1
        _, _, nodes, _, powers = _set_constants(states[0].params)[1]
        polys = [s.poly for s in states]
        values, rows = _node_values(polys, nodes, powers)
        assert same_bits(rows, np.broadcast_to(nodes, values.shape).copy())
        for row, poly in zip(values, polys):
            assert same_bits(row, polyval(poly, nodes))
            assert same_bits(row, ref_blocks(poly, nodes))

    def test_factors_of_mixed_lengths(self):
        # Each count of blocks is its own stack, and the short factors keep
        # Horner's loop, in the order given.
        rng = np.random.default_rng(30)
        polys = [tuple(float(c) for c in rng.normal(size=n))
                 for n in (40, 3, 16, 33, 15, 17, 48, 1, 40)]
        _, _, nodes, _, powers = _set_constants(ModelParams(0.8, 2.0, -1))[1]
        values, _ = _node_values(polys, nodes, powers)
        for row, poly in zip(values, polys):
            assert same_bits(row, polyval(poly, nodes))
