"""The coupling contract: every input either returns, raises a plain
ValueError or DomainError from the library, or ends the CLI with a contract
exit code."""

import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qeshydro import DomainError, ModelParams, level_energy, sl2  # noqa: E402
from qeshydro.cli import main  # noqa: E402

# Log-spread over [1e-320, 1e305], plus the values at the edges of the
# contract: non-finite, zero, negative and the smallest subnormal.
COUPLINGS = st.one_of(
    st.floats(min_value=-320.0, max_value=305.0).map(lambda e: 10.0 ** e),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]),
)
M = st.integers(min_value=-6, max_value=6)
LEVEL = st.integers(min_value=1, max_value=3)

# Inputs that once escaped as OverflowError, ZeroDivisionError or LinAlgError.
ESCAPED = [(1e-300, 1.0), (5.176531334526888e-168, 2.929728569993774e-169),
           (4.667517257840995e-264, 2.5064069623888337e+113)]


def with_escaped(test):
    for omega_l, k in ESCAPED:
        test = example(omega_l=omega_l, k=k, m=0, level=2)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=300)
@given(omega_l=COUPLINGS, k=COUPLINGS, m=M, level=LEVEL)
@with_escaped
def test_library_returns_or_raises_value_error(omega_l, k, m, level):
    calls = (
        lambda: sl2.solve_admissible_z(0.5 * (level - 1), m, omega_l, k),
        lambda: level_energy(level, m, omega_l, k),
        lambda: ModelParams(omega_l, k, m),
    )
    for call in calls:
        try:
            call()
        except ValueError as exc:
            # Exactly these two: numpy's LinAlgError is a ValueError too.
            assert type(exc) in (ValueError, DomainError), repr(exc)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(omega_l=COUPLINGS, k=COUPLINGS, m=M, level=LEVEL)
@with_escaped
def test_cli_ends_with_a_contract_exit_code(omega_l, k, m, level):
    argv = ["solve", f"--omega-l={omega_l!r}", f"--k={k!r}", f"--m={m}",
            f"--level={level}"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
