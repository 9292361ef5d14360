"""Every strength a command returns with exit 0 is right: ``solve`` and
``scan`` give all ``level`` strengths of a set, and exact Sturm counts
(``oracles.sturm_counts``, no eigensolver) isolate each one within
1e-9 max(1, max |z|).  The couplings are the fuzz's ranges, well past the
desk-scale levels that cross-validation covers."""

import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import isolation_failures  # noqa: E402
from qeshydro import sl2  # noqa: E402
from qeshydro.cli import main  # noqa: E402
from qeshydro.model import Level  # noqa: E402

OMEGA = st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0 ** e)
K = st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=4.0).map(lambda e: 10.0 ** e))

# Dense eig returned 2 of these 32 strengths within the tolerance, with exit 0.
WRONG_AT_DEPTH = dict(omega_l=126.3153605222011, k=0.0, m=-5, level=32)


def check(command, omega_l, k, m, level):
    """Run the command; on exit 0, every strength must be isolated."""
    couplings = ([f"--omega-l-list={omega_l!r}", f"--k-list={k!r}"] if command == "scan"
                 else [f"--omega-l={omega_l!r}", f"--k={k!r}"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, *couplings, f"--m={m}", f"--level={level}",
                     "--format=json"])
    if code != 0:
        return code
    payload = json.loads(out.getvalue())
    strengths = [row["z"] for row in payload["rows" if command == "scan" else "states"]]
    bands = sl2.build_qes_matrix(Fraction(level - 1, 2), m, omega_l, k).bands
    failures = isolation_failures(bands, strengths)
    assert not failures, (command, omega_l, k, m, level, failures[:3])
    return code


@settings(derandomize=True, deadline=None, max_examples=300)
@given(command=st.sampled_from(["solve", "scan"]), omega_l=OMEGA, k=K,
       m=st.integers(min_value=-6, max_value=6),
       level=st.integers(min_value=1, max_value=80))
@example(command="solve", **WRONG_AT_DEPTH)
@example(command="scan", **WRONG_AT_DEPTH)
def test_exit_0_returns_every_strength_isolated(command, omega_l, k, m, level):
    check(command, omega_l, k, m, level)


def test_the_depth_example_exits_0():
    assert check("solve", **WRONG_AT_DEPTH) == 0


def test_a_strength_moved_by_a_millionth_fails(empty_slots, monkeypatch):
    original = sl2._solve

    def moved(*args):
        level = original(*args)
        top = dataclasses.replace(level[-1], z=level[-1].z * (1 + 1e-6))
        return Level([*level[:-1], top], level.notes)

    monkeypatch.setattr(sl2, "_solve", moved)
    with pytest.raises(AssertionError, match="strength 31"):
        check("solve", **WRONG_AT_DEPTH)
