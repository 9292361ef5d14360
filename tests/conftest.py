"""Child processes that the tests start import the package from ./src, as
the tests themselves do, whether or not it is installed.  The
``bisections`` fixture counts the r_max bisections of a test."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def bisections(monkeypatch):
    """The parameter sets whose r_max is bisected, from an empty solve slot
    on: ``model.envelope_r_max`` records each one it is called with."""
    from qeshydro import model, sl2

    monkeypatch.setattr(sl2, "_last_solve", None)
    calls = []
    original = model.envelope_r_max

    def counting(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(model, "envelope_r_max", counting)
    return calls
