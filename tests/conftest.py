"""Child processes that the tests start import the package from ./src, as
the tests themselves do, whether or not it is installed.  The
``empty_slots`` fixture empties the package's module-level slots for a
test, and the ``bisections`` fixture counts the r_max bisections of a
test."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def empty_slots(monkeypatch):
    """Every module-level one-entry slot of the package emptied: the solve,
    the parameter set's r_max and norm rule, and the block powers.  A test
    that counts calls then does not depend on what earlier tests left."""
    from qeshydro import _polyops, model, sl2

    for module, name in ((sl2, "_last_solve"), (model, "_last_set"),
                         (_polyops, "_last_powers")):
        monkeypatch.setattr(module, name, None)


@pytest.fixture
def bisections(empty_slots, monkeypatch):
    """The parameter sets whose r_max is bisected, from empty slots on:
    ``model.envelope_r_max`` records each one it is called with."""
    from qeshydro import model

    calls = []
    original = model.envelope_r_max

    def counting(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(model, "envelope_r_max", counting)
    return calls
