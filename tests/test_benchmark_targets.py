"""The benchmark's traced run wraps named attributes of qeshydro's modules.

A refactor that renames or removes one leaves its per-layer metric empty
without failing anything, so check that every target still resolves.
"""

import importlib.util
from pathlib import Path

import pytest

import qeshydro
import qeshydro.cli  # noqa: F401  (the traced run loads it too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    if not TRACING.exists():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_layer_resolves():
    missing = [f"{mod}.{attr}" for mod, attr in _targets()
               if not callable(getattr(getattr(qeshydro, mod, None), attr, None))]
    assert missing == []
    # Wrapped through the class dict, so it must stay a classmethod there.
    assert isinstance(vars(qeshydro.model.RadialGrid)["for_params"], classmethod)
