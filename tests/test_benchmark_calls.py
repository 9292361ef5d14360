"""The benchmark's own calls into qeshydro, run on a few seed-1 units.

``perfbench/workloads.py`` calls constructors and functions of the package
by name and keyword.  A change of signature there shows up in a timed run
only as a failed unit, so replay a few units of each workload here and
require that none failed on a call the package no longer accepts.
"""

import importlib
import sys
from pathlib import Path

import pytest

import qeshydro
import qeshydro.cli  # noqa: F401  (the cli workload replays cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: Exceptions that mean a call no longer matches the package.
BROKEN_CALL = (TypeError, AttributeError, NameError)


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported as ``tests/fingerprint.py``
    imports it."""
    if not (PERFBENCH / "workloads.py").exists():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _units(workloads, name):
    wl = workloads.WORKLOADS[name](1, str(PERFBENCH.parent))
    return wl, [wl.unit(i) for i in range(wl.prefix_size)]


@pytest.mark.parametrize("name,index", [
    ("sweep", 0), ("sweep", 1), ("sweep", 2),
    ("exact", 0), ("exact", 1), ("exact", 2), ("exact", "highest"),
    ("deep", None), ("deep", "highest")])
def test_in_process_units_make_no_broken_call(workloads, name, index):
    # deep's lowest-level unit (None) keeps Horner's loop; its highest-level
    # unit takes the blocked evaluation of the norm quadrature and the grid.
    # exact's units also hold its gate, charpoly == constraint.monic(), to
    # level 13.
    wl, units = _units(workloads, name)
    if isinstance(index, int):
        unit = units[index]
    else:
        unit = (max if index == "highest" else min)(units, key=lambda u: u.level)
    out = wl.replay(qeshydro, unit)
    broken = [f"{type(e).__name__}: {e}" for e in out.errors
              if isinstance(e, BROKEN_CALL)]
    assert broken == [], unit.describe()
    assert out.states
    if name == "exact":
        assert out.identity is True, unit.describe()


def test_every_cli_command_exits_by_the_contract(workloads):
    wl, units = _units(workloads, "cli")
    commands = {command for command, _ in workloads.CLI_MIX}
    seen = set()
    for unit in units:
        if unit.command in seen:
            continue
        seen.add(unit.command)
        code, _, stderr = wl.replay(qeshydro, unit)
        assert code in workloads.CONTRACT_EXITS, (unit.describe(), stderr)
        assert "Traceback" not in stderr, unit.describe()
    assert seen == commands


def test_every_cli_mix_pair_writes_what_the_workload_reads(workloads):
    """The first seed-1 unit of each ``(command, format)`` pair, graded by
    the workload's own check: an output the benchmark cannot read, or whose
    strengths it does not find, fails here instead of in a timed run."""
    wl, units = _units(workloads, "cli")
    first = {}
    for unit in units:
        first.setdefault((unit.command, unit.fmt), unit)
    assert set(first) == set(workloads.CLI_MIX)
    graded = {pair: wl.check(unit, wl.replay(qeshydro, unit))
              for pair, unit in first.items()}
    wrong = {pair: (first[pair].describe(), t.cause, t.accurate, t.acc_expected)
             for pair, t in graded.items()
             if t.cause is not None or t.accurate != t.acc_expected}
    assert wrong == {}
