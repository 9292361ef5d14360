"""The benchmark's own calls into qeshydro, run on a few seed-1 units.

``perfbench/workloads.py`` calls constructors and functions of the package
by name and keyword.  A change of signature there shows up in a timed run
only as a failed unit, so replay a few units of each workload here and
require that none failed on a call the package no longer accepts.  The
values the workloads time but discard are checked where a wrong one could
pass unnoticed: the sextic map's residual of every ``sweep`` state.  The
traced run's per-layer figures read the size of what the two solvers
return, so a replay under ``perfbench/tracing.py`` checks that they still
return lists.
"""

import importlib
import sys
from pathlib import Path

import pytest

import qeshydro
import qeshydro.cli  # noqa: F401  (the cli workload replays cli.main)
from qeshydro.sextic import MAX_SEXTIC_RESIDUAL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: Exceptions that mean a call no longer matches the package.
BROKEN_CALL = (TypeError, AttributeError, NameError)


def _perfbench_module(name):
    """``perfbench/<name>.py``, imported as ``tests/fingerprint.py`` imports
    it."""
    if not (PERFBENCH / f"{name}.py").exists():
        pytest.skip(f"perfbench/{name}.py is not in this checkout")
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


def _units(workloads, name):
    wl = workloads.WORKLOADS[name](1, str(PERFBENCH.parent))
    return wl, [wl.unit(i) for i in range(wl.prefix_size)]


@pytest.mark.parametrize("name,index", [
    ("sweep", 0), ("sweep", 1), ("sweep", 2),
    ("exact", 0), ("exact", 1), ("exact", 2), ("exact", "highest"),
    ("deep", None), ("deep", "highest")])
def test_in_process_units_make_no_broken_call(workloads, monkeypatch, name, index):
    # deep's lowest-level unit (None) keeps Horner's loop; its highest-level
    # unit takes the blocked evaluation of the norm quadrature and the grid.
    # exact's units also hold its gate, charpoly == constraint.monic(), to
    # level 13, and sweep's the sextic map of every state.
    wl, units = _units(workloads, name)
    if isinstance(index, int):
        unit = units[index]
    else:
        unit = (max if index == "highest" else min)(units, key=lambda u: u.level)
    residuals = recorded_sextic_residuals(monkeypatch)
    out = wl.replay(qeshydro, unit)
    broken = [f"{type(e).__name__}: {e}" for e in out.errors
              if isinstance(e, BROKEN_CALL)]
    assert broken == [], unit.describe()
    assert out.states
    if name == "exact":
        assert out.identity is True, unit.describe()
    if name == "sweep":
        assert len(residuals) == len(out.states), unit.describe()
        assert max(residuals) <= MAX_SEXTIC_RESIDUAL, unit.describe()


def recorded_sextic_residuals(monkeypatch) -> list:
    """The values ``qeshydro.sextic_residual`` returns to the workload,
    which discards them, in call order."""
    values, original = [], qeshydro.sextic_residual

    def recording(*args, **kwargs):
        values.append(original(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(qeshydro, "sextic_residual", recording)
    return values


def test_every_sweep_prefix_state_maps_exactly(workloads, monkeypatch):
    """Every state of the seed-1 ``sweep`` prefix reads at most
    MAX_SEXTIC_RESIDUAL, so a wrong term in the map's identity cannot pass
    a replay that only times it."""
    wl, units = _units(workloads, "sweep")
    residuals = recorded_sextic_residuals(monkeypatch)
    over = []
    for unit in units:
        residuals.clear()
        out = wl.replay(qeshydro, unit)
        assert len(residuals) == len(out.states), unit.describe()
        over += [(unit.describe(), r) for r in residuals if not r <= MAX_SEXTIC_RESIDUAL]
    assert over == []


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


@pytest.mark.parametrize("name", ["sweep", "exact"])
def test_traced_solves_carry_their_size(workloads, name):
    """The first seed-1 unit under the benchmark's tracer: every span of the
    two solvers records the number of states returned, and the series
    route's found ratio, which reads those sizes, is above 0."""
    tracing = _perfbench_module("tracing")
    wl, units = _units(workloads, name)
    tracer = tracing.Tracer()
    assert tracer.install(qeshydro) == []
    try:
        tracer.unit = 0
        out = wl.replay(qeshydro, units[0])
    finally:
        tracer.uninstall()
    assert out.errors == [], units[0].describe()
    spans = {"sl2.solve_admissible_z": [], "series.solve_series_states": []}
    for span in tracer.spans:
        if span[tracing.NAME] in spans:
            spans[span[tracing.NAME]].append(span[tracing.SIZE])
    assert spans["sl2.solve_admissible_z"] == [len(out.states)] * 2
    assert spans["series.solve_series_states"] == [len(out.states)]
    metrics, _ = tracing.layer_metrics(tracer, [1.0])
    assert metrics["sl2.solve_admissible_z.calls_per_unit"][0] == 2
    assert metrics["series.roots_found_ratio"][0] == len(out.states) / units[0].level[0] > 0
