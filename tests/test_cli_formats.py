"""JSON and CSV agree: every CSV cell a command writes is the repr of the
value its JSON output holds for the same state, on seeded parameter sets."""

import json
import random

import pytest

from qeshydro.cli import main


def _sets():
    """20 seeded (omega_l, k, m, level, sample points) sets covering levels
    1-14, m in -4..4, omega_l in [0.2, 5] and k in [0, 4]; every other one
    without --sample-points."""
    rng = random.Random(28)
    return [(repr(0.2 * 25.0 ** rng.random()), repr(4.0 * rng.random()),
             str(rng.randint(-4, 4)), str(1 + i % 14),
             str(rng.randint(2, 12)) if i % 2 else None) for i in range(20)]


SETS = _sets()
IDS = [" ".join(filter(None, s)) for s in SETS]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 4), captured.err
    return code, captured.out


def _tables(text):
    """The CSV tables of ``text``, each a list of {column: cell} rows."""
    tables = []
    for block in text.rstrip("\n").split("\n\n"):
        header, *lines = block.split("\n")
        names = header.split(",")
        assert all(line.count(",") == len(names) - 1 for line in lines)
        tables.append([dict(zip(names, line.split(","))) for line in lines])
    return tables


def _outputs(capsys, command, argv):
    """(JSON payload, CSV tables) of ``command`` on ``argv``, which exit alike."""
    code, text = _run(capsys, [command, *argv, "--format", "json"])
    csv_code, csv_text = _run(capsys, [command, *argv, "--format", "csv"])
    assert csv_code == code
    return json.loads(text), _tables(csv_text)


def _json_value(payload, index, column):
    """The JSON value of state ``index`` that the CSV column ``column``
    shows."""
    if column == "root_index":
        return index
    entry = payload["states"][index]
    for place in (entry, entry["verification"], entry.get("coefficients", {}),
                  payload["parameters"]):
        if column in place:
            return place[column]
    raise KeyError(column)


def _sample_cells(payload, names):
    return [{"root_index": repr(index), names[0]: repr(a), names[1]: repr(b)}
            for index, entry in enumerate(payload["states"])
            for a, b in entry["samples"]]


@pytest.mark.parametrize("omega_l,k,m,level,samples", SETS, ids=IDS)
def test_every_csv_cell_is_the_json_value(omega_l, k, m, level, samples, capsys):
    argv = ["--omega-l", omega_l, "--k", k, "--m", m, "--level", level]
    if samples:
        argv += ["--sample-points", samples]
    for command in ("solve", "map-sextic", "export"):
        payload, tables = _outputs(capsys, command, argv)
        states = payload["states"]
        if command == "export":
            assert tables == [_sample_cells(payload, ("r", "radial_value"))]
            continue
        rows = tables[0]
        assert len(rows) == len(states)
        for index, row in enumerate(rows):
            assert row == {column: repr(_json_value(payload, index, column))
                           for column in row}, (command, index)
        if command == "map-sextic" and samples and states:
            assert tables[1:] == [_sample_cells(payload, ("rho", "zeta"))]
        else:
            assert tables[1:] == []


@pytest.mark.parametrize("omega_l,k,m,level,samples", SETS, ids=IDS)
def test_scan_csv_rows_are_its_json_rows(omega_l, k, m, level, samples, capsys):
    scan = ["--omega-l-list", omega_l, "--k-list", k, "--m-list", m,
            "--level-list", level]
    payload, tables = _outputs(capsys, "scan", scan)
    assert len(tables) == 1
    assert tables[0] == [{column: repr(value) for column, value in row.items()}
                         for row in payload["rows"]]
    assert len(payload["rows"]) > 0
