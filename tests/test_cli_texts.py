"""Help, usage and error texts of the command line, byte for byte.

Each command's options are added to its parser only when that command
runs, so these texts must stay those of a parser that holds every
command's options.  ``golden/cli_texts.json`` holds, for each case, the
exit code, stdout and stderr of ``main``, recorded with COLUMNS=80 from a
version that built every command's options up front; ``scan_help`` and
``scan_ambiguous_option`` were recorded again when ``scan`` stopped
listing ``--omega-l`` and ``--k``, which it refuses.  Record missing cases
with

    PYTHONPATH=src python tests/test_cli_texts.py

which adds only the cases the file lacks; never re-record it to make a
change pass.  The texts are argparse's, so another Python version may
word them differently.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from qeshydro.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden" / "cli_texts.json"

CASES = {
    "help": ["--help"],
    "no_command": [],
    "unknown_command": ["frobnicate"],
    **{f"{cmd}_help": [cmd, "--help"] for cmd in _COMMANDS},
    **{f"{cmd}_unknown_option": [cmd, "--bogus", "1"] for cmd in _COMMANDS},
    "scan_ambiguous_option": ["scan", "--omega", "1"],
    "solve_bad_value": ["solve", "--tol", "nan"],
    "export_bad_type": ["export", "--m", "x"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", list(CASES))
def test_text_is_unchanged(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    recorded = (json.loads(GOLDEN.read_text(encoding="utf-8"))
                if GOLDEN.exists() else {})
    for name, argv in CASES.items():
        if name in recorded:
            print(f"{name}: kept")
            continue
        recorded[name] = run(argv)
        print(f"{name}: written, exit {recorded[name]['exit']}")
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
