"""Golden CLI outputs: stdout bytes and exit codes of fixed commands.

Refactors that keep the numerics must leave these byte-identical.  Record
new cases before such a change with

    PYTHONPATH=src python tests/test_golden.py

which writes the files of cases that have none and only reports the ones
that exist; never regenerate them to make a refactor pass.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qeshydro.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, argv, expected exit code)
CASES = [
    ("solve_l1_json",
     ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "1"], 0),
    ("solve_l3_csv",
     ["solve", "--omega-l", "0.5", "--k", "2", "--m", "-2", "--level", "3",
      "--format", "csv"], 0),
    ("solve_l6_json",
     ["solve", "--omega-l", "2", "--k", "0.25", "--m", "1", "--level", "6"], 0),
    ("scan_csv",
     ["scan", "--omega-l-list", "0.5,1,2", "--k-list", "0,1", "--m-list=-1,0,1",
      "--level-list", "1,2"], 0),
    ("scan_json",
     ["scan", "--omega-l-list", "1", "--k-list", "0.5", "--m", "2",
      "--level-list", "3,4", "--format", "json"], 0),
    ("verify_l2_pass",
     ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2"], 0),
    ("verify_l5_fail",
     ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "5"], 4),
    ("map_sextic_l2_json",
     ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2",
      "--sample-points", "5"], 0),
    ("map_sextic_l3_csv",
     ["map-sextic", "--omega-l", "1.5", "--k", "0.5", "--m", "1", "--level", "3",
      "--format", "csv", "--sample-points", "4"], 0),
    ("export_l2_csv",
     ["export", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2",
      "--format", "csv", "--sample-points", "10"], 0),
    ("export_l4_json",
     ["export", "--omega-l", "0.75", "--k", "1", "--m", "3", "--level", "4",
      "--sample-points", "6"], 0),
    ("solve_config_csv",
     ["solve", "--config", str(GOLDEN / "solve_config.cfg")], 0),
    ("solve_l14_json",
     ["solve", "--omega-l", "0.7", "--k", "0.3", "--m", "2", "--level", "14"], 0),
    ("map_sextic_l2_csv",
     ["map-sextic", "--omega-l", "1", "--k", "0.5", "--m", "-1", "--level", "2",
      "--format", "csv"], 0),
    ("scan_m_list_json",
     ["scan", "--omega-l-list", "1,0.5", "--k-list", "1", "--m-list=-2,1",
      "--level", "2", "--format", "json"], 0),
    # 20 coefficients: the blocked evaluation, whose last bits follow the
    # BLAS kernel (see the _polyops docstring).
    ("verify_l20_fail",
     ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "20"], 4),
    # map-sextic JSON without samples; export JSON at its default 100 radii.
    ("map_sextic_l3_json",
     ["map-sextic", "--omega-l", "0.8", "--k", "1.5", "--m", "2", "--level", "3"], 0),
    ("export_l1_json",
     ["export", "--omega-l", "1", "--k", "0.5", "--m", "-1", "--level", "1"], 0),
]


# Goldens whose last digits follow the OpenBLAS kernel that numpy picks for
# the CPU.  Not skipped and given no tolerance: a failure says so instead.
KERNEL_BOUND = {"verify_l5_fail", "solve_l14_json", "verify_l20_fail"}


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, got_out = run_cli(argv)
    note = (f"the golden {name} follows the OpenBLAS kernel numpy picks for "
            "the CPU (see the FOUND line on OPENBLAS_CORETYPE in CHANGES.md): "
            "on another kernel it can differ with no change to the program"
            if name in KERNEL_BOUND else "")
    assert got_code == code, note
    assert got_out == (GOLDEN / f"{name}.out").read_bytes(), note


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        path = GOLDEN / f"{name}.out"
        if path.exists():
            print(f"{name}: kept, {path.stat().st_size} bytes")
            continue
        got_code, got_out = run_cli(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        path.write_bytes(got_out)
        print(f"{name}: written, {len(got_out)} bytes, exit {got_code}")
