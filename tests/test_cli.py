import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qeshydro import sl2, verify_state
from qeshydro.cli import main, solution_from_json


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_level_two_json(self, capsys):
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        zs = [s["z"] for s in payload["states"]]
        root = math.sqrt(3) / 2
        assert zs[0] == pytest.approx(1 - root, rel=1e-12)
        assert zs[1] == pytest.approx(1 + root, rel=1e-12)
        assert all(s["energy"] == pytest.approx(1.5) for s in payload["states"])
        assert any("cross-validation passed" in d for d in payload["diagnostics"])

    def test_level_zero_is_domain_error(self, capsys):
        code, _, err = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "0"],
            capsys)
        assert code == 3
        assert "ground state" in err

    def test_zero_omega_is_usage_error(self, capsys):
        code, _, err = run_main(
            ["solve", "--omega-l", "0", "--k", "1", "--m", "0", "--level", "1"],
            capsys)
        assert code == 2

    @pytest.mark.parametrize("omega_l,k,name", [("1", "nan", "k"),
                                                ("1", "inf", "k"),
                                                ("inf", "1", "omega_l")])
    def test_non_finite_coupling_is_usage_error(self, omega_l, k, name, capsys):
        code, _, err = run_main(
            ["solve", "--omega-l", omega_l, "--k", k, "--m", "0", "--level", "2"],
            capsys)
        assert code == 2
        assert f"{name} must be finite" in err
        assert "Array must not contain" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--omega-l", "1e-300", "--k", "1", "--m", "0", "--level", "2"],
        ["solve", "--omega-l", "1e-160", "--k", "1", "--m", "0", "--level", "1"],
        ["solve", "--omega-l", "1e-300", "--k", "0", "--m", "0", "--level", "2"],
        ["scan", "--omega-l-list", "1e-300,1", "--k-list", "1", "--m", "0",
         "--level", "2"],
    ])
    def test_tiny_omega_is_domain_error(self, argv, capsys):
        code, out, err = run_main(argv, capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "omega-l" in err

    def test_level_and_j_conflict(self, capsys):
        code, _, err = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "1",
             "--j", "0"], capsys)
        assert code == 2

    def test_j_flag(self, capsys):
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--j", "0.5"],
            capsys)
        assert code == 0
        assert len(json.loads(out)["states"]) == 2

    def test_csv_has_header(self, capsys):
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "1",
             "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("omega_l,k,m,level,j,root_index,z,energy")


class TestNegativeZeroK:
    """k = -0.0 is read as 0.0, so no sign of a zero reaches the output."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_solve_prints_what_k_zero_prints(self, fmt, capsys):
        base = ["solve", "--omega-l", "1", "--m", "0", "--level", "2",
                "--format", fmt]
        negative = run_main(base + ["--k", "-0.0"], capsys)
        assert negative == run_main(base + ["--k", "0"], capsys)
        assert negative[0] == 0 and "-0.0" not in negative[1]

    def test_scan_prints_what_k_zero_prints(self, capsys):
        base = ["scan", "--omega-l-list", "1", "--m-list", "0",
                "--level-list", "2"]
        negative = run_main(base + ["--k-list=-0.0,1"], capsys)
        assert negative == run_main(base + ["--k-list=0,1"], capsys)
        assert negative[0] == 0 and "-0.0" not in negative[1]

    def test_config_file_k(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("omega_l = 1\nk = -0.0\nm = 0\nlevel = 2\n")
        from_file = run_main(["solve", "--config", str(config)], capsys)
        assert from_file == run_main(
            ["solve", "--omega-l", "1", "--k", "0", "--m", "0", "--level", "2"],
            capsys)

    def test_malformed_k_message(self, capsys):
        code, _, err = run_main(
            ["solve", "--omega-l", "1", "--k", "abc", "--m", "0", "--level", "2"],
            capsys)
        assert code == 2
        assert "argument --k: invalid float value: 'abc'" in err


class TestScan:
    def test_three_by_three_level_one(self, capsys):
        code, out, _ = run_main(
            ["scan", "--omega-l-list", "0.5,1,2", "--k-list", "0,1,2",
             "--m", "0", "--level", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:5] == ["omega_l", "k", "m", "level",
                                           "root_index"]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        for row in rows:
            omega, k = float(row[0]), float(row[1])
            z = float(row[5])
            assert z == pytest.approx(0.5 * k / omega, abs=1e-14)

    def test_zero_slope_symmetric_pair(self, capsys):
        code, out, _ = run_main(
            ["scan", "--omega-l-list", "1,2", "--k-list", "0", "--m", "0",
             "--level", "2"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_omega = {}
        for row in rows:
            by_omega.setdefault(float(row[0]), []).append(float(row[5]))
        for omega, zs in by_omega.items():
            expected = math.sqrt(omega / 2)
            assert zs[0] == pytest.approx(-expected, rel=1e-12)
            assert zs[1] == pytest.approx(expected, rel=1e-12)

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_main(
            ["scan", "--omega-l-list", "", "--k-list", "1", "--m", "0",
             "--level", "1"], capsys)
        assert code == 2

    def test_negative_m_list_equals_form(self, capsys):
        code, out, _ = run_main(
            ["scan", "--omega-l-list", "1", "--k-list", "1", "--m-list=-2,-1",
             "--level", "1"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[2]) for r in rows] == [-2, -1]

    def test_deterministic_row_order(self, capsys):
        args = ["scan", "--omega-l-list", "2,1", "--k-list", "1,0", "--m", "0",
                "--level", "1"]
        _, first, _ = run_main(args, capsys)
        _, second, _ = run_main(args, capsys)
        assert first == second
        rows = [line.split(",") for line in first.strip().splitlines()[1:]]
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)


class TestMapSextic:
    def test_level_one_coefficients(self, capsys):
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "1"], capsys)
        assert code == 0
        state = json.loads(out)["states"][0]
        assert state["eigenvalue"] == pytest.approx(2.0)
        coeffs = state["coefficients"]
        assert coeffs["centrifugal"] == pytest.approx(-0.125)
        assert coeffs["rho2"] == pytest.approx(-2.0)
        assert coeffs["rho4"] == pytest.approx(4.0)
        assert coeffs["rho6"] == pytest.approx(2.0)
        assert state["sextic_residual"] < 1e-5

    def test_zero_slope_quartic_vanishes(self, capsys):
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "0", "--m", "0",
             "--level", "1"], capsys)
        assert json.loads(out)["states"][0]["coefficients"]["rho4"] == 0.0

    def test_sample_rows(self, capsys):
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "1", "--sample-points", "100"], capsys)
        samples = json.loads(out)["states"][0]["samples"]
        assert len(samples) == 100
        assert all(len(pair) == 2 for pair in samples)

    def test_csv_sample_table_appended(self, capsys):
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "1", "--format", "csv", "--sample-points", "10"],
            capsys)
        assert code == 0
        tables = out.split("\n\n")
        assert len(tables) == 2
        sample_lines = tables[1].strip().splitlines()
        assert sample_lines[0] == "root_index,rho,zeta"
        assert len(sample_lines) == 11


class TestVerifyCommand:
    def test_passes_at_unit_couplings(self, capsys):
        code, out, _ = run_main(
            ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["cross_validation"]["passed"] is True


class TestExport:
    def test_default_sample_count(self, capsys):
        code, out, _ = run_main(
            ["export", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "1"],
            capsys)
        assert code == 0
        samples = json.loads(out)["states"][0]["samples"]
        assert len(samples) == 100

    def test_csv_long_format(self, capsys):
        code, out, _ = run_main(
            ["export", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "1",
             "--format", "csv", "--sample-points", "7"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "root_index,r,radial_value"
        assert len(lines) == 8


class TestVerificationExit:
    @pytest.mark.parametrize("command", ["solve", "map-sextic", "export"])
    def test_failed_cross_validation_exits_4(self, command, capsys):
        code, out, _ = run_main(
            [command, "--omega-l", "1e6", "--k", "1", "--m", "0", "--level", "3"],
            capsys)
        assert code == 4
        assert "cross-validation FAILED" in json.loads(out)["diagnostics"]

    def test_series_failure_exits_4_without_traceback(self, capsys):
        code, out, err = run_main(
            ["solve", "--omega-l", "0.2", "--k", "4", "--m", "0", "--level", "13"],
            capsys)
        assert code == 4
        assert err == ""
        diagnostics = json.loads(out)["diagnostics"]
        assert any("series failed to terminate" in d for d in diagnostics)

    def test_energy_near_zero_is_not_a_usage_error(self, capsys):
        # The level-2 energy here is about -4e-3, where two energy formulas
        # used to round apart by more than the state's own check allows.
        code, out, err = run_main(
            ["solve", "--omega-l", "1e7", "--k", "63245553209.69215", "--m", "0",
             "--level", "2"], capsys)
        assert code != 2, err
        assert len(json.loads(out)["states"]) == 2


class TestCompleteness:
    def test_incomplete_level_exits_4(self, capsys):
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "200"],
            capsys)
        assert code == 4
        payload = json.loads(out)
        assert len(payload["states"]) == 136
        assert "incomplete level: 136 of 200 strengths" in payload["diagnostics"]

    def test_verify_fails_an_incomplete_level(self, capsys):
        code, out, _ = run_main(
            ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "76"],
            capsys)
        payload = json.loads(out)
        assert code == 4 and payload["passed"] is False
        assert "incomplete level: 74 of 76 strengths" in payload["diagnostics"]

    def test_scan_with_an_incomplete_set_exits_4(self, capsys):
        code, out, err = run_main(
            ["scan", "--omega-l-list", "1", "--k-list", "1", "--m", "0",
             "--level-list", "2,76"], capsys)
        assert code == 4
        assert len(out.strip().splitlines()) == 1 + 2 + 74
        assert err == ("error: incomplete level: 74 of 76 strengths at "
                       "omega_l=1.0 k=1.0 m=0 level=76\n")


class TestDiagnostics:
    def test_each_diagnostic_once_without_numpy_reprs(self, capsys):
        # Nine eigenvector-consistency diagnostics come from the algebraic
        # route at this input; their z is a numpy scalar unless converted.
        code, out, _ = run_main(
            ["solve", "--omega-l", "0.22317077664872895", "--k",
             "2.9363511648986176", "--m", "-4", "--level", "12"], capsys)
        assert code in (0, 4)
        diagnostics = json.loads(out)["diagnostics"]
        assert sum("consistency defect" in d for d in diagnostics) == 9
        assert not any("np.float64" in d for d in diagnostics)
        assert len(diagnostics) == len(set(diagnostics))


class TestSolvesOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        original = sl2.solve_admissible_z

        def counting(*args, **kwargs):
            counter.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sl2, "solve_admissible_z", counting)
        return counter

    def test_solve_runs_the_algebraic_route_once(self, calls, capsys):
        code, _, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "3"],
            capsys)
        assert code == 0
        assert len(calls) == 1

    def test_scan_runs_it_once_per_parameter_set(self, calls, capsys):
        code, _, _ = run_main(
            ["scan", "--omega-l-list", "1,2", "--k-list", "0,1", "--m", "0",
             "--level", "2"], capsys)
        assert code == 0
        assert len(calls) == 4


class TestDeterminismAndRoundTrip:
    def test_byte_identical_output(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(["solve", "--omega-l", "1", "--k", "1", "--m", "0",
                         "--level", "3", "--out", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_round_trip_reverifies(self, tmp_path):
        out = tmp_path / "states.json"
        assert main(["solve", "--omega-l", "1", "--k", "1", "--m", "0",
                     "--level", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        _, states = solution_from_json(out.read_text())
        assert states
        for entry, state in zip(payload["states"], states):
            report = verify_state(state)
            assert report.passed
            assert report.max_residual == entry["verification"]["max_residual"]
            assert report.norm_error == entry["verification"]["norm_error"]


class TestConfigFile:
    def test_config_supplies_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# solve configuration\n"
            "omega_l = 1\n"
            "k = 1\n"
            "m = 0\n"
            "level = 2\n"
        )
        code, out, _ = run_main(["solve", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(json.loads(out)["states"]) == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_l = 1\nk = 1\nm = 0\nlevel = 2\n")
        code, out, _ = run_main(
            ["solve", "--config", str(cfg), "--level", "1"], capsys)
        assert code == 0
        assert len(json.loads(out)["states"]) == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run_main(["solve", "--config", str(cfg)], capsys)
        assert code == 2

    def test_scan_lists_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "omega_l_list = 1,2\n"
            "k_list = 0,1\n"
            "m = 0\n"
            "level_list = 1\n"
        )
        code, out, _ = run_main(["scan", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + 4 rows


class TestEnvelopeUnderflow:
    @pytest.mark.parametrize("couplings", [["--omega-l", "1e100", "--k", "0", "--m", "3"],
                                           ["--omega-l", "1e305", "--k", "1e-300",
                                            "--m", "-6"]])
    def test_domain_error_with_one_stderr_line(self, couplings):
        # A fresh process, so numpy warnings would reach stderr as they do
        # for a user, not pytest's warning capture.
        proc = subprocess.run(
            [sys.executable, "-m", "qeshydro", "solve", *couplings, "--level", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: the envelope underflows")
        assert "omega-l" in lines[0]
        assert "Warning" not in proc.stderr


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qeshydro", "solve", "--omega-l", "1",
             "--k", "1", "--m", "0", "--level", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["states"][0]["z"] == pytest.approx(0.5)

    def test_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, qeshydro, qeshydro.cli\n"
            "print([n for n in sys.modules if n == 'scipy' or "
            "n.startswith(('scipy.', 'numpy.f2py'))])"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
