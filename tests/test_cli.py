import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qeshydro import (ModelParams, RadialGrid, _polyops, cli, rho_grid_for, sl2,
                      to_sextic, verify_state)
from qeshydro.cli import main, solution_from_json
from qeshydro.model import DomainError, Level
from qeshydro.sextic import MAX_SEXTIC_RESIDUAL


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

    def test_csv_has_header(self, capsys):
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "1",
             "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("omega_l,k,m,level,j,root_index,z,energy")


class TestOptionRanges:
    """Every option's range is checked by its parser, for flags and config
    files alike, and a bad value exits 2 with the option named."""

    @pytest.mark.parametrize("flag,value", [
        ("sample-points", "-1"), ("format", "xml"), ("level", "-3"), ("level", "-1")])
    def test_flag(self, flag, value, capsys):
        level = [] if flag == "level" else ["--level", "90"]
        code, out, err = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", *level,
             f"--{flag}", value], capsys)
        assert code == 2 and out == ""
        assert f"argument --{flag}: " in err
        assert "NaN" not in err

    @pytest.mark.parametrize("key,value", [
        ("sample_points", "-3"), ("format", "xml"), ("level", "-3")])
    def test_config_file(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"omega_l = 1\nk = 1\nm = 0\nlevel = 2\n{key} = {value}\n")
        code, out, err = run_main(["solve", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}:5: ")

    @pytest.mark.parametrize("flag,levels,bad", [
        ("level-list", "-2,3", "-2"), ("level-list", "3,-5", "-5"),
        ("level", "-3", "-3")])
    def test_scan_level_flags(self, flag, levels, bad, capsys):
        code, out, err = run_main(
            ["scan", "--omega-l-list", "1", "--k-list", "1", "--m", "0",
             f"--{flag}", levels], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --{flag}: level must be non-negative, "
                            f"got {bad}\n")

    def test_scan_level_list_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("omega_l_list = 1\nk_list = 1\nm = 0\nlevel_list = -2,3\n")
        code, out, err = run_main(["scan", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg}:4: level must be non-negative, got -2\n")

    def test_scan_level_zero_stays_a_domain_error(self, capsys):
        code, out, err = run_main(
            ["scan", "--omega-l-list", "1", "--k-list", "1", "--m", "0",
             "--level-list", "0,3"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: level 0 is inadmissible")


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [
        ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2"],
        ["scan", "--omega-l-list", "1", "--k-list", "1", "--m", "0",
         "--level", "2"]])
    def test_usage_error_without_traceback(self, command, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_main(command + ["--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1


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

    def test_level_five_unit_couplings_map_exactly(self, capsys):
        # A finite-difference residual reads above 1e-5 here on correct states.
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "5"], capsys)
        assert code == 0
        residuals = [s["sextic_residual"] for s in json.loads(out)["states"]]
        assert len(residuals) == 5
        assert max(residuals) <= MAX_SEXTIC_RESIDUAL

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_wrong_map_exits_4(self, capsys, monkeypatch, fmt):
        # rho6 moved by 1e-6 relative on the third (top) state only.
        mapped = []

        def to_sextic_shifting_the_top(state):
            mapped.append(to_sextic(state))
            if len(mapped) == 3:
                object.__setattr__(mapped[2], "rho6_coeff",
                                   mapped[2].rho6_coeff * (1 + 1e-6))
            return mapped[-1]

        monkeypatch.setattr(cli, "to_sextic", to_sextic_shifting_the_top)
        code, out, err = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "3", "--format", fmt], capsys)
        assert code == 4
        assert err == ""
        if fmt == "json":
            payload = json.loads(out)
            residuals = [s["sextic_residual"] for s in payload["states"]]
            assert max(residuals[:2]) <= MAX_SEXTIC_RESIDUAL < residuals[2]
            assert payload["diagnostics"][-1] == (
                f"sextic map FAILED at root_index 2: residual {residuals[2]!r} "
                f"above {MAX_SEXTIC_RESIDUAL!r}")

    def test_sample_rows(self, capsys):
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "1", "--sample-points", "100"], capsys)
        samples = json.loads(out)["states"][0]["samples"]
        assert len(samples) == 100
        assert all(len(pair) == 2 for pair in samples)

    @pytest.mark.parametrize("points", [0, 50])
    def test_builds_no_rho_grid(self, capsys, monkeypatch, points):
        # The samples need only the ends of rho_grid_for's range, so no
        # DEFAULT_RHO_POINTS-point array is made; both ends are exact.
        params = ModelParams(1.0, 1.0, 0)
        ends = rho_grid_for(params).points[[0, -1]].tolist()
        sizes, geomspace = [], np.geomspace

        def recording(lo, hi, n):
            sizes.append(n)
            return geomspace(lo, hi, n)

        def refuse(cls, *args):
            raise AssertionError(f"RadialGrid.geometric{args}")

        monkeypatch.setattr(np, "geomspace", recording)
        monkeypatch.setattr(RadialGrid, "geometric", classmethod(refuse))
        code, out, _ = run_main(
            ["map-sextic", "--omega-l", "1", "--k", "1", "--m", "0",
             "--level", "3", "--sample-points", str(points)], capsys)
        assert code == 0
        assert sizes == ([points] * 3 if points else [])
        for state in json.loads(out)["states"]:
            rho = [pair[0] for pair in state.get("samples", [])]
            assert len(rho) == points
            if points:
                assert [rho[0], rho[-1]] == ends

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

    def test_zero_sample_points_writes_none(self, tmp_path, capsys):
        args = ["export", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2"]
        code, out, _ = run_main([*args, "--sample-points", "0"], capsys)
        assert code == 0
        assert [s["samples"] for s in json.loads(out)["states"]] == [[], []]
        code, out, _ = run_main([*args, "--sample-points", "0", "--format", "csv"],
                                capsys)
        assert code == 0 and out == "root_index,r,radial_value\n"
        config = tmp_path / "export.cfg"
        config.write_text("sample_points = 0\n")
        code, out, _ = run_main([*args, "--config", str(config)], capsys)
        assert code == 0
        assert [s["samples"] for s in json.loads(out)["states"]] == [[], []]


class TestVerificationExit:
    @pytest.mark.parametrize("command", ["solve", "map-sextic", "export"])
    def test_failed_cross_validation_exits_4(self, command, capsys):
        # The routes' coefficients differ here by 7e-9, above MAX_ROUTE_DELTA.
        code, out, _ = run_main(
            [command, "--omega-l", "0.28", "--k", "2.1", "--m", "-1", "--level", "7"],
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
    """The Jacobi core returns every strength of a level; the CLI still
    counts them, and a level the solver left short exits 4."""

    @pytest.fixture
    def drops_one(self, empty_slots, monkeypatch):
        """The solver with the highest state of every level dropped."""
        original = sl2._solve

        def short(*args):
            level = original(*args)
            return Level(level[:-1], level.notes)

        monkeypatch.setattr(sl2, "_solve", short)

    @pytest.mark.parametrize("level", [200, 100, 76])
    def test_every_strength_comes_back_at_depth(self, level, capsys):
        # Dense eig returned 136, 94 and 74 of these, dropping complex pairs.
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level",
             str(level)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == level
        assert payload["diagnostics"] == [
            "cross-validation skipped: level above the desk-scale cap"]

    def test_incomplete_level_exits_4(self, drops_one, capsys):
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "200"],
            capsys)
        assert code == 4
        payload = json.loads(out)
        assert len(payload["states"]) == 199
        assert "incomplete level: 199 of 200 strengths" in payload["diagnostics"]

    def test_complex_eigenvalues_are_never_strengths(self, capsys):
        # The Jacobi form's eigenvalues are real: all 100 come back, each
        # the solver's, and none is noted as complex.
        code, out, _ = run_main(
            ["solve", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "100"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert not any("complex" in d for d in payload["diagnostics"])
        states = sl2.solve_admissible_z(49.5, 0, 1.0, 1.0)
        assert [s["z"] for s in payload["states"]] == [s.z for s in states]
        assert len(states) == 100

    def test_verify_fails_an_incomplete_level(self, drops_one, capsys):
        code, out, _ = run_main(
            ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "76"],
            capsys)
        payload = json.loads(out)
        assert code == 4 and payload["passed"] is False
        assert "incomplete level: 75 of 76 strengths" in payload["diagnostics"]

    def test_scan_with_an_incomplete_set_exits_4(self, drops_one, capsys):
        code, out, err = run_main(
            ["scan", "--omega-l-list", "1", "--k-list", "1", "--m", "0",
             "--level-list", "2,76"], capsys)
        assert code == 4
        assert len(out.strip().splitlines()) == 1 + 1 + 75
        assert err == ("error: incomplete level: 1 of 2 strengths at "
                       "omega_l=1.0 k=1.0 m=0 level=2\n"
                       "error: incomplete level: 75 of 76 strengths at "
                       "omega_l=1.0 k=1.0 m=0 level=76\n")


class TestRemovedTol:
    """The one tolerance knob is gone: each check has its own fixed bound."""

    @pytest.mark.parametrize("command", ["solve", "scan", "verify", "map-sextic",
                                         "export"])
    def test_flag_is_unrecognized(self, command, capsys):
        code, out, err = run_main(
            [command, "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2",
             "--tol", "1e-9"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --tol 1e-9\n")

    def test_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_l = 1\nk = 1\nm = 0\nlevel = 2\ntol = 1e-9\n")
        code, out, err = run_main(["solve", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", f"error: {cfg}:5: unknown key 'tol'\n")


class TestRemovedOptions:
    """One way to ask for a level and one verification grid: ``--j``,
    ``--grid-points`` and ``--r-min`` are gone, as flags and config keys."""

    FLAGS = [("--j", "1.5"), ("--grid-points", "65536"), ("--r-min", "0.05")]

    @pytest.mark.parametrize("flag,value", FLAGS)
    @pytest.mark.parametrize("command", ["solve", "scan", "verify", "map-sextic",
                                         "export"])
    def test_flag_is_unrecognized(self, command, flag, value, capsys):
        given = (["--omega-l-list", "1", "--k-list", "1", "--m", "0"]
                 if command == "scan" else ["--omega-l", "1", "--k", "1", "--m", "0"])
        code, out, err = run_main([command, *given, "--level", "2", flag, value],
                                  capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("key", ["j", "grid_points", "r_min"])
    def test_config_key_is_unknown(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"omega_l = 1\nk = 1\nm = 0\nlevel = 2\n{key} = 1\n")
        code, out, err = run_main(["solve", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", f"error: {cfg}:5: unknown key {key!r}\n")

    def test_a_level_is_required(self, capsys):
        code, out, err = run_main(["solve", "--omega-l", "1", "--k", "1", "--m", "0"],
                                  capsys)
        assert (code, out, err) == (2, "", "error: --level is required\n")
        code, out, err = run_main(["scan", "--omega-l-list", "1", "--k-list", "1",
                                   "--m", "0"], capsys)
        assert (code, out, err) == (2, "", "error: scan requires --level or "
                                           "--level-list\n")

    def test_every_command_verifies_on_the_default_grid(self, monkeypatch, capsys):
        grids = []
        for_params = RadialGrid.for_params.__func__

        def recorded(cls, params, *args, **kwargs):
            grids.append((args, kwargs))
            return for_params(cls, params, *args, **kwargs)

        monkeypatch.setattr(RadialGrid, "for_params", classmethod(recorded))
        for command in ("solve", "verify", "map-sextic", "export"):
            run_main([command, "--omega-l", "1", "--k", "1", "--m", "0",
                      "--level", "2"], capsys)
        run_main(["scan", "--omega-l-list", "1", "--k-list", "1", "--m", "0",
                  "--level", "2"], capsys)
        assert grids == [((), {})] * 5


class TestDiagnostics:
    def test_each_diagnostic_once_without_numpy_reprs(self, empty_slots,
                                                      monkeypatch, capsys):
        # Twelve eigenvector-consistency diagnostics come from the algebraic
        # route at this input and bounds of 1e-30; their z is a numpy scalar
        # unless converted.
        monkeypatch.setattr(_polyops, "MAX_IMAG", 1e-30)
        monkeypatch.setattr(sl2, "MAX_DEFECT", 1e-30)
        code, out, _ = run_main(
            ["solve", "--omega-l", "0.22317077664872895", "--k",
             "2.9363511648986176", "--m", "-4", "--level", "12"], capsys)
        assert code in (0, 4)
        diagnostics = json.loads(out)["diagnostics"]
        assert sum("consistency defect" in d for d in diagnostics) == 12
        assert not any("np.float64" in d for d in diagnostics)
        assert len(diagnostics) == len(set(diagnostics))


class TestSolvesOnce:
    """A single-set command reaches the solve slot twice, for its rows and
    for cross-validation, and computes the algebraic solve once."""

    @pytest.fixture
    def calls(self, empty_slots, monkeypatch):
        counter = []
        original = sl2._solve

        def counting(*args):
            counter.append(args)
            return original(*args)

        monkeypatch.setattr(sl2, "_solve", counting)
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


class TestVerifyWritesJsonOnly:
    def test_csv_flag(self, capsys):
        code, out, err = run_main(
            ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2",
             "--format", "csv"], capsys)
        assert (code, out, err) == (2, "", "error: verify writes JSON only\n")

    def test_csv_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_l = 1\nk = 1\nm = 0\nlevel = 2\nformat = csv\n")
        code, out, err = run_main(["verify", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", "error: verify writes JSON only\n")

    def test_json_flag(self, capsys):
        code, out, _ = run_main(
            ["verify", "--omega-l", "1", "--k", "1", "--m", "0", "--level", "2",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestOneBisectionPerSet:
    """A set's algebraic states, series states and radial grid share its
    r_max by value, so it is bisected once."""

    @pytest.mark.parametrize("command", ["solve", "verify", "map-sextic", "export"])
    def test_single_set(self, bisections, command, capsys):
        code, _, _ = run_main(
            [command, "--omega-l", "1.5", "--k", "0.5", "--m", "1", "--level", "3"],
            capsys)
        assert code in (0, 4)
        assert len(bisections) == 1

    def test_scan(self, bisections, capsys):
        code, _, _ = run_main(
            ["scan", "--omega-l-list", "1,2", "--k-list", "0,1", "--m", "0",
             "--level", "2"], capsys)
        assert code == 0
        assert len(bisections) == 4


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


class TestScaleFailures:
    """Couplings whose length scales the default grids cannot resolve exit
    3 with the scale named, not 2 with a message from inside the grid."""

    @pytest.mark.parametrize("couplings,message", [
        (["--omega-l", "1", "--k", "1e5", "--m", "0"],
         "error: the envelope decays before the grid starts: "
         "r_max = 0.0002878231362100449 <= r_min = 0.001 at omega-l = 1.0, "
         "k = 100000.0, m = 0\n"),
        (["--omega-l", "0.016920855145779415", "--k", "2179245.6679086657",
          "--m", "21"],
         "error: the envelope's peak radius rounds to 0 at omega-l = "
         "0.016920855145779415, k = 2179245.6679086657, m = 21\n"),
    ])
    def test_exit_3_naming_the_scale(self, couplings, message, capsys):
        code, out, err = run_main(["solve", *couplings, "--level", "2"], capsys)
        assert code == 3 and out == ""
        assert err == message
        assert "strictly increasing" not in err
        assert "math domain error" not in err


class TestCouplingsBeforeTheLevel:
    """At these inputs every state's monomial coefficients overflow, and the
    couplings also rule the level out: the CLI names the couplings' cause,
    the library solver the level's."""

    @pytest.mark.parametrize("couplings,level,message", [
        (["--omega-l", "1", "--k", "1e7", "--m", "0"], "53",
         "error: the envelope decays before the grid starts: r_max = "
         "2.8782313662421425e-06 <= r_min = 0.001 at omega-l = 1.0, "
         "k = 10000000.0, m = 0\n"),
        (["--omega-l", "1e304", "--k", "1", "--m", "0"], "63",
         "error: the envelope underflows double precision at omega-l = 1e+304, "
         "k = 1.0, m = 0: its norm integral is 0.0\n"),
    ])
    def test_exit_3_naming_the_couplings(self, couplings, level, message, capsys):
        code, out, err = run_main(["solve", *couplings, "--level", level], capsys)
        assert (code, out, err) == (3, "", message)

    @pytest.mark.parametrize("j,omega_l,k", [(26, 1.0, 1e7), (31, 1e304, 1.0)])
    def test_the_solver_names_the_level(self, j, omega_l, k):
        with pytest.raises(DomainError) as caught:
            sl2.solve_admissible_z(j, 0, omega_l, k)
        assert str(caught.value) == (
            f"a coefficient vector of level {2 * j + 1} overflows double "
            f"precision at omega-l = {omega_l!r}, k = {k!r}, m = 0")


class TestCutoffJustAboveRMin:
    """Couplings whose envelope cutoff lies a few ulps above the grid's
    first radius leave no room for its radii: exit 3 naming both radii and
    the point count, not 2 with the grid's 'strictly increasing'."""

    ARGS = ["solve", "--k", "0", "--m", "0", "--level", "1"]

    def test_exit_3_naming_both_radii(self, capsys):
        code, out, err = run_main([*self.ARGS, "--omega-l", "57564627.324851125"],
                                  capsys)
        assert code == 3 and out == ""
        assert err == ("error: r_min = 0.001 and r_max = "
                       "0.0010000000000000002 are too close for n = 4096 distinct "
                       "radii at omega-l = 57564627.324851125, k = 0.0, m = 0\n")

    def test_a_cutoff_with_room_still_solves(self, capsys):
        code, out, err = run_main([*self.ARGS, "--omega-l", "57000000"], capsys)
        assert code == 0 and err == ""
        assert len(json.loads(out)["states"]) == 1


class TestHugeLevel:
    """A level whose float matrix cannot be allocated exits 3 naming the
    level and the matrix size, whether the OS refuses the array (level
    10**6, 8e12 bytes) or numpy refuses its size at once (level 10**12, and
    a 301-digit level whose bytes are past the float range).  No level
    whose matrix fits in memory is run: it would be allocated."""

    J_LEVEL = int(2e300) + 1
    #: The message after "error: ", by the value of the last flag.
    MESSAGES = {
        "1000000": "level 1000000 needs a 1000000 x 1000000 matrix of doubles, "
                   "8e+12 bytes: more than can be allocated",
        "1000000000000": "level 1000000000000 needs a 1000000000000 x 1000000000000 "
                         "matrix of doubles, 8e+24 bytes: more than can be allocated",
        str(J_LEVEL): f"level {J_LEVEL} needs a {J_LEVEL} x {J_LEVEL} matrix of "
                      f"doubles, 3.20e+601 bytes: more than can be allocated",
    }
    SET = ["--omega-l", "1", "--k", "1", "--m", "0"]
    LISTS = ["--omega-l-list", "1", "--k-list", "1", "--m-list", "0"]

    @pytest.mark.parametrize("argv", [
        ["solve", *SET, "--level", "1000000"],
        ["scan", *LISTS, "--level-list", "1000000"],
        ["solve", *SET, "--level", "1000000000000"],
        ["scan", *LISTS, "--level-list", "1000000000000"],
        ["solve", *SET, "--level", str(J_LEVEL)]])
    def test_exit_3_naming_level_and_size(self, argv, capsys):
        code, out, err = run_main(argv, capsys)
        assert code == 3 and out == ""
        assert err == f"error: {self.MESSAGES[argv[-1]]}\n"


class TestHugeArrays:
    """A --sample-points whose points cannot be allocated exits 3 naming
    the option, its value and the bytes.  Only counts that numpy or the OS
    refuse at once are run (10**12 and 10**20 doubles)."""

    SET = ["--omega-l", "1", "--k", "1", "--m", "0", "--level", "3"]

    @pytest.mark.parametrize("count,size", [("1000000000000", "8e+12"),
                                            ("100000000000000000000", "8e+20")])
    @pytest.mark.parametrize("command,option", [
        ("export", "sample-points"), ("map-sextic", "sample-points")])
    def test_exit_3_naming_option_and_size(self, command, option, count, size, capsys):
        code, out, err = run_main([command, *self.SET, f"--{option}", count], capsys)
        assert code == 3 and out == ""
        assert err == (f"error: {option} {count} needs {count} doubles, {size} "
                       f"bytes: more than can be allocated\n")


class TestHugeM:
    """An |m| above 2**53 exits 3 with one line naming m on every command,
    where int64 arithmetic once escaped as an OverflowError traceback."""

    @pytest.mark.parametrize("m", [str(2**53 + 1), str(2**63 - 1), str(-2**63),
                                   str(10**200)])
    @pytest.mark.parametrize("command", ["solve", "scan", "verify", "map-sextic",
                                         "export"])
    def test_exit_3_naming_m(self, command, m, capsys):
        given = (["--omega-l-list", "1", "--k-list", "1"] if command == "scan"
                 else ["--omega-l", "1", "--k", "1"])
        code, out, err = run_main([command, *given, "--m", m, "--level", "6"], capsys)
        assert (code, out) == (3, "")
        assert err == (f"error: m = {m} is too large for double precision: "
                       f"|m| must be at most 2**53\n")


class TestScanRefusesWhatItWouldDrop:
    """scan exits 2 on an option it would ignore, from flags or a config
    file, and names it."""

    LISTS = ["--omega-l-list", "1", "--k-list", "1"]

    @pytest.mark.parametrize("extra,message", [
        (["--m", "2", "--m-list", "0,1", "--level", "1"],
         "scan does not take --m 2: it scans --m-list 0,1"),
        (["--m", "0", "--level", "2", "--level-list", "1,3"],
         "scan does not take --level 2: it scans --level-list 1,3"),
        (["--m", "0", "--level", "0", "--level-list", "1"],
         "scan does not take --level 0: it scans --level-list 1"),
        (["--m", "0", "--level", "1", "--omega-l", "7"],
         "scan does not take --omega-l 7.0: it scans --omega-l-list 1.0"),
        (["--m", "0", "--level", "1", "--k", "9"],
         "scan does not take --k 9.0: it scans --k-list 1.0"),
    ])
    def test_flags(self, extra, message, capsys):
        code, out, err = run_main(["scan", *self.LISTS, *extra], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_every_dropped_option_of_one_run_is_refused(self, capsys):
        code, _, err = run_main(
            ["scan", *self.LISTS, "--m", "2", "--m-list", "0", "--level", "2",
             "--level-list", "1", "--omega-l", "7", "--k", "9"], capsys)
        assert code == 2
        assert err.startswith("error: scan does not take --")

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("omega_l_list = 1\nk_list = 1\nm_list = 0,1\nlevel = 1\n")
        code, out, err = run_main(["scan", "--config", str(cfg), "--m", "3"],
                                  capsys)
        assert code == 2 and out == ""
        assert err == "error: scan does not take --m 3: it scans --m-list 0,1\n"

    def test_a_list_without_its_single_still_scans(self, capsys):
        code, out, _ = run_main(
            ["scan", *self.LISTS, "--m-list", "0,1", "--level-list", "1"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 3


class TestNegativeListValues:
    """A list value that starts with '-' and a digit is read as a value:
    ``--m-list -5,5`` gives the exit code, stdout and stderr of
    ``--m-list=-5,5``."""

    @pytest.mark.parametrize("flag,value", [
        ("--m-list", "-5,5"), ("--m-list", "-1"), ("--m-list", "-2,x"),
        ("--level-list", "-1,2"), ("--omega-l-list", "-1,2"),
        ("--omega-l-list", "-1e3"), ("--k-list", "-0,1"), ("--k-list", "-1,2"),
    ])
    def test_both_spellings_agree(self, flag, value, capsys):
        base = {"--omega-l-list": "1,2", "--k-list": "0.5", "--m-list": "0",
                "--level-list": "2"}
        argv = [a for key, v in base.items() if key != flag for a in (key, v)]
        spaced = run_main(["scan", *argv, flag, value, "--format", "json"], capsys)
        joined = run_main(["scan", *argv, f"{flag}={value}", "--format", "json"],
                          capsys)
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_m_list(self, capsys):
        code, out, err = run_main(
            ["scan", "--omega-l-list", "1", "--k-list", "1", "--m-list", "-5,5",
             "--level", "2", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert [row["m"] for row in json.loads(out)["rows"]] == [-5, -5, 5, 5]


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

    @pytest.mark.parametrize("argv", [
        ["solve", "--level", "3"],
        ["scan", "--omega-l-list", "1,2", "--k-list", "0.5", "--m", "0",
         "--level", "2"],
        ["verify", "--level", "2"],
        ["map-sextic", "--level", "2", "--sample-points", "3"],
        ["export", "--level", "2", "--format", "csv"],
    ], ids=lambda argv: argv[0])
    def test_command_loads_no_numpy_polynomial(self, argv):
        # The Gauss-Legendre rules are constants: no command computes one.
        if argv[0] != "scan":
            argv = argv + ["--omega-l", "1", "--k", "1", "--m", "0"]
        code = (
            "import contextlib, io, sys\n"
            "from qeshydro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, [n for n in sys.modules if n.startswith('numpy.polynomial')])"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"
