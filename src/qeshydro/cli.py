"""Command-line surface: solve, scan, verify, map-sextic, export.

Output is deterministic: identical configurations produce byte-identical
output (floats are serialized with Python's shortest round-trip
representation, CSV uses '.' decimals and a mandatory header row).

Exit codes: 0 success, 2 usage error, 3 domain error (e.g. level 0),
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, sl2
from ._polyops import coerce_couplings
from .model import (DEFAULT_GRID_POINTS, DEFAULT_R_MIN, DomainError, ModelParams,
                    QesState, RadialGrid)
from .series import NoGroundStateError
from .sextic import rho_grid_for, sextic_residual, sextic_wavefunction, to_sextic
from .verify import _compare_routes, verify_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFICATION = 4

_COMMANDS = ("solve", "scan", "verify", "map-sextic", "export")
_FORMATS = ("json", "csv")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Merged flags > config file > defaults for one invocation."""

    command: str
    omega_l: float | None = None
    k: float | None = None
    m: int | None = None
    level: int | None = None
    tol: float = 1e-9
    grid_points: int = DEFAULT_GRID_POINTS
    r_min: float = DEFAULT_R_MIN
    format: str = "json"
    out: str | None = None
    sample_points: int = 0
    omega_l_list: tuple[float, ...] = ()
    k_list: tuple[float, ...] = ()
    m_list: tuple[int, ...] = ()
    level_list: tuple[int, ...] = ()

    def __post_init__(self):
        if self.tol <= 0:
            raise UsageError("tol must be positive")
        if self.format not in _FORMATS:
            raise UsageError(f"unsupported format {self.format!r}")
        if self.grid_points < 64:
            raise UsageError("grid-points must be at least 64")
        if self.r_min <= 0:
            raise UsageError("r-min must be positive")
        if self.sample_points < 0:
            raise UsageError("sample-points must be non-negative")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _k_float(text: str) -> float:
    """float(text) with -0.0 read as 0.0, so the sign of a zero k does not
    reach the output."""
    return float(text) + 0.0


_k_float.__name__ = "float"  # argparse names the type in its error text


def _k_list(text: str) -> tuple[float, ...]:
    return tuple(_k_float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


#: Every option: its config-file key, its flag (the key with '-' for '_'),
#: and its parser.  The ``*_list`` flags belong to ``scan`` only.  Defaults
#: live in RunConfig, except that scan writes CSV and export samples 100
#: radii unless told otherwise.
_OPTIONS = {
    "omega_l": float,
    "k": _k_float,
    "m": int,
    "level": int,
    "j": float,
    "tol": float,
    "grid_points": int,
    "r_min": float,
    "format": str,
    "out": str,
    "sample_points": int,
    "omega_l_list": _float_list,
    "k_list": _k_list,
    "m_list": _int_list,
    "level_list": _int_list,
}


def _load_config_file(path: str) -> dict:
    """Flat key/value file: one `key = value` per line, '#' comments."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _OPTIONS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _OPTIONS[key](value.strip())
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeshydro",
        description=(
            "Solve the quasi-exactly solvable states of a planar "
            "hydrogen-like atom with a linear potential in a magnetic field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="flat key = value configuration file")
        for key, parse in _OPTIONS.items():
            if key.endswith("_list") and name != "scan":
                continue
            p.add_argument("--" + key.replace("_", "-"), type=parse, default=None,
                           choices=_FORMATS if key == "format" else None)
    return parser


def _merge(args: argparse.Namespace) -> RunConfig:
    """Flags over config file over RunConfig's defaults; every coupling pair
    the command will solve passes :func:`coerce_couplings` here."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in _OPTIONS and value is not None)
    command = values["command"] = args.command
    if command == "scan":
        values.setdefault("format", "csv")

    level = values.get("level")
    j = values.pop("j", None)
    if level is not None and j is not None:
        raise UsageError("give only one of --level or --j")
    if level is None and j is not None:
        two_j = 2.0 * float(j)
        if two_j < 0 or two_j != round(two_j):
            raise UsageError(f"j must be a non-negative half-integer, got {j!r}")
        level = values["level"] = int(round(two_j)) + 1
    if level is None and not (command == "scan" and values.get("level_list")):
        raise UsageError("exactly one of --level or --j must be given")

    if command != "scan":
        if any(values.get(key) is None for key in ("omega_l", "k", "m")):
            raise UsageError("--omega-l, --k and --m are required")
        coerce_couplings(values["omega_l"], values["k"])
    cfg = RunConfig(**values)
    if command == "scan":
        if not cfg.omega_l_list or not cfg.k_list:
            raise UsageError("scan requires non-empty --omega-l-list and --k-list")
        for omega_l in sorted(cfg.omega_l_list):
            for k in sorted(cfg.k_list):
                coerce_couplings(omega_l, k)
        if not cfg.m_list and cfg.m is None:
            raise UsageError("scan requires --m or --m-list")
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_table(header: "list[str]", rows: "list[list]") -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _solve_and_verify(cfg: RunConfig, omega_l, k, m, level, diagnostics=None):
    """One parameter set: the algebraic states, the radial grid and the
    per-state reports on it."""
    states = sl2.solve_admissible_z(0.5 * (level - 1), m, omega_l, k, cfg.tol,
                                    diagnostics=diagnostics)
    params = ModelParams(omega_l, k, m)
    grid = RadialGrid.for_params(params, n=cfg.grid_points, r_min=cfg.r_min)
    return states, [verify_state(s, grid=grid) for s in states], grid


def _incomplete(states, level: int) -> str | None:
    """The diagnostic of a level that returned fewer than its ``level``
    strengths, or None when all came back."""
    if len(states) < level:
        return f"incomplete level: {len(states)} of {level} strengths"
    return None


def _solve_with_reports(cfg: RunConfig):
    """Shared solve pipeline: states, per-state reports, cross check, notes,
    and the radial grid the reports were computed on."""
    if cfg.level < 1:
        raise NoGroundStateError()
    diags: list[str] = []
    states, reports, grid = _solve_and_verify(cfg, cfg.omega_l, cfg.k, cfg.m,
                                              cfg.level, diags)
    cross = None
    if cfg.level <= 13:
        cross = _compare_routes(states, diags, cfg.level, cfg.m, cfg.omega_l,
                                cfg.k, cfg.tol)
        diags = list(cross.notes)
        if cross.passed:
            diags.append(
                f"cross-validation passed: max z delta "
                f"{cross.cross_method_delta!r}"
            )
        else:
            diags.append("cross-validation FAILED")
    else:
        diags.append("cross-validation skipped: level above the desk-scale cap")
    incomplete = _incomplete(states, cfg.level)
    if incomplete:
        diags.append(incomplete)
    return states, reports, cross, diags, grid


def _exit_code(cfg: RunConfig, states, cross) -> int:
    """Exit 4 when the level is incomplete, or when cross-validation ran
    (level <= 13) and failed."""
    failed = _incomplete(states, cfg.level) or (cross is not None and not cross.passed)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _payload(cfg: RunConfig, **fields) -> dict:
    """JSON payload of a single-set command: version, parameters, then the
    command's own ``fields``."""
    parameters = {
        "omega_l": float(cfg.omega_l),
        "k": float(cfg.k),
        "m": int(cfg.m),
        "level": int(cfg.level),
        "j": 0.5 * (cfg.level - 1),
    }
    return {"version": __version__, "parameters": parameters, **fields}


def _state_entry(state: QesState, report) -> dict:
    entry = state.to_dict()
    entry["verification"] = {
        "max_residual": report.max_residual,
        "norm_error": report.norm_error,
        "node_count": report.node_count,
    }
    return entry


def cmd_solve(cfg: RunConfig) -> int:
    states, reports, cross, diags, _ = _solve_with_reports(cfg)
    if cfg.format == "json":
        entries = [_state_entry(s, r) for s, r in zip(states, reports)]
        _emit(_json_dump(_payload(cfg, states=entries, diagnostics=diags)), cfg.out)
    else:
        header = ["omega_l", "k", "m", "level", "j", "root_index", "z", "energy",
                  "norm_constant", "max_residual", "norm_error", "node_count"]
        rows = [
            [cfg.omega_l, cfg.k, cfg.m, cfg.level, s.j, i, s.z, s.energy,
             s.norm_constant, r.max_residual, r.norm_error, r.node_count]
            for i, (s, r) in enumerate(zip(states, reports))
        ]
        _emit(_csv_table(header, rows), cfg.out)
    return _exit_code(cfg, states, cross)


def cmd_scan(cfg: RunConfig) -> int:
    m_values = cfg.m_list or (cfg.m,)
    level_values = cfg.level_list or (cfg.level,)
    if any(level < 1 for level in level_values):
        raise NoGroundStateError()
    header = ["omega_l", "k", "m", "level", "root_index", "z", "energy",
              "max_residual", "node_count"]
    rows: list[list] = []
    incomplete = []
    # Rows are assembled in lexicographic input order then ascending z,
    # independent of any evaluation concurrency.
    for omega_l in sorted(cfg.omega_l_list):
        for k in sorted(cfg.k_list):
            for m in sorted(m_values):
                for level in sorted(level_values):
                    states, reports, _ = _solve_and_verify(cfg, omega_l, k, m, level)
                    note = _incomplete(states, level)
                    if note:
                        incomplete.append(f"{note} at omega_l={omega_l!r} "
                                          f"k={k!r} m={m} level={level}")
                    for idx, (state, report) in enumerate(zip(states, reports)):
                        rows.append([
                            omega_l, k, m, level, idx, state.z, state.energy,
                            report.max_residual, report.node_count,
                        ])
    if cfg.format == "csv":
        _emit(_csv_table(header, rows), cfg.out)
    else:
        payload = {
            "version": __version__,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _emit(_json_dump(payload), cfg.out)
    for note in incomplete:
        print(f"error: {note}", file=sys.stderr)
    return EXIT_VERIFICATION if incomplete else EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    states, reports, cross, diags, _ = _solve_with_reports(cfg)
    all_passed = (not _incomplete(states, cfg.level)
                  and all(r.passed for r in reports))
    if cross is not None:
        all_passed = all_passed and cross.passed
    payload = _payload(
        cfg,
        reports=[r.to_dict() for r in reports],
        cross_validation=cross.to_dict() if cross is not None else None,
        diagnostics=diags,
        passed=all_passed,
    )
    _emit(_json_dump(payload), cfg.out)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def cmd_map_sextic(cfg: RunConfig) -> int:
    states, reports, cross, diags, _ = _solve_with_reports(cfg)
    params = ModelParams(cfg.omega_l, cfg.k, cfg.m)
    rho_grid = rho_grid_for(params)
    entries = []
    sample_rows = []
    for idx, (state, report) in enumerate(zip(states, reports)):
        mapped = to_sextic(state)
        entry = _state_entry(state, report)
        entry.update(mapped.to_dict())
        entry["sextic_residual"] = sextic_residual(mapped, rho_grid)
        if cfg.sample_points:
            rho = np.geomspace(rho_grid.r_min, rho_grid.r_max, cfg.sample_points)
            zeta = sextic_wavefunction(mapped, rho)
            entry["samples"] = [[float(a), float(b)] for a, b in zip(rho, zeta)]
            sample_rows.extend(
                [idx, float(a), float(b)] for a, b in zip(rho, zeta)
            )
        entries.append(entry)

    if cfg.format == "json":
        _emit(_json_dump(_payload(cfg, states=entries, diagnostics=diags)), cfg.out)
    else:
        header = ["root_index", "m_tilde", "centrifugal", "rho2", "rho4",
                  "rho6", "eigenvalue", "sextic_residual", "z", "energy"]
        rows = [
            [i, e["m_tilde"], e["coefficients"]["centrifugal"],
             e["coefficients"]["rho2"], e["coefficients"]["rho4"],
             e["coefficients"]["rho6"], e["eigenvalue"], e["sextic_residual"],
             e["z"], e["energy"]]
            for i, e in enumerate(entries)
        ]
        text = _csv_table(header, rows)
        if sample_rows:
            text += "\n" + _csv_table(["root_index", "rho", "zeta"], sample_rows)
        _emit(text, cfg.out)
    return _exit_code(cfg, states, cross)


def cmd_export(cfg: RunConfig) -> int:
    states, reports, cross, diags, grid = _solve_with_reports(cfg)
    n_samples = cfg.sample_points or 100
    radii = np.geomspace(grid.r_min, grid.r_max, n_samples)

    if cfg.format == "json":
        entries = []
        for state, report in zip(states, reports):
            entry = _state_entry(state, report)
            values = state.radial_values(radii)
            entry["samples"] = [[float(a), float(b)] for a, b in zip(radii, values)]
            entries.append(entry)
        _emit(_json_dump(_payload(cfg, states=entries, diagnostics=diags)), cfg.out)
    else:
        header = ["root_index", "r", "radial_value"]
        rows = []
        for idx, state in enumerate(states):
            values = state.radial_values(radii)
            rows.extend([idx, float(a), float(b)] for a, b in zip(radii, values))
        _emit(_csv_table(header, rows), cfg.out)
    return _exit_code(cfg, states, cross)


_DISPATCH = {
    "solve": cmd_solve,
    "scan": cmd_scan,
    "verify": cmd_verify,
    "map-sextic": cmd_map_sextic,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge(args)
        return _DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def solution_from_json(text: str):
    """Re-parse `solve` JSON output into (parameters, states) for round trips."""
    payload = json.loads(text)
    meta = payload["parameters"]
    params = ModelParams(float(meta["omega_l"]), float(meta["k"]), int(meta["m"]))
    states = [QesState.from_dict(entry, params) for entry in payload["states"]]
    return params, states


if __name__ == "__main__":
    sys.exit(main())
