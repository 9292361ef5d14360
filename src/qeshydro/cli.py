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
import math
import sys

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


def _checked(parse, accept, message: str):
    """``parse``, then ArgumentTypeError(``message``) unless ``accept``."""
    def check(text: str):
        value = parse(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value
    check.__name__ = parse.__name__  # argparse names the type in its error text
    return check


def _k_float(text: str) -> float:
    """float(text) with -0.0 read as 0.0, so the sign of a zero k does not
    reach the output."""
    return float(text) + 0.0


_k_float.__name__ = "float"  # argparse names the type in its error text


def _list_of(parse):
    """Parser of a comma-separated list of ``parse`` values."""
    def parse_list(text: str) -> tuple:
        return tuple(parse(tok) for tok in text.split(",") if tok.strip())
    parse_list.__name__ = parse.__name__  # argparse names the type in its error text
    return parse_list


#: Every option: its config-file key, its flag (the key with '-' for '_'),
#: its parser, which also checks the value's range, so flags and config
#: files are checked once, alike, and its default.  The ``*_list`` flags
#: belong to ``scan`` only.  Besides these defaults, scan writes CSV and
#: export samples 100 radii unless told otherwise.
_OPTIONS = {
    "omega_l": (float, None),
    "k": (_k_float, None),
    "m": (int, None),
    "level": (int, None),
    "j": (_checked(float, lambda j: j >= 0 and (2 * j).is_integer(),
                   "j must be a non-negative half-integer, got {!r}"), None),
    "tol": (_checked(float, lambda x: 0 < x < math.inf,
                     "tol must be positive and finite"), 1e-9),
    "grid_points": (_checked(int, lambda n: n >= 64,
                             "grid-points must be at least 64"),
                    DEFAULT_GRID_POINTS),
    "r_min": (_checked(float, lambda x: 0 < x < math.inf,
                       "r-min must be positive and finite"), DEFAULT_R_MIN),
    "format": (_checked(str, _FORMATS.__contains__, "unsupported format {!r}"),
               "json"),
    "out": (str, None),
    "sample_points": (_checked(int, lambda n: n >= 0,
                               "sample-points must be non-negative"), 0),
    "omega_l_list": (_list_of(float), ()),
    "k_list": (_list_of(_k_float), ()),
    "m_list": (_list_of(int), ()),
    "level_list": (_list_of(int), ()),
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
                    values[key] = _OPTIONS[key][0](value.strip())
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command.  It adds the command's options when it
    first parses, so a process builds the options of the command it runs
    only; its usage, help and error texts are those of a parser built with
    them."""

    def __init__(self, command: str, **kwargs):
        super().__init__(**kwargs)
        self._command = command

    def parse_known_args(self, args=None, namespace=None):
        if self._command is not None:
            self.add_argument("--config", type=str, default=None,
                              help="flat key = value configuration file")
            for key, (parse, _) in _OPTIONS.items():
                if key.endswith("_list") and self._command != "scan":
                    continue
                self.add_argument("--" + key.replace("_", "-"), type=parse,
                                  default=None,
                                  metavar="{json,csv}" if key == "format" else None)
            self._command = None
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeshydro",
        description=(
            "Solve the quasi-exactly solvable states of a planar "
            "hydrogen-like atom with a linear potential in a magnetic field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name in _COMMANDS:
        sub.add_parser(name, command=name)
    return parser


def _given(key: str, value) -> str:
    """The option ``key`` as its flag with ``value``, for an error text."""
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return f"--{key.replace('_', '-')} {text}".rstrip()


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """The command and every option's value: flags over config file over
    the defaults of :data:`_OPTIONS`.  Every coupling pair the command will
    solve passes :func:`coerce_couplings` here.  ``scan`` refuses an
    option it would not use: ``--omega-l`` and ``--k``, and ``--m``,
    ``--level`` or ``--j`` next to the list that replaces it."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in _OPTIONS and value is not None)
    command = args.command
    if command == "scan":
        values.setdefault("format", "csv")
        # The couplings come from their lists only; m and the level from
        # their lists when those are not empty.
        for key, listed in (("omega_l", "omega_l_list"), ("k", "k_list"),
                            ("m", "m_list"), ("level", "level_list"),
                            ("j", "level_list")):
            if key in values and (key in ("omega_l", "k") or values.get(listed)):
                raise UsageError(f"scan does not take {_given(key, values[key])}: "
                                 f"it scans {_given(listed, values.get(listed, ()))}")
    cfg = argparse.Namespace(command=command, **{
        key: values.get(key, default) for key, (_, default) in _OPTIONS.items()})
    if command == "verify" and cfg.format != "json":
        raise UsageError("verify writes JSON only")

    if cfg.level is not None and cfg.j is not None:
        raise UsageError("give only one of --level or --j")
    if cfg.level is None and cfg.j is not None:
        cfg.level = int(2 * cfg.j) + 1
    if cfg.level is None and not (command == "scan" and cfg.level_list):
        raise UsageError("exactly one of --level or --j must be given")

    if command != "scan":
        if cfg.omega_l is None or cfg.k is None or cfg.m is None:
            raise UsageError("--omega-l, --k and --m are required")
        coerce_couplings(cfg.omega_l, cfg.k)
    else:
        if not cfg.omega_l_list or not cfg.k_list:
            raise UsageError("scan requires non-empty --omega-l-list and --k-list")
        for omega_l in sorted(cfg.omega_l_list):
            for k in sorted(cfg.k_list):
                coerce_couplings(omega_l, k)
        if not cfg.m_list and cfg.m is None:
            raise UsageError("scan requires --m or --m-list")
    return cfg


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


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


def _solve_and_verify(cfg, omega_l, k, m, level, diagnostics=None):
    """One parameter set: the algebraic states, the per-state reports on
    the radial grid, and that grid.  The grid is built on the parameter set
    the states carry, so the set's ``r_max`` is bisected once."""
    states = sl2.solve_admissible_z(0.5 * (level - 1), m, omega_l, k, cfg.tol,
                                    diagnostics=diagnostics)
    params = states[0].params if states else ModelParams(omega_l, k, m)
    grid = RadialGrid.for_params(params, n=cfg.grid_points, r_min=cfg.r_min)
    return states, [verify_state(s, grid=grid) for s in states], grid


def _incomplete(states, level: int) -> str | None:
    """The diagnostic of a level that returned fewer than its ``level``
    strengths, or None when all came back."""
    if len(states) < level:
        return f"incomplete level: {len(states)} of {level} strengths"
    return None


def _solve_with_reports(cfg):
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


def _exit_code(cfg, states, cross) -> int:
    """Exit 4 when the level is incomplete, or when cross-validation ran
    (level <= 13) and failed."""
    failed = _incomplete(states, cfg.level) or (cross is not None and not cross.passed)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _payload(cfg, **fields) -> dict:
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


def cmd_solve(cfg) -> int:
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


def cmd_scan(cfg) -> int:
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


def cmd_verify(cfg) -> int:
    states, reports, cross, diags, _ = _solve_with_reports(cfg)
    all_passed = (_exit_code(cfg, states, cross) == EXIT_OK
                  and all(r.passed for r in reports))
    payload = _payload(
        cfg,
        reports=[r.to_dict() for r in reports],
        cross_validation=cross.to_dict() if cross is not None else None,
        diagnostics=diags,
        passed=all_passed,
    )
    _emit(_json_dump(payload), cfg.out)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def cmd_map_sextic(cfg) -> int:
    states, reports, cross, diags, _ = _solve_with_reports(cfg)
    rho_grid = rho_grid_for(states[0].params) if states else None
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


def cmd_export(cfg) -> int:
    states, reports, cross, diags, grid = _solve_with_reports(cfg)
    radii = np.geomspace(grid.r_min, grid.r_max, cfg.sample_points or 100)
    samples = [[[float(a), float(b)] for a, b in zip(radii, s.radial_values(radii))]
               for s in states]
    if cfg.format == "json":
        entries = [dict(_state_entry(s, r), samples=pairs)
                   for s, r, pairs in zip(states, reports, samples)]
        _emit(_json_dump(_payload(cfg, states=entries, diagnostics=diags)), cfg.out)
    else:
        rows = [[idx, *pair] for idx, pairs in enumerate(samples) for pair in pairs]
        _emit(_csv_table(["root_index", "r", "radial_value"], rows), cfg.out)
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
