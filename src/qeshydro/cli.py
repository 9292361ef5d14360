"""Command-line surface: solve, scan, verify, map-sextic, export.

Output is deterministic: identical configurations produce byte-identical
output (floats are serialized with Python's shortest round-trip
representation, CSV uses '.' decimals and a mandatory header row).
Every command writes selections of one row per state, so each CSV row
holds values of the JSON per-state entry.  A parameter set's states are
verified on its default radial grid, ``RadialGrid.for_params``: 4096
points from ``DEFAULT_R_MIN``, which ``export`` also samples from.  No
option moves the grid, so a verdict follows from (omega_l, k, m, level)
alone.

Exit codes: 0 success, 2 usage error, 3 domain error (e.g. level 0),
4 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import __version__, sl2
from ._polyops import allocated, coerce_couplings
from .model import DomainError, ModelParams, QesState, RadialGrid, l2_norm_constant
from .series import NoGroundStateError
from .sextic import (MAX_SEXTIC_RESIDUAL, _rho_range, sextic_residual,
                     sextic_wavefunction, to_sextic)
from .verify import MAX_CROSS_LEVEL, cross_validate, verify_state

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


_LEVEL = _checked(int, lambda n: n >= 0, "level must be non-negative, got {!r}")

#: Every option: its config-file key, its flag (the key with '-' for '_'),
#: its parser, which also checks the value's range, so flags and config
#: files are checked once, alike, and its default.  The ``*_list`` flags
#: belong to ``scan`` only.  Besides these defaults, scan writes CSV and
#: export samples 100 radii unless told otherwise.
_OPTIONS = {
    "omega_l": (float, None),
    "k": (_k_float, None),
    "m": (int, None),
    "level": (_LEVEL, None),
    "format": (_checked(str, _FORMATS.__contains__, "unsupported format {!r}"),
               "json"),
    "out": (str, None),
    "sample_points": (_checked(int, lambda n: n >= 0,
                               "sample-points must be non-negative"), 0),
    "omega_l_list": (_list_of(float), ()),
    "k_list": (_list_of(_k_float), ()),
    "m_list": (_list_of(int), ()),
    "level_list": (_list_of(_LEVEL), ()),
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
    them.  ``scan`` hides ``--omega-l`` and ``--k``, which it refuses."""

    def __init__(self, command: str, **kwargs):
        super().__init__(**kwargs)
        self._command = command

    def parse_known_args(self, args=None, namespace=None):
        if self._command is not None:
            self.add_argument("--config", type=str, default=None,
                              help="flat key = value configuration file")
            scan = self._command == "scan"
            for key, (parse, _) in _OPTIONS.items():
                if key.endswith("_list") and not scan:
                    continue
                hidden = scan and key in ("omega_l", "k")
                self.add_argument("--" + key.replace("_", "-"), type=parse,
                                  default=None,
                                  help=argparse.SUPPRESS if hidden else None,
                                  metavar="{json,csv}" if key == "format" else None)
            self._command = None
        return super().parse_known_args(args, namespace)

    def _parse_optional(self, arg_string):
        # A '-' then a digit, as in "-5,5" or "-1e3", is a value, never a
        # flag: "--m-list -5,5" reads as "--m-list=-5,5" does.
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


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
    option it would not use: ``--omega-l`` and ``--k``, and ``--m`` or
    ``--level`` next to the list that replaces it."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in _OPTIONS and value is not None)
    command = args.command
    if command == "export":
        values.setdefault("sample_points", 100)
    if command == "scan":
        values.setdefault("format", "csv")
        # The couplings come from their lists only; m and the level from
        # their lists when those are not empty.
        for key, listed in (("omega_l", "omega_l_list"), ("k", "k_list"),
                            ("m", "m_list"), ("level", "level_list")):
            if key in values and (key in ("omega_l", "k") or values.get(listed)):
                raise UsageError(f"scan does not take {_given(key, values[key])}: "
                                 f"it scans {_given(listed, values.get(listed, ()))}")
    cfg = argparse.Namespace(command=command, **{
        key: values.get(key, default) for key, (_, default) in _OPTIONS.items()})
    if command == "verify" and cfg.format != "json":
        raise UsageError("verify writes JSON only")

    if cfg.level is None and not (command == "scan" and cfg.level_list):
        raise UsageError("scan requires --level or --level-list" if command == "scan"
                         else "--level is required")

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


def _csv_table(header, rows) -> str:
    """A header line, then one line of ``repr`` values per row."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    return "\n".join(lines) + "\n"


#: The keys of a single-set command's JSON entry, in order, that its row
#: has: the state's ``to_dict()``, "verification" (the report's three
#: values), then what map-sextic and export add.
_ENTRY_KEYS = ("level", "j", "z", "energy", "poly", "norm_constant", "verification",
               "m_tilde", "coefficients", "eigenvalue", "sextic_residual", "samples")
#: The columns of a command's CSV table of rows.
_COLUMNS = {
    "solve": ("omega_l", "k", "m", "level", "j", "root_index", "z", "energy",
              "norm_constant", "max_residual", "norm_error", "node_count"),
    "scan": ("omega_l", "k", "m", "level", "root_index", "z", "energy",
             "max_residual", "node_count"),
    "map-sextic": ("root_index", "m_tilde", "centrifugal", "rho2", "rho4", "rho6",
                   "eigenvalue", "sextic_residual", "z", "energy"),
}
#: The names of the pairs in a row's "samples", for the CSV table of samples.
_SAMPLE_COLUMNS = {"map-sextic": ("rho", "zeta"), "export": ("r", "radial_value")}


def _rows(omega_l, k, m, level):
    """One row per algebraic state of a parameter set, the default radial
    grid of their reports, which shares the solve's ``r_max`` by value,
    and the solve's notes.  A row holds the set's omega_l, k and m, the
    state's root_index and ``to_dict()`` values, its report's max_residual,
    norm_error and node_count, also as the dictionary "verification", and
    the state and report themselves as "state" and "report".

    What the couplings alone rule out is raised before what the level
    does: first an envelope whose own norm is not a finite double, then a
    grid that cannot be built, and only then the solve's errors."""
    params = ModelParams(omega_l, k, m)
    l2_norm_constant(params, (1.0,))
    grid = RadialGrid.for_params(params)
    states = sl2.solve_admissible_z(0.5 * (level - 1), m, omega_l, k)
    rows = []
    for index, state in enumerate(states):
        report = verify_state(state, grid=grid)
        checks = {key: getattr(report, key)
                  for key in ("max_residual", "norm_error", "node_count")}
        rows.append({"omega_l": omega_l, "k": k, "m": m, "root_index": index,
                     **state.to_dict(), **checks, "verification": checks,
                     "state": state, "report": report})
    return rows, grid, states.notes


def _incomplete(rows, level: int) -> str | None:
    """The diagnostic of a set with fewer than ``level`` rows, or None."""
    if len(rows) < level:
        return f"incomplete level: {len(rows)} of {level} strengths"
    return None


def _level(cfg):
    """A single-set command's rows and grid, cross-validation report (None
    above MAX_CROSS_LEVEL; its algebraic states come from the solve slot),
    diagnostics, opening with the notes of both routes or above
    MAX_CROSS_LEVEL of the algebraic one, and exit code: 4 when incomplete
    or cross-validation failed."""
    if cfg.level < 1:
        raise NoGroundStateError()
    rows, grid, notes = _rows(cfg.omega_l, cfg.k, cfg.m, cfg.level)
    cross = None
    if cfg.level <= MAX_CROSS_LEVEL:
        cross = cross_validate(0.5 * (cfg.level - 1), cfg.m, cfg.omega_l, cfg.k)
        diags = [*cross.notes, f"cross-validation passed: max z delta "
                               f"{cross.cross_method_delta!r}"
                 if cross.passed else "cross-validation FAILED"]
    else:
        diags = [*notes, "cross-validation skipped: level above the desk-scale cap"]
    incomplete = _incomplete(rows, cfg.level)
    if incomplete:
        diags.append(incomplete)
    failed = incomplete or (cross is not None and not cross.passed)
    return rows, grid, cross, diags, EXIT_VERIFICATION if failed else EXIT_OK


def _write(cfg, rows, **fields) -> None:
    """Write the command's output: every value in it is one of a row's.

    CSV: the command's table of the rows, then, when there are any, the
    table of their samples, one line per pair (export's only table).
    JSON: scan's rows with its CSV columns; else the set's parameters, one
    entry per row (verify: its report's dictionary, under "reports"; else
    its :data:`_ENTRY_KEYS`, under "states"), then ``fields``."""
    command = cfg.command
    if cfg.format == "csv":
        tables = []
        if command in _COLUMNS:
            tables.append((_COLUMNS[command], [[row[key] for key in _COLUMNS[command]]
                                               for row in rows]))
        if command in _SAMPLE_COLUMNS:
            tables.append((("root_index", *_SAMPLE_COLUMNS[command]),
                           [[row["root_index"], *pair]
                            for row in rows for pair in row.get("samples", ())]))
        _emit("\n".join(_csv_table(header, body) for i, (header, body)
                        in enumerate(tables) if body or i == 0), cfg.out)
        return
    if command == "scan":
        _emit(_json_dump({"version": __version__, "rows": [
            {key: row[key] for key in _COLUMNS["scan"]} for row in rows]}), cfg.out)
        return
    if command == "verify":
        entries = {"reports": [row["report"].to_dict() for row in rows]}
    else:
        entries = {"states": [{key: row[key] for key in _ENTRY_KEYS if key in row}
                              for row in rows]}
    parameters = {"omega_l": cfg.omega_l, "k": cfg.k, "m": cfg.m,
                  "level": cfg.level, "j": 0.5 * (cfg.level - 1)}
    payload = {"version": __version__, "parameters": parameters, **entries, **fields}
    _emit(_json_dump(payload), cfg.out)


def cmd_solve(cfg) -> int:
    rows, _, _, diags, code = _level(cfg)
    _write(cfg, rows, diagnostics=diags)
    return code


def cmd_scan(cfg) -> int:
    m_values = cfg.m_list or (cfg.m,)
    level_values = cfg.level_list or (cfg.level,)
    if any(level < 1 for level in level_values):
        raise NoGroundStateError()
    rows, incomplete = [], []
    # Rows are assembled in lexicographic input order then ascending z.
    for omega_l, k, m, level in itertools.product(
            sorted(cfg.omega_l_list), sorted(cfg.k_list), sorted(m_values),
            sorted(level_values)):
        found = _rows(omega_l, k, m, level)[0]
        note = _incomplete(found, level)
        if note:
            incomplete.append(f"{note} at omega_l={omega_l!r} k={k!r} m={m} "
                              f"level={level}")
        rows += found
    _write(cfg, rows)
    for note in incomplete:
        print(f"error: {note}", file=sys.stderr)
    return EXIT_VERIFICATION if incomplete else EXIT_OK


def cmd_verify(cfg) -> int:
    rows, _, cross, diags, code = _level(cfg)
    passed = code == EXIT_OK and all(row["report"].passed for row in rows)
    _write(cfg, rows, cross_validation=cross.to_dict() if cross is not None else None,
           diagnostics=diags, passed=passed)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _samples(n: int, lo: float, hi: float):
    """``n`` radii spaced geometrically from ``lo`` to ``hi``, both exactly,
    or DomainError."""
    return allocated(lambda: np.geomspace(lo, hi, n),
                     f"sample-points {n} needs {n} doubles", n)


def cmd_map_sextic(cfg) -> int:
    rows, _, _, diags, code = _level(cfg)
    rho_range = _rho_range(rows[0]["state"].params) if rows else None
    for row in rows:
        mapped = to_sextic(row["state"])
        row.update(mapped.to_dict(), sextic_residual=sextic_residual(mapped))
        row.update(row["coefficients"])
        if not row["sextic_residual"] <= MAX_SEXTIC_RESIDUAL:
            diags.append(f"sextic map FAILED at root_index {row['root_index']}: residual "
                         f"{row['sextic_residual']!r} above {MAX_SEXTIC_RESIDUAL!r}")
            code = EXIT_VERIFICATION
        if cfg.sample_points:
            rho = _samples(cfg.sample_points, *rho_range)
            zeta = sextic_wavefunction(mapped, rho)
            row["samples"] = np.stack([rho, zeta], axis=1).tolist()
    _write(cfg, rows, diagnostics=diags)
    return code


def cmd_export(cfg) -> int:
    rows, grid, _, diags, code = _level(cfg)
    radii = _samples(cfg.sample_points, grid.r_min, grid.r_max)
    for row in rows:
        values = row["state"].radial_values(radii)
        row["samples"] = np.stack([radii, values], axis=1).tolist()
    _write(cfg, rows, diagnostics=diags)
    return code


_DISPATCH = {"solve": cmd_solve, "scan": cmd_scan, "verify": cmd_verify,
             "map-sextic": cmd_map_sextic, "export": cmd_export}


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
