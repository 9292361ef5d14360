"""Spans around qeshydro's layer boundaries, for the traced run only.

``Tracer.install`` replaces module attributes with timing wrappers.  A name
bound by ``from .x import f`` in another module is a separate reference, so
every loaded ``qeshydro`` module is searched for the original object and each
binding is replaced; module-internal calls look names up in the module dict,
so nested calls are caught too.  Spans stay in memory until the run ends.
Nothing runs concurrently, so no layer ever waits: there is no wait time to
report.
"""

from __future__ import annotations

import functools
import importlib
import subprocess
import sys
import time

#: (module, attribute) pairs wrapped in the traced run.
TARGETS = (
    ("cli", "main"), ("cli", "_json_dump"), ("cli", "_csv_table"), ("cli", "_emit"),
    ("sl2", "solve_admissible_z"), ("sl2", "characteristic_polynomial"),
    ("sl2", "build_qes_matrix"),
    ("_polyops", "real_roots"), ("_polyops", "newton_polish"),
    ("series", "solve_series_states"), ("series", "constraint_polynomial"),
    ("model", "envelope_r_max"), ("model", "l2_norm_constant"),
    ("model", "radial_operator_apply"),
    ("verify", "verify_state"), ("verify", "_norm_estimate"),
    ("verify", "count_nodes"), ("verify", "cross_validate"),
    ("sextic", "rho_grid_for"), ("sextic", "sextic_residual"),
)
GRID = "model.RadialGrid.for_params"

# Span fields.
NAME, START, END, PARENT, UNIT, SIZE, ARG0, RAISED = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unit = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arg0 = args[0] if args and isinstance(args[0], int) else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.unit,
                    None, arg0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                stack.pop()
                span[END] = clock()
            if isinstance(result, list):
                span[SIZE] = len(result)
            return result

        return traced

    def install(self, q) -> list[str]:
        """Wrap every target; return the names the package no longer has."""
        importlib.import_module("qeshydro.cli")
        modules = [mod for name, mod in sys.modules.items()
                   if name == "qeshydro" or name.startswith("qeshydro.")]
        missing = []
        for modname, attr in TARGETS:
            original = getattr(getattr(q, modname, None), attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        grid = q.model.RadialGrid
        original = grid.__dict__["for_params"]
        self._restore.append((grid, "for_params", original))
        grid.for_params = classmethod(self._wrap(GRID, original.__func__))
        return missing

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]


def layer_metrics(tracer: Tracer, walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the units traced with ``walls`` as their wall
    times, and report lines with the self time of every span name."""
    units = len(walls)
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    top = [0.0] * units
    first_solve: dict[int, int] = {}
    series_found = series_expected = series_raised = 0
    for span, own in zip(tracer.spans, selfs):
        stats = by_name.setdefault(span[NAME], [0.0, 0, 0.0])
        stats[0] += own
        stats[1] += 1
        stats[2] += span[END] - span[START]
        if span[PARENT] < 0:
            top[span[UNIT]] += span[END] - span[START]
        if span[NAME] == "sl2.solve_admissible_z" and span[SIZE] is not None:
            first_solve.setdefault(span[UNIT], span[SIZE])
        if span[NAME] == "series.solve_series_states":
            series_expected += span[ARG0]
            series_found += span[SIZE] or 0
            series_raised += span[RAISED]

    remainder = sum(walls) - sum(top)
    total_self = sum(selfs)
    if abs(total_self + remainder - sum(walls)) > 1e-9 * max(1.0, sum(walls)):
        raise RuntimeError("layer self times and remainder do not add up to "
                           "the unit wall time")

    def self_ms(name):
        return 1e3 * by_name.get(name, [0.0])[0] / units

    def calls(name):
        return by_name.get(name, [0.0, 0])[1]

    states = sum(first_solve.values())
    metrics = {
        "cli.main_ms": (1e3 * by_name.get("cli.main", [0, 0, 0.0])[2] / units,
                        "ms/unit"),
        "cli.emit_ms": (sum(self_ms(f"cli.{n}") for n in ("_json_dump", "_csv_table",
                                                           "_emit")), "ms/unit"),
        "sl2.solve_admissible_z.self_ms": (self_ms("sl2.solve_admissible_z"), "ms/unit"),
        "sl2.solve_admissible_z.calls_per_unit":
            (calls("sl2.solve_admissible_z") / units, "count/unit"),
        "sl2.characteristic_polynomial.ms":
            (self_ms("sl2.characteristic_polynomial"), "ms/unit"),
        "sl2.characteristic_polynomial.calls_per_unit":
            (calls("sl2.characteristic_polynomial") / units, "count/unit"),
        "sl2.build_qes_matrix.ms": (self_ms("sl2.build_qes_matrix"), "ms/unit"),
        "polyops.real_roots.ms": (self_ms("_polyops.real_roots"), "ms/unit"),
        "polyops.newton_polish.calls":
            (calls("_polyops.newton_polish") / units, "count/unit"),
        "series.solve_series_states.self_ms":
            (self_ms("series.solve_series_states"), "ms/unit"),
        "series.constraint_polynomial.ms":
            (self_ms("series.constraint_polynomial"), "ms/unit"),
        "series.roots_found_ratio":
            (series_found / series_expected if series_expected else 0.0, "ratio"),
        "series.exceptions": (series_raised, "count"),
        "model.envelope_r_max.ms": (self_ms("model.envelope_r_max"), "ms/unit"),
        "model.envelope_r_max.calls_per_unit":
            (calls("model.envelope_r_max") / units, "count/unit"),
        "model.l2_norm_constant.ms": (self_ms("model.l2_norm_constant"), "ms/unit"),
        "model.l2_norm_constant.calls_per_state":
            (calls("model.l2_norm_constant") / states if states else 0.0,
             "count/state"),
        "model.RadialGrid.for_params.ms": (self_ms(GRID), "ms/unit"),
        "model.radial_operator_apply.ms":
            (self_ms("model.radial_operator_apply"), "ms/unit"),
        "verify.verify_state.self_ms": (self_ms("verify.verify_state"), "ms/unit"),
        "verify._norm_estimate.ms": (self_ms("verify._norm_estimate"), "ms/unit"),
        "verify.count_nodes.ms": (self_ms("verify.count_nodes"), "ms/unit"),
        "verify.cross_validate.self_ms": (self_ms("verify.cross_validate"), "ms/unit"),
        "sextic.rho_grid_for.ms": (self_ms("sextic.rho_grid_for"), "ms/unit"),
        "sextic.sextic_residual.ms": (self_ms("sextic.sextic_residual"), "ms/unit"),
        "trace.remainder_ms": (1e3 * remainder / units, "ms/unit"),
    }
    wall = sum(walls)
    lines = [f"{'span':40s} {'calls/unit':>11s} {'self ms/unit':>13s} {'share':>7s}"]
    for name, (own, n, _) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"{name:40s} {n / units:11.3f} {1e3 * own / units:13.4f} "
                     f"{own / wall:7.1%}")
    lines.append(f"{'(untraced remainder)':40s} {'':11s} {1e3 * remainder / units:13.4f} "
                 f"{remainder / wall:7.1%}")
    return metrics, lines


def import_times(env: dict, cwd: str, runs: int = 3) -> dict:
    """``-X importtime`` of ``import qeshydro.cli`` in fresh processes: the
    cumulative cost of the package and the self time of numpy and scipy
    modules, medians over ``runs`` processes."""
    samples = {"cli.import_ms": [], "cli.import_numpy_ms": [], "cli.import_scipy_ms": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import qeshydro.cli"], capture_output=True,
                              text=True, env=env, cwd=cwd, timeout=120, check=True)
        total = {key: 0.0 for key in samples}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            own, cumulative, name = int(fields[0].split(":")[1]), int(fields[1]), fields[2]
            module = name.strip()
            if module.startswith("qeshydro") and len(name) - len(name.lstrip()) == 1:
                total["cli.import_ms"] += cumulative / 1e3
            for lib in ("numpy", "scipy"):
                if module == lib or module.startswith(lib + "."):
                    total[f"cli.import_{lib}_ms"] += own / 1e3
        for key in samples:
            samples[key].append(total[key])
    return {key: (sorted(v)[len(v) // 2], "ms") for key, v in samples.items()}
