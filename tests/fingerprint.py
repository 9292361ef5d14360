"""Fingerprint of what the program returns on the benchmark's seeded units.

    python tests/fingerprint.py record DIR [--src SRC] [--workload NAME]...
    python tests/fingerprint.py compare OLD_DIR NEW_DIR [--workload NAME]...

``record`` runs the prefix (the first block) of each workload's units, as
``perfbench/workloads.py`` draws them for seed 1, in this process, with
the package imported from SRC: by default the ``src`` of this checkout;
give another checkout's ``src`` to fingerprint that one.  It writes
``DIR/<workload>.jsonl.gz``, one line per unit, with every field the unit
returned: strengths, energies, polynomial coefficients, norm constants,
report fields, exceptions, and for ``cli`` the exit code and output.  A
unit whose run calls ``sextic_residual`` (a ``sweep`` unit, once per state
on the unit's rho grid) also gets each value it returned, although the
run discards them, as ``sextic_residual[i]`` in call order.  Field
names are flattened, as in ``states[3].poly[17]``.  JSON numbers round-trip
floats bit for bit.  It prints one SHA-256 digest per workload.

``--workload`` limits either mode to the named workloads, in the order
given; it can be repeated.  Without it, both run ``cli``, ``sweep``,
``exact`` and ``deep``.  A workload's file and digest do not depend on
which others run.

``compare`` reads two such directories.  For each workload it names the
first unit and field that differ, with the difference of two floats in
units in the last place (ulp).  It then counts the units that differ, and
for each field that differs (indices dropped) the units and the lowest
level where it does; for a float field also the largest relative
difference, ``|a - b| / max(|a|, |b|)``, and the unit where it occurs, so
a numeric change shows its size.  For each side it counts the states with a
verification report, those whose node count equals their index in
ascending order, and those that passed, separately for states at levels
up to 13 and above 13, so a change at desk scale does not hide in the
totals at depth.  It exits 1 when any unit differs.

This is a tool, not a test.  From level 16, what is computed from a
state's polynomial factor on arrays of points follows the BLAS kernel (see
``qeshydro._polyops``): the norm constants of both routes, and each
report's residual and norm error.  So two hosts, or two BLAS thread
counts, may differ in their last digits; so may the eigensolver's
coefficients from about level 127.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import math
import re
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORDER = ("cli", "sweep", "exact", "deep")


def flatten(value, name: str, out: dict) -> dict:
    """``value`` as scalar fields of ``out``, named from ``name``."""
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{name}.{key}" if name else key, out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            flatten(item, f"{name}[{i}]", out)
    else:
        out[name] = value
    return out


def unit_fields(name: str, out, sextic_residuals=()) -> dict:
    """The fields of one unit's outcome, with the values its run's
    ``sextic_residual`` calls returned."""
    if name == "cli":
        code, stdout, stderr = out
        return {"exit": code, "stdout": stdout, "stderr": stderr}
    fields = {
        "errors": [f"{type(e).__name__}: {e}" for e in out.errors],
        "states": [s.to_dict() for s in out.states],
        "series": [s.to_dict() for s in out.series],
        "reports": [r.to_dict() for r in out.reports],
    }
    if out.cross is not None:
        fields["cross"] = out.cross.to_dict()
    if out.identity is not None:
        fields["identity"] = out.identity
    if sextic_residuals:
        fields["sextic_residual"] = list(sextic_residuals)
    return flatten(fields, "", {})


def recorded_calls(module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that appends each value it
    returns to the list returned here."""
    values = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        values.append(original(*args, **kwargs))
        return values[-1]

    setattr(module, name, recording)
    return values


def record(args) -> int:
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    q = importlib.import_module("qeshydro")
    importlib.import_module("qeshydro.cli")
    if not Path(q.__file__).resolve().is_relative_to(src):
        sys.exit(f"fingerprint: qeshydro was imported from {q.__file__}, not {src}")
    workloads = importlib.import_module("workloads")
    residuals = recorded_calls(q, "sextic_residual")
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.workloads or ORDER:
        wl = workloads.WORKLOADS[name](1, str(ROOT))
        digest = hashlib.sha256()
        with gzip.open(outdir / f"{name}.jsonl.gz", "wt", encoding="utf-8") as fh:
            for i in range(wl.prefix_size):
                u = wl.unit(i)
                residuals.clear()
                fields = unit_fields(name, wl.replay(q, u), residuals)
                line = json.dumps({"unit": i, "describe": u.describe(),
                                   "level": max(u.level), "fields": fields})
                digest.update(line.encode("utf-8") + b"\n")
                fh.write(line + "\n")
        print(f"{name}: {wl.prefix_size} units, sha256 {digest.hexdigest()}")
    return 0


def load(path: Path) -> list[dict]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def ulps(a: float, b: float) -> int | None:
    """Units in the last place between two finite floats."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return None

    def ordered(v: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", v))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(a) - ordered(b))


def same(a, b) -> bool:
    """Equal values of equal types; floats by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def describe_difference(a, b) -> str:
    if isinstance(a, float) and isinstance(b, float):
        n = ulps(a, b)
        return f"{a!r} vs {b!r}" + ("" if n is None else f", {n} ulp")
    if isinstance(a, str) and isinstance(b, str):
        lines = list(zip(a.splitlines(), b.splitlines()))
        at = next((i for i, (x, y) in enumerate(lines) if x != y), len(lines))
        x, y = (lines[at] if at < len(lines) else ("<end>", "<end>"))
        return f"line {at + 1}: {x!r} vs {y!r}"
    return f"{a!r} vs {b!r}"


def relative_difference(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)`` of two floats: 0 when they are equal
    (two signed zeros), inf when either is not finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def state_counts(units: list[dict]) -> dict[str, list[int]]:
    """[reported states, node count == index, passed] over the units, by
    the band of the state's level: "levels <= 13" or "levels > 13"."""
    counts: dict[str, list[int]] = {}
    for unit in units:
        fields = unit["fields"]
        i = 0
        while f"reports[{i}].passed" in fields:
            level = int(re.search(r"level=(\d+)", fields[f"reports[{i}].state"])[1])
            band = counts.setdefault("levels <= 13" if level <= 13
                                     else "levels > 13", [0, 0, 0])
            band[0] += 1
            band[1] += fields.get(f"reports[{i}].node_count") == i
            band[2] += fields[f"reports[{i}].passed"] is True
            i += 1
    return counts


def compare(args) -> int:
    old_dir, new_dir = Path(args.old), Path(args.new)
    differ_any = False
    for name in args.workloads or ORDER:
        old, new = load(old_dir / f"{name}.jsonl.gz"), load(new_dir / f"{name}.jsonl.gz")
        print(f"{name}: {len(old)} vs {len(new)} units")
        first = None
        differing = 0
        by_field: dict[str, list[int]] = {}
        # (largest relative difference, unit) of each differing float field.
        largest: dict[str, tuple[float, dict]] = {}
        for a, b in zip(old, new):
            fa, fb = a["fields"], b["fields"]
            keys = list(fa) + [k for k in fb if k not in fa]
            changed = [k for k in keys
                       if k not in fa or k not in fb or not same(fa[k], fb[k])]
            if not changed:
                continue
            differing += 1
            if first is None:
                k = changed[0]
                first = (f"  first difference: unit {a['unit']} ({a['describe']}), "
                         f"{k}: " + describe_difference(fa.get(k, "<absent>"),
                                                        fb.get(k, "<absent>")))
            for field in {re.sub(r"\[\d+\]", "[]", k) for k in changed}:
                by_field.setdefault(field, []).append(a["level"])
            for k in changed:
                x, y = fa.get(k), fb.get(k)
                if isinstance(x, float) and isinstance(y, float):
                    field = re.sub(r"\[\d+\]", "[]", k)
                    rel = relative_difference(x, y)
                    if field not in largest or rel > largest[field][0]:
                        largest[field] = (rel, a)
        print(f"  units that differ: {differing}")
        if first:
            differ_any = True
            print(first)
        for field, levels in sorted(by_field.items()):
            size = ""
            if field in largest:
                rel, unit = largest[field]
                size = (f", largest relative difference {rel:.3g} at unit "
                        f"{unit['unit']} ({unit['describe']})")
            print(f"  {field}: {len(levels)} units, lowest level {min(levels)}{size}")
        for side, units in (("old", old), ("new", new)):
            for band, (reported, indexed, passed) in sorted(state_counts(units).items()):
                print(f"  {side}, {band}: {reported} reported states, "
                      f"node_count == index {indexed}, passed {passed}")
    return 1 if differ_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="fingerprint one checkout")
    rec.add_argument("dir")
    rec.add_argument("--src", default=str(ROOT / "src"))
    cmp_ = sub.add_parser("compare", help="compare two fingerprints")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    for mode in (rec, cmp_):
        mode.add_argument("--workload", action="append", choices=ORDER,
                          dest="workloads", help="only this workload (repeatable)")
    args = parser.parse_args(argv)
    return record(args) if args.mode == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
