"""The four workloads: seeded input streams, the unit of work each one times,
and the checks applied to every unit's output.

Inputs are drawn in blocks.  Each block is a Latin hypercube over the
workload's parameter ranges, so every block holds the same mix of levels,
couplings and m; runs on different seeds then differ in the points, not in
the mix.  The first block is the prefix: the ratio metrics are taken over
it.  A timed run is a whole number of blocks, fixed by ``--seconds`` and the
workload's nominal rate, so the units a run attempts, and those that fail,
depend on the seed and ``--seconds`` alone, not on the speed of the host.
Units are never repeated within a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

#: Exit codes the CLI contract allows: ok, usage, domain, verification.
CONTRACT_EXITS = (0, 2, 3, 4)


@dataclass(frozen=True)
class Unit:
    """One input.  The CLI workload fills ``command`` and ``argv``; ``scan``
    uses every combination of the tuples, the other commands their first
    entries."""

    omega_l: tuple
    k: tuple
    m: int
    level: tuple
    command: str = ""
    fmt: str = ""
    samples: int = 0
    argv: tuple = ()

    def cases(self):
        for w in sorted(self.omega_l):
            for k in sorted(self.k):
                for level in sorted(self.level):
                    yield w, k, level

    def describe(self) -> str:
        if self.argv:
            return "python -m qeshydro " + " ".join(self.argv)
        return (f"omega_l={self.omega_l[0]!r} k={self.k[0]!r} m={self.m} "
                f"level={self.level[0]}")


@dataclass
class Tally:
    """What the checks found in one unit."""

    expected: int = 0       # strengths the unit should return, 2j + 1 each
    found: int = 0          # strengths the algebraic route returned
    acc_expected: int = 0   # expected strengths whose values the output shows
    accurate: int = 0       # returned strengths matching the reference
    returned: int = 0       # states that carry a verification verdict
    verified: int = 0       # of those, states whose verdict is passed
    outside: int = 0        # returned strengths beyond the spectral bound
    cause: str | None = None
    violations: list = field(default_factory=list)

    def fail(self, cause: str) -> None:
        if self.cause is None:
            self.cause = cause

    def grade(self, m, w, k, level, strengths, energies) -> None:
        """Count and check the strengths returned for one (omega_l, k, level)."""
        self.found += len(strengths)
        self.acc_expected += level
        self.accurate += ref.count_accurate(
            strengths, ref.reference_strengths(level, m, w, k))
        self.outside += ref.outside_spectral_bound(level, m, w, k, strengths)
        self.violations += ref.invariant_violations(level, m, w, k, strengths,
                                                    energies)


class Outcome:
    """Everything one unit produced; each step's exception is kept, not raised."""

    def __init__(self):
        self.errors = []
        self.states = []
        self.reports = []
        self.series = []
        self.cross = None
        self.identity = None

    @contextlib.contextmanager
    def step(self):
        try:
            yield
        except Exception as exc:  # a failed unit is counted, not fatal
            self.errors.append(exc)


def latin_hypercube(rng: random.Random, n: int, dims: int):
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([(s + rng.random()) / n for s in strata])
    return list(zip(*cols))


def paired_hypercube(rng: random.Random, g: int, dims: int):
    """Latin hypercube of g*g points whose first two coordinates are also
    stratified jointly: each cell of a g x g grid holds exactly one point."""
    n = g * g
    joint = [[0.0] * n, [0.0] * n]
    for axis in (0, 1):
        for coarse in range(g):
            fine = list(range(g))
            rng.shuffle(fine)
            for other, f in enumerate(fine):
                cell = coarse * g + other if axis == 0 else other * g + coarse
                joint[axis][cell] = (coarse * g + f + rng.random()) / n
    rest = latin_hypercube(rng, n, dims - 2)
    points = [(joint[0][i], joint[1][i], *rest[i]) for i in range(n)]
    rng.shuffle(points)
    return points


def pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def log_spread(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def rational(u: float, lo: int, hi: int, den: int):
    """Rational in [lo, hi] with denominator ``den``; an int when whole."""
    value = Fraction(den * lo + pick(u, 0, den * (hi - lo)), den)
    return int(value) if value.denominator == 1 else value


#: Fewest units in a timed run, so that at least ten lie beyond its p90.
MIN_UNITS = 100


class Workload:
    name = ""
    block = 0
    rate = 0.0  # units/s at the recorded baseline, on 2 shared vCPUs

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.root = root
        self.units: list[Unit] = self.draw_block()

    @property
    def prefix_size(self) -> int:
        return self.block

    def run_size(self, seconds: float) -> int:
        """Units in a timed run: the whole blocks closest to ``seconds`` of
        work at the nominal rate, and at least ``MIN_UNITS``."""
        blocks = round(seconds * self.rate / self.block)
        return self.block * max(blocks, -(-MIN_UNITS // self.block))

    def unit(self, i: int) -> Unit:
        while i >= len(self.units):
            self.units += self.draw_block()
        return self.units[i]

    def draw_block(self) -> list[Unit]:
        raise NotImplementedError

    def run(self, q, u: Unit):
        """The timed unit of work."""
        raise NotImplementedError

    def replay(self, q, u: Unit):
        """The unit in this process, as the traced run executes it."""
        return self.run(q, u)

    def check(self, u: Unit, out) -> Tally:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    block = 351          # each level 27 times, each value of m 39 times
    rate = 137.0
    levels = (1, 13)

    def draw_block(self):
        return [
            Unit((log_spread(a, 0.2, 5.0),), (4.0 * b,), pick(c, -4, 4),
                 (pick(d, *self.levels),))
            for a, b, c, d in latin_hypercube(self.rng, self.block, 4)
        ]

    def run(self, q, u):
        out = Outcome()
        (w,), (k,), (level,) = u.omega_l, u.k, u.level
        j = (level - 1) / 2
        params = q.ModelParams(w, k, u.m)
        with out.step():
            out.states = q.solve_admissible_z(j, u.m, w, k)
            grid = q.RadialGrid.for_params(params)
            out.reports = [q.verify_state(s, grid=grid) for s in out.states]
        with out.step():
            out.cross = q.cross_validate(j, u.m, w, k)
        with out.step():
            rho = q.rho_grid_for(params)
            for s in out.states:
                q.sextic_residual(q.to_sextic(s), rho)
        return out

    def check(self, u, out):
        t = Tally(expected=u.level[0])
        for exc in out.errors:
            t.fail(type(exc).__name__)
        if out.cross is not None and not out.cross.passed:
            t.fail("cross_validate_failed")
        t.grade(u.m, u.omega_l[0], u.k[0], u.level[0],
                [s.z for s in out.states], [s.energy for s in out.states])
        t.returned = len(out.states)
        t.verified = sum(r.passed for r in out.reports)
        return t


class Deep(Sweep):
    name = "deep"
    block = 144          # 144 level strata, each value of m 16 times
    rate = 7.75
    levels = (14, 200)

    def draw_block(self):
        # Accuracy at high level depends on level and omega_l jointly, so
        # those two are stratified on a 12 x 12 grid as well.
        return [
            Unit((log_spread(b, 0.2, 5.0),), (4.0 * c,), pick(d, -4, 4),
                 (pick(a, *self.levels),))
            for a, b, c, d in paired_hypercube(self.rng, 12, 4)
        ]

    def run(self, q, u):
        out = Outcome()
        (w,), (k,), (level,) = u.omega_l, u.k, u.level
        with out.step():
            out.states = q.solve_admissible_z((level - 1) / 2, u.m, w, k)
        with out.step():
            out.series = q.solve_series_states(level, u.m, w, k)
        with out.step():
            grid = q.RadialGrid.for_params(q.ModelParams(w, k, u.m))
            out.reports = [q.verify_state(s, grid=grid) for s in out.states]
        return out

    def check(self, u, out):
        t = super().check(u, out)
        t.violations += ref.invariant_violations(
            u.level[0], u.m, u.omega_l[0], u.k[0], [s.z for s in out.series],
            [s.energy for s in out.series])
        return t


class Exact(Workload):
    name = "exact"
    block = 162          # each level and each value of m 18 times
    rate = 21.8

    def draw_block(self):
        return [
            Unit((rational(a, 1, 4, pick(b, 1, 3)),),
                 (rational(c, 0, 4, pick(d, 1, 3)),), pick(e, -4, 4),
                 (pick(f, 5, 13),))
            for a, b, c, d, e, f in latin_hypercube(self.rng, self.block, 6)
        ]

    def run(self, q, u):
        out = Outcome()
        (w,), (k,), (level,) = u.omega_l, u.k, u.level
        j = Fraction(level - 1, 2)
        with out.step():
            charpoly = q.characteristic_polynomial(q.build_qes_matrix(j, u.m, w, k))
            out.identity = (
                charpoly == q.constraint_polynomial(level, u.m, w, k).monic())
        with out.step():
            out.states = q.solve_admissible_z(j, u.m, w, k)
        with out.step():
            out.cross = q.cross_validate(j, u.m, w, k)
        return out

    def check(self, u, out):
        t = Tally(expected=u.level[0])
        for exc in out.errors:
            t.fail(type(exc).__name__)
        if out.identity is False:
            t.fail("identity_broken")
        if out.cross is not None and not out.cross.passed:
            t.fail("cross_validate_failed")
        t.grade(u.m, u.omega_l[0], u.k[0], u.level[0],
                [s.z for s in out.states], [s.energy for s in out.states])
        t.returned = len(out.states)
        if out.cross is not None and out.cross.passed:
            t.verified = len(out.states)
        return t


#: (command, format) pairs; ``verify`` always writes JSON.
CLI_MIX = (("solve", "json"), ("solve", "csv"), ("verify", "json"),
           ("map-sextic", "json"), ("map-sextic", "csv"), ("scan", "json"),
           ("scan", "csv"), ("export", "json"), ("export", "csv"))

STATE_KEYS = {"level", "j", "z", "energy", "poly", "norm_constant", "verification"}
SEXTIC_KEYS = {"m_tilde", "coefficients", "eigenvalue", "sextic_residual"}
CSV_HEADERS = {
    "solve": "omega_l,k,m,level,j,root_index,z,energy,norm_constant,"
             "max_residual,norm_error,node_count",
    "scan": "omega_l,k,m,level,root_index,z,energy,max_residual,node_count",
    "map-sextic": "root_index,m_tilde,centrifugal,rho2,rho4,rho6,eigenvalue,"
                  "sextic_residual,z,energy",
    "export": "root_index,r,radial_value",
}


class BadOutput(ValueError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise BadOutput(what)


def csv_table(text: str, header: str) -> list[dict]:
    lines = text.split("\n")
    require(lines[0] == header, f"CSV header {lines[0]!r}")
    names = header.split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
    require(all(len(r) == len(names) for r in rows), "CSV row width")
    return rows


def child_env(root: str) -> dict:
    """Environment for child processes that import qeshydro from ./src."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(root, "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Cli(Workload):
    name = "cli"
    block = 36           # each (command, format) pair 4 times, each level 6
    rate = 2.99

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = child_env(root)

    def draw_block(self):
        units = []
        for a, b, c, d, e, f in latin_hypercube(self.rng, self.block, 6):
            command, fmt = CLI_MIX[pick(a, 0, len(CLI_MIX) - 1)]
            w, k, m, level = log_spread(b, 0.2, 5.0), 4.0 * c, pick(d, -4, 4), pick(e, 1, 6)
            samples = 0
            if command == "scan":
                omegas = (w, log_spread(self.rng.random(), 0.2, 5.0))
                ks = (k, 4.0 * self.rng.random())
                levels = tuple(sorted({level, pick(self.rng.random(), 1, 6)}))
                argv = ["--omega-l-list", ",".join(map(repr, omegas)),
                        "--k-list", ",".join(map(repr, ks)),
                        "--level-list", ",".join(map(str, levels))]
            else:
                omegas, ks, levels = (w,), (k,), (level,)
                argv = ["--omega-l", repr(w), "--k", repr(k), "--level", str(level)]
                if command in ("map-sextic", "export"):
                    samples = pick(f, 10, 100)
                    argv += ["--sample-points", str(samples)]
            argv = [command, *argv, "--m", str(m), "--format", fmt]
            units.append(Unit(omegas, ks, m, levels, command, fmt, samples,
                              tuple(argv)))
        return units

    def run(self, q, u):
        try:
            proc = subprocess.run([sys.executable, "-m", "qeshydro", *u.argv],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=120)
        except subprocess.TimeoutExpired:
            return None, "", "timeout"
        return proc.returncode, proc.stdout, proc.stderr

    def replay(self, q, u):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = q.cli.main(list(u.argv))
            except Exception as exc:  # the process would exit 1 with a traceback
                code = 1
                err.write(f"Traceback\n{type(exc).__name__}: {exc}\n")
        return code, out.getvalue(), err.getvalue()

    def check(self, u, out):
        code, stdout, stderr = out
        t = Tally(expected=sum(level for _, _, level in u.cases()))
        if code not in CONTRACT_EXITS or "Traceback" in stderr:
            last = stderr.strip().rsplit("\n", 1)[-1]
            t.fail(f"exit {code} {last.split(':', 1)[0]}")
        elif code in (0, 4):
            try:
                self._parse(u, code, stdout, t)
            except (BadOutput, ValueError, KeyError, TypeError, IndexError,
                    AttributeError) as exc:
                t.fail(f"bad_output: {exc}")
        return t

    def _parse(self, u, code, text, t):
        w, k, level = next(u.cases())
        if u.command == "verify" or (u.command != "scan" and u.fmt == "json"):
            payload = json.loads(text)
            params = payload["parameters"]
            require((params["omega_l"], params["k"], params["m"], params["level"])
                    == (w, k, u.m, level), "parameters echo")
        if u.command == "verify":
            reports = payload["reports"]
            require(all(isinstance(r["passed"], bool) for r in reports), "report shape")
            require(payload["passed"] == (code == 0), "passed flag vs exit code")
            t.found += len(reports)
            t.returned += len(reports)
            t.verified += sum(r["passed"] for r in reports)
            return
        if u.command == "scan":
            if u.fmt == "json":
                rows = json.loads(text)["rows"]
            else:
                rows = csv_table(text.rstrip("\n"), CSV_HEADERS["scan"])
            groups = {}
            for row in rows:
                key = (float(row["omega_l"]), float(row["k"]), int(row["m"]),
                       int(row["level"]))
                groups.setdefault(key, []).append(row)
            require(set(groups) <= {(cw, ck, u.m, cl) for cw, ck, cl in u.cases()},
                    "scan rows outside the requested grid")
            for cw, ck, cl in u.cases():
                rows = groups.get((cw, ck, u.m, cl), [])
                t.grade(u.m, cw, ck, cl, [float(r["z"]) for r in rows],
                        [float(r["energy"]) for r in rows])
            return
        if u.fmt == "json":
            states = payload["states"]
            for s in states:
                require(STATE_KEYS <= set(s) and len(s["poly"]) == level, "state shape")
                if u.command == "map-sextic":
                    require(SEXTIC_KEYS <= set(s) and s["eigenvalue"] == 4.0 * s["z"],
                            "sextic entry")
                if u.samples:
                    require(len(s["samples"]) == u.samples, "sample count")
            zs = [s["z"] for s in states]
            energies = [s["energy"] for s in states]
        else:
            tables = text.rstrip("\n").split("\n\n")
            rows = csv_table(tables[0], CSV_HEADERS[u.command])
            if u.command == "export":
                # Radial samples only: the strengths are not shown.
                roots = {int(r["root_index"]) for r in rows}
                require(len(rows) == u.samples * len(roots), "sample count")
                t.found += len(roots)
                return
            zs = [float(r["z"]) for r in rows]
            energies = [float(r["energy"]) for r in rows]
            if u.command == "map-sextic" and rows:
                require(all(float(r["eigenvalue"]) == 4.0 * float(r["z"]) for r in rows),
                        "sextic eigenvalue")
                samples = csv_table(tables[1], "root_index,rho,zeta")
                require(len(samples) == u.samples * len(rows), "sample count")
        t.grade(u.m, w, k, level, zs, energies)


WORKLOADS = {cls.name: cls for cls in (Cli, Sweep, Exact, Deep)}
