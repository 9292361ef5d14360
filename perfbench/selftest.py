"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

They check the reference against mpmath at high precision, show that the
accuracy gate rejects a perturbed strength, and run short sets of the
benchmark itself.  The name keeps them out of the package's pytest run; they
take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import mpmath
import numpy as np

import reference as ref
import suite

ROOT = os.path.dirname(suite.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
import qeshydro  # noqa: E402


def mp_strengths(level, m, omega_l, k, dps=50):
    """Eigenvalues of the unsymmetrized QES matrix of the ``sl2`` docstring."""
    with mpmath.workdps(dps):
        w, kk, am, two_j = mpmath.mpf(omega_l), mpmath.mpf(k), abs(m), level - 1
        a = mpmath.zeros(level)
        for n in range(level):
            a[n, n] = (kk / w) * (n + am + mpmath.mpf(1) / 2)
            if n >= 1:
                a[n - 1, n] = -n * (am + mpmath.mpf(n) / 2)
                a[n, n - 1] = -w * (two_j - n + 1)
        values = mpmath.eig(a, left=False, right=False)
        return sorted(float(mpmath.re(v)) for v in values)


class Reference(unittest.TestCase):
    def test_matches_mpmath(self):
        for level, m, w, k in ((40, 0, 1.0, 1.0), (13, -4, 0.2, 4.0), (25, 3, 5.0, 0.5)):
            exact = np.array(mp_strengths(level, m, w, k))
            got = ref.reference_strengths(level, m, w, k)
            rel = float(np.max(np.abs(got - exact))) / max(1.0, float(np.max(np.abs(exact))))
            self.assertLess(rel, 1e-13, (level, m, w, k))

    def test_program_route_is_graded_against_it(self):
        # At level 40 the general eig route is about 1e-7 off, far outside the
        # gate; at level 5 it agrees to rounding.
        for level, accurate in ((5, True), (40, False)):
            states = qeshydro.solve_admissible_z((level - 1) / 2, 0, 1.0, 1.0)
            hits = ref.count_accurate([s.z for s in states],
                                      np.array(mp_strengths(level, 0, 1.0, 1.0)))
            self.assertEqual(hits == level, accurate, level)


class Gate(unittest.TestCase):
    def setUp(self):
        self.level, self.m, self.w, self.k = 9, -2, 0.7, 1.3
        self.reference = ref.reference_strengths(self.level, self.m, self.w, self.k)

    def test_accepts_reference(self):
        self.assertEqual(ref.count_accurate(self.reference, self.reference), self.level)

    def test_rejects_one_strength_shifted_by_1e6(self):
        shifted = self.reference.copy()
        shifted[3] *= 1 + 1e-6
        self.assertEqual(ref.count_accurate(shifted, self.reference), self.level - 1)

    def test_rejects_duplicates_and_counts_missing(self):
        z = list(self.reference[:4]) + [self.reference[3]]
        self.assertEqual(ref.count_accurate(z, self.reference), 4)

    def test_invariants(self):
        energy, _ = ref.closed_form_energy(self.level, self.m, self.w, self.k)
        z = list(self.reference)
        ok = ref.invariant_violations(self.level, self.m, self.w, self.k, z,
                                      [energy] * self.level)
        self.assertEqual(ok, [])
        for strengths, energies in ((z[::-1], [energy]), (z + [0.0], [energy]),
                                    (z, [energy * (1 + 1e-9)]), ([float("nan")], [])):
            self.assertTrue(ref.invariant_violations(
                self.level, self.m, self.w, self.k, strengths, energies))

    def test_spectral_bound(self):
        z = [self.reference[0], 10 * float(np.max(np.abs(self.reference)))]
        self.assertEqual(ref.outside_spectral_bound(self.level, self.m, self.w,
                                                    self.k, z), 1)


class Benchmark(unittest.TestCase):
    def test_two_short_sets_agree_within_bounds(self):
        metrics = suite.spec()["end_to_end"]
        seeds = (1, 2, 3)
        sets = [[suite.run_once("sweep", seed, 2) for seed in seeds] for _ in range(2)]
        for first, second in zip(*sets):
            self.assertTrue(first["correct"] and second["correct"])
            self.assertEqual((first["attempted"], first["failed"]),
                             (second["attempted"], second["failed"]))
            for name in ("roots_found_ratio", "accurate_ratio"):
                self.assertEqual(first["metrics"][name], second["metrics"][name])
        for m in metrics:
            if m["name"] == "setup_s":
                continue  # its spread has no limit; only medians are compared
            a, b = (suite.spread([r["metrics"][m["name"]]["value"] for r in s])[0]
                    for s in sets)
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            self.assertLessEqual(worse, m["bound"], m["name"])

    def test_trace_counts(self):
        sweep = suite.run_once("sweep", 1, 1, trace=1)["metrics"]
        names = {m["name"] for m in suite.spec()["per_layer"]}
        self.assertEqual(set(sweep), names)
        self.assertEqual(sweep["sl2.solve_admissible_z.calls_per_unit"]["value"], 2)
        exact = suite.run_once("exact", 1, 1, trace=1)["metrics"]
        times = {n: v["value"] for n, v in exact.items()
                 if v["unit"] == "ms/unit" and n != "cli.main_ms"}
        self.assertEqual(max(times, key=times.get), "sl2.characteristic_polynomial.ms")

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(suite.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
