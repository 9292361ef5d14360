import math

import numpy as np

from qeshydro._polyops import bisect


def full_loop(above, lo, hi, steps=200):
    """The plain fixed-count bisection that the early stop must reproduce."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestBisect:
    def test_matches_full_loop_on_random_thresholds(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            lo = float(rng.uniform(-10.0, 10.0))
            hi = lo + float(10.0 ** rng.uniform(-12.0, 6.0))
            threshold = float(rng.uniform(lo, hi))

            def above(x, t=threshold):
                return x < t

            assert bisect(above, lo, hi) == full_loop(above, lo, hi)

    def test_matches_full_loop_on_a_decaying_envelope(self):
        def above(r):
            return -0.5 * r * r - 3.0 * r > math.log(1e-12)

        assert bisect(above, 1e-12, 16.0) == full_loop(above, 1e-12, 16.0)

    def test_predicate_false_at_lo(self):
        def above(x):
            return x < 0.0

        assert bisect(above, 1.0, 5.0) == full_loop(above, 1.0, 5.0)

    def test_predicate_true_everywhere(self):
        def above(x):
            return True

        assert bisect(above, -3.0, 2.0) == full_loop(above, -3.0, 2.0)

    def test_stops_once_the_bracket_stops_moving(self):
        calls = []

        def above(x):
            calls.append(x)
            return x < 0.3

        bisect(above, 0.0, 1.0)
        assert len(calls) < 100
