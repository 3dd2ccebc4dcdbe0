"""Inputs of the verify suites.

The bulk draw of the hyperbolic suite must reproduce the per-triple draws it
replaced, value for value and with the generator left in the same state.  The
sampled oracle must keep its workload, circle for circle, so that a faster
pass cannot come from sampling less.
"""

import math
from collections import Counter

import numpy as np
import pytest

from polysqueeze import verify
from polysqueeze.verify import SUITES, _hyperbolic_draws, _random_disk_points, run_suite


@pytest.mark.parametrize("seed", range(4))
def test_hyperbolic_draws_reproduce_per_triple_stream(seed):
    count = 10000
    old_rng = np.random.default_rng(seed)
    old_points, old_thetas = [], []
    for _ in range(count):
        old_points.append(_random_disk_points(old_rng, 3, 0.0, 0.85))
        old_thetas.append(old_rng.uniform(0.0, 2.0 * math.pi))
    new_rng = np.random.default_rng(seed)
    points, thetas = _hyperbolic_draws(new_rng, count)

    assert points.dtype == np.complex128 and points.shape == (count, 3)
    assert isinstance(points[0][0], np.complex128)
    # bit patterns, so that even the sign of a zero must match
    assert np.array_equal(points.view(np.int64), np.array(old_points).view(np.int64))
    assert np.array_equal(thetas.view(np.int64), np.array(old_thetas).view(np.int64))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_verify_samples_1361_circles_of_65536_points(monkeypatch):
    circles = Counter()
    suite = [None]
    sampler = verify._sampled_circle_min

    def counting(sq, radius, m):
        circles[suite[0], m] += 1
        return sampler(sq, radius, m)

    def tagged(name, fn):
        def run(seed):
            suite[0] = name
            return fn(seed)
        return run

    monkeypatch.setattr(verify, "_sampled_circle_min", counting)
    for name, fn in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, tagged(name, fn))
    checks = run_suite("all")
    assert all(c.passed for c in checks)
    assert circles == {("oracle", 65536): 1000, ("mixed", 65536): 240,
                       ("family_gap", 65536): 121}
