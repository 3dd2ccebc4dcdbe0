"""Inputs and outputs of the verify suites.

The bulk draw of the hyperbolic suite must reproduce the per-triple draws it
replaced, value for value and with the generator left in the same state.  The
sampled oracle must keep its workload, circle for circle, so that a faster
pass cannot come from sampling less.  Each check's numbers are pinned at
seed 0, and each suite domain gets one plan.
"""

import math
from collections import Counter

import numpy as np
import pytest

from polysqueeze import verify
from polysqueeze.squeezing import DomainPlan
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


# Every check's detail at seed 0 but ``pinch.runtime``, which is wall time, in
# suite order.  Read with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux; the
# oracle error follows numpy's roundings, the hyperbolic round trips numpy's
# and libm's, and the Mobius invariance CPython's complex arithmetic (its
# triples are Python complex numbers) and libm's.
SEED_0_DETAILS = [
    ("pinch.upper_matches_min_modulus", "max_err=0.000e+00 tol=1e-12"),
    ("pinch.search_attains_closed_form", "min_margin=0.000e+00 floor=-1e-6"),
    ("mixed.exact_equals_second_modulus", "max_err=0.000e+00 tol=1e-12"),
    ("mixed.upper_matches_exact", "max_err=0.000e+00 tol=1e-12"),
    ("mixed.witness_inradius", "max_err=0.000e+00 tol=1e-4 samples=65536"),
    ("mixed.multi_puncture_exact", "max_err=0.000e+00 tol=1e-12 points=20"),
    ("mixed.multi_puncture_witness", "max_err=1.110e-16 tol=1e-4 samples=65536 points=20"),
    ("annulus[r=0.04].piecewise_formula", "max_err=2.776e-17 tol=1e-12 grid=1000"),
    ("annulus[r=0.04].branches_agree_at_sqrt_r", "gap=2.776e-17 tol=1e-12"),
    ("annulus[r=0.04].clearance_below_exact", "max_excess=0.000e+00 tol=1e-12"),
    ("annulus[r=0.04].grid_min_is_sqrt_r", "err=0.000e+00 tol=1e-6"),
    ("annulus[r=0.25].piecewise_formula", "max_err=0.000e+00 tol=1e-12 grid=1000"),
    ("annulus[r=0.25].branches_agree_at_sqrt_r", "gap=0.000e+00 tol=1e-12"),
    ("annulus[r=0.25].clearance_below_exact", "max_excess=0.000e+00 tol=1e-12"),
    ("annulus[r=0.25].grid_min_is_sqrt_r", "err=0.000e+00 tol=1e-6"),
    ("annulus[r=0.64].piecewise_formula", "max_err=1.110e-16 tol=1e-12 grid=1000"),
    ("annulus[r=0.64].branches_agree_at_sqrt_r", "gap=1.110e-16 tol=1e-12"),
    ("annulus[r=0.64].clearance_below_exact", "max_excess=0.000e+00 tol=1e-12"),
    ("annulus[r=0.64].grid_min_is_sqrt_r", "err=0.000e+00 tol=1e-6"),
    ("limit.outer.final_bound", "final=0.999833 floor=0.998"),
    ("limit.outer.nondecreasing_after_min", "argmin=0 min_tail_step=5.660e-06"),
    ("limit.inner.final_bound", "final=0.999500 floor=0.998"),
    ("limit.inner.nondecreasing_after_min", "argmin=0 min_tail_step=1.615e-05"),
    ("ball_ratios[n=2].value", "err=1.110e-16 tol=1e-15"),
    ("ball_ratios[n=2].both_ratios_fail", "up_margin=0.4142 down_margin=0.3536"),
    ("ball_ratios[n=3].value", "err=1.110e-16 tol=1e-15"),
    ("ball_ratios[n=3].both_ratios_fail", "up_margin=0.7321 down_margin=0.3849"),
    ("ball_ratios[n=4].value", "err=0.000e+00 tol=1e-15"),
    ("ball_ratios[n=4].both_ratios_fail", "up_margin=1.0000 down_margin=0.3750"),
    ("ball_ratios[n=5].value", "err=0.000e+00 tol=1e-15"),
    ("ball_ratios[n=5].both_ratios_fail", "up_margin=1.2361 down_margin=0.3578"),
    ("ball_ratios[n=2].margins", "up=0.4142>=0.41 down=0.3536>=0.35"),
    ("oracle.circle_min_vs_brute", "max_err=4.516e-08 tol=1e-4 pairs=1000 samples=65536"),
    ("hyperbolic.roundtrip_t_direction", "max_err=4.441e-16 tol=1e-12 range=[0,20]"),
    ("hyperbolic.roundtrip_x_direction", "max_err=1.110e-16 tol=1e-12 range=[0,0.999999]"),
    ("hyperbolic.mobius_invariance", "max_err=1.865e-14 tol=1e-12 triples=10000"),
    ("hhr.small_modulus_value", "value=0.0001 expected=1e-4"),
    ("hhr.flag_punctured", "punctured product flagged"),
    ("hhr.flag_polydisk", "polydisk not flagged"),
    ("hhr.flag_annulus", "annulus product not flagged"),
    ("family_gap.inclusion_branch_analytic", "search=0.285714286 analytic=0.285714286"),
    ("family_gap.reflection_branch_analytic", "search=0.285714286 analytic=0.285714286"),
    ("family_gap.strictly_below_exact",
     "exact=0.5 search=0.285714286 gap=0.2143 floor=0.05"),
    ("family_gap.report_tagged",
     "methods=ClosedForm,ProductLower,ClearanceLower,Search,FamilyGap"),
    ("family_gap.witness_sampled_vs_analytic",
     "max_err=1.304e-08 tol=1e-4 max_below=0.000e+00 floor=1e-12 witnesses=61 samples=65536"),
]


def test_seed_0_details_are_pinned():
    checks = run_suite("all", 0)
    assert all(c.passed for c in checks)
    assert [(c.name, c.detail) for c in checks if c.name != "pinch.runtime"] == SEED_0_DETAILS
    assert len(checks) == 46


# One plan for each domain a suite evaluates: pinch's two arities, mixed's two
# products, annulus's three radii, and family_gap's annulus times disk plus
# the four one-factor domains of its witness oracle.
PLANS_PER_SUITE = {"pinch": 2, "mixed": 2, "annulus": 3, "family_gap": 5}


@pytest.mark.parametrize("name", sorted(PLANS_PER_SUITE))
def test_each_suite_domain_gets_one_plan(name, monkeypatch):
    builds = []
    init = DomainPlan.__init__

    def counted(self, d):
        builds.append(d)
        init(self, d)

    monkeypatch.setattr(DomainPlan, "__init__", counted)
    assert all(c.passed for c in SUITES[name](0))
    assert len(builds) == len(set(builds)) == PLANS_PER_SUITE[name]
