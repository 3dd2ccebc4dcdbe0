"""Acceptance gate: every quantitative claim runs at its pinned tolerance.

One test per criterion; each prints a PASS/FAIL line per underlying check.
The hyperbolic criterion includes the inverse-then-forward identity of the
radial distance over [0, 20] at 1e-12.  A bare double tanh(t/2) cannot meet
it (rounding costs ~2e-8 at t = 20); it holds because ``sigma_inv`` carries
the complement 1 - x and ``sigma`` uses it.
"""

import pytest

from polysqueeze.verify import run_suite

CRITERIA = [
    ("pinch", "punctured-product pinch: upper bound and search meet min |z_i|"),
    ("mixed", "disk x punctured-disk, one or three punctures: exact, matching bounds, witness inradius"),
    ("annulus", "annulus x disk piecewise closed form on 1000-point grids"),
    ("limit", "boundary limit: clearance profile climbs to 1 on both sides"),
    ("ball_ratios", "ball products: both fixed-ratio hypotheses fail with margin"),
    ("oracle", "circle-minimum formula vs 65536-sample brute force, 1000 pairs"),
    ("hyperbolic", "radial distance identities and Mobius invariance"),
    ("hhr", "regularity evidence: punctures force the value under any epsilon"),
    ("family_gap", "annulus family honesty: search stays below the closed form"),
]


@pytest.mark.parametrize("suite,label", CRITERIA, ids=[s for s, _ in CRITERIA])
def test_criterion(suite, label):
    checks = run_suite(suite, seed=0)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    failed = [c for c in checks if not c.passed]
    assert not failed, f"{label}: " + "; ".join(
        f"{c.name} [{c.detail}]" for c in failed
    )
