"""Acceptance gate: every quantitative claim runs at its pinned tolerance.

One test per criterion; each prints a PASS/FAIL line per underlying check.
The hyperbolic criterion includes the inverse-then-forward identity of the
radial distance over [0, 20] at 1e-12.  A bare double tanh(t/2) cannot meet
it (rounding costs ~2e-8 at t = 20); it holds because ``sigma_inv`` carries
the complement 1 - x and ``sigma`` uses it.

The check inventory is pinned too: the benchmark's ``points_per_s`` counts
check rows, so a dropped or added row would read as a speed change.
"""

from functools import cache

import pytest

from polysqueeze.verify import SUITES, run_suite

# One run per suite serves both the criteria and the inventory.
suite_checks = cache(run_suite)

CRITERIA = [
    ("pinch", "punctured-product pinch: upper bound and search meet min |z_i|"),
    ("mixed", "disk x punctured-disk, one or three punctures: exact, matching bounds, witness inradius"),
    ("annulus", "annulus x disk piecewise closed form on 1000-point grids"),
    ("limit", "boundary limit: clearance profile climbs to 1 on both sides"),
    ("ball_ratios", "ball products: both fixed-ratio hypotheses fail with margin"),
    ("oracle", "circle-minimum formula vs the refined sampled minimum, 1000 pairs and 100 close ones"),
    ("hyperbolic", "radial distance identities and Mobius invariance"),
    ("hhr", "regularity evidence: punctures force the value under any epsilon"),
    ("family_gap", "annulus family honesty: search stays below the closed form"),
]


@pytest.mark.parametrize("suite,label", CRITERIA, ids=[s for s, _ in CRITERIA])
def test_criterion(suite, label):
    checks = suite_checks(suite, 0)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    failed = [c for c in checks if not c.passed]
    assert not failed, f"{label}: " + "; ".join(
        f"{c.name} [{c.detail}]" for c in failed
    )


INVENTORY = {
    "pinch": [
        "pinch.upper_matches_min_modulus",
        "pinch.search_attains_closed_form",
        "pinch.runtime",
    ],
    "mixed": [
        "mixed.exact_equals_second_modulus",
        "mixed.upper_matches_exact",
        "mixed.witness_inradius",
        "mixed.multi_puncture_exact",
        "mixed.multi_puncture_witness",
    ],
    "annulus": [
        f"annulus[r={r}].{check}"
        for r in ("0.04", "0.25", "0.64")
        for check in ("piecewise_formula", "branches_agree_at_sqrt_r",
                      "clearance_below_exact", "grid_min_is_sqrt_r")
    ],
    "limit": [
        "limit.outer.final_bound",
        "limit.outer.nondecreasing_after_min",
        "limit.inner.final_bound",
        "limit.inner.nondecreasing_after_min",
    ],
    "ball_ratios": [
        "ball_ratios[n=2].value",
        "ball_ratios[n=2].both_ratios_fail",
        "ball_ratios[n=3].value",
        "ball_ratios[n=3].both_ratios_fail",
        "ball_ratios[n=4].value",
        "ball_ratios[n=4].both_ratios_fail",
        "ball_ratios[n=5].value",
        "ball_ratios[n=5].both_ratios_fail",
        "ball_ratios[n=2].margins",
    ],
    "oracle": ["oracle.circle_min_vs_brute"],
    "hyperbolic": [
        "hyperbolic.roundtrip_t_direction",
        "hyperbolic.roundtrip_x_direction",
        "hyperbolic.mobius_invariance",
    ],
    "hhr": [
        "hhr.small_modulus_value",
        "hhr.flag_punctured",
        "hhr.flag_polydisk",
        "hhr.flag_annulus",
    ],
    "family_gap": [
        "family_gap.inclusion_branch_analytic",
        "family_gap.reflection_branch_analytic",
        "family_gap.strictly_below_exact",
        "family_gap.report_tagged",
        "family_gap.witness_sampled_vs_analytic",
    ],
}


def test_check_inventory():
    assert list(SUITES) == list(INVENTORY)
    assert sum(map(len, INVENTORY.values())) == 46
    for suite, names in INVENTORY.items():
        assert [c.name for c in suite_checks(suite, 0)] == names, suite
