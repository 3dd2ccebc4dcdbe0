"""Inputs and outputs of the verify suites.

Every seeded suite draws its inputs in bulk, and must hand its checked calls
the Python numbers that the per-point draws it replaced gave, bit for bit;
the hyperbolic draw also leaves the generator in the same state.  The
sampled oracle must keep its workload, circle for circle, read no higher on
any circle than the 65536-point scan it replaced, so that a faster pass cannot
come from sampling less, give each circle it searches in a stack the double
that circle gets searched alone, and keep every refined sample off the open
set, decided exactly.  The work is counted without a clock: generator calls
per suite, and complex exps per refinement pass.  Each check's numbers are
pinned at seeds 0, 1 and 2, a NaN from the oracle or the distance fails its
check, and each suite domain gets one plan.
"""

import inspect
import math
from collections import Counter

import numpy as np
import pytest

from polysqueeze import verify
from polysqueeze.domains import ProductDomain
from polysqueeze.embeddings import MapExpr, MobiusAut
from polysqueeze.squeezing import DomainPlan
from polysqueeze.verify import SUITES, _hyperbolic_draws, run_suite
from test_embeddings import kernel


def disk_points(rng, count, lo, hi):
    """The per-point draw the seeded suites made before they drew in bulk."""
    moduli = rng.uniform(lo, hi, count)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return moduli * np.exp(1j * angles)


@pytest.mark.parametrize("seed", range(4))
def test_hyperbolic_draws_reproduce_per_triple_stream(seed):
    count = 10000
    old_rng = np.random.default_rng(seed)
    old_points, old_thetas = [], []
    for _ in range(count):
        old_points.append(disk_points(old_rng, 3, 0.0, 0.85))
        old_thetas.append(old_rng.uniform(0.0, 2.0 * math.pi))
    new_rng = np.random.default_rng(seed)
    points, thetas = _hyperbolic_draws(new_rng, count)

    assert points.dtype == np.complex128 and points.shape == (count, 3)
    assert isinstance(points[0][0], np.complex128)
    # bit patterns, so that even the sign of a zero must match
    assert np.array_equal(points.view(np.int64), np.array(old_points).view(np.int64))
    assert np.array_equal(thetas.view(np.int64), np.array(old_thetas).view(np.int64))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def per_point_draws(name, seed):
    """The points each seeded suite built from its per-point draws, in order,
    and for ``oracle`` its pairs (a, r): the draw code the bulk draws replaced."""
    rng = np.random.default_rng(seed)
    if name == "pinch":
        return [list(disk_points(rng, arity, 0.05, 0.95)) for arity in (2, 3) for _ in range(100)]
    if name == "mixed":
        points = [list(disk_points(rng, 2, 0.05, 0.95)) for _ in range(100)]
        for _ in range(20):
            while True:
                z1, z2 = (complex(c) for c in disk_points(rng, 2, 0.0, 0.95))
                if min(abs(z1 - p) for p in (0j, 0.5 + 0j, -0.5j)) >= 0.05:
                    break
            points.append([z1, z2])
        return points
    if name == "family_gap":
        points = [[0.5, 0j]]  # the suite's fixed point, then its witness oracle's
        for r in (0.04, 0.25, 0.64):
            margin = 0.02 * (1.0 - r)
            points += [[zc] for zc in disk_points(rng, 10, r + margin, 1.0 - margin)
                       for _ in range(2)]  # inclusion, then reflection
        return points + [[0.1 + 0.2j]]
    pairs = []
    for _ in range(1000):
        while True:
            amod = rng.uniform(0.0, 0.95)
            r = rng.uniform(0.02, 0.95)
            if abs(amod - r) >= 0.01:
                break
        pairs.append((amod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), r))
    for _ in range(100):
        r = rng.uniform(0.02, 0.95)
        amod = rng.uniform(r - 0.01, min(r + 0.01, 0.95))
        pairs.append((amod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), r))
    return pairs


def bits(rows):
    """Each number's real and imaginary parts as hex, so that even the sign of a zero must match."""
    return [[(float.hex(complex(v).real), float.hex(complex(v).imag)) for v in row] for row in rows]


@pytest.mark.parametrize("seed", (0, 1, 2, 7, 12345))
@pytest.mark.parametrize("name", ("pinch", "mixed", "oracle", "family_gap"))
def test_bulk_draws_hand_over_the_per_point_draws(name, seed, monkeypatch):
    # What each suite hands its checked calls: the coordinates of every
    # point it builds, and the oracle's 1100 pairs (a, r) as the formula
    # reads them, the 1000 far pairs and the 100 close ones.
    seen = []
    if name == "oracle":
        formula = verify.mobius_circle_min_modulus

        def recording(a, r):
            seen.append((a, r))
            return formula(a, r)

        monkeypatch.setattr(verify, "mobius_circle_min_modulus", recording)
    else:
        point = ProductDomain.point

        def recording(self, coords):
            seen.append(list(coords))
            return point(self, coords)

        monkeypatch.setattr(ProductDomain, "point", recording)
    assert all(c.passed for c in SUITES[name](seed))
    assert bits(seen) == bits(per_point_draws(name, seed))
    # Python numbers, not numpy scalars
    if name == "oracle":
        assert {(type(a), type(r)) for a, r in seen} == {(complex, float)}
    else:
        drawn = seen[1:-1] if name == "family_gap" else seen
        assert {type(c) for coords in drawn for c in coords} == {complex}


def record_rows(seed):
    """Each circle the suites sample at ``seed``, in the order they ask for
    them: its suite, its map, its radius and the refined minimum the oracle
    read in its stack."""
    rows = []
    minima = verify._circle_minima
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in SUITES.items():
            def recording(batch, name=name):
                got = minima(batch)
                rows.extend((name, e, radius, m) for (e, radius), m in zip(batch, got))
                return got

            mp.setattr(verify, "_circle_minima", recording)
            assert all(c.passed for c in fn(seed))
    return rows


@pytest.fixture(scope="module")
def sampled_circles():
    return record_rows(0)


def test_verify_samples_the_same_circles(sampled_circles):
    assert Counter(name for name, *_ in sampled_circles) == {
        "oracle": 1100, "mixed": 240, "family_gap": 121}
    # the oracle's pairs are the draws it has always made, the 100 close
    # pairs after the first 1000
    oracle = [(e.steps[0].a, radius) for name, e, radius, _ in sampled_circles
              if name == "oracle"]
    assert oracle == per_point_draws("oracle", 0)
    assert all(abs(abs(a) - r) <= 0.01 for a, r in oracle[1000:])


# The kernel's stated rounding bound, REFERENCE_RTOL in tests/test_embeddings.py.
REFERENCE_RTOL = 8.0 * np.finfo(float).eps


def test_refined_min_never_above_the_65536_point_scan(sampled_circles):
    # The minimum the sampled checks read before the search was refined: one
    # whole-array scan of 65536 equally spaced samples.  The refined search
    # ends within 7.9e-10 of each circle's minimizer, the scan's best sample
    # within 4.8e-5.  Near its minimum the modulus on these unimodal circles
    # grows with the distance from the minimizer, so the refined value can
    # read higher only where the two points are about equally near, and then
    # by the kernel's rounding.
    circle = verify._unit_circle(65536)
    for name, e, radius, got in sampled_circles:
        scan = math.sqrt(kernel(e)(radius * circle).min())
        assert got <= scan * (1.0 + REFERENCE_RTOL), (name, e, radius, got, scan)


@pytest.mark.parametrize("seed", range(3))
def test_stacked_search_is_the_per_circle_search_bit_for_bit(seed, sampled_circles):
    # Every circle the suites sample, searched in its stack of up to 32 rows
    # that share the steps before the last, against the same circle searched
    # alone on 1-D arrays, the shape of the search before circles were
    # stacked.  The stacks hold rows of several suites' maps: the oracle's
    # lone automorphisms, and family witnesses with or without a reflection.
    rows = sampled_circles if seed == 0 else record_rows(seed)
    assert Counter(name for name, *_ in rows) == {"oracle": 1100, "mixed": 240, "family_gap": 121}
    assert {len(e.steps) for _, e, _, _ in rows} == {1, 2}
    alone = [verify._sampled_circle_min(kernel(e), radius) for _, e, radius, _ in rows]
    assert np.array(alone).tobytes() == np.array([got for *_, got in rows]).tobytes()


# Every double is an integer multiple of 2**-1074.
SCALE = 1 << 1074


def scaled(x):
    """``x * 2**1074`` as an int, exact for every finite double."""
    n, d = x.as_integer_ratio()
    return n * (SCALE // d)


@pytest.mark.parametrize("seed", range(3))
def test_every_refined_sample_lies_off_the_open_set(seed, monkeypatch):
    # Each refinement pass's samples on every circle product_inradius
    # searches in run_suite("all", seed), mixed's 240 and family_gap's 121,
    # against the factor's own boundary circle: on or outside the unit
    # circle, on or inside an annulus's inner circle.  |z|**2 is compared
    # exactly, in integers scaled by 2**2148.
    sample_radii, search = verify._sample_radii, verify._sampled_circle_min
    boundary, circles, passes = {}, [], []

    def recording_radii(f):
        nudged = sample_radii(f)
        boundary.update(zip(nudged, f.radii))
        return nudged

    def recording_search(sq, radius):
        rows = [boundary.get(r) for r in radius[:, 0].tolist()]
        if None in rows:  # the oracle suite's own pairs, none of product_inradius
            assert set(rows) == {None}
            return search(sq, radius)
        circles.extend(zip(radius[:, 0].tolist(), rows))

        def seen(zeta):
            if zeta.shape[-1] == verify._PASS_POINTS:
                passes.append((rows, zeta.tolist()))
            return sq(zeta)

        return search(seen, radius)

    monkeypatch.setattr(verify, "_sample_radii", recording_radii)
    monkeypatch.setattr(verify, "_sampled_circle_min", recording_search)
    assert all(c.passed for c in run_suite("all", seed))
    assert len(circles) == 240 + 121
    assert {b for _, b in circles} == {1.0, 0.04, 0.25, 0.64}
    count = 0
    for rows, zeta in passes:
        for b, samples in zip(rows, zeta):
            b2 = scaled(b) ** 2
            moduli = [scaled(z.real) ** 2 + scaled(z.imag) ** 2 for z in samples]
            assert min(moduli) >= b2 if b == 1.0 else max(moduli) <= b2, (b, samples)
            count += len(samples)
    assert count == verify._PASSES * verify._PASS_POINTS * len(circles)


class CountingGenerator:
    """A numpy ``Generator`` that counts the calls its suite makes to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


# Generator calls per seeded suite, where a per-point draw made 1000 to 3400:
# pinch one per arity, mixed one per loop (its rejection loop draws 32
# attempts at a time), the others one.
GENERATOR_CALLS = {"pinch": 2, "mixed": 2, "oracle": 1, "hyperbolic": 1, "family_gap": 1}


@pytest.mark.parametrize("seed", range(3))
def test_each_seeded_suite_draws_in_bulk(seed, monkeypatch):
    made = []

    def counting_rng(s):
        made.append(CountingGenerator(default_rng(s)))
        return made[-1]

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    calls = {}
    for name, fn in SUITES.items():
        del made[:]
        assert all(c.passed for c in fn(seed))
        if made:
            calls[name] = sum(g.calls for g in made)
    assert calls == GENERATOR_CALLS


def test_a_refinement_pass_takes_one_exp_per_row(monkeypatch):
    # The sizes of the complex exps of the search: per pass, one per row of
    # a stack, here a full chunk of 32 rows and then 8, and the 5 x 64
    # rotations of the passes only while their tables are built, so C + 64
    # per pass at most.
    exp, sizes = np.exp, []

    def counted(x, *args, **kwargs):
        if np.iscomplexobj(x):
            sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    rows = [(MapExpr((MobiusAut(0.5 * np.exp(0.1j * k)),)), 0.3 + 0.01 * k) for k in range(40)]
    verify._unit_circle(verify._COARSE)
    verify._pass_rotations.cache_clear()
    monkeypatch.setattr(np, "exp", counted)
    per_pass = [32] * verify._PASSES + [8] * verify._PASSES
    cold = verify._circle_minima(rows)
    assert sizes == [verify._PASSES * verify._PASS_POINTS] + per_pass
    del sizes[:]
    assert verify._circle_minima(rows) == cold
    assert sizes == per_pass


def test_the_sampler_takes_no_sample_count():
    params = {fn: list(inspect.signature(fn).parameters) for fn in (
        verify._sampled_circle_min, verify._circle_minima, verify.product_inradius)}
    assert params == {verify._sampled_circle_min: ["sq", "radius"],
                      verify._circle_minima: ["rows"],
                      verify.product_inradius: ["witnesses"]}


# The checks that read the sampled oracle.
SAMPLED_CHECKS = {"oracle.circle_min_vs_brute", "mixed.witness_inradius",
                  "mixed.multi_puncture_witness", "family_gap.witness_sampled_vs_analytic"}


def test_a_nan_from_the_oracle_fails_its_check(monkeypatch):
    # The last row of each batch reads NaN.  In mixed's witnesses that row is
    # a second factor's circle, so the min over factors must keep the NaN,
    # and in every sampled check the worst-error fold must keep it too:
    # Python's max and min drop a NaN that is not their first argument.
    minima = verify._circle_minima

    def last_row_nan(rows):
        got = minima(rows)
        got[-1] = math.nan
        return got

    monkeypatch.setattr(verify, "_circle_minima", last_row_nan)
    checks = [c for name in ("mixed", "oracle", "family_gap") for c in SUITES[name](0)]
    assert {c.name for c in checks if not c.passed} == SAMPLED_CHECKS
    assert all("max_err=nan" in c.detail for c in checks if c.name in SAMPLED_CHECKS)


def test_a_nan_distance_fails_the_invariance_check(monkeypatch):
    # one NaN distance, on a triple after the first, makes the worst
    # invariance error NaN
    distance, calls = verify.poincare_distance, []

    def nan_once(a, b):
        calls.append(None)
        return math.nan if len(calls) == 101 else distance(a, b)

    monkeypatch.setattr(verify, "poincare_distance", nan_once)
    checks = {c.name: c for c in verify.suite_hyperbolic(0)}
    assert [name for name, c in checks.items() if not c.passed] == ["hyperbolic.mobius_invariance"]
    assert checks["hyperbolic.mobius_invariance"].detail.startswith("max_err=nan ")


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
    ("mixed.witness_inradius", "max_err=0.000e+00 tol=1e-4"),
    ("mixed.multi_puncture_exact", "max_err=0.000e+00 tol=1e-12 points=20"),
    ("mixed.multi_puncture_witness", "max_err=1.110e-16 tol=1e-4 points=20"),
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
    ("oracle.circle_min_vs_brute", "max_err=7.494e-16 tol=1e-4 pairs=1000 close_pairs=100"),
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
     "max_err=9.992e-16 tol=1e-4 max_below=2.220e-16 floor=1e-12 witnesses=61"),
]


# The details that read otherwise at seeds 1 and 2, read with the same
# versions; every other check reads as at seed 0.  The two sampled errors,
# oracle.circle_min_vs_brute and family_gap.witness_sampled_vs_analytic,
# moved by a few 1e-17 when the refinement passes began rotating one exp per
# circle, and are pinned as they read since.
SEED_DETAILS_OFF_SEED_0 = {
    1: {
        "oracle.circle_min_vs_brute": "max_err=8.882e-16 tol=1e-4 pairs=1000 close_pairs=100",
        "hyperbolic.mobius_invariance": "max_err=2.132e-14 tol=1e-12 triples=10000",
        "family_gap.witness_sampled_vs_analytic":
            "max_err=1.027e-15 tol=1e-4 max_below=1.110e-16 floor=1e-12 witnesses=61",
    },
    2: {
        "oracle.circle_min_vs_brute": "max_err=9.992e-16 tol=1e-4 pairs=1000 close_pairs=100",
        "hyperbolic.mobius_invariance": "max_err=1.332e-14 tol=1e-12 triples=10000",
        "family_gap.witness_sampled_vs_analytic":
            "max_err=1.006e-15 tol=1e-4 max_below=2.220e-16 floor=1e-12 witnesses=61",
    },
}


def test_seed_0_details_are_pinned():
    checks = run_suite("all", 0)
    assert all(c.passed for c in checks)
    assert [(c.name, c.detail) for c in checks if c.name != "pinch.runtime"] == SEED_0_DETAILS
    assert len(checks) == 46


@pytest.mark.parametrize("seed", sorted(SEED_DETAILS_OFF_SEED_0))
def test_seed_1_and_2_details_are_pinned(seed):
    changed = SEED_DETAILS_OFF_SEED_0[seed]
    assert set(changed) <= {name for name, _ in SEED_0_DETAILS}
    checks = run_suite("all", seed)
    assert all(c.passed for c in checks)
    assert [(c.name, c.detail) for c in checks if c.name != "pinch.runtime"] == [
        (name, changed.get(name, detail)) for name, detail in SEED_0_DETAILS]
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
