"""Named verification suites with machine-checkable pass/fail results.

Each suite exercises one quantitative claim of the library at a pinned
tolerance and returns :class:`Check` records; the CLI ``verify`` command and
the acceptance tests both run these.  All randomness flows through one seeded
generator per suite, so results are reproducible bit for bit.  Suites that
build arrays import numpy when they run, so importing this module (and the
CLI, which lists :data:`SUITES`) does not load it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .domains import Annulus, ProductDomain, PuncturedDisk, UnitDisk
from .embeddings import ProductMap, _sampled_circle_min, image_inradius_analytic, product_inradius
from .hyperbolic import MobiusAut, mobius_circle_min_modulus, mobius_eval, poincare_distance, sigma, sigma_inv
from .search import INCLUSION, REFLECTION, FamilySpec, build_factor_witness, search_lower_bound
from .squeezing import (
    FAMILY_GAP,
    SEARCH,
    BoundsOptions,
    annulus_clearance_bound,
    ball_product_ratio_check,
    boundary_limit_profile,
    default_limit_path,
    exact_squeeze,
    hhr_flag,
    puncture_upper_bound,
    squeeze_bounds,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, bool(passed), detail)


def _random_disk_points(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    import numpy as np

    moduli = rng.uniform(lo, hi, count)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return moduli * np.exp(1j * angles)


def suite_pinch(seed: int = 0) -> list[Check]:
    """Punctured-disk products: the puncture upper bound and the family search
    pinch the closed form min|z_i|, within runtime budget."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst_upper = 0.0
    worst_gap = math.inf
    for arity in (2, 3):
        d = ProductDomain((PuncturedDisk((0j,)),) * arity)
        for _ in range(100):
            coords = _random_disk_points(rng, arity, 0.05, 0.95)
            z = d.point(list(coords))
            expected = min(abs(c) for c in coords)
            worst_upper = max(worst_upper, abs(puncture_upper_bound(d, z) - expected))
            sr = search_lower_bound(d, z)
            worst_gap = min(worst_gap, sr.value - expected)
    elapsed = time.perf_counter() - t0
    return [
        _check("pinch.upper_matches_min_modulus", worst_upper <= 1e-12,
               f"max_err={worst_upper:.3e} tol=1e-12"),
        _check("pinch.search_attains_closed_form", worst_gap >= -1e-6,
               f"min_margin={worst_gap:.3e} floor=-1e-6"),
        _check("pinch.runtime", elapsed <= 10.0, f"elapsed={elapsed:.2f}s budget=10s"),
    ]


def suite_mixed(seed: int = 0) -> list[Check]:
    """Disk-times-punctured-disk products: exact value |z2|, matching upper
    bound, and the witness re-scored at 65536 samples.  The same three
    quantities on the disk punctured at {0, 0.5, -0.5i} times a disk, at 20
    points kept 0.05 from every puncture: lower, upper and exact all equal
    min_p |phi_z(p)|, which is evaluated here on its own."""
    import numpy as np

    rng = np.random.default_rng(seed)
    d = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
    worst_exact = worst_upper = worst_witness = 0.0
    for _ in range(100):
        z1, z2 = _random_disk_points(rng, 2, 0.05, 0.95)
        z = d.point([z1, z2])
        rep = exact_squeeze(d, z)
        worst_exact = max(worst_exact, abs(rep.exact - abs(z2)))
        worst_upper = max(worst_upper, abs(puncture_upper_bound(d, z) - abs(z2)))
        scored = product_inradius(rep.witnesses[0], d, z, 65536)
        worst_witness = max(worst_witness, abs(scored - abs(z2)))

    ps = (0j, 0.5 + 0j, -0.5j)
    d = ProductDomain((PuncturedDisk(ps), UnitDisk()))
    worst_multi = worst_multi_witness = 0.0
    for _ in range(20):
        while True:
            z1, z2 = (complex(c) for c in _random_disk_points(rng, 2, 0.0, 0.95))
            if min(abs(z1 - p) for p in ps) >= 0.05:
                break
        z = d.point([z1, z2])
        want = min(abs((z1 - p) / (1.0 - p.conjugate() * z1)) for p in ps)
        rep = squeeze_bounds(d, z)
        exact = math.inf if rep.exact is None else rep.exact  # a missing closed form fails the check
        worst_multi = max(worst_multi, *(abs(v - want) for v in (rep.lower, rep.upper, exact)))
        scored = product_inradius(rep.witnesses[0], d, z, 65536)
        worst_multi_witness = max(worst_multi_witness, abs(scored - want))
    return [
        _check("mixed.exact_equals_second_modulus", worst_exact <= 1e-12,
               f"max_err={worst_exact:.3e} tol=1e-12"),
        _check("mixed.upper_matches_exact", worst_upper <= 1e-12,
               f"max_err={worst_upper:.3e} tol=1e-12"),
        _check("mixed.witness_inradius", worst_witness <= 1e-4,
               f"max_err={worst_witness:.3e} tol=1e-4 samples=65536"),
        _check("mixed.multi_puncture_exact", worst_multi <= 1e-12,
               f"max_err={worst_multi:.3e} tol=1e-12 points=20"),
        _check("mixed.multi_puncture_witness", worst_multi_witness <= 1e-4,
               f"max_err={worst_multi_witness:.3e} tol=1e-4 samples=65536 points=20"),
    ]


def _annulus_grid(r: float, n: int) -> np.ndarray:
    import numpy as np

    h = (1.0 - r) / (n + 1)
    grid = np.linspace(r + h, 1.0 - h, n - 1)
    return np.sort(np.append(grid, math.sqrt(r)))


def suite_annulus(seed: int = 0) -> list[Check]:
    """Annulus-times-disk closed form: piecewise values, branch agreement at
    sqrt(r), clearance domination, and the grid minimum."""
    checks = []
    for r in (0.04, 0.25, 0.64):
        d = ProductDomain((Annulus(r), UnitDisk()))
        s = math.sqrt(r)
        grid = _annulus_grid(r, 1000)
        worst_piece = worst_dom = 0.0
        values = []
        for x in grid:
            z = d.point([complex(x), 0j])
            got = exact_squeeze(d, z).exact
            want = r / x if x <= s else x  # independent branch evaluation
            worst_piece = max(worst_piece, abs(got - want))
            worst_dom = max(worst_dom, annulus_clearance_bound(r, complex(x)) - got)
            values.append(got)
        branch_gap = abs(r / s - s)
        min_err = abs(min(values) - s)
        tag = f"annulus[r={r}]"
        checks += [
            _check(f"{tag}.piecewise_formula", worst_piece <= 1e-12,
                   f"max_err={worst_piece:.3e} tol=1e-12 grid={len(grid)}"),
            _check(f"{tag}.branches_agree_at_sqrt_r", branch_gap <= 1e-12,
                   f"gap={branch_gap:.3e} tol=1e-12"),
            _check(f"{tag}.clearance_below_exact", worst_dom <= 1e-12,
                   f"max_excess={worst_dom:.3e} tol=1e-12"),
            _check(f"{tag}.grid_min_is_sqrt_r", min_err <= 1e-6,
                   f"err={min_err:.3e} tol=1e-6"),
        ]
    return checks


def suite_limit(seed: int = 0) -> list[Check]:
    """Boundary limit for the annulus clearance: the profile climbs toward 1
    on both sides and ends within 2e-3 of it."""
    r = 0.25
    checks = []
    for side in ("outer", "inner"):
        path = default_limit_path(r, side, steps=256)
        profile = boundary_limit_profile(r, path, include_exact=False)
        bounds = profile.bounds
        final = bounds[-1]
        k = min(range(len(bounds)), key=lambda i: (bounds[i], i))
        tail = [bounds[i + 1] - bounds[i] for i in range(k, len(bounds) - 1)]
        monotone = all(t >= -1e-15 for t in tail)
        checks += [
            _check(f"limit.{side}.final_bound", final >= 1.0 - 2e-3,
                   f"final={final:.6f} floor={1.0 - 2e-3}"),
            _check(f"limit.{side}.nondecreasing_after_min", monotone,
                   f"argmin={k} min_tail_step={min(tail, default=0.0):.3e}"),
        ]
    return checks


def suite_ball_ratios(seed: int = 0) -> list[Check]:
    """Ball products: the combined ball-target value and the failure of both
    fixed 1/dim ratio hypotheses, with margins."""
    checks = []
    for n in range(2, 6):
        rep = ball_product_ratio_check(n)
        s_err = abs(rep.ball_target_value - 1.0 / math.sqrt(n))
        checks.append(_check(f"ball_ratios[n={n}].value", s_err <= 1e-15,
                             f"err={s_err:.3e} tol=1e-15"))
        checks.append(_check(f"ball_ratios[n={n}].both_ratios_fail", rep.contradictions_hold,
                             f"up_margin={rep.scaled_up_margin:.4f} down_margin={rep.scaled_down_margin:.4f}"))
    rep2 = ball_product_ratio_check(2)
    checks.append(_check("ball_ratios[n=2].margins",
                         rep2.scaled_up_margin >= 0.41 and rep2.scaled_down_margin >= 0.35,
                         f"up={rep2.scaled_up_margin:.4f}>=0.41 down={rep2.scaled_down_margin:.4f}>=0.35"))
    return checks


def suite_oracle(seed: int = 0) -> list[Check]:
    """Radial circle-minimum formula against a 65536-sample brute-force minimum.

    Pairs are drawn with moduli in [0, 0.95], radii in [0.02, 0.95] and
    ||a| - r| >= 0.01: closer pairs push the true minimum toward a conical 0
    where the brute-force sampler itself exceeds the tolerance, so they test
    the sampler, not the formula.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        while True:
            amod = rng.uniform(0.0, 0.95)
            r = rng.uniform(0.02, 0.95)
            if abs(amod - r) >= 0.01:
                break
        a = amod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        brute = _sampled_circle_min(MobiusAut(a), r, 65536)
        worst = max(worst, abs(brute - mobius_circle_min_modulus(a, r)))
    return [_check("oracle.circle_min_vs_brute", worst <= 1e-4,
                   f"max_err={worst:.3e} tol=1e-4 pairs=1000 samples=65536")]


def _hyperbolic_draws(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` triples of points with moduli in [0, 0.85), and ``count`` angles in [0, 2 pi).

    One ``rng.random`` call draws every uniform.  Each row maps its seven as
    ``Generator.uniform`` maps one draw, lo + (hi - lo) u with lo = 0, in the
    order of the per-triple draws it replaces: three moduli, three angles,
    then the rotation angle.  The values are those of
    ``_random_disk_points(rng, 3, 0.0, 0.85)`` followed by
    ``rng.uniform(0.0, 2 pi)`` per triple, bit for bit, and the points stay
    ``numpy.complex128``.
    """
    import numpy as np

    u = rng.random((count, 7))
    moduli = 0.85 * u[:, :3]
    angles = 2.0 * np.pi * u[:, 3:]
    return moduli * np.exp(1j * angles[:, :3]), angles[:, 3]


def suite_hyperbolic(seed: int = 0) -> list[Check]:
    """Inverse identities of the radial distance and Mobius invariance.

    Both compositions hold near machine precision.  Over t in [0, 20] the
    inverse-then-forward identity relies on the complement 1 - x that
    ``sigma_inv`` carries: the rounded double tanh(t/2) alone would cost about
    cosh(t/2)^2 * 2^-52 in t (about 2e-8 at t = 20).
    """
    import numpy as np

    ts = np.linspace(0.0, 20.0, 2001)
    worst_t = max(abs(sigma(sigma_inv(t)) - t) for t in ts)
    xs = np.linspace(0.0, 0.999999, 2001)
    worst_x = max(abs(sigma_inv(sigma(x)) - x) for x in xs)

    points, thetas = _hyperbolic_draws(np.random.default_rng(seed), 10000)
    worst_inv = 0.0
    for (a, b, c), theta in zip(points, thetas):
        m = MobiusAut(c, theta)
        d1 = poincare_distance(a, b)
        d2 = poincare_distance(complex(mobius_eval(m, a)), complex(mobius_eval(m, b)))
        worst_inv = max(worst_inv, abs(d1 - d2))
    return [
        _check("hyperbolic.roundtrip_t_direction", worst_t <= 1e-12,
               f"max_err={worst_t:.3e} tol=1e-12 range=[0,20]"),
        _check("hyperbolic.roundtrip_x_direction", worst_x <= 1e-12,
               f"max_err={worst_x:.3e} tol=1e-12 range=[0,0.999999]"),
        _check("hyperbolic.mobius_invariance", worst_inv <= 1e-12,
               f"max_err={worst_inv:.3e} tol=1e-12 triples=10000"),
    ]


def suite_hhr(seed: int = 0) -> list[Check]:
    """Regularity evidence: a puncture drives the value to 0, disks and
    annuli keep positive floors."""
    punctured = ProductDomain((PuncturedDisk((0j,)), PuncturedDisk((0j,))))
    z = punctured.point([1e-4, 0.5])
    got = exact_squeeze(punctured, z).exact
    polydisk = ProductDomain((UnitDisk(), UnitDisk()))
    ann = ProductDomain((Annulus(0.25), UnitDisk()))
    return [
        _check("hhr.small_modulus_value", got == 1e-4, f"value={got!r} expected=1e-4"),
        _check("hhr.flag_punctured", hhr_flag(punctured), "punctured product flagged"),
        _check("hhr.flag_polydisk", not hhr_flag(polydisk), "polydisk not flagged"),
        _check("hhr.flag_annulus", not hhr_flag(ann), "annulus product not flagged"),
    ]


def _witness_oracle_errors(rng: np.random.Generator) -> tuple[float, float, int]:
    """Sampled (65536 points a circle) against analytic inradius of family witnesses at a = 0.

    Ten seeded points per annulus r in {0.04, 0.25, 0.64}, moduli 2 % of the
    width off either circle, each on both branches, plus the witness at
    0.1+0.2i of the disk punctured at {0, 0.5, -0.5i}.  Returns the worst
    |sampled - analytic|, the worst analytic - sampled, and the witness count.
    """
    cases = []
    for r in (0.04, 0.25, 0.64):
        f = Annulus(r)
        margin = 0.02 * (1.0 - r)
        for zc in _random_disk_points(rng, 10, r + margin, 1.0 - margin):
            cases += [(f, complex(zc), INCLUSION), (f, complex(zc), REFLECTION)]
    cases.append((PuncturedDisk((0j, 0.5 + 0j, -0.5j)), 0.1 + 0.2j, INCLUSION))
    worst_err, worst_below = 0.0, -math.inf
    for f, zc, branch in cases:
        d = ProductDomain((f,))
        e = build_factor_witness(f, zc, branch, 0j)
        analytic = image_inradius_analytic(e, f)
        sampled = product_inradius(ProductMap((e,)), d, d.point([zc]), 65536)
        worst_err = max(worst_err, abs(sampled - analytic))
        worst_below = max(worst_below, analytic - sampled)
    return worst_err, worst_below, len(cases)


def suite_family_gap(seed: int = 0) -> list[Check]:
    """Family honesty on the annulus: the catalog family cannot reach the
    closed form at |z1| = sqrt(r) and the report says so.  The analytic
    witness score the search uses is checked against the sampled oracle."""
    import numpy as np

    r = 0.25
    d = ProductDomain((Annulus(r), UnitDisk()))
    z = d.point([0.5, 0j])
    x = 0.5
    outer = (x - r) / (1.0 - r * x)           # analytic branch values, the oracle
    reflected = r * (1.0 - x) / (x - r * r)
    got_incl = search_lower_bound(d, z, FamilySpec.named(d, "inclusion")).value
    got_refl = search_lower_bound(d, z, FamilySpec.named(d, "reflection")).value
    sr = search_lower_bound(d, z, FamilySpec.auto(d))
    exact = exact_squeeze(d, z).exact
    rep = squeeze_bounds(d, z, BoundsOptions(search=True))
    gap = exact - sr.value
    worst_err, worst_below, count = _witness_oracle_errors(np.random.default_rng(seed))
    return [
        _check("family_gap.inclusion_branch_analytic", abs(got_incl - outer) <= 1e-6,
               f"search={got_incl:.9f} analytic={outer:.9f}"),
        _check("family_gap.reflection_branch_analytic", abs(got_refl - reflected) <= 1e-6,
               f"search={got_refl:.9f} analytic={reflected:.9f}"),
        _check("family_gap.strictly_below_exact", gap >= 0.05,
               f"exact={exact} search={sr.value:.9f} gap={gap:.4f} floor=0.05"),
        _check("family_gap.report_tagged", FAMILY_GAP in rep.methods and SEARCH in rep.methods,
               f"methods={','.join(rep.methods)}"),
        _check("family_gap.witness_sampled_vs_analytic", worst_err <= 1e-4 and worst_below <= 1e-12,
               f"max_err={worst_err:.3e} tol=1e-4 max_below={worst_below:.3e} floor=1e-12 "
               f"witnesses={count} samples=65536"),
    ]


SUITES = {
    "pinch": suite_pinch,
    "mixed": suite_mixed,
    "annulus": suite_annulus,
    "limit": suite_limit,
    "ball_ratios": suite_ball_ratios,
    "oracle": suite_oracle,
    "hyperbolic": suite_hyperbolic,
    "hhr": suite_hhr,
    "family_gap": suite_family_gap,
}


def run_suite(name: str, seed: int = 0) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for fn in SUITES.values():
            out.extend(fn(seed))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
