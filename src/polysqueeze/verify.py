"""Named verification suites and the independent oracle they check against.

Each suite exercises one quantitative claim of the library at a pinned
tolerance and returns :class:`Check` records; the CLI ``verify`` command and
the acceptance tests both run these.  All randomness flows through one seeded
generator per suite, so results are reproducible bit for bit.  Suites that
build arrays import numpy when they run, so importing this module does not
load it; the CLI imports this module only for ``verify`` and its help.

The oracle lives here, since the suites are its only caller: the
boundary-sampling image inradius of an explicit witness (sampled in
cache-sized blocks and scored by squared moduli) and its closed-form
counterpart for radial-then-Mobius maps, both over the data a factor gives
(``radii``, ``punctures``; a ball gives no ``radii`` and is never sampled),
and the radial distance pair ``sigma`` / ``sigma_inv`` with the Poincare
distance, ``sigma`` of :func:`~polysqueeze.embeddings.mobius_modulus`.  No
reported value depends on any of them.  Suites build points with
:meth:`ProductDomain.point`, whose one reader converts and tests each
coordinate once, and build each domain's
:class:`~polysqueeze.squeezing.DomainPlan` once, which the bounds, the
catalog value and the search then read at every point.  The map primitives
come from :mod:`polysqueeze.embeddings`, which evaluates them on scalars;
maps on arrays are evaluated here alone, by :func:`_array_eval`.  The
``hyperbolic`` suite is named for the geometry it checks.
"""

from __future__ import annotations

import math
import sys
import time
from functools import lru_cache, partial
from typing import TYPE_CHECKING

from .domains import (
    Annulus,
    BallFactor,
    Frozen,
    PlanarFactor,
    ProductDomain,
    ProductPoint,
    PuncturedDisk,
    UnitDisk,
)
from .embeddings import (
    MapExpr,
    MobiusAut,
    Primitive,
    ProductMap,
    map_eval,
    mobius_circle_min_modulus,
    mobius_eval,
    mobius_modulus,
    reflect,
    require_base_to_zero,
)
from .errors import DomainError
from .squeezing import (
    FAMILY_GAP,
    INCLUSION,
    REFLECTION,
    SEARCH,
    DomainPlan,
    annulus_clearance_bound,
    default_limit_path,
    hhr_flag,
    search_lower_bound,
    squeeze_bounds,
)

if TYPE_CHECKING:
    import numpy as np


class Check(Frozen):
    """One named outcome of a suite: whether it passed, and the numbers behind it."""

    __slots__ = ("name", "passed", "detail")


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, bool(passed), detail)


# ------------------------------------------------------ boundary sampling

@lru_cache(maxsize=8)
def _unit_circle(m: int) -> np.ndarray:
    import numpy as np

    circle = np.exp(2j * np.pi * np.arange(m) / m)
    circle.setflags(write=False)
    return circle


_NUDGE = 4.0 * sys.float_info.epsilon


def _sample_radii(f: PlanarFactor) -> tuple[float, ...]:
    """Radius of each sampled boundary circle, nudged a few ulps off the open set.

    ``1 + 4 eps`` times the unit circle's, then ``(1 - 4 eps) r`` for each
    inner circle r of ``f.radii``, so that no sample passes membership.  A
    circle's samples are this radius times ``_unit_circle(m)``, ``m`` points
    at equal angles from 0 counterclockwise; punctures are not sampled.
    """
    if not hasattr(f, "radii"):
        raise DomainError("boundary sampling is defined for planar factors only")
    outer, *inner = f.radii
    return ((1.0 + _NUDGE) * outer, *((1.0 - _NUDGE) * rho for rho in inner))


# Points a block of the sampled minimum evaluates at once.  Whole 65536-point
# circles made 1-2 MB temporaries per operation.  Blocks of 2048 to 65536
# points were timed on the three sampling suites; 16384 (256 kB of complex
# samples) was fastest, 8192 within 4 %, and whole circles 2.7 times slower.
_SAMPLE_BLOCK = 16384


def _mobius_parts(m: MobiusAut, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``zeta - a`` and ``1 - conj(a) zeta``, the second formed in place; ``zeta`` is kept."""
    import numpy as np

    den = m.a.conjugate() * zeta
    np.subtract(1.0, den, out=den)
    return zeta - m.a, den


def _array_eval(steps: tuple[Primitive, ...], zeta: np.ndarray) -> np.ndarray:
    """The steps of a map, left to right, at every point of the ndarray ``zeta``.

    The scalar :func:`~polysqueeze.embeddings.map_eval` rounds apart from
    it, by over a thousand ulps on some samples.  A reflection has no pole
    check here, and ``zeta`` is not written to.
    """
    import numpy as np

    z = zeta
    for step in steps:
        if isinstance(step, MobiusAut):
            z, den = _mobius_parts(step, z)
            z /= den
            if step.theta != 0.0:
                np.multiply(complex(math.cos(step.theta), math.sin(step.theta)), z, out=z)
        else:
            z = reflect(step.r, z)
    return z


def _squared_moduli(e: MapExpr, zeta: np.ndarray) -> np.ndarray:
    """``|_array_eval(e.steps, zeta)|**2`` at every point of the ndarray ``zeta``.

    The steps before the last go through :func:`_array_eval`.  A last step
    ``e^{i theta} (v - a) / (1 - conj(a) v)`` gives
    ``|v - a|**2 / |1 - conj(a) v|**2``: the rotation has modulus 1, and each
    of :func:`_mobius_parts` is multiplied by its conjugate in place, so no
    complex quotient and no hypot is formed.  Any other last step gives
    ``(v * conj(v)).real`` of the map's value.  ``zeta`` is not written to.
    """
    last = e.steps[-1]
    if not isinstance(last, MobiusAut):
        v = _array_eval(e.steps, zeta)
        return (v * v.conj()).real
    num, den = _mobius_parts(last, _array_eval(e.steps[:-1], zeta))
    num *= num.conj()
    den *= den.conj()
    return num.real / den.real


def _sampled_circle_min(sq, radius: float, m: int) -> float:
    """Least modulus of a map over the ``m`` points ``radius * _unit_circle(m)``.

    ``sq`` takes an ndarray of samples and returns their squared moduli under
    the map, as :func:`_squared_moduli` does.  The circle goes through ``sq``
    ``_SAMPLE_BLOCK`` points at a time, so the temporaries stay cache-sized
    whatever ``m`` is, and the one square root is taken of the circle's least
    squared modulus.  Each point goes through the same operations as in one
    whole-array call, and the block minima are reduced with numpy, so the
    result equals ``sqrt(sq(radius * circle).min())`` bit for bit, a NaN
    included.
    """
    import numpy as np

    circle = _unit_circle(m)
    return math.sqrt(np.min([
        sq(radius * circle[k:k + _SAMPLE_BLOCK]).min()
        for k in range(0, m, _SAMPLE_BLOCK)
    ]))


def image_inradius_at_zero(e: MapExpr, f: PlanarFactor, m: int = 4096) -> float:
    """Sampled distance from 0 to the complement of the image of ``f`` under ``e``.

    Minimum modulus over the images of ``m`` samples per boundary circle and
    over the extension values ``map_eval(e, p)`` at the punctures ``p`` of
    ``f``.  The samples of :func:`_sample_radii` are scored by their squared
    moduli (:func:`_squared_moduli`) in cache-sized blocks with one square
    root per circle (:func:`_sampled_circle_min`).  Each sampled modulus
    agrees with ``abs(_array_eval(e.steps, samples))`` to a few ulps, not bit
    for bit.  The caller is responsible for the base point mapping to 0.
    """
    if not isinstance(m, int) or m < 8:
        raise DomainError(f"sample count must be an integer >= 8, got {m}")
    import numpy as np

    sq = partial(_squared_moduli, e)
    best = float(np.min([_sampled_circle_min(sq, rho, m) for rho in _sample_radii(f)]))
    for p in f.punctures:
        best = min(best, abs(map_eval(e, p)))
    return best


def image_inradius_analytic(e: MapExpr, f: PlanarFactor) -> float | None:
    """Closed-form image inradius, or None when the map shape does not admit one.

    Applies when the composition is a prefix of reflections, which send
    circles centered at 0 to circles centered at 0, followed by
    automorphisms only.  The automorphism suffix composes to a single
    automorphism whose zero is recovered by pulling 0 back through the
    inverses, and the per-circle minimum is the radial formula of
    :func:`mobius_circle_min_modulus`.
    """
    steps = e.steps
    split = 0
    while split < len(steps) and not isinstance(steps[split], MobiusAut):
        split += 1
    if any(not isinstance(s, MobiusAut) for s in steps[split:]):
        return None
    radial, mobius = steps[:split], steps[split:]

    w = 0j
    for mstep in reversed(mobius):
        w = complex(mobius_eval(mstep.inverse(), w))

    best = math.inf
    for rho in f.radii:
        for s in radial:
            rho = s.r / rho
        if not mobius or rho >= 1.0:
            # a radius-1 circle maps to the unit circle under any automorphism
            best = min(best, rho if not mobius else 1.0)
        else:
            best = min(best, mobius_circle_min_modulus(w, rho))
    for p in f.punctures:
        best = min(best, abs(map_eval(e, p)))
    return best


def product_inradius(pm: ProductMap, d: ProductDomain, z: ProductPoint, m: int = 4096) -> float:
    """Image inradius of a product map: the factorwise minimum.

    A polydisk of radius c fits in the image iff a disk of radius c fits in
    every factor image, so the product value is the min over factors.  Every
    component must send its base coordinate to 0 (tolerance 1e-12).
    """
    if not d.is_planar():
        raise DomainError("product maps are defined for planar factors only")
    if len(pm.components) != d.arity:
        raise DomainError(f"{len(pm.components)} component maps for {d.arity} factors")
    for i, e in enumerate(pm.components):
        require_base_to_zero(e, z.planar(i), i)
    return min(
        image_inradius_at_zero(e, f, m) for e, f in zip(pm.components, d.factors)
    )


# ------------------------------------------------ radial distance on the disk
#
# The radial distance function is ``sigma(x) = log((1+x)/(1-x))`` with inverse
# ``tanh(t/2)``; ``sigma(|z|)`` is the Poincare distance from 0 to ``z``, which
# on the disk equals the Kobayashi distance.  Near the unit circle every bit
# of a radius ``x`` that matters is in ``1 - x``, which a double holding ``x``
# has lost: above t of about 10 many values of ``t`` round to the same
# ``tanh(t/2)``.  So ``sigma_inv`` returns a float that also carries its
# complement ``1 - x``, computed from ``t`` without cancellation, and ``sigma``
# divides by that complement instead of forming ``1 - x``.  With it the
# inverse-then-forward identity ``sigma(sigma_inv(t)) = t`` holds to a few
# ulps of ``t``; the float value itself is the plain rounded ``tanh(t/2)``.

_ONE_BELOW_1 = math.nextafter(1.0, 0.0)


class _Radius(float):
    """A float radius in [0, 1) that carries ``complement = 1 - x``.

    ``x`` is the exact radius that the float value rounds.  The complement
    keeps full relative precision where the float has rounded toward 1; it is
    0.0 where it is not known (below the normal double range).  Arithmetic
    on the value yields plain floats.
    """

    __slots__ = ("complement",)


def sigma(x: float) -> float:
    """Poincare distance from 0 to a point at radius ``x``: log((1+x)/(1-x)).

    A radius returned by :func:`sigma_inv` supplies its carried ``1 - x``;
    any other input forms ``1 - x`` from the double.
    """
    complement = x.complement if isinstance(x, _Radius) else 0.0
    x = float(x)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"sigma requires 0 <= x < 1, got {x}")
    # log1p form keeps relative accuracy as x -> 1.
    return math.log1p(2.0 * x / (complement or (1.0 - x)))


def sigma_inv(t: float) -> float:
    """Radius at Poincare distance ``t`` from 0: tanh(t/2).

    The float value is ``math.tanh(t/2)``, clamped below 1.  Its attribute
    ``complement`` is ``1 - tanh(t/2) = 2 e^{-t} / (1 + e^{-t})``, accurate to
    a few ulps relative while ``e^{-t}`` is a normal double (t up to about
    708) and 0.0 beyond, where :func:`sigma` falls back to the float.
    """
    t = float(t)
    if not (t >= 0.0) or math.isinf(t):
        raise DomainError(f"sigma_inv requires a finite t >= 0, got {t}")
    x = math.tanh(0.5 * t)
    e = math.exp(-t)
    # tanh rounds to 1.0 for t >= ~38.12; clamp to keep the codomain [0, 1).
    r = _Radius(x if x < 1.0 else _ONE_BELOW_1)
    r.complement = 2.0 * e / (1.0 + e) if e >= sys.float_info.min else 0.0
    return r


def poincare_distance(a: complex, b: complex) -> float:
    """Poincare distance between two points of the unit disk."""
    a, b = complex(a), complex(b)
    if not (abs(a) < 1 and abs(b) < 1):
        raise DomainError(f"poincare_distance requires both points inside the disk: {a}, {b}")
    u = mobius_modulus(a, b)
    # Interior inputs give u < 1 mathematically; guard the last-ulp rounding.
    return sigma(u if u < 1.0 else _ONE_BELOW_1)


# ------------------------------------------------------------------ suites

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
        plan = DomainPlan(d)
        for _ in range(100):
            coords = _random_disk_points(rng, arity, 0.05, 0.95)
            z = d.point(list(coords))
            expected = min(abs(c) for c in coords)
            upper = squeeze_bounds(plan, z, search=False).upper
            worst_upper = max(worst_upper, abs(upper - expected))
            sr = search_lower_bound(plan, z)
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
    plan = DomainPlan(d)
    worst_exact = worst_upper = worst_witness = 0.0
    for _ in range(100):
        z1, z2 = _random_disk_points(rng, 2, 0.05, 0.95)
        z = d.point([z1, z2])
        rep = squeeze_bounds(plan, z, search=False)
        worst_exact = max(worst_exact, abs(rep.exact - abs(z2)))
        worst_upper = max(worst_upper, abs(rep.upper - abs(z2)))
        scored = product_inradius(rep.witness, d, z, 65536)
        worst_witness = max(worst_witness, abs(scored - abs(z2)))

    ps = (0j, 0.5 + 0j, -0.5j)
    d = ProductDomain((PuncturedDisk(ps), UnitDisk()))
    plan = DomainPlan(d)
    worst_multi = worst_multi_witness = 0.0
    for _ in range(20):
        while True:
            z1, z2 = (complex(c) for c in _random_disk_points(rng, 2, 0.0, 0.95))
            if min(abs(z1 - p) for p in ps) >= 0.05:
                break
        z = d.point([z1, z2])
        want = min(abs((z1 - p) / (1.0 - p.conjugate() * z1)) for p in ps)
        rep = squeeze_bounds(plan, z)
        exact = math.inf if rep.exact is None else rep.exact  # a missing closed form fails the check
        worst_multi = max(worst_multi, *(abs(v - want) for v in (rep.lower, rep.upper, exact)))
        scored = product_inradius(rep.witness, d, z, 65536)
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
        plan = DomainPlan(d)
        s = math.sqrt(r)
        grid = _annulus_grid(r, 1000)
        worst_piece = worst_dom = 0.0
        values = []
        for x in grid.tolist():
            z = d.point([complex(x), 0j])
            got = squeeze_bounds(plan, z, search=False).exact
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
        bounds = [annulus_clearance_bound(r, x) for x in default_limit_path(r, side, steps=256)]
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
    """Ball products: no fixed 1/dim ratio ties the ball-target and
    polydisk-target values.

    On the n-fold product of n-dimensional balls (total dimension n^2), the
    ball-target value s is 1/sqrt(n), each ball of ball-target value 1
    combined by the inverse-square-sum rule, and the polydisk-target value
    lies in [lower, 1], with ``lower`` from :func:`squeeze_bounds` at the
    origin.  Scaling s by n in either direction leaves that bracket: n*s
    exceeds the ceiling 1 by the up margin, and s/n falls short of
    ``lower`` by the down margin.  The n = 2 margins are pinned.
    """
    checks, margins = [], []
    for n in range(2, 6):
        s = (n * 1.0 ** -2) ** -0.5
        domain = ProductDomain((BallFactor(n),) * n)
        lower = squeeze_bounds(domain, domain.point([(0j,) * n] * n), search=False).lower
        up, down = n * s - 1.0, lower - s / n
        s_err = abs(s - 1.0 / math.sqrt(n))
        checks.append(_check(f"ball_ratios[n={n}].value", s_err <= 1e-15,
                             f"err={s_err:.3e} tol=1e-15"))
        checks.append(_check(f"ball_ratios[n={n}].both_ratios_fail", up > 0.0 and down > 0.0,
                             f"up_margin={up:.4f} down_margin={down:.4f}"))
        if n == 2:
            margins.append(_check("ball_ratios[n=2].margins", up >= 0.41 and down >= 0.35,
                                  f"up={up:.4f}>=0.41 down={down:.4f}>=0.35"))
    return checks + margins


def suite_oracle(seed: int = 0) -> list[Check]:
    """Radial circle-minimum formula against a 65536-sample brute-force minimum.

    The brute force is the sampler of the witness oracle: the least squared
    modulus |zeta - a|^2 / |1 - conj(a) zeta|^2 over the circle, taken in
    blocks, then one square root.  Pairs are drawn with moduli in [0, 0.95],
    radii in [0.02, 0.95] and ||a| - r| >= 0.01: closer pairs push the true
    minimum toward a conical 0 where the brute-force sampler itself exceeds
    the tolerance, so they test the sampler, not the formula.
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
        sq = partial(_squared_moduli, MapExpr((MobiusAut(a),)))
        brute = _sampled_circle_min(sq, r, 65536)
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
    ``rng.uniform(0.0, 2 pi)`` per triple, bit for bit.
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
    cosh(t/2)^2 * 2^-52 in t (about 2e-8 at t = 20).  The invariance triples
    are Python complex numbers, so :func:`mobius_eval` runs the scalar
    arithmetic that ``eval`` runs, not numpy's complex division.
    """
    import numpy as np

    ts = np.linspace(0.0, 20.0, 2001)
    worst_t = max(abs(sigma(sigma_inv(t)) - t) for t in ts)
    xs = np.linspace(0.0, 0.999999, 2001)
    worst_x = max(abs(sigma_inv(sigma(x)) - x) for x in xs)

    points, thetas = _hyperbolic_draws(np.random.default_rng(seed), 10000)
    worst_inv = 0.0
    for row, theta in zip(points, thetas):
        a, b, c = row.tolist()  # a row at a time: the whole list read +2 MB of peak RSS
        m = MobiusAut(c, theta)
        d1 = poincare_distance(a, b)
        d2 = poincare_distance(mobius_eval(m, a), mobius_eval(m, b))
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
    got = squeeze_bounds(punctured, z, search=False).exact
    polydisk = ProductDomain((UnitDisk(), UnitDisk()))
    ann = ProductDomain((Annulus(0.25), UnitDisk()))
    return [
        _check("hhr.small_modulus_value", got == 1e-4, f"value={got!r} expected=1e-4"),
        _check("hhr.flag_punctured", hhr_flag(punctured), "punctured product flagged"),
        _check("hhr.flag_polydisk", not hhr_flag(polydisk), "polydisk not flagged"),
        _check("hhr.flag_annulus", not hhr_flag(ann), "annulus product not flagged"),
    ]


def _witness_oracle_errors(rng: np.random.Generator) -> tuple[float, float, int]:
    """Sampled inradius (65536 points a circle) of family witnesses against their search score.

    Ten seeded points per annulus r in {0.04, 0.25, 0.64}, moduli 2 % of the
    width off either circle, each on both branches, plus the witness at
    0.1+0.2i of the disk punctured at {0, 0.5, -0.5i}.  Returns the worst
    |sampled - score|, the worst score - sampled, and the witness count.
    """
    cases = []
    for r in (0.04, 0.25, 0.64):
        plan = DomainPlan(ProductDomain((Annulus(r),)))
        margin = 0.02 * (1.0 - r)
        for zc in _random_disk_points(rng, 10, r + margin, 1.0 - margin):
            cases += [(plan, complex(zc), INCLUSION), (plan, complex(zc), REFLECTION)]
    cases.append((DomainPlan(ProductDomain((PuncturedDisk((0j, 0.5 + 0j, -0.5j)),))),
                  0.1 + 0.2j, INCLUSION))
    worst_err, worst_below = 0.0, -math.inf
    for plan, zc, branch in cases:
        d = plan.domain
        z = d.point([zc])
        sr = search_lower_bound(plan, z, branch)
        sampled = product_inradius(sr.witness, d, z, 65536)
        worst_err = max(worst_err, abs(sampled - sr.value))
        worst_below = max(worst_below, sr.value - sampled)
    return worst_err, worst_below, len(cases)


def suite_family_gap(seed: int = 0) -> list[Check]:
    """Family honesty on the annulus: the catalog family cannot reach the
    closed form at |z1| = sqrt(r) and the report says so.  The analytic
    witness score the search uses is checked against the sampled oracle."""
    import numpy as np

    r = 0.25
    d = ProductDomain((Annulus(r), UnitDisk()))
    plan = DomainPlan(d)
    z = d.point([0.5, 0j])
    x = 0.5
    outer = (x - r) / (1.0 - r * x)           # analytic branch values, the oracle
    reflected = r * (1.0 - x) / (x - r * r)
    got_incl = search_lower_bound(plan, z, INCLUSION).value
    got_refl = search_lower_bound(plan, z, REFLECTION).value
    sr = search_lower_bound(plan, z)
    rep = squeeze_bounds(plan, z)
    exact = rep.exact
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
