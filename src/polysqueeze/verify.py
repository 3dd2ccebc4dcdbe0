"""Named verification suites and the independent oracle they check against.

Each suite exercises one quantitative claim of the library at a pinned
tolerance and returns :class:`Check` records; the CLI ``verify`` command and
the acceptance tests both run these.  All randomness flows through one seeded
generator per suite, drawn in bulk in the order of one draw per point, so
results are reproducible bit for bit.  Suites that
build arrays import numpy when they run, so importing this module does not
load it; the CLI imports this module only for ``verify`` and its help.

The oracle lives here, since the suites are its only caller: the
boundary-sampling image inradius of explicit witnesses whose maps end in a
Mobius step, :func:`product_inradius` (each circle's least squared modulus
on a coarse grid, then refined by passes of one exp per circle and a table
of rotations, many circles as the rows of one array), and its closed-form
counterpart for radial-then-Mobius maps, both over the data a factor gives
(``radii``, ``punctures``; a ball is refused before any sampling), and the
radial distance pair ``sigma`` / ``sigma_inv`` with the Poincare distance,
``sigma`` of :func:`~polysqueeze.embeddings.mobius_modulus`.  No reported
value depends on any of them.  Every worst-error fold in the suites keeps a
NaN (:func:`_max`, :func:`_min`), so a NaN from the oracle fails its check.
Suites build points with :meth:`ProductDomain.point`, whose one reader
converts and tests each coordinate once, and build each domain's
:class:`~polysqueeze.squeezing.DomainPlan` once, which the bounds, the
catalog value and the search then read at every point.  The map primitives
come from :mod:`polysqueeze.embeddings`, which evaluates them on scalars;
maps on arrays are evaluated here alone, by :func:`_array_eval`.  The
``hyperbolic`` suite is named for the geometry it checks.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from functools import lru_cache, partial, reduce
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


def _within(name: str, err: float, tol: str, label: str = "max_err", more: str = "") -> Check:
    """Pass iff ``err <= tol`` (a NaN fails); ``tol`` is the bound as the detail prints it."""
    return _check(name, err <= float(tol), f"{label}={err:.3e} tol={tol}{more}")


def _max(a: float, b: float) -> float:
    """``max(a, b)``, or NaN if either is NaN: the builtin keeps a NaN only as ``a``."""
    return b if b > a or b != b else a


def _min(a: float, b: float) -> float:
    """``min(a, b)``, or NaN if either is NaN: the builtin keeps a NaN only as ``a``."""
    return b if b < a or b != b else a


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
    circle's samples are this radius times ``_unit_circle(_COARSE)``, points
    at equal angles from 0 counterclockwise, and this radius times
    ``exp(i t)`` times each pass's rotations, as :func:`_sampled_circle_min`
    refines; punctures are not sampled.
    """
    outer, *inner = f.radii
    return ((1.0 + _NUDGE) * outer, *((1.0 - _NUDGE) * rho for rho in inner))


def _mobius_parts(a, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``zeta - a`` and ``1 - conj(a) zeta``, the second formed in place; ``zeta`` is kept.

    ``a`` is a complex, or a (C, 1) column of one zero per row of ``zeta``.
    """
    import numpy as np

    den = a.conjugate() * zeta
    np.subtract(1.0, den, out=den)
    return zeta - a, den


def _array_eval(steps: tuple[Primitive, ...], zeta: np.ndarray) -> np.ndarray:
    """The steps of a map, left to right, at every point of the ndarray ``zeta``.

    The scalar :func:`~polysqueeze.embeddings.map_eval` rounds apart from
    it, by over a thousand ulps on some samples.  A reflection has no pole
    check here, and ``zeta`` is not written to.
    """
    z = zeta
    for step in steps:
        if isinstance(step, MobiusAut):
            z, den = _mobius_parts(step.a, z)
            z /= den
        else:
            z = reflect(step.r, z)
    return z


def _squared_moduli(head: tuple[Primitive, ...], a, zeta: np.ndarray) -> np.ndarray:
    """``|v - a|**2 / |1 - conj(a) v|**2`` at ``v = _array_eval(head, zeta)``.

    The squared modulus of a map ``head`` then ``(v - a) / (1 - conj(a) v)``
    at every point of the ndarray ``zeta``: each of :func:`_mobius_parts` is
    multiplied by its conjugate in place, so no complex quotient and no
    hypot is formed.
    ``a`` is a complex, or a (C, 1) column that gives each row of ``zeta``
    its own zero; each element is the same double either way.  ``zeta`` is
    not written to.
    """
    num, den = _mobius_parts(a, _array_eval(head, zeta))
    num *= num.conj()
    den *= den.conj()
    return num.real / den.real


# The search for a circle's least modulus: a coarse grid of _COARSE equally
# spaced samples, then _PASSES passes of _PASS_POINTS points each across the
# two gaps beside the previous stage's best point, so each pass narrows the
# spacing by (_PASS_POINTS - 1) / 2 = 31.5.  The spacing falls from
# 2 pi / 256 = 2.5e-2 to 7.9e-10.  Circles are searched in stacks of at most
# _CHUNK rows, so a stage is a (_CHUNK x _COARSE) array at most.
_COARSE = 256
_PASSES = 5
_PASS_POINTS = 64
_CHUNK = 32


@lru_cache(maxsize=1)
def _pass_rotations() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Each pass's angle offsets, spanning the gaps beside 0, and ``exp(i offsets)``; read-only."""
    import numpy as np

    step = 2.0 * math.pi / _COARSE
    offsets = [np.linspace(-step, step, _PASS_POINTS)]
    while len(offsets) < _PASSES:
        offsets.append(offsets[-1] * (2.0 / (_PASS_POINTS - 1)))
    tables = np.array(offsets), np.exp(1j * np.array(offsets))
    for t in tables:
        t.setflags(write=False)
    return tuple(zip(*tables))


def _sampled_circle_min(sq, radius):
    """Least modulus of a map over a circle, or over each circle of a stack, by refining a grid.

    ``radius`` is one circle's radius, or a (C, 1) column of C radii, one
    row per circle.  ``sq`` takes the samples, a 1-D array or a (C, n) array
    of rows, and returns their squared moduli under the map element by
    element, as :func:`_squared_moduli` does.  The coarse grid is
    ``radius * _unit_circle(_COARSE)``.  A pass samples the angles ``best +
    offsets`` of :func:`_pass_rotations` around each row's own ``argmin``
    angle ``best``, as ``radius * exp(i best)`` times the pass's rotations.
    The result, a float or a (C,) array, is the square root of each row's
    least squared modulus over all stages, reduced with numpy, so a NaN at
    any sample of a row gives that row NaN.  No value crosses rows: a
    circle's minimum is the same double in a stack of any size as alone.

    Every value returned is the computed modulus at a point of its circle.
    So, like a scan of any grid, the result can only overshoot the true
    minimum, up to the rounding of ``sq``, and it is never above the
    minimum of its own coarse grid.  The refinement converges because each
    witness step is a Mobius map or ``zeta -> r / zeta``: the image of a
    circle is a circle, traced monotonically in ``t``, and the modulus along
    a circle has one minimum and one maximum.  On such a unimodal function
    the true minimizer lies within one gap of a stage's best point, which is
    the bracket the next pass samples.  The argument holds row by row.  A
    map that breaks unimodality can only make the search miss the basin,
    and then the result is too high: a check against a closed form fails
    rather than passes.

    A rotated sample's modulus is R of :func:`_sample_radii` within 3.6 eps:
    two exps within 1 eps of modulus 1, a real product rounding by eps / 2
    and a complex one by sqrt(5) eps / 2.  So the 4 eps nudge keeps 0.4 eps
    outside the unit circle, and inside an inner one, whose R is itself
    rounded by eps / 2, falls 0.1 eps short only if all five roundings peak
    together.  Samples read -2.5 to +2.0 eps against R.
    """
    import numpy as np

    step = 2.0 * math.pi / _COARSE
    s = sq(radius * _unit_circle(_COARSE))
    k = np.argmin(s, axis=-1, keepdims=True)  # a NaN's index, if the row has one
    best, minima = step * k, [np.take_along_axis(s, k, -1)]
    for offsets, rotations in _pass_rotations():
        s = sq(radius * np.exp(1j * best) * rotations)
        k = np.argmin(s, axis=-1, keepdims=True)
        best = best + offsets[k]
        minima.append(np.take_along_axis(s, k, -1))
    return np.sqrt(np.min(minima, axis=0)[..., 0])


def _circle_minima(rows: list[tuple[MapExpr, float]]) -> list[float]:
    """The :func:`_sampled_circle_min` of each row ``(e, radius)``, searched in stacks.

    Every map ends in a Mobius step.  Rows whose maps share the steps before
    it, ``e.steps[:-1]``, form one stack: the kernel is
    :func:`_squared_moduli` with the last step's zero as a (C, 1) column.
    Each stack is searched ``_CHUNK`` rows at a time, and each row's minimum
    is the double its circle gives alone.
    """
    import numpy as np

    stacks: dict[tuple[Primitive, ...], list[int]] = {}
    for i, (e, _) in enumerate(rows):
        stacks.setdefault(e.steps[:-1], []).append(i)
    out = [0.0] * len(rows)
    for head, members in stacks.items():
        for lo in range(0, len(members), _CHUNK):
            chunk = members[lo:lo + _CHUNK]
            zeros = np.array([[rows[i][0].steps[-1].a] for i in chunk])
            sq = partial(_squared_moduli, head, zeros)
            found = _sampled_circle_min(sq, np.array([[rows[i][1]] for i in chunk]))
            for i, m in zip(chunk, found.tolist()):
                out[i] = m
    return out


def _least_modulus(e: MapExpr, f: PlanarFactor, minima: list[float]) -> float:
    """The least of a factor's circle ``minima`` under ``e`` and its puncture values."""
    import numpy as np

    best = float(np.min(minima))
    for p in f.punctures:
        best = _min(best, abs(map_eval(e, p)))
    return best


def image_inradius_analytic(e: MapExpr, f: PlanarFactor) -> float | None:
    """Closed-form image inradius, or None when the map shape does not admit one.

    Applies when the composition is a prefix of reflections, which send
    circles centered at 0 to circles centered at 0, followed by one or more
    automorphisms and nothing else, the maps :func:`product_inradius`
    samples.  The automorphism suffix composes to a single
    automorphism whose zero is recovered by pulling 0 back through the
    inverses, and the per-circle minimum is the radial formula of
    :func:`mobius_circle_min_modulus`.
    """
    steps = e.steps
    split = 0
    while split < len(steps) and not isinstance(steps[split], MobiusAut):
        split += 1
    radial, mobius = steps[:split], steps[split:]
    if not mobius or any(not isinstance(s, MobiusAut) for s in mobius):
        return None

    w = 0j
    for mstep in reversed(mobius):
        w = complex(mobius_eval(mstep.inverse(), w))

    best = math.inf
    for rho in f.radii:
        for s in radial:
            rho = s.r / rho
        if rho >= 1.0:
            # a radius-1 circle maps to the unit circle under any automorphism
            best = min(best, 1.0)
        else:
            best = min(best, mobius_circle_min_modulus(w, rho))
    for p in f.punctures:
        best = min(best, abs(map_eval(e, p)))
    return best


def product_inradius(
    witnesses: list[tuple[ProductMap, ProductDomain, ProductPoint]],
) -> list[float]:
    """Sampled image inradius of each product map ``pm`` of ``(pm, d, z)``: the factorwise minimum.

    The oracle's one entry point.  A polydisk of radius c fits in the image
    iff a disk of radius c fits in every factor image, so the product value
    is the min over factors, a NaN kept.  A factor's value is the least
    modulus over each boundary circle of :func:`_sample_radii` and over the
    extension values ``map_eval(e, p)`` at its punctures ``p``.  The circles
    of all the witnesses are searched together by :func:`_circle_minima`,
    with one square root per circle; each sampled modulus agrees with
    ``abs(_array_eval(e.steps, samples))`` to a few ulps, not bit for bit.
    Every factor must be planar, every component must end in a Mobius step
    and send its base coordinate to 0 (tolerance 1e-12); all of this is
    checked for every witness before any is sampled.
    """
    per_witness = []
    for pm, d, z in witnesses:
        if not d.is_planar():
            raise DomainError("product maps are defined for planar factors only")
        if len(pm.components) != d.arity:
            raise DomainError(f"{len(pm.components)} component maps for {d.arity} factors")
        for i, e in enumerate(pm.components):
            last = e.steps[-1]
            if not isinstance(last, MobiusAut):
                raise DomainError(f"component {i} ends in {type(last).__name__}, not a Mobius step")
            require_base_to_zero(e, z.planar(i), i)
        per_witness.append([(e, f, _sample_radii(f)) for e, f in zip(pm.components, d.factors)])
    minima = iter(_circle_minima(
        [(e, rho) for factors in per_witness for e, _, radii in factors for rho in radii]))
    return [
        reduce(_min, [_least_modulus(e, f, [next(minima) for _ in radii])
                      for e, f, radii in factors])
        for factors in per_witness
    ]


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

def _uniform(lo, hi, u):
    """``Generator.uniform(lo, hi)`` at the ``rng.random`` draws ``u``, bit for bit."""
    return lo + (hi - lo) * u


def _disk_points(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The points of rows of ``rng.random`` draws: n moduli in [lo, hi), then n angles each."""
    import numpy as np

    n = u.shape[-1] // 2
    return _uniform(lo, hi, u[..., :n]) * np.exp(1j * _uniform(0.0, 2.0 * math.pi, u[..., n:]))


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
        for coords in _disk_points(rng.random((100, 2 * arity)), 0.05, 0.95).tolist():
            z = d.point(coords)
            expected = min(abs(c) for c in coords)
            upper = squeeze_bounds(plan, z, search=False).upper
            worst_upper = _max(worst_upper, abs(upper - expected))
            sr = search_lower_bound(plan, z)
            worst_gap = _min(worst_gap, sr.value - expected)
    elapsed = time.perf_counter() - t0
    return [
        _within("pinch.upper_matches_min_modulus", worst_upper, "1e-12"),
        _check("pinch.search_attains_closed_form", worst_gap >= -1e-6,
               f"min_margin={worst_gap:.3e} floor=-1e-6"),
        _check("pinch.runtime", elapsed <= 10.0, f"elapsed={elapsed:.2f}s budget=10s"),
    ]


def suite_mixed(seed: int = 0) -> list[Check]:
    """Disk-times-punctured-disk products: exact value |z2|, matching upper
    bound, and the witness re-scored by the sampled oracle.  The same three
    quantities on the disk punctured at {0, 0.5, -0.5i} times a disk, at 20
    points kept 0.05 from every puncture: lower, upper and exact all equal
    min_p |phi_z(p)|, which is evaluated here on its own."""
    import numpy as np

    rng = np.random.default_rng(seed)
    d = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
    plan = DomainPlan(d)
    worst_exact = worst_upper = worst_witness = 0.0
    witnesses, wants = [], []
    for z1, z2 in _disk_points(rng.random((100, 4)), 0.05, 0.95).tolist():
        z = d.point([z1, z2])
        rep = squeeze_bounds(plan, z, search=False)
        worst_exact = _max(worst_exact, abs(rep.exact - abs(z2)))
        worst_upper = _max(worst_upper, abs(rep.upper - abs(z2)))
        witnesses.append((rep.witness, d, z))
        wants.append(abs(z2))
    for scored, want in zip(product_inradius(witnesses), wants):
        worst_witness = _max(worst_witness, abs(scored - want))

    ps = (0j, 0.5 + 0j, -0.5j)
    d = ProductDomain((PuncturedDisk(ps), UnitDisk()))
    plan = DomainPlan(d)
    worst_multi = worst_multi_witness = 0.0
    points = []
    while len(points) < 20:  # 32 attempts at a time; about one in 17 is refused
        points += [(z1, z2) for z1, z2 in _disk_points(rng.random((32, 4)), 0.0, 0.95).tolist()
                   if min(abs(z1 - p) for p in ps) >= 0.05]
    witnesses, wants = [], []
    for z1, z2 in points[:20]:
        z = d.point([z1, z2])
        want = min(abs((z1 - p) / (1.0 - p.conjugate() * z1)) for p in ps)
        rep = squeeze_bounds(plan, z)
        exact = math.inf if rep.exact is None else rep.exact  # a missing closed form fails the check
        for v in (rep.lower, rep.upper, exact):
            worst_multi = _max(worst_multi, abs(v - want))
        witnesses.append((rep.witness, d, z))
        wants.append(want)
    for scored, want in zip(product_inradius(witnesses), wants):
        worst_multi_witness = _max(worst_multi_witness, abs(scored - want))
    return [
        _within("mixed.exact_equals_second_modulus", worst_exact, "1e-12"),
        _within("mixed.upper_matches_exact", worst_upper, "1e-12"),
        _within("mixed.witness_inradius", worst_witness, "1e-4"),
        _within("mixed.multi_puncture_exact", worst_multi, "1e-12", more=" points=20"),
        _within("mixed.multi_puncture_witness", worst_multi_witness, "1e-4", more=" points=20"),
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
            worst_piece = _max(worst_piece, abs(got - want))
            worst_dom = _max(worst_dom, annulus_clearance_bound(r, complex(x)) - got)
            values.append(got)
        branch_gap = abs(r / s - s)
        min_err = abs(reduce(_min, values) - s)
        tag = f"annulus[r={r}]"
        checks += [
            _within(f"{tag}.piecewise_formula", worst_piece, "1e-12", more=f" grid={len(grid)}"),
            _within(f"{tag}.branches_agree_at_sqrt_r", branch_gap, "1e-12", label="gap"),
            _within(f"{tag}.clearance_below_exact", worst_dom, "1e-12", label="max_excess"),
            _within(f"{tag}.grid_min_is_sqrt_r", min_err, "1e-6", label="err"),
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
        checks.append(_within(f"ball_ratios[n={n}].value", s_err, "1e-15", label="err"))
        checks.append(_check(f"ball_ratios[n={n}].both_ratios_fail", up > 0.0 and down > 0.0,
                             f"up_margin={up:.4f} down_margin={down:.4f}"))
        if n == 2:
            margins.append(_check("ball_ratios[n=2].margins", up >= 0.41 and down >= 0.35,
                                  f"up={up:.4f}>=0.41 down={down:.4f}>=0.35"))
    return checks + margins


def suite_oracle(seed: int = 0) -> list[Check]:
    """Radial circle-minimum formula against the sampled oracle's circle minimum.

    The sampled side is the witness oracle's search,
    :func:`_sampled_circle_min`, on the squared modulus
    |zeta - a|^2 / |1 - conj(a) zeta|^2.  1000 pairs are drawn with moduli
    in [0, 0.95], radii in [0.02, 0.95] and ||a| - r| >= 0.01, then 100 close
    pairs with |a| within 0.01 of r.  There the true minimum is near a
    conical 0 that a fixed grid of samples can overshoot by the slope times
    half its spacing; the refined search brackets it, so the close pairs are
    checked at the same tolerance.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    u = (x for _ in itertools.count() for x in rng.random(4096).tolist())  # the pairs read ~3350
    drawn = []  # |a|, r and the angle of a, in the order of the draws
    for _ in range(1000):
        while True:
            amod, r = _uniform(0.0, 0.95, next(u)), _uniform(0.02, 0.95, next(u))
            if abs(amod - r) >= 0.01:
                break
        drawn.append((amod, r, _uniform(0.0, 2.0 * math.pi, next(u))))
    for _ in range(100):
        r = _uniform(0.02, 0.95, next(u))
        drawn.append((_uniform(r - 0.01, min(r + 0.01, 0.95), next(u)), r,
                      _uniform(0.0, 2.0 * math.pi, next(u))))
    moduli, radii, angles = np.array(drawn).T
    pairs = list(zip((moduli * np.exp(1j * angles)).tolist(), radii.tolist()))
    worst = 0.0
    minima = _circle_minima([(MapExpr((MobiusAut(a),)), r) for a, r in pairs])
    for (a, r), got in zip(pairs, minima):
        worst = _max(worst, abs(got - mobius_circle_min_modulus(a, r)))
    return [_within("oracle.circle_min_vs_brute", worst, "1e-4",
                    more=" pairs=1000 close_pairs=100")]


def _hyperbolic_draws(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` triples of points with moduli in [0, 0.85), and ``count`` angles in [0, 2 pi).

    One ``rng.random`` call draws them all, each row in the order of the
    per-triple ``Generator.uniform`` draws it replaces, bit for bit: three
    moduli, three angles, then the rotation angle.
    """
    u = rng.random((count, 7))
    return _disk_points(u[:, :6], 0.0, 0.85), _uniform(0.0, 2.0 * math.pi, u[:, 6])


def suite_hyperbolic(seed: int = 0) -> list[Check]:
    """Inverse identities of the radial distance and Mobius invariance.

    Both compositions hold near machine precision.  Over t in [0, 20] the
    inverse-then-forward identity relies on the complement 1 - x that
    ``sigma_inv`` carries: the rounded double tanh(t/2) alone would cost about
    cosh(t/2)^2 * 2^-52 in t (about 2e-8 at t = 20).  Each invariance
    triple (a, b, c) compares the distance of a and b with that of their
    images under the automorphism with zero c, each image then rotated by
    the triple's angle.  The triples are Python complex numbers, so
    :func:`mobius_eval` runs the scalar arithmetic that ``eval`` runs, not
    numpy's complex division.
    """
    import numpy as np

    ts = np.linspace(0.0, 20.0, 2001)
    worst_t = reduce(_max, (abs(sigma(sigma_inv(t)) - t) for t in ts))
    xs = np.linspace(0.0, 0.999999, 2001)
    worst_x = reduce(_max, (abs(sigma_inv(sigma(x)) - x) for x in xs))

    points, thetas = _hyperbolic_draws(np.random.default_rng(seed), 10000)
    worst_inv = 0.0
    # 1000 rows at a time: their Python numbers stay under the draw's 1.8 MB peak
    for lo in range(0, len(thetas), 1000):
        for (a, b, c), theta in zip(points[lo:lo + 1000].tolist(), thetas[lo:lo + 1000].tolist()):
            m = MobiusAut(c)
            rot = complex(math.cos(theta), math.sin(theta))
            d1 = poincare_distance(a, b)
            d2 = poincare_distance(rot * mobius_eval(m, a), rot * mobius_eval(m, b))
            worst_inv = _max(worst_inv, abs(d1 - d2))
    return [
        _within("hyperbolic.roundtrip_t_direction", worst_t, "1e-12", more=" range=[0,20]"),
        _within("hyperbolic.roundtrip_x_direction", worst_x, "1e-12", more=" range=[0,0.999999]"),
        _within("hyperbolic.mobius_invariance", worst_inv, "1e-12", more=" triples=10000"),
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
    """Sampled inradius of family witnesses against their search score.

    Ten seeded points per annulus r in {0.04, 0.25, 0.64}, moduli 2 % of the
    width off either circle, each on both branches, plus the witness at
    0.1+0.2i of the disk punctured at {0, 0.5, -0.5i}.  Returns the worst
    |sampled - score|, the worst score - sampled, and the witness count.
    """
    cases = []
    for r, u in zip((0.04, 0.25, 0.64), rng.random((3, 20))):
        plan = DomainPlan(ProductDomain((Annulus(r),)))
        margin = 0.02 * (1.0 - r)
        for zc in _disk_points(u, r + margin, 1.0 - margin).tolist():
            cases += [(plan, zc, INCLUSION), (plan, zc, REFLECTION)]
    cases.append((DomainPlan(ProductDomain((PuncturedDisk((0j, 0.5 + 0j, -0.5j)),))),
                  0.1 + 0.2j, INCLUSION))
    witnesses, scores = [], []
    for plan, zc, branch in cases:
        d = plan.domain
        z = d.point([zc])
        sr = search_lower_bound(plan, z, branch)
        witnesses.append((sr.witness, d, z))
        scores.append(sr.value)
    worst_err, worst_below = 0.0, -math.inf
    for sampled, score in zip(product_inradius(witnesses), scores):
        worst_err = _max(worst_err, abs(sampled - score))
        worst_below = _max(worst_below, score - sampled)
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
               f"witnesses={count}"),
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
