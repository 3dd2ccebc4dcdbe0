"""Squeezing values of product domains relative to the polydisk target.

For a point z of a bounded product domain, the squeezing value is the largest
c such that some injective holomorphic map sending z to 0 fits a polydisk of
radius c inside its image.  Each factor kind has one closed form
(:func:`single_factor_exact`), and the value of a catalog product is the min
over its factors.  The catalog is products of disks and punctured disks
(any number of punctures), one annulus with disk factors, and a single ball.
This module also gives the puncture upper bound, which fills every puncture
at once, the factorwise product lower bound, the boundary-clearance lower
bound for the annulus, and aggregates everything into a consistent report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .domains import (
    Annulus,
    BallFactor,
    ProductDomain,
    ProductPoint,
    PuncturedDisk,
    UnitDisk,
    punctures,
)
from .embeddings import MapExpr, ProductMap
from .errors import DomainError, SqueezeError, UnsupportedGeometryError
from .hyperbolic import MobiusAut, kob_disk, mobius_eval, sigma_inv

# Method tags carried by reports.
CLOSED_FORM = "ClosedForm"
PUNCTURE_UPPER = "PunctureUpper"
PRODUCT_LOWER = "ProductLower"
CLEARANCE_LOWER = "ClearanceLower"
SEARCH = "Search"
FAMILY_GAP = "FamilyGap"


@dataclass(frozen=True)
class BoundReport:
    """Certified bracket for the squeezing value at one point.

    ``exact`` is set only when the domain lies in the closed-form catalog;
    witnesses are explicit embeddings realizing lower bounds.
    """

    lower: float
    upper: float
    exact: Optional[float] = None
    witnesses: tuple[ProductMap, ...] = ()
    methods: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper + 1e-9 and self.upper <= 1.0 + 1e-9):
            raise SqueezeError(f"inconsistent bounds: lower={self.lower}, upper={self.upper}")
        if self.exact is not None and not (
            self.lower - 1e-9 <= self.exact <= self.upper + 1e-9
        ):
            raise SqueezeError(f"exact value {self.exact} escapes [{self.lower}, {self.upper}]")
        # min(lower, upper) and min(upper, 1.0), written as tests: most reports
        # need neither clamp, and the closed-form paths build one per point
        if self.upper < self.lower:
            object.__setattr__(self, "lower", self.upper)
        if 1.0 < self.upper:
            object.__setattr__(self, "upper", 1.0)


@dataclass(frozen=True)
class LimitProfile:
    """Bound values along a strictly monotone parameter path, with its limit target."""

    entries: tuple[tuple[float, float], ...]
    target: float

    def __post_init__(self) -> None:
        params = [p for p, _ in self.entries]
        if len(params) < 1:
            raise DomainError("profile needs at least one entry")
        if len(params) >= 2:
            diffs = [b - a for a, b in zip(params, params[1:])]
            if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
                raise DomainError("profile parameters must be strictly monotone")

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.entries)

    @property
    def bounds(self) -> tuple[float, ...]:
        return tuple(b for _, b in self.entries)


# One formula per column.  ``exact`` and ``lower`` use |phi_p(z)|
# (:func:`_reduced_modulus`), and ``upper`` uses sigma_inv(kob_disk(z, p)).
# The two are equal in exact arithmetic but differ in the last bit on about
# 28 % of (z, p) pairs, and only this split keeps the printed single-puncture
# values bit for bit stable.
def _reduced_modulus(p: complex, z: complex) -> float:
    """Modulus of the automorphism image of ``z`` under the map vanishing at ``p``."""
    return abs(complex(mobius_eval(MobiusAut(p), z)))


def single_factor_exact(f, coord) -> float:
    """Squeezing value of a one-factor domain, in closed form.

    Disk: 1.  Punctured disk: min over its punctures p of the modulus of z
    reduced by the automorphism vanishing at p.  Annulus with inner radius r:
    max(|z|, r/|z|).  Ball of dimension n: 1/sqrt(n).
    """
    if isinstance(f, UnitDisk):
        return 1.0
    if isinstance(f, PuncturedDisk):
        z = complex(coord)
        return min(_reduced_modulus(p, z) for p in f.punctures)
    if isinstance(f, Annulus):
        x = abs(complex(coord))
        if not (f.r < x < 1.0):
            raise DomainError(f"|z| = {x} outside the annulus ({f.r}, 1)")
        return max(x, f.r / x)
    if isinstance(f, BallFactor):
        return 1.0 / math.sqrt(f.n)
    raise UnsupportedGeometryError(f"unknown factor kind {type(f).__name__}")


def single_annulus_index(d: ProductDomain) -> Optional[int]:
    """Index of the annulus factor when d is one annulus with unit-disk cofactors."""
    idx = None
    for i, f in enumerate(d.factors):
        if isinstance(f, Annulus):
            if idx is not None:
                return None
            idx = i
        elif not isinstance(f, UnitDisk):
            return None
    return idx


def _mobius_witnesses(d: ProductDomain, z: ProductPoint) -> ProductMap:
    return ProductMap(tuple(MapExpr((MobiusAut(z.planar(i)),)) for i in range(d.arity)))


def exact_squeeze(d: ProductDomain, z: ProductPoint) -> BoundReport:
    """Closed-form squeezing value, for domains in the catalog.

    Catalog: products of unit disks and punctured disks, with any number of
    punctures per factor; one annulus with unit-disk cofactors; a single
    ball.  On each the value is the min over factors of
    :func:`single_factor_exact`.  Disk and punctured-disk products carry the
    witness that sends each coordinate to 0 by an automorphism.  Anything
    else raises :class:`UnsupportedGeometryError` and callers fall back to
    bounds.
    """
    fs = d.factors
    if single_annulus_index(d) is not None or (len(fs) == 1 and isinstance(fs[0], BallFactor)):
        witnesses = ()
    elif all(isinstance(f, (UnitDisk, PuncturedDisk)) for f in fs):
        witnesses = (_mobius_witnesses(d, z),)
    else:
        raise UnsupportedGeometryError("domain is outside the closed-form catalog")
    v = product_lower_bound(d, z)
    return BoundReport(v, v, v, witnesses, (CLOSED_FORM,))


def puncture_upper_bound(d: ProductDomain, z: ProductPoint) -> float:
    """Upper bound from punctures: min over factors i and punctures p of sigma_inv(k_D(z_i, p)).

    An injective map of the product into the polydisk is bounded, so it
    extends across every puncture at once, and the puncture's image lies
    outside the image of the domain.  The Kobayashi distance from z to the
    filled puncture set is the least unit-disk distance k_D(z_i, p) over
    factors and their punctures, which caps the squeezing value at
    sigma_inv of it.  Factors without punctures, balls included, add no
    candidate; a domain with no puncture at all raises :class:`DomainError`.
    """
    candidates = [
        sigma_inv(kob_disk(z.planar(i), p))
        for i, f in enumerate(d.factors)
        for p in punctures(f)
    ]
    if not candidates:
        raise DomainError("no factor has a puncture; the bound is inapplicable")
    return min(candidates)


def product_lower_bound(d: ProductDomain, z: ProductPoint) -> float:
    """Factorwise lower bound: min over factors of :func:`single_factor_exact`."""
    return min(map(single_factor_exact, d.factors, z.coords))


def annulus_clearance_bound(r: float, z1: complex) -> float:
    """Lower bound for an annulus coordinate from boundary clearance.

    Two explicit embeddings give certified values: keeping the outer circle
    outer yields (|z|-r)/(1-r|z|); reflecting first yields r(1-|z|)/(|z|-r^2).
    Both tend to 1 at their respective boundary, and the max is returned.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"inner radius must lie in (0, 1), got {r}")
    x = abs(complex(z1))
    if not (r < x < 1.0):
        raise DomainError(f"|z1| = {x} outside the annulus ({r}, 1)")
    outer = (x - r) / (1.0 - r * x)
    reflected = r * (1.0 - x) / (x - r * r)
    return max(outer, reflected)


@dataclass(frozen=True)
class BoundsOptions:
    """Knobs for :func:`squeeze_bounds`."""

    search: bool = True
    family: "FamilySpec | None" = None
    gap_tol: float = 1e-6


def squeeze_bounds(d: ProductDomain, z: ProductPoint, options: BoundsOptions | None = None) -> BoundReport:
    """Aggregate every applicable method into one consistent report.

    lower = max of applicable lower bounds, upper = min of applicable upper
    bounds (including the trivial 1), exact filled when the catalog applies.
    Inapplicable methods are silently omitted from the tag list.  When the
    witness-family search stays below a known exact value by more than
    ``gap_tol``, the report carries the FamilyGap tag.
    """
    from .search import search_lower_bound

    opt = options or BoundsOptions()
    methods: list[str] = []
    witnesses: list[ProductMap] = []

    exact: Optional[float] = None
    try:
        rep = exact_squeeze(d, z)
        exact = rep.exact
        witnesses.extend(rep.witnesses)
        methods.append(CLOSED_FORM)
    except UnsupportedGeometryError:
        pass

    uppers = [1.0]
    try:
        uppers.append(puncture_upper_bound(d, z))
        methods.append(PUNCTURE_UPPER)
    except DomainError:
        pass

    lowers = [0.0]
    try:
        lowers.append(product_lower_bound(d, z))
        methods.append(PRODUCT_LOWER)
    except (DomainError, UnsupportedGeometryError):
        pass

    ann = single_annulus_index(d)
    if ann is not None:
        lowers.append(annulus_clearance_bound(d.factors[ann].r, z.planar(ann)))
        methods.append(CLEARANCE_LOWER)

    if opt.search and d.is_planar():
        sr = search_lower_bound(d, z, opt.family)
        lowers.append(sr.value)
        methods.append(SEARCH)
        witnesses.append(sr.witness)
        if exact is not None and sr.value < exact - opt.gap_tol:
            methods.append(FAMILY_GAP)

    lower, upper = max(lowers), min(uppers)
    if lower > upper + 1e-9:
        raise SqueezeError(f"internal inconsistency: lower {lower} > upper {upper}")
    return BoundReport(min(lower, upper), upper, exact, tuple(witnesses), tuple(methods))


@dataclass(frozen=True)
class BallProductReport:
    """Evidence that no fixed 1/dim ratio ties the ball-target and polydisk-target values.

    For the n-fold product of n-dimensional balls (total dimension n^2), the
    ball-target squeezing value is 1/sqrt(n) and the polydisk-target value
    sits in [1/sqrt(n), 1].  Scaling by the total-dimension factor n in either
    direction leaves that bracket, with the margins recorded below.
    """

    n: int
    ball_target_value: float
    poly_lower: float
    poly_upper: float
    scaled_up: float          # hypothetical polydisk value n * ball value
    scaled_up_margin: float   # amount by which it exceeds the ceiling 1
    scaled_down: float        # hypothetical polydisk value ball value / n
    scaled_down_margin: float  # shortfall below the proven floor

    @property
    def contradictions_hold(self) -> bool:
        return self.scaled_up_margin > 0.0 and self.scaled_down_margin > 0.0


def ball_product_ratio_check(n: int) -> BallProductReport:
    """Check both fixed-ratio hypotheses on the n-fold product of n-balls."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"the check needs an integer n >= 2, got {n}")
    domain = ProductDomain((BallFactor(n),) * n)
    origin = domain.point([(0j,) * n] * n)
    # Each ball factor has ball-target value 1, combined through the
    # inverse-square-sum rule for the n-fold product.
    s = (n * 1.0 ** -2) ** -0.5
    t_lower = product_lower_bound(domain, origin)
    t_upper = 1.0
    up = n * s
    down = s / n
    return BallProductReport(
        n=n,
        ball_target_value=s,
        poly_lower=t_lower,
        poly_upper=t_upper,
        scaled_up=up,
        scaled_up_margin=up - t_upper,
        scaled_down=down,
        scaled_down_margin=t_lower - down,
    )


def boundary_limit_profile(
    r: float, path, include_exact: bool = True
) -> LimitProfile:
    """Lower-bound profile along a monotone path of annulus moduli.

    Each |z1| is paired with the clearance bound, combined with the exact
    catalog value of the annulus-times-disk product when ``include_exact``
    (the default).  The bound tends to 1 toward either boundary circle.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"inner radius must lie in (0, 1), got {r}")
    xs = [float(x) for x in path]
    if not xs:
        raise DomainError("empty path")
    for x in xs:
        if not (r < x < 1.0):
            raise DomainError(f"path value {x} outside the annulus ({r}, 1)")
    entries = []
    for x in xs:
        b = annulus_clearance_bound(r, x)
        if include_exact:
            b = max(b, max(x, r / x))
        entries.append((x, b))
    return LimitProfile(tuple(entries), 1.0)


def default_limit_path(r: float, side: str, steps: int = 256, end_eps: float = 1e-4):
    """Log-spaced annulus moduli from sqrt(r) toward one boundary circle.

    The distance to the target circle shrinks geometrically; the last point
    sits at ``end_eps`` (outer side: |z| = 1 - end_eps) or at relative gap
    ``end_eps`` above r (inner side: |z| = r + end_eps * (1 - r)).
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"inner radius must lie in (0, 1), got {r}")
    if steps < 1:
        raise DomainError("steps must be positive")
    s = math.sqrt(r)
    if side == "outer":
        start, end = 1.0 - s, end_eps
        to_x = lambda delta: 1.0 - delta
    elif side == "inner":
        start, end = s - r, end_eps * (1.0 - r)
        to_x = lambda delta: r + delta
    else:
        raise DomainError(f"side must be 'outer' or 'inner', got {side!r}")
    if steps == 1:
        return [to_x(end)]
    import numpy as np

    return [to_x(float(delta)) for delta in np.geomspace(start, end, steps)]


def hhr_flag(d: ProductDomain) -> bool:
    """True when the squeezing value provably has no positive lower bound.

    A puncture in any factor forces the value under any epsilon as the point
    approaches the puncture, so the product cannot be holomorphic homogeneous
    regular.  Disk, annulus and ball factors all have positive single-factor
    floors (1, sqrt(r), 1/sqrt(n)), so puncture presence is exactly the
    evidence available in this catalog.
    """
    return any(isinstance(f, PuncturedDisk) for f in d.factors)
