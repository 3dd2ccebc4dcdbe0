"""Squeezing values of product domains relative to the polydisk target.

For a point z of a bounded product domain, the squeezing value is the largest
c such that some injective holomorphic map sending z to 0 fits a polydisk of
radius c inside its image.  A polydisk fits in a product image iff it fits in
every factor image, so every bound here comes from one closed form per factor
kind (``_KINDS``), the factor's boundary (its ``radii`` and ``punctures``; a
punctured factor's value, the least
:func:`~polysqueeze.embeddings.mobius_modulus` at its punctures, is also a
puncture cap) and one product rule, the min over factors.  The catalog, where
that min is the value, is products of disks and punctured disks, one annulus
with disk factors, and a single ball; a :class:`DomainPlan` reads that class
from the factors' boundary data, not their classes.
Every bound is read through a :class:`DomainPlan`: its factors' closed forms
and the facts of the domain that no point changes, built once per domain by
a caller that keeps it and once per call otherwise.  :func:`squeeze_bounds`
gives all of them: ``lower`` is the min of the values and ``upper`` the min
of 1 and the puncture caps.  :func:`exact_squeeze` reads the same values on
the catalog alone.

The witness family comes from the boundary too: a factor has one branch per
boundary circle, the circle it makes outermost, and every branch is scored
by one formula, :func:`_score`, whose puncture terms read the same
``mobius_modulus``.  A family is a name: ``auto`` takes every branch of each
factor, ``inclusion`` or ``reflection`` that one branch where the factor has
it and inclusion elsewhere.  :func:`_family` scores the family, keeps each
factor's best branch and builds its witness from that branch's image, for
:func:`search_lower_bound` and, off disk and punctured-disk products (where
every family is the automorphism witness), :func:`squeeze_bounds`.  Also
here: the annulus clearance bound and its limit profiles.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, Optional

from .domains import (
    Annulus,
    BallFactor,
    Frozen,
    ProductDomain,
    ProductPoint,
    PuncturedDisk,
    UnitDisk,
)
from .embeddings import (
    MapExpr,
    MobiusAut,
    ProductMap,
    Reflection,
    mobius_circle_min_modulus,
    mobius_modulus,
    reflect,
    require_base_to_zero,
)
from .errors import DomainError, SqueezeError, UnsupportedGeometryError

# Method tags carried by reports.
CLOSED_FORM = "ClosedForm"
PUNCTURE_UPPER = "PunctureUpper"
PRODUCT_LOWER = "ProductLower"
CLEARANCE_LOWER = "ClearanceLower"
SEARCH = "Search"
FAMILY_GAP = "FamilyGap"

# Witness-family branches, one per boundary circle, the circle each makes
# outermost: keep the circles where they are, or swap the unit circle and
# the circle of radius r of an annulus with zeta -> r / zeta first.
INCLUSION = "inclusion"
REFLECTION = "reflection"
_BRANCHES = (INCLUSION, REFLECTION)
# Family names: every branch of each factor, or one branch by name.
AUTO = "auto"
FAMILIES = (AUTO, INCLUSION, REFLECTION)

# Below the least normal double, abs(z) keeps too few bits for r/|z|.
_TINY = sys.float_info.min

# The default limit path ends this far below 1, or this times 1 - r above r.
_LIMIT_END = 1e-4


class BoundReport(Frozen):
    """Certified bracket for the squeezing value at one point.

    ``exact`` is set only when the domain lies in the closed-form catalog;
    ``witness`` is one explicit embedding, a :class:`ProductMap` sending the
    point to 0, or None where the report has none.  Construction checks
    0 <= lower <= exact <= upper <= 1 exactly and repairs nothing: a report
    out of that order raises :class:`SqueezeError`.
    """

    __slots__ = ("lower", "upper", "exact", "witness", "methods")

    def __init__(self, lower: float, upper: float, exact: Optional[float] = None,
                 witness: Optional[ProductMap] = None, methods: tuple[str, ...] = ()) -> None:
        if not (0.0 <= lower <= upper <= 1.0):
            raise SqueezeError(f"inconsistent bounds: lower={lower}, upper={upper}")
        if exact is not None and not (lower <= exact <= upper):
            raise SqueezeError(f"exact value {exact} escapes [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "methods", methods)


class LimitProfile(Frozen):
    """Bound values along a strictly monotone parameter path, with its limit target."""

    __slots__ = ("entries", "target")

    def __init__(self, entries: tuple[tuple[float, float], ...], target: float) -> None:
        params = [p for p, _ in entries]
        if len(params) < 1:
            raise DomainError("profile needs at least one entry")
        if len(params) >= 2:
            diffs = [b - a for a, b in zip(params, params[1:])]
            if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
                raise DomainError("profile parameters must be strictly monotone")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "target", target)

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.entries)

    @property
    def bounds(self) -> tuple[float, ...]:
        return tuple(b for _, b in self.entries)


def _annulus_value(f: Annulus, coord) -> float:
    x = abs(complex(coord))
    if not (f.r < x < 1.0):
        raise DomainError(f"|z| = {x} outside the annulus ({f.r}, 1)")
    # a subnormal |z| is below sqrt(r), so the value is r/|z|, the modulus of
    # the reflected point, whose low bits :func:`reflect` keeps; capped at 1,
    # since that quotient can round to 1 + 2^-52 where r/|z| is 1 - 5.5e-17
    return max(x, f.r / x) if x >= _TINY else min(1.0, abs(reflect(f.r, coord)))


# Each factor kind's one-factor closed form ``value(f, coord)``.  A punctured
# factor's ``exact``, ``lower`` and ``upper`` all use |phi_p(z)|.  The equal
# value sigma_inv(k_D(z, p)) rounds differently in the last bit on about 28 %
# of (z, p) pairs, and an ``upper`` from it could sit below ``exact`` and drag
# ``lower`` down with it.
_KINDS = {
    UnitDisk: lambda f, coord: 1.0,
    PuncturedDisk:
        lambda f, coord: min(1.0, *(mobius_modulus(p, complex(coord)) for p in f.punctures)),
    Annulus: _annulus_value,
    BallFactor: lambda f, coord: 1.0 / math.sqrt(f.n),
}


def _kind(f):
    try:
        return _KINDS[type(f)]
    except KeyError:
        raise UnsupportedGeometryError(f"unknown factor kind {type(f).__name__}") from None


def _score(f, w: complex) -> float:
    """Inradius of the witness whose branch sends the point to ``w``: 1, lowered to
    the least |phi_w| over the inner circles and the punctures of ``f`` (a branch
    maps ``f`` onto itself, and phi_w keeps the unit circle)."""
    best = 1.0
    for rho in f.radii[1:]:
        best = min(best, mobius_circle_min_modulus(w, rho))
    for p in f.punctures:
        best = min(best, mobius_modulus(w, p))
    return best


class DomainPlan:
    """What the bounds and the CLI read of one domain, worked out once.

    ``kinds``: each factor's closed form, from the kind table; ``witnessed``
    and ``annulus``: the catalog class, read from the factors' boundary data,
    not their classes.  ``witnessed`` is True where every factor is planar
    with one boundary circle (disks and punctured disks, whose value has the
    automorphism witness); False where exactly one planar factor has more
    than one circle, the others have one and no factor has punctures (one
    annulus with disks), and on a lone non-planar factor (a single ball);
    None elsewhere, outside the catalog.  ``annulus`` is the index of that
    one factor with more circles, else None.  ``methods``: the tags that
    depend on the domain alone (``ClosedForm``, ``PunctureUpper``,
    ``ProductLower``, ``ClearanceLower``); ``punctured``: the factors with
    punctures, whose values are puncture caps; ``branches``: each factor's
    branch names under each family name, from its boundary circles (empty
    off a planar domain, where no family is scored); ``planar``: whether
    every factor is planar, so whether the witness family can be scored.  A
    plan is never changed after it is built, so callers may share one.  An
    unknown factor kind raises :class:`UnsupportedGeometryError`.
    """

    __slots__ = ("domain", "kinds", "witnessed", "methods", "punctured", "branches",
                 "annulus", "planar")

    def __init__(self, d: ProductDomain) -> None:
        fs = d.factors
        self.domain, self.kinds = d, tuple(_kind(f) for f in fs)
        self.planar = d.is_planar()
        self.punctured = tuple(i for i, f in enumerate(fs) if f.punctures)
        # the catalog class, from the boundary data: ``holed`` lists the planar
        # factors with more than one circle, None where a factor is not planar
        holed = [i for i, f in enumerate(fs) if len(f.radii) > 1] if self.planar else None
        self.annulus = holed[0] if holed and len(holed) == 1 and not self.punctured else None
        if holed == []:
            self.witnessed = True
        elif self.annulus is not None or (holed is None and len(fs) == 1):
            self.witnessed = False
        else:
            self.witnessed = None
        methods = [] if self.witnessed is None else [CLOSED_FORM]
        if self.punctured:
            methods.append(PUNCTURE_UPPER)
        methods.append(PRODUCT_LOWER)
        if self.annulus is not None:
            methods.append(CLEARANCE_LOWER)
        self.methods = tuple(methods)
        auto = tuple(_BRANCHES[:len(f.radii)] for f in fs) if self.planar else ()
        self.branches = {family: tuple(
            names if family == AUTO else (family,) if family in names else (INCLUSION,)
            for names in auto) for family in FAMILIES}

    @staticmethod
    def of(d) -> "DomainPlan":
        """``d`` if it is a plan, else the plan of the domain ``d``, built for this call."""
        return d if type(d) is DomainPlan else DomainPlan(d)

    def values(self, z: ProductPoint) -> list[float]:
        """Each factor's value column at ``z``, the closed form of its kind.

        Disk: 1.  Punctured disk: min over its punctures p of |phi_p(z)|.
        Annulus with inner radius r: max(|z|, r/|z|).  Ball of dimension n:
        1/sqrt(n).  A value that rounds above 1 is capped at 1.  A point with
        another number of coordinates than the domain has factors raises
        :class:`DomainError`, as :meth:`ProductPoint.of` does.
        """
        coords = z.coords
        if len(coords) != len(self.kinds):
            raise DomainError(
                f"point has {len(coords)} coordinates, domain has {len(self.kinds)} factors")
        return [value(f, c) for value, f, c in zip(self.kinds, self.domain.factors, coords)]


def _automorphisms(plan: DomainPlan, coords) -> ProductMap:
    """The automorphism witness, each z_i sent to 0 by phi_{z_i}, the inclusion
    branch's :func:`_witness` (checked)."""
    components = []
    for i, (f, c) in enumerate(zip(plan.domain.factors, coords)):
        components.append(_witness(f, INCLUSION, c))
        require_base_to_zero(components[-1], c, i)
    return ProductMap(components)


def exact_squeeze(d: ProductDomain, z: ProductPoint) -> BoundReport:
    """Closed-form squeezing value on the catalog: the min of the plan's value column.

    ``d`` is a domain or its :class:`DomainPlan`, as in :func:`squeeze_bounds`,
    whose ``exact`` this is, bit for bit.  On disk and punctured-disk products
    ``witness`` sends each coordinate to 0 by an automorphism; elsewhere it
    is None.  A domain outside the catalog raises
    :class:`UnsupportedGeometryError` and callers fall back to bounds.
    """
    plan = DomainPlan.of(d)
    if plan.witnessed is None:
        raise UnsupportedGeometryError("domain is outside the closed-form catalog")
    v = min(plan.values(z))
    return BoundReport(v, v, v, _automorphisms(plan, z.coords) if plan.witnessed else None,
                       (CLOSED_FORM,))


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
    # at a subnormal |z| the reflected bound is r/|z|, as in the closed form
    reflected = r * (1.0 - x) / (x - r * r) if x >= _TINY else abs(reflect(r, z1))
    return max(outer, reflected)


def _branch_image(f, z: complex, branch: str) -> Optional[complex]:
    """Image of ``z`` under the steps that ``branch`` puts before the normalizer.

    ``branch`` is one of the plan's names for ``f`` (:attr:`DomainPlan.branches`),
    so a reflection branch has an annulus factor.  None where the image has
    modulus 1 in floating point, so that no automorphism of the disk vanishes
    there: the reflected image of a point within a few ulps of the inner
    circle can round onto the unit circle.
    """
    if branch == REFLECTION:
        w = reflect(f.r, z)
        return w if abs(w) < 1.0 else None
    return z


def _witness(f, branch: str, w: complex) -> MapExpr:
    """The branch's steps, then the automorphism sending ``w``, the branch image, to 0:
    ``mobius(w)`` or ``reflect(r)|mobius(w)``, phi_0 included, the one form of
    every witness component."""
    return MapExpr((Reflection(f.r), MobiusAut(w)) if branch == REFLECTION else (MobiusAut(w),))


def _family(plan: DomainPlan, z: ProductPoint, family: str,
            values: Iterable[float]) -> tuple[float, tuple[MapExpr, ...], int]:
    """Min of the best branch scores, their witnesses (earlier wins ties), branches scored.

    The one family witness builder.  Each factor's branches are the plan's names for
    ``family``; their images are computed and scored once, in one pass, and
    the witness is built from the best image by :func:`_witness`.  A branch
    with no normalizer at the point is skipped, and a factor left with none
    keeps inclusion, which always has one: the point lies in the disk.
    ``values`` holds each factor's value column at the point.  A witness
    never beats its factor's squeezing value, but the score and the value
    are different expressions and can round an ulp apart, so each best
    score is capped by the value: score <= value bit for bit, and the min of
    the scores is at most the min of the values.
    """
    scores, witnesses, evaluations = [], [], 0
    rows = zip(plan.domain.factors, plan.branches[family], z.coords, values)
    for i, (f, names, c, value) in enumerate(rows):
        best = None
        for b in names:
            w = _branch_image(f, c, b)
            if w is None:
                continue
            score = _score(f, w)
            evaluations += 1
            if best is None or score > best:  # max's test: the earlier wins ties
                best, branch, image = score, b, w
        if best is None:
            best, branch, image = _score(f, c), INCLUSION, c
            evaluations += 1
        e = _witness(f, branch, image)
        require_base_to_zero(e, c, i)
        scores.append(value if value < best else best)  # min(best, value), bit for bit
        witnesses.append(e)
    return min(scores), tuple(witnesses), evaluations


class SearchResult(Frozen):
    """Best family value, its witness, and the number of branches scored."""

    __slots__ = ("value", "witness", "evaluations")


def _require_family(family: str) -> None:
    if family not in FAMILIES:
        raise DomainError(f"unknown family name {family!r}; known: {', '.join(FAMILIES)}")


def search_lower_bound(d: ProductDomain, z: ProductPoint, family: str = AUTO) -> SearchResult:
    """Best certified lower bound over the named family, with its witness: the best
    branch of each factor by :func:`_score` (the earlier on ties), capped by the
    factor's value, min over factors.  ``d`` may be a domain's :class:`DomainPlan`."""
    _require_family(family)
    plan = DomainPlan.of(d)
    if not plan.planar:
        raise DomainError("the embedding search is defined for planar factors only")
    value, witnesses, evaluations = _family(plan, z, family, plan.values(z))
    return SearchResult(value, ProductMap(witnesses), evaluations)


def squeeze_bounds(d: ProductDomain, z: ProductPoint, *, search: bool = True,
                   family: str = AUTO) -> BoundReport:
    """Every bound of one point, from one pass over the factor table.

    ``d`` is a domain or its :class:`DomainPlan`; a bare domain gets a plan
    built for this call, and a caller that evaluates one domain at many
    points builds the plan once and passes it.  ``exact`` is the min of the
    values on the catalog, as :func:`exact_squeeze` gives it, and lower is
    that min on every domain; upper = min of 1 and the puncture caps.  A
    factor's value is a lower bound, since a polydisk fits in a product
    image iff it fits in every factor image.  A punctured factor's value
    |phi_p(z_i)|, least over its punctures, is also an upper bound: an
    injective map of the product into the polydisk is bounded, so it
    extends across every puncture at once, and the puncture's image lies
    outside the image of the domain.  The one ``witness`` is the automorphism
    witness on disk and punctured-disk products (:func:`_automorphisms`):
    every family is that map there, scoring the value to a few ulps, so
    ``search`` adds only its tag.  Elsewhere ``search`` scores the named
    ``family`` on planar factors for its best map, tagged FamilyGap when it
    stays below ``exact`` by over 1e-6; the witness is None where no family
    was scored.  An unknown family name raises DomainError.

    The order holds by construction, so :class:`BoundReport` has nothing to
    repair: every value lies in [0, 1] (one that rounds above 1 is capped at
    1), and the caps are values, so upper is at least their min.  The
    annulus clearance and each family score are capped by that min, so
    neither could raise lower, and the clearance is not computed here; its
    tag stays.
    """
    _require_family(family)
    plan = DomainPlan.of(d)
    values = plan.values(z)
    product = min(values)
    exact = None if plan.witnessed is None else product
    methods = plan.methods

    if plan.witnessed:
        witness = _automorphisms(plan, z.coords)
        methods += (SEARCH,) if search else ()
    elif search and plan.planar:
        value, found, _ = _family(plan, z, family, values)
        methods += (SEARCH, FAMILY_GAP) if exact is not None and value < exact - 1e-6 else (SEARCH,)
        witness = ProductMap(found)
    else:
        witness = None
    upper = min([1.0, *(values[i] for i in plan.punctured)])
    return BoundReport(product, upper, exact, witness, methods)


class BallProductReport(Frozen):
    """Evidence that no fixed 1/dim ratio ties the ball-target and polydisk-target values.

    For the n-fold product of n-dimensional balls (total dimension n^2), the
    ball-target squeezing value is 1/sqrt(n) and the polydisk-target value
    sits in [1/sqrt(n), 1].  Scaling by the total-dimension factor n in either
    direction leaves that bracket, with the margins recorded below.
    """

    # scaled_up: the hypothetical polydisk value n * ball value, and
    # scaled_up_margin the amount by which it exceeds the ceiling 1;
    # scaled_down: the hypothetical value ball value / n, and
    # scaled_down_margin its shortfall below the proven floor
    __slots__ = ("n", "ball_target_value", "poly_lower", "poly_upper",
                 "scaled_up", "scaled_up_margin", "scaled_down", "scaled_down_margin")

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
    t_lower = squeeze_bounds(domain, origin, search=False).lower
    t_upper = 1.0
    up = n * s
    down = s / n
    return BallProductReport(n, s, t_lower, t_upper, up, up - t_upper, down, t_lower - down)


def boundary_limit_profile(r: float, path) -> LimitProfile:
    """Clearance-bound profile along a monotone path of annulus moduli.

    Each |z1| is paired with :func:`annulus_clearance_bound`, which tends to 1
    toward either boundary circle.  The clearance bound rejects a radius or
    modulus outside the annulus, and :class:`LimitProfile` an empty or
    non-monotone path.
    """
    return LimitProfile(tuple((x, annulus_clearance_bound(r, x)) for x in map(float, path)), 1.0)


def default_limit_path(r: float, side: str, steps: int = 256):
    """Log-spaced annulus moduli from sqrt(r) toward one boundary circle.

    The gap to the target circle shrinks geometrically to e = 1e-4 below 1
    (outer side) or ``e (1 - r)`` above r (inner side), narrowed to
    ``5 e (1 - r)`` for r > 0.8 and ``5 e r (1 - r)`` for r < 0.2 so that
    the last clearance bound stays near 1.  With ``start`` the first gap
    (``1 - sqrt(r)`` or ``sqrt(r) - r``), ``end`` the last and
    ``step = (log10(end) - log10(start)) / (steps - 1)``, the k-th gap is
    ``10 ** (k * step + log10(start))``, except that the first is exactly
    ``start`` and the last exactly ``end``.  So the path starts at
    ``1 - start`` or ``r + start`` (sqrt(r) where ``1 - start`` rounds to 0)
    and ends at ``1 - end`` or ``r + end``, bit for bit; one step gives that
    end alone.  A path that cannot hold ``steps`` strictly monotone moduli
    inside the annulus raises DomainError.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"inner radius must lie in (0, 1), got {r}")
    if steps < 1:
        raise DomainError("steps must be positive")
    s, e = math.sqrt(r), _LIMIT_END
    if side == "outer":
        start, end = 1.0 - s, min(e, 5.0 * e * (1.0 - r))
        to_x, toward = (lambda delta: 1.0 - delta), operator.lt
    elif side == "inner":
        start, end = s - r, min(e * (1.0 - r), 5.0 * e * r * (1.0 - r))
        to_x, toward = (lambda delta: r + delta), operator.gt
    else:
        raise DomainError(f"side must be 'outer' or 'inner', got {side!r}")
    xs = []
    if steps == 1:
        xs = [to_x(end)]
    elif start > 0.0 and end > 0.0:
        lo = math.log10(start)
        step = (math.log10(end) - lo) / (steps - 1)
        xs = [to_x(10.0 ** (k * step + lo)) for k in range(steps)]
        xs[0], xs[-1] = to_x(start), to_x(end)
        if xs[0] == 0.0:
            xs[0] = s  # 1 - (1 - sqrt(r)) is 0 where sqrt(r) is below half an ulp of 1
    if not (xs and all(r < x < 1.0 for x in xs) and all(map(toward, xs, xs[1:]))):
        raise DomainError(f"fewer than {steps} distinct moduli lie on the {side} path at r = {r}")
    return xs


def hhr_flag(d: ProductDomain) -> bool:
    """True when the squeezing value provably has no positive lower bound.

    A puncture in any factor forces the value under any epsilon as the point
    approaches the puncture, so the product cannot be holomorphic homogeneous
    regular.  Disk, annulus and ball factors all have positive single-factor
    floors (1, sqrt(r), 1/sqrt(n)), so puncture presence is exactly the
    evidence available in this catalog; a factor of unknown kind has none.
    """
    return any(getattr(f, "punctures", ()) for f in d.factors)
