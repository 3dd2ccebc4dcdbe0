"""Explicit injective holomorphic maps into the disk and the image-inradius oracle.

A map is a left-to-right composition of three primitives: a disk automorphism,
the annulus reflection ``zeta -> r / zeta`` and the identity inclusion.  Every
primitive sends boundary circles to circles, so the distance from 0 to the
complement of the image is controlled by boundary samples plus the extension
values at punctures; that sampled minimum is the oracle realizing the
squeezing value of one explicit embedding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Union

from .domains import (
    Annulus,
    PlanarFactor,
    ProductDomain,
    ProductPoint,
    _sample_radii,
    _unit_circle,
    membership,
    punctures,
)
from .errors import DomainError
from .hyperbolic import MobiusAut, mobius_circle_min_modulus, mobius_eval

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Reflection:
    """Annulus self-map ``zeta -> r / zeta``; swaps the two boundary circles."""

    r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"reflection radius must lie in (0, 1), got {self.r}")


@dataclass(frozen=True)
class Inclusion:
    """Identity inclusion into the disk."""


Primitive = Union[MobiusAut, Reflection, Inclusion]


@dataclass(frozen=True)
class MapExpr:
    """Composition of primitives, applied left to right."""

    steps: tuple[Primitive, ...]

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise DomainError("a map needs at least one step (use Inclusion for the identity)")


@dataclass(frozen=True)
class ProductMap:
    """One map per planar factor of a product domain."""

    components: tuple[MapExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise DomainError("a product map needs at least one component")


def reflect(r: float, z):
    """``r / z``, the annulus reflection, for a scalar or an ndarray ``z``.

    A subnormal ``r`` and ``z`` are first lifted by one exact power of two:
    complex division of subnormal operands keeps too few bits.  At
    r = 1e-320 and z = -1.5e-323 - 2e-320i the bare quotient has modulus
    0.50000006 where r/|z| is 0.49999986.
    """
    if r < sys.float_info.min:
        return (r * 2.0 ** 600) / (z * 2.0 ** 600)
    return r / z


def _apply(step: Primitive, z):
    if isinstance(step, MobiusAut):
        return mobius_eval(step, z)
    if isinstance(step, Reflection):
        return reflect(step.r, z)
    if isinstance(step, Inclusion):
        return z
    raise DomainError(f"unknown primitive {type(step).__name__}")


def map_eval(e: MapExpr, zeta):
    """Evaluate the composition at ``zeta`` (scalar complex or ndarray).

    A reflection step has a pole at 0; scalar evaluation there raises.
    """
    # Without numpy loaded, zeta cannot be a numpy array or scalar.
    np = sys.modules.get("numpy")
    z = zeta
    for step in e.steps:
        if isinstance(step, Reflection) and (np is None or np.isscalar(z)) and complex(z) == 0:
            raise DomainError("reflection has a pole at 0")
        z = _apply(step, z)
    return z


def removable_extension_at(e: MapExpr, p: complex) -> complex:
    """Continuous extension value of the composition at the puncture ``p``.

    This is the point excluded from the image by injectivity, hence a cap on
    the image inradius.  A reflection step reaching 0 has no extension.
    """
    z = complex(p)
    for step in e.steps:
        if isinstance(step, Reflection) and z == 0:
            raise DomainError("map does not extend through the reflection pole at 0")
        z = complex(_apply(step, z))
    return z


# Points a block of the sampled minimum evaluates at once.  Whole 65536-point
# circles made 1-2 MB temporaries per operation.  Blocks of 2048 to 65536
# points were timed on the three sampling suites; 16384 (256 kB of complex
# samples) was fastest, 8192 within 4 %, and whole circles 2.7 times slower.
_SAMPLE_BLOCK = 16384


def _squared_moduli(e: MapExpr, zeta: np.ndarray) -> np.ndarray:
    """``|map_eval(e, zeta)|**2`` at every point of the ndarray ``zeta``.

    The steps before the last go through :func:`map_eval`'s arithmetic.  A
    last step ``e^{i theta} (v - a) / (1 - conj(a) v)`` gives
    ``|v - a|**2 / |1 - conj(a) v|**2``: the rotation has modulus 1, and each
    factor is multiplied by its conjugate in place, so no complex quotient and
    no hypot is formed.  Any other last step gives ``(v * conj(v)).real`` of
    the map's value.  ``zeta`` is not written to.
    """
    *head, last = e.steps
    for step in head:
        zeta = _apply(step, zeta)
    if not isinstance(last, MobiusAut):
        v = _apply(last, zeta)
        return (v * v.conj()).real
    import numpy as np

    den = last.a.conjugate() * zeta
    np.subtract(1.0, den, out=den)
    num = zeta - last.a
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
    over the extension values at the punctures of ``f``.  The samples are
    those of :func:`~polysqueeze.domains.boundary_samples`, scored by their
    squared moduli (:func:`_squared_moduli`) in cache-sized blocks with one
    square root per circle (:func:`_sampled_circle_min`).  Each sampled
    modulus agrees with ``abs(map_eval(e, sample))`` to a few ulps, not bit
    for bit.  The caller is responsible for the base point mapping to 0.
    """
    if not isinstance(m, int) or m < 8:
        raise DomainError(f"sample count must be an integer >= 8, got {m}")
    import numpy as np

    sq = partial(_squared_moduli, e)
    best = float(np.min([_sampled_circle_min(sq, rho, m) for rho in _sample_radii(f)]))
    for p in punctures(f):
        best = min(best, abs(removable_extension_at(e, p)))
    return best


def _circle_radii(f: PlanarFactor) -> tuple[float, ...]:
    return (1.0, f.r) if isinstance(f, Annulus) else (1.0,)


def image_inradius_analytic(e: MapExpr, f: PlanarFactor) -> float | None:
    """Closed-form image inradius, or None when the map shape does not admit one.

    Applies when the composition is a prefix of radius-preserving steps
    (inclusions and reflections, which send circles centered at 0 to circles
    centered at 0) followed by automorphisms only.  The automorphism suffix
    composes to a single automorphism whose zero is recovered by pulling 0
    back through the inverses, and the per-circle minimum is the radial
    formula of :func:`mobius_circle_min_modulus`.
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
    for rho in _circle_radii(f):
        for s in radial:
            if isinstance(s, Reflection):
                rho = s.r / rho
        if not mobius or rho >= 1.0:
            # a radius-1 circle maps to the unit circle under any automorphism
            best = min(best, rho if not mobius else 1.0)
        else:
            best = min(best, mobius_circle_min_modulus(w, rho))
    for p in punctures(f):
        best = min(best, abs(removable_extension_at(e, p)))
    return best


def require_base_to_zero(e: MapExpr, z: complex, i: int = 0) -> None:
    """Raise unless component ``i`` sends its base coordinate ``z`` to 0 (tolerance 1e-12)."""
    img = complex(map_eval(e, z))
    if abs(img) > 1e-12:
        raise DomainError(f"component {i} sends its base point to {img}, not 0")


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


def _interior_grid(f: PlanarFactor, g: int) -> np.ndarray:
    import numpy as np

    if isinstance(f, Annulus):
        radii = np.linspace(f.r + 0.02 * (1 - f.r), 1 - 0.02 * (1 - f.r), g)
        angles = np.exp(2j * np.pi * np.arange(g) / g)
        pts = (radii[:, None] * angles[None, :]).ravel()
    else:
        xs = np.linspace(-0.95, 0.95, g)
        pts = (xs[:, None] + 1j * xs[None, :]).ravel()
    return np.array([p for p in pts if membership(f, complex(p))])


def _all_distinct(values: np.ndarray, tol: float) -> bool:
    import numpy as np

    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return bool(diff.min() > tol)


def injectivity_spot_check(e: MapExpr, f: PlanarFactor, g: int = 16) -> bool:
    """Safety assertion: images of a g-by-g interior grid are pairwise distinct.

    Catalog primitives are injective by construction, so this should only
    trip on a degenerate hand-built composition.
    """
    import numpy as np

    pts = _interior_grid(f, g)
    return _all_distinct(np.asarray(map_eval(e, pts)), 1e-14)
