"""Factor domains and product domains.

Planar factors are normalized: outer boundary is the unit circle and the
annulus is centered at 0.  More general disks are reached through Mobius
witnesses in :mod:`polysqueeze.embeddings`, never stored as factor kinds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Union

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class UnitDisk:
    """Open unit disk {|zeta| < 1}."""


@dataclass(frozen=True)
class PuncturedDisk:
    """Unit disk with finitely many interior points removed."""

    punctures: tuple[complex, ...]

    def __post_init__(self) -> None:
        ps = tuple(complex(p) for p in self.punctures)
        object.__setattr__(self, "punctures", ps)
        if not ps:
            raise DomainError("PuncturedDisk requires at least one puncture")
        for p in ps:
            if not _modulus(p) < 1:
                raise DomainError(f"puncture {p} not inside the unit disk")
        if len(set(ps)) != len(ps):
            raise DomainError("punctures must be pairwise distinct")


@dataclass(frozen=True)
class Annulus:
    """Annulus {r < |zeta| < 1} with inner radius r."""

    r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0) or not math.isfinite(self.r):
            raise DomainError(f"annulus inner radius must lie in (0, 1), got {self.r}")


@dataclass(frozen=True)
class BallFactor:
    """Unit ball of complex dimension n.

    Admits no boundary sampling or embedding machinery; it exists for the
    closed-form product bounds only.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"ball dimension must be a positive integer, got {self.n}")


PlanarFactor = Union[UnitDisk, PuncturedDisk, Annulus]
Factor = Union[PlanarFactor, BallFactor]

# Coordinate of a single factor: complex for planar factors, a tuple of
# complex (length n) for ball factors.
Coordinate = Union[complex, tuple[complex, ...]]


def factor_dim(f: Factor) -> int:
    """Complex dimension contributed by one factor."""
    return f.n if isinstance(f, BallFactor) else 1


def _modulus(z: complex) -> float:
    """|z|, or inf where the modulus overflows a double."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def membership(f: Factor, coord: Coordinate) -> bool:
    """True iff ``coord`` lies in the open set ``f``.

    Punctures and the closed inner disk of an annulus are excluded; puncture
    exclusion is exact complex equality.
    """
    if isinstance(f, BallFactor):
        if not isinstance(coord, tuple) or len(coord) != f.n:
            raise DomainError(f"ball coordinate must be a tuple of {f.n} complex numbers")
        # m * m rather than m ** 2, which raises OverflowError on huge moduli
        return sum(m * m for m in (_modulus(complex(c)) for c in coord)) < 1.0
    z = complex(coord)
    if isinstance(f, UnitDisk):
        return _modulus(z) < 1.0
    if isinstance(f, PuncturedDisk):
        return _modulus(z) < 1.0 and all(z != p for p in f.punctures)
    if isinstance(f, Annulus):
        return f.r < _modulus(z) < 1.0
    raise DomainError(f"unknown factor kind {type(f).__name__}")


@lru_cache(maxsize=8)
def _unit_circle(m: int) -> np.ndarray:
    import numpy as np

    circle = np.exp(2j * np.pi * np.arange(m) / m)
    circle.setflags(write=False)
    return circle


_NUDGE = 4.0 * sys.float_info.epsilon


def _sample_radii(f: PlanarFactor) -> tuple[float, ...]:
    """Radius of each sampled boundary circle, nudged a few ulps off the open set.

    ``1 + 4 eps`` for the outer circle, then ``(1 - 4 eps) r`` for the inner
    circle of an annulus.  The samples of a circle are this radius times
    ``_unit_circle(m)``; :func:`boundary_samples` and the blocked sampler of
    :mod:`polysqueeze.embeddings` both build them from here.
    """
    if isinstance(f, BallFactor):
        raise DomainError("boundary sampling is defined for planar factors only")
    if isinstance(f, Annulus):
        return (1.0 + _NUDGE, (1.0 - _NUDGE) * f.r)
    return (1.0 + _NUDGE,)


def boundary_samples(f: PlanarFactor, m: int) -> np.ndarray:
    """``m`` equally-angle-spaced points per non-singleton boundary circle.

    Outer circle first, then the inner circle for an annulus; angles start at
    0 and increase counterclockwise.  Points are nudged radially by a few ulps
    off the open set (outward on the outer circle, inward on the inner one;
    see :func:`_sample_radii`) so that no sample ever passes membership.
    Punctures are not sampled here; they are reported by :func:`punctures`.
    The returned array is read-only and holds every sample at once; the
    sampled inradius of :mod:`polysqueeze.embeddings` evaluates the same
    points block by block instead.  Only the unit circle is cached, once per
    ``m``: an array per factor would hold 2 MB for each annulus sampled at
    65536 points.
    """
    radii = _sample_radii(f)
    if not isinstance(m, int) or m < 4:
        raise DomainError(f"sample count must be an integer >= 4, got {m}")
    import numpy as np

    circle = _unit_circle(m)
    out = np.concatenate([rho * circle for rho in radii])
    out.setflags(write=False)
    return out


def punctures(f: PlanarFactor) -> tuple[complex, ...]:
    """Singleton boundary components of the factor (empty unless punctured)."""
    if isinstance(f, PuncturedDisk):
        return f.punctures
    return ()


@dataclass(frozen=True)
class ProductDomain:
    """Ordered product of factor domains."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        fs = tuple(self.factors)
        object.__setattr__(self, "factors", fs)
        if not fs:
            raise DomainError("a product domain needs at least one factor")

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        """Total complex dimension."""
        return sum(factor_dim(f) for f in self.factors)

    def is_planar(self) -> bool:
        return all(not isinstance(f, BallFactor) for f in self.factors)

    def punctured_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if isinstance(f, PuncturedDisk))

    def point(self, coords) -> "ProductPoint":
        """Build a validated point of this domain; rejects out-of-domain coordinates."""
        return ProductPoint.of(self, coords)


@dataclass(frozen=True)
class ProductPoint:
    """Point of a product domain, one coordinate per factor."""

    coords: tuple[Coordinate, ...]

    @staticmethod
    def of(domain: ProductDomain, coords) -> "ProductPoint":
        coords = tuple(coords)
        if len(coords) != domain.arity:
            raise DomainError(
                f"point has {len(coords)} coordinates, domain has {domain.arity} factors"
            )
        norm: list[Coordinate] = []
        for i, (f, c) in enumerate(zip(domain.factors, coords)):
            if isinstance(f, BallFactor):
                if not isinstance(c, (tuple, list)) or len(c) != f.n:
                    raise DomainError(f"coordinate {i} must be a tuple of {f.n} complex numbers")
                c = tuple(complex(x) for x in c)
            else:
                c = complex(c)
            if not membership(f, c):
                raise DomainError(f"coordinate {i} ({c!r}) is not in its factor {f!r}")
            norm.append(c)
        return ProductPoint(tuple(norm))

    def planar(self, i: int) -> complex:
        c = self.coords[i]
        if isinstance(c, tuple):
            raise DomainError(f"coordinate {i} belongs to a ball factor")
        return c
