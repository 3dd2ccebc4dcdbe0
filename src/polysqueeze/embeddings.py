"""Explicit injective holomorphic maps into the disk.

A map is a left-to-right composition of two primitives: a disk automorphism,
given by its zero, and the annulus reflection ``zeta -> r / zeta``; the
identity is the automorphism with zero 0.  Every primitive sends boundary
circles to circles, so the distance from 0 to the complement of an image is
the least modulus over the images of the boundary circles and the extension
values at the punctures.  The witness scores of
:mod:`polysqueeze.squeezing` take that minimum in closed form, through
:func:`mobius_circle_min_modulus` on a circle and :func:`mobius_modulus`, the
one body of |phi_a(z)|, at a puncture.  Maps are evaluated here on scalars
only; the boundary-sampling oracle that checks the scores, and with it the
evaluation of a map on an array of samples, is in :mod:`polysqueeze.verify`.
"""

from __future__ import annotations

import sys
from typing import Union

from .domains import Frozen
from .errors import DomainError


class MobiusAut(Frozen):
    """Disk automorphism ``zeta -> (zeta - a) / (1 - conj(a) zeta)``, its zero ``a``.

    Two automorphisms with one zero differ by a rotation, which no image
    inradius reads, so the zero is the whole map.
    """

    __slots__ = ("a",)

    def __init__(self, a: complex) -> None:
        a = complex(a)
        if not abs(a) < 1:
            raise DomainError(f"Mobius parameter must satisfy |a| < 1, got {a}")
        object.__setattr__(self, "a", a)

    def inverse(self) -> "MobiusAut":
        """Exact inverse automorphism, the one with zero ``-a``."""
        return MobiusAut(-self.a)


def mobius_eval(m: MobiusAut, zeta):
    """Evaluate the automorphism at the scalar ``zeta`` (|zeta| <= 1)."""
    w = zeta - m.a
    if not w:
        # the map's own zero, also where 1 - |a|^2 rounds to 0 and the
        # quotient would be 0/0
        return w
    return w / (1.0 - m.a.conjugate() * zeta)


def mobius_modulus(a: complex, z: complex) -> float:
    """``|(z - a) / (1 - conj(a) z)|``: :func:`mobius_eval`'s modulus, written
    out (the same double, without building a map).  It is the
    punctured column, and the pseudo-hyperbolic distance of ``a`` and ``z``."""
    return abs((z - a) / (1.0 - a.conjugate() * z))


def mobius_circle_min_modulus(a: complex, r: float) -> float:
    """Minimum of ``|mobius_eval(MobiusAut(a), zeta)|`` over the circle ``|zeta| = r``.

    The circle is a hyperbolic circle centered at 0, so the minimum is attained
    radially and equals ``||a| - r| / (1 - r |a|)``.
    """
    m = abs(a)
    if not m < 1:
        raise DomainError(f"|a| < 1 required, got {a}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"circle radius must lie in (0, 1), got {r}")
    return abs(m - r) / (1.0 - r * m)


class Reflection(Frozen):
    """Annulus self-map ``zeta -> r / zeta``; swaps the two boundary circles."""

    __slots__ = ("r",)

    def __init__(self, r: float) -> None:
        if not (0.0 < r < 1.0):
            raise DomainError(f"reflection radius must lie in (0, 1), got {r}")
        object.__setattr__(self, "r", r)


Primitive = Union[MobiusAut, Reflection]
_PRIMITIVES = (MobiusAut, Reflection)


class MapExpr(Frozen):
    """Composition of primitives, applied left to right.  Construction is the
    one check of the steps: any step but the two primitives raises here."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[Primitive, ...]) -> None:
        steps = tuple(steps)
        if not steps:
            raise DomainError("a map needs at least one step (use MobiusAut(0) for the identity)")
        for step in steps:
            if not isinstance(step, _PRIMITIVES):
                raise DomainError(f"unknown primitive {type(step).__name__}")
        object.__setattr__(self, "steps", steps)


class ProductMap(Frozen):
    """One map per planar factor of a product domain."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[MapExpr, ...]) -> None:
        components = tuple(components)
        if not components:
            raise DomainError("a product map needs at least one component")
        object.__setattr__(self, "components", components)


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


def map_eval(e: MapExpr, zeta):
    """Evaluate the composition at the scalar ``zeta``.

    A reflection step has a pole at 0, where evaluation raises.  At a
    puncture the value is the map's continuous extension, the point that
    injectivity excludes from the image.
    """
    z = zeta
    for step in e.steps:
        if isinstance(step, MobiusAut):
            z = mobius_eval(step, z)
        else:
            if z == 0:
                raise DomainError("reflection has a pole at 0")
            z = reflect(step.r, z)
    return z


def require_base_to_zero(e: MapExpr, z: complex, i: int = 0) -> None:
    """Raise unless component ``i`` sends its base coordinate ``z`` to 0 (tolerance 1e-12)."""
    img = complex(map_eval(e, z))
    if abs(img) > 1e-12:
        raise DomainError(f"component {i} sends its base point to {img}, not 0")
