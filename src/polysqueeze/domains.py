"""Factor domains and product domains.

Planar factors are normalized: outer boundary is the unit circle and the
annulus is centered at 0.  More general disks are reached through Mobius
witnesses in :mod:`polysqueeze.embeddings`, never stored as factor kinds.

A factor gives its facts as data, read in place of its class: ``dim``, its
complex dimension, ``radii``, a planar factor's boundary circles (centred at
0, the unit circle first) and ``punctures``, the points it removes (``()`` on
a ball too).  No reader tests a factor's class: a factor without ``radii`` is
a ball, whose coordinate is ``dim`` complex numbers.  A product takes only
the kinds of :data:`Factor`, checked when it is built, so no reader has a
fallback for another kind.  A new kind is a class here, a row of the kind
table in :mod:`polysqueeze.squeezing` and a row of the spec table in
:mod:`polysqueeze.cli`.  One reader
converts and tests each coordinate, for :func:`membership` and
:meth:`ProductPoint.of`.  Boundary samples belong to the oracle in
:mod:`polysqueeze.verify`.  Every value class of the package derives from
:class:`Frozen`.
"""

from __future__ import annotations

import math
from typing import Union, get_args

from .errors import DomainError


class Frozen:
    """Base of the package's immutable value classes; the fields are ``__slots__``.

    A subclass lists its fields in ``__slots__``, in order.  A class that
    only holds fields inherits ``__init__``, which takes one value per field,
    positionally and in that order, and raises :class:`TypeError` on any
    other count.  A class that validates its arguments defines its own
    ``__init__``, taking them in the same order, and sets each field with
    ``object.__setattr__``.  Equality holds between instances of one class
    with equal fields (``NotImplemented`` across classes), the hash is that
    of the field tuple, and the repr is ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises :class:`AttributeError`.
    Copies and pickles call the class again on the fields.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(names)} "
                            f"field values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class UnitDisk(Frozen):
    """Open unit disk {|zeta| < 1}."""

    __slots__ = ()
    dim = 1
    radii = (1.0,)
    punctures = ()


class PuncturedDisk(Frozen):
    """Unit disk with finitely many interior points removed."""

    __slots__ = ("punctures",)
    dim = 1
    radii = (1.0,)

    def __init__(self, punctures: tuple[complex, ...]) -> None:
        ps = tuple(complex(p) for p in punctures)
        if not ps:
            raise DomainError("PuncturedDisk requires at least one puncture")
        for p in ps:
            if not _modulus(p) < 1:
                raise DomainError(f"puncture {p} not inside the unit disk")
        if len(set(ps)) != len(ps):
            raise DomainError("punctures must be pairwise distinct")
        object.__setattr__(self, "punctures", ps)


class Annulus(Frozen):
    """Annulus {r < |zeta| < 1} with inner radius r."""

    __slots__ = ("r",)
    dim = 1
    radii = property(lambda self: (1.0, self.r))
    punctures = ()

    def __init__(self, r: float) -> None:
        if not (0.0 < r < 1.0):
            raise DomainError(f"annulus inner radius must lie in (0, 1), got {r}")
        object.__setattr__(self, "r", r)


class BallFactor(Frozen):
    """Unit ball of complex dimension n, for the closed-form product bounds only."""

    __slots__ = ("n",)
    dim = property(lambda self: self.n)
    punctures = ()

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError(f"ball dimension must be a positive integer, got {n!r}")
        object.__setattr__(self, "n", n)


PlanarFactor = Union[UnitDisk, PuncturedDisk, Annulus]
Factor = Union[PlanarFactor, BallFactor]
# The factor kinds a product takes, each a row of the closed-form table.
_FACTOR_KINDS = frozenset(get_args(Factor))

# A factor's coordinate: complex on a planar factor, n complex numbers on a ball.
Coordinate = Union[complex, tuple[complex, ...]]


def _modulus(z: complex) -> float:
    """|z|, or inf where the modulus overflows a double."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _coordinate(f: Factor, coord) -> Coordinate | None:
    """``coord`` as ``f`` holds it, or None where it lies outside the open set ``f``.

    A ball (no ``radii``) holds a tuple of ``f.dim`` complex numbers, given as a
    tuple or a list.
    A planar coordinate lies inside the first circle of ``f.radii``, outside
    the others and off the punctures, by exact complex equality.
    """
    radii = getattr(f, "radii", None)
    if radii is None:
        if not isinstance(coord, (tuple, list)) or len(coord) != f.dim:
            raise DomainError(f"ball coordinate must be a tuple of {f.dim} complex numbers")
        z = tuple(complex(c) for c in coord)
        # m * m rather than m ** 2, which raises OverflowError on huge moduli
        return z if sum(m * m for m in map(_modulus, z)) < 1.0 else None
    z = complex(coord)
    x = _modulus(z)
    if not x < radii[0]:
        return None
    for rho in radii[1:]:
        if not rho < x:
            return None
    return None if z in f.punctures else z


def membership(f: Factor, coord) -> bool:
    """True iff ``coord`` lies in the open set ``f`` (see :func:`_coordinate`)."""
    return _coordinate(f, coord) is not None


class ProductDomain(Frozen):
    """Ordered product of factors, each of exactly a type in :data:`Factor`.

    Any other factor, a subclass of a kind too, raises :class:`DomainError`;
    copies and pickles pass this check again.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Factor, ...]) -> None:
        fs = tuple(factors)
        if not fs:
            raise DomainError("a product domain needs at least one factor")
        for f in fs:
            if type(f) not in _FACTOR_KINDS:
                raise DomainError(f"unknown factor kind {type(f).__name__}")
        object.__setattr__(self, "factors", fs)

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        """Total complex dimension."""
        return sum(f.dim for f in self.factors)

    def is_planar(self) -> bool:
        return all(hasattr(f, "radii") for f in self.factors)

    def point(self, coords) -> "ProductPoint":
        """Build a validated point of this domain; rejects out-of-domain coordinates."""
        return ProductPoint.of(self, coords)


class ProductPoint(Frozen):
    """Point of a product domain, one coordinate per factor."""

    __slots__ = ("coords",)

    # its own setter, not Frozen's loop, which about doubles the cost of
    # building one: a point is built once per evaluated point
    def __init__(self, coords: tuple[Coordinate, ...]) -> None:
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def of(domain: ProductDomain, coords) -> "ProductPoint":
        coords = tuple(coords)
        if len(coords) != domain.arity:
            raise DomainError(
                f"point has {len(coords)} coordinates, domain has {domain.arity} factors"
            )
        norm = []
        for f, c in zip(domain.factors, coords):
            z = _coordinate(f, c)
            if z is None:
                c = tuple(map(complex, c)) if isinstance(c, (tuple, list)) else complex(c)
                raise DomainError(f"coordinate {len(norm)} ({c!r}) is not in its factor {f!r}")
            norm.append(z)
        return ProductPoint(tuple(norm))

    def planar(self, i: int) -> complex:
        c = self.coords[i]
        if isinstance(c, tuple):
            raise DomainError(f"coordinate {i} belongs to a ball factor")
        return c
