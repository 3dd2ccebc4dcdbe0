"""Exception hierarchy shared across the package."""


class SqueezeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SqueezeError, ValueError):
    """A value violates a precondition (point outside a domain, bad parameter)."""


class UnsupportedGeometryError(SqueezeError):
    """The requested operation has no implementation for this geometry.

    Raised by :func:`~polysqueeze.squeezing.exact_squeeze` on a domain outside
    the closed-form catalog, where callers fall back to bound aggregation,
    and by every reader of the factor-kind table in
    :mod:`polysqueeze.squeezing` on a factor kind the table has no row for.
    """
