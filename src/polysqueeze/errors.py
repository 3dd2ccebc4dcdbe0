"""Exception hierarchy shared across the package."""


class SqueezeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SqueezeError, ValueError):
    """A value violates a precondition (point outside a domain, bad parameter)."""


class UnsupportedGeometryError(SqueezeError):
    """The requested operation has no implementation for this geometry.

    Raised by :func:`~polysqueeze.squeezing.exact_squeeze` on a domain outside
    the closed-form catalog and by
    :func:`~polysqueeze.squeezing.single_factor_exact` on an unknown factor
    kind.  Callers are expected to fall back to bound aggregation.
    """
