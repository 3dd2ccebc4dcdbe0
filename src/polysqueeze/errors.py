"""Exception hierarchy shared across the package."""


class SqueezeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SqueezeError, ValueError):
    """A value violates a precondition (point outside a domain, bad parameter,
    a factor of unknown kind)."""
