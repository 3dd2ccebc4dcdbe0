"""Squeezing values of product domains relative to the polydisk.

Exact catalog evaluators, certified upper and lower bounds, explicit witness
embeddings, and lower bounds from witness families scored in closed form.
Everything is pure and immutable; any function may be called concurrently.
The names below are the public API; the boundary-sampling oracle that
cross-checks the closed forms lives in :mod:`polysqueeze.verify`.

Importing the package does not load numpy.  The closed forms and bounds run
on Python floats and complex numbers, the limit path included; only the
verification suites that build arrays import numpy, when they are called.
"""

from .domains import Annulus, BallFactor, ProductDomain, ProductPoint, PuncturedDisk, UnitDisk
from .embeddings import MapExpr, MobiusAut, ProductMap, Reflection
from .errors import DomainError, SqueezeError
from .squeezing import (
    BoundReport,
    SearchResult,
    annulus_clearance_bound,
    default_limit_path,
    hhr_flag,
    search_lower_bound,
    squeeze_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "BallFactor",
    "BoundReport",
    "DomainError",
    "MapExpr",
    "MobiusAut",
    "ProductDomain",
    "ProductMap",
    "ProductPoint",
    "PuncturedDisk",
    "Reflection",
    "SearchResult",
    "SqueezeError",
    "UnitDisk",
    "annulus_clearance_bound",
    "default_limit_path",
    "hhr_flag",
    "search_lower_bound",
    "squeeze_bounds",
]
