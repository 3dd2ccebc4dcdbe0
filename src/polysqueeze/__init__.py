"""Squeezing values of product domains relative to the polydisk.

Exact catalog evaluators, certified upper and lower bounds, explicit witness
embeddings with a boundary-sampling inradius oracle, and lower bounds from
witness families scored in closed form.  Everything is pure and
immutable; any function may be called concurrently.

Importing the package does not load numpy.  The closed forms and bounds run
on Python floats and complex numbers; the functions that build arrays (the
boundary-sampling oracle, the injectivity spot check, the limit path and
the verification suites) import numpy when they are called.
"""

from .domains import (
    Annulus,
    BallFactor,
    PlanarFactor,
    ProductDomain,
    ProductPoint,
    PuncturedDisk,
    UnitDisk,
    boundary_samples,
    factor_dim,
    membership,
    punctures,
)
from .embeddings import (
    Inclusion,
    MapExpr,
    ProductMap,
    Reflection,
    image_inradius_analytic,
    image_inradius_at_zero,
    injectivity_spot_check,
    map_eval,
    product_inradius,
    removable_extension_at,
)
from .errors import DomainError, SqueezeError, UnsupportedGeometryError
from .hyperbolic import (
    HyperbolicValue,
    MobiusAut,
    kob_disk,
    mobius_circle_min_modulus,
    mobius_eval,
    poincare_distance,
    sigma,
    sigma_inv,
)
from .squeezing import (
    CLEARANCE_LOWER,
    CLOSED_FORM,
    FAMILY_GAP,
    PRODUCT_LOWER,
    PUNCTURE_UPPER,
    SEARCH,
    BallProductReport,
    BoundReport,
    LimitProfile,
    SearchResult,
    annulus_clearance_bound,
    ball_product_ratio_check,
    boundary_limit_profile,
    build_factor_witness,
    default_limit_path,
    exact_squeeze,
    hhr_flag,
    product_lower_bound,
    puncture_upper_bound,
    search_lower_bound,
    single_annulus_index,
    single_factor_exact,
    squeeze_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "BallFactor",
    "BallProductReport",
    "BoundReport",
    "DomainError",
    "HyperbolicValue",
    "Inclusion",
    "LimitProfile",
    "MapExpr",
    "MobiusAut",
    "PlanarFactor",
    "ProductDomain",
    "ProductMap",
    "ProductPoint",
    "PuncturedDisk",
    "Reflection",
    "SearchResult",
    "SqueezeError",
    "UnitDisk",
    "UnsupportedGeometryError",
    "annulus_clearance_bound",
    "ball_product_ratio_check",
    "boundary_limit_profile",
    "boundary_samples",
    "build_factor_witness",
    "default_limit_path",
    "exact_squeeze",
    "factor_dim",
    "hhr_flag",
    "image_inradius_analytic",
    "image_inradius_at_zero",
    "injectivity_spot_check",
    "kob_disk",
    "map_eval",
    "membership",
    "mobius_circle_min_modulus",
    "mobius_eval",
    "poincare_distance",
    "product_inradius",
    "product_lower_bound",
    "punctures",
    "puncture_upper_bound",
    "removable_extension_at",
    "search_lower_bound",
    "sigma",
    "sigma_inv",
    "single_annulus_index",
    "single_factor_exact",
    "squeeze_bounds",
]
