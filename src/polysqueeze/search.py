"""Lower bounds from explicit embedding families.

A family branch composes an optional annulus reflection with a normalizer,
the automorphism sending the image of the base coordinate to 0.  Another
automorphism before it would only add a rotation, so each branch is taken at
a = 0 and scored in closed form by the factor-kind table of
:mod:`polysqueeze.squeezing`, beside which build_factor_witness lives.  Each
factor keeps its best branch, whose witness certifies the value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import ProductDomain, ProductPoint
from .embeddings import ProductMap
from .errors import DomainError
from .squeezing import INCLUSION, REFLECTION, _family, _kind, build_factor_witness

__all__ = ["INCLUSION", "REFLECTION", "FamilySpec", "SearchResult",
           "build_factor_witness", "search_lower_bound"]


@dataclass(frozen=True)
class FamilySpec:
    """Per-factor tuple of family branches."""

    branches: tuple[tuple[str, ...], ...]

    @staticmethod
    def auto(d: ProductDomain) -> "FamilySpec":
        """The table's branches: both orientations on annulus factors, else automorphisms."""
        return FamilySpec(tuple(_kind(f).branches for f in d.factors))

    @staticmethod
    def named(d: ProductDomain, name: str) -> "FamilySpec":
        """Family by name: ``auto``, ``inclusion`` or ``reflection``.

        ``reflection`` applies the reflected orientation on annulus factors
        and falls back to plain automorphisms elsewhere.
        """
        if name == "auto":
            return FamilySpec.auto(d)
        if name in (INCLUSION, REFLECTION):
            return FamilySpec(tuple(
                (name,) if name in _kind(f).branches else (INCLUSION,) for f in d.factors
            ))
        raise DomainError(f"unknown family name {name!r}")


@dataclass(frozen=True)
class SearchResult:
    """Best family value, its witness, and the number of branches scored.

    ``converged`` is always true: scoring is closed-form, with nothing to
    iterate.
    """

    value: float
    witness: ProductMap
    evaluations: int
    converged: bool


def search_lower_bound(
    d: ProductDomain,
    z: ProductPoint,
    fam: FamilySpec | None = None,
) -> SearchResult:
    """Best certified lower bound over the family, with its witness: the best
    branch of each factor by the table's score (the earlier on ties), min over factors."""
    if not d.is_planar():
        raise DomainError("the embedding search is defined for planar factors only")
    fam = fam or FamilySpec.auto(d)
    value, witnesses, evaluations = _family(d, z, fam.branches)
    return SearchResult(value, ProductMap(witnesses), evaluations, True)
