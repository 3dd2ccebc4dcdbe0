"""Lower bounds from explicit embedding families, scored analytically.

The families compose an optional annulus reflection with a final base-point
normalizer, so every witness is injective and sends the base coordinate to 0.
A further automorphism before the normalizer would change nothing: two
automorphisms that both send z to 0 differ by a rotation, which keeps the
inradius at 0.  So each branch is built once, at the automorphism parameter
a = 0, and scored with the closed-form image inradius of
:func:`~polysqueeze.embeddings.image_inradius_analytic`; the value is a lower
bound certified by its witness.  Factors decouple (the product value is the
min of independent factor values), so each factor keeps its best branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Annulus, BallFactor, PlanarFactor, ProductDomain, ProductPoint
from .embeddings import (
    Inclusion,
    MapExpr,
    ProductMap,
    Reflection,
    image_inradius_analytic,
    require_base_to_zero,
)
from .errors import DomainError
from .hyperbolic import MobiusAut, mobius_eval

INCLUSION = "inclusion"
REFLECTION = "reflection"


@dataclass(frozen=True)
class FamilySpec:
    """Per-factor tuple of family branches."""

    branches: tuple[tuple[str, ...], ...]

    @staticmethod
    def auto(d: ProductDomain) -> "FamilySpec":
        """Both orientations on annulus factors, plain automorphisms elsewhere."""
        return FamilySpec(
            tuple(
                (INCLUSION, REFLECTION) if isinstance(f, Annulus) else (INCLUSION,)
                for f in d.factors
            )
        )

    @staticmethod
    def named(d: ProductDomain, name: str) -> "FamilySpec":
        """Family by name: ``auto``, ``inclusion`` or ``reflection``.

        ``reflection`` applies the reflected orientation on annulus factors
        and falls back to plain automorphisms elsewhere.
        """
        if name == "auto":
            return FamilySpec.auto(d)
        if name == INCLUSION:
            return FamilySpec(((INCLUSION,),) * d.arity)
        if name == REFLECTION:
            return FamilySpec(
                tuple(
                    (REFLECTION,) if isinstance(f, Annulus) else (INCLUSION,)
                    for f in d.factors
                )
            )
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


def build_factor_witness(f: PlanarFactor, z: complex, branch: str, a: complex) -> MapExpr:
    """Witness map for one factor: branch primitive, automorphism at ``a``, normalizer.

    The final automorphism sends the image of ``z`` to 0.  Identity
    automorphisms arising from a = 0 or an already-normalized image are
    dropped so forced witnesses serialize in their simplest form.
    """
    a = complex(a)
    steps: list = []
    w = complex(z)
    if branch == REFLECTION:
        if not isinstance(f, Annulus):
            raise DomainError("the reflection branch applies to annulus factors only")
        steps.append(Reflection(f.r))
        w = f.r / w
    elif branch != INCLUSION:
        raise DomainError(f"unknown family branch {branch!r}")
    if a != 0:
        first = MobiusAut(a)
        steps.append(first)
        w = complex(mobius_eval(first, w))
    if w != 0:
        steps.append(MobiusAut(w))
    if not steps:
        steps.append(Inclusion())
    return MapExpr(tuple(steps))


def search_lower_bound(
    d: ProductDomain,
    z: ProductPoint,
    fam: FamilySpec | None = None,
) -> SearchResult:
    """Best certified lower bound over the family, with its witness.

    Each branch of each factor is built at a = 0 and scored analytically;
    the best branch of a factor wins (the earlier branch on ties), and the
    value is the min over factors.
    """
    if any(isinstance(f, BallFactor) for f in d.factors):
        raise DomainError("the embedding search is defined for planar factors only")
    fam = fam or FamilySpec.auto(d)
    if len(fam.branches) != d.arity:
        raise DomainError(f"{len(fam.branches)} branch tuples for {d.arity} factors")

    evaluations = 0
    values: list[float] = []
    components: list[MapExpr] = []
    for i, f in enumerate(d.factors):
        zi = z.planar(i)
        if not fam.branches[i]:
            raise DomainError(f"factor {i} has no family branch")
        best = None
        for branch in fam.branches[i]:
            e = build_factor_witness(f, zi, branch, 0j)
            require_base_to_zero(e, zi, i)
            v = image_inradius_analytic(e, f)
            evaluations += 1
            if best is None or v > best[0]:
                best = (v, e)
        values.append(best[0])
        components.append(best[1])

    return SearchResult(min(values), ProductMap(tuple(components)), evaluations, True)
