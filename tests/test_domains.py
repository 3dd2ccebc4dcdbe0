import copy
import json
import math
import pickle
import struct

import numpy as np
import pytest

from polysqueeze import (
    Annulus,
    BallFactor,
    DomainError,
    ProductDomain,
    PuncturedDisk,
    UnitDisk,
)
from polysqueeze import cli, squeezing
from polysqueeze.domains import Frozen, ProductPoint, membership
from polysqueeze.embeddings import MapExpr, MobiusAut, ProductMap, Reflection
from polysqueeze.verify import Check, _sample_radii, _unit_circle
from test_golden_cli import SPECS


# ----------------------------------------------------------------- membership

def test_membership_unit_disk():
    d = UnitDisk()
    assert membership(d, 0)
    assert membership(d, 0.999)
    assert not membership(d, 1.0)
    assert not membership(d, 1.0j)


def test_membership_punctured_disk():
    f = PuncturedDisk((0j,))
    assert not membership(f, 0)
    assert membership(f, 1e-300)
    assert membership(f, 0.5j)


def test_membership_annulus():
    f = Annulus(0.25)
    assert not membership(f, 0.25)
    assert not membership(f, 0.1)
    assert membership(f, 0.5)
    assert not membership(f, 1.0)


def test_membership_ball():
    b = BallFactor(2)
    assert membership(b, (0.5 + 0j, 0.5j))
    assert not membership(b, (0.8 + 0j, 0.7j))
    # open: the sphere is outside, 1 ulp inside it is not; a list reads as a tuple
    assert not membership(b, [1.0, 0j]) and membership(b, [math.nextafter(1.0, 0.0), 0j])
    with pytest.raises(DomainError):
        membership(b, 0.5)  # not a tuple of length 2


# -------------------------------------------------------------- boundary data

def test_factors_give_their_boundary():
    ps = (0j, 0.5 + 0.25j)
    assert (UnitDisk().radii, UnitDisk().punctures) == ((1.0,), ())
    assert (PuncturedDisk(ps).radii, PuncturedDisk(ps).punctures) == ((1.0,), ps)
    assert (Annulus(0.25).radii, Annulus(0.25).punctures) == ((1.0, 0.25), ())
    assert BallFactor(2).punctures == () and not hasattr(BallFactor(2), "radii")


def golden_factors():
    """Each factor of the golden CLI fixture's specs once, read as the CLI reads them."""
    factors = {}
    for spec in SPECS.values():
        for f in cli._spec_plan(json.dumps({"factors": spec})).domain.factors:
            factors[f] = None
    return list(factors)


def golden_planar_factors():
    return [f for f in golden_factors() if not isinstance(f, BallFactor)]


@pytest.mark.parametrize("f", golden_planar_factors(), ids=repr)
def test_membership_reads_the_boundary(f):
    # the factor lies inside the unit circle and outside every later circle;
    # each circle and each puncture is excluded
    for k, rho in enumerate(f.radii):
        excluded, open_side = (math.inf, 0.0) if k == 0 else (0.0, 1.0)
        for u in (1, 1j, -1, -1j):
            assert not membership(f, rho * u)
            assert not membership(f, math.nextafter(rho, excluded) * u)
            assert membership(f, math.nextafter(rho, open_side) * u)
    for p in f.punctures:
        assert not membership(f, p)


def _probes(f):
    """Coordinates on and 1 ulp either side of each boundary circle or sphere, at each
    puncture, and well inside; a ball's given both as a tuple and as a list."""
    if isinstance(f, BallFactor):
        zeros = [0j] * (f.n - 1)
        sphere = [1.0 / math.sqrt(f.n)] * f.n
        points = [[0.25j / f.n] * f.n, sphere, [x * 1j for x in sphere]]
        for x in (1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)):
            points += [[x, *zeros], [*zeros, -x]]
        return [shape(p) for p in points for shape in (tuple, list)]
    points = [0.5 * (1.0 + f.radii[-1]), -0.0, 1e-300j, *f.punctures]
    for rho in f.radii:
        for x in (rho, math.nextafter(rho, 0.0), math.nextafter(rho, math.inf)):
            points += [x, complex(0.0, x), -x, x * (0.6 - 0.8j)]
    return points


def _bits(c):
    """Type and exact doubles of a coordinate: equal iff bit for bit equal, signed zeros too."""
    parts = c if isinstance(c, tuple) else (c,)
    return [(type(z), struct.pack("<dd", z.real, z.imag)) for z in parts]


@pytest.mark.parametrize("f", list(dict.fromkeys([*golden_factors(), BallFactor(2)])), ids=repr)
def test_membership_and_point_read_each_coordinate_alike(f):
    # membership holds exactly where ProductPoint.of stores the coordinate,
    # converted once, as complex(c) or the tuple of converted parts
    d = ProductDomain((f,))
    seen = set()
    for c in _probes(f):
        want = tuple(complex(x) for x in c) if isinstance(f, BallFactor) else complex(c)
        inside = membership(f, c)
        seen.add(inside)
        if inside:
            assert _bits(ProductPoint.of(d, [c]).coords[0]) == _bits(want)
        else:
            with pytest.raises(DomainError) as e:
                ProductPoint.of(d, [c])
            assert str(e.value) == f"coordinate 0 ({want!r}) is not in its factor {f!r}"
    assert seen == {True, False}


@pytest.mark.parametrize("c", [0.5, "0.5", (0.1,), [0.1, 0.1, 0.1], (), None])
def test_a_misshapen_ball_coordinate_fails_alike(c):
    b = BallFactor(2)
    with pytest.raises(DomainError) as e:
        membership(b, c)
    with pytest.raises(DomainError) as again:
        ProductPoint.of(ProductDomain((b,)), [c])
    want = "ball coordinate must be a tuple of 2 complex numbers"
    assert str(e.value) == str(again.value) == want


# ------------------------------------------------------------------- sampling
# The oracle samples each circle as rho * _unit_circle(m), for each rho of
# _sample_radii, outer circle first.

NUDGE = 4.0 * np.finfo(float).eps


def samples(f, m):
    return np.concatenate([rho * _unit_circle(m) for rho in _sample_radii(f)])


def test_boundary_samples_unit_disk():
    assert _sample_radii(UnitDisk()) == (1.0 + NUDGE,)
    assert np.allclose(samples(UnitDisk(), 4), [1, 1j, -1, -1j], atol=1e-15)


def test_boundary_samples_annulus_two_circles():
    assert _sample_radii(Annulus(0.5)) == (1.0 + NUDGE, (1.0 - NUDGE) * 0.5)
    got = samples(Annulus(0.5), 4)
    assert len(got) == 8
    assert np.allclose(got[:4], [1, 1j, -1, -1j], atol=1e-15)
    assert np.allclose(got[4:], [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)


def test_boundary_samples_skip_punctures():
    got = samples(PuncturedDisk((0j,)), 4)
    assert len(got) == 4
    assert np.allclose(np.abs(got), 1.0)


def test_boundary_samples_validation():
    # the sample count is checked by image_inradius_at_zero, which takes it
    with pytest.raises(DomainError):
        _sample_radii(BallFactor(1))


def test_boundary_samples_never_members():
    for f in (UnitDisk(), PuncturedDisk((0.3 + 0j,)), Annulus(0.4)):
        assert not any(membership(f, complex(z)) for z in samples(f, 32))


def test_boundary_samples_cached_readonly():
    arr = _unit_circle(16)
    assert _unit_circle(16) is arr
    with pytest.raises(ValueError):
        arr[0] = 0


# ----------------------------------------------------------- factor validation

def test_factor_validation():
    with pytest.raises(DomainError):
        Annulus(0.0)
    with pytest.raises(DomainError):
        Annulus(1.0)
    for r in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            Annulus(r)
    with pytest.raises(DomainError):
        PuncturedDisk(())
    with pytest.raises(DomainError):
        PuncturedDisk((1.5 + 0j,))
    with pytest.raises(DomainError):
        PuncturedDisk((0.5 + 0j, 0.5 + 0j))
    with pytest.raises(DomainError):
        BallFactor(0)


def test_factor_dim():
    assert UnitDisk().dim == PuncturedDisk((0j, 0.5)).dim == Annulus(0.25).dim == 1
    assert BallFactor(3).dim == 3
    assert ProductDomain((BallFactor(3), Annulus(0.25), UnitDisk())).dim == 5


# -------------------------------------------------------------- product types

def test_product_domain_nonempty():
    with pytest.raises(DomainError):
        ProductDomain(())


def test_product_point_validates_membership():
    d = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
    z = d.point([0.2, 0.5j])
    assert z.planar(0) == 0.2 + 0j
    with pytest.raises(DomainError):
        d.point([0.2, 0.0])  # second coordinate sits on the puncture
    with pytest.raises(DomainError):
        d.point([1.2, 0.5])  # first coordinate outside
    with pytest.raises(DomainError):
        d.point([0.2])  # arity mismatch


def test_product_point_ball_coordinates():
    d = ProductDomain((BallFactor(2), UnitDisk()))
    z = d.point([(0.1, 0.2j), 0.5])
    assert z.coords[0] == (0.1 + 0j, 0.2j)
    assert d.dim == 3
    with pytest.raises(DomainError):
        d.point([(0.9, 0.9j), 0.5])
    with pytest.raises(DomainError):
        z.planar(0)


def test_product_helpers():
    d = ProductDomain((UnitDisk(), PuncturedDisk((0j,)), Annulus(0.5)))
    assert d.arity == 3
    assert d.is_planar()
    assert not ProductDomain((BallFactor(2),)).is_planar()


# -------------------------------------------------------------- value classes

def _value_instances():
    """One instance of every value class, with the repr dataclasses gave it."""
    d = ProductDomain((Annulus(0.25), UnitDisk(), PuncturedDisk((0j, 0.5 + 0.25j)), BallFactor(2)))
    identity = ProductMap((MapExpr((MobiusAut(0),)),))
    return [
        (UnitDisk(), "UnitDisk()"),
        (PuncturedDisk((0j, 0.5 + 0.25j)), "PuncturedDisk(punctures=(0j, (0.5+0.25j)))"),
        (Annulus(0.25), "Annulus(r=0.25)"),
        (BallFactor(2), "BallFactor(n=2)"),
        (d, "ProductDomain(factors=(Annulus(r=0.25), UnitDisk(), "
            "PuncturedDisk(punctures=(0j, (0.5+0.25j))), BallFactor(n=2)))"),
        (d.point([0.5, 0.1j, 0.2, (0.1, 0.2j)]),
         "ProductPoint(coords=((0.5+0j), 0.1j, (0.2+0j), ((0.1+0j), 0.2j)))"),
        (MobiusAut(0.5 - 0.25j, 0.75), "MobiusAut(a=(0.5-0.25j), theta=0.75)"),
        (Reflection(0.25), "Reflection(r=0.25)"),
        (MapExpr((Reflection(0.25), MobiusAut(0.3j))),
         "MapExpr(steps=(Reflection(r=0.25), MobiusAut(a=0.3j, theta=0.0)))"),
        (identity, "ProductMap(components=(MapExpr(steps=(MobiusAut(a=0j, theta=0.0),)),))"),
        (squeezing.BoundReport(0.25, 0.5, None, identity, ("X",)),
         "BoundReport(lower=0.25, upper=0.5, exact=None, witness=ProductMap(components="
         "(MapExpr(steps=(MobiusAut(a=0j, theta=0.0),)),)), methods=('X',))"),
        (squeezing.SearchResult(0.5, identity, 2),
         "SearchResult(value=0.5, witness=ProductMap(components="
         "(MapExpr(steps=(MobiusAut(a=0j, theta=0.0),)),)), evaluations=2)"),
        (Check("a", True, "ok"), "Check(name='a', passed=True, detail='ok')"),
    ]


VALUES = _value_instances()
VALUE_IDS = [type(v).__name__ for v, _ in VALUES]


def test_every_value_class_is_pinned():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = {c for c in subclasses(Frozen) if c.__module__.startswith("polysqueeze.")}
    assert sorted(VALUE_IDS) == sorted(c.__name__ for c in classes)
    assert len(classes) == 13


@pytest.mark.parametrize(("value", "text"), VALUES, ids=VALUE_IDS)
def test_value_repr_is_pinned(value, text):
    # ProductPoint.of puts a factor's repr in its error message
    assert repr(value) == text


def test_point_error_quotes_the_factor_repr():
    d = ProductDomain((UnitDisk(), PuncturedDisk((0.5j,))))
    with pytest.raises(DomainError) as e:
        d.point([0j, 0.5j])
    assert str(e.value) == "coordinate 1 (0.5j) is not in its factor PuncturedDisk(punctures=(0.5j,))"


@pytest.mark.parametrize(("value", "text"), VALUES, ids=VALUE_IDS)
def test_value_equality_and_hash_are_by_field(value, text):
    cls, fields = type(value), value.__slots__
    twin = cls(*(getattr(value, name) for name in fields))
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
    assert not hasattr(value, "__dict__")
    other = object()
    assert value.__eq__(other) is NotImplemented and value != other


def test_value_equality_reads_every_field_and_never_crosses_classes():
    assert MobiusAut(0.5, 0.25) != MobiusAut(0.5, 0.5) != MobiusAut(0.25, 0.5)
    assert PuncturedDisk((0j, 0.5)) != PuncturedDisk((0.5, 0j))
    assert Annulus(0.25).__eq__(Reflection(0.25)) is NotImplemented
    assert Annulus(0.25) != Reflection(0.25)
    # two field-less values of different classes, each of field tuple ()
    assert UnitDisk() != Frozen() and UnitDisk() == UnitDisk()
    assert len({Annulus(0.25), Annulus(0.25), Reflection(0.25), UnitDisk(), Frozen()}) == 4


@pytest.mark.parametrize(("value", "text"), VALUES, ids=VALUE_IDS)
def test_value_fields_cannot_be_assigned_or_deleted(value, text):
    for name in (*value.__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize(("value", "text"), VALUES, ids=VALUE_IDS)
def test_value_copies_and_pickles_round_trip(value, text):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 *(pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def test_classes_that_only_hold_fields_inherit_the_frozen_constructor():
    own = {c.__name__ for c in map(type, (v for v, _ in VALUES)) if "__init__" in vars(c)}
    assert {"SearchResult", "Check"}.isdisjoint(own)
    assert sorted(set(VALUE_IDS) - own) == ["Check", "SearchResult", "UnitDisk"]


@pytest.mark.parametrize("cls", [squeezing.SearchResult, Check, UnitDisk],
                         ids=lambda c: c.__name__)
def test_the_frozen_constructor_takes_one_value_per_field(cls):
    values = tuple(range(len(cls.__slots__)))
    made = cls(*values)
    assert tuple(getattr(made, name) for name in cls.__slots__) == values
    for wrong in (values[:-1], values + (0,)) if values else ((0,),):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(values)} field "
                                            f"values, got {len(wrong)}$"):
            cls(*wrong)
