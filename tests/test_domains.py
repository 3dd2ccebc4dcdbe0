import math

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
from polysqueeze.domains import factor_dim, membership
from polysqueeze.verify import _sample_radii, _unit_circle


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
    with pytest.raises(DomainError):
        membership(b, 0.5)  # not a tuple of length 2


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
    assert factor_dim(UnitDisk()) == 1
    assert factor_dim(BallFactor(3)) == 3


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
