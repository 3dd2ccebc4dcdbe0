import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysqueeze import DomainError, MobiusAut
from polysqueeze.embeddings import mobius_circle_min_modulus, mobius_eval
from polysqueeze.verify import _array_eval, poincare_distance, sigma, sigma_inv

LOG3 = math.log(3.0)


def disk_points(max_modulus=0.85):
    return st.builds(
        lambda m, a: m * cmath.exp(1j * a),
        st.floats(0.0, max_modulus),
        st.floats(0.0, 2.0 * math.pi),
    )


# ----------------------------------------------------------------- sigma pair

def test_sigma_basic_values():
    assert sigma(0.0) == 0.0
    assert sigma(0.5) == pytest.approx(LOG3, abs=1e-15)


def test_sigma_inverse_pair_at_2():
    assert sigma(sigma_inv(2.0)) == pytest.approx(2.0, abs=1e-12)


def test_sigma_domain():
    for bad in (-0.1, 1.0, 1.2, math.inf, math.nan):
        with pytest.raises(DomainError):
            sigma(bad)


def test_sigma_inv_basic_values():
    assert sigma_inv(0.0) == 0.0
    assert sigma_inv(LOG3) == pytest.approx(0.5, abs=1e-15)


def test_sigma_inv_near_one():
    # high-precision oracle for tanh(10)
    expected = float(mpmath.tanh(mpmath.mpf(10)))
    got = sigma_inv(20.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert 1.0 - 1e-8 < got < 1.0


def test_sigma_inv_huge_t_stays_below_one():
    assert 0.0 < sigma_inv(700.0) < 1.0


def test_sigma_inv_domain():
    for bad in (-1e-12, -3.0, math.inf):
        with pytest.raises(DomainError):
            sigma_inv(bad)


def test_sigma_strictly_increasing_on_grid():
    xs = np.linspace(0.0, 0.9999, 10_000)
    vals = [sigma(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_roundtrip_x_direction():
    xs = np.linspace(0.0, 0.999999, 2001)
    assert max(abs(sigma_inv(sigma(x)) - x) for x in xs) <= 1e-12


def test_roundtrip_t_direction_within_conditioning():
    # A bare double tanh(t/2) would cost ~2e-8 at t = 20; the complement that
    # sigma_inv carries keeps the whole [0, 20] range at 1e-12.
    ts = np.linspace(0.0, 10.0, 2001)
    assert max(abs(sigma(sigma_inv(t)) - t) for t in ts) <= 1e-12
    ts = np.linspace(0.0, 20.0, 2001)
    assert max(abs(sigma(sigma_inv(t)) - t) for t in ts) <= 1e-12
    # the carried complement against the high-precision 1 - tanh(t/2)
    for t in (1e-8, 0.5, 5.0, 20.0, 38.0, 100.0, 400.0, 700.0):
        expected = 2 / (1 + mpmath.exp(mpmath.mpf(t)))
        got = sigma_inv(t).complement
        assert abs(got - expected) <= 1e-14 * expected
    # the float value itself is unchanged near one
    assert sigma_inv(20.0) == pytest.approx(float(mpmath.tanh(mpmath.mpf(10))), abs=1e-15)


# --------------------------------------------------------------------- Mobius

def test_mobius_zero_of_map():
    assert mobius_eval(MobiusAut(0.3), 0.3) == 0


def test_mobius_zero_where_the_denominator_rounds_to_0():
    # an ulp inside the unit circle 1 - |a|^2 rounds to 0; the map is still 0 at a
    a = complex(-0.6381610240979042, 0.769902920712939)
    assert abs(a) < 1 and 1 - (a.conjugate() * a).real == 0
    assert mobius_eval(MobiusAut(a), a) == 0


def test_mobius_identity():
    for z in (0.0, 0.5j, -0.2 + 0.7j):
        assert mobius_eval(MobiusAut(0.0), z) == z


def test_mobius_at_origin():
    # direct formula: (0 - 0.5) / (1 - 0) = -0.5
    assert mobius_eval(MobiusAut(0.5), 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_mobius_parameter_validation():
    with pytest.raises(DomainError):
        MobiusAut(1.0)
    with pytest.raises(DomainError):
        MobiusAut(0.8 + 0.7j)


@given(disk_points())
def test_mobius_maps_circle_to_circle(a):
    m = MobiusAut(a)
    for k in range(16):
        z = cmath.exp(2j * math.pi * k / 16)
        assert abs(abs(complex(mobius_eval(m, z))) - 1.0) < 1e-12


@given(disk_points(), disk_points())
def test_mobius_inverse_roundtrip(a, z):
    m = MobiusAut(a)
    back = complex(mobius_eval(m.inverse(), complex(mobius_eval(m, z))))
    assert abs(back - z) < 1e-12


def test_mobius_array_in_place_matches_expression_bitwise():
    # the array path works in place; it must repeat the out-of-place arithmetic exactly
    rng = np.random.default_rng(4)
    zs = 0.99 * rng.uniform(0, 1, 257) * np.exp(2j * np.pi * rng.uniform(0, 1, 257))
    zs.setflags(write=False)  # the input is never written
    for m in (MobiusAut(0.3 - 0.4j), MobiusAut(-0.7j), MobiusAut(0.0)):
        want = (zs - m.a) / (1.0 - m.a.conjugate() * zs)
        assert np.array_equal(_array_eval((m,), zs), want)


# ----------------------------------------------------------- Poincare metric

def test_poincare_log3():
    assert poincare_distance(0.0, 0.5) == pytest.approx(LOG3, abs=1e-15)


def test_poincare_zero_iff_equal():
    assert poincare_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert poincare_distance(0.3, 0.4) > 0.0


def test_poincare_two_point_reduction():
    # closed form for real points: sigma(|b - a| / (1 - a b))
    expected = math.log((1 + 0.4 / 0.79) / (1 - 0.4 / 0.79))
    assert poincare_distance(0.3, 0.7) == pytest.approx(expected, abs=1e-13)
    # Mobius reduction oracle off the centre: pseudo-hyperbolic distance 0.3/0.9
    assert poincare_distance(0.5, 0.2) == pytest.approx(sigma(0.3 / 0.9), abs=1e-13)


def test_poincare_outside_disk():
    with pytest.raises(DomainError):
        poincare_distance(1.0, 0.0)
    with pytest.raises(DomainError):
        poincare_distance(0.0, 2.0 + 1.0j)


@given(disk_points(), disk_points())
def test_poincare_symmetric(a, b):
    assert poincare_distance(a, b) == pytest.approx(poincare_distance(b, a), abs=1e-13)


@settings(max_examples=200)
@given(disk_points(), disk_points(), disk_points(), st.floats(0.0, 2 * math.pi))
def test_poincare_mobius_invariance(a, b, c, theta):
    # the automorphism with zero c, each image then rotated by theta, as
    # verify's hyperbolic suite applies it
    m = MobiusAut(c)
    rot = complex(math.cos(theta), math.sin(theta))
    d1 = poincare_distance(a, b)
    d2 = poincare_distance(rot * mobius_eval(m, a), rot * mobius_eval(m, b))
    assert abs(d1 - d2) <= 1e-12


@settings(max_examples=200)
@given(disk_points(), disk_points(), disk_points())
def test_poincare_triangle_inequality(a, b, c):
    assert poincare_distance(a, c) <= poincare_distance(a, b) + poincare_distance(b, c) + 1e-12


# ----------------------------------------------------- circle minimum modulus

def brute_circle_min(a: complex, r: float, m: int) -> float:
    zs = r * np.exp(2j * np.pi * np.arange(m) / m)
    return float(np.abs((zs - a) / (1 - np.conj(a) * zs)).min())


def test_circle_min_rotation_fixes_circles():
    for r in (0.1, 0.5, 0.9):
        assert mobius_circle_min_modulus(0.0, r) == r


def test_circle_min_closed_case():
    expected = 0.25 / 0.875
    assert mobius_circle_min_modulus(0.5, 0.25) == pytest.approx(expected, abs=1e-15)
    assert mobius_circle_min_modulus(0.5, 0.25) == pytest.approx(
        brute_circle_min(0.5, 0.25, 100_000), abs=1e-8
    )


def test_circle_min_point_on_circle():
    assert mobius_circle_min_modulus(0.25, 0.25) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 0.95),
    st.floats(0.02, 0.95),
    st.floats(0.0, 2 * math.pi),
)
@example(amod=0.9375, r=0.95, ang=1.0)
def test_circle_min_matches_brute_force(amod, r, ang):
    # near |a| = r the true minimum is a conical 0 and the 65536-point sampler
    # itself carries more than the tolerance, so keep a small margin; step
    # down from r where stepping up would leave [0, 0.95]
    if abs(amod - r) < 0.02:
        amod = r + 0.02 if r + 0.02 <= 0.95 else r - 0.02
    a = amod * cmath.exp(1j * ang)
    assert abs(mobius_circle_min_modulus(a, r) - brute_circle_min(a, r, 65536)) <= 1e-4


def test_circle_min_validation():
    with pytest.raises(DomainError):
        mobius_circle_min_modulus(1.2, 0.5)
    with pytest.raises(DomainError):
        mobius_circle_min_modulus(0.2, 1.0)
