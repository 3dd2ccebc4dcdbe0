import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysqueeze import (
    Annulus,
    BallFactor,
    BoundReport,
    BoundsOptions,
    DomainError,
    LimitProfile,
    ProductDomain,
    ProductPoint,
    PuncturedDisk,
    SqueezeError,
    UnitDisk,
    UnsupportedGeometryError,
    annulus_clearance_bound,
    ball_product_ratio_check,
    boundary_limit_profile,
    default_limit_path,
    exact_squeeze,
    hhr_flag,
    membership,
    product_inradius,
    product_lower_bound,
    puncture_upper_bound,
    single_annulus_index,
    single_factor_exact,
    squeeze_bounds,
)
from polysqueeze.hyperbolic import MobiusAut, mobius_eval
from polysqueeze.squeezing import (
    CLEARANCE_LOWER,
    CLOSED_FORM,
    PRODUCT_LOWER,
    PUNCTURE_UPPER,
    SEARCH,
    _reduced_modulus,
)

PUNCT2 = ProductDomain((PuncturedDisk((0j,)), PuncturedDisk((0j,))))
MIXED = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
ANNULUS_DISK = ProductDomain((Annulus(0.25), UnitDisk()))


# ---------------------------------------------------------- single factor form

def test_single_factor_values():
    assert single_factor_exact(UnitDisk(), 0.7j) == 1.0
    assert single_factor_exact(PuncturedDisk((0j,)), 0.5) == 0.5
    assert single_factor_exact(BallFactor(2), (0j, 0j)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_single_factor_offcenter_puncture():
    # reduced-modulus oracle, written out independently
    p, z = 0.2, 0.5
    expected = abs((z - p) / (1 - p * z))
    assert single_factor_exact(PuncturedDisk((p + 0j,)), z) == pytest.approx(expected, abs=1e-15)


def test_single_factor_annulus_branches():
    f = Annulus(0.25)
    assert single_factor_exact(f, 0.4) == pytest.approx(0.625, abs=1e-15)
    assert single_factor_exact(f, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert single_factor_exact(f, 0.8) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(DomainError):
        single_factor_exact(f, 0.1)


def test_single_factor_multi_puncture_unsupported():
    # least reduced modulus over the punctures, written out: |0.3| and
    # |0.3 - 0.5| / (1 - 0.5 * 0.3)
    want = min(0.3, 0.2 / 0.85)
    assert single_factor_exact(PuncturedDisk((0j, 0.5 + 0j)), 0.3) == pytest.approx(want, abs=1e-15)


# -------------------------------------------------------------- exact catalog

def test_exact_punctured_product():
    z = PUNCT2.point([0.5, 0.3])
    rep = exact_squeeze(PUNCT2, z)
    assert rep.exact == pytest.approx(0.3, abs=1e-15)
    assert rep.lower == rep.upper == rep.exact
    assert rep.methods == (CLOSED_FORM,)


def test_exact_mixed_product():
    z = MIXED.point([0.9, 0.4])
    assert exact_squeeze(MIXED, z).exact == pytest.approx(0.4, abs=1e-15)


def test_exact_annulus_disk_branches():
    for x, want in ((0.4, 0.625), (0.5, 0.5), (0.8, 0.8)):
        z = ANNULUS_DISK.point([x, 0j])
        assert exact_squeeze(ANNULUS_DISK, z).exact == pytest.approx(want, abs=1e-15)


def test_exact_annulus_branch_agreement_at_sqrt_r():
    r = 0.25
    s = math.sqrt(r)
    assert abs(r / s - s) <= 1e-12
    z = ANNULUS_DISK.point([s, 0j])
    assert exact_squeeze(ANNULUS_DISK, z).exact == pytest.approx(s, abs=1e-12)


def test_exact_polydisk():
    d = ProductDomain((UnitDisk(), UnitDisk(), UnitDisk()))
    z = d.point([0.1, 0.9j, -0.5])
    rep = exact_squeeze(d, z)
    assert rep.exact == 1.0 and rep.lower == 1.0 and rep.upper == 1.0


def test_exact_single_ball():
    d = ProductDomain((BallFactor(3),))
    z = d.point([(0.1, 0.2j, 0j)])
    assert exact_squeeze(d, z).exact == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_exact_outside_catalog():
    z2 = ProductDomain((Annulus(0.2), Annulus(0.3))).point([0.5, 0.6])
    with pytest.raises(UnsupportedGeometryError):
        exact_squeeze(ProductDomain((Annulus(0.2), Annulus(0.3))), z2)
    d = ProductDomain((BallFactor(2), PuncturedDisk((0j,))))
    with pytest.raises(UnsupportedGeometryError):
        exact_squeeze(d, d.point([(0.1, 0j), 0.3]))
    mixed = ProductDomain((Annulus(0.2), PuncturedDisk((0j,))))
    with pytest.raises(UnsupportedGeometryError):
        exact_squeeze(mixed, mixed.point([0.5, 0.5]))


def test_exact_witness_achieves_value():
    z = PUNCT2.point([0.5, 0.3])
    rep = exact_squeeze(PUNCT2, z)
    assert rep.witnesses
    scored = product_inradius(rep.witnesses[0], PUNCT2, z, 4096)
    assert scored == pytest.approx(rep.exact, abs=1e-12)


def test_exact_rotation_invariance():
    # per-factor rotations move punctures and points together; the value
    # depends only on the reduced moduli
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = 0.4 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z1 = 0.75 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z2 = 0.35 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        base = ProductDomain((PuncturedDisk((p,)), PuncturedDisk((0j,))))
        v0 = exact_squeeze(base, base.point([z1, z2])).exact
        for _ in range(4):
            w1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            w2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            rot = ProductDomain((PuncturedDisk((w1 * p,)), PuncturedDisk((0j,))))
            v1 = exact_squeeze(rot, rot.point([w1 * z1, w2 * z2])).exact
            assert abs(v0 - v1) <= 1e-12


# ----------------------------------------------------------- puncture upper

def test_upper_punctured_product():
    z = PUNCT2.point([0.5, 0.3])
    assert puncture_upper_bound(PUNCT2, z) == pytest.approx(0.3, abs=1e-12)


def test_upper_mixed_product():
    z = MIXED.point([0.9, 0.4])
    assert puncture_upper_bound(MIXED, z) == pytest.approx(0.4, abs=1e-12)


def test_upper_offcenter_single_factor():
    d = ProductDomain((PuncturedDisk((0.2 + 0j,)),))
    z = d.point([0.5])
    assert puncture_upper_bound(d, z) == pytest.approx(0.3 / 0.9, abs=1e-12)


def test_upper_inapplicable_without_punctures():
    d = ProductDomain((UnitDisk(), UnitDisk()))
    with pytest.raises(DomainError):
        puncture_upper_bound(d, d.point([0.1, 0.2]))
    with pytest.raises(DomainError):
        puncture_upper_bound(ANNULUS_DISK, ANNULUS_DISK.point([0.5, 0j]))


def test_upper_rejects_ball_factors():
    # a ball factor has no puncture, so balls and disks alone give no bound
    d = ProductDomain((BallFactor(2), UnitDisk()))
    with pytest.raises(DomainError):
        puncture_upper_bound(d, d.point([(0.1, 0j), 0.5]))


def test_upper_skips_ball_factors():
    # the filled-puncture bound is factorwise: the ball factor is skipped
    d = ProductDomain((BallFactor(2), PuncturedDisk((0j,))))
    z = d.point([(0.1, 0.2), 0.3])
    assert puncture_upper_bound(d, z) == pytest.approx(0.3, abs=1e-12)
    rep = squeeze_bounds(d, z)
    assert rep.upper == pytest.approx(0.3, abs=1e-12)
    assert rep.lower <= rep.upper
    assert PUNCTURE_UPPER in rep.methods


def test_upper_multi_puncture_subdomain():
    d = ProductDomain((PuncturedDisk((0j, 0.5 + 0j)),))
    z = d.point([0.1])
    # both punctures filled at once: the least pseudo-hyperbolic distance,
    # min(0.1, 0.4 / 0.95), to the puncture 0
    assert puncture_upper_bound(d, z) == pytest.approx(0.1, abs=1e-12)


def test_upper_pinches_exact_on_catalog():
    rng = np.random.default_rng(3)
    for _ in range(50):
        coords = rng.uniform(0.05, 0.95, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        z = PUNCT2.point(list(coords))
        exact = exact_squeeze(PUNCT2, z).exact
        assert abs(puncture_upper_bound(PUNCT2, z) - exact) <= 1e-12


def test_reduced_modulus_is_the_mobius_double():
    # written out, the expression is mobius_eval's at rotation 0, bit for bit
    rng = np.random.default_rng(5)
    ps = rng.uniform(0.0, 0.95, 2000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000))
    zs = rng.uniform(0.0, 0.95, 2000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000))
    for p, z in zip(ps, zs):
        p, z = complex(p), complex(z)
        assert _reduced_modulus(p, z) == abs(complex(mobius_eval(MobiusAut(p), z)))


BRACKET_DOMAINS = {
    "disk": ProductDomain((UnitDisk(), UnitDisk())),
    "punctured": ProductDomain((UnitDisk(), PuncturedDisk((0.3 - 0.2j,)))),
    "punctured2": PUNCT2,
    "three_puncture": ProductDomain((PuncturedDisk((0j, 0.5 + 0j, -0.5j)), UnitDisk())),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BRACKET_DOMAINS)),
       st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi),
       st.booleans())
def test_bracket_holds_exact_to_the_last_bit(name, r1, t1, r2, t2, search):
    # upper and exact are one double, so no tolerance is needed
    d = BRACKET_DOMAINS[name]
    coords = [cmath.rect(r1, t1), cmath.rect(r2, t2)]
    assume(all(map(membership, d.factors, coords)))
    rep = squeeze_bounds(d, d.point(coords), BoundsOptions(search=search))
    assert rep.lower <= rep.exact <= rep.upper


# ------------------------------------------------------------- product lower

def test_lower_examples():
    assert product_lower_bound(PUNCT2, PUNCT2.point([0.5, 0.3])) == pytest.approx(0.3, abs=1e-15)
    z = ANNULUS_DISK.point([0.4, 0j])
    assert product_lower_bound(ANNULUS_DISK, z) == pytest.approx(0.625, abs=1e-15)
    balls = ProductDomain((BallFactor(2), BallFactor(2)))
    zb = balls.point([(0j, 0j), (0.1, 0.2j)])
    assert product_lower_bound(balls, zb) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_lower_rejects_unsupported_factor():
    class Slab:  # a factor kind the library does not know
        pass

    d = ProductDomain((Slab(),))
    with pytest.raises(UnsupportedGeometryError):
        product_lower_bound(d, ProductPoint((0.3j,)))


def test_lower_multi_puncture_min_modulus():
    # the witness sending z to 0 certifies min_p |phi_z(p)| on a multi-puncture factor
    d = ProductDomain((PuncturedDisk((0j, 0.5 + 0j, -0.5j)), UnitDisk()))
    z = d.point([0.1 + 0.2j, 0.3])
    want = min(abs((p - z.coords[0]) / (1 - z.coords[0].conjugate() * p))
               for p in (0j, 0.5 + 0j, -0.5j))
    assert want == pytest.approx(math.sqrt(0.05), abs=1e-15)
    assert product_lower_bound(d, z) == pytest.approx(want, abs=1e-15)
    rep = squeeze_bounds(d, z, BoundsOptions(search=False))
    assert rep.lower == pytest.approx(want, abs=1e-15)
    assert PRODUCT_LOWER in rep.methods


def test_sandwich_on_punctured_products():
    rng = np.random.default_rng(11)
    for _ in range(50):
        coords = rng.uniform(0.05, 0.95, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        z = PUNCT2.point(list(coords))
        lo = product_lower_bound(PUNCT2, z)
        hi = puncture_upper_bound(PUNCT2, z)
        exact = exact_squeeze(PUNCT2, z).exact
        assert lo <= exact <= hi + 1e-12


# ------------------------------------------------------- annulus clearance

def test_clearance_values():
    # both clearances written out independently
    x, r = 0.9, 0.25
    outer = (x - r) / (1 - r * x)
    assert outer == pytest.approx(0.65 / 0.775, abs=1e-15)
    assert annulus_clearance_bound(r, x) == pytest.approx(outer, abs=1e-15)
    assert annulus_clearance_bound(r, x) <= 0.9 + 1e-15


def test_clearance_boundary_limits():
    assert annulus_clearance_bound(0.25, 1 - 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert annulus_clearance_bound(0.25, 0.25 + 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_clearance_validation():
    with pytest.raises(DomainError):
        annulus_clearance_bound(0.25, 0.2)
    with pytest.raises(DomainError):
        annulus_clearance_bound(0.25, 1.0)
    with pytest.raises(DomainError):
        annulus_clearance_bound(1.2, 0.5)


def test_clearance_below_exact_everywhere():
    r = 0.25
    for x in np.linspace(r + 1e-3, 1 - 1e-3, 500):
        assert annulus_clearance_bound(r, x) <= max(x, r / x) + 1e-12


# ------------------------------------------------------------------- bounds

def test_bounds_pinched_on_catalog():
    z = PUNCT2.point([0.5, 0.3])
    rep = squeeze_bounds(PUNCT2, z)
    assert rep.exact == pytest.approx(0.3, abs=1e-15)
    assert rep.upper - rep.lower <= 1e-12
    assert rep.lower <= rep.exact <= rep.upper
    for tag in (CLOSED_FORM, PUNCTURE_UPPER, PRODUCT_LOWER, SEARCH):
        assert tag in rep.methods


def test_bounds_two_puncture_sandwich():
    d = ProductDomain((PuncturedDisk((0j, 0.5 + 0j)),))
    rep = squeeze_bounds(d, d.point([0.1]))
    # the closed form min(0.1, 0.4 / 0.95), pinched by both bounds
    assert rep.exact == pytest.approx(0.1, abs=1e-15)
    assert CLOSED_FORM in rep.methods
    assert rep.upper - rep.lower <= 1e-15
    assert 0 < rep.lower <= rep.upper < 1
    assert PUNCTURE_UPPER in rep.methods and SEARCH in rep.methods
    assert PRODUCT_LOWER in rep.methods
    # both lower bounds come from the same witness, the automorphism at 0.1
    assert rep.lower == pytest.approx(product_lower_bound(d, d.point([0.1])), abs=1e-15)


def test_bounds_polydisk():
    d = ProductDomain((UnitDisk(), UnitDisk()))
    rep = squeeze_bounds(d, d.point([0.3, 0.4j]))
    assert (rep.lower, rep.upper, rep.exact) == (1.0, 1.0, 1.0)


def test_bounds_annulus_has_clearance_tag():
    rep = squeeze_bounds(ANNULUS_DISK, ANNULUS_DISK.point([0.7, 0.1]), BoundsOptions(search=False))
    assert CLEARANCE_LOWER in rep.methods and SEARCH not in rep.methods
    assert rep.lower == pytest.approx(0.7, abs=1e-15)
    assert rep.upper == 1.0


def test_bounds_ball_mix_degrades_gracefully():
    d = ProductDomain((BallFactor(2), PuncturedDisk((0j,))))
    z = d.point([(0.1, 0j), 0.5])
    rep = squeeze_bounds(d, z)
    assert rep.lower == pytest.approx(0.5, abs=1e-15)  # product lower
    assert rep.upper == pytest.approx(0.5, abs=1e-12)  # puncture bound, ball skipped
    assert PUNCTURE_UPPER in rep.methods and SEARCH not in rep.methods


def test_bound_report_validation():
    with pytest.raises(SqueezeError):
        BoundReport(0.7, 0.3)
    with pytest.raises(SqueezeError):
        BoundReport(0.1, 0.4, exact=0.9)


# ---------------------------------------------------------------- ball ratios

def test_ball_ratio_values():
    rep = ball_product_ratio_check(2)
    assert rep.ball_target_value == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert rep.scaled_up == pytest.approx(math.sqrt(2), abs=1e-15)
    assert rep.scaled_down == pytest.approx(2 ** -1.5, abs=1e-15)
    assert rep.contradictions_hold
    rep4 = ball_product_ratio_check(4)
    assert rep4.ball_target_value == pytest.approx(0.5, abs=1e-15)
    assert rep4.scaled_down == pytest.approx(0.125, abs=1e-15)


def test_ball_ratio_rejects_n1():
    with pytest.raises(DomainError):
        ball_product_ratio_check(1)


# ---------------------------------------------------------------- limit profile

def test_profile_values_dominate_clearances():
    profile = boundary_limit_profile(0.25, [0.9, 0.99, 0.999])
    assert profile.target == 1.0
    for bound, floor in zip(profile.bounds, (0.8387, 0.9837, 0.99834)):
        assert bound >= floor


def test_profile_clearance_only_column():
    profile = boundary_limit_profile(0.25, [0.9], include_exact=False)
    assert profile.bounds[0] == pytest.approx(0.65 / 0.775, abs=1e-15)


def test_profile_inner_side_limit():
    xs = [0.26, 0.2501, 0.250001]
    profile = boundary_limit_profile(0.25, xs)
    assert profile.bounds[-1] >= 1 - 1e-4
    assert profile.params == tuple(xs)


def test_profile_rejects_bad_paths():
    with pytest.raises(DomainError):
        boundary_limit_profile(0.25, [0.5, 0.5, 0.6])  # constant step
    with pytest.raises(DomainError):
        boundary_limit_profile(0.25, [0.5, 0.7, 0.6])  # not monotone
    with pytest.raises(DomainError):
        boundary_limit_profile(0.25, [0.2, 0.3])  # outside annulus
    with pytest.raises(DomainError):
        boundary_limit_profile(0.25, [])


def test_limit_profile_type_validation():
    with pytest.raises(DomainError):
        LimitProfile(((0.5, 0.1), (0.5, 0.2)), 1.0)


def test_default_limit_path_endpoints():
    path = default_limit_path(0.25, "outer", 256)
    assert len(path) == 256
    assert path[0] == pytest.approx(0.5, abs=1e-15)
    assert path[-1] == pytest.approx(1 - 1e-4, abs=1e-15)
    assert all(a < b for a, b in zip(path, path[1:]))
    inner = default_limit_path(0.25, "inner", 256)
    assert inner[-1] == pytest.approx(0.25 + 1e-4 * 0.75, abs=1e-15)
    assert all(a > b for a, b in zip(inner, inner[1:]))
    assert default_limit_path(0.25, "outer", 1) == [1 - 1e-4]
    with pytest.raises(DomainError):
        default_limit_path(0.25, "sideways", 8)


# ----------------------------------------------------------------------- hhr

def test_hhr_flags():
    assert hhr_flag(PUNCT2)
    assert not hhr_flag(ProductDomain((UnitDisk(), UnitDisk())))
    assert not hhr_flag(ANNULUS_DISK)


def test_hhr_annulus_floor_is_sqrt_r():
    # the piecewise value max(x, r/x) bottoms out at sqrt(r) > 0
    r = 0.25
    xs = np.linspace(r + 1e-6, 1 - 1e-6, 20001)
    vals = np.maximum(xs, r / xs)
    assert float(vals.min()) == pytest.approx(math.sqrt(r), abs=1e-4)


def test_single_annulus_index():
    assert single_annulus_index(ANNULUS_DISK) == 0
    assert single_annulus_index(ProductDomain((UnitDisk(), Annulus(0.5)))) == 1
    assert single_annulus_index(ProductDomain((Annulus(0.2), Annulus(0.3)))) is None
    assert single_annulus_index(PUNCT2) is None
