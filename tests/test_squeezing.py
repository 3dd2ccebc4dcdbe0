import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysqueeze import (
    Annulus,
    BallFactor,
    BoundReport,
    DomainError,
    ProductDomain,
    ProductPoint,
    PuncturedDisk,
    SqueezeError,
    UnitDisk,
    UnsupportedGeometryError,
    annulus_clearance_bound,
    default_limit_path,
    hhr_flag,
    search_lower_bound,
    squeeze_bounds,
)
from polysqueeze.cli import parse_point
from polysqueeze.domains import membership
from polysqueeze.embeddings import (
    MapExpr,
    MobiusAut,
    ProductMap,
    mobius_eval,
    mobius_modulus,
    reflect,
)
from polysqueeze.squeezing import (
    CLEARANCE_LOWER,
    CLOSED_FORM,
    FAMILIES,
    FAMILY_GAP,
    PRODUCT_LOWER,
    PUNCTURE_UPPER,
    SEARCH,
    DomainPlan,
)
from polysqueeze.verify import product_inradius

PUNCT2 = ProductDomain((PuncturedDisk((0j,)), PuncturedDisk((0j,))))
MIXED = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
ANNULUS_DISK = ProductDomain((Annulus(0.25), UnitDisk()))


# ---------------------------------------------------------- single factor form

def factor_value(f, coord):
    """The closed form of ``f`` at ``coord``: the catalog value of the one-factor domain."""
    d = ProductDomain((f,))
    return exact_value(d, d.point([coord]))


def exact_value(d, z):
    """The catalog value at ``z``, or None outside the catalog."""
    return squeeze_bounds(d, z, search=False).exact


def upper_bound(d, z):
    """The least puncture cap at ``z``, or 1 where no factor has a puncture."""
    return squeeze_bounds(d, z, search=False).upper


def lower_bound(d, z):
    """The product lower bound at ``z``: the min of the factor values."""
    return squeeze_bounds(d, z, search=False).lower


def test_single_factor_values():
    assert factor_value(UnitDisk(), 0.7j) == 1.0
    assert factor_value(PuncturedDisk((0j,)), 0.5) == 0.5
    assert factor_value(BallFactor(2), (0j, 0j)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_single_factor_offcenter_puncture():
    # reduced-modulus oracle, written out independently
    p, z = 0.2, 0.5
    expected = abs((z - p) / (1 - p * z))
    assert factor_value(PuncturedDisk((p + 0j,)), z) == pytest.approx(expected, abs=1e-15)


def test_single_factor_annulus_branches():
    f = Annulus(0.25)
    assert factor_value(f, 0.4) == pytest.approx(0.625, abs=1e-15)
    assert factor_value(f, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert factor_value(f, 0.8) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(DomainError):
        factor_value(f, 0.1)


def test_single_factor_multi_puncture_unsupported():
    # least reduced modulus over the punctures, written out: |0.3| and
    # |0.3 - 0.5| / (1 - 0.5 * 0.3)
    want = min(0.3, 0.2 / 0.85)
    assert factor_value(PuncturedDisk((0j, 0.5 + 0j)), 0.3) == pytest.approx(want, abs=1e-15)


# -------------------------------------------------------------- exact catalog

def test_exact_punctured_product():
    z = PUNCT2.point([0.5, 0.3])
    rep = squeeze_bounds(PUNCT2, z, search=False)
    assert rep.exact == pytest.approx(0.3, abs=1e-15)
    assert rep.lower == rep.upper == rep.exact


def test_exact_mixed_product():
    z = MIXED.point([0.9, 0.4])
    assert exact_value(MIXED, z) == pytest.approx(0.4, abs=1e-15)


def test_exact_annulus_disk_branches():
    for x, want in ((0.4, 0.625), (0.5, 0.5), (0.8, 0.8)):
        z = ANNULUS_DISK.point([x, 0j])
        assert exact_value(ANNULUS_DISK, z) == pytest.approx(want, abs=1e-15)


def test_exact_annulus_branch_agreement_at_sqrt_r():
    r = 0.25
    s = math.sqrt(r)
    assert abs(r / s - s) <= 1e-12
    z = ANNULUS_DISK.point([s, 0j])
    assert exact_value(ANNULUS_DISK, z) == pytest.approx(s, abs=1e-12)


def test_exact_polydisk():
    d = ProductDomain((UnitDisk(), UnitDisk(), UnitDisk()))
    z = d.point([0.1, 0.9j, -0.5])
    rep = squeeze_bounds(d, z, search=False)
    assert rep.exact == 1.0 and rep.lower == 1.0 and rep.upper == 1.0


def test_exact_single_ball():
    d = ProductDomain((BallFactor(3),))
    z = d.point([(0.1, 0.2j, 0j)])
    assert exact_value(d, z) == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_exact_outside_catalog():
    # no exact value off the catalog, and the bracket still holds
    outside = [
        (ProductDomain((Annulus(0.2), Annulus(0.3))), [0.5, 0.6]),
        (ProductDomain((BallFactor(2), PuncturedDisk((0j,)))), [(0.1, 0j), 0.3]),
        (ProductDomain((Annulus(0.2), PuncturedDisk((0j,)))), [0.5, 0.5]),
    ]
    for d, coords in outside:
        rep = squeeze_bounds(d, d.point(coords), search=False)
        assert rep.exact is None
        assert rep.lower <= rep.upper


def test_exact_witness_achieves_value():
    z = PUNCT2.point([0.5, 0.3])
    rep = squeeze_bounds(PUNCT2, z, search=False)
    assert rep.witness is not None
    scored = product_inradius(rep.witness, PUNCT2, z, 4096)
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
        v0 = exact_value(base, base.point([z1, z2]))
        for _ in range(4):
            w1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            w2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            rot = ProductDomain((PuncturedDisk((w1 * p,)), PuncturedDisk((0j,))))
            v1 = exact_value(rot, rot.point([w1 * z1, w2 * z2]))
            assert abs(v0 - v1) <= 1e-12


# ----------------------------------------------------------- puncture upper

def test_upper_punctured_product():
    z = PUNCT2.point([0.5, 0.3])
    assert upper_bound(PUNCT2, z) == pytest.approx(0.3, abs=1e-12)


def test_upper_mixed_product():
    z = MIXED.point([0.9, 0.4])
    assert upper_bound(MIXED, z) == pytest.approx(0.4, abs=1e-12)


def test_upper_offcenter_single_factor():
    d = ProductDomain((PuncturedDisk((0.2 + 0j,)),))
    z = d.point([0.5])
    assert upper_bound(d, z) == pytest.approx(0.3 / 0.9, abs=1e-12)


def test_upper_inapplicable_without_punctures():
    # no puncture, no cap: upper is 1 and the report has no PunctureUpper tag
    d = ProductDomain((UnitDisk(), UnitDisk()))
    for d, z in ((d, d.point([0.1, 0.2])), (ANNULUS_DISK, ANNULUS_DISK.point([0.5, 0j]))):
        rep = squeeze_bounds(d, z, search=False)
        assert rep.upper == 1.0 and PUNCTURE_UPPER not in rep.methods


def test_upper_rejects_ball_factors():
    # a ball factor has no puncture, so balls and disks alone give no bound
    d = ProductDomain((BallFactor(2), UnitDisk()))
    rep = squeeze_bounds(d, d.point([(0.1, 0j), 0.5]), search=False)
    assert rep.upper == 1.0 and PUNCTURE_UPPER not in rep.methods


def test_upper_skips_ball_factors():
    # the filled-puncture bound is factorwise: the ball factor is skipped
    d = ProductDomain((BallFactor(2), PuncturedDisk((0j,))))
    z = d.point([(0.1, 0.2), 0.3])
    rep = squeeze_bounds(d, z)
    assert rep.upper == pytest.approx(0.3, abs=1e-12)
    assert rep.lower <= rep.upper
    assert PUNCTURE_UPPER in rep.methods


def test_upper_multi_puncture_subdomain():
    d = ProductDomain((PuncturedDisk((0j, 0.5 + 0j)),))
    z = d.point([0.1])
    # both punctures filled at once: the least pseudo-hyperbolic distance,
    # min(0.1, 0.4 / 0.95), to the puncture 0
    assert upper_bound(d, z) == pytest.approx(0.1, abs=1e-12)


def test_upper_pinches_exact_on_catalog():
    rng = np.random.default_rng(3)
    for _ in range(50):
        coords = rng.uniform(0.05, 0.95, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        z = PUNCT2.point(list(coords))
        exact = exact_value(PUNCT2, z)
        assert abs(upper_bound(PUNCT2, z) - exact) <= 1e-12


def test_reduced_modulus_is_the_mobius_double():
    # written out, the expression is mobius_eval's at rotation 0, bit for bit
    rng = np.random.default_rng(5)
    ps = rng.uniform(0.0, 0.95, 2000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000))
    zs = rng.uniform(0.0, 0.95, 2000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000))
    for p, z in zip(ps, zs):
        p, z = complex(p), complex(z)
        assert mobius_modulus(p, z) == abs(complex(mobius_eval(MobiusAut(p), z)))


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
    rep = squeeze_bounds(d, d.point(coords), search=search)
    assert rep.lower <= rep.exact <= rep.upper


# a puncture 2 ulps inside the unit circle: against it, |phi_p(z)| at a point
# a few ulps inside the circle rounds above 1 for about one angle in eight
EDGE_PUNCTURE = PuncturedDisk((0.9999999999999998 + 0j,))

CATALOG = {
    **BRACKET_DOMAINS,
    **{f"annulus{r}": ProductDomain((Annulus(r), UnitDisk())) for r in (0.04, 0.25, 0.64)},
    "ball": ProductDomain((BallFactor(2),)),
    "edge_puncture": ProductDomain((EDGE_PUNCTURE,)),
    "edge_puncture_x_punctured": ProductDomain((EDGE_PUNCTURE, PuncturedDisk((0j,)))),
}


def _ulps_from(x, toward, k):
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


def _near(f, data):
    """A coordinate of ``f`` anywhere, or 1-8 ulps off one of its circles or punctures."""
    if isinstance(f, BallFactor):
        return (0j,) * (f.n - 1) + (data.draw(st.floats(0.0, 0.95)),)
    k = data.draw(st.integers(1, 8))
    angle = data.draw(st.floats(0.0, 2 * math.pi))
    spots = ["anywhere", "outer"] + (["inner"] if isinstance(f, Annulus) else [])
    spots += list(getattr(f, "punctures", ()))
    spot = data.draw(st.sampled_from(spots))
    if spot == "anywhere":
        return cmath.rect(data.draw(st.floats(0.0, 0.95)), angle)
    if spot in ("outer", "inner"):
        x = _ulps_from(1.0, 0.0, k) if spot == "outer" else _ulps_from(f.r, 1.0, k)
        return complex(x * math.cos(angle), x * math.sin(angle))
    toward = data.draw(st.sampled_from((-math.inf, math.inf)))
    if data.draw(st.booleans()):
        return complex(_ulps_from(spot.real, toward, k), spot.imag)
    return complex(spot.real, _ulps_from(spot.imag, toward, k))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.data())
def test_catalog_bracket_and_search_need_no_tolerance(name, data):
    # a family score and its factor's value round apart by an ulp unless the
    # score is capped by the value: neither the search nor lower may exceed exact;
    # and a value that rounds above 1 is capped at 1, so upper never sits below it
    d = CATALOG[name]
    coords = [_near(f, data) for f in d.factors]
    assume(all(map(membership, d.factors, coords)))
    z = d.point(coords)
    rep = squeeze_bounds(d, z)
    assert 0 <= rep.lower <= rep.exact <= rep.upper <= 1
    closed = squeeze_bounds(d, z, search=False)
    assert 0 <= closed.lower <= closed.exact <= closed.upper <= 1
    assert closed.exact.hex() == rep.exact.hex()
    if d.is_planar():
        assert search_lower_bound(d, z).value <= rep.exact


def test_edge_puncture_bracket_needs_no_tolerance_on_a_sweep():
    # the hypothesis test above reaches these points in about half its runs;
    # this sweep reaches them every time: 1-8 ulps inside the circle at 256
    # angles, where |phi_p(z)| rounds above 1 at about one point in eight
    d = CATALOG["edge_puncture"]
    p = EDGE_PUNCTURE.punctures[0]
    above = 0
    for k in range(1, 9):
        x = _ulps_from(1.0, 0.0, k)
        for j in range(256):
            angle = 2 * math.pi * j / 256
            c = complex(x * math.cos(angle), x * math.sin(angle))
            if not membership(EDGE_PUNCTURE, c):
                continue
            above += mobius_modulus(p, c) > 1.0
            z = d.point([c])
            rep = squeeze_bounds(d, z)
            assert 0 <= rep.lower <= rep.exact <= rep.upper <= 1
            closed = squeeze_bounds(d, z, search=False)
            assert 0 <= closed.lower <= closed.exact <= closed.upper <= 1
    assert above > 0


def test_clearance_is_capped_by_the_value():
    # an ulp above the inner circle the reflected clearance r(1-x)/(x-r^2)
    # rounds an ulp above the closed form r/x, which it never exceeds exactly
    r, x = 0.025458837312664108, 0.02545883731266413
    assert annulus_clearance_bound(r, x) > factor_value(Annulus(r), x)
    d = ProductDomain((Annulus(r), UnitDisk()))
    for search in (False, True):
        rep = squeeze_bounds(d, d.point([x, 0j]), search=search)
        assert rep.lower == rep.exact == factor_value(Annulus(r), x)


LOWER_DOMAINS = {
    **{f"annulus{r}": ProductDomain((Annulus(r), UnitDisk())) for r in (0.04, 0.25, 0.64)},
    "punctured2": PUNCT2,
    "three_puncture": BRACKET_DOMAINS["three_puncture"],
    "edge_puncture_x_punctured": CATALOG["edge_puncture_x_punctured"],
    # outside the catalog: no exact value, and a puncture cap on the upper bound
    "annulus_x_punctured": ProductDomain((Annulus(0.25), PuncturedDisk((0j, 0.5 + 0j)))),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LOWER_DOMAINS)), st.data(), st.booleans())
def test_lower_is_the_product_of_the_values(name, data, search):
    # the clearance and every family score are capped by the min of the values,
    # so lower is the min of the one-factor values bit for bit, with the search
    # and without it
    d = LOWER_DOMAINS[name]
    coords = [_near(f, data) for f in d.factors]
    assume(all(map(membership, d.factors, coords)))
    z = d.point(coords)
    rep = squeeze_bounds(d, z, search=search)
    assert rep.lower.hex() == min(map(factor_value, d.factors, coords)).hex()


def test_values_that_round_above_1_are_capped_at_1():
    # the two expressions whose double can exceed 1 although the value is below 1:
    # |phi_p(z)| against a puncture 2 ulps inside the circle (1 - 5.2e-29), and
    # r/|z| by complex division at a subnormal point of an annulus (1 - 5.5e-17);
    # tests/test_cli.py checks both 50-digit values
    d = ProductDomain((EDGE_PUNCTURE,))
    z = d.point([complex(0.9995500337489874, 0.029995500202495657)])
    assert mobius_modulus(EDGE_PUNCTURE.punctures[0], z.coords[0]) > 1.0
    closed = squeeze_bounds(d, z, search=False)
    assert (closed.lower, closed.upper, closed.exact) == (1.0, 1.0, 1.0)
    rep = squeeze_bounds(d, z)
    assert (rep.lower, rep.upper, rep.exact) == (1.0, 1.0, 1.0)

    r, w = 2.2249780881291262e-308, complex(1.201560166855447e-308, 1.872640023624683e-308)
    assert abs(reflect(r, w)) > 1.0
    d = ProductDomain((Annulus(r),))
    z = d.point([w])
    assert factor_value(Annulus(r), w) == 1.0
    for search in (False, True):
        rep = squeeze_bounds(d, z, search=search)
        assert (rep.lower, rep.upper, rep.exact) == (1.0, 1.0, 1.0)


# ------------------------------------------------------------- product lower

def test_lower_examples():
    assert lower_bound(PUNCT2, PUNCT2.point([0.5, 0.3])) == pytest.approx(0.3, abs=1e-15)
    z = ANNULUS_DISK.point([0.4, 0j])
    assert lower_bound(ANNULUS_DISK, z) == pytest.approx(0.625, abs=1e-15)
    balls = ProductDomain((BallFactor(2), BallFactor(2)))
    zb = balls.point([(0j, 0j), (0.1, 0.2j)])
    assert lower_bound(balls, zb) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_lower_rejects_unsupported_factor():
    class Slab:  # a factor kind the library does not know
        pass

    d = ProductDomain((Slab(),))
    # the factor-kind table has no row for it, so no bound reads one
    for bound in (squeeze_bounds, search_lower_bound):
        with pytest.raises(UnsupportedGeometryError, match="unknown factor kind Slab"):
            bound(d, ProductPoint((0.3j,)))


def test_lower_multi_puncture_min_modulus():
    # the witness sending z to 0 certifies min_p |phi_z(p)| on a multi-puncture factor
    d = ProductDomain((PuncturedDisk((0j, 0.5 + 0j, -0.5j)), UnitDisk()))
    z = d.point([0.1 + 0.2j, 0.3])
    want = min(abs((p - z.coords[0]) / (1 - z.coords[0].conjugate() * p))
               for p in (0j, 0.5 + 0j, -0.5j))
    assert want == pytest.approx(math.sqrt(0.05), abs=1e-15)
    rep = squeeze_bounds(d, z, search=False)
    assert rep.lower == pytest.approx(want, abs=1e-15)
    assert PRODUCT_LOWER in rep.methods


def test_sandwich_on_punctured_products():
    rng = np.random.default_rng(11)
    for _ in range(50):
        coords = rng.uniform(0.05, 0.95, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        z = PUNCT2.point(list(coords))
        rep = squeeze_bounds(PUNCT2, z, search=False)
        assert rep.lower <= rep.exact <= rep.upper


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
    # the family value comes from the same witness, the automorphism at 0.1
    assert rep.lower == pytest.approx(search_lower_bound(d, d.point([0.1])).value, abs=1e-15)


def test_bounds_polydisk():
    d = ProductDomain((UnitDisk(), UnitDisk()))
    rep = squeeze_bounds(d, d.point([0.3, 0.4j]))
    assert (rep.lower, rep.upper, rep.exact) == (1.0, 1.0, 1.0)


def test_bounds_annulus_has_clearance_tag():
    rep = squeeze_bounds(ANNULUS_DISK, ANNULUS_DISK.point([0.7, 0.1]), search=False)
    assert CLEARANCE_LOWER in rep.methods and SEARCH not in rep.methods
    assert rep.lower == pytest.approx(0.7, abs=1e-15)
    assert rep.upper == 1.0


def test_bounds_compute_no_clearance(monkeypatch):
    # the clearance is capped by the value, so it cannot set lower; its tag stays
    from polysqueeze import squeezing

    def refuse(*args):
        raise AssertionError("annulus_clearance_bound called")

    monkeypatch.setattr(squeezing, "annulus_clearance_bound", refuse)
    for search in (False, True):
        rep = squeeze_bounds(ANNULUS_DISK, ANNULUS_DISK.point([0.4, 0.1]), search=search)
        assert CLEARANCE_LOWER in rep.methods and rep.lower == rep.exact == 0.625


def test_bounds_ball_mix_degrades_gracefully():
    d = ProductDomain((BallFactor(2), PuncturedDisk((0j,))))
    z = d.point([(0.1, 0j), 0.5])
    rep = squeeze_bounds(d, z)
    assert rep.lower == pytest.approx(0.5, abs=1e-15)  # product lower
    assert rep.upper == pytest.approx(0.5, abs=1e-12)  # puncture bound, ball skipped
    assert PUNCTURE_UPPER in rep.methods and SEARCH not in rep.methods


# one domain of each catalog kind, with a point of it
CATALOG_KINDS = {
    "polydisk": (ProductDomain((UnitDisk(), UnitDisk())), [0.3j, -0.5]),
    "punctured": (PUNCT2, [0.5, 0.3]),
    "mixed_at_zero": (MIXED, [0j, 0.4 + 0.1j]),
    "multi_puncture": (ProductDomain((PuncturedDisk((0j, 0.5 + 0j)), UnitDisk())), [0.2j, 0.7]),
    "annulus_disk": (ANNULUS_DISK, [0.4, 0.2j]),
    "ball": (ProductDomain((BallFactor(2),)), [(0.1, 0.2j)]),
}


@pytest.mark.parametrize("search", [False, True])
@pytest.mark.parametrize("name", CATALOG_KINDS)
def test_bounds_build_one_product_map_the_witness(monkeypatch, name, search):
    # a report carries one witness and builds only that map: the automorphism
    # witness on disk and punctured-disk products, with or without the search,
    # the family's best map elsewhere, and none where no family is scored
    d, coords = CATALOG_KINDS[name]
    plan, z = DomainPlan(d), d.point(coords)
    builds = []
    init = ProductMap.__init__

    def counted(self, components):
        builds.append(components)
        init(self, components)

    monkeypatch.setattr(ProductMap, "__init__", counted)
    rep = squeeze_bounds(plan, z, search=search)
    assert len(builds) == (0 if rep.witness is None else 1)
    if plan.witnessed:
        automorphisms = ProductMap(tuple(MapExpr((MobiusAut(c),)) for c in z.coords))
        assert rep.witness == automorphisms
    elif search and plan.planar:
        assert rep.witness == search_lower_bound(plan, z).witness
    else:
        assert rep.witness is None


def test_bound_report_validation():
    # 0 <= lower <= exact <= upper <= 1 exactly: no slack, and nothing is repaired
    out_of_order = [
        (0.7, 0.3, None),
        (0.1, 0.4, 0.9),
        (0.5, math.nextafter(0.5, 0.0), None),
        (0.5, math.nextafter(1.0, 2.0), None),
        (0.1, 0.4, math.nextafter(0.4, 1.0)),
        (0.1, 0.4, math.nextafter(0.1, 0.0)),
        (-5e-324, 0.4, None),
        (math.nan, 0.4, None),
    ]
    for lower, upper, exact in out_of_order:
        with pytest.raises(SqueezeError):
            BoundReport(lower, upper, exact)
    rep = BoundReport(0.0, 1.0, 1.0)
    assert (rep.lower, rep.upper, rep.exact) == (0.0, 1.0, 1.0)


# ---------------------------------------------------------------- ball value

@pytest.mark.parametrize("n", range(1, 9))
def test_ball_value_is_the_largest_polydisk_in_the_ball(n):
    # B^n is a complete Reinhardt domain, so cD^n lies in B^n exactly when the
    # torus point (c, ..., c) lies in the closed ball: the value of a single
    # ball at its origin is the radius 1/sqrt(n) of the largest such c, here
    # found by bisection on the membership test alone, not the kind table.
    f = BallFactor(n)
    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if membership(f, (mid,) * n) else (lo, mid)
    assert membership(f, (lo,) * n) and not membership(f, (hi,) * n)
    assert hi == math.nextafter(lo, 1.0)
    d = ProductDomain((f,))
    exact = squeeze_bounds(d, d.point([(0j,) * n]), search=False).exact
    # The bound, with rho = 1/sqrt(n), u = 2^-53 and g = n u / (1 - n u).
    # membership sums n rounded squares, so it reads n c^2 (1 + t), |t| <= g,
    # and rounding is monotone: c <= rho (1 - g/2) is inside, and
    # c >= rho (1 + g/2 + g^2), above rho / sqrt(1 - g), is outside.  So the
    # largest double inside is within rho (g/2 + g^2) + ulp(rho) of rho.  exact is
    # 1.0 / math.sqrt(n), two roundings: within rho 2u / (1 - u).  With
    # rho < ulp(rho) / u that is under n/2 + 3 + 1e-14 ulps, and a gap of two
    # doubles near rho is a multiple of ulp(rho) / 2, as n/2 + 3 is; exact
    # sits in rho's binade (1/sqrt(n) is a power of 2 or far from one).
    assert abs(exact - lo) <= (n / 2 + 3) * math.ulp(exact)


# ---------------------------------------------------------------- limit profile

# the clearance along a path toward a boundary circle, as `limit` writes it

def test_profile_values_dominate_clearances():
    bounds = [annulus_clearance_bound(0.25, x) for x in (0.9, 0.99, 0.999)]
    for bound, floor in zip(bounds, (0.8387, 0.9833, 0.99833)):
        assert bound >= floor


def test_profile_clearance_only_column():
    assert annulus_clearance_bound(0.25, 0.9) == pytest.approx(0.65 / 0.775, abs=1e-15)


def test_profile_inner_side_limit():
    bounds = [annulus_clearance_bound(0.25, x) for x in (0.26, 0.2501, 0.250001)]
    assert bounds[-1] >= 1 - 1e-4


def test_profile_rejects_bad_paths():
    # default_limit_path checks the path it builds; the clearance itself
    # refuses a modulus outside the annulus
    for x in (0.2, 0.25, 1.0):  # inside the hole, and on either circle
        with pytest.raises(DomainError):
            annulus_clearance_bound(0.25, x)


def test_default_limit_path_endpoints():
    path = default_limit_path(0.25, "outer", 256)
    assert len(path) == 256
    assert path[0] == 0.5 and path[-1] == 1 - 1e-4
    assert all(a < b for a, b in zip(path, path[1:]))
    inner = default_limit_path(0.25, "inner", 256)
    assert inner[-1] == 0.25 + 1e-4 * 0.75
    assert all(a > b for a, b in zip(inner, inner[1:]))
    assert default_limit_path(0.25, "outer", 1) == [1 - 1e-4]
    with pytest.raises(DomainError):
        default_limit_path(0.25, "sideways", 8)


# Each library log10 and pow is taken as accurate to LIBM_ULPS ulp; both the
# path and numpy.geomspace then run the same IEEE steps on their results.
LIBM_ULPS = 4


def _geomspace_relative_bound(start: float, end: float) -> float:
    """Bound on |d - d'| / d' for two roundings of one gap of the path.

    With M = max(|log10 start|, |log10 end|) >= |y| for every exponent
    y = k step + log10(start) and u = 2**-52 (so an ulp of x is at most u |x|),
    one implementation's y is off the exact value by at most, to first order:
    c u M for each log10 (c = LIBM_ULPS), so 2 c u M in hi - lo, whose size is
    at most M, plus u/2 M for that subtraction, u/2 M for the division by
    steps - 1 and u/2 M for k step (together (2 c + 1.5) u M), then c u M for
    log10(start) and u/2 M for the sum: (3 c + 2) u M.  10**y turns an
    absolute error in y into ln(10) times that relative error in the gap, and
    pow adds c u.  Two independent roundings differ by at most twice one; a
    second factor 2 covers the second-order terms, O(c**2 u**2 M**2).
    """
    c, u = LIBM_ULPS, 2.0 ** -52
    m = max(abs(math.log10(start)), abs(math.log10(end)))
    return 2.0 * 2.0 * (math.log(10.0) * (3 * c + 2) * u * m + c * u)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       side=st.sampled_from(["outer", "inner"]), steps=st.integers(2, 512))
def test_default_limit_path_tracks_geomspace(r, side, steps):
    try:
        path = default_limit_path(r, side, steps)
    except DomainError:
        return
    s = math.sqrt(r)
    if side == "outer":
        start, end = 1.0 - s, min(1e-4, 5.0 * 1e-4 * (1.0 - r))
        to_x, sign = (lambda delta: 1.0 - delta), 1
    else:
        start, end = s - r, min(1e-4 * (1.0 - r), 5.0 * 1e-4 * r * (1.0 - r))
        to_x, sign = (lambda delta: r + delta), -1
    assert len(path) == steps
    assert all(sign * (b - a) > 0 for a, b in zip(path, path[1:]))
    assert all(r < x < 1.0 for x in path)
    assert path[0] == (to_x(start) or s) and path[-1] == to_x(end)
    bound = _geomspace_relative_bound(start, end)
    for x, delta in zip(path[1:], np.geomspace(start, end, steps)[1:]):
        ref = to_x(float(delta))
        # each to_x rounds once, to half an ulp of its result
        assert abs(x - ref) <= bound * delta + math.ulp(max(x, ref)), (x, ref)


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


def test_catalog_class_truth_table():
    # (witnessed, annulus) of each domain, written out: True on disks and
    # punctured disks, False with the index on one annulus with disks and on
    # a single ball, None outside the catalog
    disk, punctured, ring = UnitDisk(), PuncturedDisk((0.5j,)), Annulus(0.25)
    table = [
        ((disk,), (True, None)),
        ((punctured,), (True, None)),
        ((disk, punctured), (True, None)),
        ((PuncturedDisk((0j, 0.3)), punctured, disk), (True, None)),
        ((ring,), (False, 0)),
        ((disk, ring), (False, 1)),
        ((ring, disk, disk), (False, 0)),
        ((ring, punctured), (None, None)),
        ((ring, Annulus(0.5)), (None, None)),
        ((BallFactor(1),), (False, None)),
        ((BallFactor(2),), (False, None)),
        ((BallFactor(2), disk), (None, None)),
        ((ring, BallFactor(1)), (None, None)),
        ((BallFactor(1), BallFactor(1)), (None, None)),
    ]
    for factors, expected in table:
        plan = DomainPlan(ProductDomain(factors))
        assert (plan.witnessed, plan.annulus) == expected, factors


# ------------------------------------------------------------ the domain plan

def test_plans_are_built_per_bounds_call_and_never_per_value(monkeypatch):
    # a bare domain gets one plan per squeeze_bounds or search call, a plan
    # passed in is read as it is, and the point, point-text and clearance
    # paths build none
    builds = []
    init = DomainPlan.__init__

    def counted(self, d):
        builds.append(d)
        init(self, d)

    monkeypatch.setattr(DomainPlan, "__init__", counted)
    z = ANNULUS_DISK.point([0.4, 0.2j])
    squeeze_bounds(ANNULUS_DISK, z)
    search_lower_bound(ANNULUS_DISK, z)
    assert builds == [ANNULUS_DISK] * 2
    plan = DomainPlan(ANNULUS_DISK)
    assert squeeze_bounds(plan, z) == squeeze_bounds(ANNULUS_DISK, z)
    assert search_lower_bound(plan, z, "reflection") == search_lower_bound(ANNULUS_DISK, z,
                                                                             "reflection")
    assert len(builds) == 5
    assert DomainPlan.of(plan) is plan
    ProductPoint.of(ANNULUS_DISK, [0.4, 0.2j])
    annulus_clearance_bound(0.25, 0.4)
    parse_point("0.4,0;0,0.2", ANNULUS_DISK)
    assert len(builds) == 5


def test_plan_holds_the_domain_facts():
    plan = DomainPlan(ProductDomain((Annulus(0.25), UnitDisk())))
    assert plan.methods == (CLOSED_FORM, PRODUCT_LOWER, CLEARANCE_LOWER)
    assert (plan.annulus, plan.punctured, plan.planar) == (0, (), True)
    assert plan.branches == {"auto": (("inclusion", "reflection"), ("inclusion",)),
                             "inclusion": (("inclusion",), ("inclusion",)),
                             "reflection": (("reflection",), ("inclusion",))}
    plan = DomainPlan(ProductDomain((BallFactor(2), PuncturedDisk((0j,)))))
    assert plan.methods == (PUNCTURE_UPPER, PRODUCT_LOWER)
    assert (plan.witnessed, plan.annulus, plan.punctured, plan.planar) == (
        None, None, (1,), False)
    assert "dim" not in DomainPlan.__slots__  # the domain's own dim is read
    with pytest.raises(UnsupportedGeometryError, match="unknown factor kind str"):
        DomainPlan(ProductDomain(("disk",)))


class Slab:
    """A factor kind the package does not know."""


SLAB_DOMAIN = ProductDomain((UnitDisk(), Slab()))
SLAB_POINT = ProductPoint((0.5 + 0j, 0.5 + 0j))
UNKNOWN_KIND = (UnsupportedGeometryError, "unknown factor kind Slab")


@pytest.mark.parametrize(("call", "raised"), [
    (lambda: membership(Slab(), 0.5), (DomainError, "unknown factor kind Slab")),
    (lambda: SLAB_DOMAIN.point([0.5, 0.5]), (DomainError, "unknown factor kind Slab")),
    (lambda: squeeze_bounds(SLAB_DOMAIN, SLAB_POINT), UNKNOWN_KIND),
    (lambda: search_lower_bound(SLAB_DOMAIN, SLAB_POINT), UNKNOWN_KIND),
    (lambda: DomainPlan(SLAB_DOMAIN), UNKNOWN_KIND),
], ids=["membership", "point", "squeeze_bounds", "search_lower_bound", "DomainPlan"])
def test_unknown_factor_kinds_fail_as_they_did(call, raised):
    cls, message = raised
    with pytest.raises(SqueezeError) as e:
        call()
    assert (type(e.value), str(e.value)) == (cls, message)


def test_unknown_factor_kind_has_no_punctures():
    assert hhr_flag(SLAB_DOMAIN) is False


def test_unknown_factor_kind_is_not_planar():
    # is_planar asks whether every factor gives boundary circles
    assert SLAB_DOMAIN.is_planar() is False


# ------------------------------------------- mpmath audit of the annulus value

U = mpmath.mpf(2) ** -53  # the unit roundoff of a double


@settings(max_examples=500, deadline=None)
@given(st.floats(5e-324, 1.0, exclude_max=True), st.floats(0.0, 1.0),
       st.floats(0.0, 2 * math.pi))
def test_annulus_value_is_within_3u_of_its_50_digit_value(r, s, angle):
    """max(x, r/x), x = abs(z) normal, is within a factor 1 +- 3u/(1-2u) of max(m, r/m).

    Here m is the exact modulus of the double z and u = 2^-53.  The argument,
    from the roundings alone: ``abs`` of a complex is libm's hypot, assumed
    faithful (within 1 ulp), so x = m(1 + e1) with |e1| <= 2u.  Where r/x
    is the larger term it is at least x >= 2^-1022, so it is normal and
    the division rounds it once: q = (r/m)(1 + e2)/(1 + e1) with |e2| <= u,
    a relative error of at most 3u/(1-2u).  ``max`` is exact, and if a and b
    move by relative errors of at most e, max(a, b) moves by at most e.
    (Where the exact r/x is subnormal it is below x, q rounds to at most
    2^-1022 <= x, and max returns x, within 2u.)  So the relative error is
    at most 3u/(1-2u), which is under 3 ulps of the value.  The points are
    log-uniform in modulus between r and 1, subnormal r included.
    """
    x0 = math.exp((1.0 - s) * math.log(r))
    z = complex(x0 * math.cos(angle), x0 * math.sin(angle))
    assume(r < abs(z) < 1.0 and abs(z) >= sys.float_info.min)
    value = factor_value(Annulus(r), z)
    with mpmath.workdps(50):
        m = mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2)
        exact = max(m, mpmath.mpf(r) / m)
        assert abs(mpmath.mpf(value) / exact - 1) <= 3 * U / (1 - 2 * U)


@settings(max_examples=500, deadline=None)
@given(st.integers(-2 ** 52, 2 ** 52), st.integers(-2 ** 52, 2 ** 52), st.floats(0.0, 1.0))
def test_subnormal_annulus_value_is_within_8u_of_its_50_digit_value(ka, kb, s):
    """min(1, abs(reflect(r, z))) at a subnormal |z| is within about 8u of r/m.

    z = (ka + kb i) 2^-1074 is exact, and r < |z| is subnormal too.
    ``reflect`` scales r and z by 2^600, exactly, and divides: CPython
    divides the float r, as r + 0i, by c + di with Smith's method.  Where
    |c| >= |d|: t = d/c, D = c + d t, re = r/D, im = -(r t)/D (the other
    case swaps c and d).  c and d t have one sign, so the sum D adds no
    cancellation: with the roundings of t, of d t and of the sum, D is within
    a factor (1 +- u)^3 of c + d^2/c.  So re, with its division, is within
    (1 +- u) / (1 -+ u)^3 of the exact quotient's real part, and im, with
    one more product, within (1 +- u)^3 / (1 -+ u)^3 of its imaginary part
    (a fused multiply-add only removes roundings).  The modulus of the two
    is within the wider factor, and the faithful hypot adds 1 +- 2u: in all
    (1 + 2u)(1 + u)^3 / (1 - u)^3, about 1 + 8u.  Capping at 1 only moves
    the value toward r/m, which is below 1: r and the faithful x = abs(z)
    are multiples of 2^-1074, and x is m rounded down or up to one, so
    r < x puts r below m.
    """
    z = complex(ka * 2.0 ** -1074, kb * 2.0 ** -1074)
    x = abs(z)
    assume(0.0 < x < sys.float_info.min)
    r = math.floor(s * (x / 2.0 ** -1074)) * 2.0 ** -1074
    assume(0.0 < r < x)
    value = factor_value(Annulus(r), z)
    with mpmath.workdps(50):
        m = mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2)
        exact = mpmath.mpf(r) / m
        hi = (1 + 2 * U) * (1 + U) ** 3 / (1 - U) ** 3
        lo = (1 - 2 * U) * (1 - U) ** 3 / (1 + U) ** 3
        assert exact * lo <= mpmath.mpf(value) <= exact * hi


# ------------------------------------------ mpmath audit of the punctured value

def _modulus_factors(kappa):
    """Least and greatest ratio of ``mobius_modulus`` to its exact value at this kappa.

    The argument is in :func:`test_reduced_modulus_is_within_its_argued_bound`.
    The greatest ratio is infinite where the denominator's error can reach
    its modulus (sqrt(2) g kappa >= 1, kappa about 3e15).
    """
    g = (1 + U) ** 2 - 1  # two roundings in a row
    e_b = mpmath.sqrt(2) * g * kappa  # the product conj(p) z
    e_n = U + (1 + U) * g / mpmath.sqrt(2)  # Smith's numerators
    lo = ((1 - U) / ((1 + U) * (1 + e_b))  # z - p over 1 - conj(p) z
          * (1 - e_n) * (1 - U) / ((1 + g / 2) * (1 + U))  # Smith's quotient
          * (1 - 2 * U))  # hypot
    if e_b >= 1:
        return lo, mpmath.inf
    hi = ((1 + U) / ((1 - U) * (1 - e_b))
          * (1 + e_n) * (1 + U) / ((1 - g / 2) * (1 - U))
          * (1 + 2 * U))
    return lo, hi


@st.composite
def _puncture_and_point(draw):
    """A puncture and a point: anywhere in the disk, a hop of 2^-1 to 2^-52
    from the puncture, or 2^-k inside the unit circle close to the
    puncture's direction, where kappa is large when the puncture is too."""
    near_circle = st.integers(1, 53).map(lambda k: 1.0 - 2.0 ** -k)
    modulus = st.one_of(st.just(0.0), st.floats(2.0 ** -30, 1.0, exclude_max=True), near_circle)
    angle = st.floats(0.0, 2 * math.pi)
    t = draw(angle)
    p = cmath.rect(draw(modulus), t)
    spot = draw(st.sampled_from(["anywhere", "puncture", "circle"]))
    if spot == "anywhere":
        z = cmath.rect(draw(modulus), draw(angle))
    elif spot == "puncture":
        z = p + cmath.rect(2.0 ** -draw(st.floats(1.0, 52.0)), draw(angle))
    else:
        turn = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** -draw(st.floats(0.0, 52.0))
        z = cmath.rect(draw(near_circle), t + turn)
    return p, z


@settings(max_examples=500, deadline=None)
@given(_puncture_and_point())
def test_reduced_modulus_is_within_its_argued_bound(case):
    """|(z - p) / (1 - conj(p) z)| in doubles is within a factor of m fixed by kappa.

    Here m is the exact value on the doubles p and z, B = 1 - conj(p) z,
    kappa = |p||z| / |B|, u = 2^-53 and g = (1 + u)^2 - 1.  The argument,
    from CPython's roundings alone (no step underflows: every part of p and
    z is 0 or at least 2^-60, so every nonzero intermediate is above
    2^-400; a fused multiply-add only removes roundings):
    - ``z - p`` rounds each part once, so its modulus is |z - p|(1 +- u).
    - ``conj(p) * z`` forms pr zr + pi zi and pr zi - pi zr, each from two
      rounded products and one rounded sum, so each part is off by at most
      g times the sum of its two terms' moduli.  Those sums have a
      Euclidean norm of at most sqrt(2)|p||z|.  ``1.0 -`` rounds the real
      part once and the imaginary part not at all.  The computed
      denominator's modulus is |B|(1 +- sqrt(2) g kappa)(1 +- u): this is
      the one term that grows near the unit circle, where B is small.
    - The quotient is Smith's: with b = c + di, |c| >= |d| (the other case
      swaps them), rho = d/c, it forms (ar + ai rho) and (ai - ar rho),
      divides each by c + d rho and rounds.  Each numerator part is off by
      u times itself plus (1 + u) g |a||rho|, and
      |a||rho| <= |n| / sqrt(2) for the exact numerator n, whose modulus is
      |a| sqrt(1 + rho^2); so |n| moves by 1 +- e_n with
      e_n = u + (1 + u) g / sqrt(2).  d rho = d^2/c has the sign of c and
      is at most half of c + d rho, so the denominator moves by
      1 +- g/2 and then 1 +- u.  Each quotient part rounds once: 1 +- u.
    - ``abs`` is libm's hypot, assumed faithful: 1 +- 2u.
    The product of these factors is :func:`_modulus_factors`: about
    1 +- (9.41 + 2.83 kappa)u.  The column's min over punctures and its cap
    at 1 keep the bound, since m < 1.  A probe of 100 000 points read at
    most 4.19u where kappa < 1, and 0.44 of the bound's own width anywhere.
    """
    p, z = case
    assume(abs(z) < 1.0 and z != p)
    assume(all(v == 0.0 or abs(v) >= 2.0 ** -60 for v in (p.real, p.imag, z.real, z.imag)))
    value = mobius_modulus(p, z)
    with mpmath.workdps(50):
        pm, zm = mpmath.mpc(p.real, p.imag), mpmath.mpc(z.real, z.imag)
        b = abs(1 - mpmath.conj(pm) * zm)
        lo, hi = _modulus_factors(abs(pm) * abs(zm) / b)
        assert lo <= mpmath.mpf(value) / (abs(zm - pm) / b) <= hi


@pytest.mark.xfail(strict=True, reason="1 - conj(p) z cancels next to the unit circle")
def test_modulus_next_to_the_circle_is_accurate():
    # p and z near one point of the unit circle, where kappa is about 1.2e11:
    # the expression reads 0.7263461284631797, 1.2e-5 relative off.  A form
    # without the cancellation (ROADMAP.md, accurate hyperbolic columns)
    # passes here, and then drops the marker.
    p = complex(-0.9920910605858686, 0.12552022742159916)
    z = complex(-0.9920910605916696, 0.12552022742122976)
    with mpmath.workdps(50):
        pm, zm = mpmath.mpc(p.real, p.imag), mpmath.mpc(z.real, z.imag)
        exact = abs(zm - pm) / abs(1 - mpmath.conj(pm) * zm)
        assert mpmath.nstr(exact, 17) == "0.72633729727322157"
        assert abs(mpmath.mpf(mobius_modulus(p, z)) / exact - 1) <= 1e-12


@settings(max_examples=500, deadline=None)
@given(st.floats(1.0, 40.0), st.floats(1.0, 45.0), st.floats(0.0, 2 * math.pi),
       st.floats(-math.pi / 2, math.pi / 2), st.floats(0.0, 0.99))
def test_family_meets_the_value_next_to_the_circle(k, j, t, turn, s):
    """The family meets the value on a punctured disk times a disk, even next to
    the unit circle, so the report may leave it unscored there.

    The puncture p lies 2^-k inside the unit circle and z_1 a hop of 2^-j
    from it, turned up to a right angle from the inward normal.  The last
    assertion carries the claim: the factor's score ``mobius_modulus(z_1, p)``
    and its value ``mobius_modulus(p, z_1)`` have numerators that are exact
    negatives and denominators that are exact conjugates, so only the
    division and ``abs`` round them apart: far inside the 1e-6 of the
    FamilyGap tag, however much the denominator cancels.  The report does not
    score the family on this product, so its missing tag holds by
    construction.
    """
    p = cmath.rect(1.0 - 2.0 ** -k, t)
    z1 = p - cmath.rect(2.0 ** -j, t + turn)
    assume(abs(z1) < 1.0 and z1 != p)
    plan = DomainPlan(ProductDomain((PuncturedDisk((p,)), UnitDisk())))
    z = plan.domain.point([z1, cmath.rect(s, t)])
    rep = squeeze_bounds(plan, z)
    assert FAMILY_GAP not in rep.methods
    assert search_lower_bound(plan, z).value >= rep.exact - 1e-6


# disk and punctured-disk products, one with three punctures; and two domains
# that score the family, annulus x disk in the catalog and one outside it
WITNESSED = dict(BRACKET_DOMAINS)
SCORED = {"annulus_disk": ANNULUS_DISK,
          "annulus_punctured": ProductDomain((Annulus(0.25), PuncturedDisk((0j,))))}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", [*WITNESSED, *SCORED])
def test_bounds_score_the_family_only_off_disk_and_punctured_products(monkeypatch, name, family):
    # on disk and punctured-disk products every family is the automorphism
    # witness, so the report builds that and adds only the Search tag
    from polysqueeze import squeezing

    calls = []
    scored = squeezing._family

    def counted(*args):
        calls.append(args)
        return scored(*args)

    monkeypatch.setattr(squeezing, "_family", counted)
    d = {**WITNESSED, **SCORED}[name]
    plan = DomainPlan(d)
    z = d.point([0.4 + 0.1j, 0.2j][:d.arity])
    rep = squeeze_bounds(plan, z, family=family)
    assert len(calls) == (0 if name in WITNESSED else 1)
    assert SEARCH in rep.methods
    if name in WITNESSED:
        assert rep.methods[-1] == SEARCH


WITNESSED_FACTORS = (UnitDisk(), PuncturedDisk((0j,)), PuncturedDisk((0.3 - 0.2j,)),
                     PuncturedDisk((0j, 0.5 + 0j, -0.5j)), EDGE_PUNCTURE)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(WITNESSED_FACTORS), min_size=1, max_size=3),
       st.sampled_from(FAMILIES), st.data())
def test_family_is_the_automorphism_witness_on_disk_and_punctured_products(fs, family, data):
    # why the report need not score the family there: its value is within
    # 1e-6 of lower, and its witness is the report's one, map for map, at a
    # coordinate 0 too
    d = ProductDomain(tuple(fs))
    coords = [_near(f, data) for f in d.factors]
    assume(all(map(membership, d.factors, coords)))
    plan, z = DomainPlan(d), d.point(coords)
    rep = squeeze_bounds(plan, z, family=family)
    sr = search_lower_bound(plan, z, family)
    assert sr.value >= rep.lower - 1e-6
    assert sr.witness == rep.witness == squeeze_bounds(plan, z, search=False).witness


@pytest.mark.parametrize("bound", [search_lower_bound, squeeze_bounds],
                         ids=lambda f: f.__name__)
def test_a_point_of_another_domain_is_refused(bound):
    # every bound reads the plan's values, which check the point's arity once
    one = ProductDomain((UnitDisk(),))
    three = ProductDomain((UnitDisk(), UnitDisk(), PuncturedDisk((0j,))))
    cases = [(MIXED, one.point([0.5]), 1, 2), (one, three.point([0.5, 0.1, 0.2]), 3, 1)]
    for d, z, n, m in cases:
        for domain_or_plan in (d, DomainPlan(d)):
            with pytest.raises(DomainError,
                               match=f"^point has {n} coordinates, domain has {m} factors$"):
                bound(domain_or_plan, z)
