import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysqueeze import (
    Annulus,
    DomainError,
    FamilySpec,
    MobiusAut,
    ProductDomain,
    ProductMap,
    PuncturedDisk,
    UnitDisk,
    build_factor_witness,
    exact_squeeze,
    image_inradius_analytic,
    image_inradius_at_zero,
    membership,
    product_inradius,
    search_lower_bound,
)
from polysqueeze.squeezing import _KINDS, _branch_image

PUNCT = ProductDomain((PuncturedDisk((0j,)),))
ANNULUS_DISK = ProductDomain((Annulus(0.25), UnitDisk()))


# ------------------------------------------------------------ witness builder

def test_witness_forced_normalization():
    e = build_factor_witness(PuncturedDisk((0j,)), 0.5, "inclusion", 0j)
    assert e.steps == (MobiusAut(0.5 + 0j),)


def test_witness_reflection_shape():
    e = build_factor_witness(Annulus(0.25), 0.5, "reflection", 0j)
    assert len(e.steps) == 2  # reflection then normalizer at r/z = 0.5
    assert e.steps[1] == MobiusAut(0.5 + 0j)


def test_witness_always_sends_base_to_zero():
    from polysqueeze import map_eval

    for a in (0j, 0.3 + 0j, 0.2 - 0.4j):
        e = build_factor_witness(PuncturedDisk((0.1 + 0j,)), 0.5j, "inclusion", a)
        assert abs(complex(map_eval(e, 0.5j))) <= 1e-12
        ea = build_factor_witness(Annulus(0.25), 0.4 + 0.2j, "reflection", a)
        assert abs(complex(map_eval(ea, 0.4 + 0.2j))) <= 1e-12


def test_witness_branch_validation():
    with pytest.raises(DomainError):
        build_factor_witness(UnitDisk(), 0.5, "reflection", 0j)
    with pytest.raises(DomainError):
        build_factor_witness(UnitDisk(), 0.5, "banana", 0j)


def test_rotational_reduction_soundness():
    # objective is independent of arg(a) on the circularly symmetric factors
    for f, branch, z in (
        (PuncturedDisk((0j,)), "inclusion", 0.5 + 0j),
        (Annulus(0.25), "inclusion", 0.45 + 0.1j),
        (Annulus(0.25), "reflection", 0.45 + 0.1j),
    ):
        vals = []
        for k in range(8):
            a = 0.37 * cmath.exp(2j * math.pi * k / 8)
            vals.append(image_inradius_at_zero(build_factor_witness(f, z, branch, a), f, 1024))
        assert max(vals) - min(vals) <= 1e-10


# --------------------------------------------------------------------- search

def test_search_punctured_disk_pinches():
    z = PUNCT.point([0.5])
    sr = search_lower_bound(PUNCT, z)
    assert sr.value == pytest.approx(0.5, abs=1e-9)
    assert sr.converged
    assert sr.evaluations > 0
    # forced witness is the single automorphism vanishing at the base point
    assert sr.witness.components[0].steps == (MobiusAut(0.5 + 0j),)


def test_search_annulus_gap_matches_analytic_branches():
    z = ANNULUS_DISK.point([0.5, 0j])
    x, r = 0.5, 0.25
    outer = (x - r) / (1 - r * x)            # analytic branch oracles
    reflected = r * (1 - x) / (x - r * r)
    incl = search_lower_bound(ANNULUS_DISK, z, FamilySpec.named(ANNULUS_DISK, "inclusion"))
    refl = search_lower_bound(ANNULUS_DISK, z, FamilySpec.named(ANNULUS_DISK, "reflection"))
    both = search_lower_bound(ANNULUS_DISK, z, FamilySpec.auto(ANNULUS_DISK))
    assert incl.value == pytest.approx(outer, abs=1e-6)
    assert refl.value == pytest.approx(reflected, abs=1e-6)
    assert both.value == pytest.approx(max(outer, reflected), abs=1e-6)
    assert both.value < exact_squeeze(ANNULUS_DISK, z).exact - 0.05


def test_search_polydisk_reaches_one():
    d = ProductDomain((UnitDisk(), UnitDisk()))
    z = d.point([0.3, -0.2j])
    assert search_lower_bound(d, z).value == pytest.approx(1.0, abs=1e-12)


def test_search_never_beats_exact():
    rng = np.random.default_rng(5)
    d = ProductDomain((PuncturedDisk((0j,)), PuncturedDisk((0j,))))
    for _ in range(10):
        coords = rng.uniform(0.1, 0.9, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        z = d.point(list(coords))
        sr = search_lower_bound(d, z)
        exact = exact_squeeze(d, z).exact
        assert sr.value <= exact + 1e-6
        assert sr.value >= exact - 1e-6  # family suffices on punctured products


def test_search_deterministic_bitwise():
    z = ANNULUS_DISK.point([0.6, 0.2j])
    a = search_lower_bound(ANNULUS_DISK, z)
    b = search_lower_bound(ANNULUS_DISK, z)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_search_rejects_ball_factors():
    from polysqueeze import BallFactor

    d = ProductDomain((BallFactor(2),))
    with pytest.raises(DomainError):
        search_lower_bound(d, d.point([(0j, 0j)]))


def test_family_spec_validation():
    assert FamilySpec.auto(ANNULUS_DISK).branches == (("inclusion", "reflection"), ("inclusion",))
    assert FamilySpec.named(ANNULUS_DISK, "reflection").branches == (("reflection",), ("inclusion",))
    with pytest.raises(DomainError):
        FamilySpec.named(ANNULUS_DISK, "bogus")
    with pytest.raises(DomainError):
        search_lower_bound(PUNCT, PUNCT.point([0.5]), FamilySpec(((), ())))


def test_search_scores_each_branch_once():
    z = ANNULUS_DISK.point([0.6, 0.2j])
    sr = search_lower_bound(ANNULUS_DISK, z)
    assert sr.evaluations == 3  # two annulus branches, one disk branch
    assert sr.converged


def test_search_tie_keeps_earlier_branch():
    # at |z| = sqrt(r) both annulus branches score the same
    z = ANNULUS_DISK.point([0.5, 0j])
    sr = search_lower_bound(ANNULUS_DISK, z)
    assert sr.witness.components[0].steps == (MobiusAut(0.5 + 0j),)


def test_witness_sampled_matches_analytic():
    # the sampled oracle may overshoot the analytic inradius, never undershoot it
    rng = np.random.default_rng(11)
    cases = [(PuncturedDisk((0j, 0.5 + 0j, -0.5j)), 0.1 + 0.2j, "inclusion")]
    for r in (0.04, 0.25, 0.64):
        moduli = rng.uniform(r + 0.02 * (1 - r), 1 - 0.02 * (1 - r), 4)
        for zc in moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)):
            cases += [(Annulus(r), complex(zc), b) for b in ("inclusion", "reflection")]
    for f, zc, branch in cases:
        d = ProductDomain((f,))
        e = build_factor_witness(f, zc, branch, 0j)
        analytic = image_inradius_analytic(e, f)
        sampled = product_inradius(ProductMap((e,)), d, d.point([zc]), 65536)
        assert abs(sampled - analytic) <= 1e-4
        assert sampled >= analytic - 1e-12


SCORED_FACTORS = [UnitDisk(), PuncturedDisk((0j,)), PuncturedDisk((0.3 - 0.2j,)),
                  PuncturedDisk((0j, 0.5 + 0j, -0.5j)), Annulus(0.04), Annulus(0.25), Annulus(0.64)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SCORED_FACTORS), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi),
       st.sampled_from(["inclusion", "reflection"]))
def test_table_score_is_the_analytic_inradius(f, modulus, angle, branch):
    # the generic closed-form inradius of the built witness is the reference
    # for the table's score column, bit for bit, zero coordinates included
    z = cmath.rect(modulus, angle) if modulus else 0j
    assume(membership(f, z) and (branch == "inclusion" or isinstance(f, Annulus)))
    score = _KINDS[type(f)].score(f, _branch_image(f, z, branch))
    assert score == image_inradius_analytic(build_factor_witness(f, z, branch, 0j), f)
