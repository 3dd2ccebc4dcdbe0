import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysqueeze import (
    Annulus,
    BallFactor,
    DomainError,
    MobiusAut,
    ProductDomain,
    ProductMap,
    PuncturedDisk,
    Reflection,
    UnitDisk,
    search_lower_bound,
    squeeze_bounds,
)
from polysqueeze.domains import membership
from polysqueeze.embeddings import map_eval
from polysqueeze.squeezing import FAMILIES, DomainPlan, _branch_image, _score, _witness
from polysqueeze.verify import image_inradius_analytic, product_inradius

PUNCT = ProductDomain((PuncturedDisk((0j,)),))
ANNULUS_DISK = ProductDomain((Annulus(0.25), UnitDisk()))


# ------------------------------------------------------------ witness builder

def factor_witness(f, z, branch):
    """The witness the search builds for the one-factor domain of ``f`` under ``branch``."""
    d = ProductDomain((f,))
    return search_lower_bound(d, d.point([z]), branch).witness.components[0]


def test_witness_forced_normalization():
    e = factor_witness(PuncturedDisk((0j,)), 0.5, "inclusion")
    assert e.steps == (MobiusAut(0.5 + 0j),)


def test_witness_reflection_shape():
    e = factor_witness(Annulus(0.25), 0.5, "reflection")
    assert len(e.steps) == 2  # reflection then normalizer at r/z = 0.5
    assert e.steps[1] == MobiusAut(0.5 + 0j)


# --------------------------------------------------------------------- search

def test_search_punctured_disk_pinches():
    z = PUNCT.point([0.5])
    sr = search_lower_bound(PUNCT, z)
    assert sr.value == pytest.approx(0.5, abs=1e-9)
    assert sr.evaluations > 0
    # forced witness is the single automorphism vanishing at the base point
    assert sr.witness.components[0].steps == (MobiusAut(0.5 + 0j),)


def test_search_annulus_gap_matches_analytic_branches():
    z = ANNULUS_DISK.point([0.5, 0j])
    x, r = 0.5, 0.25
    outer = (x - r) / (1 - r * x)            # analytic branch oracles
    reflected = r * (1 - x) / (x - r * r)
    incl = search_lower_bound(ANNULUS_DISK, z, "inclusion")
    refl = search_lower_bound(ANNULUS_DISK, z, "reflection")
    both = search_lower_bound(ANNULUS_DISK, z, "auto")
    assert incl.value == pytest.approx(outer, abs=1e-6)
    assert refl.value == pytest.approx(reflected, abs=1e-6)
    assert both.value == pytest.approx(max(outer, reflected), abs=1e-6)
    assert both.value < squeeze_bounds(ANNULUS_DISK, z, search=False).exact - 0.05


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
        exact = squeeze_bounds(d, z, search=False).exact
        assert sr.value <= exact + 1e-6
        assert sr.value >= exact - 1e-6  # family suffices on punctured products


def test_search_deterministic_bitwise():
    z = ANNULUS_DISK.point([0.6, 0.2j])
    a = search_lower_bound(ANNULUS_DISK, z)
    b = search_lower_bound(ANNULUS_DISK, z)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_search_rejects_ball_factors():
    d = ProductDomain((BallFactor(2),))
    with pytest.raises(DomainError):
        search_lower_bound(d, d.point([(0j, 0j)]))


# ------------------------------------------------------------- family names

def test_family_auto_is_the_table_column():
    # auto scores every branch of each row: both annulus branches, the disk's one
    z = ANNULUS_DISK.point([0.6, 0.2j])
    sr = search_lower_bound(ANNULUS_DISK, z, "auto")
    assert DomainPlan(ANNULUS_DISK).branches["auto"] == (
        ("inclusion", "reflection"), ("inclusion",))
    assert sr.evaluations == 3
    assert sr == search_lower_bound(ANNULUS_DISK, z)
    for name in ("inclusion", "reflection"):
        assert sr.value >= search_lower_bound(ANNULUS_DISK, z, name).value
    assert squeeze_bounds(ANNULUS_DISK, z, family="auto") == squeeze_bounds(ANNULUS_DISK, z)


def test_family_reflection_falls_back_to_inclusion_off_the_annulus():
    z = ANNULUS_DISK.point([0.3, 0.2j])
    sr = search_lower_bound(ANNULUS_DISK, z, "reflection")
    assert sr.evaluations == 2  # one branch a factor
    annulus_map, disk_map = sr.witness.components
    assert annulus_map.steps[0].r == 0.25  # the annulus takes the reflection
    assert disk_map.steps == (MobiusAut(0.2j),)  # the disk keeps inclusion
    punct = search_lower_bound(PUNCT, PUNCT.point([0.5]), "reflection")
    assert punct == search_lower_bound(PUNCT, PUNCT.point([0.5]), "inclusion")


def test_family_unknown_name_raises():
    z = ANNULUS_DISK.point([0.6, 0.2j])
    for call in (lambda: search_lower_bound(ANNULUS_DISK, z, "bogus"),
                 lambda: squeeze_bounds(ANNULUS_DISK, z, family="bogus"),
                 lambda: squeeze_bounds(ANNULUS_DISK, z, search=False, family="bogus")):
        with pytest.raises(DomainError, match="unknown family name 'bogus'"):
            call()


def test_branch_whose_image_rounds_onto_the_circle_is_skipped():
    # at r = 0.04 this point is a few ulps outside the inner circle, and r/z
    # rounds to modulus 1, where no automorphism of the disk vanishes
    f = Annulus(0.04)
    z = complex(0.03870707637815848, -0.010087727110474709)
    assert _branch_image(f, z, "reflection") is None
    d = ProductDomain((f, UnitDisk()))
    for family in ("auto", "reflection"):
        sr = search_lower_bound(d, d.point([z, 0j]), family)
        assert sr.evaluations == 2  # inclusion alone on the annulus, and the disk
        assert sr.witness.components[0].steps == (MobiusAut(z),)


def test_search_scores_each_branch_once():
    z = ANNULUS_DISK.point([0.6, 0.2j])
    sr = search_lower_bound(ANNULUS_DISK, z)
    assert sr.evaluations == 3  # two annulus branches, one disk branch


def test_search_images_each_branch_once(monkeypatch):
    # one pass a factor: each branch image is computed once, and the witness is
    # built from the best image, as the family of that branch alone builds it
    from polysqueeze import squeezing

    images = []

    def counted(f, z, branch):
        images.append(branch)
        return _branch_image(f, z, branch)

    # reflection wins, inclusion wins, a tie (the earlier branch)
    cases = [(c, search_lower_bound(ANNULUS_DISK, ANNULUS_DISK.point([c, 0.2j]),
                                    branch).witness.components)
             for c, branch in ((0.3, "reflection"), (0.6, "inclusion"), (0.5, "inclusion"))]
    monkeypatch.setattr(squeezing, "_branch_image", counted)
    for c, witnesses in cases:
        images.clear()
        sr = search_lower_bound(ANNULUS_DISK, ANNULUS_DISK.point([c, 0.2j]))
        assert images == ["inclusion", "reflection", "inclusion"] and sr.evaluations == 3
        assert sr.witness.components == witnesses


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
        e = factor_witness(f, zc, branch)
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
    # for the one score formula, bit for bit, zero coordinates included
    z = cmath.rect(modulus, angle) if modulus else 0j
    assume(membership(f, z) and (branch == "inclusion" or isinstance(f, Annulus)))
    w = _branch_image(f, z, branch)
    assume(w is not None)  # no witness where the image rounds onto the unit circle
    score = _score(f, w)
    assert score == image_inradius_analytic(_witness(f, branch, w), f)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SCORED_FACTORS), min_size=1, max_size=3), st.data())
def test_every_witness_component_is_one_form(fs, data):
    # mobius(w) or reflect(r)|mobius(w), phi_0 at a coordinate 0 included, in
    # every report and under every family, each sending its coordinate to 0 exactly
    coords = []
    for f in fs:
        if len(f.radii) == 1 and data.draw(st.booleans()):
            coords.append(0j)
        else:
            coords.append(cmath.rect(data.draw(st.floats(0.0, 1.0)),
                                     data.draw(st.floats(0.0, 2 * math.pi))))
    assume(all(map(membership, fs, coords)))
    d = ProductDomain(tuple(fs))
    plan, z = DomainPlan(d), d.point(coords)
    maps = [squeeze_bounds(plan, z, search=False).witness] if plan.witnessed else []
    for family in FAMILIES:
        maps += [squeeze_bounds(plan, z, family=family).witness,
                 search_lower_bound(plan, z, family).witness]
    for pm in maps:
        for f, e, c in zip(fs, pm.components, z.coords, strict=True):
            *head, last = e.steps
            assert isinstance(last, MobiusAut) and (head == [] or head == [Reflection(f.r)])
            assert map_eval(e, c) == 0j
