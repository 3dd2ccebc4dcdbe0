import cmath
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysqueeze import (
    Annulus,
    DomainError,
    Inclusion,
    MapExpr,
    MobiusAut,
    ProductDomain,
    ProductMap,
    PuncturedDisk,
    Reflection,
    UnitDisk,
    boundary_samples,
    image_inradius_analytic,
    image_inradius_at_zero,
    injectivity_spot_check,
    map_eval,
    mobius_circle_min_modulus,
    mobius_eval,
    product_inradius,
    removable_extension_at,
    single_factor_exact,
)
from polysqueeze.domains import _unit_circle, punctures
from polysqueeze.embeddings import _SAMPLE_BLOCK, _all_distinct, _sampled_circle_min
from polysqueeze.search import INCLUSION, REFLECTION, build_factor_witness


def mexpr(*steps):
    return MapExpr(tuple(steps))


# ------------------------------------------------------------------- map_eval

def test_map_eval_inclusion():
    assert map_eval(mexpr(Inclusion()), 0.3) == 0.3


def test_map_eval_reflection_fixed_circle():
    # |zeta| = sqrt(r) is fixed; the real point sqrt(r) itself is a fixed point
    assert map_eval(mexpr(Reflection(0.25)), 0.5) == 0.5


def test_map_eval_composition_left_to_right():
    # 0.5 -> 0.25/0.5 = 0.5 -> Mobius vanishing at 0.5 -> 0
    e = mexpr(Reflection(0.25), MobiusAut(0.5))
    assert map_eval(e, 0.5) == 0


def test_map_eval_reflection_pole():
    with pytest.raises(DomainError):
        map_eval(mexpr(Reflection(0.25)), 0)


def test_map_eval_vectorized_matches_scalar():
    e = mexpr(Reflection(0.25), MobiusAut(0.2 + 0.1j, 0.7))
    zs = 0.5 * np.exp(2j * np.pi * np.arange(7) / 7)
    vec = map_eval(e, zs)
    assert np.allclose(vec, [map_eval(e, complex(z)) for z in zs], atol=1e-15)


def test_scalar_and_array_dispatch_bitwise():
    # mobius_eval and map_eval pick the scalar or array arithmetic by the
    # input's type.  The three input kinds round differently in the last bit,
    # so each must match the expression evaluated in its own type.
    rng = np.random.default_rng(11)
    zs = 0.9 * rng.uniform(0.3, 1, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    for a, theta in ((0.3 - 0.4j, 0.0), (-0.6j, 2.1), (0.45 + 0.2j, -0.8)):
        m = MobiusAut(a, theta)
        e = mexpr(Reflection(0.25), m)
        phase = complex(math.cos(theta), math.sin(theta))

        def mobius(w):
            w = (w - a) / (1.0 - a.conjugate() * w)
            return phase * w if theta != 0.0 else w

        assert np.array_equal(mobius_eval(m, zs), mobius(zs))
        assert np.array_equal(map_eval(e, zs), mobius(0.25 / zs))
        for z in zs:
            for kind in (complex, np.complex128):
                zk = kind(z)
                got, want = mobius_eval(m, zk), mobius(zk)
                assert type(got) is kind and got == want
                got, want = map_eval(e, zk), mobius(0.25 / zk)
                assert type(got) is kind and got == want
    for zero in (0j, 0.0, np.complex128(0)):
        with pytest.raises(DomainError):
            map_eval(mexpr(Reflection(0.25)), zero)


def test_map_expr_validation():
    with pytest.raises(DomainError):
        MapExpr(())
    with pytest.raises(DomainError):
        Reflection(1.5)


# -------------------------------------------------------- removable extension

def test_extension_mobius():
    assert removable_extension_at(mexpr(MobiusAut(0.3)), 0j) == pytest.approx(-0.3, abs=1e-15)


def test_extension_inclusion():
    assert removable_extension_at(mexpr(Inclusion()), 0j) == 0


def test_extension_reflection_pole():
    with pytest.raises(DomainError):
        removable_extension_at(mexpr(Reflection(0.25)), 0j)


# ------------------------------------------------------------- image inradius

def test_inradius_punctured_disk_mobius():
    f = PuncturedDisk((0j,))
    e = mexpr(MobiusAut(0.3))
    for m in (8, 64, 4096):
        assert image_inradius_at_zero(e, f, m) == pytest.approx(0.3, abs=1e-12)
    # matches the closed-form single-factor value at z = 0.3
    assert single_factor_exact(f, 0.3) == pytest.approx(0.3, abs=1e-15)


def brute_circle_min(a: complex, r: float, m: int) -> float:
    zs = r * np.exp(2j * np.pi * np.arange(m) / m)
    return float(np.abs((zs - a) / (1 - np.conj(a) * zs)).min())


def test_inradius_annulus_mobius():
    f = Annulus(0.25)
    e = mexpr(MobiusAut(0.5))
    got = image_inradius_at_zero(e, f, 65536)
    assert got == pytest.approx(0.25 / 0.875, abs=1e-7)
    assert got == pytest.approx(brute_circle_min(0.5, 0.25, 65536), abs=1e-12)
    assert got == pytest.approx(mobius_circle_min_modulus(0.5, 0.25), abs=1e-7)


def test_inradius_identity_on_disk():
    assert image_inradius_at_zero(mexpr(Inclusion()), UnitDisk(), 64) == pytest.approx(1.0, abs=1e-12)


def test_inradius_sample_count_validation():
    with pytest.raises(DomainError):
        image_inradius_at_zero(mexpr(Inclusion()), UnitDisk(), 4)


def test_inradius_monotone_under_sample_doubling():
    # doubling keeps the old angles, so the min can only go down
    f = Annulus(0.3)
    e = mexpr(Reflection(0.3), MobiusAut(0.41 + 0.2j))
    vals = [image_inradius_at_zero(e, f, m) for m in (64, 128, 256, 512)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_inradius_capped_by_puncture_images():
    f = PuncturedDisk((0.1 + 0.2j, -0.4j))
    for a in (0.0, 0.3, 0.5 + 0.1j):
        e = mexpr(MobiusAut(a))
        cap = min(abs(removable_extension_at(e, p)) for p in f.punctures)
        assert image_inradius_at_zero(e, f, 512) <= cap + 1e-15


@given(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
def test_inradius_mobius_only_on_disk_is_one(amod, ang, theta):
    e = mexpr(MobiusAut(amod * cmath.exp(1j * ang), theta))
    assert image_inradius_at_zero(e, UnitDisk(), 256) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ blocked sampling

# Witnesses of each factor kind on each branch that applies to it (the
# reflection branch exists on annulus factors only), with and without an
# extra automorphism before the normalizer.
BLOCK_CASES = {
    "disk-inclusion": (UnitDisk(), 0.3 - 0.4j, INCLUSION, 0j),
    "disk-inclusion-mobius": (UnitDisk(), 0.3 - 0.4j, INCLUSION, 0.2 + 0.1j),
    "punctured-inclusion": (PuncturedDisk((0j, 0.5 + 0j, -0.5j)), 0.1 + 0.2j, INCLUSION, 0j),
    "punctured-inclusion-mobius": (PuncturedDisk((0.3 - 0.2j,)), -0.4 + 0.1j, INCLUSION, -0.6j),
    "annulus-inclusion": (Annulus(0.25), 0.7 + 0.1j, INCLUSION, 0j),
    "annulus-reflection": (Annulus(0.25), 0.3 - 0.1j, REFLECTION, 0j),
    "annulus-reflection-mobius": (Annulus(0.64), -0.85j, REFLECTION, 0.5),
}
BLOCK_SIZES = (8, 4096, 16384, 16385, 65536, 100000)
NUDGE = 4.0 * np.finfo(float).eps  # radial offset of the samples off the open set


def whole_array_inradius(e, f, m):
    """The sampled inradius as one array over every boundary sample."""
    best = float(np.abs(map_eval(e, boundary_samples(f, m))).min())
    for p in punctures(f):
        best = min(best, abs(removable_extension_at(e, p)))
    return best


@pytest.mark.parametrize("m", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_sampling_bitwise_equals_whole_array(case, m):
    f, z, branch, a = BLOCK_CASES[case]
    e = build_factor_witness(f, z, branch, a)
    samples = boundary_samples(f, m)
    # each circle on its own, then the whole inradius with its punctures
    radii = (1.0 + NUDGE, (1.0 - NUDGE) * f.r) if isinstance(f, Annulus) else (1.0 + NUDGE,)
    for k, rho in enumerate(radii):
        whole = float(np.abs(map_eval(e, samples[k * m:(k + 1) * m])).min())
        assert _sampled_circle_min(partial(map_eval, e), rho, m) == whole
    assert image_inradius_at_zero(e, f, m) == whole_array_inradius(e, f, m)


def test_blocked_sampling_propagates_nan():
    # one NaN, in the third block of four: numpy's min over the block minima
    # keeps it, as .min() over the whole array does
    m = 4 * _SAMPLE_BLOCK
    nan_at = 2 * _SAMPLE_BLOCK + 5
    point = _unit_circle(m)[nan_at]

    def fn(w):
        return np.where(w == point, np.nan, w)

    assert math.isnan(float(np.abs(fn(_unit_circle(m))).min()))
    assert math.isnan(_sampled_circle_min(fn, 1.0, m))


def test_blocked_sampling_memory_stays_within_blocks():
    # 2**20 points a circle: every whole-circle temporary would be 8-16 MB
    m = 2 ** 20
    f = Annulus(0.25)
    e = build_factor_witness(f, 0.3 - 0.1j, REFLECTION, 0j)
    _unit_circle(m)  # the cached circle is shared, so it is not counted
    tracemalloc.start()
    try:
        image_inradius_at_zero(e, f, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _unit_circle.cache_clear()
    assert peak <= 2 * 2 ** 20, f"peak {peak} bytes above the cached circle"


# ------------------------------------------------------------- analytic oracle

def test_analytic_matches_sampled():
    cases = [
        (mexpr(MobiusAut(0.5)), Annulus(0.25)),
        (mexpr(Reflection(0.25), MobiusAut(0.5)), Annulus(0.25)),
        (mexpr(MobiusAut(0.3 + 0.2j), MobiusAut(-0.1j, 1.2)), PuncturedDisk((0.2 + 0j,))),
        (mexpr(Inclusion()), UnitDisk()),
        (mexpr(MobiusAut(0.7j)), UnitDisk()),
    ]
    for e, f in cases:
        analytic = image_inradius_analytic(e, f)
        assert analytic is not None
        assert analytic == pytest.approx(image_inradius_at_zero(e, f, 65536), abs=1e-4)


def test_analytic_rejects_mobius_before_reflection():
    e = mexpr(MobiusAut(0.2), Reflection(0.25))
    assert image_inradius_analytic(e, Annulus(0.25)) is None


def test_witness_never_beats_closed_form():
    # no family witness exceeds the proven squeezing value of its factor
    f = PuncturedDisk((0j,))
    z = 0.5
    for a in np.linspace(0.0, 0.9, 10):
        e = build_factor_witness(f, z, "inclusion", complex(a))
        assert image_inradius_at_zero(e, f, 2048) <= single_factor_exact(f, z) + 1e-6
    fa = Annulus(0.25)
    for branch in ("inclusion", "reflection"):
        for a in np.linspace(0.0, 0.9, 10):
            e = build_factor_witness(fa, 0.5, branch, complex(a))
            assert image_inradius_at_zero(e, fa, 2048) <= single_factor_exact(fa, 0.5) + 1e-6


# ------------------------------------------------------------ product inradius

def test_product_inradius_punctured_pair():
    d = ProductDomain((PuncturedDisk((0j,)), PuncturedDisk((0j,))))
    z = d.point([0.5, 0.3])
    pm = ProductMap((mexpr(MobiusAut(0.5)), mexpr(MobiusAut(0.3))))
    assert product_inradius(pm, d, z, 4096) == pytest.approx(0.3, abs=1e-12)


def test_product_inradius_mixed_pair():
    d = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
    z = d.point([0.2, 0.6])
    pm = ProductMap((mexpr(MobiusAut(0.2)), mexpr(MobiusAut(0.6))))
    assert product_inradius(pm, d, z, 4096) == pytest.approx(0.6, abs=1e-12)


def test_product_inradius_single_factor_reduces():
    d = ProductDomain((PuncturedDisk((0j,)),))
    z = d.point([0.4])
    pm = ProductMap((mexpr(MobiusAut(0.4)),))
    assert product_inradius(pm, d, z, 512) == image_inradius_at_zero(
        mexpr(MobiusAut(0.4)), d.factors[0], 512
    )


def test_product_inradius_base_point_violation():
    d = ProductDomain((UnitDisk(),))
    z = d.point([0.2])
    pm = ProductMap((mexpr(MobiusAut(0.5)),))  # sends 0.5, not 0.2, to 0
    with pytest.raises(DomainError):
        product_inradius(pm, d, z, 512)


def test_product_inradius_arity_mismatch():
    d = ProductDomain((UnitDisk(), UnitDisk()))
    z = d.point([0.2, 0.1])
    with pytest.raises(DomainError):
        product_inradius(ProductMap((mexpr(MobiusAut(0.2)),)), d, z, 512)


# ------------------------------------------------------------------ injectivity

def test_injectivity_catalog_maps():
    assert injectivity_spot_check(mexpr(Inclusion()), UnitDisk())
    assert injectivity_spot_check(mexpr(MobiusAut(0.3 + 0.1j)), Annulus(0.25))
    assert injectivity_spot_check(mexpr(Reflection(0.25), MobiusAut(0.5)), Annulus(0.25))


def test_duplicate_detection():
    # catalog primitives are injective, so exercise the detector directly
    assert not _all_distinct(np.array([0.1 + 0j, 0.1 + 0j, 0.5j]), 1e-14)
    assert _all_distinct(np.array([0.1 + 0j, 0.2 + 0j, 0.5j]), 1e-14)
