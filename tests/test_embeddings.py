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
    MapExpr,
    MobiusAut,
    ProductDomain,
    ProductMap,
    PuncturedDisk,
    Reflection,
    UnitDisk,
    exact_squeeze,
    search_lower_bound,
)
from polysqueeze.embeddings import map_eval, mobius_circle_min_modulus, mobius_eval, reflect
from polysqueeze.squeezing import INCLUSION, REFLECTION
from polysqueeze.verify import (
    _SAMPLE_BLOCK,
    _array_eval,
    _sample_radii,
    _sampled_circle_min,
    _squared_moduli,
    _unit_circle,
    image_inradius_analytic,
    image_inradius_at_zero,
    product_inradius,
)


def mexpr(*steps):
    return MapExpr(tuple(steps))


def one_factor(f, z):
    """The one-factor domain of ``f`` and its point ``z``."""
    d = ProductDomain((f,))
    return d, d.point([z])


def factor_witness(f, z, branch):
    """The witness the search builds for ``f`` at ``z`` under the family ``branch``."""
    return search_lower_bound(*one_factor(f, z), branch).witness.components[0]


def factor_value(f, z):
    """The closed form of ``f`` at ``z``: the catalog value of its one-factor domain."""
    return exact_squeeze(*one_factor(f, z)).exact


def rotated_witness(f, z, branch, a):
    """The family witness of ``branch`` at ``z`` with one more automorphism,
    vanishing at ``a``, before the normalizer: [reflection,] MobiusAut(a),
    MobiusAut(w_a), where w_a is the image of ``z`` under the steps before it.
    At a = 0 it is the family's own witness."""
    if a == 0:
        return factor_witness(f, z, branch)
    head = (Reflection(f.r),) if branch == REFLECTION else ()
    w_a = complex(map_eval(mexpr(*head, MobiusAut(a)), z))
    return mexpr(*head, MobiusAut(a), MobiusAut(w_a))


# ------------------------------------------------------------------- map_eval

def test_map_eval_inclusion():
    # the inclusion branch's witness at a zero image is phi_0, the identity
    assert map_eval(mexpr(MobiusAut(0)), 0.3) == 0.3
    zs = np.array([0.5, 0.25j, -0.3 + 0.4j])
    assert np.array_equal(_array_eval((MobiusAut(0),), zs), zs)


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


def test_reflection_of_subnormal_operands_keeps_its_bits():
    # r and z lifted by 2**600 divide as normal doubles; the bare quotient
    # has modulus 0.50000006 where r/|z| is 0.49999986
    r, z = 1e-320, complex(-1.5e-323, -2e-320)
    lifted = (r * 2.0 ** 600) / (z * 2.0 ** 600)
    assert abs(r / z) > 0.5
    assert reflect(r, z) == lifted == map_eval(mexpr(Reflection(r)), z)
    assert abs(lifted) == pytest.approx(2024 / math.hypot(3, 4048), rel=1e-15)
    ring = np.array([z, 2 * z])
    assert np.array_equal(_array_eval((Reflection(r),), ring), [lifted, lifted / 2])
    assert reflect(0.25, 0.5 + 0.1j) == 0.25 / (0.5 + 0.1j)  # normal operands: the bare quotient


def test_map_eval_vectorized_matches_scalar():
    e = mexpr(Reflection(0.25), MobiusAut(0.2 + 0.1j, 0.7))
    zs = 0.5 * np.exp(2j * np.pi * np.arange(7) / 7)
    vec = _array_eval(e.steps, zs)
    assert np.allclose(vec, [map_eval(e, complex(z)) for z in zs], atol=1e-15)


def test_scalar_and_array_dispatch_bitwise():
    # mobius_eval and map_eval evaluate scalars, verify's _array_eval an
    # ndarray.  The three input kinds round differently in the last bit, so
    # each must match the expression evaluated in its own type.
    rng = np.random.default_rng(11)
    zs = 0.9 * rng.uniform(0.3, 1, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    for a, theta in ((0.3 - 0.4j, 0.0), (-0.6j, 2.1), (0.45 + 0.2j, -0.8)):
        m = MobiusAut(a, theta)
        e = mexpr(Reflection(0.25), m)
        phase = complex(math.cos(theta), math.sin(theta))

        def mobius(w):
            w = (w - a) / (1.0 - a.conjugate() * w)
            return phase * w if theta != 0.0 else w

        assert np.array_equal(_array_eval((m,), zs), mobius(zs))
        assert np.array_equal(_array_eval(e.steps, zs), mobius(0.25 / zs))
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


def test_map_eval_rejects_unknown_primitives():
    # MapExpr refuses them at construction, so no evaluator meets one
    z = 0.5 + 0.25j
    for steps in ((object(),), (MobiusAut(0.3), "reflect")):
        with pytest.raises(DomainError, match="unknown primitive"):
            map_eval(mexpr(*steps), z)
    with pytest.raises(DomainError, match="pole at 0"):
        map_eval(mexpr(MobiusAut(0.3), Reflection(0.25)), 0.3)


def test_map_expr_validation():
    with pytest.raises(DomainError):
        MapExpr(())
    # the one check of the steps: map_eval, verify's _array_eval and the CLI's
    # witness text read a reflection wherever a step is not an automorphism
    for steps in ((object(),), (MobiusAut(0.3), "reflect"), (Reflection(0.25), None)):
        with pytest.raises(DomainError, match="unknown primitive"):
            MapExpr(steps)
    with pytest.raises(DomainError):
        Reflection(1.5)


# -------------------------------------------------------- removable extension
# The extension value at a puncture is map_eval there; at a reflection pole it
# raises, as test_map_eval_reflection_pole checks.

def test_extension_mobius():
    assert map_eval(mexpr(MobiusAut(0.3)), 0j) == pytest.approx(-0.3, abs=1e-15)


def test_extension_inclusion():
    assert map_eval(mexpr(MobiusAut(0)), 0j) == 0


# ------------------------------------------------------------- image inradius

def test_inradius_punctured_disk_mobius():
    f = PuncturedDisk((0j,))
    e = mexpr(MobiusAut(0.3))
    for m in (8, 64, 4096):
        assert image_inradius_at_zero(e, f, m) == pytest.approx(0.3, abs=1e-12)
    # matches the closed-form single-factor value at z = 0.3
    assert factor_value(f, 0.3) == pytest.approx(0.3, abs=1e-15)


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
    assert image_inradius_at_zero(mexpr(MobiusAut(0)), UnitDisk(), 64) == pytest.approx(1.0, abs=1e-12)


def test_inradius_sample_count_validation():
    with pytest.raises(DomainError):
        image_inradius_at_zero(mexpr(MobiusAut(0)), UnitDisk(), 4)


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
        cap = min(abs(map_eval(e, p)) for p in f.punctures)
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


def boundary_array(f, m):
    """Every boundary sample of ``f`` in one array, outer circle first."""
    return np.concatenate([rho * _unit_circle(m) for rho in _sample_radii(f)])


def whole_array_inradius(e, f, m):
    """The sampled inradius as one array over every boundary sample."""
    best = math.sqrt(_squared_moduli(e, boundary_array(f, m)).min())
    for p in f.punctures if isinstance(f, PuncturedDisk) else ():
        best = min(best, abs(map_eval(e, p)))
    return best


@pytest.mark.parametrize("m", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_sampling_bitwise_equals_whole_array(case, m):
    f, z, branch, a = BLOCK_CASES[case]
    e = rotated_witness(f, z, branch, a)
    samples = boundary_array(f, m)
    sq = partial(_squared_moduli, e)
    # each circle on its own, then the whole inradius with its punctures
    radii = (1.0 + NUDGE, (1.0 - NUDGE) * f.r) if isinstance(f, Annulus) else (1.0 + NUDGE,)
    for k, rho in enumerate(radii):
        whole = math.sqrt(sq(samples[k * m:(k + 1) * m]).min())
        assert _sampled_circle_min(sq, rho, m) == whole
    assert image_inradius_at_zero(e, f, m) == whole_array_inradius(e, f, m)


def test_blocked_sampling_propagates_nan():
    # one NaN, in the third block of four: numpy's min over the block minima
    # keeps it, as .min() over the whole array does
    m = 4 * _SAMPLE_BLOCK
    nan_at = 2 * _SAMPLE_BLOCK + 5
    point = _unit_circle(m)[nan_at]

    def sq(w):
        return np.where(w == point, np.nan, (w * w.conj()).real)

    assert math.isnan(float(sq(_unit_circle(m)).min()))
    assert math.isnan(_sampled_circle_min(sq, 1.0, m))


# The map's array value and its modulus, abs(_array_eval(e.steps, samples)): a
# complex quotient and a hypot per sample.  The squared-modulus path rounds
# differently, by 3.0 to 3.3 eps at most over 300 random witnesses; 8 eps is
# the bound set for it.  The scalar map_eval is no reference here: it rounds
# up to about 1800 eps away from numpy's array arithmetic on such witnesses.
REFERENCE_RTOL = 8.0 * np.finfo(float).eps


def assert_moduli_match_map_eval(e, f, m):
    samples = boundary_array(f, m)
    reference = np.abs(_array_eval(e.steps, samples))
    moduli = np.sqrt(_squared_moduli(e, samples))
    assert np.all(np.abs(moduli - reference) <= REFERENCE_RTOL * reference)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_squared_moduli_match_map_eval_on_block_cases(case):
    f, z, branch, a = BLOCK_CASES[case]
    assert_moduli_match_map_eval(rotated_witness(f, z, branch, a), f, 4096)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((0.04, 0.25, 0.64)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi),
    st.sampled_from((INCLUSION, REFLECTION)),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
)
def test_squared_moduli_match_map_eval(r, t, ang, branch, amod, aang, theta):
    # an annulus point, a branch, and an extra automorphism vanishing at a
    # before the normalizer, both with rotation theta
    f = Annulus(r)
    z = (r + (0.02 + 0.96 * t) * (1.0 - r)) * cmath.exp(1j * ang)
    head = (Reflection(r),) if branch == REFLECTION else ()
    extra = MobiusAut(amod * cmath.exp(1j * aang), theta)
    w = complex(map_eval(mexpr(*head, extra), z))
    assert_moduli_match_map_eval(mexpr(*head, extra, MobiusAut(w, theta)), f, 1024)


@pytest.mark.parametrize("m", (64, 1024, 65536))
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("disk", "punctured", "annulus")),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
    st.booleans(),
)
def test_sampled_never_below_analytic(m, kind, amod, aang, theta, reflected):
    # the samples lie on the boundary circles, so their least modulus can only
    # overshoot the analytic inradius, whatever the sample count
    f = {"disk": UnitDisk(), "punctured": PuncturedDisk((0.3 - 0.2j,)), "annulus": Annulus(0.25)}[kind]
    head = (Reflection(0.25),) if reflected and kind == "annulus" else ()
    e = mexpr(*head, MobiusAut(amod * cmath.exp(1j * aang), theta))
    analytic = image_inradius_analytic(e, f)
    assert image_inradius_at_zero(e, f, m) >= analytic - 1e-12


def test_blocked_sampling_memory_stays_within_blocks():
    # 2**20 points a circle: every whole-circle temporary would be 8-16 MB
    m = 2 ** 20
    f = Annulus(0.25)
    e = factor_witness(f, 0.3 - 0.1j, REFLECTION)
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
        (mexpr(Reflection(0.25)), Annulus(0.25)),  # no automorphism: the radii alone
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
    # no family witness, with or without an extra automorphism, exceeds the
    # proven squeezing value of its factor
    f = PuncturedDisk((0j,))
    z = 0.5
    for a in np.linspace(0.0, 0.9, 10):
        e = rotated_witness(f, z, INCLUSION, complex(a))
        assert image_inradius_at_zero(e, f, 2048) <= factor_value(f, z) + 1e-6
    fa = Annulus(0.25)
    for branch in (INCLUSION, REFLECTION):
        for a in np.linspace(0.0, 0.9, 10):
            e = rotated_witness(fa, 0.5, branch, complex(a))
            assert image_inradius_at_zero(e, fa, 2048) <= factor_value(fa, 0.5) + 1e-6


def test_witness_always_sends_base_to_zero():
    # an extra automorphism before the normalizer still sends the base point to 0
    for a in (0j, 0.3 + 0j, 0.2 - 0.4j):
        e = rotated_witness(PuncturedDisk((0.1 + 0j,)), 0.5j, INCLUSION, a)
        assert abs(complex(map_eval(e, 0.5j))) <= 1e-12
        ea = rotated_witness(Annulus(0.25), 0.4 + 0.2j, REFLECTION, a)
        assert abs(complex(map_eval(ea, 0.4 + 0.2j))) <= 1e-12


def test_rotational_reduction_soundness():
    # the inradius is independent of arg(a) on the circularly symmetric
    # factors: two automorphisms with one zero differ by a rotation, so the
    # family takes a = 0
    for f, branch, z in (
        (PuncturedDisk((0j,)), INCLUSION, 0.5 + 0j),
        (Annulus(0.25), INCLUSION, 0.45 + 0.1j),
        (Annulus(0.25), REFLECTION, 0.45 + 0.1j),
    ):
        vals = []
        for k in range(8):
            a = 0.37 * cmath.exp(2j * math.pi * k / 8)
            vals.append(image_inradius_at_zero(rotated_witness(f, z, branch, a), f, 1024))
        assert max(vals) - min(vals) <= 1e-10


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
