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
    search_lower_bound,
    squeeze_bounds,
)
from polysqueeze.embeddings import (
    map_eval,
    mobius_circle_min_modulus,
    mobius_eval,
    reflect,
    require_base_to_zero,
)
from polysqueeze.squeezing import INCLUSION, REFLECTION
from polysqueeze.verify import (
    _CHUNK,
    _COARSE,
    _PASS_POINTS,
    _PASSES,
    _array_eval,
    _circle_minima,
    _least_modulus,
    _sample_radii,
    _sampled_circle_min,
    _squared_moduli,
    _unit_circle,
    image_inradius_analytic,
    product_inradius,
)


def mexpr(*steps):
    return MapExpr(tuple(steps))


def kernel(e):
    """The squared-modulus kernel of a map ``e`` that ends in a Mobius step."""
    return partial(_squared_moduli, e.steps[:-1], e.steps[-1].a)


def sampled_inradius(e, f):
    """The oracle's value for one map on one factor, every circle through the one stacked path."""
    return _least_modulus(e, f, _circle_minima([(e, rho) for rho in _sample_radii(f)]))


def one_factor(f, z):
    """The one-factor domain of ``f`` and its point ``z``."""
    d = ProductDomain((f,))
    return d, d.point([z])


def factor_witness(f, z, branch):
    """The witness the search builds for ``f`` at ``z`` under the family ``branch``."""
    return search_lower_bound(*one_factor(f, z), branch).witness.components[0]


def factor_value(f, z):
    """The closed form of ``f`` at ``z``: the catalog value of its one-factor domain."""
    return squeeze_bounds(*one_factor(f, z), search=False).exact


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
    e = mexpr(Reflection(0.25), MobiusAut(0.2 + 0.1j))
    zs = 0.5 * np.exp(2j * np.pi * np.arange(7) / 7)
    vec = _array_eval(e.steps, zs)
    assert np.allclose(vec, [map_eval(e, complex(z)) for z in zs], atol=1e-15)


def test_scalar_and_array_dispatch_bitwise():
    # mobius_eval and map_eval evaluate scalars, verify's _array_eval an
    # ndarray.  The three input kinds round differently in the last bit, so
    # each must match the expression evaluated in its own type.
    rng = np.random.default_rng(11)
    zs = 0.9 * rng.uniform(0.3, 1, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    for a in (0.3 - 0.4j, -0.6j, 0.45 + 0.2j):
        m = MobiusAut(a)
        e = mexpr(Reflection(0.25), m)

        def mobius(w):
            return (w - a) / (1.0 - a.conjugate() * w)

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
    with pytest.raises(DomainError, match="^a product map needs at least one component$"):
        ProductMap(())
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
    assert sampled_inradius(e, f) == pytest.approx(0.3, abs=1e-12)
    # matches the closed-form single-factor value at z = 0.3
    assert factor_value(f, 0.3) == pytest.approx(0.3, abs=1e-15)


def brute_circle_min(a: complex, r: float, m: int) -> float:
    zs = r * np.exp(2j * np.pi * np.arange(m) / m)
    return float(np.abs((zs - a) / (1 - np.conj(a) * zs)).min())


def test_inradius_annulus_mobius():
    f = Annulus(0.25)
    e = mexpr(MobiusAut(0.5))
    got = sampled_inradius(e, f)
    assert got == pytest.approx(0.25 / 0.875, abs=1e-7)
    assert got == pytest.approx(brute_circle_min(0.5, 0.25, 65536), abs=1e-12)
    assert got == pytest.approx(mobius_circle_min_modulus(0.5, 0.25), abs=1e-7)


def test_inradius_identity_on_disk():
    assert sampled_inradius(mexpr(MobiusAut(0)), UnitDisk()) == pytest.approx(1.0, abs=1e-12)


def test_inradius_capped_by_puncture_images():
    f = PuncturedDisk((0.1 + 0.2j, -0.4j))
    for a in (0.0, 0.3, 0.5 + 0.1j):
        e = mexpr(MobiusAut(a))
        cap = min(abs(map_eval(e, p)) for p in f.punctures)
        assert sampled_inradius(e, f) <= cap + 1e-15


@given(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi))
def test_inradius_mobius_only_on_disk_is_one(amod, ang):
    e = mexpr(MobiusAut(amod * cmath.exp(1j * ang)))
    assert sampled_inradius(e, UnitDisk()) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ refined sampling

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


def boundary_array(f, m):
    """Every boundary sample of ``f`` in one array, outer circle first."""
    return np.concatenate([rho * _unit_circle(m) for rho in _sample_radii(f)])


def whole_array_inradius(e, f, m):
    """The least modulus over ``m`` equally spaced samples a circle, as one array, and the punctures."""
    best = math.sqrt(kernel(e)(boundary_array(f, m)).min())
    for p in f.punctures if isinstance(f, PuncturedDisk) else ():
        best = min(best, abs(map_eval(e, p)))
    return best


# The map's array value and its modulus, abs(_array_eval(e.steps, samples)): a
# complex quotient and a hypot per sample.  The squared-modulus path rounds
# differently, by 3.0 to 3.3 eps at most over 300 random witnesses; 8 eps is
# the bound set for it.  The scalar map_eval is no reference here: it rounds
# up to about 1800 eps away from numpy's array arithmetic on such witnesses.
REFERENCE_RTOL = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_refined_min_between_analytic_and_coarse_grid(case):
    # Every refined value is the computed modulus at a sample outside the
    # open set, so in exact arithmetic it cannot fall below the analytic
    # inradius; the computed values can, by the kernel's rounding (within
    # REFERENCE_RTOL of the reference) and as much again for the reference's
    # and the closed form's own roundings.  The coarse grid's least squared
    # modulus is one of the values the search reduces, so it bounds the
    # result bit for bit.
    f, z, branch, a = BLOCK_CASES[case]
    e = rotated_witness(f, z, branch, a)
    sq = kernel(e)
    refined = [_sampled_circle_min(sq, rho) for rho in _sample_radii(f)]
    for rho, got in zip(_sample_radii(f), refined):
        assert got <= math.sqrt(sq(rho * _unit_circle(_COARSE)).min())
    got = sampled_inradius(e, f)
    assert got == min(refined + [abs(map_eval(e, p)) for p in f.punctures])
    assert got >= image_inradius_analytic(e, f) * (1.0 - 2.0 * REFERENCE_RTOL)


BLOCK_SIZES = (8, 4096, 16384, 16385, 65536, 100000)


@pytest.mark.parametrize("m", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_sampling_bitwise_equals_whole_array(case, m):
    # The search scores a circle in blocks: the coarse grid, then one pass at
    # a time.  The kernel is elementwise, so a sample's squared modulus does
    # not depend on the block it is scored in: m samples a circle scored in
    # blocks of either size give the whole array's values bit for bit.  And
    # the refined minimum, being closer to each circle's minimizer than any
    # grid, reads no higher than the whole-array scan of m points, up to the
    # kernel's rounding.
    f, z, branch, a = BLOCK_CASES[case]
    e = rotated_witness(f, z, branch, a)
    sq = kernel(e)
    samples = boundary_array(f, m)
    whole = sq(samples)
    for size in (_COARSE, _PASS_POINTS):
        blocked = np.concatenate([sq(samples[i:i + size]) for i in range(0, len(samples), size)])
        assert blocked.tobytes() == whole.tobytes()
    for k, rho in enumerate(_sample_radii(f)):
        scan = math.sqrt(whole[k * m:(k + 1) * m].min())
        assert _sampled_circle_min(sq, rho) <= scan * (1.0 + REFERENCE_RTOL)
    assert sampled_inradius(e, f) <= whole_array_inradius(e, f, m) * (1.0 + REFERENCE_RTOL)


@pytest.mark.parametrize("stage", range(_PASSES + 1))
def test_refined_sampling_propagates_nan(stage):
    # one NaN, in the coarse grid (stage 0) or in one refinement pass, away
    # from that stage's least value: numpy's min over the stage minima keeps
    # it, where Python's min would drop it unless it came first
    inner = kernel(mexpr(MobiusAut(0.5)))
    calls = []

    def sq(w):
        out = inner(w)
        if len(calls) == stage:
            out[len(out) // 2 + 3] = np.nan
        calls.append(len(w))
        return out

    assert math.isnan(_sampled_circle_min(sq, 0.25))
    assert calls == [_COARSE] + [calls[1]] * _PASSES


def assert_moduli_match_map_eval(e, f, m):
    samples = boundary_array(f, m)
    reference = np.abs(_array_eval(e.steps, samples))
    moduli = np.sqrt(kernel(e)(samples))
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
)
def test_squared_moduli_match_map_eval(r, t, ang, branch, amod, aang):
    # an annulus point, a branch, and an extra automorphism vanishing at a
    # before the normalizer
    f = Annulus(r)
    z = (r + (0.02 + 0.96 * t) * (1.0 - r)) * cmath.exp(1j * ang)
    head = (Reflection(r),) if branch == REFLECTION else ()
    extra = MobiusAut(amod * cmath.exp(1j * aang))
    w = complex(map_eval(mexpr(*head, extra), z))
    assert_moduli_match_map_eval(mexpr(*head, extra, MobiusAut(w)), f, 1024)


@pytest.mark.parametrize("m", (64, 1024, 65536))
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("disk", "punctured", "annulus")),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2 * math.pi),
    st.booleans(),
)
def test_sampled_never_below_analytic(m, kind, amod, aang, reflected):
    # the samples lie on the boundary circles, so their least modulus can only
    # overshoot the analytic inradius; the refined search ends closer to each
    # circle's minimizer than a scan of m equally spaced samples gets, so it
    # reads no higher than that scan, up to the kernel's rounding
    f = {"disk": UnitDisk(), "punctured": PuncturedDisk((0.3 - 0.2j,)), "annulus": Annulus(0.25)}[kind]
    head = (Reflection(0.25),) if reflected and kind == "annulus" else ()
    e = mexpr(*head, MobiusAut(amod * cmath.exp(1j * aang)))
    got = sampled_inradius(e, f)
    assert got >= image_inradius_analytic(e, f) - 1e-12
    assert got <= whole_array_inradius(e, f, m) * (1.0 + REFERENCE_RTOL)


def test_refined_sampling_memory_is_a_few_coarse_grids():
    # one circle, a stack of one row: the largest temporaries are the coarse
    # stage's, a 256-point complex array is 4 kB, and the kernel holds its
    # samples, two factors and their real parts at once; 32 kB is eight such
    # arrays
    f = Annulus(0.25)
    e = factor_witness(f, 0.3 - 0.1j, REFLECTION)
    rows = [(e, _sample_radii(f)[0])]
    _unit_circle(_COARSE)  # the cached circle is shared, so it is not counted
    tracemalloc.start()
    try:
        _circle_minima(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * _COARSE, f"peak {peak} bytes above the cached circle"


@pytest.mark.parametrize("chunks", (1, 2))
def test_stacked_sampling_memory_is_a_few_coarse_grids_a_row(chunks):
    # A stack of circles holds one circle's temporaries with a row per
    # circle: a full chunk of _CHUNK rows, 256 complex samples each, is
    # 4 kB a row per array, and eight such arrays are _CHUNK * 32 kB, 1 MiB.
    # The rows here all share the reflection before the last step, the
    # largest head a family witness has, and two chunks' worth of rows peak
    # no higher than one, since they are searched a chunk at a time.
    f = Annulus(0.25)
    rows = [(factor_witness(f, 0.6 * cmath.exp(2j * math.pi * k / _CHUNK), REFLECTION), rho)
            for k in range(_CHUNK * chunks // 2) for rho in _sample_radii(f)]
    assert len(rows) == _CHUNK * chunks and len({e.steps[:-1] for e, _ in rows}) == 1
    _unit_circle(_COARSE)
    tracemalloc.start()
    try:
        _circle_minima(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _CHUNK * 8 * 16 * _COARSE, f"peak {peak} bytes above the cached circle"


def test_stacked_rows_are_each_circle_alone():
    # more rows than a chunk share one head, interleaved with rows of other
    # heads: a reflection, two Mobius steps, and a Mobius step then a
    # reflection before the last, each such head a stack of its own; every
    # row reads its circle's lone minimum
    f = Annulus(0.25)
    rows = []
    for k in range(_CHUNK + 3):
        w = 0.6 * cmath.exp(2j * math.pi * k / (_CHUNK + 3))
        rows += [(mexpr(MobiusAut(w)), 0.3 + 0.01 * k),
                 (factor_witness(f, w, REFLECTION), 0.25)]
        if k % 8 == 0:
            rows += [(mexpr(MobiusAut(0.1j), MobiusAut(w)), 1.0),
                     (mexpr(MobiusAut(w), Reflection(0.25), MobiusAut(0.25 / w)), 0.5 + 0.01 * k)]
    alone = [_sampled_circle_min(kernel(e), rho) for e, rho in rows]
    assert np.array(_circle_minima(rows)).tobytes() == np.array(alone).tobytes()
    assert _circle_minima([]) == []

# ------------------------------------------------------------- analytic oracle

def test_analytic_matches_sampled():
    cases = [
        (mexpr(MobiusAut(0.5)), Annulus(0.25)),
        (mexpr(Reflection(0.25), MobiusAut(0.5)), Annulus(0.25)),
        (mexpr(MobiusAut(0.3 + 0.2j), MobiusAut(-0.1j)), PuncturedDisk((0.2 + 0j,))),
        (mexpr(MobiusAut(0.7j)), UnitDisk()),
    ]
    for e, f in cases:
        analytic = image_inradius_analytic(e, f)
        assert analytic is not None
        assert analytic == pytest.approx(sampled_inradius(e, f), abs=1e-4)


def test_analytic_rejects_mobius_before_reflection():
    # and a map with no Mobius step: the sampled oracle refuses both shapes
    for e in (mexpr(MobiusAut(0.2), Reflection(0.25)), mexpr(Reflection(0.25))):
        assert image_inradius_analytic(e, Annulus(0.25)) is None


def test_witness_never_beats_closed_form():
    # no family witness, with or without an extra automorphism, exceeds the
    # proven squeezing value of its factor
    f = PuncturedDisk((0j,))
    z = 0.5
    for a in np.linspace(0.0, 0.9, 10):
        e = rotated_witness(f, z, INCLUSION, complex(a))
        assert sampled_inradius(e, f) <= factor_value(f, z) + 1e-6
    fa = Annulus(0.25)
    for branch in (INCLUSION, REFLECTION):
        for a in np.linspace(0.0, 0.9, 10):
            e = rotated_witness(fa, 0.5, branch, complex(a))
            assert sampled_inradius(e, fa) <= factor_value(fa, 0.5) + 1e-6


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
            vals.append(sampled_inradius(rotated_witness(f, z, branch, a), f))
        assert max(vals) - min(vals) <= 1e-10


# ------------------------------------------------------------ product inradius

def test_product_inradius_punctured_pair():
    d = ProductDomain((PuncturedDisk((0j,)), PuncturedDisk((0j,))))
    z = d.point([0.5, 0.3])
    pm = ProductMap((mexpr(MobiusAut(0.5)), mexpr(MobiusAut(0.3))))
    assert product_inradius([(pm, d, z)]) == [pytest.approx(0.3, abs=1e-12)]


def test_product_inradius_mixed_pair():
    d = ProductDomain((UnitDisk(), PuncturedDisk((0j,))))
    z = d.point([0.2, 0.6])
    pm = ProductMap((mexpr(MobiusAut(0.2)), mexpr(MobiusAut(0.6))))
    assert product_inradius([(pm, d, z)]) == [pytest.approx(0.6, abs=1e-12)]


def test_product_inradius_single_factor_reduces():
    d = ProductDomain((PuncturedDisk((0j,)),))
    z = d.point([0.4])
    e = mexpr(MobiusAut(0.4))
    assert product_inradius([(ProductMap((e,)), d, z)]) == [sampled_inradius(e, d.factors[0])]


def test_product_inradius_base_point_violation():
    d = ProductDomain((UnitDisk(),))
    z = d.point([0.2])
    pm = ProductMap((mexpr(MobiusAut(0.5)),))  # sends 0.5, not 0.2, to 0
    with pytest.raises(DomainError):
        product_inradius([(pm, d, z)])


def test_product_inradius_refuses_a_last_reflection():
    # mobius(0)|reflect(1e-13) sends the base point 0.5 to 2e-13, inside the
    # base-point tolerance, so only the last-step check refuses it
    d = ProductDomain((UnitDisk(),))
    z = d.point([0.5])
    e = mexpr(MobiusAut(0), Reflection(1e-13))
    require_base_to_zero(e, 0.5)
    with pytest.raises(DomainError, match="ends in Reflection"):
        product_inradius([(ProductMap((e,)), d, z)])


def test_product_inradius_arity_mismatch():
    d = ProductDomain((UnitDisk(), UnitDisk()))
    z = d.point([0.2, 0.1])
    with pytest.raises(DomainError):
        product_inradius([(ProductMap((mexpr(MobiusAut(0.2)),)), d, z)])


def test_product_inradius_of_many_witnesses_is_each_alone():
    # witnesses of several domains and step shapes, their circles searched
    # together, give each factor the double it gets circle by circle; one
    # bad witness anywhere refuses them all
    witnesses = []
    for f, z, branch, a in BLOCK_CASES.values():
        d, pz = one_factor(f, z)
        witnesses.append((ProductMap((rotated_witness(f, z, branch, a),)), d, pz))
    d = ProductDomain((Annulus(0.25), PuncturedDisk((0j,))))
    z = d.point([0.3 - 0.1j, 0.6])
    witnesses.append((search_lower_bound(d, z).witness, d, z))
    assert product_inradius(witnesses) == [
        min(sampled_inradius(e, f) for e, f in zip(pm.components, d.factors))
        for pm, d, _ in witnesses]
    assert product_inradius([]) == []
    d = ProductDomain((UnitDisk(),))
    with pytest.raises(DomainError):
        product_inradius(witnesses + [(ProductMap((mexpr(MobiusAut(0.5)),)), d, d.point([0.2]))])
