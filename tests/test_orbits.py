import math

import pytest

from boidol.errors import NotProperlyConverging, TargetNotInLimitSet
from boidol.group import (
    Character,
    DualVector,
    Gen,
    OneDim,
    TwoDim,
    classify_dual_vector,
    orbit_point,
)
from boidol.orbits import (
    AtInfinity,
    Gamma1PairUnionGamma0,
    Gamma1UnionGamma0,
    Gamma1WithGamma0,
    OrbitSequence,
    SinglePoint,
    TwoPoints,
    _orbit_distance_sq,
    _witness_guess,
    closure_gamma1,
    limit_set_gamma2,
    limit_set_gamma3,
    witness_distance,
)


def g3(gen, k_max=10_000):
    return OrbitSequence("Gamma3", gen, k_max)


SEQ_OMEGA1 = g3(lambda k: (float(k), 1.0 / k))
SEQ_OMEGA0 = g3(lambda k: (float(k), 1.0 / k ** 2))
SEQ_HAUSDORFF = g3(lambda k: (1.0 + 1.0 / k, 2.0))


def test_two_point_limit():
    ls = limit_set_gamma3(SEQ_OMEGA1)
    assert isinstance(ls, TwoPoints)
    assert abs(ls.first.omega - 1.0) < 1e-6 and ls.first.sigma == -1
    assert abs(ls.second.omega + 1.0) < 1e-6 and ls.second.sigma == 1


def test_gamma1_union_gamma0_limit():
    assert isinstance(limit_set_gamma3(SEQ_OMEGA0), Gamma1UnionGamma0)


def test_hausdorff_single_point():
    ls = limit_set_gamma3(SEQ_HAUSDORFF)
    assert isinstance(ls, SinglePoint)
    assert isinstance(ls.point, Gen)
    assert abs(ls.point.rho - 1.0) < 1e-6
    assert abs(ls.point.lam - 2.0) < 1e-6


def test_at_infinity():
    seq = g3(lambda k: (float(k), 2.0))
    assert isinstance(limit_set_gamma3(seq), AtInfinity)


def test_not_properly_converging():
    seq = g3(lambda k: (0.0, 2.0 + math.sin(k)))
    with pytest.raises(NotProperlyConverging):
        limit_set_gamma3(seq)


def test_subsequence_invariance():
    for base in (SEQ_OMEGA1, SEQ_OMEGA0, SEQ_HAUSDORFF):
        sub = OrbitSequence("Gamma3", lambda k, g=base.generator: g(2 * k), base.k_max // 2)
        assert type(limit_set_gamma3(sub)) is type(limit_set_gamma3(base))


def test_gamma2_limit_sets():
    seq = OrbitSequence("Gamma2", lambda k: (1.0 / k, -1))
    ls = limit_set_gamma2(seq)
    assert ls == Gamma1PairUnionGamma0(OneDim("X", 1), OneDim("Y", -1))
    seq = OrbitSequence("Gamma2", lambda k: (-(2.0 ** -min(k, 60)), 1))
    ls = limit_set_gamma2(seq)
    assert ls == Gamma1PairUnionGamma0(OneDim("X", -1), OneDim("Y", 1))
    with pytest.raises(NotProperlyConverging):
        limit_set_gamma2(OrbitSequence("Gamma2", lambda k: (1.0, 1)))


def test_closure_gamma1():
    assert closure_gamma1("X", 1) == Gamma1WithGamma0(OneDim("X", 1))
    c = closure_gamma1("Y", -1)
    assert closure_gamma1(c.orbit.axis, c.orbit.sigma) == c


def test_witness_distance_two_point_targets():
    target = orbit_point(TwoDim(1.0, -1))
    ds = [witness_distance(SEQ_OMEGA1, target, k) for k in (10, 100, 1000)]
    assert ds[0] > ds[1] > ds[2]
    assert ds[2] < 1.1e-3
    target2 = orbit_point(TwoDim(-1.0, 1))
    d2 = witness_distance(SEQ_OMEGA1, target2, 1000)
    assert d2 < 1.1e-3


def test_witness_distance_character_target():
    target = DualVector(3.0, 0.0, 0.0, 0.0)
    ds = [witness_distance(SEQ_OMEGA0, target, k) for k in (10, 100, 1000)]
    assert ds[0] > ds[1] > ds[2]


def test_witness_distance_gamma1_target():
    target = orbit_point(OneDim("X", 1), (0.3, 0.2))
    ds = [witness_distance(SEQ_OMEGA0, target, k) for k in (10, 100, 1000)]
    assert ds[0] > ds[1] > ds[2]
    assert ds[2] < 1.1e-3


# Witness distances of the Nelder-Mead refinement the Newton descent replaced,
# at k = 10 and k = 1000, one target of each kind.
PINNED_WITNESS = [
    (SEQ_OMEGA1, TwoDim(1.0, -1), (0.1, 0.001)),
    (SEQ_OMEGA0, OneDim("X", 1), (0.10000957177445327, 0.0010000000000009999)),
    (SEQ_OMEGA0, Character(0.5), (0.43588989435406733, 0.04471017781221631)),
    (SEQ_HAUSDORFF, Gen(1.0, 2.0), (0.10000000000000009, 0.0009999999999998899)),
]


@pytest.mark.parametrize("seq, label, pinned", PINNED_WITNESS,
                         ids=[type(label).__name__ for _, label, _ in PINNED_WITNESS])
def test_witness_distance_pinned_and_never_above_the_guess(seq, label, pinned):
    target = orbit_point(label)
    for k, want in zip((10, 1000), pinned):
        got = witness_distance(seq, target, k)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        rho, lam = seq.generator(k)
        f, _ = _orbit_distance_sq(rho, lam, target)
        guess = _witness_guess(rho, lam, target, classify_dual_vector(target, tol=1e-6))
        assert got <= math.sqrt(f(*guess))


def test_witness_distance_own_orbit_point():
    k = 37
    rho, lam = SEQ_OMEGA1.generator(k)
    target = orbit_point(Gen(rho, lam), (0.4, -0.9))
    assert witness_distance(SEQ_OMEGA1, target, k) < 1e-8


def test_witness_distance_exclusion():
    target = orbit_point(OneDim("X", 1))
    with pytest.raises(TargetNotInLimitSet):
        witness_distance(SEQ_OMEGA1, target, 10)


def test_witness_distance_off_limit_gen():
    target = orbit_point(Gen(5.0, 7.0))
    with pytest.raises(TargetNotInLimitSet):
        witness_distance(SEQ_HAUSDORFF, target, 10)
