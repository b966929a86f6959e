import math

import numpy as np
import pytest

from boidol.group import (
    IDENTITY,
    Character,
    DualVector,
    Gen,
    GroupElement,
    OneDim,
    TwoDim,
    automorphism_gamma,
    classify_dual_vector,
    group_inv,
    group_mul,
    in_centre,
    orbit_point,
)


def as_tuple(g):
    return tuple(g)


def close(g, h, tol=1e-12):
    return all(abs(a - b) <= tol * max(1.0, abs(a), abs(b))
               for a, b in zip(g, h))


def random_elements(rng, n, scale=3.0):
    return [GroupElement(*rng.uniform(-scale, scale, size=4)) for _ in range(n)]


def test_identity():
    g = GroupElement(1.3, -0.7, 2.1, 0.4)
    assert as_tuple(group_mul(IDENTITY, g)) == as_tuple(g)
    assert as_tuple(group_mul(g, IDENTITY)) == as_tuple(g)


def test_hand_evaluated_product():
    p = group_mul(GroupElement(1, 1, 0, 0), GroupElement(1, 0, 1, 0))
    e = math.e
    assert close(p, (2.0, e, 1.0, e / 2.0))


def test_inverse_axiom():
    g = GroupElement(1, 2, 3, 4)
    assert close(group_mul(g, group_inv(g)), (0, 0, 0, 0))
    assert close(group_mul(group_inv(g), g), (0, 0, 0, 0))


def test_inverse_formula():
    gi = group_inv(GroupElement(1, 2, 3, 4))
    assert close(gi, (-1.0, -2.0 * math.exp(-1), -3.0 * math.e, -4.0))


def test_inverse_involution():
    rng = np.random.default_rng(0)
    for g in random_elements(rng, 50):
        assert close(group_inv(group_inv(g)), g)


def test_associativity_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b, c = random_elements(rng, 3)
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        assert close(lhs, rhs, tol=1e-12)


def test_centre_commutes_exactly():
    rng = np.random.default_rng(2)
    for g in random_elements(rng, 20):
        for z in (-2.0, 0.5, 3.0):
            c = GroupElement(0.0, 0.0, 0.0, z)
            assert as_tuple(group_mul(c, g)) == as_tuple(group_mul(g, c))
            assert in_centre(c)
    assert not in_centre(GroupElement(0, 1, 0, 0))


def test_gamma_formula_and_involution():
    assert as_tuple(automorphism_gamma(GroupElement(1, 2, 3, 4))) == (1, -2, -3, 4)
    rng = np.random.default_rng(3)
    for g in random_elements(rng, 20):
        assert as_tuple(automorphism_gamma(automorphism_gamma(g))) == as_tuple(g)


def test_gamma_is_automorphism():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g, h = random_elements(rng, 2)
        lhs = automorphism_gamma(group_mul(g, h))
        rhs = group_mul(automorphism_gamma(g), automorphism_gamma(h))
        assert close(lhs, rhs)


def test_orbit_point_examples():
    assert tuple(orbit_point(Gen(0.0, 1.0), (0.0, 0.0))) == (0, 0, 0, 1)
    p = orbit_point(TwoDim(6.0, -1), (0.0, 7.0))
    assert tuple(p) == (7.0, 6.0, -1.0, 0.0)
    assert tuple(orbit_point(Character(3.0))) == (3, 0, 0, 0)


def test_classify_examples():
    assert classify_dual_vector(DualVector(3, 0, 0, 0)) == Character(3)
    lab = classify_dual_vector(DualVector(5, 2, 3, 1))
    assert isinstance(lab, Gen)
    assert abs(lab.rho - (-1.0)) < 1e-12 and lab.lam == 1.0
    lab = classify_dual_vector(DualVector(7, 2, -3, 0))
    assert lab == TwoDim(6.0, -1)
    assert classify_dual_vector(DualVector(0, -2, 0, 0)) == OneDim("X", -1)
    assert classify_dual_vector(DualVector(0, 0, 0.5, 0)) == OneDim("Y", 1)


def random_label(rng):
    kind = rng.integers(4)
    if kind == 0:
        lam = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        return Gen(rng.uniform(-3, 3), lam)
    if kind == 1:
        om = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        return TwoDim(om, int(rng.choice([-1, 1])))
    if kind == 2:
        return OneDim(str(rng.choice(["X", "Y"])), int(rng.choice([-1, 1])))
    return Character(rng.uniform(-3, 3))


def labels_match(a, b, tol=1e-9):
    if type(a) is not type(b):
        return False
    if isinstance(a, Gen):
        return abs(a.rho - b.rho) < tol and abs(a.lam - b.lam) < tol
    if isinstance(a, TwoDim):
        return abs(a.omega - b.omega) < tol * max(1, abs(a.omega)) and a.sigma == b.sigma
    return a == b


def test_classify_orbit_point_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        lab = random_label(rng)
        params = tuple(rng.uniform(-1.5, 1.5, size=2))
        got = classify_dual_vector(orbit_point(lab, params))
        assert labels_match(got, lab), (lab, params, got)


def test_gen_invariant_constant_along_orbit():
    rng = np.random.default_rng(6)
    for _ in range(200):
        lab = Gen(rng.uniform(-3, 3), rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
        x, y = rng.uniform(-3, 3, size=2)
        l = orbit_point(lab, (x, y))
        inv = l.cT - l.cX * l.cY / l.cZ
        assert abs(inv - lab.rho) < 1e-10


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        Gen(0.0, 0.0)
    with pytest.raises(ValueError):
        TwoDim(0.0, 1)
    with pytest.raises(ValueError):
        OneDim("Z", 1)


def test_lie_brackets_from_group_commutators():
    """[T,X] = -X, [T,Y] = Y, [X,Y] = Z, as the module docstring states: the
    commutator of exp(eps A) and exp(eps B) is exp(eps^2 [A,B] + O(eps^3))."""
    eps = 1e-4
    T, X, Y = (0, 1, 2)

    def one_parameter(axis):
        coords = [0.0] * 4
        coords[axis] = eps
        return GroupElement(*coords)

    def bracket(a, b):
        g, h = one_parameter(a), one_parameter(b)
        c = group_mul(group_mul(g, h), group_mul(group_inv(g), group_inv(h)))
        return np.array(tuple(c)) / eps ** 2

    assert np.allclose(bracket(T, X), [0, -1, 0, 0], rtol=0, atol=1e-3)
    assert np.allclose(bracket(T, Y), [0, 0, 1, 0], rtol=0, atol=1e-3)
    assert np.allclose(bracket(X, Y), [0, 0, 0, 1], rtol=0, atol=1e-3)


def test_group_axioms_property():
    """Associativity, the identity and both inverses, on hypothesis-drawn
    elements with every coordinate in [-2, 2]."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    element = st.builds(GroupElement, coord, coord, coord, coord)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(element, element, element)
    def check(a, b, c):
        assert close(group_mul(group_mul(a, b), c), group_mul(a, group_mul(b, c)))
        assert group_mul(a, IDENTITY) == a and group_mul(IDENTITY, a) == a
        assert close(group_mul(a, group_inv(a)), IDENTITY)
        assert close(group_mul(group_inv(a), a), IDENTITY)

    check()


def test_classify_orbit_point_round_trip_property():
    """classify_dual_vector(orbit_point(label, params)) gives back the label,
    on hypothesis-drawn labels of all four strata."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sign = st.sampled_from((-1, 1))
    away = st.floats(0.2, 3.0)
    label = st.one_of(
        st.builds(lambda rho, lam, s: Gen(rho, s * lam), st.floats(-3.0, 3.0), away, sign),
        st.builds(lambda om, s, sig: TwoDim(s * om, sig), away, sign, sign),
        st.builds(OneDim, st.sampled_from(("X", "Y")), sign),
        st.builds(Character, st.floats(-3.0, 3.0)))
    param = st.floats(-1.5, 1.5)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(label, param, param)
    def check(lab, a, b):
        got = classify_dual_vector(orbit_point(lab, (a, b)))
        assert labels_match(got, lab), (lab, (a, b), got)

    check()
