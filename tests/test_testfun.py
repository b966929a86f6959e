import math

import numpy as np
import pytest

from boidol.errors import QuadratureUnderresolved, WindowTooSmall
from boidol.grids import QuadratureSpec, gauss_legendre_rule
from boidol.testfun import (
    FOURIER_CUTOFF,
    BumpFactor,
    GridSpec4D,
    SeparableTerm,
    TestFunction,
    bump_fourier,
    default_test_function,
    eval_hatF34,
    eval_hatF234,
    from_json,
    l1_norm_F1,
    to_json,
)

F = default_test_function()


def test_compact_support_exact():
    assert eval_hatF34(F, 1.5, 0, 0, 0) == 0
    assert eval_hatF34(F, 0, -1.0, 0, 0) == 0
    assert eval_hatF34(F, 0, 0, 2.5, 0) == 0
    assert eval_hatF34(F, 0, 0, 0, 2.0) == 0


def test_origin_value():
    assert abs(eval_hatF34(F, 0, 0, 0, 0) - math.exp(-1) ** 4) < 1e-15


def test_linearity():
    g = TestFunction(F.terms + (SeparableTerm(2.0 - 1.0j, BumpFactor(0.2, 0.5),
                                              BumpFactor(0, 1), BumpFactor(0, 1),
                                              BumpFactor(0, 1)),))
    pt = (0.1, -0.2, 0.3, 0.4)
    split = sum(eval_hatF34(TestFunction((tm,)), *pt) for tm in g.terms)
    assert abs(eval_hatF34(g, *pt) - split) < 1e-15


def test_hatF234_zero_frequency_is_plain_integral():
    got = eval_hatF234(F, 0.0, 0.0, 0.3, 0.5)
    xs, ws = gauss_legendre_rule(-1, 1, 200)
    want = np.sum(ws * np.array([eval_hatF34(F, 0.0, x, 0.3, 0.5) for x in xs]))
    assert abs(got - want) < 1e-12


def test_hatF234_conjugate_symmetry():
    a = 1.7
    v1 = eval_hatF234(F, 0.1, a, 0.2, 0.3)
    v2 = eval_hatF234(F, 0.1, -a, 0.2, 0.3)
    assert abs(v1 - np.conj(v2)) < 1e-12


def test_hatF234_decay_faster_than_quartic():
    v0 = abs(eval_hatF234(F, 0.0, 0.0, 0.0, 0.0))
    for a in (500.0, 700.0, 1000.0):
        assert abs(eval_hatF234(F, 0.0, a, 0.0, 0.0)) < v0 / a ** 4


def test_hatF234_quadrature_refinement():
    v1 = eval_hatF234(F, 0.1, 2.3, 0.2, 0.3, QuadratureSpec(64))
    v2 = eval_hatF234(F, 0.1, 2.3, 0.2, 0.3, QuadratureSpec(128))
    assert abs(v1 - v2) < 1e-8


def test_underresolved_quadrature_raises():
    with pytest.raises(QuadratureUnderresolved):
        bump_fourier(BumpFactor(0, 4.0), 1.0, QuadratureSpec(32))


def test_hard_zero_at_large_frequency():
    assert bump_fourier(BumpFactor(0, 1.0), 5000.0, QuadratureSpec(64)) == 0


def scalar_bump_fourier(bump, al, quad):
    """One alpha at a time, as the transform is defined."""
    aw = abs(al) * bump.width
    if aw >= FOURIER_CUTOFF:
        return 0j
    xs, ws = gauss_legendre_rule(*bump.support, max(quad.n, int(aw / 2) + 64))
    return complex(np.sum(ws * bump(xs) * np.exp(-1j * al * xs)))


def test_bump_fourier_equals_scalar_reference():
    bump, quad = BumpFactor(0.7, 0.5), QuadratureSpec(128)
    w = bump.width
    # |alpha|*width on both sides of 130, where the node count first exceeds
    # quad.n, and of two later node-count edges, then at and next to the cutoff
    aws = [0.0, 1.0, 129.999, 130.0, 130.001, 131.0, 400.0 - 1e-9, 400.0,
           800.0 + 1e-9, 1199.0, np.nextafter(FOURIER_CUTOFF, 0.0),
           FOURIER_CUTOFF, 1300.0]
    alphas = np.array([s * a / w for a in aws for s in (1.0, -1.0)])
    want = np.array([scalar_bump_fourier(bump, al, quad) for al in alphas])
    assert np.count_nonzero(want) == len(alphas) - 4  # the four past the cutoff
    assert np.array_equal(bump_fourier(bump, alphas, quad), want)
    grid = alphas.reshape(2, -1)
    got = bump_fourier(bump, grid, quad)
    assert got.shape == grid.shape
    assert np.array_equal(got, want.reshape(2, -1))
    for al, v in zip(alphas, want):
        got = bump_fourier(bump, al, quad)
        assert isinstance(got, complex) and got == v
    with pytest.raises(ValueError):
        bump_fourier(bump, np.array([1.0, np.nan]), quad)


def test_gauss_legendre_rule_is_cached_and_read_only():
    x1, w1 = gauss_legendre_rule(-1.0, 3.0, 97)
    x2, w2 = gauss_legendre_rule(-1.0, 3.0, 97)
    assert np.array_equal(x1, x2) and np.array_equal(w1, w2)
    for arr in (x1, w1):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n", [2, 3, 64, 97, 333, 700, 1401])
def test_gauss_legendre_rule_accuracy(n):
    """Exact on polynomials of degree <= 2n-1, mirror-symmetric, and on the
    nodes of the eigenvalue construction to within rounding."""
    x, w = gauss_legendre_rule(-1.0, 1.0, n)
    moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)
    moments[0] -= 2.0
    assert np.max(np.abs(moments)) <= 1e-13
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 4.5e-16


def test_l1_norm_positive_and_homogeneous():
    grid = GridSpec4D(n_tx=48, n_yz=2048)
    v = l1_norm_F1(F, grid)
    assert v > 0
    assert abs(l1_norm_F1(F.scaled(2.0), grid) - 2 * v) < 1e-12 * v


def test_l1_norm_against_brute_force():
    # independent dense recovery of the default single term at double resolution
    grid = GridSpec4D(n_tx=64, n_yz=4096)
    v = l1_norm_F1(F, grid)
    tm = F.terms[0]
    ts = np.linspace(-1, 1, 4001)
    i_t = np.trapezoid(np.abs(ts) * tm.b_t(ts), ts)
    i_x = np.trapezoid(tm.b_x(ts), ts)

    def inv_abs_integral(bump):
        ys = np.linspace(-500, 500, 20001)
        aa = np.linspace(*bump.support, 3001)
        g = np.trapezoid(bump(aa)[None, :] * np.exp(1j * np.outer(ys, aa)), aa, axis=1)
        return np.trapezoid(np.abs(g) / (2 * np.pi), ys)

    want = i_t * i_x * inv_abs_integral(tm.b_a) * inv_abs_integral(tm.b_b)
    assert abs(v - want) < 0.01 * want


def test_l1_norm_window_too_small():
    with pytest.raises(WindowTooSmall):
        l1_norm_F1(F, GridSpec4D(n_tx=32, n_yz=256, yz_half_width=20.0))


def test_json_round_trip():
    g = TestFunction(F.terms + (SeparableTerm(0.5 + 0.25j, BumpFactor(0.125, 0.75),
                                              BumpFactor(-1.5, 2.0), BumpFactor(0, 1),
                                              BumpFactor(0.1, 1.1)),))
    assert from_json(to_json(g)) == g
