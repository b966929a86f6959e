import math
import tracemalloc

import numpy as np
import pytest

from boidol.errors import QuadratureUnderresolved, WindowTooSmall
from boidol import grids
from boidol.grids import QuadratureSpec, gauss_legendre_rule, unit_rules
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


def _masked_bump(bump, s):
    """The mollifier by its defining formula, evaluated on |r| < 1 only."""
    s = np.asarray(s, dtype=float)
    r = (s - bump.centre) / bump.width
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out if out.ndim else float(out)


@pytest.mark.parametrize("bump", [BumpFactor(0.0, 1.0), BumpFactor(0.0, 2.0),
                                  BumpFactor(0.7, 0.5), BumpFactor(-0.3, 1.0)])
def test_bump_factor_equals_its_masked_formula(bump):
    """The whole-array bump equals, bit for bit, the formula evaluated only
    inside the support: at NaN, at +-inf, exactly on and next to the edges
    |r| = 1, at the centre and on a fine sweep; a scalar gives a float."""
    c, w = bump.centre, bump.width
    edges = [c - w, c + w]
    s = np.concatenate([
        [np.nan, np.inf, -np.inf, c, 1e300, -1e300], edges,
        [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)],
        np.linspace(c - 1.5 * w, c + 1.5 * w, 4001)])
    got, want = bump(s), _masked_bump(bump, s)
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(got) > 0
    for x in s[:12]:
        value = bump(x)
        assert isinstance(value, float) and value == _masked_bump(bump, x)
    assert bump(s.reshape(-1, 1)).shape == (s.size, 1)


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
    """The plain complex sum on max(quad.n, int(|alpha|*width/2) + 64) nodes."""
    aw = abs(al) * bump.width
    if aw >= FOURIER_CUTOFF:
        return 0j
    xs, ws = gauss_legendre_rule(*bump.support, max(quad.n, int(aw / 2) + 64))
    return complex(np.sum(ws * bump(xs) * np.exp(-1j * al * xs)))


def folded_bump_fourier(bump, al, quad):
    """One alpha at a time: the cosine sum over the non-negative nodes of the
    unit rule on the ladder, times the phase of the centre."""
    w = bump.width
    aw = abs(al) * w
    if aw >= FOURIER_CUTOFF:
        return 0j
    # int(|alpha|*width/2) + 64 rounded up to a multiple of 64, at least quad.n
    n = max(quad.n, -(-(int(aw / 2) + 64) // 64) * 64)
    (u, ws), = unit_rules((n,))
    u = u[n // 2:]
    g = 2.0 * ws[n // 2:] * np.exp(-1.0 / (1.0 - u ** 2))
    if n % 2:
        g[0] *= 0.5
    val = w * np.sum(g * np.cos((np.array([al]) * w)[:, None] * u), axis=1)
    if bump.centre:
        val = val * np.exp(-1j * np.array([al]) * bump.centre)
    return complex(val[0])


def test_bump_fourier_equals_scalar_reference():
    # an off-centre bump on a rule above the floor, the centred default, and
    # an odd quad.n, whose rule has a middle node
    for bump, quad in ((BumpFactor(0.7, 0.5), QuadratureSpec(128)),
                       (BumpFactor(0.0, 1.0), QuadratureSpec(64)),
                       (BumpFactor(0.3, 1.0), QuadratureSpec(97))):
        check_bump_fourier_against_scalar(bump, quad)


def check_bump_fourier_against_scalar(bump, quad):
    w = bump.width
    # |alpha|*width on both sides of the ladder's edges 2 + 128 k, where the
    # node count steps up by 64 (quad.n swallows the first ones), then at and
    # next to the cutoff
    aws = [0.0, 1.0, 2.0 - 1e-9, 2.0, 129.999, 130.0, 130.001, 131.0,
           258.0 - 1e-9, 258.0, 386.0, 514.0 - 1e-9, 1026.0, 1199.0,
           np.nextafter(FOURIER_CUTOFF, 0.0), FOURIER_CUTOFF, 1300.0]
    alphas = np.array([s * a / w for a in aws for s in (1.0, -1.0)])
    want = np.array([folded_bump_fourier(bump, al, quad) for al in alphas])
    assert np.count_nonzero(want) == len(alphas) - 4  # the four past the cutoff
    plain = np.array([scalar_bump_fourier(bump, al, quad) for al in alphas])
    assert np.max(np.abs(want - plain)) <= 1e-11 * abs(want[0])
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


@pytest.mark.parametrize("bump", [BumpFactor(0.0, 1.0), BumpFactor(0.7, 0.5)])
def test_bump_fourier_no_less_accurate_than_plain_sum(bump):
    """Against a 2048-node complex sum, the folded sum on the ladder is
    within rounding of the plain complex sum, whose node count is never
    larger."""
    quad = QuadratureSpec(64)
    xs, ws = gauss_legendre_rule(*bump.support, 2048)
    fx = ws * bump(xs)

    def ref(al):
        return complex(np.sum(fx * np.exp(-1j * al * xs)))

    peak = abs(ref(0.0))
    for aw in (0.5, 1.999, 2.0, 17.3, 129.999, 130.0, 300.3, 611.7, 1001.9, 1199.0):
        for al in (aw / bump.width, -aw / bump.width):
            want = ref(al)
            new = abs(bump_fourier(bump, al, quad) - want)
            old = abs(scalar_bump_fourier(bump, al, quad) - want)
            assert new <= old + 5e-15 * peak, (aw, al, new, old)


def test_bump_fourier_builds_few_rules(monkeypatch):
    """One call over alphas spanning [0, cutoff) asks the rule cache for at
    most 11 degrees: the ladder, not one degree per node count."""
    monkeypatch.setattr(grids, "_RULES", {})
    bump = BumpFactor(0.0, 1.0)
    bump_fourier(bump, np.linspace(0.0, FOURIER_CUTOFF, 5000, endpoint=False),
                 QuadratureSpec(64))
    assert len(grids._RULES) <= 11


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


BATCH = (2, 3, 64, 97, 333, 700)


def test_unit_rules_independent_of_batch(monkeypatch):
    """A rule is the same array whether built alone, in a batch in either
    order, or by overlapping batches that each find part of it cached."""
    def fresh(ns):
        monkeypatch.setattr(grids, "_RULES", {})
        return dict(zip(ns, unit_rules(ns)))

    alone = {n: fresh((n,))[n] for n in BATCH}
    builds = [fresh(BATCH), fresh(BATCH[::-1])]
    monkeypatch.setattr(grids, "_RULES", {})
    batches = (BATCH[:4], BATCH[::-1], BATCH[2:], BATCH)
    got = [dict(zip(batch, unit_rules(batch))) for batch in batches]
    assert sorted(grids._RULES) == sorted(BATCH)
    for n, rule in zip(BATCH, unit_rules(BATCH)):
        assert rule is grids._RULES[n]
    for build in builds + got:
        for n, (x, w) in build.items():
            assert np.array_equal(x, alone[n][0]) and np.array_equal(w, alone[n][1])
    with pytest.raises(ValueError):
        unit_rules((0,))


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
        # the bump is even and aa symmetric about 0, so the transform is the
        # real cosine sum, folded onto the nodes a >= 0 with their trapezoid
        # weights
        assert bump.centre == 0 and np.allclose(aa, -aa[::-1], rtol=0, atol=1e-15)
        tw = np.zeros(len(aa))
        tw[1:] += np.diff(aa) / 2
        tw[:-1] += np.diff(aa) / 2
        wv = tw * bump(aa)
        mid = len(aa) // 2
        fold = wv[mid:].copy()
        fold[1:] += wv[mid - 1::-1]
        # 1000 rows of the (ys, aa >= 0) table at a time: 12 MB
        g = np.concatenate([np.cos(np.outer(rows, aa[mid:])) @ fold
                            for rows in np.array_split(ys, range(1000, len(ys), 1000))])
        return np.trapezoid(np.abs(g) / (2 * np.pi), ys)

    want = i_t * i_x * inv_abs_integral(tm.b_a) * inv_abs_integral(tm.b_b)
    assert abs(v - want) < 0.01 * want


def test_l1_norm_multi_pair_path_with_a_zero_term():
    """A second term with a distinct (b_a, b_b) pair sends `l1_norm_F1` down
    its 2-d path, one n_yz x n_yz matrix per (t, x) cell; with coefficient 0
    it must give the single-term value.  The grid is small because that path
    took 12-13 s and peaked at 562 MiB at n_tx = 8 and n_yz = 4096."""
    grid = GridSpec4D(n_tx=4, n_yz=256)
    tm = F.terms[0]
    # same (t, x) bumps, so the (t, x) box and its nodes are unchanged
    two = TestFunction(F.terms + (SeparableTerm(0.0, tm.b_t, tm.b_x, tm.b_b, tm.b_a),))
    assert (tm.b_b, tm.b_a) != (tm.b_a, tm.b_b)
    single = l1_norm_F1(F, grid)
    assert single > 0
    assert abs(l1_norm_F1(two, grid) - single) <= 1e-12 * single


def test_l1_norm_takes_its_inverse_transforms_from_bump_fourier():
    """Each bump's inverse transform is the conjugate of its `bump_fourier`
    over 2 pi, so an uncached `l1_norm_F1` on the default grid forms no
    (y, node) table: it peaks at 2.7 MiB traced, where a dense e^(iya)
    table of the 4096 y nodes peaked at 128.5 MiB.  The value is the dense
    sum's, 0.01346652582555312, to rounding."""
    l1_norm_F1.cache_clear()
    tracemalloc.start()
    try:
        v = l1_norm_F1(F, GridSpec4D())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak / 2 ** 20
    assert abs(v - 0.01346652582555312) <= 1e-11 * v


def test_l1_norm_accepts_bumps_wider_than_two():
    """The node count grows with the bump, 32 per unit of width, so a b_b of
    width 3, which 64 nodes under-resolve, still gives the dense sum's
    0.013434425829269306."""
    w1 = BumpFactor(0.0, 1.0)
    wide = BumpFactor(0.0, 3.0)
    with pytest.raises(QuadratureUnderresolved):
        bump_fourier(wide, 0.0, QuadratureSpec(64))
    v = l1_norm_F1(TestFunction((SeparableTerm(1.0, w1, w1, w1, wide),)), GridSpec4D())
    assert abs(v - 0.013434425829269306) <= 1e-10 * v


def test_l1_norm_window_too_small():
    with pytest.raises(WindowTooSmall):
        l1_norm_F1(F, GridSpec4D(n_tx=32, n_yz=256, yz_half_width=20.0))


def test_json_round_trip():
    g = TestFunction(F.terms + (SeparableTerm(0.5 + 0.25j, BumpFactor(0.125, 0.75),
                                              BumpFactor(-1.5, 2.0), BumpFactor(0, 1),
                                              BumpFactor(0.1, 1.1)),))
    assert from_json(to_json(g)) == g
