import math

import numpy as np
import pytest

from boidol.grids import GridSpec, QuadratureSpec, gauss_legendre_rule
from boidol.kernels import (
    character_value,
    interp_rows,
    kernel_pi_ell,
    kernel_pi_rho_lambda,
    kernel_tau,
    vk_adjoint,
    vk_operator,
)
from boidol.operators import flip_S, op_norm
from boidol.testfun import (
    BumpFactor,
    SeparableTerm,
    TestFunction,
    default_test_function,
    eval_hatF34,
)

F = default_test_function()
ZERO = TestFunction(())

LIN = GridSpec.linear(L=8.0, n=160)
LOG = GridSpec.log_half_line(1, V=6.0, n=128)
PAIR = GridSpec.log_pair(V=6.0, n=128)


def l2(grid, xi):
    return float(np.sqrt(np.sum(grid.weights * np.abs(xi) ** 2)))


def inverse_bump_on(bump, ys):
    aa = np.linspace(*bump.support, 2001)
    vals = np.trapezoid(bump(aa)[None, :] * np.exp(1j * np.outer(ys, aa)), aa, axis=1)
    return vals / (2 * np.pi)


def test_zero_function_gives_zero_operators():
    assert op_norm(kernel_pi_rho_lambda(ZERO, 0.0, 1.0, LIN)) == 0.0
    assert op_norm(kernel_pi_ell(ZERO, 1.0, 1.0, LIN)) == 0.0
    assert character_value(ZERO, 2.0) == 0.0


def test_pi_rho_lambda_group_integral_oracle():
    """Apply pi_{0,1}(f) to a Gaussian and compare with a direct Riemann sum
    of the defining group integral, with F recovered by dense inverse
    transforms computed independently of the library code."""
    grid = GridSpec.linear(L=12.0, n=512)
    A = kernel_pi_rho_lambda(F, 0.0, 1.0, grid)
    u = grid.nodes
    gauss = np.exp(-u ** 2)
    got = A.apply(gauss.astype(complex))

    tm = F.terms[0]
    lam = 1.0
    ts = np.linspace(-1, 1, 81)[:-1] + 1.0 / 80
    xs = np.linspace(-1, 1, 81)[:-1] + 1.0 / 80
    wt, wx = ts[1] - ts[0], xs[1] - xs[0]
    # dense reconstructions of the b_a and b_b factors via their inverse
    # transforms followed by forward Riemann transforms
    ys = np.linspace(-460, 460, 16001)
    g_a = inverse_bump_on(tm.b_a, ys)
    zs = ys
    g_b = inverse_bump_on(tm.b_b, zs)
    Zc = np.trapezoid(g_b * np.exp(-1j * lam * zs), zs)
    thetas = np.linspace(-40, 40, 6001)
    G = np.trapezoid(g_a[None, :] * np.exp(1j * np.outer(thetas, ys)), ys, axis=1)

    out = np.zeros(len(u), dtype=complex)
    for t, bt in zip(ts, tm.b_t(ts)):
        if bt == 0:
            continue
        et = math.exp(t)
        for x, bx in zip(xs, tm.b_x(xs)):
            if bx == 0:
                continue
            theta = lam * (et * u - x / 2.0)
            Gv = np.interp(theta, thetas, G.real) + 1j * np.interp(theta, thetas, G.imag)
            out += (wt * wx * tm.coeff * bt * bx * math.exp(t / 2.0)
                    * Zc * Gv * np.exp(-(et * u - x) ** 2))
    err = l2(grid, got - out) / l2(grid, out)
    assert err < 1e-3


def test_pi_ell_group_integral_oracle():
    grid = GridSpec.linear(L=12.0, n=512)
    A = kernel_pi_ell(F, 1.0, 1.0, grid)
    v = grid.nodes
    gauss = np.exp(-v ** 2)
    got = A.apply(gauss.astype(complex))

    tm = F.terms[0]
    ts = np.linspace(-1, 1, 81)[:-1] + 1.0 / 80
    xs = np.linspace(-1, 1, 161)[:-1] + 1.0 / 160
    wt, wx = ts[1] - ts[0], xs[1] - xs[0]
    ys = np.linspace(-460, 460, 16001)
    g_a = inverse_bump_on(tm.b_a, ys)
    g_b = inverse_bump_on(tm.b_b, ys)
    Zb = np.trapezoid(g_b, ys)
    thetas = np.linspace(0, 4.0e5, 400001)
    H = np.trapezoid(g_a[None, :] * np.exp(-1j * np.outer(thetas[:2], ys)), ys, axis=1)

    def H_at(th):
        # b_a factor via Riemann transform on demand (theta can be huge but
        # the factor vanishes once theta leaves the bump support)
        th = np.asarray(th)
        out = np.zeros(th.shape, complex)
        small = np.abs(th) <= 50.0
        if np.any(small):
            out[small] = np.trapezoid(
                g_a[None, :] * np.exp(-1j * np.outer(th[small], ys)), ys, axis=1)
        return out

    out = np.zeros(len(v), dtype=complex)
    for t, bt in zip(ts, tm.b_t(ts)):
        if bt == 0:
            continue
        Hv = H_at(np.exp(t - v))  # nu = 1
        phase = np.exp(-1j * np.outer(np.exp(v - t), xs))  # mu = 1
        xsum = phase @ (tm.b_x(xs) * wx)
        out += wt * tm.coeff * bt * Zb * Hv * xsum * np.exp(-(v - t) ** 2)
    err = l2(grid, got - out) / l2(grid, out)
    assert err < 1e-3


def test_pi_ell_toeplitz_at_origin():
    A = kernel_pi_ell(F, 0.0, 0.0, LIN)
    e = A.entries
    assert np.array_equal(e[1:, 1:], e[:-1, :-1])


def test_pi_ell_orbit_flow_invariance():
    base = op_norm(kernel_pi_ell(F, 1.0, 1.0, LIN))
    for t in (0.5, -0.7):
        moved = op_norm(kernel_pi_ell(F, math.exp(t), math.exp(-t), LIN))
        assert abs(moved - base) < 1e-6 * max(1.0, base)


def test_pi_ell_gamma_equivalence():
    a = op_norm(kernel_pi_ell(F, 1.0, 1.0, LIN))
    b = op_norm(kernel_pi_ell(F, -1.0, -1.0, LIN))
    assert abs(a - b) < 1e-6 * max(1.0, a)


def test_tau_models_agree_across_sigma():
    plus = kernel_tau(F, 1.0, 1.0, GridSpec.log_half_line(1, 6.0, 128))
    minus = kernel_tau(F, 1.0, 1.0, GridSpec.log_half_line(-1, 6.0, 128))
    assert abs(op_norm(plus) - op_norm(minus)) < 1e-8


def test_tau_matches_pi_ell_norm():
    big = GridSpec.linear(L=10.0, n=256)
    a = op_norm(kernel_pi_ell(F, 1.0, 0.5, big))
    b = op_norm(kernel_tau(F, 1.0, 0.5, GridSpec.log_half_line(1, 10.0, 256)))
    assert abs(a - b) < 1e-6 * max(1.0, a)


def test_intertwining_flip_exact():
    for rho, lam in ((0.0, 1.0), (2.0, -0.7)):
        A = kernel_pi_rho_lambda(F, rho, lam, LIN)
        G = kernel_pi_rho_lambda(F, rho, lam, LIN, twist=True)
        S = flip_S(LIN)
        lhs = (S @ A @ S).entries
        scale = np.abs(A.entries).max()
        assert np.abs(lhs - G.entries).max() <= 1e-12 * scale


def test_flip_commutes_with_vk_exact():
    lin = GridSpec.linear(L=8.0, n=128)
    V = vk_operator(3.0, 0.5, PAIR, lin)
    Slin = flip_S(lin)
    Spair = flip_S(PAIR)
    lhs = (Slin @ V).entries
    rhs = (V @ Spair).entries
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(V.entries).max(), 1.0)


def eta_bump(pair, centre=0.0, width=1.0):
    vals = np.zeros(pair.n)
    plus, _ = pair.parts
    r = (plus.nodes - centre) / width
    m = np.abs(r) < 1
    vals[:plus.n][m] = np.exp(-1 / (1 - r[m] ** 2))
    return vals.astype(complex)


def test_vk_isometry_and_adjoint_formula():
    lin = GridSpec.linear(L=8.0, n=512)
    pair = GridSpec.log_pair(V=6.0, n=384)
    rho_k, lam_k = 3.0, 0.5
    V = vk_operator(rho_k, lam_k, pair, lin)
    Vs = vk_adjoint(rho_k, lam_k, lin, pair)
    eta = eta_bump(pair)
    out = V.apply(eta)
    assert abs(l2(lin, out) / l2(pair, eta) - 1.0) < 1e-3
    # round trip V* V = id on well-covered vectors, up to the first-order
    # cell-projection error of the Galerkin discretization
    back = Vs.apply(out)
    assert l2(pair, back - eta) / l2(pair, eta) < 5e-3
    # the closed-form adjoint is adjoint to V in the inner products
    xi = np.exp(-(lin.nodes - 1.0) ** 2).astype(complex)
    ip_lin = np.sum(lin.weights * np.conj(V.apply(eta)) * xi)
    ip_pair = np.sum(pair.weights * np.conj(eta) * Vs.apply(xi))
    assert abs(ip_lin - ip_pair) / abs(ip_lin) < 1e-3


def test_vk_zero_phase_is_real():
    lin = GridSpec.linear(L=8.0, n=128)
    V = vk_operator(0.0, 0.5, PAIR, lin)
    assert np.abs(V.entries.imag).max() == 0.0


def test_character_decay_and_linearity():
    v0 = abs(character_value(F, 0.0))
    for tau in (500.0, 1000.0):
        assert abs(character_value(F, tau)) < v0 / tau ** 4
    two = F.scaled(2.0)
    assert abs(character_value(two, 1.3) - 2 * character_value(F, 1.3)) < 1e-12
    fine = character_value(F, 2.0, QuadratureSpec(128))
    assert abs(character_value(F, 2.0) - fine) < 1e-10


def test_interp_rows_reproduces_cubics():
    nodes = np.linspace(-3, 3, 41)
    targets = np.array([-2.3, 0.17, 1.9])
    P = interp_rows(nodes, targets)
    for poly in (lambda s: s ** 3 - s, lambda s: 1 + s ** 2):
        assert np.allclose(P @ poly(nodes), poly(targets), atol=1e-12)
    # outside the range: zero rows
    P2 = interp_rows(nodes, np.array([5.0]))
    assert np.all(P2 == 0)


def test_norm_continuity_and_vanishing_at_infinity():
    base = kernel_pi_rho_lambda(F, 0.0, 1.0, LIN)
    diffs = []
    for d in (0.4, 0.2, 0.1, 0.05):
        diffs.append(op_norm(kernel_pi_rho_lambda(F, d, 1.0, LIN) - base))
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < op_norm(base)
    far = op_norm(kernel_pi_rho_lambda(F, 64.0, 1.0, LIN))
    assert far < 1e-2 * op_norm(base)


def dense_pi_entries(f, rho, lam, grid, twist):
    """The generic kernel by the dense t-loop: hatF34 on every (u, x) pair."""
    t0, t1 = f.support_box[0]
    ts, ws = gauss_legendre_rule(t0, t1, max(64, int(abs(rho) * (t1 - t0) / 2) + 32))
    u = x = grid.nodes
    ent = np.zeros((grid.n, grid.n), dtype=complex)
    for t, w in zip(ts, ws):
        e = math.exp(t) * u
        a = e[:, None] - x[None, :]
        b = -(lam / 2.0) * (x[None, :] + e[:, None])
        if twist:
            a, b = -a, -b
        ent += (w * math.exp(t / 2.0) * np.exp(-1j * rho * t)) \
            * eval_hatF34(f, t, a, b, lam)
    return ent


def test_banded_pi_kernel_equals_dense_t_loop():
    """Two terms with off-centre x-bumps of unequal width: the band is the
    union of both supports, and the banded kernel is the dense one exactly."""
    g = TestFunction((
        SeparableTerm(1.0, BumpFactor(0.0, 1.0), BumpFactor(0.7, 0.5),
                      BumpFactor(0.0, 1.0), BumpFactor(0.0, 2.0)),
        SeparableTerm(0.5 - 0.3j, BumpFactor(0.2, 0.8), BumpFactor(-1.5, 1.2),
                      BumpFactor(0.3, 1.5), BumpFactor(0.1, 2.0)),
    ))
    for n in (64, 128):
        grid = GridSpec.linear(L=6.0, n=n)
        # rho = 200 raises the t-rule above the 64-node floor
        for rho, lam in ((0.0, 1.0), (2.5, -0.7), (200.0, 1.3)):
            for twist in (False, True):
                got = kernel_pi_rho_lambda(g, rho, lam, grid, twist=twist).entries
                assert np.any(got)
                assert np.array_equal(got, dense_pi_entries(g, rho, lam, grid, twist))
