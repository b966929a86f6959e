import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from boidol.cli import dstar_config, load_config
from boidol.errors import AsymmetricGrid
from boidol.grids import GridSpec, QuadratureSpec, gauss_legendre_rule
from boidol.kernels import (
    character_value,
    kernel_pi_ell,
    kernel_pi_rho_lambda,
    kernel_tau,
    vk_adjoint,
    vk_operator,
)
from boidol.operators import (
    KernelOperator,
    cutoff_M,
    flip_S,
    op_norm,
)
from boidol.testfun import (
    BumpFactor,
    SeparableTerm,
    TestFunction,
    bump_fourier,
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


def even_trapezoid_fourier(vals, nodes, freqs, rows=256):
    """Trapezoid rule for the integral of vals(s) e^(+-i w s) ds over the
    uniform `nodes`, at each w in `freqs`, for real `vals` even on nodes
    symmetric about 0: the sine part cancels, so this is the real cosine
    sum, as matvecs over chunks of `rows` frequencies.  It runs over every
    node, not folded onto s >= 0: the nodes are symmetric only to rounding,
    and the oracle errors below, small differences, would see the folded
    sum's rounding."""
    assert np.isrealobj(vals)
    assert np.allclose(nodes, -nodes[::-1], rtol=0, atol=1e-12 * nodes[-1])
    assert np.allclose(vals, vals[::-1], rtol=0, atol=1e-12 * np.abs(vals).max())
    tw = np.full(len(nodes), nodes[1] - nodes[0])
    tw[[0, -1]] *= 0.5
    wv = tw * vals
    return np.concatenate([np.cos(np.outer(freqs[i:i + rows], nodes)) @ wv
                           for i in range(0, len(freqs), rows)])


def inverse_bump_on(bump, ys):
    """The inverse transform of a centred (even) bump at `ys`."""
    assert bump.centre == 0
    aa = np.linspace(*bump.support, 2001)
    return even_trapezoid_fourier(bump(aa), aa, ys) / (2 * np.pi)


def test_zero_function_gives_zero_operators():
    assert op_norm(kernel_pi_rho_lambda(ZERO, 0.0, 1.0, LIN)) == 0.0
    assert op_norm(kernel_pi_ell(ZERO, 1.0, 1.0, LIN)) == 0.0
    assert character_value(ZERO, 2.0) == 0.0


@functools.cache
def pi_rho_lambda_oracle_error() -> float:
    """Relative L^2 error of pi_{0,1}(f) applied to a Gaussian against a
    direct Riemann sum of the defining group integral, with F recovered by
    dense inverse transforms computed independently of the library code.
    Cached: the acceptance suite asserts on the same number."""
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
    G = even_trapezoid_fourier(g_a, ys, thetas)

    out = np.zeros(len(u), dtype=complex)
    for t, bt in zip(ts, tm.b_t(ts)):
        if bt == 0:
            continue
        et = math.exp(t)
        for x, bx in zip(xs, tm.b_x(xs)):
            if bx == 0:
                continue
            theta = lam * (et * u - x / 2.0)
            out += (wt * wx * tm.coeff * bt * bx * math.exp(t / 2.0)
                    * Zc * np.interp(theta, thetas, G) * np.exp(-(et * u - x) ** 2))
    return l2(grid, got - out) / l2(grid, out)


def test_pi_rho_lambda_group_integral_oracle():
    assert pi_rho_lambda_oracle_error() < 1e-3


@functools.cache
def pi_ell_oracle_error() -> float:
    """The same comparison for pi_ell(1, 1)(f); cached likewise."""
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

    def H_at(th):
        # b_a factor via Riemann transform on demand (theta can be huge but
        # the factor vanishes once theta leaves the bump support)
        out = np.zeros(th.shape, complex)
        small = np.abs(th) <= 50.0
        out[small] = even_trapezoid_fourier(g_a, ys, th[small])
        return out

    out = np.zeros(len(v), dtype=complex)
    for t, bt in zip(ts, tm.b_t(ts)):
        if bt == 0:
            continue
        Hv = H_at(np.exp(t - v))  # nu = 1
        phase = np.exp(-1j * np.outer(np.exp(v - t), xs))  # mu = 1
        xsum = phase @ (tm.b_x(xs) * wx)
        out += wt * tm.coeff * bt * Zb * Hv * xsum * np.exp(-(v - t) ** 2)
    return l2(grid, got - out) / l2(grid, out)


def test_pi_ell_group_integral_oracle():
    assert pi_ell_oracle_error() < 1e-3


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


def _default_config_reads(cfg):
    """Every (mu, nu) at which the checks of `cfg` read a half-line value,
    of either half, and every cutoff radius r they cut one at: 2c's limit
    points and R_k |lam_k|, the rate envelope's running points, and 2d's
    and 3c's three-zone points and zone edges."""
    points, radii = set(), set()
    for plan in cfg.plans_omega:
        eps = float(plan.eps)
        for w in [abs(plan.omega)] + [plan.w_k(k) for k in cfg.ks]:
            points |= {(eps * w, -eps), (-eps * w, eps)}
        radii |= {plan.Rk(k) * abs(plan.lam(k)) for k in cfg.ks}
    for plan in cfg.plans_zero:
        eps = float(plan.eps)
        points |= {(0.0, 0.0), (0.0, -eps), (0.0, eps)}
        for k in cfg.ks + cfg.ks_tau:
            w = plan.w_k(k)
            points |= {(w, 0.0), (-w, 0.0), (w, -eps), (-w, eps)}
            radii |= {plan.Rk(k) * abs(plan.lam(k)), w * plan.Sk(k), w * plan.Tk(k)}
    return sorted(points), sorted(radii)


def test_tau_models_agree_across_sigma():
    """The premise of reading the minus half-line model on the plus grid
    (`fields.FieldGrids`): on the default and the benchmark grid, at every
    (mu, nu) the default config reads, tau on the sigma = -1 grid has the
    entries of tau on the sigma = +1 grid, for a flip-invariant f and one
    that is not, and each cutoff u <= -r (u < -r) of the minus grid keeps
    the cells u >= r (u > r) keeps on the plus grid."""
    points, radii = _default_config_reads(dstar_config(load_config(None), 1))
    assert len(points) == 53 and len(radii) == 41
    for n_half in (384, 288):  # the default and the benchmark dstar grid
        plus, minus = (GridSpec.log_half_line(s, 6.0, n_half) for s in (1, -1))
        for r in radii:
            assert np.array_equal(cutoff_M(lambda u: u <= -r, minus),
                                  cutoff_M(lambda u: u >= r, plus)), r
            assert np.array_equal(cutoff_M(lambda u: u < -r, minus),
                                  cutoff_M(lambda u: u > r, plus)), r
        for f in (F, TWO_TERMS):
            for mu, nu in points:
                a, b = (kernel_tau(f, mu, nu, g).entries for g in (plus, minus))
                assert np.array_equal(a, b) and np.any(a), (mu, nu)


def test_tau_matches_pi_ell_norm():
    big = GridSpec.linear(L=10.0, n=256)
    a = op_norm(kernel_pi_ell(F, 1.0, 0.5, big))
    b = op_norm(kernel_tau(F, 1.0, 0.5, GridSpec.log_half_line(1, 10.0, 256)))
    assert abs(a - b) < 1e-6 * max(1.0, a)


def test_intertwining_flip_exact():
    for rho, lam in ((0.0, 1.0), (2.0, -0.7)):
        A = kernel_pi_rho_lambda(F, rho, lam, LIN)
        G = kernel_pi_rho_lambda(F.reflected(), rho, lam, LIN)
        S = flip_S(LIN)
        lhs = (S @ A @ S).entries
        scale = np.abs(A.entries).max()
        assert np.abs(lhs - G.entries).max() <= 1e-12 * scale


def _embedded(plus, pair, lin):
    """V_k = [V+ | V-] as the dense n x 2 n_half matrix, from V+'s nonzero
    block `plus`: the block on its cells in the plus columns, and its rows
    mirrored (s -> -s) on the same cells of the minus columns."""
    ent = np.zeros((lin.n, pair.n), complex)
    rows, cols, n, h = plus.codomain.cells, plus.domain.cells, lin.n, pair.n // 2
    ent[rows, cols] = plus.entries
    ent[n - rows.stop:n - rows.start, h + cols.start:h + cols.stop] = plus.entries[::-1]
    return ent


def vk_dense(rho_k, lam_k, pair, lin):
    """V_k as a dense operator, embedded from `vk_operator`'s block."""
    V = vk_operator(rho_k, lam_k, pair, lin)
    return KernelOperator(pair, lin, _embedded(V, pair, lin), V.label)


def vk_adjoint_dense(rho_k, lam_k, lin, pair):
    """V_k* as a dense operator, embedded from `vk_adjoint`'s block."""
    Vs = vk_adjoint(rho_k, lam_k, lin, pair)
    return KernelOperator(lin, pair, np.conj(_embedded(Vs.adjoint(), pair, lin)).T,
                          Vs.label)


def vk_cell_galerkin_reference(rho_k, lam_k, pair, lin):
    """The dense cell-Galerkin matrix of V_k, built over all n x 2 n_half
    cells: entry (i, j) of the plus columns integrates |s|^(1/2) e^(i rho w)
    over the overlap in w = ln(|lam_k| s) of linear cell i and log cell j,
    and row n - 1 - i of the minus columns repeats it."""
    plus, _ = pair.parts
    half, n = plus.n, lin.n
    h_log, h_lin = plus.weights[0], lin.weights[0]
    al, c = abs(lam_k), 0.5 + 1j * rho_k

    def antider(w):
        return np.exp(c * w) / (c * math.sqrt(al))

    v_left, v_right = plus.nodes[0] - 0.5 * h_log, plus.nodes[-1] + 0.5 * h_log
    ent = np.zeros((n, pair.n), dtype=complex)
    for i in range(n // 2, n):
        s = lin.nodes[i]
        lo, hi = s - 0.5 * h_lin, s + 0.5 * h_lin
        w_lo = math.log(al * lo) if lo > 0 else -math.inf
        a, b = max(w_lo, v_left), min(math.log(al * hi), v_right)
        for j in range(half):
            e0 = max(a, v_left + j * h_log)
            e1 = min(b, v_left + (j + 1) * h_log)
            if e1 > e0:
                val = (antider(e1) - antider(e0)) / (h_lin * h_log)
                ent[i, j] = val
                ent[n - 1 - i, half + j] = val
    return ent


def test_vk_blocks_embed_into_the_dense_cell_galerkin_matrix():
    """V+'s block from `vk_operator`, and its rows mirrored for V-, embed
    into the dense cell-Galerkin matrix bit for bit; the block of
    `vk_adjoint` is its conjugate transpose on the same windows, and each
    window is tight: its first and last row and column hold a nonzero."""
    lin = GridSpec.linear(L=8.0, n=128)
    for rho_k, lam_k in ((3.0, 0.5), (0.0, 0.5), (-7.5, -0.05), (64.0, 40.0)):
        V = vk_operator(rho_k, lam_k, PAIR, lin)
        want = vk_cell_galerkin_reference(rho_k, lam_k, PAIR, lin)
        assert _embedded(V, PAIR, lin).tobytes() == want.tobytes()
        Vs = vk_adjoint(rho_k, lam_k, lin, PAIR)
        assert Vs.domain == V.codomain and Vs.codomain == V.domain
        assert np.conj(Vs.entries).T.tobytes() == V.entries.tobytes()
        nz = V.entries != 0
        assert nz[[0, -1]].any(axis=1).all() and nz[:, [0, -1]].any(axis=0).all()
        assert np.count_nonzero(want) == 2 * np.count_nonzero(nz)


def test_flip_commutes_with_vk_exact():
    lin = GridSpec.linear(L=8.0, n=128)
    V = vk_dense(3.0, 0.5, PAIR, lin)
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
    V = vk_dense(rho_k, lam_k, pair, lin)
    Vs = vk_adjoint_dense(rho_k, lam_k, lin, pair)
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
    V = vk_dense(0.0, 0.5, PAIR, lin)
    assert np.abs(V.entries.imag).max() == 0.0


def test_vk_property_contraction_sign_support_and_mirror():
    """Over random (rho_k, lambda_k != 0) and grids: ||V_k|| <= 1, the plus
    half's columns vanish on the s < 0 rows and the minus half's on the
    s > 0 rows, and the minus half is the plus half with its rows mirrored,
    bit for bit; V_k embedded from V+'s block is the dense cell-Galerkin
    matrix, bit for bit."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        lin = GridSpec.linear(data.draw(st.floats(0.5, 16.0)),
                              2 * data.draw(st.integers(1, 64)))
        pair = GridSpec.log_pair(data.draw(st.floats(0.25, 8.0)),
                                 data.draw(st.integers(1, 48)))
        rho_k = data.draw(st.floats(-64.0, 64.0))
        lam_k = (data.draw(st.sampled_from((1.0, -1.0)))
                 * 10.0 ** data.draw(st.floats(-4.0, 2.0)))
        V = vk_dense(rho_k, lam_k, pair, lin)
        assert op_norm(V) <= 1.0 + 1e-12
        r, h = lin.n // 2, pair.parts[0].n
        ent = V.entries
        assert not np.any(ent[:r, :h]) and not np.any(ent[r:, h:])
        assert ent[:r, h:].tobytes() == ent[r:, :h][::-1].tobytes()
        want = vk_cell_galerkin_reference(rho_k, lam_k, pair, lin)
        assert ent.tobytes() == want.tobytes()

    check()


def test_character_decay_and_linearity():
    v0 = abs(character_value(F, 0.0))
    for tau in (500.0, 1000.0):
        assert abs(character_value(F, tau)) < v0 / tau ** 4
    two = F.scaled(2.0)
    assert abs(character_value(two, 1.3) - 2 * character_value(F, 1.3)) < 1e-12
    fine = character_value(F, 2.0, QuadratureSpec(128))
    assert abs(character_value(F, 2.0) - fine) < 1e-10


def test_norm_continuity_and_vanishing_at_infinity():
    base = kernel_pi_rho_lambda(F, 0.0, 1.0, LIN)
    diffs = []
    for d in (0.4, 0.2, 0.1, 0.05):
        diffs.append(op_norm(kernel_pi_rho_lambda(F, d, 1.0, LIN) - base))
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < op_norm(base)
    far = op_norm(kernel_pi_rho_lambda(F, 64.0, 1.0, LIN))
    assert far < 1e-2 * op_norm(base)


def dense_pi_entries(f, rho, lam, grid):
    """The generic kernel by the dense t-loop: hatF34 on every (u, x) pair."""
    t0, t1 = f.support_box[0]
    ts, ws = gauss_legendre_rule(t0, t1, max(64, int(abs(rho) * (t1 - t0) / 2) + 32))
    u = x = grid.nodes
    ent = np.zeros((grid.n, grid.n), dtype=complex)
    for t, w in zip(ts, ws):
        e = math.exp(t) * u
        a = e[:, None] - x[None, :]
        b = -(lam / 2.0) * (x[None, :] + e[:, None])
        ent += (w * math.exp(t / 2.0) * np.exp(-1j * rho * t)) \
            * eval_hatF34(f, t, a, b, lam)
    return ent


# two terms with off-centre bumps of unequal width
TWO_TERMS = TestFunction((
    SeparableTerm(1.0, BumpFactor(0.0, 1.0), BumpFactor(0.7, 0.5),
                  BumpFactor(0.0, 1.0), BumpFactor(0.0, 2.0)),
    SeparableTerm(0.5 - 0.3j, BumpFactor(0.2, 0.8), BumpFactor(-1.5, 1.2),
                  BumpFactor(0.3, 1.5), BumpFactor(0.1, 2.0)),
))


def test_banded_pi_kernel_equals_dense_t_loop():
    """Two terms with off-centre x-bumps of unequal width, and their
    reflection: the band is the union of both supports, and the banded
    kernel is the dense one exactly."""
    for g, n in itertools.product((TWO_TERMS, TWO_TERMS.reflected()), (64, 128)):
        grid = GridSpec.linear(L=6.0, n=n)
        # rho = 200 raises the t-rule above the 64-node floor; at lam = 1.9
        # the a-slot bound cuts most rows, and at lam = 2.05 only the second
        # term's b_b is nonzero
        for rho, lam in ((0.0, 1.0), (2.5, -0.7), (200.0, 1.3), (0.0, 1.9),
                         (0.5, 2.05)):
            got = kernel_pi_rho_lambda(g, rho, lam, grid).entries
            assert np.any(got)
            assert np.array_equal(got, dense_pi_entries(g, rho, lam, grid))


class RecordingHatF34:
    """Stands in for `eval_hatF34` in `boidol.kernels`: evaluates it and
    keeps each call's function, arguments and values."""

    def __init__(self):
        self.log = []

    def __call__(self, f, t, a, b, lam):
        vals = eval_hatF34(f, t, a, b, lam)
        self.log.append((f, t, a, b, vals))
        return vals


@pytest.mark.parametrize("lam", [3.0, -2.5])
def test_pi_kernel_outside_b_support_is_zero_without_evaluation(monkeypatch, lam):
    """lam outside the b-support (-2, 2.1) of TWO_TERMS: the zero kernel,
    and no t-node visited."""
    rec = RecordingHatF34()
    monkeypatch.setattr("boidol.kernels.eval_hatF34", rec)
    for g in (TWO_TERMS, TWO_TERMS.reflected()):
        A = kernel_pi_rho_lambda(g, 0.5, lam, GridSpec.linear(6.0, 64))
        assert A.entries.shape == (64, 64) and not np.any(A.entries)
    assert rec.log == []


@pytest.mark.parametrize("rho, lam, two_terms", [(0.0, 1.0, False), (2.0, 0.5, False),
                                                (0.0, 1.0, True)])
def test_pi_kernel_band_is_tight(monkeypatch, rho, lam, two_terms):
    """At each t-node the band holds the points whose second and third slots
    lie in the support box of the function evaluated and at most two
    widening columns per row it reaches, in both passes for TWO_TERMS (f
    and f.reflected()).  The nonzero values are those points less the ones
    where a bump underflows to 0 near its support's edge."""
    rec = RecordingHatF34()
    monkeypatch.setattr("boidol.kernels.eval_hatF34", rec)
    grid = GridSpec.linear(L=8.0, n=128)
    f = TWO_TERMS if two_terms else F
    kernel_pi_rho_lambda(f, rho, lam, grid)
    assert len(rec.log) == (128 if two_terms else 64)
    assert {g for g, *_ in rec.log} == {f, f.reflected()}
    points = in_box = nonzero = rows = 0
    for g, t, a, b, vals in rec.log:
        (x0, x1), (a0, a1) = g.support_box[1:3]
        points += a.size
        in_box += np.count_nonzero((x0 <= a) & (a <= x1) & (a0 <= b) & (b <= a1))
        nonzero += np.count_nonzero(vals)
        # row u from a = e^t u - x and b = -(lam/2)(x + e^t u)
        u = (a - 2.0 * b / lam) / 2.0 * math.exp(-t)
        rows += np.unique(np.rint((u - grid.nodes[0]) / grid.weights[0])).size
    assert 0 < nonzero <= in_box
    assert points <= in_box + 2 * rows


def test_banded_pi_kernel_of_a_flip_even_function_equals_dense_t_loop():
    """The default function equals its reflection, so its rows u < 0 are
    its own rows u > 0 reversed: still the dense t-loop exactly."""
    assert F.reflected() == F
    for n in (64, 128):
        grid = GridSpec.linear(L=6.0, n=n)
        for rho, lam in ((0.0, 1.0), (2.5, -0.7), (200.0, 1.3), (0.0, 1.9)):
            got = kernel_pi_rho_lambda(F, rho, lam, grid).entries
            assert np.any(got)
            assert np.array_equal(got, dense_pi_entries(F, rho, lam, grid))


def test_pi_kernel_mirror_identity_is_exact():
    """K_f(-u, -x) = K_(f o gamma)(u, x) bit for bit: K = K[::-1, ::-1] for
    the flip-even default function, and K_f[::-1, ::-1] = K_(f.reflected())
    for TWO_TERMS, whose kernel is not mirror-symmetric."""
    grid = GridSpec.linear(L=6.0, n=128)
    for rho, lam in ((0.0, 1.0), (2.5, -0.7), (200.0, 1.3)):
        K = kernel_pi_rho_lambda(F, rho, lam, grid).entries
        assert np.any(K) and np.array_equal(K, K[::-1, ::-1])
        K = kernel_pi_rho_lambda(TWO_TERMS, rho, lam, grid).entries
        R = kernel_pi_rho_lambda(TWO_TERMS.reflected(), rho, lam, grid).entries
        assert not np.array_equal(K, K[::-1, ::-1])
        assert np.array_equal(K[::-1, ::-1], R)


@pytest.mark.parametrize("f, passes", [(F, 1), (TWO_TERMS, 2)], ids=["F", "TWO_TERMS"])
def test_pi_kernel_evaluates_only_rows_u_positive(monkeypatch, f, passes):
    """hatF34 is evaluated only on rows u > 0, one call per t-node in
    t-order: one pass for the flip-even default function, and a second pass
    (of f.reflected()) for TWO_TERMS."""
    rec = RecordingHatF34()
    monkeypatch.setattr("boidol.kernels.eval_hatF34", rec)
    lam = 0.5
    kernel_pi_rho_lambda(f, 2.0, lam, GridSpec.linear(L=8.0, n=128))
    ts = [t for _, t, *_ in rec.log]
    assert len(ts) == 64 * passes
    assert ts == ts[:64] * passes and ts[:64] == sorted(ts[:64])
    for _, t, a, b, _ in rec.log:
        # row u from a = e^t u - x and b = -(lam/2)(x + e^t u)
        u = (a - 2.0 * b / lam) / 2.0 * math.exp(-t)
        assert u.size and np.all(u > 0)


@pytest.mark.parametrize("f, rho, lam", [
    pytest.param(F, 0.0, 1.0, id="F"),
    pytest.param(TWO_TERMS, 0.0, 1.0, id="TWO_TERMS"),
    pytest.param(F, 256.0, 1 / 256, id="F-rho256"),
])
def test_pi_kernel_builds_without_a_half_size_temporary(f, rho, lam):
    """At n = 512 the traced peak of one build stays below the kernel plus
    n^2/2 complex entries, on the path that copies f's own rows reversed
    (F) and on the one that adds the reflected function's rows at mirrored
    indices (TWO_TERMS), and on the bench's longest t-rule, 288 nodes at
    rho = 256, lam = 1/256, whose band bounds are held one block of t-nodes
    at a time.  Read: 1.12, 1.29 and 1.30 times the kernel's 4 MiB."""
    grid = GridSpec.linear(L=12.0, n=512)
    kernel_pi_rho_lambda(f, rho, lam, grid)  # fills the shared rule cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A = kernel_pi_rho_lambda(f, rho, lam, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.any(A.entries[:256])
    assert peak < 1.5 * A.entries.nbytes


def test_pi_kernel_needs_a_mirror_symmetric_grid():
    with pytest.raises(AsymmetricGrid):
        kernel_pi_rho_lambda(F, 0.0, 1.0, LIN.window(0, 100))


def dense_near_convolution(f, mu, nu, grid, sign):
    """coeff * b_t(h sign (i - j)) * col[j], summed over the terms, with b_t
    evaluated on the full n x n array of offsets."""
    x, h = grid.nodes, grid.weights[0]
    i = np.arange(grid.n)
    ent = np.zeros((grid.n, grid.n), dtype=complex)
    for tm in f.terms:
        col = (bump_fourier(tm.b_x, mu * np.exp(sign * x), QuadratureSpec(64))
               * tm.b_a(nu * np.exp(-sign * x)) * tm.b_b(0.0))
        ent += tm.coeff * tm.b_t(h * sign * (i[:, None] - i[None, :])) * col[None, :]
    return ent


@pytest.mark.parametrize("n", [64, 254, 384])
def test_near_convolution_kernels_equal_dense_reference(n):
    """The Toeplitz view of b_t gives the entries of the dense n x n
    evaluation exactly, for pi_ell on the line and tau on both half-lines."""
    for mu, nu in ((0.0, 0.0), (1.0, 0.5), (-0.3, 2.0)):
        got = kernel_pi_ell(TWO_TERMS, mu, nu, GridSpec.linear(6.0, n)).entries
        assert np.any(got)
        assert np.array_equal(
            got, dense_near_convolution(TWO_TERMS, mu, nu, GridSpec.linear(6.0, n), 1))
        for sigma in (1, -1):
            grid = GridSpec.log_half_line(sigma, 6.0, n)
            got = kernel_tau(TWO_TERMS, mu, nu, grid).entries
            assert np.any(got)
            assert np.array_equal(got, dense_near_convolution(TWO_TERMS, mu, nu, grid, -1))


@pytest.mark.parametrize("sign", [1, -1])
def test_structured_kernels_match_their_dense_copies(sign):
    """pi_ell (sign +1, on the line) and tau (sign -1, on a half-line) of a
    two-term f stay near-convolution kernels, holding no n x n array, under
    `adjoint`, `masked`, `restricted` to a window and a difference of two
    values with the same symbol, and each has the entries of the same
    operations on the dense kernel, bit for bit; its FFT op_norm is within
    1e-13 relative of op_norm of those entries as a dense operator."""
    n = 96
    if sign == 1:
        grid, build = GridSpec.linear(6.0, n), kernel_pi_ell
    else:
        grid, build = GridSpec.log_half_line(1, 6.0, n), kernel_tau
    A, B = build(TWO_TERMS, 0.7, -1.0, grid), build(TWO_TERMS, 0.75, -1.0, grid)
    dA = KernelOperator(A.domain, A.codomain, A.entries, A.label)
    dB = KernelOperator(B.domain, B.codomain, B.entries, B.label)
    keep = cutoff_M(lambda u: u >= 0.3, grid)
    rows, cols = grid.window(n // 8, n - 5), grid.window(n // 4, 3 * n // 4)
    cases = {
        "plain": (A, dA),
        "adjoint": (A.adjoint(), dA.adjoint()),
        "masked": (A.masked(keep), dA.masked(keep)),
        "window": (A.restricted(cols, rows).masked(keep[cols.cells]),
                   dA.restricted(cols, rows).masked(keep[cols.cells])),
        "difference": (A - B, dA - dB),
        "adjoint difference": ((A - B).adjoint(), (dA - dB).adjoint()),
    }
    for name, (op, ref) in cases.items():
        assert op.nbytes < n * n * 16, name
        assert np.array_equal(op.entries, ref.entries), name
        want = op_norm(KernelOperator(ref.domain, ref.codomain, ref.entries))
        assert want > 0 and abs(op_norm(op) - want) <= 1e-13 * want, name
