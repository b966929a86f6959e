"""Integral-kernel realizations of the irreducible representations.

All operators are built directly from the test function's partial Fourier
data: the generic representations as oscillatory t-integrals on a linear
grid (dense, the rows u < 0 mirrored through the flip automorphism), the
two-dimensional and half-line representations as near-convolution kernels
kept as their Toeplitz terms, and the characters as scalars.  The
rescaling unitary V_k and its adjoint connect the half-line models to the
linear model along a degenerating parameter sequence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AsymmetricGrid
from .grids import GridSpec, QuadratureSpec, gauss_legendre_rule
from .operators import KernelOperator
from .testfun import TestFunction, bump_fourier, eval_hatF34, eval_hatF234

__all__ = [
    "kernel_pi_rho_lambda",
    "kernel_pi_ell",
    "kernel_tau",
    "character_value",
    "vk_operator",
    "vk_adjoint",
]

# the t-quadrature of the generic kernel and the characters, and the
# x-quadrature of the near-convolution kernels
_QUAD = QuadratureSpec(64)


def _t_rule(f: TestFunction, osc: float, quad: QuadratureSpec):
    (t0, t1) = f.support_box[0]
    if t1 <= t0:
        return np.zeros(0), np.zeros(0)
    n = max(quad.n, int(abs(osc) * (t1 - t0) / 2) + 32)
    return gauss_legendre_rule(t0, t1, n)


# t-nodes whose band bounds are found together: a few dozen keep a block's
# (nodes x n/2) bound arrays small and share each bound pass among them
_T_BLOCK = 16


def _band_rows(x, tb, xs, cs, lo, hi):
    """e = e^t u on the rows u > 0 (i >= n/2) of the grid's nodes x, one row
    per t-node of the block tb, and each row's band: the columns with
    xs[0] <= e - x <= xs[1] and cs[0] <= x + e <= cs[1], widened by one
    on each side.  Returns e, the band widths and each row's first column
    less the band's running position, and widens lo and hi in place."""
    n = len(x)
    e = np.array([math.exp(t) for t in tb])[:, None] * x[n // 2:]
    left = np.maximum(e - xs[1], cs[0] - e)
    right = np.minimum(e - xs[0], cs[1] - e)
    start = np.maximum(np.searchsorted(x, left, "left") - 1, 0)
    stop = np.minimum(np.searchsorted(x, right, "right") + 1, n)
    width = np.maximum(stop - start, 0)
    live = width > 0
    np.minimum(lo, np.where(live, start, n).min(axis=0), out=lo)
    np.maximum(hi, np.where(live, stop, 0).max(axis=0), out=hi)
    start -= np.cumsum(width, axis=1) - width
    return e, width, start


def _add_pi_rows(ent, f: TestFunction, rho: float, lam: float,
                 grid: GridSpec, ts, ws, mirror: bool):
    """Add f's kernel rows u > 0 (i >= n/2) into the n x n `ent` at their
    flat indices idx, or with `mirror` at n^2 - 1 - idx, and return each
    row's first written column and one past its last (n and 0 if none)."""
    x, n = grid.nodes, grid.n
    xs, (a0, a1) = f.support_box[1:3]
    # x + e with a0 <= -(lam/2)(x + e) <= a1
    cs = sorted((-2.0 * a1 / lam, -2.0 * a0 / lam))
    row_at = n * np.arange(n // 2, n)  # each row's first flat index
    lo, hi = np.full(n // 2, n), np.zeros(n // 2, int)
    flat = ent.reshape(-1)
    for j in range(0, len(ts), _T_BLOCK):
        tb = ts[j:j + _T_BLOCK]
        e, width, shift = _band_rows(x, tb, xs, cs, lo, hi)
        sizes = width.sum(axis=1)
        pos = np.arange(sizes.max())
        for t, w, er, wd, sh, size in zip(tb, ws[j:j + _T_BLOCK], e, width,
                                           shift, sizes):
            # the band's points row by row: per-row values repeated over
            # the row's width, plus the running position inside the band
            cols = np.repeat(sh, wd)
            cols += pos[:size]
            idx = np.repeat(row_at + sh, wd)
            idx += pos[:size]
            a = np.repeat(er, wd)
            xc = x[cols]
            b = xc + a
            b *= -(lam / 2.0)
            a -= xc
            vals = eval_hatF34(f, t, a, b, lam)
            # the factor first, as in factor * vals: a complex product's
            # rounding depends on the operand order
            np.multiply(w * math.exp(t / 2.0) * np.exp(-1j * rho * t), vals, out=vals)
            if mirror:
                np.subtract(n * n - 1, idx, out=idx)
            # unbuffered; a node's indices are distinct, so this is `+=`
            np.add.at(flat, idx, vals)
    return lo, hi


def kernel_pi_rho_lambda(f: TestFunction, rho: float, lam: float,
                         grid: GridSpec) -> KernelOperator:
    """The generic representation applied to f, as a kernel on the linear grid.

    K(u, x) = integral of e^(t/2) e^(-i rho t)
              hatF34(t, e^t u - x, -(lam/2)(x + e^t u), lam) dt.

    Only the rows u > 0 are integrated.  The flip automorphism gives
    K_f(-u, -x) = K_g(u, x), g = `f.reflected()`, so the rows u < 0 are g's
    rows u > 0 mirrored: f's own written columns, reversed, when g == f
    (every x- and a-centre 0), else g's, added at the mirrored indices.
    Only band entries are written, so no page of the zeroed kernel outside
    the bands is faulted in.  On a mirror-symmetric grid (else
    `AsymmetricGrid`) each slot of hatF34 is the exact negative of the row
    u < 0's, so the entries are the full n x n t-loop's, bit for bit.

    hatF34 vanishes unless every slot lies in the support box of f.  For
    lam outside the b-support the kernel is zero and no t-node is visited.
    Otherwise, at each t-node hatF34 is evaluated only on a band: per row u,
    the x with the second slot in the x-support and the third slot in the
    a-support, that is e^t u - x in [x0, x1] and x + e^t u in
    [-2 a1/lam, -2 a0/lam] (ends swapped for lam < 0).  The band is the
    contiguous range of x found by bisection on the sorted nodes, widened
    by one column on each side, and no columns where the widened range is
    empty.  Outside the band every term has the exact factor 0.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if grid.kind != "linear":
        raise ValueError("kernel_pi_rho_lambda needs a linear grid")
    if not grid.is_symmetric():
        raise AsymmetricGrid("kernel_pi_rho_lambda needs a mirror-symmetric grid")
    n = grid.n
    b0, b1 = f.support_box[3]
    if not b0 < lam < b1:
        return KernelOperator.zero(grid, label=f"pi({rho},{lam})")
    ts, ws = _t_rule(f, rho, _QUAD)
    ent = np.zeros((n, n), dtype=complex)
    lo, hi = _add_pi_rows(ent, f, rho, lam, grid, ts, ws, False)
    g = f.reflected()
    if g != f:
        _add_pi_rows(ent, g, rho, lam, grid, ts, ws, True)
    else:
        for i, (l, h) in enumerate(zip(lo, hi), n // 2):
            ent[n - 1 - i, n - h:n - l] = ent[i, l:h][::-1]
    return KernelOperator(grid, grid, ent, f"pi({rho},{lam})")


def _near_convolution(f: TestFunction, mu: float, nu: float, grid: GridSpec,
                      sign: int, label: str) -> KernelOperator:
    """K(x_i, x_j) = hatF234(sign (x_i - x_j), mu e^(sign x_j), nu e^(-sign x_j), 0).

    The kernel is sum_t coeff_t T(b_t) diag(col_t), T(b)[i, j] =
    b[n - 1 - i + j], and is kept as those terms
    (`KernelOperator.near_convolution`): per term, b_t evaluated once on
    the 2n - 1 offsets h*(sign m), m = n - 1 down to 1 - n, and the column
    factor col_t, O(n) memory.  sign (x_i - x_j) is computed as h*(sign
    (i - j)), so the kernel is exactly Toeplitz and the diagonal shift is
    +0.0 for either sign.  `entries` gives the n x n matrix, each row a
    contiguous slice of the samples.
    """
    x = grid.nodes
    offsets = grid.weights[0] * (sign * np.arange(grid.n - 1, -grid.n, -1))
    terms = tuple((tm.coeff, tm.b_t(offsets),
                   bump_fourier(tm.b_x, mu * np.exp(sign * x), _QUAD)
                   * tm.b_a(nu * np.exp(-sign * x)) * tm.b_b(0.0))
                  for tm in f.terms)
    return KernelOperator.near_convolution(grid, terms, label)


def kernel_pi_ell(f: TestFunction, mu: float, nu: float,
                  grid: GridSpec) -> KernelOperator:
    """The representation attached to (0, mu, nu, 0) in the L^2(R) model.

    K(v, t) = hatF234(v - t, mu e^t, nu e^(-t), 0); for mu = nu = 0 this is
    a pure convolution kernel.
    """
    return _near_convolution(f, mu, nu, grid, 1, f"pi_ell({mu},{nu})")


def kernel_tau(f: TestFunction, mu: float, nu: float,
               grid: GridSpec) -> KernelOperator:
    """The half-line model on L^2(R_sigma, du/|u|) in log coordinates.

    K(v_i, v_j) = hatF234(v_j - v_i, mu e^(-v_j), nu e^(v_j), 0).  The
    kernel reads the grid's log nodes and weights only, not its sign, so it
    serves both signs of the half-line: the fields read every half-line
    value, of either half, on the plus grid (`fields.FieldGrids`).
    """
    if grid.kind != "log":
        raise ValueError("kernel_tau needs a log half-line grid")
    return _near_convolution(f, mu, nu, grid, -1,
                             f"tau({mu},{nu},{grid.sigma:+d})")


def character_value(f: TestFunction, tau: float,
                    quad: QuadratureSpec = _QUAD) -> complex:
    """Scalar value of the character representation at tau."""
    ts, ws = _t_rule(f, tau, quad)
    if len(ts) == 0:
        return 0.0 + 0.0j
    vals = eval_hatF234(f, ts, 0.0, 0.0, 0.0, quad)
    return complex(np.sum(ws * np.exp(-1j * tau * ts) * vals))


def vk_operator(rho_k: float, lambda_k: float, log_pair: GridSpec,
                lin_grid: GridSpec) -> KernelOperator:
    """The plus sign half of the rescaling unitary from L^2(R, du/|u|) to
    L^2(R, ds), as its nonzero block.

    (V_k eta)(s) = |s|^(-1/2) eta(|lambda_k| s) exp(i rho_k ln|lambda_k s|).

    Discretized as the cell-Galerkin matrix of the continuum map: entry
    (i, j) integrates the image of the j-th log-cell indicator over the
    i-th linear cell, which has a closed form in the coordinate
    w = ln(|lambda_k| s).  Between orthonormal cell bases this matrix is a
    compression of a unitary, so its operator norm never exceeds one and
    its conjugate transpose discretizes the adjoint map exactly.

    V_k maps each sign of u to the same sign of s: V_k = [V+ | V-], with V+
    nonzero only on the s > 0 rows and V- only on the s < 0 rows, and V- is
    V+ with its rows mirrored (row n - 1 - i of V- is row i of V+, bit for
    bit).  Only V+ is built, and only on its nonzero block: the operator
    returned maps the window of plus-half log cells that some s > 0 cell
    meets to the window of s > 0 linear cells that meet a log cell
    (`GridSpec.window` of `log_pair.parts[0]` and of `lin_grid`).  Every
    entry of V+ outside the two windows is an exact zero.  Both windows are
    contiguous, because the cell edges in w increase with s, and both are
    empty when no cell meets the log window.

    The entries are computed at once, as a band: each s > 0 row's cell cut
    to the log window, in w by `math.log`, then the log cells it meets,
    per-row values repeated over the row's width (as in `_add_pi_rows`).
    """
    if lambda_k == 0:
        raise ValueError("lambda_k must be nonzero")
    if log_pair.kind != "logpair":
        raise ValueError("vk_operator needs a logpair domain")
    plus, _ = log_pair.parts
    half = plus.n
    h_log = plus.weights[0]
    h_lin = lin_grid.weights[0]
    n = lin_grid.n
    al = abs(lambda_k)
    c = 0.5 + 1j * rho_k

    def antider(w):
        # integral of |s|^(1/2) e^(i rho w) dw with s = e^w / al
        return np.exp(c * w) / (c * math.sqrt(al))

    v_left = plus.nodes[0] - 0.5 * h_log  # = -V
    v_right = plus.nodes[-1] + 0.5 * h_log  # = +V
    scale = 1.0 / (h_lin * h_log)
    # each positive s row's cell [lo, hi] in w, cut to the log window [a, b]
    s = lin_grid.nodes[n // 2:]
    w_lo = [math.log(al * lo) if lo > 0 else -math.inf for lo in s - 0.5 * h_lin]
    w_hi = [math.log(al * hi) for hi in s + 0.5 * h_lin]
    a, b = np.maximum(w_lo, v_left), np.minimum(w_hi, v_right)
    meets = b > a
    rows, a, b = np.arange(n // 2, n)[meets], a[meets], b[meets]
    j0 = np.maximum(((a - v_left) // h_log).astype(int), 0)
    j1 = np.minimum(np.ceil((b - v_left) / h_log).astype(int), half)
    # the log cells j0 <= j < j1 row by row: per-row values repeated over
    # the row's width, plus the running position inside the band
    width = np.maximum(j1 - j0, 0)
    cols = np.arange(width.sum()) + np.repeat(j0 - (np.cumsum(width) - width), width)
    rows, a, b = np.repeat(rows, width), np.repeat(a, width), np.repeat(b, width)
    e0 = np.maximum(a, v_left + cols * h_log)
    e1 = np.minimum(b, v_left + (cols + 1) * h_log)
    keep = e1 > e0
    rows, cols, e0, e1 = rows[keep], cols[keep], e0[keep], e1[keep]
    vals = (antider(e1) - antider(e0)) * scale
    # Python ints, so the windows' starts stay JSON-serializable
    r0, r1 = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (n // 2, n // 2)
    c0, c1 = (int(cols.min()), int(cols.max()) + 1) if cols.size else (0, 0)
    ent = np.zeros((r1 - r0, c1 - c0), dtype=complex)
    ent[rows - r0, cols - c0] = vals
    return KernelOperator(plus.window(c0, c1), lin_grid.window(r0, r1), ent,
                          f"V({rho_k},{lambda_k})")


def vk_adjoint(rho_k: float, lambda_k: float, lin_grid: GridSpec,
               log_pair: GridSpec) -> KernelOperator:
    """The adjoint rescaling map of the plus sign half,

    (V_k* xi)(u) = (|u|^(1/2)/sqrt|lambda_k|) exp(-i rho_k ln|u|) xi(u/|lambda_k|),

    for u > 0, as `vk_operator`'s block read as its adjoint without a copy
    (`KernelOperator.adjoint`), so that adjointness holds exactly at matrix
    level: it maps the same window of s > 0 linear cells back to the same
    window of plus-half log cells.
    """
    return vk_operator(rho_k, lambda_k, log_pair, lin_grid).adjoint()
