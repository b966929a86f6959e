"""Integral-kernel realizations of the irreducible representations.

All operators are built directly from the test function's partial Fourier
data: the generic representations as oscillatory t-integrals on a linear
grid, the two-dimensional and half-line representations as near-convolution
kernels, and the characters as scalars.  The rescaling unitary V_k and its
adjoint connect the half-line models to the linear model along a
degenerating parameter sequence.
"""

from __future__ import annotations

import math

import numpy as np

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
    "interp_rows",
]


def _t_rule(f: TestFunction, osc: float, quad: QuadratureSpec):
    (t0, t1) = f.support_box[0]
    if t1 <= t0:
        return np.zeros(0), np.zeros(0)
    n = max(quad.n, int(abs(osc) * (t1 - t0) / 2) + 32)
    return gauss_legendre_rule(t0, t1, n)


def kernel_pi_rho_lambda(f: TestFunction, rho: float, lam: float,
                         grid: GridSpec, tquad: QuadratureSpec = QuadratureSpec(64),
                         twist: bool = False) -> KernelOperator:
    """The generic representation applied to f, as a kernel on the linear grid.

    K(u, x) = integral of e^(t/2) e^(-i rho t)
              hatF34(t, e^t u - x, -(lam/2)(x + e^t u), lam) dt.
    With twist=True the composition with the flip automorphism is built
    instead (signs of the second and third slots reversed).

    The integrand vanishes unless the second slot lies in the x-support of
    f, so at each t-node hatF34 is evaluated only on that band: per row u,
    the contiguous range of x found by bisection on the sorted nodes, widened
    by one column.  Outside the band every term has the exact factor 0, so
    the entries are the same as summing over the full n x n array.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if grid.kind != "linear":
        raise ValueError("kernel_pi_rho_lambda needs a linear grid")
    ts, ws = _t_rule(f, rho, tquad)
    u = grid.nodes
    x = grid.nodes
    n = grid.n
    x0, x1 = f.support_box[1]
    ent = np.zeros((n, n), dtype=complex)
    flat = ent.reshape(-1)
    for t, w in zip(ts, ws):
        e = math.exp(t) * u
        # columns with x0 <= e - x <= x1 (twisted: x0 <= x - e <= x1)
        left, right = (e + x0, e + x1) if twist else (e - x1, e - x0)
        start = np.maximum(np.searchsorted(x, left, "left") - 1, 0)
        stop = np.minimum(np.searchsorted(x, right, "right") + 1, n)
        width = stop - start
        rows = np.repeat(np.arange(n), width)
        cols = np.arange(rows.size) + np.repeat(start - (np.cumsum(width) - width), width)
        a = e[rows] - x[cols]
        b = -(lam / 2.0) * (x[cols] + e[rows])
        if twist:
            a, b = -a, -b
        flat[rows * n + cols] += (w * math.exp(t / 2.0) * np.exp(-1j * rho * t)) \
            * eval_hatF34(f, t, a, b, lam)
    return KernelOperator(grid, grid, ent, f"pi({rho},{lam})")


def kernel_pi_ell(f: TestFunction, mu: float, nu: float, grid: GridSpec,
                  xquad: QuadratureSpec = QuadratureSpec(64)) -> KernelOperator:
    """The representation attached to (0, mu, nu, 0) in the L^2(R) model.

    K(v, t) = hatF234(v - t, mu e^t, nu e^(-t), 0); for mu = nu = 0 this is
    a pure convolution kernel.
    """
    t = grid.nodes
    idx = np.arange(grid.n)
    # v_i - t_j computed as h*(i - j) so convolution kernels are exactly Toeplitz
    diff = grid.weights[0] * (idx[:, None] - idx[None, :])
    ent = np.zeros((grid.n, grid.n), dtype=complex)
    for tm in f.terms:
        col = (bump_fourier(tm.b_x, mu * np.exp(t), xquad)
               * tm.b_a(nu * np.exp(-t)) * tm.b_b(0.0))
        ent += tm.coeff * tm.b_t(diff) * col[None, :]
    return KernelOperator(grid, grid, ent, f"pi_ell({mu},{nu})")


def kernel_tau(f: TestFunction, mu: float, nu: float, grid: GridSpec,
               xquad: QuadratureSpec = QuadratureSpec(64)) -> KernelOperator:
    """The half-line model on L^2(R_sigma, du/|u|) in log coordinates.

    K(v_i, v_j) = hatF234(v_j - v_i, mu e^(-v_j), nu e^(v_j), 0); the same
    kernel serves both signs of the half-line.
    """
    if grid.kind != "log":
        raise ValueError("kernel_tau needs a log half-line grid")
    v = grid.nodes
    idx = np.arange(grid.n)
    diff = grid.weights[0] * (idx[None, :] - idx[:, None])
    ent = np.zeros((grid.n, grid.n), dtype=complex)
    for tm in f.terms:
        col = (bump_fourier(tm.b_x, mu * np.exp(-v), xquad)
               * tm.b_a(nu * np.exp(v)) * tm.b_b(0.0))
        ent += tm.coeff * tm.b_t(diff) * col[None, :]
    return KernelOperator(grid, grid, ent, f"tau({mu},{nu},{grid.sigma:+d})")


def character_value(f: TestFunction, tau: float,
                    quad: QuadratureSpec = QuadratureSpec(64)) -> complex:
    """Scalar value of the character representation at tau."""
    ts, ws = _t_rule(f, tau, quad)
    if len(ts) == 0:
        return 0.0 + 0.0j
    vals = eval_hatF234(f, ts, 0.0, 0.0, 0.0, quad)
    return complex(np.sum(ws * np.exp(-1j * tau * ts) * vals))


def interp_rows(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation matrix on a uniform node set.

    Row r reconstructs a function value at targets[r] from the four nearest
    nodes; targets outside the node range give zero rows.
    """
    n = len(nodes)
    h = nodes[1] - nodes[0]
    out = np.zeros((len(targets), n))
    pos = (targets - nodes[0]) / h
    valid = (targets >= nodes[0] - 0.5 * h) & (targets <= nodes[-1] + 0.5 * h)
    j0 = np.clip(np.floor(pos).astype(int) - 1, 0, n - 4)
    for r in range(len(targets)):
        if not valid[r]:
            continue
        j = j0[r]
        xs = nodes[j:j + 4]
        t = targets[r]
        for m in range(4):
            others = np.delete(xs, m)
            out[r, j + m] = np.prod((t - others) / (xs[m] - others))
    return out


def vk_operator(rho_k: float, lambda_k: float, log_pair: GridSpec,
                lin_grid: GridSpec) -> KernelOperator:
    """The rescaling unitary from L^2(R, du/|u|) to L^2(R, ds).

    (V_k eta)(s) = |s|^(-1/2) eta(|lambda_k| s) exp(i rho_k ln|lambda_k s|).

    Discretized as the cell-Galerkin matrix of the continuum map: entry
    (i, j) integrates the image of the j-th log-cell indicator over the
    i-th linear cell, which has a closed form in the coordinate
    w = ln(|lambda_k| s).  Between orthonormal cell bases this matrix is a
    compression of a unitary, so its operator norm never exceeds one and
    its conjugate transpose discretizes the adjoint map exactly.
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
    ent = np.zeros((n, log_pair.n), dtype=complex)
    scale = 1.0 / (h_lin * h_log)
    for i in range(n // 2, n):  # positive s rows; negative rows mirrored
        s = lin_grid.nodes[i]
        lo, hi = s - 0.5 * h_lin, s + 0.5 * h_lin
        w_hi = math.log(al * hi)
        w_lo = math.log(al * lo) if lo > 0 else -math.inf
        a = max(w_lo, v_left)
        b = min(w_hi, v_right)
        if b <= a:
            continue
        j0 = max(int((a - v_left) // h_log), 0)
        j1 = min(int(math.ceil((b - v_left) / h_log)), half)
        for j in range(j0, j1):
            e0 = max(a, v_left + j * h_log)
            e1 = min(b, v_left + (j + 1) * h_log)
            if e1 <= e0:
                continue
            val = (antider(e1) - antider(e0)) * scale
            ent[i, j] = val
            ent[n - 1 - i, half + j] = val
    return KernelOperator(log_pair, lin_grid, ent, f"V({rho_k},{lambda_k})")


def vk_adjoint(rho_k: float, lambda_k: float, lin_grid: GridSpec,
               log_pair: GridSpec) -> KernelOperator:
    """The adjoint rescaling map,

    (V_k* xi)(u) = (|u|^(1/2)/sqrt|lambda_k|) exp(-i rho_k ln|u|) xi(u/|lambda_k|),

    realized as the conjugate transpose of the cell-Galerkin forward map so
    that adjointness holds exactly at matrix level.
    """
    A = vk_operator(rho_k, lambda_k, log_pair, lin_grid).adjoint()
    return KernelOperator(lin_grid, log_pair, A.entries,
                          f"V*({rho_k},{lambda_k})")
