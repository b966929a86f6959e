"""Compactly supported test functions stored through a partial Fourier transform.

A test function F on the group is represented by hatF34, its Fourier
transform in the last two variables, as a finite sum of separable mollifier
terms.  hatF34 is exactly zero outside a finite box, which is the standing
hypothesis of all the convergence estimates downstream.  The further
transform hatF234 (Fourier in the second variable as well) and the weighted
norm ||t*F||_1 are derived numerically per term.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnderresolved, WindowTooSmall
from .grids import QuadratureSpec, unit_rules

__all__ = [
    "BumpFactor",
    "SeparableTerm",
    "TestFunction",
    "GridSpec4D",
    "default_test_function",
    "eval_hatF34",
    "eval_hatF234",
    "bump_fourier",
    "l1_norm_F1",
    "to_json",
    "from_json",
]

# Relative magnitude of the mollifier Fourier transform drops below 1e-16
# once |alpha|*width exceeds about 1000; beyond this the value is hard zero.
FOURIER_CUTOFF = 1200.0


@dataclass(frozen=True)
class BumpFactor:
    """The standard mollifier exp(-1/(1-((s-c)/w)^2)) on |s-c| < w, else 0."""

    centre: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def __call__(self, s):
        """exp(-1/max(0, 1 - r^2)), r = (s - c)/w, over whole arrays: for
        |r| < 1 this is the mollifier, and elsewhere (|r| >= 1, inf or NaN)
        the max is +0.0, so the exponent is -inf and the value an exact 0."""
        r = np.asarray(s, dtype=float)
        if self.centre != 0:
            r = r - self.centre
        if self.width != 1:
            r = r / self.width
        with np.errstate(divide="ignore", over="ignore"):
            out = np.exp(-1.0 / np.fmax(0.0, 1.0 - r * r))
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        return self.centre - self.width, self.centre + self.width


@dataclass(frozen=True)
class SeparableTerm:
    """One separable summand coeff * b_t(t) b_x(x) b_a(a) b_b(b) of hatF34."""

    coeff: complex
    b_t: BumpFactor
    b_x: BumpFactor
    b_a: BumpFactor
    b_b: BumpFactor


@dataclass(frozen=True)
class TestFunction:
    terms: tuple[SeparableTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def support_box(self):
        """Smallest [t0,t1]x[x0,x1]x[a0,a1]x[b0,b1] containing all terms."""
        if not self.terms:
            return ((0.0, 0.0),) * 4
        boxes = []
        for pick in ("b_t", "b_x", "b_a", "b_b"):
            los, his = zip(*(getattr(tm, pick).support for tm in self.terms))
            boxes.append((min(los), max(his)))
        return tuple(boxes)

    def reflected(self) -> "TestFunction":
        """f o gamma, gamma(t, x, y, z) = (t, -x, -y, z) the flip automorphism:
        hatF34 with its x and a slots negated, so b_x and b_a centres negated."""
        return TestFunction(tuple(
            SeparableTerm(tm.coeff, tm.b_t, BumpFactor(-tm.b_x.centre, tm.b_x.width),
                          BumpFactor(-tm.b_a.centre, tm.b_a.width), tm.b_b)
            for tm in self.terms))

    def scaled(self, c: complex) -> "TestFunction":
        return TestFunction(tuple(
            SeparableTerm(tm.coeff * c, tm.b_t, tm.b_x, tm.b_a, tm.b_b)
            for tm in self.terms))


def default_test_function() -> TestFunction:
    """One term, coefficient 1, centred bumps of width 1 (width 2 in b)."""
    w1 = BumpFactor(0.0, 1.0)
    return TestFunction((SeparableTerm(1.0, w1, w1, w1, BumpFactor(0.0, 2.0)),))


def eval_hatF34(f: TestFunction, t, x, a, b):
    """Pointwise value of hatF34; exactly zero outside the support box."""
    total = 0.0 + 0.0j
    for tm in f.terms:
        total = total + tm.coeff * tm.b_t(t) * tm.b_x(x) * tm.b_a(a) * tm.b_b(b)
    return total


def bump_fourier(bump: BumpFactor, alpha, quad: QuadratureSpec) -> np.ndarray:
    """Forward transform integral of bump(x)*exp(-i*alpha*x) dx, vectorized.

    With the bump centred at c of width w, x = c + w*u turns it into
    w e^(-i alpha c) times the transform of the unit mollifier phi at
    alpha w.  phi is even and the Gauss-Legendre rule on [-1, 1] is exactly
    symmetric, so the rule's sum folds onto the non-negative nodes u_j as
    the real sum of g_j cos(alpha w u_j), g_j = 2 W_j phi(u_j) (the middle
    node of an odd rule counted once).  g takes n/2 evaluations of phi on
    the cached unit rule; the phase is applied only when c != 0.

    The node count is max(quad.n, m), m = int(|alpha|*w/2) + 64 rounded up
    to a multiple of 64: never fewer nodes than max(quad.n,
    int(|alpha|*w/2) + 64), and below the decay cutoff, beyond which the
    values are exact zeros, at most 11 degrees besides quad.n.  The alphas
    are grouped by node count and each group is one real (alphas x nodes)
    array summed along the nodes: the same elementwise product and the same
    pairwise sum as one alpha at a time, so every value equals the scalar
    computation bit for bit.  The rules of all the node counts are fetched
    in one `unit_rules` call; apart from that shared rule cache nothing is
    kept between calls.
    """
    if quad.n / (2.0 * bump.width) < 16:
        raise QuadratureUnderresolved(
            f"{quad.n} nodes give fewer than 16 per unit width {bump.width}")
    scalar = np.ndim(alpha) == 0
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    flat = alpha.ravel()
    if np.isnan(flat).any():
        raise ValueError("alpha must not be NaN")
    out = np.zeros(flat.shape, dtype=complex)
    aw = np.abs(flat) * bump.width
    live = np.flatnonzero(aw < FOURIER_CUTOFF)
    ladder = -(-((aw[live] / 2).astype(np.int64) + 64) // 64) * 64
    counts = np.maximum(quad.n, ladder)
    # the distinct counts, ascending: `np.unique` would import numpy.ma
    sizes = sorted(set(counts.tolist()))
    for n, (u, ws) in zip(sizes, unit_rules(sizes)):
        idx = live[counts == n]
        half = int(n) // 2
        u = u[half:]
        g = 2.0 * ws[half:] * BumpFactor(0.0, 1.0)(u)
        if n % 2:
            g[0] *= 0.5
        al = flat[idx]
        vals = bump.width * np.sum(g * np.cos((al * bump.width)[:, None] * u), axis=1)
        if bump.centre:
            vals = vals * np.exp(-1j * al * bump.centre)
        out[idx] = vals
    return complex(out[0]) if scalar else out.reshape(alpha.shape)


def eval_hatF234(f: TestFunction, t, a, b, c,
                 quad: QuadratureSpec = QuadratureSpec(64)):
    """hatF234(t, a, b, c): Fourier transform of hatF34 in its x slot.

    For separable terms the x-integral factorizes into a per-term bump
    transform, `bump_fourier` of the term's b_x at a.
    """
    t = np.asarray(t, dtype=float)
    total = None
    for tm in f.terms:
        val = tm.coeff * tm.b_t(t) * bump_fourier(tm.b_x, a, quad) \
            * tm.b_a(b) * tm.b_b(c)
        total = val if total is None else total + val
    if total is None:
        return np.zeros(np.broadcast(t, a, b, c).shape, dtype=complex)
    return total


@dataclass(frozen=True)
class GridSpec4D:
    """Grid for recovering F on its support in (t,x) and a decay window in (y,z)."""

    n_tx: int = 96
    n_yz: int = 4096
    yz_half_width: float = 450.0


def _check_boundary_decay(vals: np.ndarray, what: str):
    peak = float(np.max(np.abs(vals)))
    edge = float(max(np.max(np.abs(vals[:5])), np.max(np.abs(vals[-5:]))))
    if peak > 0 and edge >= 1e-10 * peak:
        raise WindowTooSmall(
            f"inverse transform of {what} is {edge/peak:.2e} of peak at the boundary")


@functools.cache
def l1_norm_F1(f: TestFunction, grid: GridSpec4D = GridSpec4D()) -> float:
    """The norm ||t*F(t,x,y,z)||_{L^1} of the test function weighted by t.

    F is recovered per term from hatF34 by inverse Fourier transform in the
    last two slots on the (y,z) window, each bump's inverse transform being
    the conjugate of its `bump_fourier` over 2 pi, with max(64, 32 ceil(w))
    nodes for a bump of width w, so no bump is too wide for its rule and no
    (y, node) table is formed.  Terms sharing the (b_a, b_b) pair
    are grouped so the (y,z) integral factorizes into 1-d integrals; distinct
    pairs fall back to an explicit 2-d sum per (t, x) node, which forms one
    n_yz x n_yz matrix per (t, x) cell: at n_tx = 8 and n_yz = 4096 that took
    12-13 s and peaked at 562 MiB on a 2-core x86-64 host.  Both arguments are
    frozen dataclasses, and the norm is computed once per (f, grid).
    """
    if not f.terms:
        return 0.0
    box = f.support_box
    (t0, t1), (x0, x1) = box[0], box[1]
    nt = grid.n_tx
    ht = (t1 - t0) / nt
    hx = (x1 - x0) / nt
    ts = t0 + ht * (np.arange(nt) + 0.5)
    xs = x0 + hx * (np.arange(nt) + 0.5)

    Y = grid.yz_half_width
    hy = 2.0 * Y / grid.n_yz
    ys = -Y + hy * (np.arange(grid.n_yz) + 0.5)

    groups: dict[tuple, list[SeparableTerm]] = {}
    for tm in f.terms:
        groups.setdefault((tm.b_a, tm.b_b), []).append(tm)

    ga_abs_int, gb_abs_int, gvals = {}, {}, {}
    for (ba, bb) in groups:
        # (1/2pi) int b(a) e^(iay) da is the conjugate of `bump_fourier`,
        # every bump being real; 32 nodes per unit of width meet its guard
        Ga, Gb = (np.conj(bump_fourier(b, ys, QuadratureSpec(max(64, 32 * math.ceil(b.width)))))
                  / (2.0 * math.pi) for b in (ba, bb))
        _check_boundary_decay(Ga, "b_a")
        _check_boundary_decay(Gb, "b_b")
        gvals[(ba, bb)] = (Ga, Gb)
        ga_abs_int[(ba, bb)] = float(np.sum(np.abs(Ga)) * hy)
        gb_abs_int[(ba, bb)] = float(np.sum(np.abs(Gb)) * hy)

    keys = list(groups)
    # amplitude of each group on the (t, x) plane
    amp = np.zeros((len(keys), nt, nt), dtype=complex)
    for gi, key in enumerate(keys):
        for tm in groups[key]:
            amp[gi] += tm.coeff * np.outer(tm.b_t(ts), tm.b_x(xs))

    tw = np.abs(ts) * ht * hx
    if len(keys) == 1:
        key = keys[0]
        total = float(np.sum(tw * np.abs(amp[0]).sum(axis=1)))
        return total * ga_abs_int[key] * gb_abs_int[key]

    Gas = np.stack([gvals[k][0] for k in keys])
    Gbs = np.stack([gvals[k][1] for k in keys])
    total = 0.0
    for i in range(nt):
        for j in range(nt):
            al = amp[:, i, j]
            if not np.any(al):
                continue
            A = (al[:, None] * Gas).T @ Gbs
            total += tw[i] * float(np.sum(np.abs(A))) * hy * hy
    return total


def to_json(f: TestFunction) -> str:
    doc = {"terms": [{
        "coeff": [tm.coeff.real if isinstance(tm.coeff, complex) else float(tm.coeff),
                  tm.coeff.imag if isinstance(tm.coeff, complex) else 0.0],
        "b_t": [tm.b_t.centre, tm.b_t.width],
        "b_x": [tm.b_x.centre, tm.b_x.width],
        "b_a": [tm.b_a.centre, tm.b_a.width],
        "b_b": [tm.b_b.centre, tm.b_b.width],
    } for tm in f.terms]}
    return json.dumps(doc, indent=2)


def from_json(text: str) -> TestFunction:
    doc = json.loads(text)
    terms = []
    for td in doc["terms"]:
        re, im = td["coeff"]
        terms.append(SeparableTerm(
            complex(re, im),
            *(BumpFactor(*td[k]) for k in ("b_t", "b_x", "b_a", "b_b"))))
    return TestFunction(tuple(terms))
