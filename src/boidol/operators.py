"""Measure-aware kernel operators on discretized L^2 spaces.

A KernelOperator stores the kernel values K(u_i, x_j) of an integral
operator; application integrates against the domain measure, so the matrix
acting on plain coefficient vectors is entries @ diag(weights_dom).  The
L^2 -> L^2 operator norm is the largest singular value of the symmetrically
weighted matrix W_cod^(1/2) entries W_dom^(1/2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricGrid, NoConvergence
from .grids import GridSpec

__all__ = [
    "KernelOperator",
    "IntervalSpec",
    "op_norm",
    "compact_defect",
    "norm_and_defect",
    "cutoff_M",
    "flip_S",
    "save_operator",
    "load_operator",
]


@dataclass(frozen=True, eq=False)
class KernelOperator:
    domain: GridSpec
    codomain: GridSpec
    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.entries.shape != (self.codomain.n, self.domain.n):
            raise ValueError("entries shape must be (codomain.n, domain.n)")

    @staticmethod
    def zero(domain: GridSpec, codomain: GridSpec = None, label: str = "0") -> "KernelOperator":
        codomain = codomain or domain
        return KernelOperator(domain, codomain,
                              np.zeros((codomain.n, domain.n), complex), label)

    @staticmethod
    def identity(grid: GridSpec, label: str = "id") -> "KernelOperator":
        return KernelOperator(grid, grid, np.diag(1.0 / grid.weights).astype(complex), label)

    @staticmethod
    def diagonal(grid: GridSpec, values: np.ndarray, label: str = "") -> "KernelOperator":
        return KernelOperator(grid, grid,
                              np.diag(np.asarray(values) / grid.weights).astype(complex),
                              label)

    def apply(self, xi: np.ndarray) -> np.ndarray:
        return self.entries @ (self.domain.weights * xi)

    def weighted(self) -> np.ndarray:
        return (np.sqrt(self.codomain.weights)[:, None] * self.entries
                * np.sqrt(self.domain.weights)[None, :])

    def adjoint(self) -> "KernelOperator":
        return KernelOperator(self.codomain, self.domain,
                              np.conj(self.entries).T, f"({self.label})*")

    def compose(self, other: "KernelOperator") -> "KernelOperator":
        """The operator self o other (integration over the middle grid).

        The kernel is entries @ (w[:, None] * other.entries) with w the middle
        grid's weights.  When `other` is a real multiplication operator
        (square, real, every nonzero on the diagonal, as `cutoff_M` is), it
        is formed as a column scaling in O(n^2) instead of an O(n^3)
        product: the same products, with only exact zeros left out of each
        sum, so the result is the same.  A complex diagonal takes the
        product: BLAS may fuse its complex multiply-adds, which a column
        scaling would not round the same way.
        """
        if other.codomain.n != self.domain.n:
            raise ValueError("grid mismatch in composition")
        d = np.diagonal(other.entries)
        if (other.domain.n == other.codomain.n and not np.any(d.imag)
                and np.count_nonzero(other.entries) == np.count_nonzero(d)):
            ent = self.entries * (self.domain.weights * d)[None, :]
        else:
            ent = self.entries @ (self.domain.weights[:, None] * other.entries)
        return KernelOperator(other.domain, self.codomain, ent,
                              f"{self.label}.{other.label}")

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return KernelOperator(self.domain, self.codomain,
                              self.entries + other.entries, self.label)

    def __sub__(self, other):
        return KernelOperator(self.domain, self.codomain,
                              self.entries - other.entries, self.label)

    def __mul__(self, c):
        return KernelOperator(self.domain, self.codomain, self.entries * c, self.label)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def norm(self, method: str = "SVD", tol: float = 1e-10) -> float:
        return op_norm(self, method, tol)


def _singular_values(A: KernelOperator) -> np.ndarray:
    """Singular values of A.weighted(), largest first.

    The one SVD path of this module: the operator norm is entry 0 and the
    compact defect at rank r is entry r.  Non-finite entries raise; a zero
    matrix gives zeros without running the SVD.
    """
    W = A.weighted()
    if not np.all(np.isfinite(W)):
        raise ValueError("non-finite entries")
    if not np.any(W):
        return np.zeros(min(W.shape))
    return np.linalg.svd(W, compute_uv=False)


def op_norm(A: KernelOperator, method: str = "SVD", tol: float = 1e-10) -> float:
    """L^2 -> L^2 operator norm of the discretized kernel operator."""
    if method == "SVD":
        sv = _singular_values(A)
        return float(sv[0]) if sv.size else 0.0
    W = A.weighted()
    if not np.all(np.isfinite(W)):
        raise ValueError("non-finite entries")
    if method == "PowerIteration":
        if not np.any(W):
            return 0.0
        rng = np.random.default_rng(7)
        v = rng.standard_normal(W.shape[1]) + 1j * rng.standard_normal(W.shape[1])
        v /= np.linalg.norm(v)
        Wh = np.conj(W).T
        prev = 0.0
        for _ in range(10_000):
            u = Wh @ (W @ v)
            s = np.linalg.norm(u)
            if s == 0:
                return 0.0
            v = u / s
            est = np.sqrt(s)
            if abs(est - prev) <= tol * max(1.0, est):
                return float(est)
            prev = est
        raise NoConvergence("power iteration did not converge")
    raise ValueError(f"unknown method {method!r}")


def compact_defect(A: KernelOperator, rank: int) -> float:
    """Distance (in operator norm) to the best rank-`rank` approximation."""
    return norm_and_defect(A, rank)[1]


def norm_and_defect(A: KernelOperator, rank: int) -> tuple[float, float]:
    """(op_norm(A), compact_defect(A, rank)) from one SVD."""
    sv = _singular_values(A)
    return (float(sv[0]) if sv.size else 0.0,
            float(sv[rank]) if rank < len(sv) else 0.0)


@dataclass(frozen=True)
class IntervalSpec:
    """A cutoff region on the physical coordinate of a grid.

    kinds: 'closed' [a,b]; 'left_open' (a,b]; 'right_open' [a,b);
    'le' (-inf,b]; 'ge' [a,inf); 'lt' (-inf,b); 'gt' (a,inf);
    'abs_le' {|u| <= b}; 'abs_ge' {|u| >= a}.  Boundary points belong to the
    closed side.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    @staticmethod
    def closed(a, b):
        return IntervalSpec("closed", a, b)

    @staticmethod
    def left_open(a, b):
        return IntervalSpec("left_open", a, b)

    @staticmethod
    def right_open(a, b):
        return IntervalSpec("right_open", a, b)

    @staticmethod
    def le(b):
        return IntervalSpec("le", b=b)

    @staticmethod
    def ge(a):
        return IntervalSpec("ge", a=a)

    @staticmethod
    def lt(b):
        return IntervalSpec("lt", b=b)

    @staticmethod
    def gt(a):
        return IntervalSpec("gt", a=a)

    @staticmethod
    def abs_le(b):
        return IntervalSpec("abs_le", b=b)

    @staticmethod
    def abs_ge(a):
        return IntervalSpec("abs_ge", a=a)

    def indicator(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "closed":
            return (u >= self.a) & (u <= self.b)
        if self.kind == "left_open":
            return (u > self.a) & (u <= self.b)
        if self.kind == "right_open":
            return (u >= self.a) & (u < self.b)
        if self.kind == "le":
            return u <= self.b
        if self.kind == "ge":
            return u >= self.a
        if self.kind == "lt":
            return u < self.b
        if self.kind == "gt":
            return u > self.a
        if self.kind == "abs_le":
            return np.abs(u) <= self.b
        if self.kind == "abs_ge":
            return np.abs(u) >= self.a
        raise ValueError(f"unknown interval kind {self.kind!r}")


def cutoff_M(spec: IntervalSpec, grid: GridSpec) -> KernelOperator:
    """Multiplication by the indicator of `spec` on the grid's physical coordinate."""
    ind = spec.indicator(grid.points).astype(float)
    return KernelOperator.diagonal(grid, ind, f"M[{spec.kind}]")


def flip_S(grid: GridSpec) -> KernelOperator:
    """The reflection (S xi)(u) = xi(-u); an involution on symmetric grids."""
    if not grid.is_symmetric():
        raise AsymmetricGrid("flip requires a mirror-symmetric grid")
    n = grid.n
    ent = np.zeros((n, n), complex)
    if grid.kind == "linear":
        for i in range(n):
            j = n - 1 - i
            ent[i, j] = 1.0 / grid.weights[j]
    else:  # logpair: swap the two sign blocks, same v node
        half = n // 2
        for i in range(half):
            ent[i, half + i] = 1.0 / grid.weights[half + i]
            ent[half + i, i] = 1.0 / grid.weights[i]
    return KernelOperator(grid, grid, ent, "S")


def _grid_meta(g: GridSpec) -> dict:
    return {"kind": g.kind, "half_width": g.half_width, "n": g.n, "sigma": g.sigma}


def save_operator(A: KernelOperator, path: str) -> None:
    """Self-describing dump: JSON header plus binary arrays in one .npz file."""
    header = json.dumps({
        "format": "boidol-operator-v1",
        "label": A.label,
        "domain": _grid_meta(A.domain),
        "codomain": _grid_meta(A.codomain),
        "shape": list(A.entries.shape),
    }, sort_keys=True)
    np.savez(path, header=np.array(header),
             entries=A.entries,
             domain_nodes=A.domain.nodes, domain_weights=A.domain.weights,
             codomain_nodes=A.codomain.nodes, codomain_weights=A.codomain.weights)


def _rebuild_grid(meta: dict, nodes: np.ndarray, weights: np.ndarray) -> GridSpec:
    g = GridSpec(meta["kind"], meta["half_width"], meta["n"], nodes, weights,
                 sigma=meta["sigma"])
    if g.kind == "logpair":
        half = g.n // 2
        parts = (GridSpec("log", g.half_width, half, nodes[:half], weights[:half], 1),
                 GridSpec("log", g.half_width, half, nodes[half:], weights[half:], -1))
        object.__setattr__(g, "parts", parts)
    return g


def load_operator(path: str) -> KernelOperator:
    with np.load(path, allow_pickle=False) as d:
        header = json.loads(str(d["header"]))
        dom = _rebuild_grid(header["domain"], d["domain_nodes"], d["domain_weights"])
        cod = _rebuild_grid(header["codomain"], d["codomain_nodes"], d["codomain_weights"])
        return KernelOperator(dom, cod, d["entries"], header["label"])
