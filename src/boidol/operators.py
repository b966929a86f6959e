"""Measure-aware kernel operators on discretized L^2 spaces.

A KernelOperator stores the kernel values K(u_i, x_j) of an integral
operator; application integrates against the domain measure, so the matrix
acting on plain coefficient vectors is entries @ diag(weights_dom).  The
L^2 -> L^2 operator norm is the largest singular value of the symmetrically
weighted matrix W_cod^(1/2) entries W_dom^(1/2).

A cutoff (multiplication by the indicator of a region) is kept as its
boolean indicator vector on the grid's nodes: `cutoff_M` returns it and
`KernelOperator.masked` applies it on the right, A o M, by keeping the
columns it selects and zeroing the rest.

Cutoffs, compressions and the rescaling unitaries leave many operators with
whole rows or columns of exact zeros.  The singular-value routines and the
dense composition work on the block of rows and columns holding a nonzero
and treat the rest as the exact zeros they are: an exact zero adds nothing
to a product and a zero row or column only appends zero singular values, so
only the rounding of the smaller LAPACK or BLAS call differs.

`op_norm` needs only the largest singular value.  It takes it from
Golub-Kahan-Lanczos bidiagonalization of that block, with full
reorthogonalization, from a fixed start vector: a few matrix-vector
products instead of an O(n^3) SVD.  It stops once the residual of the top
Ritz triple is at most 1e-14 of its value, and takes the full SVD when that
has not happened after 64 steps.  `compact_defect` needs a whole spectrum
and keeps the full SVD.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricGrid, NonFiniteOperator
from .grids import GridSpec

__all__ = [
    "KernelOperator",
    "IntervalSpec",
    "op_norm",
    "compact_defect",
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
        grid's weights; a cutoff mask is applied with `masked`, not here.
        The product runs on the nonzero block only: the rows of self and the
        columns of other that hold a nonzero, summed over the middle indices
        where both self's column and other's row hold one.  Every product
        left out has an exact zero factor, so the block is the dense product
        up to the rounding of a smaller BLAS call, and every entry outside
        it is an exact zero.  (A non-finite entry that meets only exact
        zeros is left out with them.)  When nothing is dropped it is the
        plain product.
        """
        if other.codomain.n != self.domain.n:
            raise ValueError("grid mismatch in composition")
        a, b, w = self.entries, other.entries, self.domain.weights
        rows, cols = a.any(axis=1), b.any(axis=0)
        mid = a.any(axis=0) & b.any(axis=1)
        if rows.all() and cols.all() and mid.all():
            ent = a @ (w[:, None] * b)
        else:
            ent = np.zeros((a.shape[0], b.shape[1]), np.result_type(a, w, b))
            ent[np.ix_(rows, cols)] = (a[np.ix_(rows, mid)]
                                       @ (w[mid, None] * b[np.ix_(mid, cols)]))
        return KernelOperator(other.domain, self.codomain, ent,
                              f"{self.label}.{other.label}")

    def masked(self, keep: np.ndarray) -> "KernelOperator":
        """The operator self o M_keep, M_keep the cutoff to a `cutoff_M` mask.

        Multiplying by an indicator on the right keeps the columns where
        `keep` is true and sets the others to exact zeros; no product is
        formed, so the kept entries are self's own.
        """
        return KernelOperator(self.domain, self.codomain,
                              np.where(keep, self.entries, 0), f"{self.label}.M")

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


def _nonzero_block(A: KernelOperator) -> np.ndarray | None:
    """A.weighted() on the rows and columns that hold a nonzero, or None
    when there are none.  Non-finite entries raise `NonFiniteOperator`.

    The singular values of a matrix are those of this block plus zeros.
    """
    W = A.weighted()
    if not np.all(np.isfinite(W)):
        raise NonFiniteOperator(f"non-finite entries in {A.label or 'operator'}")
    rows, cols = W.any(axis=1), W.any(axis=0)
    if not rows.any():
        return None
    return W if rows.all() and cols.all() else W[np.ix_(rows, cols)]


def _singular_values(A: KernelOperator) -> np.ndarray:
    """Singular values of A.weighted(), largest first, min(shape) of them.

    The path of `compact_defect`, whose value at rank r is entry r.  The SVD
    runs on the nonzero block and the result is padded with zeros, so entry
    r is 0 exactly when the block has rank <= r, and only the rounding of
    LAPACK on the smaller matrix differs.  A zero matrix gives zeros without
    running the SVD.
    """
    sv = np.zeros(min(A.entries.shape))
    block = _nonzero_block(A)
    if block is not None:
        s = np.linalg.svd(block, compute_uv=False)
        sv[:s.size] = s
    return sv


_LANCZOS_STEPS = 64
_LANCZOS_TOL = 1e-14


def _start_vector(n: int) -> np.ndarray:
    """A fixed pseudo-random vector in [-1, 1)^n: splitmix64 of 1..n.

    Being pseudo-random, it is neither even nor odd under a reflection of
    the nodes, so it meets a top singular vector of either parity.  It is
    built without `numpy.random`, whose import alone costs several MiB.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0 ** -52 - 1.0


def _orthogonalized(x: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x minus its projection on the orthonormal rows of Q, taken twice."""
    for _ in range(2):
        x = x - (Q.conj() @ x) @ Q
    return x


def _top_ritz(C: np.ndarray, coupling: float) -> tuple[float, float]:
    """The largest singular value of the bidiagonal C and the residual of its
    triple, `coupling` times the last entry of its left singular vector."""
    X, s, _ = np.linalg.svd(C)
    return float(s[0]), coupling * abs(X[-1, 0])


def _lanczos_norm(W: np.ndarray) -> tuple[float | None, int]:
    """(largest singular value of W, steps) by Golub-Kahan-Lanczos.

    Step k extends W V = U B, with B upper bidiagonal (alpha on the
    diagonal, beta above it), by one column of V and one of U, each
    reorthogonalized against all the earlier ones.  After each new entry of
    B, W and W^H map the bases built so far into each other through the
    leading block of B, up to that entry times the next basis vector.  So
    the top Ritz triple of that block has the entry times the last
    component of one of its singular vectors as its residual:
    beta_k |e_k^T x_1| for the square k x k block, and alpha_{k+1}
    |e_{k+1}^T y_1| for the k x (k+1) one.  The Ritz value is returned once
    that residual is at most `_LANCZOS_TOL` times it, and None after
    `_LANCZOS_STEPS` steps without that, or when W kills the start vector.
    An exhausted Krylov space gives a zero entry and so stops.
    """
    m, n = W.shape
    dtype = np.result_type(W, 1.0)
    U = np.zeros((_LANCZOS_STEPS, m), dtype)
    V = np.zeros((_LANCZOS_STEPS + 1, n), dtype)
    B = np.zeros((_LANCZOS_STEPS, _LANCZOS_STEPS + 1))
    v = _start_vector(n)
    V[0] = v / np.linalg.norm(v)
    for k in range(_LANCZOS_STEPS):
        u = W @ V[k]
        if k:
            u -= B[k - 1, k] * U[k - 1]
        u = _orthogonalized(u, U[:k])
        B[k, k] = alpha = np.linalg.norm(u)
        if k:
            theta, res = _top_ritz(B[:k, :k + 1].T, alpha)
            if res <= _LANCZOS_TOL * theta:
                return theta, k + 1
        elif alpha == 0.0:
            return None, 1
        U[k] = u / alpha
        # W^H u as conj(conj(u) W): no conjugate copy of W
        v = np.conj(np.conj(U[k]) @ W) - alpha * V[k]
        v = _orthogonalized(v, V[:k + 1])
        B[k, k + 1] = beta = np.linalg.norm(v)
        theta, res = _top_ritz(B[:k + 1, :k + 1], beta)
        if res <= _LANCZOS_TOL * theta:
            return theta, k + 1
        V[k + 1] = v / beta
    return None, _LANCZOS_STEPS


def op_norm(A: KernelOperator) -> float:
    """L^2 -> L^2 operator norm of the discretized kernel operator: the
    largest singular value of its nonzero block, by `_lanczos_norm`, or by
    the full SVD when that has not converged."""
    block = _nonzero_block(A)
    if block is None:
        return 0.0
    sigma, _ = _lanczos_norm(block)
    if sigma is None:
        sigma = float(np.linalg.svd(block, compute_uv=False)[0])
    return sigma


def compact_defect(A: KernelOperator, rank: int) -> float:
    """Distance (in operator norm) to the best rank-`rank` approximation."""
    sv = _singular_values(A)
    return float(sv[rank]) if rank < len(sv) else 0.0


@dataclass(frozen=True)
class IntervalSpec:
    """A cutoff region on the physical coordinate of a grid.

    kinds: 'left_open' (a,b]; 'right_open' [a,b); 'le' (-inf,b];
    'ge' [a,inf); 'lt' (-inf,b); 'gt' (a,inf); 'abs_le' {|u| <= b};
    'abs_ge' {|u| >= a}.  Boundary points belong to the closed side.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

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


def cutoff_M(spec: IntervalSpec, grid: GridSpec) -> np.ndarray:
    """The cutoff to `spec` on the grid's physical coordinate, as the boolean
    indicator vector of its nodes; apply it with `KernelOperator.masked`."""
    return spec.indicator(grid.points)


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
