"""Discretized Hilbert spaces and quadrature rules.

Functions on the line are sampled on half-offset uniform windows (so the node
u = 0 is never present and grids are exactly symmetric under u -> -u).  The
multiplication-invariant measure du/|u| on a signed half-line is realized in
logarithmic coordinates u = sigma*e^v, where it becomes the flat measure dv.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_legendre

from .errors import AsymmetricGrid

__all__ = ["QuadratureSpec", "GridSpec", "gauss_legendre_rule"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre panel quadrature with `n` nodes per support interval."""

    n: int = 64

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 quadrature nodes")


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = eval_legendre(n, x)
    return p, n * (eval_legendre(n - 1, x) - x * p) / (1.0 - x * x)


@functools.lru_cache(maxsize=1024)
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the non-negative nodes, ascending; the guesses are within 2e-3 of the
    # roots, so three quadratically converging steps reach rounding level
    k = np.arange((n + 1) // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(3):
        p, dp = _legendre_with_derivative(n, x)
        x = x - p / dp
    if n % 2:
        x[0] = 0.0
    _, dp = _legendre_with_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    mirror = slice(None, 0, -1) if n % 2 else slice(None, None, -1)
    x = np.concatenate([-x[mirror], x])
    w = np.concatenate([w[mirror], w])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the interval [a, b], read-only.

    The [-1, 1] rule is computed once per `n` and cached (it depends on
    nothing else): three Newton steps on P_n from Tricomi's asymptotic
    guesses on the non-negative half, weights 2 / ((1 - x^2) P_n'(x)^2),
    then mirrored, so the nodes are exactly antisymmetric, the weights
    exactly symmetric and x = 0 is a node for odd n.  This is O(n^2) work in
    scipy's Legendre evaluation instead of an n x n eigenproblem.  Each call
    applies the affine map mid + half*x, half*w to the cached arrays.
    """
    x, w = _unit_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = mid + half * x, half * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True, eq=False)
class GridSpec:
    """A weighted sampling grid standing in for an L^2 space.

    kind 'linear':   window [-L, L] with measure dx; nodes are the x values.
    kind 'log':      window v in [-V, V] with measure dv; nodes are the v
                     values, and `points` gives u = sigma*e^v.
    kind 'logpair':  the direct sum of the sigma=+1 and sigma=-1 log grids
                     (a discretization of L^2(R, du/|u|)); vectors are the
                     plus-half samples followed by the minus-half samples.
    """

    kind: str
    half_width: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    sigma: int = 0
    parts: tuple = field(default=None, repr=False)

    @staticmethod
    def linear(L: float = 12.0, n: int = 512) -> "GridSpec":
        if n % 2:
            raise AsymmetricGrid("linear grids need even n for symmetry")
        h = 2.0 * L / n
        # node i is h*(i + 1/2 - n/2): exactly mirror-symmetric in floating point
        x = h * (np.arange(n) + 0.5 - n / 2)
        return GridSpec("linear", L, n, x, np.full(n, h))

    @staticmethod
    def log_half_line(sigma: int, V: float = 10.0, n: int = 512) -> "GridSpec":
        if sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        h = 2.0 * V / n
        v = h * (np.arange(n) + 0.5 - n / 2)
        return GridSpec("log", V, n, v, np.full(n, h), sigma=sigma)

    @staticmethod
    def log_pair(V: float = 10.0, n: int = 512) -> "GridSpec":
        plus = GridSpec.log_half_line(+1, V, n)
        minus = GridSpec.log_half_line(-1, V, n)
        return GridSpec(
            "logpair", V, 2 * n,
            np.concatenate([plus.nodes, minus.nodes]),
            np.concatenate([plus.weights, minus.weights]),
            parts=(plus, minus),
        )

    @property
    def points(self) -> np.ndarray:
        """Physical coordinates of the nodes (u values for log grids)."""
        if self.kind == "linear":
            return self.nodes
        if self.kind == "log":
            return self.sigma * np.exp(self.nodes)
        return np.concatenate([p.points for p in self.parts])

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """True iff the physical node set is mirror-symmetric about 0."""
        if self.kind == "linear":
            return bool(np.all(np.abs(self.nodes + self.nodes[::-1]) <= tol))
        if self.kind == "logpair":
            p, m = self.parts
            return bool(np.all(np.abs(p.points + m.points) <= tol))
        return False

    def __eq__(self, other):
        return (isinstance(other, GridSpec) and self.kind == other.kind
                and self.n == other.n and self.sigma == other.sigma
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.kind, self.n, self.sigma, self.half_width))
