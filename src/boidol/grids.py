"""Discretized Hilbert spaces and quadrature rules.

Functions on the line are sampled on half-offset uniform windows (so the node
u = 0 is never present and grids are exactly symmetric under u -> -u).  The
multiplication-invariant measure du/|u| on a signed half-line is realized in
logarithmic coordinates u = sigma*e^v, where it becomes the flat measure dv.

Gauss-Legendre rules on [-1, 1] are kept in one cache shared by every caller;
the rules a caller is missing are built together, in numpy, by one three-term
recurrence over all their nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricGrid

__all__ = ["QuadratureSpec", "GridSpec", "gauss_legendre_rule", "unit_rules"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre panel quadrature with `n` nodes per support interval."""

    n: int = 64

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 quadrature nodes")


_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre_pair(x: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) at each node, n = degree of the node's rule.

    The degrees must be non-increasing along x, so the nodes still recurring
    at step j (degree > j) are a prefix.  Each value comes from the same
    elementwise operations whatever else is in the batch, so a rule does not
    depend on the batch it was built in.
    """
    m, top = len(x), int(degree[0])
    # active[j]: the number of nodes whose rule has degree >= j
    active = np.searchsorted(-degree, -np.arange(top + 2), side="right")
    prev, cur, tmp = np.ones(m), x.copy(), np.empty(m)  # P_0, P_1
    pn, pn1 = np.empty(m), np.empty(m)
    for j in range(1, top + 1):
        k, done = active[j + 1], active[j]
        pn[k:done], pn1[k:done] = cur[k:done], prev[k:done]
        # P_{j+1} = x P_j + j/(j+1) (x P_j - P_{j-1}), into P_{j-1}'s buffer
        t = np.multiply(x[:k], cur[:k], out=tmp[:k])
        nxt = np.subtract(t, prev[:k], out=prev[:k])
        nxt *= j / (j + 1)
        nxt += t
        prev, cur = cur, prev
    return pn, pn1


def _build_rules(ns) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The rules of the distinct degrees `ns`, from one recurrence over all
    their nodes."""
    ns = sorted(ns, reverse=True)
    halves = [(n + 1) // 2 for n in ns]
    # the non-negative nodes of each rule, ascending; Tricomi's guesses are
    # within 2e-3 of the roots, so three quadratically converging Newton
    # steps reach rounding level
    guesses = []
    for n, h in zip(ns, halves):
        k = np.arange(h, 0, -1)
        guesses.append((1.0 - (n - 1) / (8.0 * n ** 3))
                       * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    x = np.concatenate(guesses)
    degree = np.repeat(np.asarray(ns, dtype=float), halves)
    starts = np.cumsum([0] + halves[:-1])

    def derivative(x):
        p, q = _legendre_pair(x, degree)
        return p, degree * (q - x * p) / (1.0 - x * x)

    for _ in range(3):
        p, dp = derivative(x)
        x = x - p / dp
    for n, s in zip(ns, starts):
        if n % 2:
            x[s] = 0.0
    _, dp = derivative(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rules = {}
    for n, s, h in zip(ns, starts, halves):
        xs, ws = x[s:s + h], w[s:s + h]
        mirror = slice(None, 0, -1) if n % 2 else slice(None, None, -1)
        xs = np.concatenate([-xs[mirror], xs])
        ws = np.concatenate([ws[mirror], ws])
        xs.flags.writeable = False
        ws.flags.writeable = False
        rules[n] = xs, ws
    return rules


def unit_rules(ns) -> list[tuple[np.ndarray, np.ndarray]]:
    """The read-only [-1, 1] Gauss-Legendre rules for the degrees `ns`.

    Every degree not yet in the shared cache is built in one batch, so a
    caller that needs many rules (as `bump_fourier` does) pays for one
    recurrence over all their nodes.  The cache keeps every rule for the
    life of the process and is bounded by the degrees its callers ask for:
    `bump_fourier` asks for quad.n and the 11 multiples of 64 up to 704,
    rules of 16n bytes each.  Every rule is computed the same way alone or
    in any batch, so the cache's contents do not depend on the order of the
    calls that filled it.
    """
    ns = [int(n) for n in ns]
    if any(n < 1 for n in ns):
        raise ValueError("a Gauss-Legendre rule needs at least 1 node")
    missing = {n for n in ns if n not in _RULES}
    if missing:
        _RULES.update(_build_rules(missing))
    return [_RULES[n] for n in ns]


def gauss_legendre_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the interval [a, b], read-only.

    The [-1, 1] rule depends on `n` alone and comes from the cache shared
    with `unit_rules` (built there as a batch of one if missing): three
    Newton steps on P_n from Tricomi's asymptotic guesses on the
    non-negative half, weights 2 / ((1 - x^2) P_n'(x)^2), then mirrored, so
    the nodes are exactly antisymmetric, the weights exactly symmetric and
    x = 0 is a node for odd n.  P_n and P_{n-1} come from the three-term
    recurrence in numpy, O(n^2) work instead of an n x n eigenproblem.
    Each call applies the affine map mid + half*x, half*w to the cached
    arrays.
    """
    (x, w), = unit_rules((n,))
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

    `start` is 0 except on a `window`, where it is the index of the window's
    first cell in the grid it was cut from (in each half, for a logpair).
    """

    kind: str
    half_width: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    sigma: int = 0
    parts: tuple = field(default=None, repr=False)
    start: int = 0

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

    def window(self, start: int, stop: int) -> "GridSpec":
        """The cells start, ..., stop - 1 as a grid of their own, with their
        nodes and weights, for the rows or columns of an operator block.  On
        a logpair grid it takes those cells of each half."""
        if self.kind == "logpair":
            parts = tuple(p.window(start, stop) for p in self.parts)
            return GridSpec("logpair", self.half_width, 2 * (stop - start),
                            np.concatenate([p.nodes for p in parts]),
                            np.concatenate([p.weights for p in parts]),
                            parts=parts, start=start)
        return GridSpec(self.kind, self.half_width, stop - start,
                        self.nodes[start:stop], self.weights[start:stop],
                        self.sigma, start=self.start + start)

    @property
    def cells(self) -> slice:
        """The slice of a window's cells in the grid it was cut from (in
        each half, for a logpair)."""
        return slice(self.start, self.start + self.n)

    @property
    def points(self) -> np.ndarray:
        """Physical coordinates of the nodes (u values for log grids)."""
        if self.kind == "linear":
            return self.nodes
        if self.kind == "log":
            return self.sigma * np.exp(self.nodes)
        return np.concatenate([p.points for p in self.parts])

    def is_symmetric(self) -> bool:
        """True iff the physical node set is exactly mirror-symmetric about 0."""
        if self.kind == "linear":
            return np.array_equal(self.nodes, -self.nodes[::-1])
        if self.kind == "logpair":
            p, m = self.parts
            return np.array_equal(p.points, -m.points)
        return False

    def __eq__(self, other):
        return (isinstance(other, GridSpec) and self.kind == other.kind
                and self.n == other.n and self.sigma == other.sigma
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.kind, self.n, self.sigma, self.half_width))
