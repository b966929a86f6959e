"""Measure-aware kernel operators on discretized L^2 spaces.

An operator maps its `domain` grid to its `codomain` grid by a kernel
K(u_i, x_j); application integrates against the domain measure, so the
matrix acting on plain coefficient vectors is entries @ diag(weights_dom).
The L^2 -> L^2 operator norm is the largest singular value of the
symmetrically weighted matrix W_cod^(1/2) entries W_dom^(1/2).

A `KernelOperator` stores the kernel as a dense matrix, `entries`.  A
`ToeplitzOperator` keeps near-convolution kernels as their terms, each
diag(l) T(b) diag(r) with T(b) Toeplitz: 2n - 1 samples of b and O(n)
factors.  Its `adjoint`, `masked`, `restricted`, sums and differences stay
structured, and its `entries` property builds the dense matrix on each
read, bit for bit what the same operations give on the dense kernel.  The
package reads that copy only where a dense routine needs it: the SVD of
`compact_defect`, `compose` (`@`), through which the limit constructions
read the blocks on V_k's log window, and `+` or `-` with a dense operator.
Both kinds have `domain`, `codomain`, `label`, `entries`, `nbytes`,
`apply`, `weighted`, `adjoint`, `masked`, `restricted`, `compose`, `+`
and `-`.

A `CompositeOperator` keeps a sum of products as their factors: a dense
base plus or minus terms sign * L diag(w) R on blocks of cells, L and R
dense factors (R possibly read as an adjoint, without a copy) and w the
middle grid's weights.  The degeneration checks build their differences
and products this way: A_k - sigma_k is A_k's entries minus sigma_k's thin
factors C diag(w) V*, and A_k V_k M a column block of A_k times V_k's
masked block, so no n x n or n x n_half array is formed besides A_k.  It
has `domain`, `codomain`, `label`, `entries` (the dense kernel, built on
each read), `adjoint`, `masked`, `+` and `-`; A - composite, A a
`KernelOperator`, keeps A's entries as the base without a copy.

A cutoff (multiplication by the indicator of a region) is kept as its
boolean indicator vector on the grid's nodes: `cutoff_M` returns it and
`masked` applies it on the right, A o M, by keeping the columns it selects
and zeroing the rest.

Cutoffs, compressions and the rescaling unitaries leave many operators with
whole rows or columns of exact zeros.  The singular-value routines and the
dense composition work on the block of rows and columns holding a nonzero
and treat the rest as the exact zeros they are: an exact zero adds nothing
to a product and a zero row or column only appends zero singular values, so
only the rounding of the smaller LAPACK or BLAS call differs.

`op_norm` needs only the largest singular value.  It takes it from
Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization, from
a fixed start vector: a few products with the weighted operator and its
adjoint instead of an O(n^3) SVD, from the nonzero block of a dense
operator, by FFTs for a `ToeplitzOperator`, and by products of the factors
for a `CompositeOperator`, the square-root weights applied to the vectors.
It stops once the residual of the top Ritz triple is at most 1e-14 of its
value, and takes the full SVD of the dense copy when that has not happened
after 64 steps.  A structured operator with no live term (a composite
whose factors never meet) is exactly zero and gives 0.0.  `compact_defect`
needs a whole spectrum and keeps the full SVD.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AsymmetricGrid, NonFiniteOperator
from .grids import GridSpec

__all__ = [
    "KernelOperator",
    "ToeplitzOperator",
    "CompositeOperator",
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

    @property
    def nbytes(self) -> int:
        return self.entries.nbytes

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
            shape, dtype = (a.shape[0], b.shape[1]), np.result_type(a, w, b)
            wb = w[mid, None] * b[np.ix_(mid, cols)]
            del b  # entries that `other` built on this read are freed here
            block = a[np.ix_(rows, mid)] @ wb
            del wb  # the result is allocated once the product's inputs are gone
            ent = np.zeros(shape, dtype)
            ent[np.ix_(rows, cols)] = block
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

    def restricted(self, domain: GridSpec = None,
                   codomain: GridSpec = None) -> "KernelOperator":
        """self between cell windows of its linear or log grids
        (`GridSpec.window`; None keeps the grid), as a view of its entries:
        the block of self on those rows and columns.  A window is placed by
        its `start`, so self's own grids may be windows of the same grid."""
        domain = self.domain if domain is None else domain
        codomain = self.codomain if codomain is None else codomain
        r, c = codomain.start - self.codomain.start, domain.start - self.domain.start
        return KernelOperator(domain, codomain,
                              self.entries[r:r + codomain.n, c:c + domain.n], self.label)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return KernelOperator(self.domain, self.codomain,
                              self.entries + other.entries, self.label)

    def __sub__(self, other):
        if isinstance(other, CompositeOperator):
            return NotImplemented  # stays factored: CompositeOperator.__rsub__
        return KernelOperator(self.domain, self.codomain,
                              self.entries - other.entries, self.label)

    def __mul__(self, c):
        return KernelOperator(self.domain, self.codomain, self.entries * c, self.label)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


class _Part(NamedTuple):
    """One near-convolution kernel sum_t coeff_t T(b_t) diag(col_t) on an
    n-cell grid, T(b)[i, j] = b[n - 1 - i + j], with (coeff, b, col) per
    term in `terms`, as its block on an operator's windows: conjugate-
    transposed when `adjoint`, zero outside the `rows` and `cols` masks
    (None keeps all), times `sign`."""

    terms: tuple
    adjoint: bool = False
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    sign: float = 1.0

    def kernel_block(self, rows: slice, cols: slice) -> np.ndarray:
        """The kernel on the given cells: coeff * T(b) * col per term, T(b)
        a strided view of b, summed in term order."""
        ent = None
        for coeff, b, col in self.terms:
            term = np.multiply(coeff, sliding_window_view(b, len(col))[::-1][rows, cols],
                               dtype=complex)
            term *= col[cols]
            if ent is None:
                ent = term
            else:
                ent += term
        if ent is None:
            ent = np.zeros((rows.stop - rows.start, cols.stop - cols.start), complex)
        return ent

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """This part without its sign on the given cells of its operator."""
        out = (np.conj(self.kernel_block(cols, rows)).T if self.adjoint
               else self.kernel_block(rows, cols))
        # out is a fresh array (a kernel block or its conjugate transpose),
        # so the masks are applied in place
        if self.cols is not None:
            out[:, ~self.cols] = 0
        if self.rows is not None:
            out[~self.rows] = 0
        return out


class _Toeplitz:
    """T[i, j] = s[mu - 1 - i + j] (mu rows) and its adjoint by FFTs of
    length len(s) + 1: each product is a window of a linear convolution with
    s or its reverse, which that circular one holds without wrapping."""

    def __init__(self, s: np.ndarray, mu: int):
        self.mu, self.pu, self.size = mu, len(s) - mu + 1, len(s) + 1
        self.forward = np.fft.fft(s[::-1], self.size)
        self.backward = np.fft.fft(s, self.size)

    def dot(self, x: np.ndarray) -> np.ndarray:
        y = np.fft.ifft(self.forward * np.fft.fft(x, self.size))
        return y[self.pu - 1:self.pu - 1 + self.mu]

    def hdot(self, y: np.ndarray) -> np.ndarray:
        z = np.fft.ifft(self.backward * np.fft.fft(np.conj(y), self.size))
        return np.conj(z[self.mu - 1:self.mu - 1 + self.pu])


class _Products:
    """The sum of diag(l) op diag(r) over `terms` (op, adjoint, l, r), op a
    `_Toeplitz` or with adjoint its adjoint, on the columns `keep`: a matrix
    that `_lanczos_norm` reads through W @ v and u @ W."""

    __array_ufunc__ = None  # u @ W with an ndarray u calls __rmatmul__
    dtype = np.dtype(complex)

    def __init__(self, terms: list, m: int, keep: np.ndarray):
        self.terms, self.keep = terms, keep
        self.shape = (m, int(np.count_nonzero(keep)))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = np.zeros(len(self.keep), complex)
        x[self.keep] = v
        return sum(l * (t.hdot(r * x) if adjoint else t.dot(r * x))
                   for t, adjoint, l, r in self.terms)

    def __rmatmul__(self, u: np.ndarray) -> np.ndarray:
        # u @ W = conj(W^H conj(u)), W^H = sum of diag(conj r) op^H diag(conj l)
        y = np.conj(u)
        z = sum(np.conj(r) * (t.dot(np.conj(l) * y) if adjoint else t.hdot(np.conj(l) * y))
                for t, adjoint, l, r in self.terms)
        return np.conj(z[self.keep])


@dataclass(frozen=True, eq=False)
class ToeplitzOperator:
    """A sum of near-convolution kernels (`_Part`s) between cell windows of
    one grid, kept as their terms: O(n) memory each.

    `adjoint`, `masked`, `restricted`, and `+` and `-` with another one give
    operators of this kind; `compose` (`@`), `weighted`, and `+` and `-`
    with a dense operator go through `entries`; `op_norm` uses FFTs.
    """

    domain: GridSpec
    codomain: GridSpec
    parts: tuple
    label: str = ""

    @staticmethod
    def near_convolution(grid: GridSpec, terms, label: str = "") -> "ToeplitzOperator":
        """sum_t coeff_t T(b_t) diag(col_t) on the whole grid, from (coeff,
        b, col) per term: b the 2n - 1 samples, T(b)[i, j] = b[n - 1 - i + j],
        and col the n column factors."""
        return ToeplitzOperator(grid, grid, (_Part(tuple(terms)),), label)

    @property
    def entries(self) -> np.ndarray:
        """The dense kernel, built on each read: each part only on this
        operator's windows, the parts added in order, so bit for bit the
        entries the same operations give on the dense kernels (up to the
        sign of an exact zero)."""
        rows, cols = self.codomain.cells, self.domain.cells
        ent = None
        for p in self.parts:
            # each part's block is freed before the next one is built
            if ent is None:
                ent = p.block(rows, cols)
                if p.sign < 0:
                    np.negative(ent, out=ent)
            elif p.sign > 0:
                ent += p.block(rows, cols)
            else:
                ent -= p.block(rows, cols)
        return ent

    @property
    def nbytes(self) -> int:
        arrays = {id(a): a.nbytes for p in self.parts
                  for a in (p.rows, p.cols, *(x for _, b, col in p.terms for x in (b, col)))
                  if a is not None}
        return sum(arrays.values())

    def dense(self) -> KernelOperator:
        return KernelOperator(self.domain, self.codomain, self.entries, self.label)

    def apply(self, xi: np.ndarray) -> np.ndarray:
        products = self._products(np.ones(self.codomain.n), self.domain.weights)
        if products is None:
            return np.zeros(self.codomain.n, complex)
        return products @ xi[products.keep]

    def weighted(self) -> np.ndarray:
        return self.dense().weighted()

    def _with_parts(self, parts, domain=None, codomain=None, label=None) -> "ToeplitzOperator":
        """These parts between the given windows (default: self's)."""
        return ToeplitzOperator(domain or self.domain, codomain or self.codomain,
                                tuple(parts), self.label if label is None else label)

    def adjoint(self) -> "ToeplitzOperator":
        return self._with_parts((p._replace(adjoint=not p.adjoint, rows=p.cols, cols=p.rows)
                            for p in self.parts), self.codomain, self.domain,
                           f"({self.label})*")

    def masked(self, keep: np.ndarray) -> "ToeplitzOperator":
        return self._with_parts((p._replace(cols=keep if p.cols is None else p.cols & keep)
                            for p in self.parts), label=f"{self.label}.M")

    def restricted(self, domain: GridSpec = None,
                   codomain: GridSpec = None) -> "ToeplitzOperator":
        """As `KernelOperator.restricted`, each mask cut to the windows."""
        domain, codomain = domain or self.domain, codomain or self.codomain
        r, c = codomain.start - self.codomain.start, domain.start - self.domain.start

        def cut(mask, at, size):
            return None if mask is None else mask[at:at + size]

        return self._with_parts((p._replace(rows=cut(p.rows, r, codomain.n),
                                       cols=cut(p.cols, c, domain.n))
                            for p in self.parts), domain, codomain)

    def compose(self, other) -> KernelOperator:
        return self.dense().compose(other)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if isinstance(other, ToeplitzOperator) and (other.domain, other.codomain) == (
                self.domain, self.codomain):
            return self._with_parts(self.parts + other.parts)
        return self.dense() + other

    def __sub__(self, other):
        if isinstance(other, ToeplitzOperator):
            return self + other._with_parts(p._replace(sign=-p.sign) for p in other.parts)
        return self.dense() - other

    def _products(self, left: np.ndarray, right: np.ndarray) -> "_Products | None":
        """diag(left) self diag(right) as `_Products` on the columns where a
        term's right factor is nonzero, or None when there are none.

        A term is diag(l) op diag(r), op a Toeplitz block or its adjoint;
        the kernel's column factor is in r, or in l for an adjoint.  Terms
        with the same block and the same other factor are merged, the ones
        holding the column factor summed with their signs, so a difference
        of two kernels with one symbol is one term with r1 - r2, not a
        difference of two rounded products.  Non-finite factors or samples
        raise `NonFiniteOperator`.
        """
        m, p = self.codomain.n, self.domain.n
        rows, cols = self.codomain.cells, self.domain.cells
        groups = {}
        for part in self.parts:
            for coeff, b, col in part.terms:
                # the block's first row and column and its height in the
                # kernel, whose rows are this operator's columns for an adjoint
                r0, c0, mu = ((cols.start, rows.start, p) if part.adjoint
                              else (rows.start, cols.start, m))
                d = len(col) - mu - r0 + c0
                s = b[d:d + m + p - 1]
                if part.adjoint:
                    l, r = part.sign * np.conj(coeff * col[rows]) * left, right
                else:
                    l, r = left, (part.sign * coeff) * col[cols] * right
                if part.rows is not None:
                    l = np.where(part.rows, l, 0)
                if part.cols is not None:
                    r = np.where(part.cols, r, 0)
                key = (part.adjoint, mu, s.tobytes(), (r if part.adjoint else l).tobytes())
                if key not in groups:
                    groups[key] = [s, l, r]
                elif part.adjoint:
                    groups[key][1] = groups[key][1] + l
                else:
                    groups[key][2] = groups[key][2] + r
        terms, keep = [], np.zeros(p, bool)
        for (adjoint, mu, _, _), (s, l, r) in groups.items():
            if not (np.isfinite(s).all() and np.isfinite(l).all() and np.isfinite(r).all()):
                raise NonFiniteOperator(f"non-finite entries in {self.label or 'operator'}")
            if np.any(l) and np.any(r) and np.any(s):
                keep |= r != 0
                terms.append((_Toeplitz(s, mu), adjoint, l, r))
        return _Products(terms, m, keep) if terms else None


class _Adjoint:
    """The conjugate transpose of a matrix, read through products and
    `any` only, so no conjugate copy is made."""

    __array_ufunc__ = None  # y @ adjoint with an ndarray y calls __rmatmul__

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.shape = matrix.shape[::-1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.conj(np.conj(x) @ self.matrix)

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        return np.conj(self.matrix @ np.conj(y))

    def any(self, axis: int = None):
        return self.matrix.any(axis=None if axis is None else 1 - axis)


def _adjoint(a):
    """The conjugate transpose of a factor, without a copy."""
    return a.matrix if isinstance(a, _Adjoint) else _Adjoint(a)


def _dense(a) -> np.ndarray:
    """A factor as an array (a conjugate copy for an `_Adjoint`)."""
    return np.conj(a.matrix).T if isinstance(a, _Adjoint) else a


class _Term(NamedTuple):
    """sign * left diag(weights) right on the `rows` of a composite's
    codomain and the `cols` of its domain; left and right are arrays or
    `_Adjoint`s, and weights are the middle grid's."""

    left: object
    weights: np.ndarray
    right: object
    rows: slice
    cols: slice
    sign: float = 1.0


@dataclass(frozen=True, eq=False)
class CompositeOperator:
    """base + the sum of the `terms`, each a product kept as its two factors
    (`_Term`): sign * left diag(weights) right on a block of cells.

    `product` builds one term from two operators; `+` and `-` of two
    composites concatenate their terms, and A - composite, A a
    `KernelOperator`, keeps A's entries as the base without a copy.  So
    A_k - sigma_k is A_k's entries minus the thin factors of sigma_k, and
    A_k V_k M a product of a column block of A_k with V_k's block.
    `op_norm` reads it through the products W v and u W, the square-root
    weights applied to the vectors; `entries` builds the dense kernel on
    each read, for `compact_defect`, `op_norm`'s SVD fallback and anything
    else that needs the array.
    """

    domain: GridSpec
    codomain: GridSpec
    terms: tuple
    base: object = None  # None, an array or an `_Adjoint`
    label: str = ""

    @staticmethod
    def product(left, right, domain: GridSpec = None, codomain: GridSpec = None, *,
                adjoint: bool = False, cols: slice = None) -> "CompositeOperator":
        """left o right (left o right* when `adjoint`), kept as the two
        factors, between `domain` and `codomain` (default: right's domain
        and left's codomain).  The block sits on left's codomain cells and
        right's domain cells, placed by their `start` within the given
        grids, or on `cols` when given; the middle grid is left's domain.
        `left` and `right` are operators with `entries` (a
        `ToeplitzOperator` is made dense here); the adjoint of `right` is
        read through products, without a copy."""
        r_dom = right.codomain if adjoint else right.domain
        domain = domain or r_dom
        codomain = codomain or left.codomain
        if left.domain.n != (right.domain if adjoint else right.codomain).n:
            raise ValueError("grid mismatch in composition")
        r0 = left.codomain.start - codomain.start
        if cols is None:
            c0 = r_dom.start - domain.start
            cols = slice(c0, c0 + r_dom.n)
        factor = _Adjoint(right.entries) if adjoint else right.entries
        term = _Term(left.entries, left.domain.weights, factor,
                     slice(r0, r0 + left.codomain.n), cols)
        return CompositeOperator(domain, codomain, (term,))

    @property
    def entries(self) -> np.ndarray:
        """The dense kernel, built on each read: the base, then each term's
        left @ (weights * right) added on its block."""
        if self.base is None:
            ent = np.zeros((self.codomain.n, self.domain.n), complex)
        else:
            ent = np.array(_dense(self.base), dtype=complex)
        for t in self.terms:
            block = _dense(t.left) @ (t.weights[:, None] * _dense(t.right))
            if t.sign > 0:
                ent[t.rows, t.cols] += block
            else:
                ent[t.rows, t.cols] -= block
        return ent

    def _dot(self, x: np.ndarray) -> np.ndarray:
        """entries @ x from the factors."""
        out = (np.zeros(self.codomain.n, complex) if self.base is None
               else self.base @ x)
        for t in self.terms:
            y = t.left @ (t.weights * (t.right @ x[t.cols]))
            out[t.rows] += y if t.sign > 0 else -y
        return out

    def _rdot(self, y: np.ndarray) -> np.ndarray:
        """y @ entries from the factors."""
        out = (np.zeros(self.domain.n, complex) if self.base is None
               else y @ self.base)
        for t in self.terms:
            x = ((y[t.rows] @ t.left) * t.weights) @ t.right
            out[t.cols] += x if t.sign > 0 else -x
        return out

    def adjoint(self) -> "CompositeOperator":
        """The conjugate transpose, each factor read as its adjoint: no copy."""
        terms = tuple(_Term(_adjoint(t.right), t.weights, _adjoint(t.left), t.cols,
                            t.rows, t.sign) for t in self.terms)
        base = None if self.base is None else _adjoint(self.base)
        return CompositeOperator(self.codomain, self.domain, terms, base,
                                 f"({self.label})*")

    def masked(self, keep: np.ndarray) -> "CompositeOperator":
        """self o M_keep: each right factor with the columns outside `keep`
        set to exact zeros (copies of the factors).  Only a composite
        without a base is masked."""
        if self.base is not None:
            raise ValueError("masked needs a composite without a base")
        terms = tuple(t._replace(right=np.where(keep[t.cols], _dense(t.right), 0))
                      for t in self.terms)
        return CompositeOperator(self.domain, self.codomain, terms, None,
                                 f"{self.label}.M")

    def __add__(self, other):
        return _combined(self, other, 1.0)

    def __sub__(self, other):
        return _combined(self, other, -1.0)

    def __rsub__(self, other):
        return _combined(other, self, -1.0)

    def _products(self, left: np.ndarray, right: np.ndarray) -> "_Weighted | None":
        """diag(left) self diag(right) for `_lanczos_norm`, without the terms
        whose factors never meet (no middle index where left's column and
        right's row both hold a nonzero) and without an all-zero base, or
        None when nothing is left: then the operator is exactly zero."""
        base = self.base if self.base is not None and self.base.any() else None
        terms = tuple(t for t in self.terms
                      if (t.left.any(axis=0) & t.right.any(axis=1)).any())
        if base is None and not terms:
            return None
        return _Weighted(CompositeOperator(self.domain, self.codomain, terms, base),
                         left, right)


def _combined(x, y, sign: float) -> CompositeOperator:
    """x + sign * y as a `CompositeOperator`, y a composite without a base
    and x a composite or any operator (whose entries are then the base,
    without a copy): the terms are concatenated."""
    if not isinstance(y, CompositeOperator) or y.base is not None:
        raise ValueError("the right operand must be a composite without a base")
    bx, tx = (x.base, x.terms) if isinstance(x, CompositeOperator) else (x.entries, ())
    ty = y.terms if sign > 0 else tuple(t._replace(sign=-t.sign) for t in y.terms)
    return CompositeOperator(x.domain, x.codomain, tx + ty, bx, x.label)


class _Weighted:
    """diag(left) op diag(right), op a `CompositeOperator`, as a matrix that
    `_lanczos_norm` reads through W @ v and u @ W."""

    __array_ufunc__ = None  # u @ W with an ndarray u calls __rmatmul__
    dtype = np.dtype(complex)

    def __init__(self, op: CompositeOperator, left: np.ndarray, right: np.ndarray):
        self.op, self.left, self.right = op, left, right
        self.shape = (len(left), len(right))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.left * self.op._dot(self.right * v)

    def __rmatmul__(self, u: np.ndarray) -> np.ndarray:
        return self.op._rdot(u * self.left) * self.right


def _nonzero_block(A: KernelOperator) -> np.ndarray | None:
    """A.weighted() on the rows and columns that hold a nonzero, or None
    when there are none.  Non-finite entries raise `NonFiniteOperator`.

    The singular values of a matrix are those of this block plus zeros.
    The rows and columns are found on A's own entries: the weights are
    positive, so they make no entry zero or nonzero, and a NaN or an inf
    counts as nonzero, so it always lands in the block, where finiteness is
    checked.  Only the block is copied, or, when nothing is trimmed, the
    matrix is copied once with its codomain weights applied; the copy is
    scaled in place, codomain weights first and then domain weights, the
    order of `weighted()`, so every entry is bit for bit that of
    `weighted()`.
    """
    E = A.entries
    rows, cols = E.any(axis=1), E.any(axis=0)
    if not rows.any():
        return None
    root_cod, root_dom = np.sqrt(A.codomain.weights), np.sqrt(A.domain.weights)
    if rows.all() and cols.all():
        W = root_cod[:, None] * E
    else:
        W = E[np.ix_(rows, cols)]
        W *= root_cod[rows, None]
    W *= root_dom[cols]
    if not np.isfinite(W).all():
        raise NonFiniteOperator(f"non-finite entries in {A.label or 'operator'}")
    return W


def _singular_values(A: KernelOperator) -> np.ndarray:
    """Singular values of A.weighted(), largest first, min(shape) of them.

    The path of `compact_defect`, whose value at rank r is entry r.  The SVD
    runs on the nonzero block and the result is padded with zeros, so entry
    r is 0 exactly when the block has rank <= r, and only the rounding of
    LAPACK on the smaller matrix differs.  A zero matrix gives zeros without
    running the SVD.
    """
    sv = np.zeros(min(A.codomain.n, A.domain.n))
    block = _nonzero_block(A)
    if block is not None:
        s = np.linalg.svd(block, compute_uv=False)
        sv[:s.size] = s
    return sv


_LANCZOS_STEPS = 64
_LANCZOS_TOL = 1e-14
# rows of the Lanczos bases at the start; they double when full, up to
# _LANCZOS_STEPS, so a run of k steps holds O(k) basis vectors
_LANCZOS_FIRST_ROWS = 16


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


def _grown(Q: np.ndarray, rows: int) -> np.ndarray:
    """Q with zero rows appended up to `rows` rows."""
    out = np.zeros((rows, Q.shape[1]), Q.dtype)
    out[:len(Q)] = Q
    return out


def _top_ritz(C: np.ndarray, coupling: float) -> tuple[float, float]:
    """The largest singular value of the bidiagonal C and the residual of its
    triple, `coupling` times the last entry of its left singular vector."""
    X, s, _ = np.linalg.svd(C)
    return float(s[0]), coupling * abs(X[-1, 0])


def _lanczos_norm(W) -> tuple[float | None, int]:
    """(largest singular value of W, steps) by Golub-Kahan-Lanczos.

    W is a matrix, or any operator with `shape` and `dtype` that gives the
    products W @ v and u @ W (`_Products`): nothing else of it is read.

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
    `_LANCZOS_STEPS` steps without that, when W kills the start vector, or
    when an entry of B is not finite (a non-finite factor of a structured
    W, which the caller's dense fallback then reports).  An exhausted
    Krylov space gives a zero entry and so stops.
    """
    m, n = W.shape
    dtype = np.result_type(W.dtype, 1.0)
    U = np.zeros((_LANCZOS_FIRST_ROWS, m), dtype)
    V = np.zeros((_LANCZOS_FIRST_ROWS + 1, n), dtype)
    B = np.zeros((_LANCZOS_STEPS, _LANCZOS_STEPS + 1))
    v = _start_vector(n)
    V[0] = v / np.linalg.norm(v)
    for k in range(_LANCZOS_STEPS):
        if k == len(U):
            U, V = _grown(U, 2 * k), _grown(V, 2 * k + 1)
        u = W @ V[k]
        if k:
            u -= B[k - 1, k] * U[k - 1]
        u = _orthogonalized(u, U[:k])
        B[k, k] = alpha = np.linalg.norm(u)
        if not np.isfinite(alpha):
            return None, k + 1
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
        if not np.isfinite(beta):
            return None, k + 1
        theta, res = _top_ritz(B[:k + 1, :k + 1], beta)
        if res <= _LANCZOS_TOL * theta:
            return theta, k + 1
        V[k + 1] = v / beta
    return None, _LANCZOS_STEPS


def op_norm(A) -> float:
    """L^2 -> L^2 operator norm of the discretized kernel operator: the
    largest singular value of its weighted matrix, by `_lanczos_norm`, or
    by the full SVD of the nonzero block when that has not converged.

    A dense operator gives `_lanczos_norm` its nonzero block; a
    `ToeplitzOperator` its FFT products and a `CompositeOperator` the
    products of its factors, each its dense copy only for the SVD.  A
    structured operator with no live term is exactly zero and gives 0.0."""
    if isinstance(A, (ToeplitzOperator, CompositeOperator)):
        W = A._products(np.sqrt(A.codomain.weights), np.sqrt(A.domain.weights))
    else:
        W = _nonzero_block(A)
    if W is None:
        return 0.0
    sigma, _ = _lanczos_norm(W)
    if sigma is None:
        block = W if isinstance(W, np.ndarray) else _nonzero_block(A)
        sigma = float(np.linalg.svd(block, compute_uv=False)[0]) if block is not None else 0.0
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
    return {"kind": g.kind, "half_width": g.half_width, "n": g.n, "sigma": g.sigma,
            "start": g.start}


def save_operator(A: KernelOperator, path: str) -> None:
    """Self-describing dump: JSON header plus binary arrays in one .npz file.

    The header records each grid's `start`, so a block between cell windows
    (`GridSpec.window`) loads placed at the same cells."""
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
    # a header written before windows were saved has no start: a whole grid
    start = meta.get("start", 0)
    g = GridSpec(meta["kind"], meta["half_width"], meta["n"], nodes, weights,
                 sigma=meta["sigma"], start=start)
    if g.kind == "logpair":
        half = g.n // 2
        parts = (GridSpec("log", g.half_width, half, nodes[:half], weights[:half], 1,
                          start=start),
                 GridSpec("log", g.half_width, half, nodes[half:], weights[half:], -1,
                          start=start))
        object.__setattr__(g, "parts", parts)
    return g


def load_operator(path: str) -> KernelOperator:
    with np.load(path, allow_pickle=False) as d:
        header = json.loads(str(d["header"]))
        dom = _rebuild_grid(header["domain"], d["domain_nodes"], d["domain_weights"])
        cod = _rebuild_grid(header["codomain"], d["codomain_nodes"], d["codomain_weights"])
        return KernelOperator(dom, cod, d["entries"], header["label"])
