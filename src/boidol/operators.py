"""Measure-aware kernel operators on discretized L^2 spaces.

An operator maps its `domain` grid to its `codomain` grid by a kernel
K(u_i, x_j); application integrates against the domain measure, so the
matrix acting on plain coefficient vectors is entries @ diag(weights_dom).
The L^2 -> L^2 operator norm is the largest singular value of the
symmetrically weighted matrix W_cod^(1/2) entries W_dom^(1/2).

`KernelOperator`, the one operator class, keeps its kernel as a signed sum
of terms, each a part cut by boolean masks on its rows and columns.  A part
is a dense matrix, which may be read as its adjoint or with its rows
reversed without a copy; a near-convolution kernel sum_t coeff_t T(b_t)
diag(col_t), T(b) Toeplitz, kept as 2n - 1 samples of b and n column
factors per term (every ell and tau value); or a product L diag(w) R of
two dense factors on a block of cells, in order or in reverse order (the
limit constructions V_k b V_k*, A_k V_k and V b).  An operator built from
its entries is one dense term that holds them.

`adjoint`, `masked` and `restricted` map each term, and `+` and `-`
concatenate the terms, except that two dense operators (each one unmasked
dense array) sum to a dense one.  So tau - s_k is a difference of
near-convolution kernels and A_k - sigma_k is A_k's entries minus sigma_k's
thin factors.  The `entries` of a dense operator are its array; any other
builds them on each read, bit for bit what the same operations give on the
dense kernels, and the package reads them only where a dense routine needs
them: the SVD of `compact_defect`, `compose` (`@`), through which the limit
constructions read the blocks on V_k's log window, and `op_norm`'s SVD
fallback.

A cutoff (multiplication by the indicator of a region) is kept as its
boolean indicator vector on the grid's nodes: `cutoff_M` evaluates the
region's predicate on the node coordinates, and `masked` applies the
vector on the right, A o M, by keeping the columns it selects and zeroing
the rest.

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
operator, and term by term for any other, by FFTs for its
near-convolution kernels (those with one symbol merged first) and by
products of the factors or the matrix for its other parts, the square-root
weights applied to the vectors.  It stops once the residual of the top
Ritz triple is at most 1e-14 of its value, and takes the full SVD of the
dense copy when that has not happened after 64 steps.  An operator with
no live term (no part holds a nonzero within its masks) is exactly zero
and gives 0.0.  `compact_defect` needs a whole spectrum and
keeps the full SVD.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AsymmetricGrid, NonFiniteOperator
from .grids import GridSpec

__all__ = [
    "KernelOperator",
    "op_norm",
    "compact_defect",
    "cutoff_M",
    "flip_S",
]


class _Adjoint:
    """The conjugate transpose of a matrix, read through products, `any`
    and slices only, so no conjugate copy is made."""

    __array_ufunc__ = None  # y @ adjoint with an ndarray y calls __rmatmul__

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.shape = matrix.shape[::-1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.conj(np.conj(x) @ self.matrix)

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        return np.conj(self.matrix @ np.conj(y))

    def __getitem__(self, key) -> "_Adjoint":
        rows, cols = key
        return _Adjoint(self.matrix[cols, rows])

    def any(self, axis: int):
        return self.matrix.any(axis=1 - axis)


class _Reversed:
    """A matrix with its rows in reverse order, read through products, `any`
    and slices only: each product runs on the matrix itself and reverses
    the vector, so no reversed copy is made and no view with a negative
    stride, which numpy does not pass to BLAS, is multiplied."""

    __array_ufunc__ = None  # y @ reversed with an ndarray y calls __rmatmul__

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.shape = matrix.shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return (self.matrix @ x)[::-1]

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(y[::-1]) @ self.matrix

    def __getitem__(self, key) -> "_Reversed":
        rows, cols = key
        m = len(self.matrix)
        if isinstance(rows, slice):  # rows i of the reversal are m - 1 - i
            start, stop, _ = rows.indices(m)
            rows = slice(m - stop, m - start)
        else:
            rows = rows[::-1]
        return _Reversed(self.matrix[rows, cols])

    def any(self, axis: int):
        reached = self.matrix.any(axis=axis)
        return reached[::-1] if axis == 1 else reached


def _adjoint(a):
    """The conjugate transpose of a matrix, without a copy."""
    return a.matrix if isinstance(a, _Adjoint) else _Adjoint(a)


def _dense(a) -> np.ndarray:
    """A matrix as an array (a conjugate copy for an `_Adjoint`, a view for
    a `_Reversed`)."""
    if isinstance(a, _Adjoint):
        return np.conj(_dense(a.matrix)).T
    return _dense(a.matrix)[::-1] if isinstance(a, _Reversed) else a


def _reaches(a, keep) -> np.ndarray:
    """Whether each row of the matrix `a` holds a nonzero in a column that
    `keep` selects (None: in any column)."""
    return (a if keep is None else a[:, keep]).any(axis=1)


def _cut(cells: slice, at: int, size: int) -> tuple[slice, slice]:
    """The cells of `cells`, a slice ascending or descending by one, inside
    the window at, ..., at + size - 1: as cells of that window, in the
    order of `cells`, and as positions within `cells`."""
    if (cells.step or 1) > 0:
        lo = max(cells.start, at)
        hi = max(min(cells.stop, at + size), lo)
        return slice(lo - at, hi - at), slice(lo - cells.start, hi - cells.start)
    # the cells top, top - 1, ..., past + 1 (a stop of None is past -1)
    top = min(cells.start, at + size - 1)
    past = max(-1 if cells.stop is None else cells.stop, at - 1)
    if past >= top:
        return slice(0, 0), slice(0, 0)
    return (slice(top - at, past - at if past >= at else None, -1),
            slice(cells.start - top, cells.start - past))


class _Convolution(NamedTuple):
    """The near-convolution kernel sum_t coeff_t T(b_t) diag(col_t) on an
    n-cell grid, T(b)[i, j] = b[n - 1 - i + j], with (coeff, b, col) per
    term in `terms`, conjugate-transposed when `star`.  An operator reads it
    on the cells of its windows of that grid."""

    terms: tuple
    star: bool = False
    rows = cols = slice(None)

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

    def block(self, codomain: GridSpec, domain: GridSpec) -> np.ndarray:
        rows, cols = codomain.cells, domain.cells
        if self.star:
            block = self.kernel_block(cols, rows)
            return np.conj(block, out=block).T
        return self.kernel_block(rows, cols)

    def adjoint(self) -> "_Convolution":
        return self._replace(star=not self.star)

    def restricted(self, r: int, c: int, m: int, n: int) -> "_Convolution":
        return self  # read on the cells of the restricted operator's windows

    def toeplitz(self, codomain: GridSpec, domain: GridSpec, l: np.ndarray,
                 r: np.ndarray, sign: float):
        """(s, mu, l, r) per term: its block on the operator's cells is
        diag(l) T diag(r), or diag(l) T* diag(r) when `star`, with T[i, j] =
        s[mu - 1 - i + j] of mu rows; the coefficient, the column factor and
        `sign` are taken into r, or into l when `star`."""
        m, p = codomain.n, domain.n
        rows, cols = codomain.cells, domain.cells
        # the block's first row and column and its height in the kernel,
        # whose rows are the operator's columns when `star`
        r0, c0, mu = (cols.start, rows.start, p) if self.star else (rows.start, cols.start, m)
        for coeff, b, col in self.terms:
            d = len(col) - mu - r0 + c0
            if self.star:
                yield b[d:d + m + p - 1], mu, sign * np.conj(coeff * col[rows]) * l, r
            else:
                yield b[d:d + m + p - 1], mu, l, (sign * coeff) * col[cols] * r


class _Product(NamedTuple):
    """left diag(weights) right on the cells `rows` of its operator's
    codomain and `cols` of its domain, each a slice ascending or descending
    by one (a descending one places the block's rows or columns on its
    cells in reverse order): left and right are arrays, `_Adjoint`s or
    `_Reversed`s, and weights are the middle grid's."""

    left: object
    weights: np.ndarray
    right: object
    rows: slice
    cols: slice
    __array_ufunc__ = None  # y @ product with an ndarray y calls __rmatmul__

    def block(self, codomain: GridSpec, domain: GridSpec) -> np.ndarray:
        return _dense(self.left) @ (self.weights[:, None] * _dense(self.right))

    def adjoint(self) -> "_Product":
        """Each factor read as its adjoint: no copy."""
        return _Product(_adjoint(self.right), self.weights, _adjoint(self.left),
                        self.cols, self.rows)

    def restricted(self, r: int, c: int, m: int, n: int) -> "_Product":
        (rows, at), (cols, ct) = _cut(self.rows, r, m), _cut(self.cols, c, n)
        return _Product(self.left[at, :], self.weights, self.right[:, ct], rows, cols)

    def live(self, rows, cols) -> bool:
        """Whether the factors meet: at a middle index where left holds a
        nonzero in a row `rows` selects and right one in a column `cols`
        selects (None: in any)."""
        return bool(np.any(_reaches(_adjoint(self.left), rows) & _reaches(self.right, cols)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.left @ (self.weights * (self.right @ x))

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        return ((y @ self.left) * self.weights) @ self.right


class _Dense(NamedTuple):
    """A matrix on all of its operator's cells: an array, or an `_Adjoint`
    or a `_Reversed` of one."""

    matrix: object
    rows = cols = slice(None)

    def block(self, codomain: GridSpec, domain: GridSpec) -> np.ndarray:
        m = self.matrix
        return _dense(m) if isinstance(m, _Adjoint) else np.array(_dense(m), complex)

    def adjoint(self) -> "_Dense":
        return _Dense(_adjoint(self.matrix))

    def restricted(self, r: int, c: int, m: int, n: int) -> "_Dense":
        return _Dense(self.matrix[r:r + m, c:c + n])

    def live(self, rows, cols) -> bool:
        """Whether the matrix holds a nonzero in a row `rows` selects and a
        column `cols` selects (None: in any)."""
        reached = _reaches(_adjoint(self.matrix), rows)
        return bool(np.any(reached if cols is None else reached & cols))


class _Toeplitz:
    """T[i, j] = s[mu - 1 - i + j] (mu rows), read through T @ x and y @ T
    by FFTs of length len(s) + 1: each product is a window of a linear
    convolution with s or its reverse, which that circular one holds
    without wrapping."""

    __array_ufunc__ = None  # y @ T with an ndarray y calls __rmatmul__

    def __init__(self, s: np.ndarray, mu: int):
        self.mu, self.pu, self.size = mu, len(s) - mu + 1, len(s) + 1
        self.shape = (self.mu, self.pu)
        self.forward = np.fft.fft(s[::-1], self.size)
        self.backward = np.fft.fft(s, self.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.fft.ifft(self.forward * np.fft.fft(x, self.size))
        return y[self.pu - 1:self.pu - 1 + self.mu]

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        z = np.fft.ifft(self.backward * np.fft.fft(y, self.size))
        return z[self.mu - 1:self.mu - 1 + self.pu]


class _Products:
    """The sum of diag(l) core diag(r) over `pieces` (rows, cols, core, l,
    r), each core a matrix read through @ on those rows and columns, on the
    columns `keep`: a matrix that `_lanczos_norm` reads through W @ v and
    u @ W."""

    __array_ufunc__ = None  # u @ W with an ndarray u calls __rmatmul__
    dtype = np.dtype(complex)

    def __init__(self, pieces: list, m: int, keep: np.ndarray):
        self.pieces, self.keep = pieces, keep
        self.shape = (m, int(np.count_nonzero(keep)))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = np.zeros(len(self.keep), complex)
        x[self.keep] = v
        out = np.zeros(self.shape[0], complex)
        for rows, cols, core, l, r in self.pieces:
            out[rows] += l * (core @ (r * x[cols]))
        return out

    def __rmatmul__(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.keep), complex)
        for rows, cols, core, l, r in self.pieces:
            out[cols] += ((u[rows] * l) @ core) * r
        return out[self.keep]


def _arrays(x) -> list:
    """The arrays in x, a nest of tuples, arrays, `_Adjoint`s and
    `_Reversed`s."""
    if isinstance(x, tuple):
        return [a for y in x for a in _arrays(y)]
    if isinstance(x, (_Adjoint, _Reversed)):
        return _arrays(x.matrix)
    return [x] if isinstance(x, np.ndarray) else []


class _Term(NamedTuple):
    """sign * diag(rows) part diag(cols): a part of one of the three kinds,
    cut to the codomain nodes `rows` and the domain nodes `cols` select
    (boolean masks; None keeps all)."""

    part: object
    sign: float = 1.0
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None


class KernelOperator:
    """A kernel operator from `domain` to `codomain`, kept as a signed sum of
    `terms` (`_Term`), each part a dense matrix, the adjoint of one or one
    with its rows reversed (`_Dense`), a near-convolution kernel
    (`_Convolution`) or a product of two dense factors (`_Product`).  Each
    part has `rows` and `cols`, the cells it sits on, `block` (its dense
    block there, a fresh array), `adjoint` and `restricted`, and a
    `_Product` or `_Dense` `live` and @.

    An operator whose one term is an unmasked `+` dense array is dense: its
    `entries` is that array, two dense operators sum to a dense one, and
    `op_norm` takes its nonzero block.  Any other builds `entries` on each
    read and `op_norm` reads it through `_products`.
    """

    def __init__(self, domain: GridSpec, codomain: GridSpec, entries: np.ndarray,
                 label: str = ""):
        if entries.shape != (codomain.n, domain.n):
            raise ValueError("entries shape must be (codomain.n, domain.n)")
        self.domain, self.codomain, self.label = domain, codomain, label
        self.terms = (_Term(_Dense(entries)),)

    @classmethod
    def _of(cls, domain: GridSpec, codomain: GridSpec, terms, label: str = ""):
        """The operator with these terms between the given grids."""
        op = cls.__new__(cls)
        op.domain, op.codomain, op.terms, op.label = domain, codomain, tuple(terms), label
        return op

    @staticmethod
    def zero(domain: GridSpec, codomain: GridSpec = None, label: str = "0") -> "KernelOperator":
        return KernelOperator._of(domain, codomain or domain, (), label)

    @staticmethod
    def identity(grid: GridSpec) -> "KernelOperator":
        return KernelOperator(grid, grid, np.diag(1.0 / grid.weights).astype(complex), "id")

    @staticmethod
    def near_convolution(grid: GridSpec, terms, label: str = "") -> "KernelOperator":
        """sum_t coeff_t T(b_t) diag(col_t) on the whole grid, from (coeff,
        b, col) per term: b the 2n - 1 samples, T(b)[i, j] = b[n - 1 - i + j],
        and col the n column factors."""
        return KernelOperator._of(grid, grid, (_Term(_Convolution(tuple(terms))),), label)

    @staticmethod
    def product(left, right, domain: GridSpec = None, codomain: GridSpec = None, *,
                rows: slice = None, cols: slice = None) -> "KernelOperator":
        """left o right, kept as the two factors, between `domain` and
        `codomain` (default: right's domain and left's codomain).  The block
        sits on left's codomain cells and right's domain cells, placed by
        their `start` within the given grids, or on `rows` and `cols` when
        given, where a descending slice places it in reverse order; the
        middle grid is left's domain.  A factor whose one term is an
        unmasked `+` dense matrix is that matrix, an array, an `_Adjoint`
        view (so `v.adjoint()` is read through products) or a `_Reversed`
        one, without a copy; any other is made dense here."""
        domain = domain or right.domain
        codomain = codomain or left.codomain
        if left.domain.n != right.codomain.n:
            raise ValueError("grid mismatch in composition")
        if rows is None:
            r0 = left.codomain.start - codomain.start
            rows = slice(r0, r0 + left.codomain.n)
        if cols is None:
            c0 = right.domain.start - domain.start
            cols = slice(c0, c0 + right.domain.n)
        lf, rf = (op.entries if op._matrix is None else op._matrix for op in (left, right))
        part = _Product(lf, left.domain.weights, rf, rows, cols)
        return KernelOperator._of(domain, codomain, (_Term(part),))

    def reversed_rows(self, codomain: GridSpec) -> "KernelOperator":
        """J self on `codomain`, a grid of as many cells, J the reversal of
        their order: a dense operator's array read through `_Reversed`,
        without a copy."""
        if not isinstance(self._matrix, np.ndarray) or codomain.n != self.codomain.n:
            raise ValueError("reversed_rows needs a dense operator and a codomain of its size")
        return self._with((_Term(_Dense(_Reversed(self._matrix))),), codomain=codomain)

    @property
    def _matrix(self):
        """The matrix of a lone unmasked `+` dense term (an array, an
        `_Adjoint` or a `_Reversed`), else None."""
        if len(self.terms) == 1:
            (part, sign, rows, cols), = self.terms
            if isinstance(part, _Dense) and sign > 0 and rows is None and cols is None:
                return part.matrix
        return None

    @property
    def entries(self) -> np.ndarray:
        """The dense kernel: a dense operator's own array, and otherwise
        built on each read: each term's block, masked in place, added with
        its sign on its cells in term order, and freed before the next one
        is built.  So bit for bit the entries the same operations give on
        the dense kernels (up to the sign of an exact zero)."""
        matrix = self._matrix
        if isinstance(matrix, np.ndarray):
            return matrix
        shape = (self.codomain.n, self.domain.n)
        ent = None
        for t in self.terms:
            p = t.part
            block = p.block(self.codomain, self.domain)
            if t.cols is not None:
                block[:, ~t.cols[p.cols]] = 0
            if t.rows is not None:
                block[~t.rows[p.rows]] = 0
            if ent is None and block.shape == shape:
                ent = block if t.sign > 0 else np.negative(block, out=block)
            else:
                ent = np.zeros(shape, complex) if ent is None else ent
                cells = ent[p.rows, p.cols]
                (np.add if t.sign > 0 else np.subtract)(cells, block, out=cells)
            del block
        return np.zeros(shape, complex) if ent is None else ent

    @property
    def nbytes(self) -> int:
        """The bytes of the arrays the terms hold, each counted once."""
        return sum({id(a): a.nbytes for a in _arrays(self.terms)}.values())

    def apply(self, xi: np.ndarray) -> np.ndarray:
        return self.entries @ (self.domain.weights * xi)

    def weighted(self) -> np.ndarray:
        return (np.sqrt(self.codomain.weights)[:, None] * self.entries
                * np.sqrt(self.domain.weights)[None, :])

    def _with(self, terms, domain=None, codomain=None, label=None) -> "KernelOperator":
        """These terms between the given grids (default: self's)."""
        return KernelOperator._of(domain or self.domain, codomain or self.codomain, terms,
                                  self.label if label is None else label)

    def adjoint(self) -> "KernelOperator":
        """Each term's part read as its adjoint, without a copy of any matrix
        or factor."""
        return self._with((_Term(t.part.adjoint(), t.sign, t.cols, t.rows) for t in self.terms),
                          self.codomain, self.domain, f"({self.label})*")

    def masked(self, keep: np.ndarray) -> "KernelOperator":
        """self o M_keep, M_keep the cutoff to a `cutoff_M` mask: each term's
        column mask cut to `keep`, without a copy of any part, so the kept
        entries are self's own and the others exact zeros."""
        return self._with((t._replace(cols=keep if t.cols is None else t.cols & keep)
                           for t in self.terms), label=f"{self.label}.M")

    def restricted(self, domain: GridSpec = None,
                   codomain: GridSpec = None) -> "KernelOperator":
        """self between cell windows of its linear or log grids
        (`GridSpec.window`; None keeps the grid): each part and mask cut to
        the windows, a dense matrix as a view of its block.  A window is
        placed by its `start`, so self's own grids may be windows of the
        same grid."""
        domain, codomain = domain or self.domain, codomain or self.codomain
        r, c = codomain.start - self.codomain.start, domain.start - self.domain.start
        m, n = codomain.n, domain.n

        def cut(mask, at, size):
            return None if mask is None else mask[at:at + size]

        return self._with((_Term(t.part.restricted(r, c, m, n), t.sign,
                                 cut(t.rows, r, m), cut(t.cols, c, n))
                           for t in self.terms), domain, codomain)

    def compose(self, other: "KernelOperator") -> "KernelOperator":
        """The operator self o other (integration over the middle grid), dense.

        The kernel is entries @ (w[:, None] * other.entries) with w the middle
        grid's weights; a cutoff mask is applied with `masked`, not here.
        The product runs on the nonzero block only: the rows of self and the
        columns of other that hold a nonzero, summed over the middle indices
        where both self's column and other's row hold one.  Every product
        left out has an exact zero factor, so the block is the dense product
        up to the rounding of a smaller BLAS call, and every entry outside
        it is an exact zero.  (A non-finite entry that meets only exact
        zeros is left out with them.)
        """
        if other.codomain.n != self.domain.n:
            raise ValueError("grid mismatch in composition")
        a, b, w = self.entries, other.entries, self.domain.weights
        rows, cols = a.any(axis=1), b.any(axis=0)
        mid = a.any(axis=0) & b.any(axis=1)
        shape, dtype = (a.shape[0], b.shape[1]), np.result_type(a, w, b)
        wb = w[mid, None] * b[np.ix_(mid, cols)]
        del b  # entries that `other` built on this read are freed here
        block = a[np.ix_(rows, mid)] @ wb
        del wb  # the result is allocated once the product's inputs are gone
        ent = np.zeros(shape, dtype)
        ent[np.ix_(rows, cols)] = block
        return KernelOperator(other.domain, self.codomain, ent,
                              f"{self.label}.{other.label}")

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return _sum(self, other, 1.0)

    def __sub__(self, other):
        return _sum(self, other, -1.0)

    def __mul__(self, c):
        return KernelOperator(self.domain, self.codomain, self.entries * c, self.label)

    __rmul__ = __mul__

    def _products(self, left: np.ndarray, right: np.ndarray) -> "_Products | None":
        """diag(left) self diag(right) as `_Products`, or None when no term
        is live: then self is exactly zero.

        Each term's masks and sign go into the vectors l and r on either
        side of its part.  A product or a dense part is live when it holds a
        nonzero within the masks.  A near-convolution kernel gives a
        Toeplitz block per term (`_Convolution.toeplitz`); blocks with the
        same samples and the same vector on the side without the column
        factor are merged, the other sides summed, so a difference of two
        kernels with one symbol is one block with r1 - r2, not a difference
        of two rounded products.  A block is live when l, r and its samples
        all hold a nonzero.  The products run on the columns where a live
        piece's r is nonzero.
        """
        pieces, blocks = [], {}
        for t in self.terms:
            p = t.part
            l = left if t.rows is None else np.where(t.rows, left, 0)
            r = right if t.cols is None else np.where(t.cols, right, 0)
            if not isinstance(p, _Convolution):
                if p.live(None if t.rows is None else t.rows[p.rows],
                          None if t.cols is None else t.cols[p.cols]):
                    core = p.matrix if isinstance(p, _Dense) else p
                    pieces.append((p.rows, p.cols, core, l[p.rows], t.sign * r[p.cols]))
                continue
            for s, mu, lt, rt in p.toeplitz(self.codomain, self.domain, l, r, t.sign):
                key = (p.star, mu, s.tobytes(), (rt if p.star else lt).tobytes())
                if key not in blocks:
                    blocks[key] = [s, lt, rt]
                elif p.star:
                    blocks[key][1] = blocks[key][1] + lt
                else:
                    blocks[key][2] = blocks[key][2] + rt
        for (star, mu, _, _), (s, l, r) in blocks.items():
            if np.any(l) and np.any(r) and np.any(s):
                core = _Adjoint(_Toeplitz(s, mu)) if star else _Toeplitz(s, mu)
                pieces.append((slice(None), slice(None), core, l, r))
        if not pieces:
            return None
        keep = np.zeros(self.domain.n, bool)
        for _, cols, _, _, r in pieces:
            keep[cols] |= r != 0
        return _Products(pieces, self.codomain.n, keep)


def _sum(x: KernelOperator, y: KernelOperator, sign: float) -> KernelOperator:
    """x + sign * y: two dense operators give a dense one holding the sum of
    their entries, and otherwise the terms of x and y are concatenated, y's
    signs times `sign`."""
    if (x.domain, x.codomain) != (y.domain, y.codomain):
        raise ValueError("grid mismatch in sum")
    a, b = x._matrix, y._matrix
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return KernelOperator(x.domain, x.codomain, a + b if sign > 0 else a - b, x.label)
    return x._with(x.terms + tuple(t._replace(sign=sign * t.sign) for t in y.terms))


def _nonzero_block(A: KernelOperator) -> np.ndarray | None:
    """A.weighted() on the rows and columns that hold a nonzero, or None
    when there are none.  Non-finite entries raise `NonFiniteOperator`.

    The singular values of a matrix are those of this block plus zeros.
    The rows and columns are found on A's own entries: the weights are
    positive, so they make no entry zero or nonzero, and a NaN or an inf
    counts as nonzero, so it always lands in the block, where finiteness is
    checked.  Only the block is copied, and the copy is scaled in place,
    codomain weights first and then domain weights, the order of
    `weighted()`, so every entry is bit for bit that of `weighted()`.
    """
    E = A.entries
    rows, cols = E.any(axis=1), E.any(axis=0)
    if not rows.any():
        return None
    W = E[np.ix_(rows, cols)]
    W *= np.sqrt(A.codomain.weights)[rows, None]
    W *= np.sqrt(A.domain.weights)[cols]
    if not np.isfinite(W).all():
        raise NonFiniteOperator(f"non-finite entries in {A.label or 'operator'}")
    return W


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


def op_norm(A: KernelOperator) -> float:
    """L^2 -> L^2 operator norm of the discretized kernel operator: the
    largest singular value of its weighted matrix, by `_lanczos_norm`, or
    by the full SVD of the nonzero block when that has not converged.

    A dense operator gives `_lanczos_norm` its nonzero block and any other
    the products of its terms (`_products`), its dense copy only for the
    SVD.  An operator with no live term is exactly zero and gives 0.0."""
    if isinstance(A._matrix, np.ndarray):
        W = _nonzero_block(A)
    else:
        W = A._products(np.sqrt(A.codomain.weights), np.sqrt(A.domain.weights))
    if W is None:
        return 0.0
    sigma, _ = _lanczos_norm(W)
    if sigma is None:
        block = W if isinstance(W, np.ndarray) else _nonzero_block(A)
        sigma = float(np.linalg.svd(block, compute_uv=False)[0]) if block is not None else 0.0
    return sigma


def compact_defect(A: KernelOperator, rank: int) -> float:
    """Distance (in operator norm) to the best rank-`rank` approximation:
    singular value `rank` of A.weighted(), largest first.

    The SVD runs on the nonzero block alone, so the value is exactly 0.0
    when that block has rank <= `rank` by its shape (at most `rank` rows or
    columns), and otherwise only the rounding of LAPACK on the smaller
    matrix differs.  A zero operator gives 0.0 without running the SVD.
    """
    block = _nonzero_block(A)
    if block is None:
        return 0.0
    sv = np.linalg.svd(block, compute_uv=False)
    return float(sv[rank]) if rank < sv.size else 0.0


def cutoff_M(keep, grid: GridSpec) -> np.ndarray:
    """The cutoff to the region `keep` (a predicate on arrays of the grid's
    physical coordinate, written where the region is defined) as the
    boolean indicator vector of the grid's nodes; apply it with
    `KernelOperator.masked`."""
    return keep(grid.points)


def flip_S(grid: GridSpec) -> KernelOperator:
    """The reflection (S xi)(u) = xi(-u); an involution on symmetric grids."""
    if not grid.is_symmetric():
        raise AsymmetricGrid("flip requires a mirror-symmetric grid")
    n = grid.n
    ent = np.zeros((n, n), complex)
    i = np.arange(n)
    # linear: node i goes to node n - 1 - i; logpair: the two sign blocks
    # swap, same v node
    j = i[::-1] if grid.kind == "linear" else (i + n // 2) % n
    ent[i, j] = 1.0 / grid.weights[j]
    return KernelOperator(grid, grid, ent, "S")

