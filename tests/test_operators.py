import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import boidol
from boidol.errors import AsymmetricGrid, NonFiniteOperator
from boidol.grids import GridSpec
from boidol.kernels import vk_operator
from boidol.operators import (
    _LANCZOS_STEPS,
    _lanczos_norm,
    _nonzero_block,
    KernelOperator,
    compact_defect,
    cutoff_M,
    flip_S,
    op_norm,
)

LIN = GridSpec.linear(L=6.0, n=64)
PAIR = GridSpec.log_pair(V=4.0, n=32)


def bump_vec(grid, c=0.0, w=2.0):
    x = grid.points
    r = (x - c) / w
    out = np.zeros_like(r)
    m = np.abs(r) < 1
    out[m] = np.exp(-1 / (1 - r[m] ** 2))
    return out


def l2(grid, xi):
    return float(np.sqrt(np.sum(grid.weights * np.abs(xi) ** 2)))


def test_zero_norm():
    assert op_norm(KernelOperator.zero(LIN)) == 0.0


def test_identity_has_norm_one_and_acts_trivially():
    I = KernelOperator.identity(LIN)
    xi = bump_vec(LIN)
    assert np.allclose(I.apply(xi), xi)
    assert abs(op_norm(I) - 1.0) < 1e-12


def test_rank_one_norm():
    phi = bump_vec(LIN, 0.5, 1.5)
    psi = bump_vec(LIN, -1.0, 2.0)
    A = KernelOperator(LIN, LIN, np.outer(phi, np.conj(psi)))
    assert abs(op_norm(A) - l2(LIN, phi) * l2(LIN, psi)) < 1e-8


def test_adjoint_weighted_matrix_is_conjugate_transpose():
    rng = np.random.default_rng(12)
    ent = rng.standard_normal((PAIR.n, LIN.n)) + 1j * rng.standard_normal((PAIR.n, LIN.n))
    A = KernelOperator(LIN, PAIR, ent)
    assert np.allclose(A.adjoint().weighted(), np.conj(A.weighted()).T)


def test_compose_matches_weighted_product():
    rng = np.random.default_rng(13)
    A = KernelOperator(LIN, LIN, rng.standard_normal((LIN.n, LIN.n)).astype(complex))
    B = KernelOperator(LIN, LIN, rng.standard_normal((LIN.n, LIN.n)).astype(complex))
    xi = bump_vec(LIN)
    assert np.allclose((A @ B).apply(xi), A.apply(B.apply(xi)))
    assert np.allclose((A @ B).weighted(), A.weighted() @ B.weighted())

    def product(A, B):  # the dense formula, bypassing compose
        return A.entries @ (A.domain.weights[:, None] * B.entries)

    def diag(grid, vals):  # the multiplication operator by vals, as a kernel
        return KernelOperator(grid, grid, np.diag(vals / grid.weights).astype(complex))

    for grid in (LIN, PAIR):
        assert np.all(grid.weights * (1.0 / grid.weights) == 1.0)
        C = KernelOperator(grid, LIN, rng.standard_normal((LIN.n, grid.n))
                           + 1j * rng.standard_normal((LIN.n, grid.n)))
        # a cutoff mask keeps C's columns bit for bit: the product with the
        # indicator's kernel, whose kept terms are C's entries times 1
        for region in (lambda u: u >= 0.3, lambda u: np.abs(u) <= 1.5):
            keep = cutoff_M(region, grid)
            assert 0 < np.count_nonzero(keep) < grid.n
            assert np.array_equal(C.masked(keep).entries,
                                  product(C, diag(grid, keep.astype(float))))
        # a complex diagonal takes the product on its nonzero block
        vals = rng.standard_normal(grid.n)
        vals[::3] = 0.0
        D = diag(grid, vals * (1.0 + 0.5j))
        got, want = (C @ D).entries, product(C, D)
        assert not np.any(got[:, vals == 0])
        block = want[:, vals != 0]
        assert np.max(np.abs(got[:, vals != 0] - block)) <= 1e-14 * np.max(np.abs(block))
    # one off-diagonal nonzero: the product keeps it
    B = diag(LIN, np.arange(LIN.n, dtype=float))
    B.entries[3, 5] = 2.0
    got = (A @ B).entries
    assert np.array_equal(got, product(A, B))
    assert not np.allclose(got, A.entries * (LIN.weights * np.diagonal(B.entries)))
    # zero rows, columns and inner indices on both sides: the nonzero block
    # only, exact zeros elsewhere
    P = KernelOperator(LIN, PAIR, rng.standard_normal((PAIR.n, LIN.n))
                       + 1j * rng.standard_normal((PAIR.n, LIN.n)))
    P.entries[::4] = 0.0
    P.entries[:, 1::3] = 0.0
    P.entries[1] = 1j * P.entries[1].imag  # purely imaginary rows count
    Q = KernelOperator(PAIR, LIN, rng.standard_normal((LIN.n, PAIR.n)))
    Q.entries[::5] = 0.0
    Q.entries[:, 2::7] = 0.0
    got, want = (P @ Q).entries, product(P, Q)
    assert got.dtype == want.dtype
    outside = np.ones(got.shape, bool)
    outside[np.ix_(P.entries.any(axis=1), Q.entries.any(axis=0))] = False
    assert np.count_nonzero(outside) and not np.any(got[outside])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_compact_defect_examples():
    vals = np.array([3.0, 2.0, 1.0] + [0.0] * (LIN.n - 3))
    # diagonal in the weighted picture: divide the weight back out
    ent = np.diag(vals / np.sqrt(LIN.weights) / np.sqrt(LIN.weights))
    A = KernelOperator(LIN, LIN, ent.astype(complex))
    assert abs(compact_defect(A, 1) - 2.0) < 1e-12
    phi = bump_vec(LIN)
    R1 = KernelOperator(LIN, LIN, np.outer(phi, phi).astype(complex))
    assert compact_defect(R1, 1) < 1e-12


def _assert_singular_values_match_full_svd(A):
    full = np.linalg.svd(A.weighted(), compute_uv=False)
    tol = 1e-13 * full[0]
    assert abs(op_norm(A) - full[0]) <= tol
    for r in range(len(full) + 1):
        want = full[r] if r < len(full) else 0.0
        assert abs(compact_defect(A, r) - want) <= tol


def test_singular_values_drop_zero_rows_and_columns():
    rng = np.random.default_rng(15)

    def cplx(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    for rank in (3, PAIR.n):  # below and above every small budget
        ent = cplx(PAIR.n, rank) @ cplx(rank, LIN.n)
        ent[1::3] = 0.0
        ent[:, ::4] = 0.0
        ent[:, 40:] = 0.0
        ent[:, 5] = 1j * ent[:, 5].imag  # purely imaginary columns count
        _assert_singular_values_match_full_svd(KernelOperator(LIN, PAIR, ent))
        _assert_singular_values_match_full_svd(KernelOperator(PAIR, LIN, ent.T.copy()))
    zero = KernelOperator.zero(LIN, PAIR)
    _assert_singular_values_match_full_svd(zero)
    assert op_norm(zero) == 0.0
    ent = np.zeros((PAIR.n, LIN.n), complex)
    ent[5, 7] = -3.0j
    one = KernelOperator(LIN, PAIR, ent)
    _assert_singular_values_match_full_svd(one)
    assert compact_defect(one, 1) == 0.0


def test_nonzero_block_is_the_weighted_block_bit_for_bit():
    """`_nonzero_block` is A.weighted() on the rows and columns that hold a
    nonzero, bit for bit, whether it trims or not, on grids of uneven
    weights; a lone NaN or inf lands in the block and raises."""
    rng = np.random.default_rng(31)

    def grid(n):
        return GridSpec("linear", 1.0, n, np.arange(n, dtype=float), rng.uniform(0.1, 3.0, n))

    dom, cod = grid(40), grid(30)
    ent = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
    for trim in (False, True):
        if trim:
            ent[::3] = 0.0
            ent[:, 5:9] = 0.0
        A = KernelOperator(dom, cod, ent)
        want = A.weighted()[np.ix_(ent.any(axis=1), ent.any(axis=0))]
        assert _nonzero_block(A).tobytes() == want.tobytes()
    for bad in (np.nan, np.inf):
        lone = np.zeros((30, 40), complex)
        lone[7, 3] = bad
        with pytest.raises(NonFiniteOperator), np.errstate(invalid="ignore"):
            op_norm(KernelOperator(dom, cod, lone))


def test_singular_values_property_over_zero_masks():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        rows = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        cols = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ent = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        ent[~rows] = 0.0
        ent[:, ~cols] = 0.0
        dom = GridSpec.log_half_line(1, 2.0, n)
        cod = GridSpec.log_half_line(-1, 3.0, m)
        _assert_singular_values_match_full_svd(KernelOperator(dom, cod, ent))

    check()


def test_weighted_adjoint_identity_property():
    """<A x, y>_w = <x, A* y>_w, each inner product weighted by its own
    grid, over random kernels between linear, log and log-pair grids."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    grid = st.one_of(
        st.builds(GridSpec.linear, st.floats(0.5, 20.0), st.integers(1, 24).map(lambda k: 2 * k)),
        st.builds(GridSpec.log_half_line, st.sampled_from((1, -1)), st.floats(0.5, 12.0),
                  st.integers(1, 48)),
        st.builds(GridSpec.log_pair, st.floats(0.5, 12.0), st.integers(1, 24)))

    def inner(grid, u, v):
        return np.sum(grid.weights * u * np.conj(v))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(grid, grid, st.integers(0, 2 ** 32 - 1))
    def check(dom, cod, seed):
        rng = np.random.default_rng(seed)
        A = KernelOperator(dom, cod, _cplx(rng, cod.n, dom.n))
        x, y = _cplx(rng, 1, dom.n)[0], _cplx(rng, 1, cod.n)[0]
        lhs, rhs = inner(cod, A.apply(x), y), inner(dom, x, A.adjoint().apply(y))
        scale = np.linalg.norm(A.weighted()) * l2(dom, x) * l2(cod, y)
        assert abs(lhs - rhs) <= 1e-12 * scale

    check()


def _cplx(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _unitary(rng, n):
    return np.linalg.qr(_cplx(rng, n, n))[0]


def _assert_lanczos_matches_svd(W):
    """op_norm of the operator whose weighted matrix is W, against the SVD."""
    grid = GridSpec.log_half_line(1, 2.0, W.shape[1])
    cod = GridSpec.log_half_line(-1, 3.0, W.shape[0])
    ent = W / np.sqrt(cod.weights)[:, None] / np.sqrt(grid.weights)[None, :]
    A = KernelOperator(grid, cod, ent)
    full = np.linalg.svd(A.weighted(), compute_uv=False)[0]
    sigma, steps = _lanczos_norm(A.weighted())
    assert sigma is not None and steps < _LANCZOS_STEPS
    assert abs(sigma - full) <= 1e-13 * full
    assert op_norm(A) == sigma


def test_lanczos_norm_matches_full_svd():
    rng = np.random.default_rng(21)
    n = 120
    # singular values 0.9^j: a gap, then a long geometric tail
    B = _unitary(rng, n) @ np.diag(0.9 ** np.arange(n)) @ _unitary(rng, n)
    # an exactly repeated top value, as the two half-lines give
    Z = np.zeros_like(B)
    _assert_lanczos_matches_svd(np.block([[B, Z], [Z, B]]))
    # a near-degenerate top pair, sigma_2 = sigma_1 (1 - 1e-10)
    sv = np.r_[1.0, 1.0 - 1e-10, 0.5 * 0.95 ** np.arange(n - 2)]
    _assert_lanczos_matches_svd(_unitary(rng, n) @ np.diag(sv) @ _unitary(rng, n))
    # rank one
    _assert_lanczos_matches_svd(_cplx(rng, n, 1) @ _cplx(rng, 1, n + 7))
    # tiny and large norms
    for scale in (1e-12, 1e6):
        _assert_lanczos_matches_svd(scale * B)
    # one row, one column
    _assert_lanczos_matches_svd(_cplx(rng, 1, n))
    _assert_lanczos_matches_svd(_cplx(rng, n, 1))


def test_op_norm_sees_odd_and_even_top_vectors():
    """On a mirror-symmetric grid the top singular vector may be even or odd
    under the reflection; a start vector of one parity would miss the other."""
    for grid in (LIN, PAIR):
        S = flip_S(grid)
        bump = bump_vec(grid, 1.0, 1.5)
        even, odd = bump + S.apply(bump), bump - S.apply(bump)
        for top, low in ((even, odd), (odd, even)):
            ent = (2.0 * np.outer(top, top) / l2(grid, top) ** 2
                   + np.outer(low, low) / l2(grid, low) ** 2)
            A = KernelOperator(grid, grid, ent.astype(complex))
            assert abs(op_norm(A) - 2.0) <= 1e-13


def test_composite_is_its_dense_kernel_under_every_operation():
    """Operators kept as terms (products of factors on windows of the grid,
    products with a factor read with its rows reversed, among them J (L
    diag(w) R*) J as sigma_k's minus half is kept, a near-convolution
    kernel, and their sums with dense operators in either order) hold no
    n x n array of their own and have the entries, adjoint, cutoff, window
    blocks (some cutting a product's block) and norm of the dense kernels
    they stand for, and
    a dense operand of a sum is one term holding its entries without a
    copy.  Two dense operators sum to one dense term holding the difference
    of their entries, bit for bit, with the norm of that dense kernel."""
    rng = np.random.default_rng(5)
    mid = GridSpec.log_pair(V=3.0, n=12).parts[0]
    rows, cols = LIN.window(40, 50), LIN.window(20, 34)
    L = KernelOperator(mid, rows, _cplx(rng, rows.n, mid.n))
    R = KernelOperator(mid, rows, _cplx(rng, rows.n, mid.n))
    P = KernelOperator(mid, LIN, _cplx(rng, LIN.n, mid.n))
    Q = KernelOperator(cols, mid, _cplx(rng, mid.n, cols.n))
    A = KernelOperator(LIN, LIN, _cplx(rng, LIN.n, LIN.n))
    B = KernelOperator(LIN, LIN, _cplx(rng, LIN.n, LIN.n))
    terms = (KernelOperator.product(L, R.adjoint(), LIN, LIN)
             - KernelOperator.product(P, Q, LIN, LIN))
    want_terms = np.zeros((LIN.n, LIN.n), complex)
    want_terms[rows.cells, rows.cells] += (L @ R.adjoint()).entries
    want_terms[:, cols.cells] -= (P @ Q).entries
    # J (L diag(w) R*) J, J the reversal of the line's cells, as (J L) diag(w)
    # (J R)*: L and R read with their rows reversed on the mirrored cells
    # 14, ..., 23 of their cells 40, ..., 49
    mirror = LIN.window(LIN.n - rows.start - rows.n, LIN.n - rows.start)
    mirrored = KernelOperator.product(L.reversed_rows(mirror),
                                      R.reversed_rows(mirror).adjoint(), LIN, LIN)
    J = np.eye(LIN.n)[::-1]
    want_mirrored = np.zeros((LIN.n, LIN.n), complex)
    want_mirrored[rows.cells, rows.cells] = (L @ R.adjoint()).entries
    want_mirrored = J @ want_mirrored @ J
    # A J M and J M Q, J M the rows of M = L's array in reverse order, on the
    # cells 14, ..., 23
    JM = L.reversed_rows(LIN.window(14, 24))
    JM_dense = KernelOperator(mid, JM.codomain, L.entries[::-1].copy())
    reversed_rows = (KernelOperator.product(A.restricted(JM.codomain), JM, LIN, LIN,
                                            cols=slice(20, 32))
                     - KernelOperator.product(JM, Q, LIN, LIN))
    want_reversed = np.zeros((LIN.n, LIN.n), complex)
    want_reversed[:, 20:32] += (A.restricted(JM.codomain) @ JM_dense).entries
    want_reversed[14:24, cols.cells] -= (JM_dense @ Q).entries
    # two near-convolution terms coeff T(b) diag(col), T(b)[i, j] = b[n - 1 - i + j]
    n = LIN.n
    kernel = [(0.5 - 2.0j, _cplx(rng, 1, 2 * n - 1)[0], _cplx(rng, 1, n)[0]),
              (1.5, _cplx(rng, 1, 2 * n - 1)[0], _cplx(rng, 1, n)[0])]
    conv = KernelOperator.near_convolution(LIN, kernel)
    offsets = n - 1 - np.arange(n)[:, None] + np.arange(n)[None, :]
    want_conv = sum(coeff * b[offsets] * col for coeff, b, col in kernel)
    cases = {
        "products": (terms, want_terms, ()),
        "mirrored products": (mirrored, want_mirrored, ()),
        "reversed rows": (reversed_rows, want_reversed, ()),
        "near-convolution": (conv, want_conv, ()),
        "dense - products": (A - terms, A.entries - want_terms, (A,)),
        "products + dense": (terms + B, want_terms + B.entries, (B,)),
        "dense - near-convolution": (B - conv, B.entries - want_conv, (B,)),
        "near-convolution + dense": (conv + A, want_conv + A.entries, (A,)),
    }
    keep = LIN.points > 0.5
    for name, (op, want, dense_operands) in cases.items():
        assert op.nbytes - sum(d.nbytes for d in dense_operands) < n * n * 16, name
        held = [t.part.matrix for t in op.terms if hasattr(t.part, "matrix")]
        assert len(held) == len(dense_operands), name
        assert all(h is d.entries for h, d in zip(held, dense_operands)), name
        assert np.allclose(op.entries, want, rtol=0, atol=1e-12), name
        assert np.allclose(op.adjoint().entries, np.conj(want).T, rtol=0, atol=1e-12), name
        assert np.allclose(op.masked(keep).entries, np.where(keep, want, 0),
                           rtol=0, atol=1e-12), name
        for dom, cod in ((cols, rows), (LIN.window(5, 45), cols),
                         (LIN.window(45, 60), LIN.window(3, 30)),
                         (LIN.window(18, 40), LIN.window(10, 20))):
            assert np.allclose(op.restricted(dom, cod).entries, want[cod.cells, dom.cells],
                               rtol=0, atol=1e-12), name
        for got, ref in ((op, want), (op.adjoint(), np.conj(want).T),
                         (op.masked(keep), np.where(keep, want, 0))):
            ref = op_norm(KernelOperator(LIN, LIN, ref))
            assert abs(op_norm(got) - ref) <= 1e-13 * ref, name
    diff = A - B
    assert len(diff.terms) == 1 and diff.terms[0].part.matrix is diff.entries
    assert diff.entries.tobytes() == (A.entries - B.entries).tobytes()
    assert op_norm(diff) == op_norm(KernelOperator(LIN, LIN, A.entries - B.entries))


def test_reversed_rows_and_product_reject_what_they_cannot_read():
    """`reversed_rows` reads only a dense operator's array, onto a codomain
    of as many cells, and `product` only factors that meet on grids of one
    size: anything else is a `ValueError`."""
    rng = np.random.default_rng(7)
    mid = GridSpec.log_pair(V=3.0, n=12).parts[0]
    cells = LIN.window(40, 50)
    M = KernelOperator(mid, cells, _cplx(rng, cells.n, mid.n))
    with pytest.raises(ValueError, match="reversed_rows"):
        M.reversed_rows(LIN.window(14, 25))
    for not_dense in (M.masked(mid.points > 1.0), M - M.reversed_rows(cells),
                      KernelOperator.product(M, M.adjoint())):
        with pytest.raises(ValueError, match="reversed_rows"):
            not_dense.reversed_rows(cells)
    with pytest.raises(ValueError, match="grid mismatch"):
        KernelOperator.product(M, KernelOperator(LIN, LIN, _cplx(rng, LIN.n, LIN.n)))


def test_composite_with_a_non_finite_factor_raises():
    """A NaN in a factor stops the Lanczos iteration, and the dense fallback
    reports it as `NonFiniteOperator`, as for a dense operator."""
    mid = GridSpec.log_pair(V=3.0, n=12).parts[0]
    left = np.ones((LIN.n, mid.n), complex)
    left[3, 4] = np.nan
    C = KernelOperator.product(KernelOperator(mid, LIN, left),
                               KernelOperator(LIN, mid, np.ones((mid.n, LIN.n))))
    with pytest.raises(NonFiniteOperator):
        op_norm(C)


def test_lanczos_falls_back_to_full_svd_on_a_flat_spectrum():
    """A square Gaussian matrix has no gap at the top of its spectrum, so 64
    steps do not reach the residual; op_norm then returns the SVD's value."""
    rng = np.random.default_rng(22)
    W = _cplx(rng, 512, 512)
    assert _lanczos_norm(W) == (None, _LANCZOS_STEPS)
    grid = GridSpec.log_half_line(1, 2.0, 512)
    A = KernelOperator(grid, grid, W / np.sqrt(np.outer(grid.weights, grid.weights)))
    full = np.linalg.svd(A.weighted(), compute_uv=False)[0]
    assert abs(op_norm(A) - full) <= 1e-13 * full


def test_op_norm_is_deterministic_across_threads_and_adjoints():
    rng = np.random.default_rng(23)
    grid = GridSpec.linear(L=6.0, n=384)  # large enough for a multithreaded BLAS gemv
    A = KernelOperator(grid, grid, _cplx(rng, grid.n, 12) @ _cplx(rng, 12, grid.n))
    inline = op_norm(A)
    got = [None] * 4

    def run(i):
        got[i] = [op_norm(A) for _ in range(5)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert got == [[inline] * 5] * 4
    assert abs(op_norm(A.adjoint()) - inline) <= 1e-13 * inline


def test_op_norm_does_not_load_numpy_random():
    """The start vector is built without numpy.random, which numpy loads
    only on first use and which costs several MiB."""
    src = str(Path(boidol.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, numpy as np, boidol.cli; "
            "from boidol.grids import GridSpec; "
            "from boidol.operators import KernelOperator, op_norm; "
            "g = GridSpec.linear(6.0, 64); "
            "x = np.cos(np.arange(64.0)); "
            "print(op_norm(KernelOperator(g, g, np.outer(x, np.sin(x)) + 0j)) > 0); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["True", "False"]


def test_cutoffs_partition_and_idempotence():
    rng = np.random.default_rng(15)
    C = KernelOperator(LIN, PAIR, rng.standard_normal((PAIR.n, LIN.n))
                       + 1j * rng.standard_normal((PAIR.n, LIN.n)))
    delta = 2.0
    Mle = cutoff_M(lambda u: np.abs(u) <= delta, LIN)
    Mge = cutoff_M(lambda u: np.abs(u) >= delta, LIN)
    assert Mle.dtype == bool and Mle.shape == (LIN.n,)
    # half-offset nodes never hit the boundary, so the two parts partition
    assert np.array_equal(Mle ^ Mge, np.ones(LIN.n, bool))
    assert np.array_equal((C.masked(Mle) + C.masked(Mge)).entries, C.entries)
    assert np.array_equal(C.masked(Mle).masked(Mle).entries, C.masked(Mle).entries)
    assert not np.any(C.masked(Mle).entries[:, ~Mle])
    # the cutoff of the identity is self-adjoint
    I = KernelOperator.identity(LIN).masked(Mle)
    assert np.array_equal(I.adjoint().entries, I.entries)
    Mp = cutoff_M(lambda u: u >= 0.0, LIN)
    Mm = cutoff_M(lambda u: u <= 0.0, LIN)
    assert op_norm(C.masked(Mp).masked(Mm)) == 0.0


def test_flip_is_involution_linear_and_pair():
    for grid in (LIN, PAIR):
        S = flip_S(grid)
        assert np.allclose((S @ S).entries, KernelOperator.identity(grid).entries)
        xi = bump_vec(grid, 0.7, 1.1)
        flipped = S.apply(xi)
        # value at node with physical point -u equals original value at u
        order = np.argsort(grid.points)
        rev = np.argsort(-grid.points)
        assert np.allclose(flipped[order], xi[rev])


def test_flip_rejects_asymmetric_grid():
    with pytest.raises(AsymmetricGrid):
        flip_S(GridSpec.log_half_line(1, 4.0, 32))


def test_restricted_reads_a_window_block_at_its_cells():
    """V_k's nonzero block at k = 64 on the default grid lies between cell
    windows of the linear grid and of the log pair's plus half, placed by
    their `start`s; `restricted` to those windows reads the block from the
    same cells of a whole-grid operator, bit for bit."""
    lin, pair = GridSpec.linear(12.0, 512), GridSpec.log_pair(6.0, 384)
    V = vk_operator(64.0, 1.0 / 64.0, pair, lin)
    assert (V.codomain.start, V.domain.start) == (259, 0)
    whole = np.zeros((lin.n, pair.parts[0].n), complex)
    whole[V.codomain.cells, V.domain.cells] = V.entries
    whole = KernelOperator(pair.parts[0], lin, whole)
    W = whole.restricted(V.domain, V.codomain)
    assert W.codomain.cells == V.codomain.cells and W.domain.cells == V.domain.cells
    assert np.array_equal(W.entries, V.entries)
