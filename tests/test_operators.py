import numpy as np
import pytest

from boidol.errors import AsymmetricGrid
from boidol.grids import GridSpec
from boidol.operators import (
    IntervalSpec,
    KernelOperator,
    compact_defect,
    cutoff_M,
    flip_S,
    load_operator,
    norm_and_defect,
    op_norm,
    save_operator,
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


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ent = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        A = KernelOperator(LIN, LIN, ent)
        assert abs(op_norm(A, "SVD") - op_norm(A, "PowerIteration", 1e-12)) < 1e-8


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

    # multiplication operators are applied as column scalings, bit for bit
    for grid in (LIN, PAIR):
        C = KernelOperator(grid, LIN, rng.standard_normal((LIN.n, grid.n))
                           + 1j * rng.standard_normal((LIN.n, grid.n)))
        for spec in (IntervalSpec.ge(0.3), IntervalSpec.abs_le(1.5)):
            M = cutoff_M(spec, grid)
            assert 0 < np.count_nonzero(M.entries) < grid.n
            assert np.array_equal((C @ M).entries, product(C, M))
        vals = rng.standard_normal(grid.n)
        vals[::3] = 0.0
        for D in (KernelOperator.diagonal(grid, vals),
                  KernelOperator.diagonal(grid, vals * (1.0 + 0.5j))):
            assert np.array_equal((C @ D).entries, product(C, D))
    # one off-diagonal nonzero: the dense path, which keeps it
    B = KernelOperator.diagonal(LIN, np.arange(LIN.n, dtype=float))
    B.entries[3, 5] = 2.0
    got = (A @ B).entries
    assert np.array_equal(got, product(A, B))
    assert not np.allclose(got, A.entries * (LIN.weights * np.diagonal(B.entries)))


def test_compact_defect_examples():
    vals = np.array([3.0, 2.0, 1.0] + [0.0] * (LIN.n - 3))
    # diagonal in the weighted picture: divide the weight back out
    ent = np.diag(vals / np.sqrt(LIN.weights) / np.sqrt(LIN.weights))
    A = KernelOperator(LIN, LIN, ent.astype(complex))
    assert abs(compact_defect(A, 1) - 2.0) < 1e-12
    phi = bump_vec(LIN)
    R1 = KernelOperator(LIN, LIN, np.outer(phi, phi).astype(complex))
    assert compact_defect(R1, 1) < 1e-12
    for B, rank in ((A, 1), (R1, 1), (A, LIN.n), (KernelOperator.zero(LIN), 2)):
        assert norm_and_defect(B, rank) == (op_norm(B), compact_defect(B, rank))


def test_cutoffs_partition_and_idempotence():
    delta = 2.0
    Mle = cutoff_M(IntervalSpec.abs_le(delta), LIN)
    Mge = cutoff_M(IntervalSpec.abs_ge(delta), LIN)
    I = KernelOperator.identity(LIN)
    # half-offset nodes never hit the boundary, so the two parts sum to id
    assert np.allclose((Mle + Mge).entries, I.entries)
    assert np.allclose((Mle @ Mle).entries, Mle.entries)
    assert np.allclose(Mle.adjoint().entries, Mle.entries)
    Mp = cutoff_M(IntervalSpec.ge(0.0), LIN)
    Mm = cutoff_M(IntervalSpec.le(0.0), LIN)
    assert op_norm(Mp @ Mm) == 0.0


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


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    ent = rng.standard_normal((PAIR.n, LIN.n)) + 1j * rng.standard_normal((PAIR.n, LIN.n))
    A = KernelOperator(LIN, PAIR, ent, label="demo")
    path = str(tmp_path / "op.npz")
    save_operator(A, path)
    B = load_operator(path)
    assert B.label == "demo"
    assert np.array_equal(B.entries, A.entries)
    assert B.domain == A.domain and B.codomain == A.codomain
    assert abs(op_norm(A) - op_norm(B)) == 0.0
