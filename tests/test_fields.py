import collections
import gc
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from boidol import cli, fields, kernels, operators
from boidol.cli import dstar_config, load_config
from boidol.errors import MissingLimitPoint, NyquistViolation, PlanInfeasible, ZoneOverlap
from boidol.fields import (
    _ADJOINT_INVARIANT_CHECKS,
    _ADJOINT_SENSITIVE_CHECKS,
    _cond_compact_gamma2,
    _cond_two_dim_degeneration,
    _generic_times_vk,
    _half_deviation,
    _limit_scale,
    _two_point_pair,
    _verdict,
    _vk_halves,
    DstarConfig,
    FieldGrids,
    OperatorField,
    PowerSeq,
    SequencePlan,
    SpectrumSample,
    check_dek_muk,
    check_rate_envelope,
    check_small_zone,
    check_tail_cutoff,
    compact_condition_check,
    default_plan,
    default_sample,
    deviation_rows,
    dstar_report,
    ell_params,
    fourier_field,
    product_field,
    s_k_zero,
    sigma0_apply,
    sigma_k_omega,
    sigma_k_zero,
    tamper_identity_at_half_line,
    tamper_spike_on_characters,
    tamper_zero_two_dim_limits,
    tends_to_zero,
    validate_plan,
    zero_field,
    zone_deviation_rows,
)
from boidol.grids import GridSpec
from boidol.group import Character, OneDim, TwoDim
from boidol.kernels import kernel_pi_rho_lambda, kernel_tau
from boidol.operators import (
    KernelOperator,
    compact_defect,
    cutoff_M,
    op_norm,
)
from boidol.testfun import (
    BumpFactor,
    SeparableTerm,
    TestFunction,
    default_test_function,
)
from test_kernels import TWO_TERMS, vk_dense

F = default_test_function()
GRIDS = FieldGrids.default(n_lin=128, n_half=96)
FIELD = fourier_field(F)


# ---------------------------------------------------------------------------
# grids, samples, field plumbing


def test_field_grids_shapes_and_scaling():
    g = FieldGrids.default()
    assert g.lin.n == 512 and g.lin.half_width == 12.0
    assert g.pair.n == 768 and g.plus.sigma == 1 and g.pair.parts[1].sigma == -1
    g2 = FieldGrids.default(scale=2)
    assert g2.lin.n == 1024 and g2.lin.half_width == 24.0
    assert g2.pair.half_width == 12.0 and g2.plus.n == 768


def test_default_sample_contents_and_nyquist_scaling():
    s = default_sample()
    assert len(s.gamma3) == 12 and len(s.gamma2) == 6 and len(s.gamma1) == 4
    assert s.gamma0[0] == -16.0 and s.gamma0[-1] == 16.0
    dtau1 = s.gamma0[1] - s.gamma0[0]
    s2 = default_sample(scale=2)
    dtau2 = s2.gamma0[1] - s2.gamma0[0]
    assert abs(dtau2 - dtau1 / 2) < 1e-12


def test_spectrum_sample_validates_strata():
    with pytest.raises(ValueError):
        SpectrumSample((), (OneDim("X", 1),), (), np.zeros(3))
    with pytest.raises(ValueError):
        SpectrumSample((), (), (TwoDim(1.0, 1),), np.zeros(3))


def test_ell_params_conventions():
    assert ell_params(TwoDim(0.7, -1)) == (0.7, -1.0)
    assert ell_params(OneDim("X", -1)) == (-1.0, 0.0)
    assert ell_params(OneDim("Y", 1)) == (0.0, 1.0)
    with pytest.raises(ValueError):
        ell_params(Character(1.0))


def test_field_caching_and_dispatch():
    scope = FIELD.scope()
    a = scope.pi(0.0, 1.0, GRIDS.lin)
    assert scope.pi(0.0, 1.0, GRIDS.lin) is a
    t = FIELD.tau(0.5, -1.0, GRIDS.plus)
    assert t.domain is GRIDS.plus
    assert isinstance(FIELD.char(1.0), complex)


def test_zero_field_trivial():
    z = zero_field()
    assert op_norm(z.pi(1.0, 1.0, GRIDS.lin)) == 0.0
    assert z.char(2.0) == 0.0


def test_product_field_is_pointwise_composition():
    p = product_field(FIELD, FIELD)
    a = FIELD.pi(0.5, 1.0, GRIDS.lin)
    assert np.allclose(p.pi(0.5, 1.0, GRIDS.lin).entries, (a @ a).entries)
    assert p.char(1.5) == FIELD.char(1.5) ** 2


def test_adjoint_field():
    adj = FIELD.adjoint()
    a = FIELD.pi(0.5, 1.0, GRIDS.lin)
    assert np.array_equal(adj.pi(0.5, 1.0, GRIDS.lin).entries,
                          np.conj(a.entries).T)
    assert adj.char(1.0) == np.conj(FIELD.char(1.0))


def test_failed_build_is_not_cached():
    calls = []

    def provider(key):
        calls.append(key)
        if len(calls) == 1:
            raise RuntimeError("first build fails")
        return 1.0

    field = OperatorField(provider)
    with pytest.raises(RuntimeError):
        field.char(0.0)
    assert field.char(0.0) == 1.0 and len(calls) == 2


def test_field_keeps_characters_and_a_scope_keeps_operators():
    """A field keeps its characters and builds an operator on each read; a
    scope keeps every value it reads until the scope is dropped."""
    base = fourier_field(F)
    built = base.pi(0.5, 1.0, GRIDS.lin)
    assert base.pi(0.5, 1.0, GRIDS.lin) is not built
    c = base.char(1.0)
    assert list(base._cache) == [("char", 1.0)] and base.char(1.0) is c
    scope = base.scope()
    kept = scope.pi(0.5, 1.0, GRIDS.lin)
    assert scope.pi(0.5, 1.0, GRIDS.lin) is kept
    assert scope.char(1.0) is c
    assert list(base._cache) == [("char", 1.0)]
    assert np.array_equal(kept.entries, built.entries)
    ref = weakref.ref(kept)
    del kept
    gc.collect()
    assert ref() is not None  # the scope holds it
    del scope
    gc.collect()
    assert ref() is None  # freed with the scope


# ---------------------------------------------------------------------------
# plans


def test_power_seq():
    s = PowerSeq(2.0, -0.5)
    assert s(4) == 1.0
    assert s.describe() == {"coeff": 2.0, "exponent": -0.5}


def test_default_plans_validate():
    pw = default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1))
    assert pw.omega == 1.0 and pw.eps == 1
    pz = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    assert pz.Sk(4) < pz.Tk(4)
    pz2 = default_plan("OmegaZero", PowerSeq(1, 0), PowerSeq(1, -1))
    assert pz2.Rk(64) > pz2.Rk(4)


def test_plan_infeasible_names_the_violated_invariant():
    with pytest.raises(PlanInfeasible, match="settle"):
        default_plan("OmegaNonzero", PowerSeq(1, 2), PowerSeq(1, -1))
    with pytest.raises(PlanInfeasible, match="rho_k != 0"):
        default_plan("OmegaZero", PowerSeq(0, 0), PowerSeq(1, -1))
    bad = SequencePlan("OmegaNonzero", 1, PowerSeq(1, 1), PowerSeq(1, -1),
                       Rk=lambda k: 2.0, omega=1.0)
    with pytest.raises(PlanInfeasible, match="R_k"):
        validate_plan(bad)
    const_lam = SequencePlan("OmegaNonzero", 1, PowerSeq(1, 1), PowerSeq(1, 0),
                             Rk=lambda k: float(k), omega=1.0)
    with pytest.raises(PlanInfeasible, match="lambda_k"):
        validate_plan(const_lam)


def test_zones_partition_the_tail_exactly():
    """`SequencePlan.zones` gives the edges R_k |lam_k| < |w_k| S_k <
    |w_k| T_k, and the three zones of `s_k_zero` partition u > R_k |lam_k|
    exactly, edges included, and hold no u < 0: the minus half reads them on
    the plus grid.  Grid nodes never sit on an edge, so the zones are read on
    a grid whose nodes are the plus grid's points, the edges and their
    negatives, through the marker field."""
    plan = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    field = _zone_marker_field()
    for k in (4, 8, 64):
        lam_r = plan.Rk(k) * abs(plan.lam(k))
        aw = plan.w_k(k)
        edges = np.array([lam_r, aw * plan.Sk(k), aw * plan.Tk(k)])
        assert np.array_equal(plan.zones(k), edges)
        pts = np.concatenate([GRIDS.plus.points, -GRIDS.plus.points, edges, -edges])
        grid = GridSpec("linear", 1.0, len(pts), pts, np.ones(len(pts)))
        marks = s_k_zero(field, k, plan, 1, types.SimpleNamespace(plus=grid)).entries[0]
        want = np.select([pts <= edges[0], pts <= edges[1], pts <= edges[2]], [0, 1, 2], 4)
        assert np.array_equal(marks, want)


def _zone_marker_field():
    """A field whose three zone operators are constant: 1 at the running
    points tau(+-w_k, 0), 2 at tau(0, 0) and 4 at tau(0, -+eps)."""

    def provider(key):
        _, mu, nu, grid = key
        mark = 1.0 if mu != 0.0 else 2.0 if nu == 0.0 else 4.0
        return KernelOperator(grid, grid, np.full((grid.n, grid.n), mark, complex))

    return OperatorField(provider)


def test_zones_are_disjoint_and_cover_the_tail_over_random_plans():
    """Over random valid "OmegaZero" plans, ks and half-line grids, the
    three zone masks of `s_k_zero` are disjoint and their union is exactly
    {u > R_k |lam_k|} on the plus grid, which both halves read: on the
    marker field every column of either half's s_k_zero carries the mark of
    its one zone there and 0 elsewhere."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    field = _zone_marker_field()

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        rho = PowerSeq(data.draw(st.floats(0.25, 4.0)), data.draw(st.floats(0.0, 1.0)))
        lam = PowerSeq(data.draw(st.sampled_from((1.0, -1.0)))
                       * data.draw(st.floats(0.25, 4.0)), -data.draw(st.floats(0.5, 2.0)))
        try:
            plan = default_plan("OmegaZero", rho, lam)
        except PlanInfeasible:
            hyp.reject()
        k = 2 ** data.draw(st.integers(2, 20))
        grids = FieldGrids.default(n_lin=16, V=data.draw(st.floats(1.0, 12.0)),
                                   n_half=data.draw(st.integers(4, 96)))
        lam_r = plan.Rk(k) * abs(plan.lam(k))
        r, s, t = plan.zones(k)
        u = grids.plus.points
        masks = [(u > r) & (u <= s), (u > s) & (u <= t), u > t]
        tail = u > lam_r
        assert np.array_equal(np.sum(masks, axis=0), tail.astype(int))
        want = sum(mark * m for mark, m in zip((1.0, 2.0, 4.0), masks))
        for half in (1, -1):  # the minus half reads the same zones on the plus grid
            marks = s_k_zero(field, k, plan, half, grids).entries
            assert np.array_equal(marks, np.broadcast_to(want, marks.shape))

    check()


def test_zone_edges_out_of_order_raise():
    plan = SequencePlan("OmegaZero", 1, PowerSeq(1, 0.5), PowerSeq(1, -1),
                        Rk=lambda k: 10.0 * k, Sk=lambda k: 1.0, Tk=lambda k: 2.0)
    with pytest.raises(ZoneOverlap):
        plan.zones(4)


def test_sigma_constructions_check_regime():
    pw = default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1))
    pz = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    with pytest.raises(ValueError):
        sigma_k_omega(FIELD, 4, pz, GRIDS)
    with pytest.raises(ValueError):
        sigma_k_zero(FIELD, 4, pw, GRIDS)
    with pytest.raises(ValueError):
        s_k_zero(FIELD, 4, pz, 0, GRIDS)


def test_s_k_zero_is_its_zone_operators_masked_to_their_zones():
    pz = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    k, eps = 8, float(pz.eps)
    wk, (r, s, t) = pz.w_k(k), pz.zones(k)
    lam_r = pz.Rk(k) * abs(pz.lam(k))
    zones = (lambda u: (u > r) & (u <= s), lambda u: (u > s) & (u <= t), lambda u: u > t)
    for half, grid, points in (
            (1, GRIDS.plus, ((wk, 0.0), (0.0, 0.0), (0.0, -eps))),
            (-1, GRIDS.plus, ((-wk, 0.0), (0.0, 0.0), (0.0, eps)))):
        got = s_k_zero(FIELD, k, pz, half, GRIDS).entries
        want = sum(FIELD.tau(mu, nu, grid).masked(cutoff_M(zone, grid)).entries
                   for zone, (mu, nu) in zip(zones, points))
        assert np.array_equal(got, want)
        inner = np.abs(grid.points) <= lam_r
        assert inner.any() and not np.any(got[:, inner])


def test_sigma_k_zero_linear_in_the_field():
    pz = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    one = sigma_k_zero(FIELD, 4, pz, GRIDS)
    two = sigma_k_zero(fourier_field(F.scaled(2.0)), 4, pz, GRIDS)
    assert np.allclose(two.entries, 2.0 * one.entries)


# ---------------------------------------------------------------------------
# the quantitative degeneration checks


CHECK_KS = (4, 8, 16)


def _omega_plan():
    return default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1))


def _reference_check_rows(plan, ks, grids):
    """The tail, small-zone and rate rows built straight from the kernels,
    with V_k as the dense n x 2 n_half matrix."""
    tail, small, rate = [], [], []
    pair, eps = grids.pair, plan.eps
    half, minus = grids.plus.n, grids.pair.parts[1]
    for k in ks:
        rho_k, lam_k, R_k = plan.rho(k), plan.lam(k), plan.Rk(k)
        wk, lam_r = plan.w_k(k), R_k * abs(lam_k)
        base = {"k": k, "rho_k": rho_k, "lambda_k": lam_k, "R_k": R_k}
        A = kernel_pi_rho_lambda(F, rho_k, lam_k, grids.lin)
        V = vk_dense(rho_k, lam_k, pair, grids.lin)
        AV = A @ V
        tail.append({**base, "bound": None, "value": op_norm(
            AV.masked(cutoff_M(lambda u: np.abs(u) >= R_k, pair)))})
        small.append({**base, "bound": None, "value": op_norm(
            AV.masked(cutoff_M(lambda u: np.abs(u) <= lam_r, pair)))})
        t_plus = kernel_tau(F, eps * wk, -eps, grids.plus)
        t_minus = kernel_tau(F, -eps * wk, eps, minus)
        ent_plus = np.zeros((pair.n, pair.n), complex)
        ent_plus[:half, :half] = t_plus.masked(
            cutoff_M(lambda u: u >= lam_r, grids.plus)).entries
        ent_minus = np.zeros((pair.n, pair.n), complex)
        ent_minus[half:, half:] = t_minus.masked(
            cutoff_M(lambda u: u <= -lam_r, minus)).entries
        dev_a = op_norm(AV.masked(cutoff_M(lambda u: u >= 0.0, pair))
                        - V @ KernelOperator(pair, pair, ent_plus))
        dev_b = op_norm(AV.masked(cutoff_M(lambda u: u <= 0.0, pair))
                        - V @ KernelOperator(pair, pair, ent_minus))
        rate.append({**base, "dev_a": dev_a, "dev_b": dev_b,
                     "envelope_unit": abs(wk) / (R_k ** 2 * abs(lam_k)) + 1.0 / R_k})
    C = max(max(r["dev_a"], r["dev_b"]) / r["envelope_unit"] for r in rate[:2])
    for r in rate:
        r["bound"] = 1.5 * C * r["envelope_unit"]
    return tail, small, rate, C


def _assert_rows_close(got, want, rel=1e-13):
    """Rows with the same keys and every number within `rel` of the
    reference's, a zero of the reference matched exactly."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key, value in w.items():
            if isinstance(value, float) and value != 0.0:
                assert g[key] == pytest.approx(value, rel=rel, abs=0), (key, g, w)
            else:
                assert g[key] == value, (key, g, w)


def test_degeneration_checks_equal_the_kernel_reference():
    """The checks take their norms from factors by products, the reference
    from dense matrices, so the numbers agree to rounding; the tail rows at
    k >= 4 are exact zeros on both sides."""
    plan = _omega_plan()
    field = fourier_field(F)
    # at k >= 4 the tail cutoff misses the support of A_k V_k and reads 0;
    # at k = 1 it does not, so a wrong radius or mask shows in the rows
    ks = (1, *CHECK_KS)
    tail, small, rate, C = _reference_check_rows(plan, ks, GRIDS)
    assert tail[0]["value"] > 0
    assert all(r["value"] == 0.0 for r in tail[1:])
    got_tail = check_tail_cutoff(field, plan, ks, GRIDS)
    assert got_tail[0]["value"] > 0
    _assert_rows_close(got_tail, tail)
    _assert_rows_close(check_small_zone(field, plan, ks, GRIDS), small)
    got = check_rate_envelope(field, plan, ks, GRIDS)
    _assert_rows_close(got["rows"], rate)
    assert got["C"] == pytest.approx(C, rel=1e-13, abs=0)
    assert got["passed"] == all(max(r["dev_a"], r["dev_b"]) <= r["bound"]
                                for r in rate[2:])


def _composites(field, plan, k, grids):
    """The three composites the degeneration checks take norms of at k:
    A_k - sigma_k, A_k V_k M (M the small-zone cutoff) and A_k V+ - V+ b M
    (`check_rate_envelope`'s part (a))."""
    rho_k, lam_k = plan.rho(k), plan.lam(k)
    sigma = sigma_k_omega if plan.regime == "OmegaNonzero" else sigma_k_zero
    A = field.pi(rho_k, lam_k, grids.lin)
    halves = _vk_halves(rho_k, lam_k, grids)
    AV = _generic_times_vk(A, halves, grids)
    M = cutoff_M(lambda u: np.abs(u) <= plan.Rk(k) * abs(lam_k), AV.domain)
    plus = halves[0]
    b = _two_point_pair(field, plan, k, plan.w_k(k), grids)[0]
    return {"A - sigma": A - sigma(field, k, plan, grids), "A V M": AV.masked(M),
            "A V - V b M": _half_deviation(A, plus, b)}


def _dense(op):
    return KernelOperator(op.domain, op.codomain, op.entries, op.label)


def test_vk_halves_hold_vk_operators_own_array(monkeypatch):
    """V_k's plus half is the array `kernels.vk_operator` returned, and its
    minus half a row-reversed view of it: no copy of V_k is made."""
    built = []
    vk_operator = kernels.vk_operator

    def recording_vk(*args):
        op = vk_operator(*args)
        built.append(op.entries)
        return op

    monkeypatch.setattr(kernels, "vk_operator", recording_vk)
    plus, minus = _vk_halves(8.0, 0.125, GRIDS)
    assert len(built) == 1
    assert plus.entries is built[0]
    assert minus.entries.base is built[0]
    assert minus.domain is plus.domain  # the minus half is read on the plus grid


@pytest.mark.parametrize("regime", ["OmegaNonzero", "OmegaZero"])
def test_composite_norms_match_their_dense_entries(regime):
    """op_norm of each composite, by products of its factors, is within
    1e-13 relative of op_norm of its dense entries, on the field and on its
    adjoint, at k = 4 and 64.  No composite is a dense operator: its
    entries are built on each read, not held."""
    plan = _omega_plan() if regime == "OmegaNonzero" else default_plan(
        "OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    field = fourier_field(F_ASYM)
    for f in (field, field.adjoint()):
        for k in (4, 64):
            for name, op in _composites(f, plan, k, GRIDS).items():
                assert op.entries is not op.entries, name
                want = op_norm(_dense(op))
                assert want > 0, (name, k)
                assert op_norm(op) == pytest.approx(want, rel=1e-13, abs=0), (name, k)


def test_composite_norm_falls_back_to_the_dense_svd(monkeypatch):
    """When Lanczos has not converged, the composite's dense copy goes to
    the SVD, so the norm is the dense operator's SVD value exactly."""
    monkeypatch.setattr(operators, "_LANCZOS_STEPS", 1)
    for name, op in _composites(FIELD, _omega_plan(), 4, GRIDS).items():
        dense = _dense(op)
        svd = float(np.linalg.svd(dense.weighted(), compute_uv=False)[0])
        assert op_norm(op) == op_norm(dense), name
        assert op_norm(op) == pytest.approx(svd, rel=1e-14), name


def test_a_structurally_empty_tail_row_is_exactly_zero():
    """Beyond the tail cutoff V_k's block meets none of A_k's nonzero
    columns, so the composite has no live term and its norm is 0.0 without
    an iteration; its dense copy is all zeros."""
    plan = _omega_plan()
    k = 4
    A = FIELD.pi(plan.rho(k), plan.lam(k), GRIDS.lin)
    AV = _generic_times_vk(A, _vk_halves(plan.rho(k), plan.lam(k), GRIDS), GRIDS)
    tail = AV.masked(cutoff_M(lambda u: np.abs(u) >= plan.Rk(k), AV.domain))
    assert not tail.entries.any()
    assert tail._products(np.ones(GRIDS.lin.n), np.ones(AV.domain.n)) is None
    assert op_norm(tail) == 0.0
    assert check_tail_cutoff(FIELD, plan, (k,), GRIDS)[0]["value"] == 0.0


def test_degeneration_checks_read_the_field_cache():
    source = fourier_field(F)
    builds = collections.Counter()

    def provider(key):
        builds[key[0]] += 1
        return source.at(key)

    field = OperatorField(provider, "FourierOf", "counting").scope()
    plan = _omega_plan()
    for k in CHECK_KS:
        field.pi(plan.rho(k), plan.lam(k), GRIDS.lin)
        sigma_k_omega(field, k, plan, GRIDS)
    assert builds["pi"] == len(CHECK_KS) and builds["tau"] == 2
    before = dict(builds)
    check_tail_cutoff(field, plan, CHECK_KS, GRIDS)
    check_small_zone(field, plan, CHECK_KS, GRIDS)
    check_rate_envelope(field, plan, CHECK_KS, GRIDS)
    assert dict(builds) == before


# an off-centre b_a makes the two half-line models differ
F_ASYM = TestFunction((SeparableTerm(1.0, BumpFactor(0.0, 1.0), BumpFactor(0.0, 1.0),
                                     BumpFactor(0.5, 1.0), BumpFactor(0.0, 2.0)),))
ROW_KEYS = {"k", "rho_k", "lambda_k", "R_k", "value", "bound"}


def _reference_deviation_rows(field, plan, ks, grids, zone=False):
    """The deviation rows built loop by loop from the limit constructions."""
    rows = []
    for k in ks:
        row = {"k": k, "rho_k": plan.rho(k), "lambda_k": plan.lam(k),
               "R_k": plan.Rk(k), "bound": None}
        A = field.pi(plan.rho(k), plan.lam(k), grids.lin)
        if zone:
            wk, eps = plan.w_k(k), float(plan.eps)
            row["dev_plus"] = op_norm(field.tau(wk, -eps, grids.plus)
                                      - s_k_zero(field, k, plan, 1, grids))
            row["dev_minus"] = op_norm(field.tau(-wk, eps, grids.plus)
                                       - s_k_zero(field, k, plan, -1, grids))
            row["value"] = max(row["dev_plus"], row["dev_minus"])
        elif plan.regime == "OmegaNonzero":
            row["value"] = op_norm(A - sigma_k_omega(field, k, plan, grids))
        else:
            row["value"] = op_norm(A - sigma_k_zero(field, k, plan, grids))
        rows.append(row)
    return rows


def test_deviation_rows_match_explicit_loops():
    field = fourier_field(F_ASYM)
    plan_zero = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    for plan in (_omega_plan(), plan_zero):
        rows = deviation_rows(field, plan, CHECK_KS, GRIDS)
        assert rows == _reference_deviation_rows(field, plan, CHECK_KS, GRIDS)
        assert all(set(row) == ROW_KEYS for row in rows)
    zone_ks = (4, 64, 1024)
    rows = zone_deviation_rows(field, plan_zero, zone_ks, GRIDS)
    assert rows == _reference_deviation_rows(field, plan_zero, zone_ks, GRIDS, zone=True)
    assert all(set(row) == ROW_KEYS | {"dev_plus", "dev_minus"} for row in rows)
    assert all(row["dev_plus"] != row["dev_minus"] for row in rows)


def test_a_negative_lambda_plan_exchanges_the_half_lines():
    """A plan with lambda_k < 0 (eps = -1) runs the eps branches of
    `_two_points`, `zone_deviation_rows` and `s_k_zero`.  hatF34 of F_ASYM
    is real, and on it tau(-mu, nu) is the conjugate of tau(mu, nu) and
    pi(rho, -lam) is pi(rho, lam) with the line reversed, entry for entry:
    against the lambda_k > 0 plan, the whole-line norms agree to rounding
    and the two half-line parts are exchanged."""
    field = fourier_field(F_ASYM)
    tau = field.tau(0.3, 1.0, GRIDS.plus).entries
    assert np.array_equal(field.tau(-0.3, 1.0, GRIDS.plus).entries, np.conj(tau))
    pi = field.pi(2.0, 0.5, GRIDS.lin).entries
    assert np.array_equal(field.pi(2.0, -0.5, GRIDS.lin).entries, pi[::-1, ::-1])

    def close(a, b):
        return abs(a - b) <= 1e-13 * max(abs(a), abs(b))

    plans = {regime: tuple(default_plan(regime, rho, PowerSeq(c, -1)) for c in (1, -1))
             for regime, rho in (("OmegaNonzero", PowerSeq(1, 1)),
                                 ("OmegaZero", PowerSeq(1, 0.5)))}
    for regime, (plus, minus) in plans.items():
        assert (plus.eps, minus.eps) == (1, -1)
        for check in (deviation_rows, check_small_zone):
            rows = zip(check(field, plus, CHECK_KS, GRIDS), check(field, minus, CHECK_KS, GRIDS))
            assert all(close(p["value"], m["value"]) for p, m in rows), (regime, check)
    rows = zip(*(zone_deviation_rows(field, plan, (4, 64, 1024), GRIDS)
                 for plan in plans["OmegaZero"]))
    assert all((p["dev_plus"], p["dev_minus"]) == (m["dev_minus"], m["dev_plus"])
               for p, m in rows)
    rows = zip(*(check_rate_envelope(field, plan, CHECK_KS, GRIDS)["rows"]
                 for plan in plans["OmegaNonzero"]))
    assert all(close(p["dev_a"], m["dev_b"]) and close(p["dev_b"], m["dev_a"]) for p, m in rows)


def _traced_peak(fn):
    """(fn(), the peak of memory traced by tracemalloc during the call, in
    bytes above what was traced when it began)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# each construction's peak in n^2 complex entries: its larger reading at
# k = 4 and 64 (sigma_k_omega 0.70 and 0.41, sigma_k_zero 0.88 and 0.47)
# plus a margin of n^2 / 16, so no n x n array fits under either cap
_SIGMA_PEAK_CAP = {"sigma_k_omega": 0.70 + 0.0625, "sigma_k_zero": 0.88 + 0.0625}


def test_limit_constructions_and_norms_stay_under_a_memory_cap():
    """At n = 512, n_half = 384, with every field value cached in a scope:
    sigma_k_omega and sigma_k_zero at k = 4 and 64 peak at no more than
    their `_SIGMA_PEAK_CAP` in n^2 complex entries, which admits no n x n
    array (sigma_k is kept as thin factors, and the half-line values are
    structured, only their blocks on V_k's log window made dense); op_norm
    of each deviation A_k - sigma_k, by products of the factors, at no more
    than 1 MiB (a copy of A_k alone would be 4 MiB); and op_norm and
    compact_defect of its dense copy at no more than the bytes of that
    copy's nonzero block plus 1 MiB (a weighted copy of the whole matrix
    would add n^2)."""
    grids = FieldGrids.default(n_lin=512, n_half=384)
    n = grids.lin.n
    field = fourier_field(F).scope()
    plans = ((sigma_k_omega, _omega_plan()),
             (sigma_k_zero, default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))))
    for k in (4, 64):
        for sigma, plan in plans:
            A = field.pi(plan.rho(k), plan.lam(k), grids.lin)
            sigma(field, k, plan, grids)  # fills the scope
            S, peak = _traced_peak(lambda: sigma(field, k, plan, grids))
            assert peak <= _SIGMA_PEAK_CAP[sigma.__name__] * n * n * 16, (
                sigma.__name__, k, peak / (n * n * 16))
            D = A - S
            _, peak = _traced_peak(lambda: op_norm(D))
            assert peak <= 2 ** 20, (sigma.__name__, k, peak)
            dense = KernelOperator(D.domain, D.codomain, D.entries)
            del S, D
            ent = dense.entries
            block = int(ent.any(axis=1).sum() * ent.any(axis=0).sum()) * 16
            for measure in (op_norm, lambda op: compact_defect(op, 64)):
                _, peak = _traced_peak(lambda: measure(dense))
                assert peak <= block + 2 ** 20, (sigma.__name__, k, peak - block)


def test_degeneration_rows_allocate_less_than_the_generic_operator():
    """At n = 512, n_half = 384 and k = 4, with the generic operator and the
    half-line values cached in a scope, one row of `deviation_rows`,
    `check_small_zone` and `check_rate_envelope` peaks below the bytes of
    A_k itself (0.39-0.88 of them, every row building V_k's halves): no n x n
    or n x n_half array is formed besides A_k.  So does a row of
    `deviation_rows` on the scope's adjoint, as the adjoint pass of 2c and
    2d runs it (0.77 and 0.88): A_k* is read without a copy."""
    grids = FieldGrids.default(n_lin=512, n_half=384)
    pi_bytes = grids.lin.n ** 2 * 16
    k = 4
    for plan in (_omega_plan(),
                 default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))):
        field = fourier_field(F).scope()
        checks = [(deviation_rows, field), (deviation_rows, field.adjoint()),
                  (check_small_zone, field)]
        if plan.regime == "OmegaNonzero":
            checks.append((check_rate_envelope, field))
        for check, f in checks:
            check(f, plan, (k,), grids)  # fills the scope
            _, peak = _traced_peak(lambda: check(f, plan, (k,), grids))
            assert peak < pi_bytes, (check.__name__, f.label, plan.regime, peak / pi_bytes)


def test_compressed_rows_read_the_adjoint_generic_operator_without_a_copy():
    """At n = 512, n_half = 384 and k = 4, with the values cached in a scope,
    a row of `check_small_zone` and one of `check_rate_envelope` on the
    scope's adjoint peak within 0.1 of A_k's bytes of the same row on the
    scope (0.41 and 0.65 on both, each row building V_k's halves):
    `KernelOperator.product` takes A_k*'s block as an adjoint view of A_k's,
    without a copy, which would add A_k's bytes."""
    grids = FieldGrids.default(n_lin=512, n_half=384)
    pi_bytes = grids.lin.n ** 2 * 16
    plan, k = _omega_plan(), 4
    field = fourier_field(F).scope()
    for check in (check_small_zone, check_rate_envelope):
        peaks = []
        for f in (field, field.adjoint()):
            check(f, plan, (k,), grids)  # fills the scope
            peaks.append(_traced_peak(lambda: check(f, plan, (k,), grids))[1] / pi_bytes)
        assert abs(peaks[1] - peaks[0]) <= 0.1, (check.__name__, peaks)


def test_one_3c_row_allocates_far_less_than_one_half_line_matrix():
    """At n_half = 384, with every field value cached in a scope, one row of
    `zone_deviation_rows` (the norms of tau - s_k on both half-lines) peaks
    at no more than 0.14 of one n_half x n_half complex array: each
    difference is structured and its norm is taken by FFT products (0.128
    and 0.118 of that array at k = 4 and 4^9, mostly the Lanczos bases).
    The same row on the field itself, which builds every tau it reads,
    peaks at 0.147-0.150."""
    grids = FieldGrids.default(n_lin=512, n_half=384)
    field = fourier_field(F).scope()
    plan = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    n_half = grids.plus.n
    for k in (4, 4 ** 9):
        zone_deviation_rows(field, plan, (k,), grids)  # fills the scope
        _, peak = _traced_peak(lambda: zone_deviation_rows(field, plan, (k,), grids))
        assert peak <= 0.14 * n_half * n_half * 16, (k, peak / (n_half * n_half * 16))


# ---------------------------------------------------------------------------
# decision rules and moment bound


def test_tends_to_zero_rule():
    assert tends_to_zero([1.0, 0.5, 0.2, 0.05])
    assert not tends_to_zero([1.0, 0.5, 0.2, 0.15])          # ratio misses 0.1
    assert not tends_to_zero([1.0, 0.05, 0.5, 0.04])         # rises after max drop
    assert tends_to_zero([0.5, 1.0, 0.5, 0.2, 0.04])         # monotone from max
    assert tends_to_zero([1.0, 0.3, 0.32, 0.05], wiggle=1.1)  # small wiggle ok
    assert tends_to_zero([0.0, 0.0, 0.0])                    # identically zero
    assert not tends_to_zero([])


def test_dek_muk_moment_bound():
    measured, bound = check_dek_muk(F, 0.1, 1.0, GRIDS.lin)
    assert measured <= bound * 1.05
    assert measured > 0


# ---------------------------------------------------------------------------
# the extension map


def test_sigma0_pure_convolution_at_origin():
    taus = default_sample().gamma0
    psi = np.exp(-0.5 * taus ** 2)
    A = sigma0_apply(psi, taus, (0.0, 0.0), GRIDS.lin)
    e = A.entries
    assert np.allclose(e[1:, 1:], e[:-1, :-1])  # Toeplitz
    # against the closed-form inverse transform of the Gaussian
    xi = np.exp(-GRIDS.lin.nodes ** 2).astype(complex)
    got = A.apply(xi)
    u = GRIDS.lin.nodes
    conv = np.zeros(len(u), dtype=complex)
    h = GRIDS.lin.weights[0]
    kern = np.exp(-0.5 * (h * np.arange(-(len(u) - 1), len(u))) ** 2) / math.sqrt(2 * math.pi)
    for i in range(len(u)):
        conv[i] = h * np.sum(kern[(len(u) - 1) + i - np.arange(len(u))] * xi)
    assert np.max(np.abs(got - conv)) < 1e-6 * np.max(np.abs(conv))


def test_sigma0_nyquist_guard():
    taus = np.linspace(-16, 16, 33)  # spacing 1: too coarse for L = 12 shifts
    psi = np.ones_like(taus)
    with pytest.raises(NyquistViolation):
        sigma0_apply(psi, taus, (0.0, 0.0), GRIDS.lin)


def test_sigma0_norm_bound():
    taus = default_sample().gamma0
    psi = np.array([FIELD.char(t) for t in taus])
    A = sigma0_apply(psi, taus, (1.0, 1.0), GRIDS.lin)
    conv = sigma0_apply(psi, taus, (0.0, 0.0), GRIDS.lin)
    # the window factor has modulus at most one
    assert op_norm(A) <= op_norm(conv) * (1 + 1e-6)


def test_compact_condition_on_fourier_field():
    sample = default_sample()
    out = compact_condition_check(FIELD, sample.gamma0, GRIDS)
    assert out["passed"]
    assert out["rank_budget"] == GRIDS.lin.n // 8
    assert len(out["rows"]) == 4


# ---------------------------------------------------------------------------
# tamperings


def test_tamper_zero_two_dim_limits_targets_only_the_limit_points():
    t = tamper_zero_two_dim_limits(FIELD, 1.0)
    assert op_norm(t.tau(1.0, -1.0, GRIDS.plus)) == 0.0
    assert op_norm(t.tau(-1.0, 1.0, GRIDS.plus)) == 0.0
    keep = t.tau(0.5, -1.0, GRIDS.plus)
    assert op_norm(keep) == op_norm(FIELD.tau(0.5, -1.0, GRIDS.plus))
    assert t.char(1.0) == FIELD.char(1.0)


def test_tamper_identity_at_half_line_targets_one_point():
    t = tamper_identity_at_half_line(FIELD)
    changed = t.ell(1.0, 0.0, GRIDS.lin)
    xi = np.exp(-GRIDS.lin.nodes ** 2).astype(complex)
    assert np.allclose(changed.apply(xi), xi)
    assert np.allclose(t.ell(0.0, 1.0, GRIDS.lin).entries,
                       FIELD.ell(0.0, 1.0, GRIDS.lin).entries)


def test_tamper_spike_on_characters_targets_one_node():
    t = tamper_spike_on_characters(FIELD, at=1.0)
    assert abs(t.char(1.0) - FIELD.char(1.0)) > 0.1 * abs(FIELD.char(0.0))
    assert t.char(0.5) == FIELD.char(0.5)
    assert np.allclose(t.pi(0.0, 1.0, GRIDS.lin).entries,
                       FIELD.pi(0.0, 1.0, GRIDS.lin).entries)


# ---------------------------------------------------------------------------
# the aggregate report at reduced resolution


def small_config(**over):
    base = dict(
        grids=GRIDS,
        sample=default_sample(),
        plans_omega=(default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1)),),
        plans_zero=(default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1)),),
        ks=(4, 8, 16),
        ks_tau=(4, 64, 1024, 4 ** 7, 4 ** 9),
        decay_ratio=0.6,
        check_adjoint=False,
    )
    base.update(over)
    return DstarConfig(**base)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: on the n = 128 window the adjoint's 2c deviations fall "
    "only to 0.608 of the first, above decay_ratio 0.6, so 4_adjoint fails "
    "(the FOUND line on 4_adjoint in CHANGES.md)"))
def test_the_default_field_and_its_adjoint_pass_on_the_small_config():
    assert dstar_report(FIELD, small_config(check_adjoint=True))["passed"]


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: a member fails on the default config. 3c's dev_plus "
    "falls only from 0.016061 to 0.004468 (ratio 0.278) and dev_minus from "
    "0.014046 to 0.002885 (0.205), above decay_ratio 0.1, so 3c fails, and "
    "with it 4_adjoint"))
def test_the_fourier_field_of_f_asym_is_a_member():
    """Positive control: F_ASYM is a test function, so its Fourier field is
    in C*(G).  Run it with `pytest -m slow`."""
    assert dstar_report(fourier_field(F_ASYM), dstar_config(load_config(None), 1))["passed"]


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: a member fails on the default config. 2c's deviation "
    "falls only from 0.011141 to 0.002195 (ratio 0.197), above decay_ratio "
    "0.1, so 2c fails, and with it 4_adjoint"))
def test_the_fourier_field_of_two_terms_is_a_member():
    """Positive control: the Fourier field of TWO_TERMS, which is not
    flip-invariant, so every mirrored point is measured.  Run it with
    `pytest -m slow`."""
    assert dstar_report(fourier_field(TWO_TERMS), dstar_config(load_config(None), 1))["passed"]


def test_dstar_report_structure_and_pass():
    rep = dstar_report(FIELD, small_config())
    names = set(rep["conditions"])
    assert {"1_vanishing_at_infinity", "2a_continuity_generic",
            "2b_compact_generic", "2c_two_point_limit", "2d_three_zone_limit",
            "3a_continuity_lower", "3b_compact_two_dim",
            "3c_two_dim_degeneration", "3d_compact_condition"} <= names
    assert "4_adjoint" not in names
    failing = [k for k, v in rep["conditions"].items() if not v["passed"]]
    assert rep["passed"] and not failing


def _raising_field(exc):
    def provider(key):
        raise exc
    return OperatorField(provider, "Synthetic", "broken")


def test_dstar_report_collects_errors_instead_of_raising():
    """A package error or a failed LAPACK call is recorded per condition, as
    its `error` with status "error", which the adjoint pass and the report
    take as theirs; any other exception is a bug and propagates."""
    for exc in (MissingLimitPoint("no such point"), np.linalg.LinAlgError("boom")):
        rep = dstar_report(_raising_field(exc), small_config(check_adjoint=True))
        assert rep["status"] == "error" and not rep["passed"]
        assert "4_adjoint" in rep["conditions"]
        for name, cond in rep["conditions"].items():
            assert cond["status"] == "error" and not cond["passed"], name
            if name != "4_adjoint":
                assert cond["error"] == f"{type(exc).__name__}: {exc}", name
    with pytest.raises(RuntimeError, match="boom"):
        dstar_report(_raising_field(RuntimeError("boom")), small_config())


def test_verdict_is_the_worst_of_its_parts():
    """Bools, verdicts and "error" mix; no parts pass, as `all([])` does."""
    assert _verdict() == {"status": "pass", "passed": True}
    fail, error = _verdict(False), _verdict("error")
    assert fail == {"status": "fail", "passed": False}
    assert error == {"status": "error", "passed": False}
    assert _verdict(True, _verdict(True, True)) == _verdict()
    for parts, status in (((True, fail), "fail"), ((fail, True, "error"), "error"),
                          ((error, False), "error"), ((True, np.float64(0.0) < 1.0), "pass")):
        assert _verdict(*parts)["status"] == status, parts
        assert _verdict(*reversed(parts))["status"] == status, parts


def test_dstar_zero_field_is_a_member():
    rep = dstar_report(zero_field(), small_config())
    assert rep["passed"]


def _replace_at(point, new):
    """A tampering that replaces the value at ("pi"|"ell", a, b) by new(value, grid)."""
    def transform(key, val):
        return new(val, key[3]) if key[:3] == point else val
    return transform


_BUMP = np.exp(-GRIDS.lin.nodes ** 2)


def _stalled_running_target():
    """A tampering that adds one fixed rank-one term, of norm 0.05, to the
    running target tau(-w_k, eps) of the minus half-line at each k of the
    small config's `ks_tau`.  That half's deviation then rises from 0.036
    to 0.050 over those ks, where it fell from 0.020 to 0.00067, so 3c
    fails; only 3c reads these points."""
    cfg = small_config()
    plan = cfg.plans_zero[0]
    targets = {("tau", -plan.w_k(k), float(plan.eps), GRIDS.plus) for k in cfg.ks_tau}
    bump = np.exp(-GRIDS.plus.nodes ** 2)
    term = KernelOperator(GRIDS.plus, GRIDS.plus, 0.04 * np.outer(bump, bump).astype(complex))

    def transform(key, val):
        return val + term if key in targets else val
    return transform


# one tampering per condition, each of a point only that condition reads
_NEGATIVE_CONTROLS = {
    # pi(64, 1) carries the reference norm of pi(0, 1)
    "1_vanishing_at_infinity":
        _replace_at(("pi", 64.0, 1.0), lambda val, g: FIELD.pi(0.0, 1.0, g)),
    # the last rung of the ladder at (0, 1) jumps by a fixed rank-one term
    "2a_continuity_generic":
        _replace_at(("pi", 0.05, 1.0), lambda val, g: val + KernelOperator(
            g, g, 0.01 * np.outer(_BUMP, _BUMP).astype(complex))),
    "2b_compact_generic":
        _replace_at(("pi", 2.0, 0.5), lambda val, g: val + 0.01 * KernelOperator.identity(g)),
    # 3a reads ell(1.3 + d, 1), never this point
    "3b_compact_two_dim":
        _replace_at(("ell", 1.3, -1.0), lambda val, g: val + 0.01 * KernelOperator.identity(g)),
    "3c_two_dim_degeneration": _stalled_running_target(),
}


@pytest.mark.parametrize("condition", sorted(_NEGATIVE_CONTROLS))
def test_negative_control_fails_its_own_condition_only(condition):
    rep = dstar_report(FIELD.tampered(_NEGATIVE_CONTROLS[condition]), small_config())
    assert sorted(k for k, v in rep["conditions"].items() if not v["passed"]) == [condition]
    assert not any("error" in v for v in rep["conditions"].values())


def test_adjoint_negative_control_fails_4_adjoint_only():
    """B -> B M at the zone-three point tau(0, -/+eps) of both half-lines, M
    the cutoff to zone three (t, inf) at the last of `ks_tau`.  Zone three
    (t_k, inf) grows with k, so every s_k reads B M on its zone-three
    columns as B, and the nine conditions, 2d and 3c included, read what
    they read on the field, which passes them all and 4_adjoint on the
    default config (criterion 10).  The adjoint field reads (B M)* = M B*,
    whose rows at u <= t are zero: on zone three's columns they weigh most
    where t_k is nearest t, at the largest ks, so the adjoint's 3c
    deviations rise from 0.0026 at k = 4^7 to 0.0078 at 4^10, and fail."""
    cfg = dstar_config(load_config(None), 1)
    t = cfg.plans_zero[0].zones(cfg.ks_tau[-1])[2]

    def transform(key, val):
        if key[0] == "tau" and key[1] == 0.0 and abs(key[2]) == 1.0:
            return val.masked(cutoff_M(lambda u: u > t, key[3]))
        return val

    rep = dstar_report(FIELD.tampered(transform), cfg)
    adj = rep["conditions"].pop("4_adjoint")
    assert all(c["status"] == "pass" for c in rep["conditions"].values())
    assert adj["status"] == rep["status"] == "fail"
    assert [k for k, ok in adj["conditions"].items() if not ok] == ["3c_two_dim_degeneration"]


def _assert_close_tree(a, b, path="report"):
    """Same structure and verdicts; numbers within 1e-12 rel or 1e-14 abs."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_close_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close_tree(x, y, f"{path}[{i}]")
    elif isinstance(a, (bool, str)) or a is None:
        assert a == b, path
    else:
        assert abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-14), path


def test_adjoint_invariant_conditions_agree_on_the_adjoint_field():
    cfg = small_config()
    adj = FIELD.adjoint()
    for name, fn in _ADJOINT_INVARIANT_CHECKS:
        _assert_close_tree(fn(FIELD, cfg), fn(adj, cfg), name)


def test_adjoint_pass_reuses_invariant_verdicts():
    rep = dstar_report(tamper_spike_on_characters(FIELD),
                       small_config(check_adjoint=True))
    adj = rep["conditions"]["4_adjoint"]
    assert set(adj["conditions"]) == set(rep["conditions"]) - {"4_adjoint"}
    assert not rep["conditions"]["3a_continuity_lower"]["passed"]
    assert adj["conditions"]["3a_continuity_lower"] is False
    assert not adj["passed"] and not rep["passed"]


def _counting_field(builds):
    source = fourier_field(F)

    def provider(key):
        builds[key] += 1
        return source.at(key)

    return OperatorField(provider, "FourierOf", "counting")


def test_adjoint_field_retains_nothing():
    field = fourier_field(F)
    adj = field.adjoint()
    ref = weakref.ref(adj.pi(0.5, 1.0, GRIDS.lin))
    gc.collect()
    assert ref() is None
    assert adj.pi(0.5, 1.0, GRIDS.lin) is not adj.pi(0.5, 1.0, GRIDS.lin)
    assert field._cache == {} and adj._cache == {}


def test_report_keeps_only_the_characters():
    """Each adjoint-sensitive condition's operators live in its own scope,
    dropped before the next condition, and the other five read the field,
    which keeps no operator, so after the report the field holds only
    character values: those 3d read, which 3a reads again."""
    cfg = small_config(check_adjoint=True)
    field = fourier_field(F)
    rep = dstar_report(field, cfg)
    names = sorted(name for name, _ in
                   _ADJOINT_INVARIANT_CHECKS + _ADJOINT_SENSITIVE_CHECKS)
    assert list(rep["conditions"]) == names + ["4_adjoint"]
    assert set(field._cache) == {("char", float(t)) for t in cfg.sample.gamma0}


def _held_bytes(fields):
    """The bytes of the values held in the caches of the live `fields`."""
    return sum(getattr(v, "nbytes", None) or np.asarray(v).nbytes
               for fld in list(fields) if fld._cache for v in list(fld._cache.values()))


def test_report_cache_never_exceeds_one_conditions_cache(monkeypatch):
    """At every build during the report, the operators held in all field
    caches take no more bytes than the largest cache one adjoint-sensitive
    condition fills when it runs alone on a fresh field (2d here, whose
    generic values are dense; 3c's 44 half-line values are structured and
    hold a tenth of that): the four conditions' caches are never held at
    once."""
    cfg = small_config(check_adjoint=True)
    alone = {}
    for name, fn in _ADJOINT_SENSITIVE_CHECKS:
        fresh = fourier_field(F).scope()
        fn(fresh, cfg)
        alone[name] = _held_bytes([fresh])
    fields, held = weakref.WeakSet(), []
    init = OperatorField.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fields.add(self)

    monkeypatch.setattr(OperatorField, "__init__", recording_init)
    build = fourier_field(F)._provider

    def provider(key):
        held.append(_held_bytes(fields))
        return build(key)

    dstar_report(OperatorField(provider, "FourierOf", "recording"), cfg)
    assert max(alone, key=alone.get) == "2d_three_zone_limit"
    assert 0 < max(held) <= max(alone.values()), (max(held), alone)


def test_adjoint_pass_builds_nothing():
    """The adjoint pass builds no value the primal pass has not built.  3a
    and 3b read the field, which keeps no operator, so the two-dimensional
    values both read are built twice, and pi(0, 1), which 1, 2a and 2b each
    read, three times."""
    with_adj, without = collections.Counter(), collections.Counter()
    rep = dstar_report(_counting_field(with_adj), small_config(check_adjoint=True))
    dstar_report(_counting_field(without), small_config(check_adjoint=False))
    assert "4_adjoint" in rep["conditions"]
    assert with_adj == without
    lin = GRIDS.lin
    assert with_adj[("ell", 0.7, 1.0, lin)] == with_adj[("ell", 1.3, 1.0, lin)] == 2
    assert with_adj[("pi", 0.0, 1.0, lin)] == 3


def test_retention_never_changes_a_number():
    """The report on a scope, which keeps every value it reads, equals the
    report on the field, which keeps only characters."""
    cfg = small_config(check_adjoint=True)
    assert dstar_report(fourier_field(F), cfg) == dstar_report(fourier_field(F).scope(), cfg)


# ---------------------------------------------------------------------------
# the flip automorphism at the condition level

# a second function with f o gamma == f: every x- and a-centre is 0, the
# other slots are off-centre and the coefficients complex
FLIP_EVEN = TestFunction((
    SeparableTerm(0.8 - 0.4j, BumpFactor(0.3, 0.9), BumpFactor(0.0, 0.6),
                  BumpFactor(0.0, 1.4), BumpFactor(0.2, 1.8)),
    SeparableTerm(0.5j, BumpFactor(-0.2, 0.7), BumpFactor(0.0, 1.3),
                  BumpFactor(0.0, 0.8), BumpFactor(-0.1, 2.2)),
))
# the grid of the benchmark's `dstar` workload, and the default grid
_REPORT_GRIDS = {"bench": FieldGrids.default(12.0, 384, 6.0, 288),
                 "default": FieldGrids.default()}


def test_flip_invariance_is_derived_and_inherited():
    """`fourier_field` reads it off f o gamma == f, `scope()` and
    `adjoint()` keep it, and a tampered, product or zero field is never
    flip-invariant."""
    assert F.reflected() == F and FLIP_EVEN.reflected() == FLIP_EVEN
    even = fourier_field(FLIP_EVEN)
    assert FIELD.flip_invariant and even.flip_invariant
    assert not fourier_field(TWO_TERMS).flip_invariant
    assert FIELD.scope().flip_invariant and FIELD.adjoint().flip_invariant
    assert FIELD.scope().adjoint().flip_invariant
    assert not fourier_field(TWO_TERMS).scope().adjoint().flip_invariant
    assert not FIELD.tampered(lambda key, val: val).flip_invariant
    assert not product_field(FIELD, even).flip_invariant
    assert not zero_field().flip_invariant


@pytest.mark.parametrize("grid_name", sorted(_REPORT_GRIDS))
@pytest.mark.parametrize("f", [F, FLIP_EVEN], ids=["default", "flip_even"])
def test_flip_mirrored_values_have_equal_entries(f, grid_name):
    """The premise of the mirror shortcut (`fields._mirrored_once`): on a
    flip-invariant field each value the report reads at a point has the
    entries of the value at its mirror, bit for bit, on the benchmark's and
    the default grid, at every index of the default config's plans.  So
    giving the mirror the point's number moves no number."""
    g = _REPORT_GRIDS[grid_name]
    cfg = dstar_config(load_config(None), 1)
    field = fourier_field(f)
    assert field.flip_invariant

    def same(a, b):
        a, b = a.entries, b.entries
        return np.array_equal(a, b) and np.any(a)

    for lab in cfg.sample.gamma2 + cfg.sample.gamma1:
        mu, nu = ell_params(lab)
        assert same(field.ell(mu, nu, g.lin), field.ell(-mu, -nu, g.lin)), lab
    points = []  # (mu, nu) of tau on the plus model, its mirror the minus one's
    for plan in cfg.plans_omega:
        points.append((plan.eps * abs(plan.omega), -float(plan.eps)))
    for plan in cfg.plans_zero:
        eps = float(plan.eps)
        points += [(0.0, 0.0), (0.0, -eps)]
        for k in cfg.ks_tau:
            assert same(s_k_zero(field, k, plan, 1, g), s_k_zero(field, k, plan, -1, g)), k
            points += [(plan.w_k(k), -eps), (plan.w_k(k), 0.0)]
    assert len(points) == 23
    for mu, nu in points:
        assert same(field.tau(mu, nu, g.plus), field.tau(-mu, -nu, g.plus)), (mu, nu)
    taus = cfg.sample.gamma0
    psi = np.array([field.char(t) for t in taus])
    for mu, nu in ((1.0, 0.0), (0.0, 1.0)):
        assert same(sigma0_apply(psi, taus, (mu, nu), g.lin),
                    sigma0_apply(psi, taus, (-mu, -nu), g.lin)), (mu, nu)


def _count_calls(monkeypatch, *names):
    """Count the calls that `boidol.fields` makes to each of its `names`."""
    counts = collections.Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(fields, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fields, name, counted)
    return counts


def test_the_mirror_shortcut_moves_no_number_and_saves_the_mirrored_calls(monkeypatch):
    """The report on the Fourier field equals, key for key and bit for bit,
    the report on a field with the same values that is not flip-invariant,
    adjoint pass included.  The shortcut saves exactly the mirrored calls:
    2c's second limit norm, one 3c norm per index and 3d's X-1 and Y-1
    defects, each in both passes, and 3b's two defects at omega = -0.7."""
    cfg = small_config(check_adjoint=True)
    counts = _count_calls(monkeypatch, "op_norm", "compact_defect")
    shortcut = dstar_report(fourier_field(F), cfg)
    saved = collections.Counter(counts)
    counts.clear()
    plain = OperatorField(fourier_field(F).at, "FourierOf", "fourier")
    assert not plain.flip_invariant
    assert dstar_report(plain, cfg) == shortcut
    saved.subtract(counts)
    per_pass = len(cfg.plans_omega) + len(cfg.plans_zero) * len(cfg.ks_tau)
    assert -saved["op_norm"] == 2 * per_pass == 12
    assert -saved["compact_defect"] == 2 * 2 + 2


_NOT_FLIP_INVARIANT = {
    "two_terms": lambda: fourier_field(TWO_TERMS),
    "tampered": lambda: FIELD.tampered(lambda key, val: val),
    "product": lambda: product_field(FIELD, FIELD),
}


@pytest.mark.parametrize("name", ["fourier"] + sorted(_NOT_FLIP_INVARIANT))
def test_every_mirrored_point_is_measured_unless_the_field_is_flip_invariant(
        monkeypatch, name):
    """On a field that is not flip-invariant each of the five mirrored
    measurements takes every point: 2 limit norms in 2c, 2 norms per index
    in 3c and in the rate envelope, 6 defects in 3b and 4 in 3d.  The
    Fourier field of the default function takes one point of each mirrored
    pair."""
    field = FIELD if name == "fourier" else _NOT_FLIP_INVARIANT[name]()
    cfg = small_config(ks_tau=(4, 64))
    counts = _count_calls(monkeypatch, "op_norm", "compact_defect")
    full = not field.flip_invariant
    assert full == (name != "fourier")
    _limit_scale(field, cfg.plans_omega[0], GRIDS)
    assert counts["op_norm"] == (2 if full else 1)
    counts.clear()
    _cond_two_dim_degeneration(field, cfg)
    assert counts["op_norm"] == 2 * len(cfg.ks_tau) // (1 if full else 2)
    counts.clear()
    _cond_compact_gamma2(field, cfg)
    assert counts["compact_defect"] == (6 if full else 4)
    counts.clear()
    compact_condition_check(field, cfg.sample.gamma0, GRIDS)
    assert counts["compact_defect"] == (4 if full else 2)
    counts.clear()
    check_rate_envelope(field, cfg.plans_omega[0], cfg.ks, GRIDS)
    assert counts["op_norm"] == len(cfg.ks) * (2 if full else 1)


def test_a_default_converge_omega_takes_at_most_24_norms(monkeypatch, tmp_path):
    """`boidol converge omega` on the default config takes 22 norms in
    `boidol.fields`, 4 per index (2c's deviation, the tail and small-zone
    rows, the rate envelope's part (a), whose mirror gives part (b)), the
    first generic norm and one limit norm, and 2 in `cli`'s refinement
    diagnostic."""
    counts = _count_calls(monkeypatch, "op_norm")
    cli_op_norm = cli.op_norm

    def counted(A):
        counts["cli"] += 1
        return cli_op_norm(A)

    monkeypatch.setattr(cli, "op_norm", counted)
    assert cli.main(["--out", str(tmp_path), "converge", "omega"]) == 0
    assert counts == {"op_norm": 22, "cli": 2}
    assert sum(counts.values()) <= 24


def test_a_tamper_of_the_minus_half_alone_still_fails_3c():
    """The tampered field is not flip-invariant, so 3c measures the minus
    half it breaks: `dev_plus` is the clean field's and decays, `dev_minus`
    does not, and 3c fails."""
    cfg = small_config()
    clean = _cond_two_dim_degeneration(FIELD, cfg)
    tampered = _cond_two_dim_degeneration(FIELD.tampered(_stalled_running_target()), cfg)
    assert clean["passed"] and not tampered["passed"]
    [clean_rows], [rows] = ([t["rows"] for t in c["tables"]] for c in (clean, tampered))
    assert [r["dev_plus"] for r in rows] == [r["dev_plus"] for r in clean_rows]
    assert not tends_to_zero([r["dev_minus"] for r in rows], cfg.decay_ratio, cfg.wiggle)
