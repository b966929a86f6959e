import math

import numpy as np
import pytest

from boidol.errors import NyquistViolation, PlanInfeasible, ZoneOverlap
from boidol.fields import (
    _ADJOINT_INVARIANT_CHECKS,
    DstarConfig,
    FieldGrids,
    PowerSeq,
    SequencePlan,
    Sigma0Config,
    SpectrumSample,
    check_dek_muk,
    compact_condition_check,
    default_plan,
    default_sample,
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
)
from boidol.grids import GridSpec
from boidol.group import Character, OneDim, TwoDim
from boidol.operators import op_norm
from boidol.testfun import default_test_function

F = default_test_function()
GRIDS = FieldGrids.default(n_lin=128, n_half=96)
FIELD = fourier_field(F)


# ---------------------------------------------------------------------------
# grids, samples, field plumbing


def test_field_grids_shapes_and_scaling():
    g = FieldGrids.default()
    assert g.lin.n == 512 and g.lin.half_width == 12.0
    assert g.pair.n == 768 and g.plus.sigma == 1 and g.minus.sigma == -1
    g2 = g.scaled(2)
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
    a = FIELD.pi(0.0, 1.0, GRIDS.lin)
    assert FIELD.pi(0.0, 1.0, GRIDS.lin) is a
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
    plan = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    z = plan.zones(8)
    pts = GRIDS.plus.points
    lam_r = plan.Rk(8) * abs(plan.lam(8))
    counts = sum(z[name].indicator(pts).astype(int) for name in ("J+", "I2+", "I3+"))
    assert np.array_equal(counts, (pts > lam_r).astype(int))
    mpts = GRIDS.minus.points
    mcounts = sum(z[name].indicator(mpts).astype(int) for name in ("J-", "I2-", "I3-"))
    assert np.array_equal(mcounts, (mpts < -lam_r).astype(int))


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


def test_sigma_k_zero_linear_in_the_field():
    pz = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    one = sigma_k_zero(FIELD, 4, pz, GRIDS)
    two = sigma_k_zero(fourier_field(F.scaled(2.0)), 4, pz, GRIDS)
    assert np.allclose(two.entries, 2.0 * one.entries)


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
    A = sigma0_apply(psi, taus, Sigma0Config(), (0.0, 0.0), GRIDS.lin)
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
        sigma0_apply(psi, taus, Sigma0Config(), (0.0, 0.0), GRIDS.lin)


def test_sigma0_norm_bound():
    taus = default_sample().gamma0
    psi = np.array([FIELD.char(t) for t in taus])
    A = sigma0_apply(psi, taus, Sigma0Config(), (1.0, 1.0), GRIDS.lin)
    conv = sigma0_apply(psi, taus, Sigma0Config(), (0.0, 0.0), GRIDS.lin)
    # the window factor has modulus at most one
    assert op_norm(A) <= op_norm(conv) * (1 + 1e-6)


def test_compact_condition_on_fourier_field():
    sample = default_sample()
    out = compact_condition_check(FIELD, sample.gamma0, Sigma0Config(), GRIDS)
    assert out["passed"]
    assert out["rank_budget"] == GRIDS.lin.n // 8
    assert len(out["rows"]) == 4


# ---------------------------------------------------------------------------
# tamperings


def test_tamper_zero_two_dim_limits_targets_only_the_limit_points():
    t = tamper_zero_two_dim_limits(FIELD, 1.0)
    assert op_norm(t.tau(1.0, -1.0, GRIDS.plus)) == 0.0
    assert op_norm(t.tau(-1.0, 1.0, GRIDS.minus)) == 0.0
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


def test_dstar_report_structure_and_pass():
    rep = dstar_report(FIELD, small_config())
    names = set(rep["conditions"])
    assert {"1_vanishing_at_infinity", "2a_continuity_generic",
            "2b_compact_generic", "2c_two_point_limit", "2d_three_zone_limit",
            "3a_continuity_lower", "3b_compact_two_dim",
            "3c_two_dim_degeneration", "3d_compact_condition"} <= names
    assert "4_adjoint" not in names
    failing = [k for k, v in rep["conditions"].items() if not v.get("passed")]
    assert rep["passed"] and not failing


def test_dstar_report_collects_errors_instead_of_raising():
    broken = FIELD.tampered(
        lambda key, val: (_ for _ in ()).throw(RuntimeError("boom"))
        if key[0] == "pi" else val, "broken")
    rep = dstar_report(broken, small_config())
    assert not rep["passed"]
    assert "error" in rep["conditions"]["1_vanishing_at_infinity"]


def test_dstar_zero_field_is_a_member():
    rep = dstar_report(zero_field(), small_config())
    assert rep["passed"]


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
