import json
import os

import numpy as np
import pytest

from boidol import cli
from boidol.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    OUT_ENV,
    _merge,
    build_parser,
    config_hash,
    load_config,
    main,
)
from boidol.errors import MissingLimitPoint
from boidol.fields import (
    _ADJOINT_SENSITIVE_CHECKS,
    DstarConfig,
    FieldGrids,
    OperatorField,
    PowerSeq,
    default_plan,
    default_sample,
    dstar_report,
    fourier_field,
    s_k_zero,
    tends_to_zero,
    zone_deviation_rows,
)
from boidol.operators import KernelOperator
from boidol.testfun import default_test_function

SMALL = {
    "grid": {"n": 128, "n_half": 96},
    "ks": [4, 8, 16],
    "decay_ratio": 0.65,
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# configuration handling


def test_merge_nested_override_keeps_siblings():
    out = _merge(DEFAULT_CONFIG, {"grid": {"n": 64}})
    assert out["grid"]["n"] == 64
    assert out["grid"]["L"] == 12.0
    assert out["ks"] == DEFAULT_CONFIG["ks"]


def test_merge_rejects_unknown_field_with_path():
    with pytest.raises(ConfigError, match=r"config\.grid\.cols"):
        _merge(DEFAULT_CONFIG, {"grid": {"cols": 3}})


def test_merge_rejects_wrong_shape():
    with pytest.raises(ConfigError, match="expected an object"):
        _merge(DEFAULT_CONFIG, {"grid": [1, 2]})


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/no/such/file.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_config_hash_is_stable_and_key_order_free():
    a = config_hash({"b": 1, "a": [1, 2]})
    b = config_hash({"a": [1, 2], "b": 1})
    assert a == b and len(a) == 64
    assert a != config_hash({"a": [1, 2], "b": 2})


@pytest.mark.parametrize("cores", [None, 1, 2, 3, 4, 64])
def test_threads_default_never_exceeds_cores(monkeypatch, cores):
    """Every command runs in one thread whatever the core count, and
    `--threads N` still parses: it is accepted and ignored."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert build_parser().parse_args(["dstar"]).threads == 1
    assert build_parser().parse_args(["--threads", "3", "dstar"]).threads == 3


def test_config_error_surfaces_as_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--config", "/no/such/file.json", "--out", str(tmp_path), "orbits"])
    assert exc.value.code == 2


def test_grid_scale_is_restricted(tmp_path):
    with pytest.raises(SystemExit):
        main(["--grid-scale", "3", "--out", str(tmp_path), "norms"])


# ---------------------------------------------------------------------------
# subcommands


def test_norms_outputs_and_hash(tmp_path):
    cfg_path = write_cfg(tmp_path, {"grid": {"n": 64, "n_half": 48}})
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "norms"])
    assert rc == 0
    lines = (tmp_path / "norms.csv").read_text().splitlines()
    payload = json.loads((tmp_path / "norms.json").read_text())
    assert lines[0] == f"# config_hash={payload['config_hash']}"
    assert lines[1] == "stratum,point,norm"
    strata = {row["stratum"] for row in payload["rows"]}
    assert strata == {"gamma3", "gamma2", "gamma1"}
    assert payload["refinement_diagnostic"]["relative_change"] < 0.01


def test_norms_out_dir_from_environment(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, {"grid": {"n": 64, "n_half": 48}})
    dest = tmp_path / "envout"
    monkeypatch.setenv(OUT_ENV, str(dest))
    rc = main(["--config", cfg_path, "norms"])
    assert rc == 0
    assert (dest / "norms.csv").exists()


def test_orbits_classification_and_witnesses(tmp_path):
    rc = main(["--out", str(tmp_path), "orbits"])
    assert rc == 0
    payload = json.loads((tmp_path / "orbits.json").read_text())
    by_name = {e["name"]: e for e in payload["report"]["sequences"]}
    assert by_name["omega-one"]["limit_set"] == "TwoPoints"
    assert by_name["omega-zero"]["limit_set"] == "Gamma1UnionGamma0"
    for entry in by_name.values():
        for dists in entry["witness_distances"].values():
            vals = [dists[str(k)] for k in (10, 100, 1000)]
            assert vals[0] > vals[1] > vals[2]


def test_converge_omega_small_grid(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL)
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "converge", "omega"])
    assert rc == 0
    payload = json.loads((tmp_path / "converge_omega.json").read_text())
    assert payload["regime"] == "omega"
    table = payload["tables"][0]
    assert table["name"] == "omega-one" and table["passed"]
    devs = [row["value"] for row in table["rows"]]
    assert devs[0] > devs[-1] > 0
    lines = (tmp_path / "converge_omega_omega-one.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={payload['config_hash']}"
    assert lines[1] == "k,rho_k,lambda_k,R_k,value,bound"
    assert len(lines) == 2 + len(SMALL["ks"])


def test_converge_zero_small_grid(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL)
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "converge", "zero"])
    assert rc == 0
    payload = json.loads((tmp_path / "converge_zero.json").read_text())
    table = payload["tables"][0]
    assert table["name"] == "omega-zero" and table["passed"]
    zone_vals = [row["value"] for row in table["three_zone_rows"]]
    assert zone_vals[-1] < 0.1 * zone_vals[0]


THREADS_CFG = {"grid": {"n": 192, "n_half": 144}, "ks": [4, 8]}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """`small_run(command, threads)`: (exit code, artifact text) of one CLI
    call on THREADS_CFG, `command` "omega", "zero" or "norms"; each call
    runs once per module."""
    root = tmp_path_factory.mktemp("small_run")
    cfg_path = write_cfg(root, THREADS_CFG)
    done = {}

    def run(command, threads):
        if (command, threads) not in done:
            out = root / f"{command}-threads{threads}"
            out.mkdir()
            argv, artifact = ((["norms"], "norms.json") if command == "norms" else
                              (["converge", command], f"converge_{command}.json"))
            code = main(["--config", cfg_path, "--out", str(out),
                         "--threads", str(threads), *argv])
            done[command, threads] = code, (out / artifact).read_text()
        return done[command, threads]

    return run


@pytest.mark.parametrize("command", ["omega", "zero", "norms"])
def test_converge_independent_of_threads(small_run, command):
    """`--threads` is ignored: the commands that once mapped their work over
    a thread pool write the same artifact and exit with the same code under
    one and two threads."""
    assert small_run(command, 1) == small_run(command, 2)


def _small_report():
    """The field and config of THREADS_CFG, built without the CLI, and
    its 2c and 2d conditions."""
    dcfg = DstarConfig(
        grids=FieldGrids.default(n_lin=192, n_half=144), sample=default_sample(),
        plans_omega=(default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1)),),
        plans_zero=(default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1)),),
        ks=(4, 8))
    field = fourier_field(default_test_function())
    checks = tuple(c for c in _ADJOINT_SENSITIVE_CHECKS
                   if c[0] in ("2c_two_point_limit", "2d_three_zone_limit"))
    return field, dcfg, dstar_report(field, dcfg, _checks=checks)["conditions"]


def _halves_decay(rows):
    """Condition 3c's rule: each half-line deviation tends to zero."""
    return all(tends_to_zero([r[half] for r in rows], 0.1, 1.1)
               for half in ("dev_plus", "dev_minus"))


def test_converge_tables_are_the_report_conditions(small_run):
    """`converge omega` is 2c with the rate envelope, `converge zero` is 2d
    with 3c at the converge zone ks, rows and verdicts alike."""
    field, dcfg, conditions = _small_report()
    (omega_code, omega), (zero_code, zero) = small_run("omega", 1), small_run("zero", 1)
    omega, zero = json.loads(omega)["tables"], json.loads(zero)["tables"]
    [two_c] = conditions["2c_two_point_limit"]["tables"]
    [two_d] = conditions["2d_three_zone_limit"]["tables"]
    assert [t["name"] for t in omega] == ["omega-one"]
    assert [t["name"] for t in zero] == ["omega-zero"]
    assert omega[0]["rows"] == two_c["rows"]
    assert omega[0]["limit_scale_passed"] == two_c["limit_scale_passed"]
    assert omega[0]["passed"] == (two_c["passed"] and omega[0]["rate_passed"])
    assert zero[0]["rows"] == two_d["rows"]
    zone_ks = [k for k in cli._CONVERGE_ZONE_KS if k >= 4]
    zone_rows = zone_deviation_rows(field, dcfg.plans_zero[0], zone_ks, dcfg.grids)
    assert zero[0]["three_zone_rows"] == zone_rows
    assert zero[0]["passed"] == (two_d["passed"] and _halves_decay(zone_rows))
    assert omega_code == (0 if omega[0]["passed"] else 1)
    assert zero_code == (0 if zero[0]["passed"] else 1)


def test_converge_zero_fails_when_one_half_line_stalls(tmp_path, monkeypatch):
    """A fixed rank-one term on the running target tau(-w_k, eps) of the
    negative half-line stops that half's deviation from decaying, while the
    larger of the two halves still falls below 0.1 of its first value.  3c
    asks each half to decay, so `converge zero` exits 1; the 2d rows, which
    never read that target, are unchanged.  `slow_decay_ratio` is raised so
    that 2d passes at ks 4 and 8 and only 3c can fail the table."""
    field, dcfg, conditions = _small_report()
    g, plan = dcfg.grids, dcfg.plans_zero[0]
    eps, wk = float(plan.eps), plan.w_k(4)
    dev = (field.tau(-wk, eps, g.minus) - s_k_zero(field, 4, plan, -1, g)).weighted()
    u, sv, vh = np.linalg.svd(dev)
    root_w = np.sqrt(g.minus.weights)
    # minus the top singular pair of the first deviation, scaled so that the
    # deviation at the last k sits between 0.1 of the two halves' first values
    rank_one = (-0.096 * sv[0]) * np.outer(u[:, 0] / root_w, vh[0] / root_w)

    def transform(key, val):
        if key[0] == "tau" and key[1] < 0 and key[2] == eps and key[3] == g.minus:
            return KernelOperator(val.domain, val.codomain, val.entries + rank_one,
                                  val.label)
        return val

    monkeypatch.setattr(cli, "fourier_field", lambda f: fourier_field(f).tampered(transform))
    cfg_path = write_cfg(tmp_path, {**THREADS_CFG, "slow_decay_ratio": 0.9})
    assert main(["--config", cfg_path, "--out", str(tmp_path), "converge", "zero"]) == 1
    [table] = json.loads((tmp_path / "converge_zero.json").read_text())["tables"]
    zone_rows = table["three_zone_rows"]
    assert tends_to_zero([r["value"] for r in zone_rows], 0.1, 1.1)  # the max
    assert tends_to_zero([r["dev_plus"] for r in zone_rows], 0.1, 1.1)
    assert not tends_to_zero([r["dev_minus"] for r in zone_rows], 0.1, 1.1)
    assert table["rows"] == conditions["2d_three_zone_limit"]["tables"][0]["rows"]
    assert tends_to_zero([r["value"] for r in table["rows"]], 0.9, 1.1)  # 2d
    assert not table["passed"]


def test_converge_infeasible_plan_exit_code(tmp_path):
    doc = dict(SMALL)
    doc["sequences"] = [{"name": "bad", "regime": "OmegaNonzero",
                         "rho": {"coeff": 1.0, "exponent": 2.0},
                         "lambda": {"coeff": 1.0, "exponent": -1.0}}]
    cfg_path = write_cfg(tmp_path, doc)
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "converge", "omega"])
    assert rc == 2


def test_dstar_small_grid(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL)
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "dstar"])
    payload = json.loads((tmp_path / "dstar.json").read_text())
    assert rc == (0 if payload["passed"] else 1)
    assert payload["passed"]
    assert (tmp_path / "dstar_2c_two_point_limit_0.csv").exists()
    assert (tmp_path / "dstar_2d_three_zone_limit_0.csv").exists()
    assert (tmp_path / "dstar_3c_two_dim_degeneration_0.csv").exists()
    assert set(payload["conditions"]) >= {
        "1_vanishing_at_infinity", "3d_compact_condition", "4_adjoint"}


@pytest.mark.parametrize("exc, code", [(MissingLimitPoint("no point"), 1),
                                       (RuntimeError("boom"), 2)])
def test_dstar_exit_code_tells_a_failed_condition_from_a_crash(
        tmp_path, monkeypatch, capsys, exc, code):
    """A package error inside a condition fails the condition (exit 1); any
    other exception is an internal error: exit 2, traceback on stderr."""
    def provider(key):
        raise exc

    monkeypatch.setattr(cli, "fourier_field",
                        lambda f: OperatorField(provider, "Synthetic", "broken"))
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path), "dstar"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "Traceback" in err and "RuntimeError: boom" in err
        assert not (tmp_path / "dstar.json").exists()
    else:
        assert err == ""
        payload = json.loads((tmp_path / "dstar.json").read_text())
        assert not payload["passed"]


def test_dstar_records_a_non_finite_operator_as_a_failed_condition(tmp_path, monkeypatch):
    """One NaN in pi(48, 1), which only condition 1 reads: that condition
    records a `NonFiniteOperator` error, the others still run, and the
    command exits 1 (a failed condition), not 2."""
    def transform(key, val):
        if key[:3] == ("pi", 48.0, 1.0):
            entries = val.entries.copy()
            entries[0, 0] = np.nan
            return KernelOperator(val.domain, val.codomain, entries, val.label)
        return val

    monkeypatch.setattr(cli, "fourier_field", lambda f: fourier_field(f).tampered(transform))
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path), "dstar"]) == 1
    conditions = json.loads((tmp_path / "dstar.json").read_text())["conditions"]
    errors = {k: v["error"] for k, v in conditions.items() if "error" in v}
    assert list(errors) == ["1_vanishing_at_infinity"]
    assert errors["1_vanishing_at_infinity"].startswith("NonFiniteOperator: ")
    assert sorted(k for k, v in conditions.items() if not v["passed"]) == [
        "1_vanishing_at_infinity", "4_adjoint"]


def test_custom_test_function_inline(tmp_path):
    from boidol.testfun import default_test_function, to_json

    doc = {"grid": {"n": 64, "n_half": 48},
           "test_function": json.loads(to_json(default_test_function().scaled(2.0)))}
    cfg_path = write_cfg(tmp_path, doc)
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "norms"])
    assert rc == 0
    doubled = json.loads((tmp_path / "norms.json").read_text())
    base = main(["--config", write_cfg(tmp_path, {"grid": {"n": 64, "n_half": 48}},
                                       "base.json"),
                 "--out", str(tmp_path / "base"), "norms"])
    assert base == 0
    base_rows = json.loads((tmp_path / "base" / "norms.json").read_text())["rows"]
    for got, ref in zip(doubled["rows"], base_rows):
        assert abs(got["norm"] - 2.0 * ref["norm"]) < 1e-9 * max(1.0, ref["norm"])
