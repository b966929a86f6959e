import json
import os

import pytest

from boidol.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    OUT_ENV,
    _merge,
    config_hash,
    load_config,
    main,
)

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


@pytest.mark.parametrize("regime", ["omega", "zero"])
def test_converge_independent_of_threads(tmp_path, regime):
    """The thread pool shares no mutable state: one thread (run inline) and
    two pool threads write the same artifact and exit with the same code."""
    cfg_path = write_cfg(tmp_path, {"grid": {"n": 192, "n_half": 144},
                                    "ks": [4, 8]})
    codes, docs = [], []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        codes.append(main(["--config", cfg_path, "--out", str(out),
                           "--threads", str(threads), "converge", regime]))
        docs.append((out / f"converge_{regime}.json").read_text())
    assert codes[0] == codes[1]
    assert docs[0] == docs[1]


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
