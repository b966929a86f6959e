import collections
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from boidol import cli, fields, kernels, operators
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


def test_merge_rejects_null_where_the_default_is_not_null(tmp_path):
    """An explicit null would merge to the default and leave the artifact's
    hash equal to a default run's; it is an error at every key but
    "test_function", whose default is null."""
    for over, path in (({"decay_ratio": None}, "config.decay_ratio"),
                       ({"ks": None}, "config.ks"),
                       ({"grid": None}, "config.grid"),
                       ({"grid": {"n": None}}, "config.grid.n")):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: null")):
            _merge(DEFAULT_CONFIG, over)
    cfg = load_config(write_cfg(tmp_path, {"test_function": None}))
    assert cfg == DEFAULT_CONFIG
    bad = write_cfg(tmp_path, {"decay_ratio": None, "ks": None, "grid": None}, "bad.json")
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad, "--out", str(tmp_path), "orbits"])
    assert exc.value.code == 2
    assert not (tmp_path / "orbits.json").exists()


@pytest.mark.parametrize("key", ["ks", "orbit_ks"])
@pytest.mark.parametrize("value", [[], [0], [-4], ["a"], [True], [4.0], 4],
                         ids=["empty", "zero", "negative", "string", "bool", "float",
                              "scalar"])
def test_malformed_ks_is_a_usage_error_naming_its_path(tmp_path, capsys, key, value):
    """ks and orbit_ks must be non-empty lists of positive integers; any
    other value exits 2, before the command that reads it runs, with a
    usage error naming the path."""
    command = {"ks": "dstar", "orbit_ks": "orbits"}[key]
    cfg_path = write_cfg(tmp_path, {key: value})
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_path, "--out", str(tmp_path), command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"config.{key}: expected a non-empty list of positive integers" in err
    assert "Traceback" not in err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("doc, path", [
    ({"decay_ratio": "x"}, "config.decay_ratio: expected a number"),
    ({"wiggle": True}, "config.wiggle: expected a number"),
    ({"grid": {"n": "512"}}, "config.grid.n: expected an integer"),
    ({"grid": {"n": 512.0}}, "config.grid.n: expected an integer"),
    ({"sequences": {"name": "a"}}, "config.sequences: expected a list"),
    ({"sequences": [{"name": "a", "regime": "OmegaNonzero"}]},
     "config.sequences[0].rho: expected an object"),
    ({"sequences": [{"name": 1, "regime": "OmegaZero", "rho": {}, "lambda": {}}]},
     "config.sequences[0].name: expected a string"),
    ({"sequences": [{"name": "a", "regime": "Omega", "rho": {"coeff": 1, "exponent": 1},
                     "lambda": {"coeff": 1, "exponent": -1}}]},
     "config.sequences[0].regime: expected"),
    ({"sequences": [{"name": "a", "regime": "OmegaZero", "rho": {"coeff": 1, "exponent": 1},
                     "lambda": {"coeff": 1, "exponent": "-1"}}]},
     "config.sequences[0].lambda.exponent: expected a number"),
    ({"test_function": 5}, "config.test_function: not a test function"),
    ({"test_function": {"terms": [{"coeff": [1, 0], "b_x": [0, 1], "b_a": [0, 1],
                                   "b_b": [0, 1]}]}},
     "config.test_function: not a test function (KeyError"),
    ({"test_function": {"terms": [{"coeff": [1, 0], "b_t": [0, -1], "b_x": [0, 1],
                                   "b_a": [0, 1], "b_b": [0, 1]}]}},
     "config.test_function: not a test function (ValueError"),
], ids=["float-string", "float-bool", "int-string", "int-float", "sequences-object",
        "sequence-no-rho", "sequence-name", "sequence-regime", "sequence-exponent",
        "testfun-number", "testfun-no-b_t", "testfun-negative-width"])
def test_mistyped_config_value_is_a_usage_error_naming_its_path(tmp_path, capsys, doc,
                                                                path):
    """A config value of the wrong JSON type exits 2, before any command
    runs, with a usage error naming its path, and prints no traceback."""
    cfg_path = write_cfg(tmp_path, doc)
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_path, "--out", str(tmp_path), "orbits"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert not (tmp_path / "orbits.json").exists()


def test_merge_fuzzed_overrides_keep_siblings_and_name_unknown_paths():
    """A random override of known keys, nested ones included, replaces
    exactly those values and keeps every sibling; one unknown key, at the
    top or inside "grid", raises `ConfigError` naming its path."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    leaf = st.one_of(st.integers(-10, 10), st.floats(allow_nan=False),
                     st.lists(st.integers(1, 64), max_size=4))

    def override(defaults):
        return st.fixed_dictionaries({}, optional={
            key: override(val) if isinstance(val, dict) else leaf
            for key, val in defaults.items()})

    def expect(defaults, over):
        return {key: expect(val, over[key]) if isinstance(val, dict) and key in over
                else over.get(key, val) for key, val in defaults.items()}

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        over = data.draw(override(DEFAULT_CONFIG))
        assert _merge(DEFAULT_CONFIG, over) == expect(DEFAULT_CONFIG, over)
        nested = data.draw(st.booleans())
        known = DEFAULT_CONFIG["grid"] if nested else DEFAULT_CONFIG
        # an explicit alphabet, non-ASCII included: without a `.hypothesis`
        # cache, st.text's default one builds the full Unicode charmap
        # (some 130 MiB of peak RSS), and `_merge` reads keys as opaque strings
        name = data.draw(st.text(alphabet="abcXYZ_09.é中", min_size=1, max_size=8)
                         .filter(lambda s: s not in known))
        (over.setdefault("grid", {}) if nested else over)[name] = data.draw(leaf)
        path = ("config.grid." if nested else "config.") + name
        with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown field")):
            _merge(DEFAULT_CONFIG, over)

    check()


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


def test_converge_omega_holds_one_generic_operator_at_a_time(tmp_path, monkeypatch):
    """`converge omega` runs one k at a time: each generic operator pi_k is
    built once, and when it is built every earlier pi (the operator and
    its entries) is already freed; each of k's four rows builds its own V_k
    (`kernels.vk_operator`)."""
    pis, alive_at_build = [], []

    def recording_field(f):
        build = fourier_field(f)._provider

        def provider(key):
            if key[0] == "pi":
                alive_at_build.append(sum(ref() is not None for pair in pis for ref in pair))
            value = build(key)
            if key[0] == "pi":
                pis.append((weakref.ref(value), weakref.ref(value.entries)))
            return value

        return OperatorField(provider, "FourierOf", "recording")

    vk_builds = collections.Counter()
    vk_operator = kernels.vk_operator

    def counting_vk(rho_k, lambda_k, *args, **kwargs):
        vk_builds[rho_k, lambda_k] += 1
        return vk_operator(rho_k, lambda_k, *args, **kwargs)

    monkeypatch.setattr(cli, "fourier_field", recording_field)
    monkeypatch.setattr(kernels, "vk_operator", counting_vk)
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path), "converge", "omega"]) == 0
    plan = default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1))
    assert alive_at_build == [0] * len(SMALL["ks"])
    assert vk_builds == {(plan.rho(k), plan.lam(k)): 4 for k in SMALL["ks"]}


@pytest.mark.parametrize("regime", ["omega", "zero"])
def test_converge_frees_each_ks_vk_halves_before_the_next_pi(tmp_path, monkeypatch, regime):
    """When `converge omega|zero` builds a generic operator pi_k, no earlier
    k's V_k halves (the operators `_vk_halves` gave and the plus half's
    block) are alive, so no two k's blocks are held at once."""
    halves, alive_at_build = [], []

    def recording_field(f):
        build = fourier_field(f)._provider

        def provider(key):
            if key[0] == "pi":
                alive_at_build.append(sum(ref() is not None for ref in halves))
            return build(key)

        return OperatorField(provider, "FourierOf", "recording")

    conjugated_to_line = fields._conjugated_to_line

    def recording_conjugated(pair, vk_halves, grids):
        halves.extend(weakref.ref(x) for x in (*vk_halves, vk_halves[0].entries))
        return conjugated_to_line(pair, vk_halves, grids)

    monkeypatch.setattr(cli, "fourier_field", recording_field)
    monkeypatch.setattr(fields, "_conjugated_to_line", recording_conjugated)
    cfg_path = write_cfg(tmp_path, SMALL)
    main(["--config", cfg_path, "--out", str(tmp_path), "converge", regime])
    assert len(halves) == 3 * len(SMALL["ks"])
    assert alive_at_build == [0] * len(SMALL["ks"])


@pytest.mark.parametrize("argv, artifact", [
    (["converge", "omega"], "converge_omega.json"),
    (["converge", "zero"], "converge_zero.json"),
    (["dstar"], "dstar.json"),
], ids=["converge-omega", "converge-zero", "dstar"])
def test_commands_leave_no_kernel_operator_alive(tmp_path, argv, artifact):
    """No `KernelOperator` a command builds outlives it (V_k's halves
    included), and two runs in one process write the same artifact, byte
    for byte."""
    cfg_path = write_cfg(tmp_path, SMALL)
    # held, so no operator built by the command can reuse one of their ids
    before = [o for o in gc.get_objects() if isinstance(o, KernelOperator)]
    kept = {id(o) for o in before}
    artifacts = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["--config", cfg_path, "--out", str(out), *argv]) == 0
        artifacts.append((out / artifact).read_bytes())
        gc.collect()
        assert [o.label for o in gc.get_objects()
                if isinstance(o, KernelOperator) and id(o) not in kept] == []
    assert artifacts[0] == artifacts[1]


def test_converge_zero_small_grid(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL)
    rc = main(["--config", cfg_path, "--out", str(tmp_path), "converge", "zero"])
    assert rc == 0
    payload = json.loads((tmp_path / "converge_zero.json").read_text())
    table = payload["tables"][0]
    assert table["name"] == "omega-zero" and table["passed"]
    zone_vals = [row["value"] for row in table["three_zone_rows"]]
    assert zone_vals[-1] < 0.1 * zone_vals[0]


def test_converge_zero_imports_no_numpy_ma(tmp_path):
    """No command needs `numpy.ma`, whose import took about 9 ms per process
    (`-X importtime`): a fresh process that runs `converge zero` on the
    small config has not loaded it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["--config", write_cfg(tmp_path, SMALL), "--out", str(tmp_path), "converge", "zero"]
    code = ("import sys; from boidol.cli import main; "
            f"print(main({argv!r}), 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[-2:] == ["0", "False"]


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


def _bench_artifacts():
    """`bench/artifacts.py`, the benchmark's artifact comparator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "artifacts.py"
    spec = importlib.util.spec_from_file_location("bench_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["dstar", "zero"])
def test_verdicts_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    """OpenBLAS reads its thread count when numpy loads, so the command runs
    in two fresh processes on the small config, at OPENBLAS_NUM_THREADS=1
    and =2, side by side.  The exit codes and every verdict are equal, and
    every number agrees within the benchmark comparator's rtol 1e-9 and
    atol 1e-14 (`bench/artifacts.differences`): a BLAS call may round
    differently with more threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    cfg = write_cfg(tmp_path, SMALL)
    argv, artifact = ((["dstar"], "dstar.json") if command == "dstar" else
                      (["converge", "zero"], "converge_zero.json"))
    procs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        procs[threads] = subprocess.Popen(
            [sys.executable, "-m", "boidol.cli", "--config", cfg, "--out", str(out), *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    errors = {t: proc.communicate(timeout=120)[1] for t, proc in procs.items()}
    assert procs["1"].returncode in (0, 1), errors["1"]
    assert procs["2"].returncode == procs["1"].returncode, errors["2"]
    one, two = (json.loads((tmp_path / t / artifact).read_text()) for t in procs)
    assert one["passed"] == two["passed"]
    assert _bench_artifacts().differences(two, one) == []


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
    zone_ks = [k for k in cli._CONVERGE_KS_TAU if k >= 4]
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
    dev = (field.tau(-wk, eps, g.plus) - s_k_zero(field, 4, plan, -1, g)).weighted()
    u, sv, vh = np.linalg.svd(dev)
    root_w = np.sqrt(g.plus.weights)
    # minus the top singular pair of the first deviation, scaled so that the
    # deviation at the last k sits between 0.1 of the two halves' first values
    rank_one = (-0.096 * sv[0]) * np.outer(u[:, 0] / root_w, vh[0] / root_w)

    def transform(key, val):
        if key[0] == "tau" and key[1] < 0 and key[2] == eps and key[3] == g.plus:
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


def test_converge_zero_fails_when_the_generic_points_are_perturbed(tmp_path, monkeypatch):
    """The negative control of 2d: a fixed rank-one term, of norm 50 times
    the first deviation, on the zero plan's generic points pi(rho_k, lam_k)
    keeps their deviation from sigma_k from decaying, so 2d fails.  3c never
    reads a generic point, so its rows are those of the unperturbed run and
    it passes, and `converge zero` exits 1 where the unperturbed run exits 0."""
    cfg_path = write_cfg(tmp_path, SMALL)

    def table(out):
        code = main(["--config", cfg_path, "--out", str(tmp_path / out), "converge", "zero"])
        [table] = json.loads((tmp_path / out / "converge_zero.json").read_text())["tables"]
        return code, table

    code, clean = table("clean")
    assert code == 0 and clean["passed"]
    g = FieldGrids.default(n_lin=SMALL["grid"]["n"], n_half=SMALL["grid"]["n_half"])
    plan = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    generic = {(plan.rho(k), plan.lam(k)) for k in SMALL["ks"]}
    phi = np.exp(-g.lin.nodes ** 2)
    phi /= np.sqrt(np.sum(g.lin.weights * phi ** 2))
    # the kernel c phi(u) phi(x) has operator norm c
    rank_one = (50.0 * clean["rows"][0]["value"]) * np.outer(phi, phi)

    def transform(key, val):
        if key[0] == "pi" and key[1:3] in generic:
            return KernelOperator(val.domain, val.codomain, val.entries + rank_one,
                                  val.label)
        return val

    monkeypatch.setattr(cli, "fourier_field", lambda f: fourier_field(f).tampered(transform))
    code, perturbed = table("perturbed")
    assert code == 1 and not perturbed["passed"]
    assert not tends_to_zero([r["value"] for r in perturbed["rows"]], 0.75, 1.1)
    assert perturbed["three_zone_rows"] == clean["three_zone_rows"]
    assert _halves_decay(perturbed["three_zone_rows"])


def test_converge_zero_keeps_none_of_the_3c_running_points(tmp_path, monkeypatch):
    """`converge zero` runs 2d and then 3c on the field, which keeps no
    operator: the field's cache is empty at the end, each generic operator and each
    of 3c's running points tau(+-w_k, -+eps) was built exactly once, and
    the k-independent limit points tau(0, -+eps) once per 2d or 3c row and
    tau(0, 0), which both halves read on the plus grid, twice per row."""
    builds, made = collections.Counter(), []

    def counting_field(f):
        build = fourier_field(f)._provider  # builds without caching

        def provider(key):
            builds[key] += 1
            return build(key)

        made.append(OperatorField(provider, "FourierOf", "counting"))
        return made[-1]

    monkeypatch.setattr(cli, "fourier_field", counting_field)
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path), "converge", "zero"]) == 0
    [field] = made
    g = FieldGrids.default(n_lin=SMALL["grid"]["n"], n_half=SMALL["grid"]["n_half"])
    plan = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))
    eps = float(plan.eps)
    zone_ks = [k for k in cli._CONVERGE_KS_TAU if k >= min(SMALL["ks"])]
    running = [key for k in zone_ks
               for key in (("tau", plan.w_k(k), -eps, g.plus),
                           ("tau", -plan.w_k(k), eps, g.plus))]
    generic = [("pi", plan.rho(k), plan.lam(k), g.lin) for k in SMALL["ks"]]
    assert len(running) == 10 and not field._cache
    assert all(builds[key] == 1 for key in running + generic)
    rows = len(SMALL["ks"]) + len(zone_ks)
    # both halves read tau(0, 0), on the one half-line grid
    for key, reads in ((("tau", 0.0, 0.0, g.plus), 2 * rows),
                       (("tau", 0.0, -eps, g.plus), rows), (("tau", 0.0, eps, g.plus), rows)):
        assert builds[key] == reads, key


def test_converge_zero_never_makes_a_whole_tau_dense(tmp_path, monkeypatch):
    """On the small config, `converge zero` evaluates the half-line values
    only as blocks on V_k's log window (for 2d), never as a whole
    n_half x n_half matrix: 3c takes its norms by FFT products."""
    blocks = []
    kernel_block = operators._Convolution.kernel_block

    def recording(part, rows, cols):
        blocks.append((rows.stop - rows.start, cols.stop - cols.start))
        return kernel_block(part, rows, cols)

    monkeypatch.setattr(operators._Convolution, "kernel_block", recording)
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path), "converge", "zero"]) == 0
    n_half = SMALL["grid"]["n_half"]
    assert blocks and max(r * c for r, c in blocks) < n_half * n_half


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


def test_dstar_records_a_non_finite_operator_as_a_failed_condition(tmp_path, monkeypatch,
                                                                  capsys):
    """One NaN in pi(48, 1), which only condition 1 reads: that condition
    records a `NonFiniteOperator` error, the others still run and pass, the
    adjoint pass and the report take the status "error", and the command
    exits 1 (a failed condition), not 2."""
    def transform(key, val):
        if key[:3] == ("pi", 48.0, 1.0):
            entries = val.entries.copy()
            entries[0, 0] = np.nan
            return KernelOperator(val.domain, val.codomain, entries, val.label)
        return val

    monkeypatch.setattr(cli, "fourier_field", lambda f: fourier_field(f).tampered(transform))
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path), "dstar"]) == 1
    report = json.loads((tmp_path / "dstar.json").read_text())
    conditions = report["conditions"]
    errors = {k: v["error"] for k, v in conditions.items() if "error" in v}
    assert list(errors) == ["1_vanishing_at_infinity"]
    assert errors["1_vanishing_at_infinity"].startswith("NonFiniteOperator: ")
    assert sorted(k for k, v in conditions.items() if not v["passed"]) == [
        "1_vanishing_at_infinity", "4_adjoint"]
    statuses = {k: v["status"] for k, v in conditions.items()}
    assert len(statuses) == 10 and report["status"] == "error"
    assert {k for k, s in statuses.items() if s != "pass"} == {
        "1_vanishing_at_infinity", "4_adjoint"}
    assert statuses["1_vanishing_at_infinity"] == statuses["4_adjoint"] == "error"
    assert capsys.readouterr().out.splitlines()[0] == (
        "dstar report ERRORED (errored: 1_vanishing_at_infinity, 4_adjoint)")


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


# ---------------------------------------------------------------------------
# the benchmark harness

BENCH = Path(__file__).resolve().parents[1] / "bench"

_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import boidol.cli
from tracer import Tracer
from workloads import WORKLOADS
tracer = Tracer()
tracer.install()
rc = boidol.cli.main(sys.argv[3:])
calls = tracer.calls()
print(json.dumps({"rc": rc, "workloads": sorted(WORKLOADS), "unreached": [
    name for name in WORKLOADS[sys.argv[2]]["reached"] if not calls.get(name)],
    "adjoint_s": tracer.layer_metrics(0.0)["fields.dstar_report.adjoint_s"]}))
"""


def test_benchmark_harness_binds_to_the_package(tmp_path):
    """The harness's self-test passes; in a fresh process its tracer finds a
    binding for every name it wraps, and a traced run of each workload's
    command on the small config records a call of every name that workload
    must reach.  The traced `dstar` run times its adjoint pass
    (`fields.dstar_report.adjoint_s`, the nested `dstar_report` calls) above
    zero.  The test reads `bench/` and writes nothing there."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cfg = write_cfg(tmp_path, SMALL)
    commands = {"dstar": ["dstar"], "converge-omega-k256": ["converge", "omega"],
                "converge-zero-x2": ["converge", "zero"]}
    runs = [[sys.executable, str(BENCH / "selftest.py")]]
    for name, command in commands.items():
        out = tmp_path / name
        out.mkdir()
        runs.append([sys.executable, "-c", _TRACED_RUN, str(BENCH), name,
                     "--config", cfg, "--out", str(out), *command])
    # the processes run side by side
    procs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for cmd in runs]
    results = [p.communicate(timeout=120) for p in procs]
    assert procs[0].returncode == 0, results[0][1]
    for name, proc, (out, err) in zip(commands, procs[1:], results[1:]):
        assert proc.returncode == 0, err
        result = json.loads(out.splitlines()[-1])
        adjoint_s = result.pop("adjoint_s")
        assert result == {"rc": 0, "workloads": sorted(commands), "unreached": []}, name
        assert (adjoint_s > 0) == (name == "dstar"), (name, adjoint_s)


# peak RSS budgets of `boidol --grid-scale 4 ...` on the default config, in
# MiB; on a 2-core x86-64 host with OpenBLAS `dstar` read 330.1 MiB in 26 s
# and `converge omega` 143.4 MiB in 4 s
_SCALE4_BUDGET_MIB = {"dstar": 450, "converge omega": 200}
_ADDRESS_LIMIT_KIB = 6815744  # the `ulimit -v` the measurement runs under


def _scale4_peak_mib(tmp_path, command: str) -> float:
    """The peak RSS (`ru_maxrss`, MiB) of `boidol --grid-scale 4 <command>`
    (n = 2048) in a fresh process, under an address-space limit of
    `_ADDRESS_LIMIT_KIB` set for that process alone.  Both commands exit 1
    at this scale, on 2c (and `dstar` on `4_adjoint`; ROADMAP item 1), so
    the exit code is only required to be a verdict, 0 or 1."""
    import resource

    def limit():
        cap = _ADDRESS_LIMIT_KIB * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["--grid-scale", "4", "--out", str(tmp_path), *command.split()]
    code = ("import resource; from boidol.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, preexec_fn=limit, timeout=300)
    assert out.returncode == 0, out.stderr
    rc, peak_kib = out.stdout.split()[-2:]
    assert int(rc) in (0, 1)
    return int(peak_kib) / 1024


@pytest.mark.slow
def test_dstar_at_grid_scale_4_stays_under_its_memory_budget(tmp_path):
    """`boidol --grid-scale 4 dstar` peaks under its budget
    (`_scale4_peak_mib`).  Run it with `pytest -m slow`."""
    peak = _scale4_peak_mib(tmp_path, "dstar")
    assert peak < _SCALE4_BUDGET_MIB["dstar"], peak


@pytest.mark.slow
def test_converge_omega_at_grid_scale_4_stays_under_its_memory_budget(tmp_path):
    """`boidol --grid-scale 4 converge omega` peaks under its budget
    (`_scale4_peak_mib`): it holds one generic operator, 64 MiB at this
    scale, at a time.  Run it with `pytest -m slow`."""
    peak = _scale4_peak_mib(tmp_path, "converge omega")
    assert peak < _SCALE4_BUDGET_MIB["converge omega"], peak
