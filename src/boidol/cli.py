"""Batch experiment runner.

Subcommands mirror the library's check suites: ``orbits`` classifies limit
sets of configured parameter sequences, ``converge omega`` and ``converge
zero`` run the operator-norm convergence tables for the two degeneration
regimes, ``dstar`` produces the aggregate membership report, and ``norms``
dumps raw kernel-norm tables over the documented spectrum sample.

``converge`` and ``dstar`` build one `DstarConfig` from the config, and the
``converge`` tables and verdicts are those of the report's conditions: 2c
with the rate envelope for ``omega``, 2d with 3c for ``zero``.  The
package's own code runs in one thread; ``--threads`` is accepted and
ignored, and OpenBLAS runs its own threads (``OPENBLAS_NUM_THREADS``).

Each verdict has a `status`, "pass", "fail" or "error", the worst of its
parts' (`boidol.fields._verdict`), and `passed`, true when it is "pass".
Exit status: 0 when every check passes, 1 when a condition or a convergence
table fails or a condition records an error, and 2 on an error that ends the
run: a usage or configuration error, a package error outside a condition,
or an internal one, whose traceback goes to stderr.

Every JSON artifact records the effective CLI config (`DEFAULT_CONFIG`
merged with the config file), its SHA-256 hash, the grid scale, the BLAS
and its thread count (outside the hash) and a grid-refinement diagnostic;
every CSV file starts with the hash.  The report's thresholds are
constants of `boidol.fields` and are not recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import json
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .errors import BoidolError, PlanInfeasible
from .fields import (
    DstarConfig,
    FieldGrids,
    PowerSeq,
    _cond_sigma_zero,
    _cond_two_dim_degeneration,
    _converge_omega_table,
    _verdict,
    default_plan,
    default_sample,
    dstar_report,
    ell_params,
    fourier_field,
)
from .grids import GridSpec
from .kernels import kernel_pi_ell, kernel_pi_rho_lambda
from .operators import op_norm
from .orbits import (
    Gamma1UnionGamma0,
    OrbitSequence,
    SinglePoint,
    TwoPoints,
    limit_set_gamma3,
    witness_distance,
)
from .group import OneDim, orbit_point
from .testfun import default_test_function, from_json as testfun_from_json

OUT_ENV = "BOIDOL_OUT"

DEFAULT_CONFIG = {
    "grid": {"L": 12.0, "n": 512, "V": 6.0, "n_half": 384},
    "test_function": None,
    "sequences": [
        {"name": "omega-one", "regime": "OmegaNonzero",
         "rho": {"coeff": 1.0, "exponent": 1.0},
         "lambda": {"coeff": 1.0, "exponent": -1.0}},
        {"name": "omega-zero", "regime": "OmegaZero",
         "rho": {"coeff": 1.0, "exponent": 0.5},
         "lambda": {"coeff": 1.0, "exponent": -1.0}},
    ],
    "ks": [4, 8, 16, 32, 64],
    "orbit_ks": [10, 100, 1000],
    "decay_ratio": 0.1,
    "slow_decay_ratio": 0.75,
    "wiggle": 1.1,
}

# The ks_tau of the 3c rows in `converge zero`, those not below the least of
# "ks".  Kept apart from `DstarConfig.ks_tau`, which runs on to 4^10,
# because the benchmark references pin the five rows these give.
_CONVERGE_KS_TAU = (4, 64, 1024, 4 ** 7, 4 ** 9)


class ConfigError(BoidolError):
    """A configuration document failed validation."""


def _merge(defaults, override, path="config"):
    if override is None and defaults is not None:
        raise ConfigError(f"{path}: null is not allowed here")
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"{path}: expected an object")
        out = dict(defaults)
        for key, val in override.items():
            if key in defaults:
                out[key] = _merge(defaults[key], val, f"{path}.{key}")
            else:
                raise ConfigError(f"{path}.{key}: unknown field")
        return out
    return override


# default's type -> (the types of the values it takes, their name); matched
# on type(), so a bool is neither an integer nor a number
_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: ((str,), "a string"), dict: ((dict,), "an object")}


def _check_types(default, value, path: str) -> None:
    """`value` has the JSON type of `default`, and so has each entry of a
    `dict` default; a default of another type (null, a list) is not read."""
    if type(default) not in _TYPES:
        return
    types, name = _TYPES[type(default)]
    if type(value) not in types:
        raise ConfigError(f"{path}: expected {name}")
    if isinstance(default, dict):
        for key, val in default.items():
            _check_types(val, value.get(key), f"{path}.{key}")


def load_config(path: str | None) -> dict:
    if path is None:
        return dict(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    cfg = _merge(DEFAULT_CONFIG, doc)
    for key in ("ks", "orbit_ks"):
        ks = cfg[key]
        if not (isinstance(ks, list) and ks
                and all(type(k) is int and k > 0 for k in ks)):
            raise ConfigError(f"config.{key}: expected a non-empty list of positive integers")
    _check_types(DEFAULT_CONFIG, cfg, "config")
    if not isinstance(cfg["sequences"], list):
        raise ConfigError("config.sequences: expected a list")
    for i, doc in enumerate(cfg["sequences"]):
        where = f"config.sequences[{i}]"
        # every sequence has the JSON types of the first default one
        _check_types(DEFAULT_CONFIG["sequences"][0], doc, where)
        if doc["regime"] not in ("OmegaNonzero", "OmegaZero"):
            raise ConfigError(f'{where}.regime: expected "OmegaNonzero" or "OmegaZero"')
    if cfg["test_function"] is not None:
        try:
            testfun_from_json(json.dumps(cfg["test_function"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config.test_function: not a test function"
                              f" ({type(exc).__name__}: {exc})")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _refinement_diagnostic() -> dict:
    """A fixed two-resolution norm probe embedded in every output.

    It builds ell(1,1) on L=10 at n=200 and at n=400 and takes both norms on
    every CLI call, whatever the configured grid.  On a 2-core x86-64 host
    (OpenBLAS, three runs each) it took 4.5-6.4 ms at the end of `dstar` on
    the default config, which has built the quadrature rules it needs,
    28-38 ms at the end of `converge omega`, and 35-40 ms as the first work
    of a fresh process.
    """
    f = default_test_function()
    coarse = op_norm(kernel_pi_ell(f, 1.0, 1.0, GridSpec.linear(10.0, 200)))
    fine = op_norm(kernel_pi_ell(f, 1.0, 1.0, GridSpec.linear(10.0, 400)))
    rel = abs(fine - coarse) / max(fine, 1e-30)
    return {"probe": "ell(1,1) norm at n=200 vs n=400 on L=10",
            "coarse": coarse, "fine": fine, "relative_change": rel}


def _blas_threads():
    """The thread count of the OpenBLAS library loaded in this process, or
    None when none is found (no /proc/self/maps, or another BLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _blas() -> dict:
    """The BLAS numpy was built with and the thread count it runs: the
    count moves numbers in their last digits, so each artifact records it."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": _blas_threads()}


def _provenance(cfg: dict, scale: int) -> dict:
    return {"config": cfg, "config_hash": config_hash(cfg),
            "grid_scale": scale, "blas": _blas(),
            "refinement_diagnostic": _refinement_diagnostic()}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


# the columns of a table's rows in its CSV file
_ROW_COLS = ("k", "rho_k", "lambda_k", "R_k", "value", "bound")


def _write_csv(path: str, cols, rows: list[dict], cfg_hash: str) -> None:
    """The config hash line, then `rows` in the columns `cols`: None as "",
    an int or a str as it is, any other value as repr(float(v))."""
    def cell(v):
        return "" if v is None else v if isinstance(v, (int, str)) else repr(float(v))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows([cell(row.get(c)) for c in cols] for row in rows)


def _build_testfun(cfg: dict):
    spec = cfg["test_function"]
    if spec is None:
        return default_test_function()
    return testfun_from_json(json.dumps(spec))


def _seq(doc: dict) -> PowerSeq:
    return PowerSeq(float(doc["coeff"]), float(doc["exponent"]))


def _build_plans(cfg: dict, regime: str) -> tuple:
    return tuple(default_plan(regime, _seq(doc["rho"]), _seq(doc["lambda"]))
                 for doc in cfg["sequences"] if doc["regime"] == regime)


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_orbits(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    report = {"sequences": []}
    for doc in cfg["sequences"]:
        rho, lam = _seq(doc["rho"]), _seq(doc["lambda"])
        seq = OrbitSequence("Gamma3", lambda k, r=rho, l=lam: (r(k), l(k)))
        limits = limit_set_gamma3(seq)
        entry = {"name": doc["name"], "limit_set": type(limits).__name__}
        targets = []
        if isinstance(limits, SinglePoint):
            targets = [("point", orbit_point(limits.point))]
        elif isinstance(limits, TwoPoints):
            targets = [("first", orbit_point(limits.first)),
                       ("second", orbit_point(limits.second))]
        elif isinstance(limits, Gamma1UnionGamma0):
            targets = [("X+", orbit_point(OneDim("X", 1))),
                       ("Y-", orbit_point(OneDim("Y", -1)))]
        witness = {}
        for tag, target in targets:
            witness[tag] = {str(k): witness_distance(seq, target, k)
                            for k in cfg["orbit_ks"]}
        entry["witness_distances"] = witness
        report["sequences"].append(entry)
    payload = {"report": report, **_provenance(cfg, args.grid_scale)}
    _write_json(os.path.join(out, "orbits.json"), payload)
    print(f"wrote {os.path.join(out, 'orbits.json')}")
    return 0


def dstar_config(cfg: dict, scale: int) -> DstarConfig:
    """The `DstarConfig` of a CLI config at a grid scale; the documented
    default configuration of the report is `dstar_config(load_config(None), 1)`."""
    g = cfg["grid"]
    return DstarConfig(
        grids=FieldGrids.default(g["L"], g["n"], g["V"], g["n_half"], scale=scale),
        sample=default_sample(scale=scale),
        plans_omega=_build_plans(cfg, "OmegaNonzero"),
        plans_zero=_build_plans(cfg, "OmegaZero"),
        ks=tuple(cfg["ks"]),
        decay_ratio=cfg["decay_ratio"],
        slow_decay_ratio=cfg["slow_decay_ratio"],
        wiggle=cfg["wiggle"])


def _field_setup(args):
    """(config, output directory, `dstar_config`, field): what `converge`
    and `dstar` both read."""
    cfg = load_config(args.config)
    return (cfg, _out_dir(args), dstar_config(cfg, args.grid_scale),
            fourier_field(_build_testfun(cfg)))


def cmd_converge(args) -> int:
    """The 2c tables with the tail, small-zone and rate-envelope rows
    (`omega`), or the 2d tables with the 3c rows at `_CONVERGE_KS_TAU`
    (`zero`); a table passes when both of its conditions pass.

    `omega` runs one k at a time (`_converge_omega_table`): each k's four
    rows read one `field.scope()`, each row builds and frees its own V_k,
    and the scope is dropped before the next k, so at most one generic
    operator is alive.  `zero` runs 2d and then 3c on `field`, which keeps
    no operator: each generic operator is freed when its 2d row ends, and
    each half-line value, O(n), is built again where a later row reads it.
    Every sigma_k composes only V_k's plus half and reads its minus half
    through V- = J V+ (`fields._vk_halves`); on a `flip_invariant` field,
    such as the Fourier field of the default function, it builds no
    minus-half value and composes once."""
    cfg, out, dcfg, field = _field_setup(args)
    regime = "OmegaNonzero" if args.regime == "omega" else "OmegaZero"
    names = [doc["name"] for doc in cfg["sequences"] if doc["regime"] == regime]
    tables = []
    if regime == "OmegaNonzero":
        for name, plan in zip(names, dcfg.plans_omega):
            tables.append({**_converge_omega_table(field, plan, dcfg), "name": name})
    else:
        zone_cfg = replace(dcfg, ks_tau=tuple(k for k in _CONVERGE_KS_TAU
                                              if k >= min(dcfg.ks)))
        slow_tables = _cond_sigma_zero(field, dcfg)["tables"]
        fast_tables = _cond_two_dim_degeneration(field, zone_cfg)["tables"]
        for name, slow, fast in zip(names, slow_tables, fast_tables):
            tables.append({"name": name, "plan": slow["plan"], "rows": slow["rows"],
                           "three_zone_rows": fast["rows"], **_verdict(slow, fast)})
    prov = _provenance(cfg, args.grid_scale)
    payload = {"regime": args.regime, "tables": tables,
               **_verdict(*tables), **prov}
    stem = os.path.join(out, f"converge_{args.regime}")
    _write_json(stem + ".json", payload)
    for table in tables:
        _write_csv(f"{stem}_{table['name']}.csv", _ROW_COLS, table["rows"],
                   prov["config_hash"])
    print(f"wrote {stem}.json")
    return 0 if payload["passed"] else 1


def cmd_dstar(args) -> int:
    cfg, out, dcfg, field = _field_setup(args)
    report = dstar_report(field, dcfg)
    prov = _provenance(cfg, args.grid_scale)
    payload = {**report, **prov}
    _write_json(os.path.join(out, "dstar.json"), payload)
    for name in ("2c_two_point_limit", "2d_three_zone_limit",
                 "3c_two_dim_degeneration"):
        cond = report["conditions"].get(name, {})
        for i, table in enumerate(cond.get("tables", ())):
            _write_csv(os.path.join(out, f"dstar_{name}_{i}.csv"), _ROW_COLS,
                       table["rows"], prov["config_hash"])
    names = {s: [k for k, v in report["conditions"].items() if v["status"] == s]
             for s in ("fail", "error")}
    notes = "; ".join(f"{label}: {', '.join(names[s])}" for s, label
                      in (("fail", "failing"), ("error", "errored")) if names[s])
    word = {"pass": "passed", "fail": "FAILED", "error": "ERRORED"}[report["status"]]
    print(f"dstar report {word}" + (f" ({notes})" if notes else ""))
    print(f"wrote {os.path.join(out, 'dstar.json')}")
    return 0 if report["passed"] else 1


def cmd_norms(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    scale = args.grid_scale
    g = cfg["grid"]
    grids = FieldGrids.default(g["L"], g["n"], g["V"], g["n_half"], scale=scale)
    f = _build_testfun(cfg)
    sample = default_sample(scale=scale)
    rows = [{"stratum": "gamma3", "point": f"pi({rho},{lam})",
             "norm": op_norm(kernel_pi_rho_lambda(f, rho, lam, grids.lin))}
            for rho, lam in sample.gamma3]
    for lab in sample.gamma2 + sample.gamma1:
        mu, nu = ell_params(lab)
        rows.append({"stratum": "gamma2" if lab in sample.gamma2 else "gamma1",
                     "point": f"ell({mu},{nu})",
                     "norm": op_norm(kernel_pi_ell(f, mu, nu, grids.lin))})
    prov = _provenance(cfg, scale)
    path = os.path.join(out, "norms.csv")
    _write_csv(path, ("stratum", "point", "norm"), rows, prov["config_hash"])
    _write_json(os.path.join(out, "norms.json"), {"rows": rows, **prov})
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boidol",
        description="Experiment runner for the operator-field checks.")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default ${OUT_ENV} or '.')")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; OpenBLAS reads OPENBLAS_NUM_THREADS")
    parser.add_argument("--grid-scale", type=int, choices=(1, 2, 4), default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("orbits", help="limit-set classification tables")
    conv = sub.add_parser("converge", help="operator-norm convergence tables")
    conv.add_argument("regime", choices=("omega", "zero"))
    sub.add_parser("dstar", help="aggregate membership report")
    sub.add_parser("norms", help="raw kernel-norm tables")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"orbits": cmd_orbits, "converge": cmd_converge,
                "dstar": cmd_dstar, "norms": cmd_norms}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        parser.error(str(exc))
    except PlanInfeasible as exc:
        print(f"plan infeasible: {exc}", file=sys.stderr)
        return 2
    except BoidolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an internal error, never a verdict
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
