"""Batch experiment runner.

Subcommands mirror the library's check suites: ``orbits`` classifies limit
sets of configured parameter sequences, ``converge omega`` and ``converge
zero`` run the operator-norm convergence tables for the two degeneration
regimes, ``dstar`` produces the aggregate membership report (exit status
nonzero iff a condition fails), and ``norms`` dumps raw kernel-norm tables
over the documented spectrum sample.

All defaults live in code and are echoed into every output together with a
hash of the effective configuration and a grid-refinement diagnostic, so
each artifact is self-describing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import fields as _fields
from .errors import BoidolError, PlanInfeasible
from .fields import (
    DstarConfig,
    FieldGrids,
    PowerSeq,
    check_rate_envelope,
    check_small_zone,
    check_tail_cutoff,
    default_plan,
    default_sample,
    dstar_report,
    ell_params,
    fourier_field,
    s_k_zero,
    sigma_k_omega,
    sigma_k_zero,
    tends_to_zero,
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
from .group import orbit_point
from .testfun import default_test_function, from_json as testfun_from_json

OUT_ENV = "BOIDOL_OUT"

DEFAULT_CONFIG = {
    "seed": 0,
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


class ConfigError(BoidolError):
    """A configuration document failed validation."""


def _merge(defaults, override, path="config"):
    if override is None:
        return defaults
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
    return _merge(DEFAULT_CONFIG, doc)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _refinement_diagnostic() -> dict:
    """A fixed, cheap two-resolution norm probe embedded in every output."""
    f = default_test_function()
    coarse = op_norm(kernel_pi_ell(f, 1.0, 1.0, GridSpec.linear(10.0, 200)))
    fine = op_norm(kernel_pi_ell(f, 1.0, 1.0, GridSpec.linear(10.0, 400)))
    rel = abs(fine - coarse) / max(fine, 1e-30)
    return {"probe": "ell(1,1) norm at n=200 vs n=400 on L=10",
            "coarse": coarse, "fine": fine, "relative_change": rel}


def _provenance(cfg: dict, scale: int) -> dict:
    return {"config": cfg, "config_hash": config_hash(cfg),
            "grid_scale": scale,
            "refinement_diagnostic": _refinement_diagnostic()}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_rows_csv(path: str, rows: list[dict], cfg_hash: str) -> None:
    cols = ["k", "rho_k", "lambda_k", "R_k", "value", "bound"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = {c: row.get(c) for c in cols}
            out = {c: ("" if v is None else repr(float(v)) if c != "k" else int(v))
                   for c, v in out.items()}
            writer.writerow(out)


def _build_grids(cfg: dict, scale: int) -> FieldGrids:
    g = cfg["grid"]
    return FieldGrids(
        GridSpec.linear(g["L"] * scale, g["n"] * scale),
        GridSpec.log_pair(g["V"] * scale, g["n_half"] * scale))


def _build_testfun(cfg: dict):
    spec = cfg["test_function"]
    if spec is None:
        return default_test_function()
    if isinstance(spec, dict) and "path" in spec:
        with open(spec["path"], "r", encoding="utf-8") as fh:
            return testfun_from_json(fh.read())
    return testfun_from_json(json.dumps(spec))


def _seq(doc: dict) -> PowerSeq:
    return PowerSeq(float(doc["coeff"]), float(doc["exponent"]))


def _build_plans(cfg: dict, regime: str) -> list[tuple[str, object]]:
    plans = []
    for doc in cfg["sequences"]:
        if doc["regime"] != regime:
            continue
        plans.append((doc["name"],
                      default_plan(regime, _seq(doc["rho"]), _seq(doc["lambda"]))))
    return plans


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
            from .group import OneDim
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


def _converge_omega_tables(field, plans, grids, ks, cfg, pool):
    f = field.source
    tables = []
    for name, plan in plans:
        def dev_at(k):
            A = field.pi(plan.rho(k), plan.lam(k), grids.lin)
            return op_norm(A - sigma_k_omega(field, k, plan, grids))

        devs = list(pool.map(dev_at, ks))
        rows = []
        for k, dev in zip(ks, devs):
            row = {"k": k, "rho_k": plan.rho(k), "lambda_k": plan.lam(k),
                   "R_k": plan.Rk(k), "value": dev, "bound": None}
            rows.append(row)
        rate = check_rate_envelope(f, plan, ks, grids)
        tables.append({
            "name": name, "plan": plan.describe(), "rows": rows,
            "tail_rows": check_tail_cutoff(f, plan, ks, grids),
            "small_zone_rows": check_small_zone(f, plan, ks, grids),
            "rate_rows": rate["rows"], "rate_C": rate["C"],
            "rate_passed": rate["passed"],
            "passed": tends_to_zero(devs, cfg["decay_ratio"], cfg["wiggle"])
                      and rate["passed"],
        })
    return tables


def _converge_zero_tables(field, plans, grids, ks, cfg, pool):
    tables = []
    for name, plan in plans:
        def dev_at(k):
            A = field.pi(plan.rho(k), plan.lam(k), grids.lin)
            return op_norm(A - sigma_k_zero(field, k, plan, grids))

        devs = list(pool.map(dev_at, ks))
        rows = [{"k": k, "rho_k": plan.rho(k), "lambda_k": plan.lam(k),
                 "R_k": plan.Rk(k), "value": dev, "bound": None}
                for k, dev in zip(ks, devs)]
        zone_ks = [k for k in (4, 64, 1024, 4 ** 7, 4 ** 9) if k >= min(ks)]
        zone_rows = []
        zone_devs = []
        for k in zone_ks:
            wk, eps = plan.w_k(k), plan.eps
            dev_p = op_norm(field.tau(wk, -float(eps), grids.plus)
                            - s_k_zero(field, k, plan, 1, grids))
            dev_m = op_norm(field.tau(-wk, float(eps), grids.minus)
                            - s_k_zero(field, k, plan, -1, grids))
            zone_devs.append(max(dev_p, dev_m))
            zone_rows.append({"k": k, "rho_k": plan.rho(k),
                              "lambda_k": plan.lam(k), "R_k": plan.Rk(k),
                              "value": max(dev_p, dev_m), "bound": None})
        tables.append({
            "name": name, "plan": plan.describe(), "rows": rows,
            "three_zone_rows": zone_rows,
            "passed": tends_to_zero(devs, cfg["slow_decay_ratio"], cfg["wiggle"])
                      and tends_to_zero(zone_devs, cfg["decay_ratio"], cfg["wiggle"]),
        })
    return tables


class _InlinePool:
    """The executor for --threads 1: `map` runs in the calling thread.

    A one-worker pool adds nothing but a thread, and that thread's own
    malloc arena kept about 36 MiB of freed operator memory resident in
    `converge zero` at --grid-scale 2.
    """

    map = staticmethod(map)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _pool(threads: int):
    return _InlinePool() if threads == 1 else ThreadPoolExecutor(max_workers=threads)


def cmd_converge(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    grids = _build_grids(cfg, args.grid_scale)
    field = fourier_field(_build_testfun(cfg))
    ks = cfg["ks"]
    regime = "OmegaNonzero" if args.regime == "omega" else "OmegaZero"
    plans = _build_plans(cfg, regime)
    with _pool(args.threads) as pool:
        if regime == "OmegaNonzero":
            tables = _converge_omega_tables(field, plans, grids, ks, cfg, pool)
        else:
            tables = _converge_zero_tables(field, plans, grids, ks, cfg, pool)
    prov = _provenance(cfg, args.grid_scale)
    payload = {"regime": args.regime, "tables": tables,
               "passed": all(t["passed"] for t in tables), **prov}
    stem = os.path.join(out, f"converge_{args.regime}")
    _write_json(stem + ".json", payload)
    for table in tables:
        _write_rows_csv(f"{stem}_{table['name']}.csv", table["rows"],
                        prov["config_hash"])
    print(f"wrote {stem}.json")
    return 0 if payload["passed"] else 1


def cmd_dstar(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    scale = args.grid_scale
    grids = _build_grids(cfg, scale)
    field = fourier_field(_build_testfun(cfg))
    dcfg = DstarConfig(
        grids=grids, sample=default_sample(scale=scale),
        plans_omega=tuple(p for _, p in _build_plans(cfg, "OmegaNonzero")),
        plans_zero=tuple(p for _, p in _build_plans(cfg, "OmegaZero")),
        ks=tuple(cfg["ks"]),
        decay_ratio=cfg["decay_ratio"],
        slow_decay_ratio=cfg["slow_decay_ratio"],
        wiggle=cfg["wiggle"])
    report = dstar_report(field, dcfg)
    prov = _provenance(cfg, scale)
    payload = {**report, **prov}
    _write_json(os.path.join(out, "dstar.json"), payload)
    for name in ("2c_two_point_limit", "2d_three_zone_limit",
                 "3c_two_dim_degeneration"):
        cond = report["conditions"].get(name, {})
        for i, table in enumerate(cond.get("tables", ())):
            _write_rows_csv(os.path.join(out, f"dstar_{name}_{i}.csv"),
                            table["rows"], prov["config_hash"])
    status = "passed" if report["passed"] else "FAILED"
    failed = [k for k, v in report["conditions"].items() if not v.get("passed")]
    print(f"dstar report {status}" + (f" (failing: {', '.join(failed)})" if failed else ""))
    print(f"wrote {os.path.join(out, 'dstar.json')}")
    return 0 if report["passed"] else 1


def cmd_norms(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    scale = args.grid_scale
    grids = _build_grids(cfg, scale)
    f = _build_testfun(cfg)
    sample = default_sample(scale=scale)
    rows = []
    with _pool(args.threads) as pool:
        def pi_norm(pt):
            rho, lam = pt
            return op_norm(kernel_pi_rho_lambda(f, rho, lam, grids.lin))

        for (rho, lam), val in zip(sample.gamma3,
                                   pool.map(pi_norm, sample.gamma3)):
            rows.append({"stratum": "gamma3", "point": f"pi({rho},{lam})",
                         "norm": val})
        for lab in sample.gamma2 + sample.gamma1:
            mu, nu = ell_params(lab)
            rows.append({"stratum": "gamma2" if lab in sample.gamma2 else "gamma1",
                         "point": f"ell({mu},{nu})",
                         "norm": op_norm(kernel_pi_ell(f, mu, nu, grids.lin))})
    prov = _provenance(cfg, scale)
    path = os.path.join(out, "norms.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={prov['config_hash']}\n")
        writer = csv.DictWriter(fh, fieldnames=["stratum", "point", "norm"])
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "norm": repr(float(row["norm"]))})
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
    parser.add_argument("--threads", type=int, default=4)
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


if __name__ == "__main__":
    sys.exit(main())
