"""Canonical form of a CLI artifact and its comparison with a reference.

The canonical form drops `config` and `config_hash`, which embed the seeded
phase of the test function; everything else the artifact reports is a norm,
a ratio of norms, a plan parameter or a verdict, none of which the phase
changes.  An artifact splits into verdict items: each `dstar` condition, or
each `converge` table with its sub-verdicts.  The remaining top-level fields
(overall verdict, grid scale, refinement diagnostic) belong to the call: a
mismatch there fails every item of the call.
"""

from __future__ import annotations

import hashlib
import json
import math

SEEDED_KEYS = ("config", "config_hash")
# |a - b| <= max(RTOL * max(|a|, |b|), ATOL).  Operator norms in the artifacts
# are of order 1e-2; ATOL is 1e-12 of that and absorbs singular values at the
# rounding floor (about 1e-18), whose relative value is noise.
RTOL = 1e-9
ATOL = 1e-14


def canonical(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in SEEDED_KEYS}


def sha256(doc: dict) -> str:
    blob = json.dumps(canonical(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def split_items(doc: dict) -> tuple[dict, dict]:
    """(items by name, remainder) of a canonical artifact."""
    doc = canonical(doc)
    if "conditions" in doc:
        items = dict(doc["conditions"])
        rest = {k: v for k, v in doc.items() if k != "conditions"}
    else:
        items = {t["name"]: t for t in doc["tables"]}
        rest = {k: v for k, v in doc.items() if k != "tables"}
    return items, rest


def differences(got, want, path: str = "") -> list[str]:
    """Paths where `got` departs from `want`: verdicts, strings and counts
    exactly, real numbers at RTOL/ATOL.  Keys that `want` lacks are ignored,
    so an artifact may gain fields (telemetry, say) without failing."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        a, b = float(got), float(want)
        if math.isnan(a) or math.isnan(b):
            return [f"{path}: NaN ({got!r} vs {want!r})"]
        if abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL):
            return []
        return [f"{path}: {got!r} vs {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        missing = sorted(set(want) - set(got))
        if missing:
            return [f"{path}: keys {missing} missing"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check_call(doc: dict | None, exit_code, reference: dict) -> dict:
    """Per-item failure reasons of one call against its reference.

    `reference` holds `exit_code` and the canonical `artifact`.  A missing
    artifact, an unexpected exit code or a remainder mismatch fails every
    item.
    """
    want_items, want_rest = split_items(reference["artifact"])
    if exit_code != reference["exit_code"]:
        why = f"exit code {exit_code!r}, expected {reference['exit_code']}"
        return {name: [why] for name in want_items}
    if doc is None:
        return {name: ["no artifact written"] for name in want_items}
    got_items, got_rest = split_items(doc)
    common = differences(got_rest, want_rest)
    out = {}
    for name, want in want_items.items():
        if name not in got_items:
            out[name] = ["item missing"]
        else:
            out[name] = common + differences(got_items[name], want, f"/{name}")
    return out
