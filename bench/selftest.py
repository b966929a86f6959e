"""Checks of the benchmark harness itself.

    python3 bench/selftest.py

- the tracer: nested synthetic calls on two threads, and tasks handed to a
  traced pool, give the expected self and inclusive times;
- the comparator: a reference artifact matches itself, and a copy with one
  number perturbed beyond the tolerance is flagged;
- BENCHMARK.json names exactly the per-layer metrics the tracer reports, and
  the workloads together reach every name the tracer wraps.

`run.py` runs the first two on every traced run (tracer) and every run
(comparator); each returns a list of problems, empty when all is well.
"""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
from pathlib import Path

import artifacts
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
STEP = 0.03  # seconds of synthetic work per leaf call
TOL = 0.02  # sleep overshoot allowed on a loaded machine


def check_tracer() -> list[str]:
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(STEP))

    def outer_body():
        time.sleep(STEP)
        inner()

    outer = tr.wrap("outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    problems = [f"thread {t.name} did not finish" for t in threads if t.is_alive()]

    def fan_out():  # the parent waits while two pool tasks run concurrently
        with tr.traced_pool()(max_workers=2) as pool:
            list(pool.map(lambda _: inner(), range(2)))

    tr.wrap("fan_out", fan_out)()
    s = tr.summarize()["layers"]
    calls = {name: s.get(name, {}).get("calls", 0) for name in ("outer", "inner", "fan_out")}
    if calls != {"outer": 2, "inner": 4, "fan_out": 1}:
        return problems + [f"recorded calls {calls}"]
    names = {rec[0]: rec[1] for rec in tr.spans}
    under_outer, under_fan_out = 0.0, 0
    for _sid, name, t0, t1, parent, *_ in tr.spans:
        if name == "inner" and names.get(parent) == "outer":
            under_outer += t1 - t0
        elif name == "inner" and names.get(parent) == "fan_out":
            under_fan_out += 1
    if under_fan_out != 2:
        problems.append("pool tasks did not inherit the submitting span")
    inn, out, fan = s["inner"], s["outer"], s["fan_out"]
    # leaves: self time is their whole time, one STEP each
    if inn["busy_s"] != inn["total_s"] or not 4 * STEP <= inn["busy_s"] <= 4 * STEP + 4 * TOL:
        problems.append(f"inner busy/total {inn['busy_s']:.4f}/{inn['total_s']:.4f}")
    # nested on two threads: self is the outer sleep, children make up the rest
    if not 2 * STEP <= out["busy_s"] <= 2 * STEP + 2 * TOL:
        problems.append(f"outer busy_s {out['busy_s']:.4f}, expected {2 * STEP:.4f}")
    if abs(out["total_s"] - out["busy_s"] - under_outer) > 1e-9:
        problems.append("outer total_s - busy_s differs from its children's time")
    # concurrent children cover their union once, not their sum
    covered = fan["total_s"] - fan["busy_s"]
    if not STEP <= covered < 1.5 * STEP + TOL:
        problems.append(f"fan_out children cover {covered:.4f} s, expected about {STEP}")
    if tracing._covered([(0, 2), (1, 3), (5, 9)], 0.5, 6) != 3.5:
        problems.append("_covered merges overlapping intervals wrongly")
    return problems


def check_comparator(reference: dict) -> list[str]:
    doc = copy.deepcopy(reference["artifact"])
    clean = artifacts.check_call(doc, reference["exit_code"], reference)
    problems = [f"reference fails against itself: {v}" for v in clean.values() if v]
    path = _first_float(doc)
    if path is None:
        return problems + ["reference holds no real number to perturb"]
    holder, key = path
    holder[key] = holder[key] * (1 + 1e-6) + 1e-12
    flagged = artifacts.check_call(doc, reference["exit_code"], reference)
    if not any(flagged.values()):
        problems.append(f"perturbed number at {key!r} was not flagged")
    return problems


def _first_float(node):
    """(container, key) of the first non-zero float in a nested document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        if isinstance(val, float) and val != 0.0:
            return node, key
        if isinstance(val, (dict, list)):
            found = _first_float(val)
            if found is not None:
                return found
    return None


def check_benchmark_json() -> list[str]:
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    reported = list(tracing.PER_LAYER)
    if [d for d in declared if d[0] != "ops_failed"] != reported:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if [w["name"] for w in doc["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    wrapped = set(tracing.FUNCTIONS) | set(tracing.METHODS) | {"fields.at"}
    reached = set().union(*(w["reached"] for w in workloads.WORKLOADS.values()))
    if wrapped != reached:
        problems.append(f"wrapped but reached by no workload: {sorted(wrapped - reached)}")
    return problems


def main() -> int:
    problems = check_tracer() + check_benchmark_json()
    for name in workloads.WORKLOADS:
        ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
        problems += [f"{name}: {p}" for p in check_comparator(ref)]
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
