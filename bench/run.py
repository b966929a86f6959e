"""Benchmark runner for the boidol CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --update-reference

Run from the root of a checkout.  Each call of the workload is a fresh
process (`bench/child.py`) that imports `boidol` from `src/`, writes the
seeded config and calls `boidol.cli.main` once, timing the call from outside
the package.  This runner checks the artifact each call writes against
`bench/reference/<workload>.json`.

`--trace 0` first runs two set-up-only processes, then calls the workload
until the next call would end past `--seconds` (at least once), and reports
the end-to-end metrics: `wall_s` (median of the timed `cli.main` calls),
`setup_s` (median set-up of all processes: start until `boidol` is imported
and the config is written) and `peak_rss_mb` (median peak RSS of the calls).
`--trace 1` makes one call under the tracer and reports the per-layer
metrics.  Both print a JSON line with the machine block, the SHA-256 of each
canonical artifact and any failed items, then the result object as the last
line.  `attempted` counts verdict items (a `dstar` condition, or a
`converge` table with its sub-verdicts); `failed` those that crashed, ended
with an unexpected exit code or left the reference.

`--update-reference` makes one call at seed 0 and rewrites the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import artifacts
import selftest
from tracer import PER_LAYER
from workloads import WORKLOADS, phase

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2
CALL_TIMEOUT = 150.0  # seconds for one call
RUN_LIMIT = 170.0  # seconds for the whole run, kept under 180


class Run:
    """Spawns the child processes of one benchmark run under one work dir."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
        self.started = time.monotonic()
        self.count = 0

    def spawn(self, *flags: str) -> dict:
        """One child process; its result dict, plus `setup_s` and `elapsed_s`."""
        self.count += 1
        work = self.work / str(self.count)
        work.mkdir(parents=True)
        result = work / "result.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(work), "--result", str(result), *flags]
        timeout = min(CALL_TIMEOUT, RUN_LIMIT - (time.monotonic() - self.started))
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        elapsed = time.monotonic() - t_spawn
        out = json.loads(result.read_text()) if code == 0 and result.is_file() else {}
        if code is None:
            out["exit_code"] = "timeout"
        elif code != 0:
            out["exit_code"] = f"harness exit {code}"
        if "ready" in out:
            out["setup_s"] = out["ready"] - t_spawn
        out["elapsed_s"] = elapsed
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


def measure(run: Run, seconds: float, trace: bool) -> tuple[list, list]:
    """(set-up seconds per process, call results)."""
    setups = []
    if not trace:
        setups = [run.spawn("--probe").get("setup_s") for _ in range(SETUP_PROBES)]
    calls = []
    begin = time.monotonic()
    while True:
        call = run.spawn("--trace") if trace else run.spawn()
        calls.append(call)
        setups.append(call.get("setup_s"))
        spent = time.monotonic() - begin
        if trace or spent + call["elapsed_s"] > seconds:
            break
        if time.monotonic() - run.started + call["elapsed_s"] > RUN_LIMIT:
            break
    return [s for s in setups if s is not None], calls


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "boidol" / "__init__.py").is_file():
        print(f"no boidol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    run = Run(args.workload, 0 if args.update_reference else args.seed)
    try:
        if args.update_reference:
            return update_reference(run, ref_path)
        reference = json.loads(ref_path.read_text())
        setups, calls = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()

    problems = selftest.check_comparator(reference)
    info_calls, attempted, failed = [], 0, 0
    for call in calls:
        doc = call.get("artifact")
        per_item = artifacts.check_call(doc, call.get("exit_code"), reference)
        attempted += len(per_item)
        failed += sum(1 for why in per_item.values() if why)
        info_calls.append({
            "exit_code": call.get("exit_code"), "wall_s": call.get("wall_s"),
            "sha256": artifacts.sha256(doc) if doc is not None else None,
            "failed_items": {k: v[:3] for k, v in per_item.items() if v}})
    if args.trace:
        problems += selftest.check_tracer()
        reached = calls[0].get("calls", {})
        problems += [f"{name} recorded no call"
                     for name in WORKLOADS[args.workload]["reached"]
                     if not reached.get(name)]
        layers = calls[0].get("layers") or {name: 0 for name, _, _ in PER_LAYER}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        metrics["ops_failed"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        timed = [c for c in calls if "wall_s" in c] or calls
        metrics = {
            "wall_s": {"value": statistics.median(
                c.get("wall_s", c["elapsed_s"]) for c in timed), "unit": "s"},
            "setup_s": {"value": statistics.median(setups) if setups else 0.0,
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                c.get("rss_mib", 0.0) for c in timed), "unit": "MiB"},
        }
    machine = next((c["machine"] for c in calls if "machine" in c), None)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "theta": phase(args.seed), "machine": machine,
                      "setup_samples_s": setups, "calls": info_calls,
                      "harness_problems": problems}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def update_reference(run: Run, path: Path) -> int:
    call = run.spawn()
    doc = call.get("artifact")
    if doc is None:
        print(f"call wrote no artifact (exit code {call.get('exit_code')!r})",
              file=sys.stderr)
        return 1
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": run.workload, "exit_code": call["exit_code"],
        "sha256": artifacts.sha256(doc), "artifact": artifacts.canonical(doc),
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} (exit code {call['exit_code']}, "
          f"wall {call['wall_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
