"""One benchmark call in a fresh process.

    python3 bench/child.py --root DIR --workload NAME --seed N --workdir DIR
                           --result FILE [--trace] [--probe]

Set-up imports `boidol` from `DIR/src` and writes the seeded config into the
work directory; the moment it ends (CLOCK_MONOTONIC, shared by all processes)
goes into the result file.  With `--probe` the process stops there.
Otherwise it calls `boidol.cli.main` once, timed from outside, optionally
under the tracer, and records exit code, wall and CPU time, peak RSS and the
per-layer metrics and the machine block as JSON in FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))  # bench/ itself is already on the path
    import boidol.cli
    from boidol.testfun import default_test_function, to_json

    import workloads

    if not Path(boidol.__file__).resolve().is_relative_to(src.resolve()):
        print(f"boidol imported from {boidol.__file__}, not {src}", file=sys.stderr)
        return 3
    spec = workloads.WORKLOADS[args.workload]
    work = Path(args.workdir)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(workloads.seeded_config(
        args.workload, args.seed, to_json, default_test_function)))
    result = {"ready": time.monotonic()}
    if args.probe:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["--config", str(config), "--out", str(out),
            "--threads", str(spec["threads"]), *spec["argv"]]
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        code = boidol.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a measured outcome, reported as such
        traceback.print_exc()
        code = "crash"
    t1, cpu1 = time.perf_counter(), time.process_time()
    result.update(exit_code=code, wall_s=t1 - t0, cpu_s=cpu1 - cpu0,
                  rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(cpu1 - cpu0)
        result["calls"] = tracer.calls()
    from machine import machine_block

    result["machine"] = machine_block(Path(args.root))
    artifact = out / spec["artifact"]
    if artifact.is_file():
        result["artifact"] = json.loads(artifact.read_text())
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
