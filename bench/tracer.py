"""Span tracer that measures boidol's layers from outside the package.

`Tracer.install()` replaces the public functions of `grids`, `testfun`,
`kernels`, `operators`, `fields` and `cli` with timing wrappers in every
`boidol` module namespace that holds them (modules import many of them by
name), plus `KernelOperator.compose` and `OperatorField.at`.  No source file
changes and no code path changes: a wrapper calls the original and returns
its result.

Each wrapped call records one span (id, name, start, end, parent, thread) in
memory.  Spans nest through one stack per thread; a task handed to the CLI's
thread pool inherits the span that submitted it as its parent.  After the
run, `layer_metrics()` derives from the spans

- `busy_s`: self time (duration minus the union of its child spans) summed
  over all spans of a name, across threads;
- `total_s`: inclusive time of the spans of a name that have no ancestor of
  the same name.

Counts are taken at the same boundaries.  `trace.overhead_s` is the time the
wrappers spend outside the wrapped calls, summed over threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# span name -> (defining module, attribute); the span name is the metric prefix
FUNCTIONS = {
    "grids.gauss_legendre_rule": ("boidol.grids", "gauss_legendre_rule"),
    "testfun.bump_fourier": ("boidol.testfun", "bump_fourier"),
    "testfun.eval_hatF34": ("boidol.testfun", "eval_hatF34"),
    "kernels.pi": ("boidol.kernels", "kernel_pi_rho_lambda"),
    "kernels.ell": ("boidol.kernels", "kernel_pi_ell"),
    "kernels.tau": ("boidol.kernels", "kernel_tau"),
    "kernels.char": ("boidol.kernels", "character_value"),
    "kernels.vk": ("boidol.kernels", "vk_operator"),
    "kernels.vk_adjoint": ("boidol.kernels", "vk_adjoint"),
    "operators.op_norm": ("boidol.operators", "op_norm"),
    "operators.compact_defect": ("boidol.operators", "compact_defect"),
    "operators.cutoff_M": ("boidol.operators", "cutoff_M"),
    "fields.dstar_report": ("boidol.fields", "dstar_report"),
    "fields.sigma_k_omega": ("boidol.fields", "sigma_k_omega"),
    "fields.sigma_k_zero": ("boidol.fields", "sigma_k_zero"),
    "fields.s_k_zero": ("boidol.fields", "s_k_zero"),
    "fields.compact_condition_check": ("boidol.fields", "compact_condition_check"),
    "fields.check_rate_envelope": ("boidol.fields", "check_rate_envelope"),
    "fields.check_tail_cutoff": ("boidol.fields", "check_tail_cutoff"),
    "fields.check_small_zone": ("boidol.fields", "check_small_zone"),
    "fields.sigma0_apply": ("boidol.fields", "sigma0_apply"),
    "cli.main": ("boidol.cli", "main"),
}
# span name -> (defining module, class, method)
METHODS = {
    "operators.compose": ("boidol.operators", "KernelOperator", "compose"),
}
# OperatorField.at is counted (requests, distinct keys, value bytes), not timed
FIELD_AT = ("boidol.fields", "OperatorField", "at")

# (metric name, unit, better); `layer_metrics` returns exactly these keys
PER_LAYER = [
    ("grids.gauss_legendre_rule.calls", "count", "lower"),
    ("grids.gauss_legendre_rule.distinct_n", "count", "lower"),
    ("grids.gauss_legendre_rule.nodes", "count", "lower"),
    ("grids.gauss_legendre_rule.busy_s", "s", "lower"),
    ("testfun.bump_fourier.calls", "count", "lower"),
    ("testfun.bump_fourier.alphas", "count", "lower"),
    ("testfun.bump_fourier.distinct_ratio", "ratio", "lower"),
    ("testfun.bump_fourier.busy_s", "s", "lower"),
    ("testfun.eval_hatF34.calls", "count", "lower"),
    ("testfun.eval_hatF34.points", "count", "lower"),
    ("testfun.eval_hatF34.busy_s", "s", "lower"),
    *[(f"kernels.{k}.{m}", "count" if m == "calls" else "s", "lower")
      for k in ("pi", "ell", "tau", "char", "vk", "vk_adjoint")
      for m in ("calls", "busy_s", "total_s")],
    ("operators.op_norm.calls", "count", "lower"),
    ("operators.op_norm.cells", "count", "lower"),
    ("operators.op_norm.busy_s", "s", "lower"),
    ("operators.compact_defect.calls", "count", "lower"),
    ("operators.compact_defect.busy_s", "s", "lower"),
    ("operators.compose.calls", "count", "lower"),
    ("operators.compose.flops", "flop-computed", "lower"),
    ("operators.compose.busy_s", "s", "lower"),
    ("operators.cutoff_M.calls", "count", "lower"),
    ("operators.cutoff_M.busy_s", "s", "lower"),
    ("fields.at.requests", "count", "lower"),
    ("fields.at.builds", "count", "lower"),
    ("fields.at.hit_ratio", "ratio", "higher"),
    ("fields.cache_mb", "MB", "lower"),
    ("fields.dstar_report.total_s", "s", "lower"),
    ("fields.dstar_report.adjoint_s", "s", "lower"),
    *[(f"fields.{f}.total_s", "s", "lower")
      for f in ("sigma_k_omega", "sigma_k_zero", "s_k_zero",
                "compact_condition_check", "check_rate_envelope",
                "check_tail_cutoff", "check_small_zone")],
    ("fields.sigma0_apply.busy_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # (id, name, start, end, parent id or None, thread id, overhead, payload)
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fourier_keys: set = set()
        self._field_keys: dict[int, set] = {}
        self._field_refs: list = []  # keeps traced fields alive so ids stay unique
        self.field_requests = 0
        self._at_overhead: list[float] = []
        self.field_bytes = 0

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread (or the inherited one)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn, payload=None):
        """A wrapper of `fn` recording one span named `name` per call.

        `payload(args, kwargs)` runs before the call; its value is stored in
        the span record for the counters.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            parent = tracer.current()
            stack = tracer._stack()
            sid = next(tracer._ids)
            data = payload(args, kwargs) if payload is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(),
                                     (t0 - t_in) + (clock() - t1), data))

        return wrapper

    def traced_pool(self):
        """A ThreadPoolExecutor whose tasks inherit the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.inherited = None

                return super().submit(task, *args, **kwargs)

        return TracedPool

    # -- counters that need state across calls -----------------------------

    def _fourier_payload(self, args, kwargs):
        """Adds the (bump, alpha rounded to 1e-10, n) keys of one
        bump_fourier(bump, alpha, quad) call; returns the alpha count."""
        bump = args[0] if args else kwargs["bump"]
        alpha = args[1] if len(args) > 1 else kwargs["alpha"]
        quad = args[2] if len(args) > 2 else kwargs["quad"]
        alphas = np.ravel(np.asarray(alpha, dtype=float)).tolist()
        keys = [(bump.centre, bump.width, round(a, 10), quad.n) for a in alphas]
        with self._lock:
            self._fourier_keys.update(keys)
        return len(alphas)

    def _wrap_field_at(self, at):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(at)
        def counted_at(field, key):
            t_in = clock()
            with tracer._lock:
                tracer.field_requests += 1
                seen = tracer._field_keys.get(id(field))
                if seen is None:
                    seen = tracer._field_keys[id(field)] = set()
                    tracer._field_refs.append(field)
                new = key not in seen
                seen.add(key)
            overhead = clock() - t_in
            value = at(field, key)
            if new:
                t_in = clock()
                entries = getattr(value, "entries", None)
                nbytes = (entries if entries is not None else np.asarray(value)).nbytes
                with tracer._lock:
                    tracer.field_bytes += nbytes
                overhead += clock() - t_in
            tracer._at_overhead.append(overhead)
            return value

        return counted_at

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch boidol in place for the rest of the process; call once,
        after `import boidol.cli`."""
        payloads = {
            "grids.gauss_legendre_rule":
                lambda a, k: a[2] if len(a) > 2 else k["n"],
            "testfun.bump_fourier": self._fourier_payload,
            "testfun.eval_hatF34":
                lambda a, k: np.broadcast(*a[1:5]).size,
            "operators.op_norm":
                lambda a, k: (a[0] if a else k["A"]).entries.size,
            "operators.compose":
                lambda a, k: 8 * a[0].entries.shape[0] * a[0].entries.shape[1]
                * a[1].entries.shape[1],
        }
        patched = set()
        replacements = {}  # id(original) -> (span name, wrapper)
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr)
            replacements[id(orig)] = (name, self.wrap(name, orig, payloads.get(name)))
        pool = self.traced_pool()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "boidol" or n.startswith("boidol."))]
        for module in modules:
            for attr, val in list(vars(module).items()):
                if id(val) in replacements:
                    name, wrapper = replacements[id(val)]
                    setattr(module, attr, wrapper)
                    patched.add(name)
                elif val is ThreadPoolExecutor:
                    setattr(module, attr, pool)
        for name, (mod, cls, attr) in METHODS.items():
            klass = getattr(sys.modules[mod], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr),
                                           payloads.get(name)))
            patched.add(name)
        mod, cls, attr = FIELD_AT
        klass = getattr(sys.modules[mod], cls)
        setattr(klass, attr, self._wrap_field_at(getattr(klass, attr)))
        missing = [n for n in list(FUNCTIONS) + list(METHODS) if n not in patched]
        if missing:
            raise RuntimeError(f"tracer found no binding for {missing}")

    # -- derived numbers ----------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, busy (self) time, total time, payloads, overhead."""
        children = defaultdict(list)
        info = {}
        for sid, name, t0, t1, parent, _thread, _oh, _data in self.spans:
            info[sid] = (name, parent)
            if parent is not None:
                children[parent].append((t0, t1))
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "total_s": 0.0,
                                   "nested_s": 0.0, "payloads": []})
        overhead = sum(self._at_overhead)
        for sid, name, t0, t1, parent, _thread, oh, data in self.spans:
            overhead += oh
            row = out[name]
            row["calls"] += 1
            if data is not None:
                row["payloads"].append(data)
            row["busy_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            if _has_ancestor(info, parent, name):
                row["nested_s"] += t1 - t0
            else:
                row["total_s"] += t1 - t0
        return {"layers": dict(out), "overhead_s": overhead}

    def layer_metrics(self, cpu_s: float) -> dict:
        """Every PER_LAYER metric as {name: value}."""
        s = self.summarize()
        layers = s["layers"]

        def get(name):
            return layers.get(name, {"calls": 0, "busy_s": 0.0, "total_s": 0.0,
                                     "nested_s": 0.0, "payloads": []})

        out = {}
        glr = get("grids.gauss_legendre_rule")
        out["grids.gauss_legendre_rule.calls"] = glr["calls"]
        out["grids.gauss_legendre_rule.distinct_n"] = len(set(glr["payloads"]))
        out["grids.gauss_legendre_rule.nodes"] = sum(glr["payloads"])
        bf = get("testfun.bump_fourier")
        alphas = sum(bf["payloads"])
        out["testfun.bump_fourier.calls"] = bf["calls"]
        out["testfun.bump_fourier.alphas"] = alphas
        out["testfun.bump_fourier.distinct_ratio"] = (
            len(self._fourier_keys) / alphas if alphas else 0.0)
        ev = get("testfun.eval_hatF34")
        out["testfun.eval_hatF34.calls"] = ev["calls"]
        out["testfun.eval_hatF34.points"] = sum(ev["payloads"])
        for prefix in ("grids.gauss_legendre_rule", "testfun.bump_fourier",
                       "testfun.eval_hatF34"):
            out[f"{prefix}.busy_s"] = get(prefix)["busy_s"]
        for kind in ("pi", "ell", "tau", "char", "vk", "vk_adjoint"):
            row = get(f"kernels.{kind}")
            out[f"kernels.{kind}.calls"] = row["calls"]
            out[f"kernels.{kind}.busy_s"] = row["busy_s"]
            out[f"kernels.{kind}.total_s"] = row["total_s"]
        on = get("operators.op_norm")
        out["operators.op_norm.calls"] = on["calls"]
        out["operators.op_norm.cells"] = sum(on["payloads"])
        out["operators.op_norm.busy_s"] = on["busy_s"]
        cp = get("operators.compose")
        out["operators.compose.calls"] = cp["calls"]
        out["operators.compose.flops"] = sum(cp["payloads"])
        out["operators.compose.busy_s"] = cp["busy_s"]
        for name in ("operators.compact_defect", "operators.cutoff_M"):
            out[f"{name}.calls"] = get(name)["calls"]
            out[f"{name}.busy_s"] = get(name)["busy_s"]
        builds = sum(len(keys) for keys in self._field_keys.values())
        requests = self.field_requests
        out["fields.at.requests"] = requests
        out["fields.at.builds"] = builds
        out["fields.at.hit_ratio"] = 1.0 - builds / requests if requests else 0.0
        out["fields.cache_mb"] = self.field_bytes / 1e6
        ds = get("fields.dstar_report")
        out["fields.dstar_report.total_s"] = ds["total_s"]
        out["fields.dstar_report.adjoint_s"] = ds["nested_s"]
        for f in ("sigma_k_omega", "sigma_k_zero", "s_k_zero",
                  "compact_condition_check", "check_rate_envelope",
                  "check_tail_cutoff", "check_small_zone"):
            out[f"fields.{f}.total_s"] = get(f"fields.{f}")["total_s"]
        out["fields.sigma0_apply.busy_s"] = get("fields.sigma0_apply")["busy_s"]
        main = get("cli.main")
        out["cli.main.total_s"] = main["total_s"]
        out["cli.main.self_s"] = main["busy_s"]
        out["process.cpu_s"] = cpu_s
        out["trace.overhead_s"] = s["overhead_s"]
        return out

    def calls(self) -> dict:
        """Recorded call count per wrapped name (fields.at counts requests)."""
        counts = defaultdict(int, {"fields.at": self.field_requests})
        for rec in self.spans:
            counts[rec[1]] += 1
        return dict(counts)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _has_ancestor(info: dict, parent, name: str) -> bool:
    while parent is not None:
        pname, parent = info[parent]
        if pname == name:
            return True
    return False
