"""The machine block every benchmark result carries.

Gathered inside the workload process after its call, so the BLAS thread
count is the one that process saw.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

import numpy as np

# An n x n complex128 matrix at the largest grid a workload uses.
LARGEST_N = 1024


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = {"size": size, "shared_cpu_list": shared}
    return out


def _kib(size: str) -> int | None:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    if size and size[-1] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return int(size) // 1024 if size.isdigit() else None


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
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


def _git_rev(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "boidol").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_block(root: Path) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    caches = _caches()
    llc = caches[max(caches)] if caches else None
    llc_kib = _kib(llc["size"]) if llc else None
    matrix_kib = LARGEST_N * LARGEST_N * 16 // 1024
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "flops_note": (
            "operators.compose.flops is computed as 8*m*k*n, not measured; "
            f"an n={LARGEST_N} complex matrix is {matrix_kib // 1024} MiB and "
            + ("fits in" if llc_kib and matrix_kib <= llc_kib else "exceeds")
            + f" the last-level cache ({llc['size'] if llc else 'unknown'})"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_rev": _git_rev(root),
        "src_sha256": _src_sha256(root),
    }
