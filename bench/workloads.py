"""The benchmark's workloads: CLI arguments, config overrides, artifacts.

Why each workload was chosen is recorded in NOTES.md.  The seed sets only
the phase of the test function's coefficient (see `seeded_config`).
"""

from __future__ import annotations

import json
import math
import random

# Wrapped names every call of a workload must reach at least once; together
# the workloads cover every name the tracer wraps.
_CORE = ("grids.gauss_legendre_rule", "testfun.bump_fourier", "testfun.eval_hatF34",
         "kernels.pi", "kernels.ell", "kernels.tau", "kernels.vk",
         "kernels.vk_adjoint", "operators.op_norm", "operators.compose",
         "operators.cutoff_M", "fields.at", "cli.main")

WORKLOADS = {
    "dstar": {
        "threads": 2,
        "argv": ["dstar"],
        "config": {"grid": {"L": 12.0, "n": 384, "V": 6.0, "n_half": 288}},
        "artifact": "dstar.json",
        "reached": _CORE + ("kernels.char", "operators.compact_defect",
                            "fields.dstar_report", "fields.sigma_k_omega",
                            "fields.sigma_k_zero", "fields.s_k_zero",
                            "fields.compact_condition_check",
                            "fields.sigma0_apply"),
    },
    "converge-omega-k256": {
        "threads": 2,
        "argv": ["converge", "omega"],
        "config": {"ks": [4, 8, 16, 64, 256]},
        "artifact": "converge_omega.json",
        "reached": _CORE + ("fields.sigma_k_omega", "fields.check_rate_envelope",
                            "fields.check_tail_cutoff", "fields.check_small_zone"),
    },
    "converge-zero-x2": {
        # with two pool threads the peak RSS was bimodal over ten seeds
        # (443-449 or 555-579 MiB); one thread keeps it within 2%, ~3 s slower
        "threads": 1,
        "argv": ["--grid-scale", "2", "converge", "zero"],
        "config": {"ks": [4, 64]},
        "artifact": "converge_zero.json",
        "reached": _CORE + ("fields.sigma_k_zero", "fields.s_k_zero"),
    },
}


def phase(seed: int) -> float:
    """The seeded phase theta; seed 0 gives theta = 0."""
    return 0.0 if seed == 0 else random.Random(seed).uniform(-math.pi, math.pi)


def seeded_config(workload: str, seed: int, to_json, default_test_function) -> dict:
    """The workload's config with the test function scaled by e^(i theta).

    The test function is one separable term, so the config holds a single
    term; `to_json` and `default_test_function` come from `boidol.testfun`.
    """
    theta = phase(seed)
    f = default_test_function().scaled(complex(math.cos(theta), math.sin(theta)))
    return {**WORKLOADS[workload]["config"], "test_function": json.loads(to_json(f))}
