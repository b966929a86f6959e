"""Membership of a Fourier field in the limit C*-algebra.

Runs the aggregate condition report for the field of a smooth compactly
supported test function at reduced resolution, then shows that a field
tampered at a single point of the spectrum fails exactly one condition.
"""

from boidol import (
    FieldGrids,
    PowerSeq,
    default_plan,
    default_sample,
    default_test_function,
    dstar_report,
    fourier_field,
)
from boidol.fields import DstarConfig, tamper_spike_on_characters
from boidol.grids import GridSpec


def small_config():
    return DstarConfig(
        grids=FieldGrids(GridSpec.linear(12.0, 128), GridSpec.log_pair(6.0, 96)),
        sample=default_sample(),
        plans_omega=(default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1)),),
        plans_zero=(default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1)),),
        ks=(4, 8, 16),
        ks_tau=(4, 64, 1024, 4 ** 7, 4 ** 9),
        decay_ratio=0.65,
        check_adjoint=False,
    )


def show(report):
    for name, cond in report["conditions"].items():
        print(f"  {name:<28s} {cond['status']}")
    print(f"  => field {'passes' if report['passed'] else 'FAILS'}")


def main():
    field = fourier_field(default_test_function())
    cfg = small_config()
    print(f"report for {field.label}:")
    show(dstar_report(field, cfg))

    spiked = tamper_spike_on_characters(field, at=1.0)
    print(f"\nreport for {spiked.label}:")
    show(dstar_report(spiked, cfg))


if __name__ == "__main__":
    main()
