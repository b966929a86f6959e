"""Degeneration toward the half-line orbits when the invariant vanishes.

Along rho_k = sqrt(k), lambda_k = 1/k the invariant omega_k = rho_k lambda_k
tends to zero and the generic operators approach a three-zone patchwork of
lower-stratum operators. The full deviation on the line decreases slowly
(its error floor scales like sqrt(omega_k)), while the half-line three-zone
deviations can be followed to very large indices and show the full decay.
"""

import math

from boidol import (
    FieldGrids,
    PowerSeq,
    default_plan,
    default_test_function,
    deviation_rows,
    fourier_field,
    zone_deviation_rows,
)


def main():
    grids = FieldGrids.default()
    field = fourier_field(default_test_function())
    plan = default_plan("OmegaZero", PowerSeq(1, 0.5), PowerSeq(1, -1))

    print("full deviation on the line:")
    for r in deviation_rows(field, plan, (4, 8, 16, 32, 64), grids):
        k = r["k"]
        print(f"  k={k:<4d} omega_k={plan.w_k(k):.4f}  deviation {r['value']:.6f}")

    print("\nhalf-line three-zone deviations:")
    ks = (4, 64, 1024, 4 ** 7, 4 ** 9, 4 ** 10)
    for r in zone_deviation_rows(field, plan, ks, grids):
        k = r["k"]
        exp = round(math.log(k, 4))
        print(f"  k=4^{exp:<3d} ({k:>8d})  plus {r['dev_plus']:.6f}  "
              f"minus {r['dev_minus']:.6f}")


if __name__ == "__main__":
    main()
