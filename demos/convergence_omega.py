"""Degeneration toward a two-point limit with a nonzero central invariant.

Along rho_k = k, lambda_k = 1/k the generic operators, compressed by the
rescaling map beyond radius R_k = k^(2/3), approach the pair of
two-dimensional limit operators. The deviation table is printed together
with the rate envelope fitted on the first two indices.
"""

from boidol import (
    FieldGrids,
    PowerSeq,
    check_rate_envelope,
    default_plan,
    default_test_function,
    deviation_rows,
    fourier_field,
)


def main():
    grids = FieldGrids.default()
    # a scope keeps the generic operators, which the rate envelope reads again
    field = fourier_field(default_test_function()).scope()
    plan = default_plan("OmegaNonzero", PowerSeq(1, 1), PowerSeq(1, -1))
    ks = (4, 8, 16, 32, 64)

    print("k     rho_k   lambda_k   R_k      deviation")
    rows = deviation_rows(field, plan, ks, grids)
    for r in rows:
        print(f"{r['k']:<5d} {r['rho_k']:<7.1f} {r['lambda_k']:<10.4f} "
              f"{r['R_k']:<8.3f} {r['value']:.6f}")
    print(f"\nfinal/initial deviation ratio: "
          f"{rows[-1]['value'] / rows[0]['value']:.3f}")

    rate = check_rate_envelope(field, plan, ks, grids)
    print(f"fitted envelope constant C = {rate['C']:.5f}, "
          f"majorizes later indices: {rate['passed']}")


if __name__ == "__main__":
    main()
