"""The bound pipeline: closed-form right-hand sides next to experiments.

Every absolute constant defaults to 1 and is configurable; the pipeline
reports what the experiments imply instead of asserting book values.  The
demo evaluates a full report row, certifies the recursion envelope, splits a
smoothed discrepancy into its gamma*/omega* parts, and runs a small
dimension scan with log-log exponent fits.
"""

import math

import numpy as np

import steinclt as sc


def main():
    consts = sc.ConstantsConfig()

    print("=" * 70)
    print("1. bound report for the rademacher source (k = 2)")
    print("=" * 70)
    fam = sc.default_family(2)
    for n in (16, 64):
        rep = sc.bound_report(sc.rademacher_source(2), n, fam, 50_000,
                              sc.RngStream(1).child(n), consts=consts)
        print(f"  n = {n:3d}: delta_hat = {rep.delta_hat:.4f} (se {rep.std_error:.4f})"
              f"   main bound = {rep.main_bound:8.3f}   within = {rep.within_main}")
        print(f"           optimal t = {rep.optimal_t:.4f}   "
              f"recursion step = {rep.recursion_step:8.3f}")

    print()
    print("=" * 70)
    print("2. recursion certificate (all constants 1)")
    print("=" * 70)
    for k in (1, 2, 4, 6):
        cert = sc.recursion_certify(k, float(k) ** 1.5, 10**6, consts)
        print(f"  k = {k}: c* = {cert.c_star:.6f}   envelope maps into itself "
              f"from n = {cert.n_star}   (golden-ratio square = "
              f"{((1 + math.sqrt(5)) / 2) ** 2:.6f})")
    cert = sc.recursion_certify(2, 2.0**1.5, 4096, consts)
    pairs = list(zip(cert.sequence_n, cert.sequence_delta))
    shown = [pairs[i] for i in (0, 1, 3, 7, 15, len(pairs) - 1)]
    print("  certified upper sequence from delta_1 = 1 (k = 2):")
    print("   " + "   ".join(f"n={n}: {d:.4f}" for n, d in shown))

    print()
    print("=" * 70)
    print("3. smoothing decomposition: gamma* and omega* at matched eps")
    print("=" * 70)
    k, t = 2, 0.5
    params = sc.SmoothingParams.for_dimension(k, t)
    C = sc.HalfSpace(np.array([1.0, 0.0]), 0.0)
    gam = sc.gamma_star_hat(sc.rademacher_source(k), 16, t, C, params.eps, 20_000,
                            sc.RngStream(2))
    om = sc.omega_star_hat(C, params.eps, t)
    print(f"  eps = a_k sqrt(1-e^(-2t)) = {params.eps:.4f}")
    print(f"  gamma* = {gam.value:.5f} (se {gam.std_error:.5f})   omega* = {om:.5f}")
    print(f"  smoothing bound (prefactor 4/3): "
          f"{sc.smoothing_bound(gam.value, om):.5f}")
    print(f"  omega*/(sqrt(k) 2 eps e^t) = {sc.omega_star_ratio(C, params.eps, t):.4f}")

    print()
    print("=" * 70)
    print("4. dimension scan with exponent fits (rademacher, M = 40k)")
    print("=" * 70)
    report = sc.dim_scan(["rademacher"], [1, 2, 3], [16, 64],
                         lambda k: sc.default_family(k), 40_000, sc.RngStream(3))
    for cell in report.cells:
        print(f"  k = {cell.k}, n = {cell.n:3d}: delta_hat = {cell.delta:.4f} "
              f"(se {cell.std_error:.4f})")
    for (name, n), fit in sorted(report.k_exponents.items()):
        print(f"  k-exponent at n = {n:3d}: {fit.slope:+.3f} "
              f"(+- {fit.ci_half_width:.3f})")
    for (name, k), fit in sorted(report.n_exponents.items()):
        print(f"  n-exponent at k = {k}: {fit.slope:+.3f} "
              f"(+- {fit.ci_half_width:.3f})   (scaling target -1/2)")


if __name__ == "__main__":
    main()
