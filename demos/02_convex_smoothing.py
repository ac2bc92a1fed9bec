"""Convex bodies: membership, dilation/erosion, Gaussian measures, shells.

Shows the sandwich C^{-eps} subset C subset C^{eps}, exact measures for the
analytic variants and a dilated box, the QMC fallback with its reported
error, and the boundary-shell masses that the smoothing inequality consumes.
"""

import numpy as np

import steinclt as sc


def main():
    k = 2
    ball = sc.Ball(np.zeros(k), 1.2)
    box = sc.Box(-np.ones(k), np.ones(k))
    hs = sc.HalfSpace(np.array([1.0, 0.0]), 0.5)
    ell = sc.Ellipsoid(np.zeros(k), np.diag([1.0, 4.0]))

    print("=" * 70)
    print("1. dilation / erosion sandwich at random points")
    print("=" * 70)
    pts = sc.RngStream(7).generator().standard_normal((2000, k)) * 1.5
    for C, name in ((ball, "ball"), (box, "box"), (hs, "half-space"), (ell, "ellipsoid")):
        inner = np.asarray(C.erode(0.3).contains(pts))
        mid = np.asarray(C.contains(pts))
        outer = np.asarray(C.dilate(0.3).contains(pts))
        ok = np.all(~inner | mid) and np.all(~mid | outer)
        print(f"  {name:10s}: inner {inner.sum():5d} <= set {mid.sum():5d} "
              f"<= outer {outer.sum():5d}   nested = {ok}")

    print()
    print("=" * 70)
    print("2. Gaussian measures (analytic where possible, QMC otherwise)")
    print("=" * 70)
    for C, name in ((hs, "half-space"), (ball, "ball"), (box, "box")):
        print(f"  {name:10s}: Phi(C) = {sc.gaussian_measure(C):.6f} (exact)")
    est, se = sc.gaussian_measure_estimate(ell)
    print(f"  ellipsoid : Phi(C) = {est:.6f} +- {se:.1e} (scrambled-Sobol QMC)")
    dil = box.dilate(0.25)
    est2, se2 = sc.gaussian_measure_estimate(dil)
    print(f"  box^0.25  : Phi(C) = {est2:.6f} +- {se2:.1e} (Steiner decomposition, exact)")

    print()
    print("=" * 70)
    print("3. boundary shells: P(scale Z in (dC)^{2 eps})")
    print("=" * 70)
    print(f"{'eps':>6s} {'half-space':>12s} {'ball':>12s}")
    for eps in (0.02, 0.05, 0.1, 0.2):
        print(f"{eps:6.2f} {sc.shell_measure(hs, eps):12.6f} {sc.shell_measure(ball, eps):12.6f}")

    print()
    print("=" * 70)
    print("4. set families and serialization")
    print("=" * 70)
    fam = sc.default_family(k, seed=0)
    print(f"default family: {len(fam)} sets ({fam.description})")
    cfg = sc.family_to_config(fam)
    fam2 = sc.family_from_config(cfg)
    print(f"round-trip through config: {len(fam2)} sets, dim {fam2.dim}")


if __name__ == "__main__":
    main()
