"""Certified gauge bounds for a star-shaped set from finite witnesses.

An ellipse has a known directional radius (gauge) about its center.  We
sample a handful of boundary points and build the two one-sided
approximations: inner bounds from the witnesses seen as members, outer
bounds from the witnesses seen as boundary points.  The true gauge always
lies between the two, and both bounds tighten monotonically as witnesses
accumulate.
"""

import numpy as np

from cdmkit.geometry import (
    Side,
    StarSetApprox,
    interval_hausdorff,
    mgf_inner_bound,
    mgf_outer_bound,
)

A, B = 2.0, 0.5  # ellipse semi-axes


def gauge(l):
    return 1.0 / np.sqrt((l[0] / A) ** 2 + (l[1] / B) ** 2)


def lipschitz_constant(n=20000):
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    vals = np.array([gauge(l) for l in dirs])
    gaps = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    return float(np.max(np.abs(np.diff(vals)) / gaps))


def main():
    rng = np.random.default_rng(0)
    L = lipschitz_constant() * 1.001
    print(f"ellipse with semi-axes ({A}, {B}); gauge Lipschitz constant ~ {L:.3f}")

    probe = np.array([np.cos(1.0), np.sin(1.0)])
    true_value = gauge(probe)
    print(f"probing direction at 1 rad, true radius {true_value:.4f}\n")
    print(f"{'witnesses':>9} | {'inner bound':>11} | {'outer bound':>11}")
    for count in (2, 4, 8, 16, 64):
        th = rng.uniform(0.0, 2 * np.pi, count)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        radii = np.array([gauge(l) for l in dirs])
        inner = StarSetApprox(np.zeros(2), L, dirs, radii, Side.INNER)
        outer = StarSetApprox(np.zeros(2), L, dirs, radii, Side.OUTER)
        lo = mgf_inner_bound(inner, probe)
        hi = mgf_outer_bound(outer, probe)
        assert lo <= true_value <= hi
        print(f"{count:>9} | {lo:>11.4f} | {hi:>11.4f}")

    points = [0.0, 0.5, 1.0]
    print("\ncovering radius of {0, 0.5, 1} over [0, 1]:")
    exact = interval_hausdorff(0.0, 1.0, min(points), max(points), max(np.diff(points)))
    print(f"  exactly {exact:.4f} (the farthest points, 0.25 and 0.75, "
          "sit 0.25 from the nearest sample)")


if __name__ == "__main__":
    main()
