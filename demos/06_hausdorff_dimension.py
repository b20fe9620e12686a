"""Parabolic Hausdorff dimension of spacetime point sets.

The parabolic metric d(z1, z2) = max(|x1 - x2|, sqrt|t1 - t2|) makes a
radius-r ball cover an r^2-long time interval, so a purely temporal
segment has dimension 2.  The estimator greedily covers a point set at a
ladder of scales and fits log N(r) against log(1/r); the Vitali routine
extracts a disjoint subfamily whose shifted 5r-dilates cover a family of
cylinders, which is the covering step behind singular-set bounds.
"""

import numpy as np

from cnsflow import (
    ParabolicCylinder,
    dimension_estimate,
    parabolic_distance,
    verify_vitali,
    vitali_subcover,
)

print("distance examples:")
a, b = ((0.0, 0.0, 0.0), 0.0), ((0.3, 0.0, 0.0), 0.04)
print(f"  d({a}, {b}) = {parabolic_distance(a, b)}  (spatial wins)")
b = ((0.1, 0.0, 0.0), 0.09)
print(f"  d({a}, {b}) = {parabolic_distance(a, b)}  (temporal wins)")

# a point set is an (m, 4) array with one (x0, x1, x2, t) row per point
line, times = np.zeros((1000, 4)), np.zeros((1000, 4))
line[:, 0] = np.linspace(0.0, 1.0, 1000)
times[:, 3] = np.linspace(-1.0, 0.0, 1000)
axis = np.linspace(0.0, 1.0, 28)
cube = np.zeros((28**3, 4))
cube[:, :3] = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
sets = {
    "spatial segment (dim 1)": (line, [2.0**-k for k in range(2, 8)]),
    "temporal segment (dim 2)": (times, [2.0**-k for k in range(1, 6)]),
    "spatial cube (dim 3)": (cube, [0.25, 0.125, 0.0625]),
}
for name, (pts, scales) in sets.items():
    est = dimension_estimate(pts, scales)
    print(f"{name}: slope = {est.slope:.3f}, counts = {est.counts}")
    trend = est.measure_trend(est.slope + 0.5)
    print(f"  premeasure at alpha = slope + 0.5: {trend['classification']}")

rng = np.random.default_rng(42)
cyls = [ParabolicCylinder(tuple(rng.uniform(0.0, 1.0, 3)),
                          rng.uniform(-0.5, 0.0), rng.uniform(0.01, 0.08))
        for _ in range(200)]
sel = vitali_subcover(cyls, box_length=1.0)
rep = verify_vitali(cyls, sel, box_length=1.0)
print(f"\nVitali: kept {len(sel)} of {len(cyls)} cylinders; "
      f"disjoint = {rep['pairwise_disjoint']}, "
      f"5r-dilates cover = {rep['five_r_covers']}")
