"""Scale-invariant cylinder quantities and the parabolic rescaling.

Local regularity arguments live on parabolic cylinders
Q_r(z0) = B_r(x0) x (t0 - r^2, t0) and use functionals of (n, c, u, P)
weighted so they are unchanged by the scaling

    n -> rho^2 n(rho x, rho^2 t),  c -> c,  u -> rho u,  P -> rho^2 P.

This demo computes all of them at several radii, then verifies the
invariance numerically by rescaling the discrete trajectory (dyadic ratios
keep the rescaled fields exactly on the grid).  The entropy-weighted
quantities are *not* invariant and the report says so.
"""

import numpy as np

from cnsflow import (
    ParabolicCylinder,
    PhysParams,
    SimulationConfig,
    compute_quantities,
    simulate,
    verify_scaling_invariance,
)

cfg = SimulationConfig(
    grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.05, output_stride=5, seed=3,
    init={"preset": "random_smooth", "amplitude": 0.05,
          "n_mean": 1.0, "c0": 1.0, "modes": 2},
)
traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0))

center, t0 = (0.5, 0.5, 0.5), traj.times[-1]
print("quantities at several radii (sup-in-time A_*, dissipation E_*,")
print("cubic C_*, pressure D, entropy M/N, and the combined G):")
for r in (0.08, 0.12, 0.2):
    q = compute_quantities(traj, ParabolicCylinder(center, t0, r))
    print(f"  r = {r:5.2f}  A_u = {q.a_u:.3e}  E_u = {q.e_u:.3e}"
          f"  C_u = {q.c_u:.3e}  D = {q.d:.3e}  G = {q.g:.3e}")

Q = ParabolicCylinder(center, t0, 0.1)
for rho0 in (2.0, 4.0):
    rep = verify_scaling_invariance(traj, rho0, Q)
    worst = max(e["rel_dev"] for e in rep["quantities"].values())
    wf = rep["weighted_grad_sqrt_n"]
    print(f"rho0 = {rho0}: worst invariant-quantity deviation = {worst:.2e}")
    print(f"  weighted gradient functional scales by {wf['measured_factor']:.8f}"
          f" (expected rho0^delta0 = {wf['expected_factor']:.8f})")
    for name, entry in rep["non_invariant"].items():
        print(f"  {name}: ratio {entry['ratio']:.4f} "
              f"(expected non-invariant: {not entry['invariant']})")
