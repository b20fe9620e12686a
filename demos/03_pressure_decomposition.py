"""Local pressure decomposition P = P1 + P2 and potential-theoretic checks.

Near a point x0 the pressure splits into a part P1 driven by the local
sources (velocity fluctuation products and buoyancy, cut off to the ball
B_rho(x0)) and a remainder P2 that is harmonic on B_{rho/2}.  Harmonicity
is what lets interior estimates transfer smallness between scales, so we
verify it via the mean-value property on spheres.

The same quadrature machinery evaluates Riesz potentials
I_alpha f(x) = int f(y) |x - y|^{alpha - 3} dy, checked here against the
closed form for a ball indicator: I_2 1_{B_a}(center) = 2 pi a^2.
"""

import numpy as np

from cnsflow import (
    Grid,
    PhysParams,
    SimulationConfig,
    ball_mask,
    cz_sanity_report,
    decompose_local,
    harmonic_residual,
    riesz_potential,
    simulate,
)

cfg = SimulationConfig(
    grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.03, output_stride=10,
    chi_coeffs=(0.5,), gravity=0.5, seed=3,
    init={"preset": "random_smooth", "amplitude": 0.05,
          "n_mean": 1.0, "c0": 1.0, "modes": 2},
)
params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
state = simulate(cfg, params=params).states[-1]

dec = decompose_local(state, (0.5, 0.5, 0.5), 0.2, params=params)
print(f"identity max|P - (P1 + P2)| on B_rho/2 : "
      f"{dec.identity_residual(state.p):.2e}")

res = harmonic_residual(dec)
print("sphere mean-value defect of P2 (harmonic => should vanish):")
for r, dev in res["deviations"].items():
    print(f"  radius {r:.4f}: |P2(x0) - sphere avg| = {dev:.2e}")
print(f"  relative to sup|P2| on the half ball: {res['relative']:.2e}")

rep = cz_sanity_report(dec, state, params=params)
print(f"local 3/2-integral bound on P1: fitted constant = {rep['fitted_c']:.3f}")

# Riesz potential of a ball indicator against its closed form
g = Grid(64, 1.0)
a = 0.2
mask = ball_mask(g, (0.5, 0.5, 0.5), a)
center = np.zeros((64,) * 3, dtype=bool)
center[32, 32, 32] = True
got = riesz_potential(g, mask.astype(float), 2.0, mask,
                      target_mask=center)[32, 32, 32]
print(f"I_2 of 1_B({a}) at the center: {got:.6f} "
      f"(closed form 2 pi a^2 = {2 * np.pi * a**2:.6f})")
