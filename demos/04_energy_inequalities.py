"""Global and local energy inequalities of suitable weak solutions.

Suitability means two things for a numerical trajectory:

  * the global functional (kinetic energy + entropy + chemical gradient
    energy, plus their accumulated dissipations) stays below a line
    LHS(0) + C*(t - t0);
  * the local energy inequality holds against every nonnegative test
    function psi vanishing on the parabolic boundary: the residual
    RHS - LHS must be nonnegative (up to quadrature tolerance).

The interesting test functions are backward heat kernels concentrated at
dyadic scales, truncated by a C^4 cutoff so they are exactly backward
caloric on the plateau.
"""

import numpy as np

from cnsflow import (
    PhysParams,
    SimulationConfig,
    Trajectory,
    check_heat_properties,
    global_energy_check,
    heat_test_function,
    lei_residual,
    simulate,
    smooth_bump,
)

params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
cfg = SimulationConfig(
    grid_n=48, grid_l=1.0, dt=2e-4, t_end=0.07, output_stride=3, seed=3,
    init={"preset": "random_smooth", "amplitude": 0.05,
          "n_mean": 1.0, "c0": 1.0, "modes": 2},
)
traj = simulate(cfg, params)
shift = traj.states[-1].time
for s in traj.states:
    s.time -= shift  # put the final snapshot at t = 0
traj = Trajectory(traj.states, params)

rep = global_energy_check(traj)
print(f"global energy: LHS(0) = {rep['lhs'][0]:.4f}, "
      f"LHS(end) = {rep['lhs'][-1]:.4f}, fitted C* = {rep['c_star']:.4f}, "
      f"bounded = {rep['bounded']}")

props = check_heat_properties()
print(f"heat-kernel structural constants: fitted C = {props['fitted_c']:.2f}"
      f" (<= 20), plateau heat residual = {props['vi']:.1e} (exact 0)")

center, omega = (0.5, 0.5, 0.5), 0.25
print("local energy inequality residuals (nonnegative = inequality holds):")
for level in (3, 4, 5):
    tf = heat_test_function(level, scale=2.0)
    r = lei_residual(traj, tf, 0.0, center, omega)
    tol = 1e-4 * (1.0 + r.max_abs_term)
    print(f"  heat kernel level {level}: residual = {r.residual:+.3e} "
          f"(tolerance {-tol:.1e})")
for radius, span in ((0.2, 0.05), (0.12, 0.03)):
    tf = smooth_bump(radius, span)
    r = lei_residual(traj, tf, 0.0, center, omega)
    print(f"  bump r = {radius}: residual = {r.residual:+.3e}")

r = lei_residual(traj, heat_test_function(4, scale=2.0), 0.0, center, omega)
print("term-by-term (level 4):")
for name, val in {**r.lhs_terms, **r.rhs_terms}.items():
    print(f"  {name:22s} {val:+.4e}")
