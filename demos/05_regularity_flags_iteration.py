"""Epsilon-regularity criteria: thresholds, flags, the scale iteration, and
the dyadic induction bound.

The analytical criteria certify a point regular when a scale-invariant
quantity is below a closed-form threshold built from the structural norms
(chemotactic sensitivity, gravity, initial chemoattractant maximum).  The
analytic thresholds are astronomically small, so the numerical suite flags
points against a configurable working threshold and reports both numbers.
"""

import numpy as np

from cnsflow import (
    Grid,
    ParabolicCylinder,
    PhysParams,
    RegularityConfig,
    ScaleRecord,
    SimulationConfig,
    State,
    Trajectory,
    flag_sweep,
    flag_thm13,
    flag_thm16,
    induction_verify,
    iteration_trace,
    simulate,
    thresholds,
)

cfg = RegularityConfig()  # delta0 = 0.05
params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
thr = thresholds(cfg, params)
print("closed-form thresholds for these structural norms:")
for name, value in thr.items():
    print(f"  {name:9s} = {value:.3e}")
print(f"working threshold used for flags: {cfg.working_threshold}")

sim = SimulationConfig(
    grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.05, output_stride=5, seed=3,
    init={"preset": "random_smooth", "amplitude": 0.05,
          "n_mean": 1.0, "c0": 1.0, "modes": 2},
)
traj = simulate(sim, params)
t_last = traj.times[-1]
z0 = ((0.5, 0.5, 0.5), t_last)

rep = flag_thm13(traj, z0, (0.08, 0.12), cfg)
print(f"\nweighted-gradient criterion at {z0}: value = {rep['value']:.3e}, "
      f"flagged = {rep['flagged']}")
for variant in ("i", "ii"):
    rep = flag_thm16(traj, z0, cfg, variant=variant, rho0=0.12)
    print(f"unit-cylinder bundle (variant {variant}): value = "
          f"{rep['value']:.3e}, flagged = {rep['flagged']}")

centers = np.array([[x, 0.5, 0.5, t_last] for x in (0.25, 0.5, 0.75)])
flags = flag_sweep(traj, centers, (0.08, 0.12), cfg)
print(f"sweep over {len(centers)} centers flagged {len(flags)} points")

# Scale iteration: G contracts by half per theta0-step plus a forcing term.
eps = 1e-4
records = [ScaleRecord(rho=r, g=g, e_sqrt_n=0.0, e_grad_sqrt_c_u=0.0)
           for r, g in zip([0.64, 0.08, 0.01], [1.0, 0.4, 0.3])]
out = iteration_trace(records, cfg, eps=eps)
print(f"\nsynthetic iteration: contractions hold = "
      f"{out['all_contractions_hold']}, handoff index k0 = {out['k0']}")

# Dyadic induction bound with a constant-density closed form as oracle.
N, L, n_bar = 48, 4.0, 2.0
g = Grid(N, L)
arr = np.full((N,) * 3, n_bar)
zeros = np.zeros((N,) * 3)
const = Trajectory([
    State(g, arr.copy(), zeros.copy(), np.zeros((3, N, N, N)),
          zeros.copy(), t) for t in np.linspace(-0.3, 0.0, 7)
])
out = induction_verify(const, ((2.0, 2.0, 2.0), 0.0), 1, cfg, eps0=100.0)
exact = 4.0 * np.pi / 3.0 * (n_bar + n_bar * np.log(n_bar))
lhs = out["levels"][0]["lhs"]
print(f"induction LHS for n = {n_bar}: {lhs:.4f} "
      f"(closed form {exact:.4f}, error {abs(lhs - exact) / exact:.2%})")
