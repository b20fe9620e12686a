"""Run the coupled density/chemoattractant/velocity solver and look at the
structural invariants it maintains.

The solver advances, on a periodic box:

    dn/dt + u . grad n - lap n = -div(chi(c) n grad c)
    dc/dt + u . grad c - lap c = -kappa(c) n
    du/dt + u . grad u - lap u + grad P = -n grad phi,   div u = 0

with kappa(s) = Theta0 * s * chi(s).  Three things should survive the
discretization exactly (or to solver precision): total density mass, the
maximum principle for c, and incompressibility of u.
"""

import numpy as np

from cnsflow import PhysParams, SimulationConfig, divergence, simulate

cfg = SimulationConfig(
    grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.03, output_stride=10,
    chi_coeffs=(0.5,), gravity=0.5, seed=1,
    init={"preset": "gaussian", "amplitude": 1.0, "width": 0.1, "c0": 1.0},
)
params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)

traj = simulate(cfg, params=params)
vol = traj.grid.cell_volume

print(f"ran {len(traj.states)} snapshots to t = {traj.times[-1]:.3f}")
print(f"max relative mass drift : {traj.run_log['mass_drift_max']:.3e}")

mass0 = float(np.sum(traj.states[0].n) * vol)
for s in traj.states[:: max(1, len(traj.states) // 5)]:
    div = divergence(s.grid, s.u)
    print(f"  t = {s.time:.4f}  mass = {np.sum(s.n) * vol:.12f}"
          f"  max c = {np.max(s.c):.6f}  |div u| = {np.max(np.abs(div)):.2e}")

# The swirl flow decouples from the chemotaxis when chi = 0 and n = 0, and
# then decays mode-exactly: u(t) = e^{-2t} u(0) on the 2*pi box.
tg = SimulationConfig(
    grid_n=32, grid_l=2.0 * np.pi, dt=1e-3, t_end=0.1, output_stride=100,
    chi_coeffs=(0.0,), init={"preset": "taylor_green", "amplitude": 1.0},
)
ref = simulate(tg, params=PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0))
s = ref.states[-1]
x, y, _ = np.broadcast_arrays(*s.grid.coords())
decay = np.exp(-2.0 * s.time)
u_exact = np.array([decay * np.cos(x) * np.sin(y),
                    -decay * np.sin(x) * np.cos(y), np.zeros_like(x)])
print(f"swirl-flow reference error at t = {s.time}: "
      f"{np.max(np.abs(s.u - u_exact)):.2e}")
