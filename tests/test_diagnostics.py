"""Cylinder quantities: closed forms, scaling invariance, entropy log-split,
and an independent Monte-Carlo quadrature oracle."""

import numpy as np
import pytest

from cnsflow import (
    Grid,
    INVARIANT_NAMES,
    ParabolicCylinder,
    State,
    Trajectory,
    ball_mask,
    compute_quantities,
    eval_field_at,
    log_split,
    rescaled_cylinder,
    verify_scaling_invariance,
)

from cnsflow import state
from cnsflow.grid_fields import _snapshot_weights, _sup_snapshots

from conftest import make_constant_u_traj, mean_removed_oracle


def _zero_traj(N=24, L=2.0):
    g = Grid(N, L)
    zeros = np.zeros((N,) * 3)
    states = [State(g, zeros.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)]
    return Trajectory(states)


def test_zero_data_gives_zero_quantities():
    traj = _zero_traj()
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, 0.4)
    q = compute_quantities(traj, Q)
    for name in INVARIANT_NAMES + ("m", "n_entropy", "g"):
        assert getattr(q, name) == 0.0


def test_constant_velocity_closed_forms():
    """u = (1,0,0) on a large box: A_u = r^{-1} |B_r| and C_u = r^{-2}
    |B_r| r^2 = |B_r|, with |B_r| the discrete ball volume."""
    traj = make_constant_u_traj()
    g = traj.grid
    r = 1.0
    Q = ParabolicCylinder((2.0, 2.0, 2.0), 0.0, r)
    q = compute_quantities(traj, Q)
    volB = float(np.sum(ball_mask(g, (2.0, 2.0, 2.0), r))) * g.cell_volume
    assert abs(q.a_u - volB / r) / volB < 1e-12
    assert abs(q.c_u - volB) / volB < 1e-12
    # the mean-removed cubic velocity integral vanishes for constant u
    assert q.c_u_tilde < 1e-12
    # everything not built from u is zero
    assert q.a_sqrt_n == 0.0 and q.e_u == 0.0 and q.d == 0.0


def test_mean_removed_velocity_matches_oracle(smooth_traj):
    """C~_u on a window that starts inside a snapshot interval equals the
    oracle's mean-removed cubic velocity integral over r^2."""
    x0, t0, r = (0.5, 0.5, 0.5), 0.06, 0.15
    got = compute_quantities(smooth_traj, ParabolicCylinder(x0, t0, r)).c_u_tilde
    exact = mean_removed_oracle(smooth_traj, x0, t0, r, "u", 3.0) / r**2
    assert exact > 0.0
    assert abs(got - exact) <= 1e-12 * exact


def test_quantities_gather_velocity_once_per_snapshot(smooth_traj, monkeypatch):
    """compute_quantities reads each snapshot of its window through one
    view, which its integrals (|u|^3 and C~_u's mean-removed u) and its
    sups (|u|^2) share: u is gathered once per snapshot, and for no
    snapshot outside the window."""
    x0, t0, r = (0.5, 0.5, 0.5), 0.05, 0.1
    index = {id(s.u): i for i, s in enumerate(smooth_traj.states)}
    gathered = []

    def counted(a, cells, _gather=state.gather):
        if id(a) in index:
            gathered.append(index[id(a)])
        return _gather(a, cells)

    monkeypatch.setattr(state, "gather", counted)
    compute_quantities(smooth_traj, ParabolicCylinder(x0, t0, r))
    times, t_lo = smooth_traj.times, t0 - r**2
    window = set(_snapshot_weights(times, t_lo, t0)) | set(_sup_snapshots(times, t_lo, t0))
    assert len(window) > 2
    assert sorted(gathered) == sorted(window)


def test_cubic_velocity_grows_with_radius():
    traj = make_constant_u_traj()
    radii = (0.5, 0.75, 1.0)
    vals = [compute_quantities(
        traj, ParabolicCylinder((2.0, 2.0, 2.0), 0.0, r)).c_u for r in radii]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("rho0", [2.0, 4.0])
def test_scaling_invariance_machine_precision(smooth_traj, rho0):
    Q = ParabolicCylinder((0.5, 0.5, 0.5), 0.06, 0.1)
    rep = verify_scaling_invariance(smooth_traj, rho0, Q)
    for name, entry in rep["quantities"].items():
        assert entry["rel_dev"] < 1e-12, name
    wf = rep["weighted_grad_sqrt_n"]
    assert abs(wf["measured_factor"] - wf["expected_factor"]) < 1e-12


def test_entropy_quantities_are_not_invariant():
    """n = 1 has zero entropy but rescales to n = rho0^2 with positive
    entropy, so the entropy quantities cannot be scaling-invariant."""
    N, L = 24, 2.0
    g = Grid(N, L)
    ones = np.ones((N,) * 3)
    zeros = np.zeros((N,) * 3)
    states = [State(g, ones.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)]
    traj = Trajectory(states)
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, 0.4)
    rep = verify_scaling_invariance(traj, 2.0, Q)
    for name in ("m", "n_entropy"):
        assert not rep["non_invariant"][name]["invariant"]


def test_log_split_vanishes_at_critical_density():
    """n = rho0^{-2} makes ln(rho0^2 n) = 0, so every band is zero."""
    rho0 = 0.5
    N, L = 24, 2.0
    g = Grid(N, L)
    n = np.full((N,) * 3, rho0**-2)
    zeros = np.zeros((N,) * 3)
    states = [State(g, n.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)]
    traj = Trajectory(states)
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, 0.4)
    split = log_split(traj, rho0, Q)
    assert split.total == 0.0


def test_log_split_low_band_closed_form():
    """n = 1 with rho0 = 1/2 sits below the lower cut rho0^{-3/2}, so only
    the first band contributes, with value rho0^{-2} |ln rho0^2|^{3/2}
    |B_r| r^2."""
    rho0 = 0.5
    N, L = 24, 2.0
    g = Grid(N, L)
    ones = np.ones((N,) * 3)
    zeros = np.zeros((N,) * 3)
    states = [State(g, ones.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)]
    traj = Trajectory(states)
    r = 0.4
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, r)
    split = log_split(traj, rho0, Q)
    volB = float(np.sum(ball_mask(g, (1.0, 1.0, 1.0), r))) * g.cell_volume
    exact = rho0**-2 * abs(np.log(rho0**2)) ** 1.5 * volB * r**2
    assert split.m2 == 0.0 and split.m3 == 0.0
    assert abs(split.m1 - exact) / exact < 1e-12


def test_log_split_bands_partition_random_density():
    """For a time-frozen random density the band sum must equal the direct
    unpartitioned quadrature exactly."""
    rho0 = 0.5
    N, L = 24, 2.0
    g = Grid(N, L)
    rng = np.random.default_rng(7)
    n = rng.uniform(0.1, 6.0, (N,) * 3)  # straddles both cuts (2.83 and 4)
    zeros = np.zeros((N,) * 3)
    states = [State(g, n.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)]
    traj = Trajectory(states)
    r = 0.4
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, r)
    split = log_split(traj, rho0, Q)
    assert split.m1 > 0 and split.m2 > 0 and split.m3 > 0
    mask = ball_mask(g, (1.0, 1.0, 1.0), r)
    direct = (rho0**-2 * np.sum(np.abs(n[mask] * np.log(rho0**2 * n[mask]))
                                ** 1.5) * g.cell_volume * r**2)
    assert abs(split.total - direct) / direct < 1e-12


def test_cubic_velocity_against_monte_carlo_oracle(smooth_traj):
    """Independent quadrature for C_u: trigonometric interpolation of the
    velocity at uniform random points in the ball, trapezoid over the same
    snapshot times."""
    t0, r = 0.06, np.sqrt(0.036)  # window spans exactly 60 output intervals
    x0 = np.array([0.5, 0.5, 0.5])
    Q = ParabolicCylinder(tuple(x0), t0, r)
    grid_value = compute_quantities(smooth_traj, Q).c_u

    rng = np.random.default_rng(11)
    pts = rng.normal(size=(4000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= r * rng.uniform(0.0, 1.0, (4000, 1)) ** (1.0 / 3.0)
    pts += x0
    ball_vol = 4.0 * np.pi / 3.0 * r**3

    g = smooth_traj.grid
    t_lo = t0 - r**2
    idx = [i for i, t in enumerate(smooth_traj.times)
           if t_lo - 1e-12 <= t <= t0 + 1e-12]
    idx = idx[::6]  # coarser (still independent) time rule; integrand is smooth
    vals, ts = [], []
    for i in idx:
        s = smooth_traj.states[i]
        u = np.stack([eval_field_at(g, s.u[k], pts) for k in range(3)])
        speed = np.sqrt(np.sum(u**2, axis=0))
        vals.append(ball_vol * float(np.mean(speed**3)))
        ts.append(s.time)
    mc_value = float(np.trapezoid(vals, ts)) / r**2
    assert abs(mc_value - grid_value) / grid_value < 0.02
