"""Shared fixtures: small solver runs reused across test modules."""

import numpy as np
import pytest

from cnsflow import (
    Grid,
    PhysParams,
    SimulationConfig,
    State,
    Trajectory,
    simulate,
)


def pytest_collection_modifyitems(items):
    # the demos run in child processes of up to ~2.5 GB; run them first,
    # before the session fixtures below fill this process's memory
    items.sort(key=lambda item: "test_demos.py" not in item.nodeid)


@pytest.fixture(scope="session")
def smooth_params():
    return PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)


@pytest.fixture(scope="session")
def smooth_traj(smooth_params):
    """Short random smooth run on a 32^3 unit box with chemotaxis and
    buoyancy switched on."""
    cfg = SimulationConfig(
        grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.06, output_stride=3,
        order=1, seed=3, theta0=1.0, chi_coeffs=(0.5,), gravity=0.5,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    return simulate(cfg, params=smooth_params)


@pytest.fixture(scope="session")
def lei_traj(smooth_params):
    """Same physics at 48^3, long enough to carry the heat-kernel test
    functions; times shifted so the final snapshot sits at t = 0."""
    cfg = SimulationConfig(
        grid_n=48, grid_l=1.0, dt=2e-4, t_end=0.07, output_stride=3,
        order=1, seed=3, theta0=1.0, chi_coeffs=(0.5,), gravity=0.5,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg, params=smooth_params)
    shift = traj.states[-1].time
    for s in traj.states:
        s.time -= shift
    return traj


@pytest.fixture(scope="session")
def constant_state_traj():
    """All-constant fields (n = 1, c = 1, u = 0): every energy term is
    identically zero."""
    N = 24
    g = Grid(N, 1.0)
    ones = np.ones((N,) * 3)
    zeros = np.zeros((N,) * 3)
    states = [
        State(g, ones.copy(), ones.copy(), np.zeros((3, N, N, N)),
              zeros.copy(), t)
        for t in np.linspace(-0.08, 0.0, 9)
    ]
    return Trajectory(states)


def make_constant_u_traj(N=64, L=4.0, u0=(1.0, 0.0, 0.0),
                         t_lo=-1.2, t_hi=0.0, count=13):
    """Constant-velocity trajectory for closed-form quantity checks."""
    g = Grid(N, L)
    zeros = np.zeros((N,) * 3)
    u = np.zeros((3, N, N, N))
    for i, v in enumerate(u0):
        u[i] = v
    states = [
        State(g, zeros.copy(), zeros.copy(), u.copy(), zeros.copy(), t)
        for t in np.linspace(t_lo, t_hi, count)
    ]
    return Trajectory(states)
