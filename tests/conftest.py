"""Shared fixtures: small solver runs reused across test modules."""

import sys

import numpy as np
import pytest
from hypothesis import settings

from cnsflow import (
    Grid,
    PhysParams,
    SimulationConfig,
    State,
    Trajectory,
    ball_mask,
    simulate,
)
from cnsflow.grid_fields import second_derivative


# property tests draw the same few examples on every run
settings.register_profile("cnsflow", derandomize=True, database=None,
                          max_examples=20, deadline=None)
settings.load_profile("cnsflow")


def pytest_collection_modifyitems(items):
    # the demos run in child processes of up to ~2.6 GB (demo 04); run them
    # first, before the session fixtures below fill this process's memory
    items.sort(key=lambda item: "test_demos.py" not in item.nodeid)


def pytest_terminal_summary(terminalreporter):
    """Peak resident memory of this process and of its largest child."""
    try:
        import resource
    except ImportError:  # not on this platform
        return
    # ru_maxrss is in kB on Linux and in bytes on macOS
    unit = 1e6 if sys.platform == "darwin" else 1e3
    peaks = [resource.getrusage(who).ru_maxrss / unit
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    terminalreporter.write_line(
        "peak RSS: pytest process {:.0f} MB, largest child {:.0f} MB".format(*peaks))


@pytest.fixture(scope="session")
def smooth_params():
    return PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)


@pytest.fixture(scope="session")
def smooth_traj(smooth_params):
    """Short random smooth run on a 32^3 unit box with chemotaxis and
    buoyancy switched on."""
    cfg = SimulationConfig(
        grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.06, output_stride=3,
        order=1, seed=3,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    return simulate(cfg, smooth_params)


@pytest.fixture(scope="session")
def lei_traj(smooth_params):
    """Same physics at 48^3, long enough to carry the heat-kernel test
    functions; times shifted so the final snapshot sits at t = 0."""
    cfg = SimulationConfig(
        grid_n=48, grid_l=1.0, dt=2e-4, t_end=0.07, output_stride=3,
        order=1, seed=3,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg, smooth_params)
    shift = traj.states[-1].time
    for s in traj.states:
        s.time -= shift
    return Trajectory(traj.states, smooth_params)


@pytest.fixture(scope="session")
def constant_state_traj():
    """All-constant fields (n = 1, c = 1, u = 0) with chemotaxis switched
    on: every energy term is identically zero."""
    N = 24
    g = Grid(N, 1.0)
    ones = np.ones((N,) * 3)
    zeros = np.zeros((N,) * 3)
    states = [
        State(g, ones.copy(), ones.copy(), np.zeros((3, N, N, N)),
              zeros.copy(), t)
        for t in np.linspace(-0.08, 0.0, 9)
    ]
    return Trajectory(states, PhysParams(theta0=1.0, chi_coeffs=(0.5,), c0_max=1.0))


def hessian_components(g: Grid, f: np.ndarray) -> dict:
    """All nine second derivatives d_i d_j f (symmetric; computed once per
    pair)."""
    fh = g.rfftn(f)
    out = {}
    for i in range(3):
        for j in range(i, 3):
            out[(i, j)] = out[(j, i)] = second_derivative(g, fh, i, j)
    return out


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


def mean_removed_oracle(traj, x0, t0, r, field, power):
    """Integral over Q_r((x0, t0)) of |f - (f)_B|^power, f the state
    attribute ``field``: per snapshot, the ball mean removed (per
    component for a vector) and the ball sum taken; then the exact
    integral of the piecewise-linear interpolant in time over
    (t0 - r^2, t0), interpolated at the window's ends."""
    g = traj.grid
    mask = ball_mask(g, x0, r)
    times = np.array([s.time for s in traj.states])
    sums = []
    for s in traj.states:
        f = np.atleast_2d(getattr(s, field)[..., mask])  # (components, cells)
        centered = f - f.mean(axis=1, keepdims=True)
        mag = np.sqrt(np.sum(centered**2, axis=0))
        sums.append(np.sum(mag**power) * g.cell_volume)
    t_lo = t0 - r**2
    ts = np.concatenate([[t_lo], times[(times > t_lo) & (times < t0)], [t0]])
    return float(np.trapezoid(np.interp(ts, times, sums), ts))
