"""Solver structure: parameter validation, conservation, exact flows, and
independent time-integration oracles."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cnsflow import (
    CFLError,
    Grid,
    PhysParams,
    SimulationConfig,
    divergence,
    initial_state,
    read_snapshot,
    simulate,
    solve_pressure,
    step,
    write_snapshot,
    write_trajectory,
)
from cnsflow.solver import _band_limited


def test_kappa_is_theta0_s_chi():
    p = PhysParams(theta0=2.0, chi_coeffs=(0.3, 0.1), c0_max=1.0)
    for s in (0.0, 0.25, 0.7, 1.0):
        chi = 0.3 + 0.1 * s
        assert abs(p.kappa_eval(np.array([s]))[0] - 2.0 * s * chi) < 1e-14


def test_negative_chi_rejected():
    with pytest.raises(ValueError):
        PhysParams(theta0=1.0, chi_coeffs=(-1.0,), c0_max=1.0).validate_structure()


def test_chi_norm_constant_case():
    # for constant chi the derivative terms vanish
    p = PhysParams(theta0=1.0, chi_coeffs=(0.5,), c0_max=1.0)
    assert abs(p.chi_norm - 0.5) < 1e-12


def test_cfl_violation_raises():
    cfg = SimulationConfig(grid_n=16, grid_l=1.0, dt=0.05,
                           init={"preset": "taylor_green", "amplitude": 2.0})
    params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0)
    s = initial_state(cfg, params)
    with pytest.raises(CFLError) as err:
        step(s, params, 0.05)
    assert err.value.suggested_dt < 0.05


def test_mass_conservation_machine_precision():
    cfg = SimulationConfig(
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.01, output_stride=10,
        chi_coeffs=(0.5,), gravity=0.3, seed=1,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg)
    assert traj.run_log["mass_drift_max"] < 1e-12


def test_divergence_free_maintained():
    cfg = SimulationConfig(
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.005, output_stride=5,
        chi_coeffs=(0.5,), gravity=0.5, seed=1,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg)
    for s in traj.states:
        div = divergence(s.grid, s.u)
        assert np.max(np.abs(div)) < 1e-10


def test_concentration_maximum_principle():
    cfg = SimulationConfig(
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.01, output_stride=10,
        chi_coeffs=(0.5,), gravity=0.0, seed=2,
        init={"preset": "random_smooth", "amplitude": 0.1,
              "n_mean": 1.0, "c0": 0.8, "modes": 2},
    )
    traj = simulate(cfg)
    for s in traj.states:
        assert np.max(s.c) <= 0.8 + 1e-12
        assert np.min(s.c) >= -1e-12


def test_uniform_consumption_matches_ode_oracle():
    """Spatially uniform data reduce the concentration equation to the
    scalar ODE dc/dt = -kappa(c) n with n frozen; compare against an
    independent stiff integrator."""
    n0, c0, t_end = 1.5, 1.0, 0.05
    theta0, chi0 = 2.0, 0.5
    cfg = SimulationConfig(
        grid_n=8, grid_l=1.0, dt=1e-4, t_end=t_end, output_stride=100,
        theta0=theta0, chi_coeffs=(chi0,),
        init={"preset": "zero"},
    )
    params = PhysParams(theta0=theta0, chi_coeffs=(chi0,), c0_max=c0)
    s = initial_state(cfg, params)
    s.n = np.full_like(s.n, n0)
    s.c = np.full_like(s.c, c0)
    steps = int(round(t_end / cfg.dt))
    for _ in range(steps):
        s = step(s, params, cfg.dt)
    ode = solve_ivp(
        lambda t, y: [-theta0 * y[0] * chi0 * n0], (0.0, t_end), [c0],
        rtol=1e-10, atol=1e-12,
    )
    assert np.max(np.abs(s.n - n0)) < 1e-12  # density untouched
    c_ref = ode.y[0, -1]
    assert abs(float(np.mean(s.c)) - c_ref) / c_ref < 1e-4


def test_taylor_green_decay_and_pressure():
    """The decoupled swirl flow decays mode-exactly, with closed-form
    pressure -(1/4)(cos 2x + cos 2y)."""
    L = 2.0 * np.pi
    amp = 1.0
    cfg = SimulationConfig(
        grid_n=32, grid_l=L, dt=1e-3, t_end=0.1, output_stride=100,
        chi_coeffs=(0.0,),
        init={"preset": "taylor_green", "amplitude": amp, "c0": 0.0},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0)
    traj = simulate(cfg, params=params)
    s = traj.states[-1]
    g = s.grid
    x, y, _ = np.broadcast_arrays(*g.coords())
    decay = np.exp(-2.0 * s.time)
    u_exact = np.array([
        amp * decay * np.cos(x) * np.sin(y),
        -amp * decay * np.sin(x) * np.cos(y),
        np.zeros_like(x),
    ])
    assert np.max(np.abs(s.u - u_exact)) < 1e-8
    p_exact = -0.25 * amp**2 * decay**2 * (np.cos(2 * x) + np.cos(2 * y))
    assert np.max(np.abs(s.p - p_exact)) < 1e-8


def test_restart_is_bitwise_identical(tmp_path):
    base = dict(
        grid_n=16, grid_l=1.0, dt=2e-4, output_stride=5,
        chi_coeffs=(0.5,), gravity=0.3, seed=4,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    full = simulate(SimulationConfig(t_end=0.004, **base))
    half = simulate(SimulationConfig(t_end=0.002, **base))
    snap = tmp_path / "mid.cns"
    write_snapshot(snap, half.states[-1])
    resumed_cfg = SimulationConfig(
        t_end=0.004, **{**base, "init": {"preset": "restart", "path": str(snap)},
                        "start_time": 0.002},
    )
    resumed = simulate(resumed_cfg)
    a, b = full.states[-1], resumed.states[-1]
    assert a.time == b.time
    for name in ("n", "c", "u", "p"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_unknown_preset_rejected():
    cfg = SimulationConfig(init={"preset": "bogus"})
    params = PhysParams(theta0=1.0, chi_coeffs=(1.0,), c0_max=1.0)
    with pytest.raises(ValueError):
        initial_state(cfg, params)


def test_band_limited_matches_direct_mode_sum():
    """The one-FFT construction against the direct cos/sin sum over the
    modes, drawing the same normals in the same order."""
    g = Grid(16, 1.0)
    modes = 2
    got = _band_limited(np.random.default_rng(11), g, modes)

    rng = np.random.default_rng(11)
    ref = np.zeros((g.n,) * 3)
    x, y, z = g.coords()
    k0 = 2.0 * np.pi / g.box_length
    for kx in range(-modes, modes + 1):
        for ky in range(-modes, modes + 1):
            for kz in range(-modes, modes + 1):
                if kx == ky == kz == 0:
                    continue
                a, b = rng.normal(size=2) / (1.0 + kx * kx + ky * ky + kz * kz)
                phase = k0 * (kx * x + ky * y + kz * z)
                ref += a * np.cos(phase) + b * np.sin(phase)
    ref /= max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) < 1e-13


def test_kept_states_carry_their_pressure():
    cfg = SimulationConfig(
        grid_n=16, grid_l=1.0, dt=2e-4, t_end=0.003, output_stride=4,
        chi_coeffs=(0.5,), gravity=0.3, seed=5,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    traj = simulate(cfg, params=params)
    assert len(traj.states) == 5  # initial, steps 4, 8, 12 and the last (15)
    for s in traj.states:
        assert np.array_equal(s.p, solve_pressure(s, params))


def test_simulate_streams_snapshots_and_commits_last(tmp_path):
    base = dict(grid_n=16, grid_l=1.0, dt=2e-4, t_end=0.002, output_stride=5,
                chi_coeffs=(0.5,), gravity=0.3, seed=4,
                init={"preset": "random_smooth", "amplitude": 0.05,
                      "n_mean": 1.0, "c0": 1.0, "modes": 2})
    traj = simulate(SimulationConfig(**base), out_dir=tmp_path / "run")
    write_trajectory(tmp_path / "ref", traj, extra_meta={"run_log": traj.run_log})
    names = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
    for name in names:
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "ref" / name).read_bytes()), name


def test_crashed_run_keeps_snapshots_without_commit_marker(tmp_path):
    # buoyancy accelerates the flow past the CFL limit after a few steps
    cfg = SimulationConfig(grid_n=16, grid_l=1.0, dt=1e-3, t_end=0.05,
                           output_stride=2, gravity=2e4, chi_coeffs=(0.0,),
                           init={"preset": "gaussian", "amplitude": 1.0, "c0": 0.0})
    (tmp_path / "trajectory.json").write_text("{}")  # from an earlier run
    with pytest.raises(CFLError):
        simulate(cfg, out_dir=tmp_path)
    snaps = sorted(tmp_path.glob("snap_*.cns"))
    assert len(snaps) >= 2
    assert not (tmp_path / "trajectory.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in snaps]
    times = [read_snapshot(p).time for p in snaps]
    assert times == sorted(times) and times[0] == 0.0
