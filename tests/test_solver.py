"""Solver structure: parameter validation, conservation, exact flows, and
independent time-integration oracles."""

import json
import tracemalloc

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
    read_trajectory,
    simulate,
    solve_pressure,
    step,
    write_snapshot,
    write_trajectory,
)
from cnsflow import solver
from cnsflow.solver import _band_limited, advance


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
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.01, output_stride=10, seed=1,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0))
    assert traj.run_log["mass_drift_max"] < 1e-12


def test_divergence_free_maintained():
    cfg = SimulationConfig(
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.005, output_stride=5, seed=1,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0))
    for s in traj.states:
        div = divergence(s.grid, s.u)
        assert np.max(np.abs(div)) < 1e-10


def test_concentration_maximum_principle():
    cfg = SimulationConfig(
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.01, output_stride=10, seed=2,
        init={"preset": "random_smooth", "amplitude": 0.1,
              "n_mean": 1.0, "c0": 0.8, "modes": 2},
    )
    traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,), c0_max=0.8))
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
        init={"preset": "taylor_green", "amplitude": amp, "c0": 0.0},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0)
    traj = simulate(cfg, params)
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


def test_coupled_step_has_its_temporal_order():
    """On the fully coupled system (chemotaxis, consumption and buoyancy on,
    no clamp acting), the error at T = 0.2 against an order-2 run at T/400
    halves per halving of dt at order 1 and quarters at order 2.  Measured
    ratios: 2.00, 2.00 and 4.05, 4.20 (the reference's own error shows in
    the last)."""
    T = 0.2
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)

    def final(steps, order):
        cfg = SimulationConfig(grid_n=16, grid_l=2.0 * np.pi, dt=T / steps, t_end=T,
                               output_stride=steps, order=order, seed=1,
                               init={"preset": "random_smooth", "amplitude": 0.5,
                                     "modes": 2})
        traj = simulate(cfg, params)
        assert traj.run_log["clamp_mass_total"] == 0.0
        return traj.states[-1]

    ref = final(400, 2)
    for order, expected, tol in ((1, 2.0, 0.1), (2, 4.0, 0.4)):
        errors = []
        for steps in (25, 50, 100):
            s = final(steps, order)
            errors.append(max(np.max(np.abs(getattr(s, f) - getattr(ref, f)))
                              for f in ("n", "c", "u")))
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(coarse / fine - expected) <= tol, (order, errors)


def test_restart_is_bitwise_identical(tmp_path):
    base = dict(
        grid_n=16, grid_l=1.0, dt=2e-4, output_stride=5, seed=4,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    full = simulate(SimulationConfig(t_end=0.004, **base), params)
    half = simulate(SimulationConfig(t_end=0.002, **base), params)
    snap = tmp_path / "mid.cns"
    write_snapshot(snap, half.states[-1])
    resumed_cfg = SimulationConfig(
        t_end=0.004, **{**base, "init": {"preset": "restart", "path": str(snap)}},
    )
    resumed = simulate(resumed_cfg, params)
    a, b = full.states[-1], resumed.states[-1]
    assert a.time == b.time
    for name in ("n", "c", "u", "p"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_restart_from_an_off_stride_snapshot_agrees_to_rounding(tmp_path):
    """A run that ends off the output stride carried its spectra through
    its last step; resuming from that snapshot rebuilds them, so the
    resumed run agrees with the uninterrupted one to rounding."""
    base = dict(
        grid_n=16, grid_l=1.0, dt=2e-4, output_stride=5, seed=4,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    full = simulate(SimulationConfig(t_end=0.004, **base), params)
    part = simulate(SimulationConfig(t_end=0.0022, **base), params)  # 11 steps
    snap = tmp_path / "off_stride.cns"
    write_snapshot(snap, part.states[-1])
    resumed = simulate(SimulationConfig(
        t_end=0.004, **{**base, "init": {"preset": "restart", "path": str(snap)}}), params)
    a, b = full.states[-1], resumed.states[-1]
    assert a.time == b.time
    for name in ("n", "c", "u", "p"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(x)), name


def test_run_log_counts_spectra_rebuilt_by_a_clamp(tmp_path):
    """On the solve benchmark's config (64^3, chemotaxis and buoyancy, six
    order-1 steps) no clamp acts, so every spectrum is carried: 0.  With
    test_concentration_maximum_principle's config and c0_max = 0.6, below
    the initial c's largest value 0.62, the first step clips c, and the
    next one rebuilds its spectrum; at order 2 c_pred's clip counts too.
    The count is written to trajectory.json, and a trajectory.json
    without it still reads."""
    solve_cfg = SimulationConfig(
        grid_n=64, grid_l=1.0, dt=2e-4, t_end=6 * 2e-4, output_stride=6, seed=1,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2})
    solve_params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
    assert simulate(solve_cfg, solve_params).run_log["spectra_rebuilt"] == 0
    for order, rebuilt in ((1, 1), (2, 2)):
        cfg = SimulationConfig(
            grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.01, output_stride=10, seed=2,
            order=order, init={"preset": "random_smooth", "amplitude": 0.1,
                               "n_mean": 1.0, "c0": 0.8, "modes": 2})
        out = tmp_path / f"order{order}"
        traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,), c0_max=0.6), out)
        assert traj.run_log["spectra_rebuilt"] == rebuilt
        meta = json.loads((out / "trajectory.json").read_text())
        assert meta["run_log"]["spectra_rebuilt"] == rebuilt
    del meta["run_log"]["spectra_rebuilt"]
    (out / "trajectory.json").write_text(json.dumps(meta))
    assert len(read_trajectory(out).states) == len(traj.states)


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


@pytest.mark.parametrize("n, modes", [(8, 2), (8, 5), (16, 2), (32, 4)])
def test_band_limited_half_spectrum_is_bitwise_the_full_one(n, modes):
    """Accumulating only the kept half of the spectrum gives the bits of
    the full (N, N, N) construction it replaced; (8, 5) aliases modes."""
    g = Grid(n, 1.0)
    got = _band_limited(np.random.default_rng(5), g, modes)

    rng = np.random.default_rng(5)
    m = np.arange(-modes, modes + 1)
    kx, ky, kz = (a.ravel() for a in np.meshgrid(m, m, m, indexing="ij"))
    keep = (kx != 0) | (ky != 0) | (kz != 0)
    kx, ky, kz = kx[keep], ky[keep], kz[keep]
    ab = rng.normal(size=(len(kx), 2)) / (1.0 + kx * kx + ky * ky + kz * kz)[:, None]
    coeff = 0.5 * (ab[:, 0] - 1j * ab[:, 1])
    full = np.zeros((n, n, n), dtype=complex)
    np.add.at(full, (kx % n, ky % n, kz % n), coeff)
    np.add.at(full, (-kx % n, -ky % n, -kz % n), np.conj(coeff))
    ref = n**3 * g.irfftn(full[..., : n // 2 + 1])
    ref = ref / max(1.0, float(np.max(np.abs(ref))))
    assert np.array_equal(got, ref)


def test_initial_velocity_is_projected_in_place():
    """The random_smooth velocity of a 64^3 run like the benchmark's
    ``solve`` is Leray-projected in its own spectrum, its samples dropped
    once transformed: bitwise what projecting a copy gives, and
    initial_state peaks at most 14 N^3 doubles above its inputs (12.3
    measured; 16.8 with the samples, their spectrum and the projection's
    output all live)."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
    cfg = SimulationConfig(grid_n=64, grid_l=1.0, seed=5,
                           init={"preset": "random_smooth", "amplitude": 0.05,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 2})
    tracemalloc.start()
    s = initial_state(cfg, params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    g = s.grid
    rng = np.random.default_rng(cfg.seed)
    _band_limited(rng, g, 2), _band_limited(rng, g, 2)  # n and c
    raw = np.array([0.05 * _band_limited(rng, g, 2) for _ in range(3)])
    assert np.all(s.u == g.irfftn(g.project_hat(g.rfftn(raw))))
    assert peak <= 14 * 8 * 64**3


def test_kept_states_carry_their_pressure():
    cfg = SimulationConfig(
        grid_n=16, grid_l=1.0, dt=2e-4, t_end=0.003, output_stride=4, seed=5,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    traj = simulate(cfg, params)
    assert len(traj.states) == 5  # initial, steps 4, 8, 12 and the last (15)
    for s in traj.states:
        assert np.array_equal(s.p, solve_pressure(s, params))


def test_simulate_streams_snapshots_and_commits_last(tmp_path):
    base = dict(grid_n=16, grid_l=1.0, dt=2e-4, t_end=0.002, output_stride=5, seed=4,
                init={"preset": "random_smooth", "amplitude": 0.05,
                      "n_mean": 1.0, "c0": 1.0, "modes": 2})
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    traj = simulate(SimulationConfig(**base), params, out_dir=tmp_path / "run")
    write_trajectory(tmp_path / "ref", traj)
    names = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
    for name in names:
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "ref" / name).read_bytes()), name


def test_crashed_run_keeps_snapshots_without_commit_marker(tmp_path):
    # buoyancy accelerates the flow past the CFL limit after a few steps
    cfg = SimulationConfig(grid_n=16, grid_l=1.0, dt=1e-3, t_end=0.05, output_stride=2,
                           init={"preset": "gaussian", "amplitude": 1.0, "c0": 0.0})
    params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), gravity=2e4, c0_max=0.0)
    (tmp_path / "trajectory.json").write_text("{}")  # from an earlier run
    with pytest.raises(CFLError):
        simulate(cfg, params, out_dir=tmp_path)
    snaps = sorted(tmp_path.glob("snap_*.cns"))
    assert len(snaps) >= 2
    assert not (tmp_path / "trajectory.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in snaps]
    times = [read_snapshot(p).time for p in snaps]
    assert times == sorted(times) and times[0] == 0.0


def _smooth_32(params):
    cfg = SimulationConfig(grid_n=32, grid_l=1.0, seed=6,
                           init={"preset": "random_smooth", "amplitude": 0.05,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 4})
    return initial_state(cfg, params)


def _count_transforms(monkeypatch):
    """Wrap the full and the kept real transforms of Grid; each call adds
    its number of N^3 fields (3 for a vector) to counts["full"] or
    counts["kept"]."""
    counts = {"full": 0, "kept": 0}

    def counted(name, kind):
        method = getattr(Grid, name)

        def wrapper(grid, a):
            out = method(grid, a)
            counts[kind] += a[..., 0, 0, 0].size
            return out

        monkeypatch.setattr(Grid, name, wrapper)

    for name, kind in (("rfftn", "full"), ("irfftn", "full"),
                       ("kept_rfftn", "kept"), ("kept_irfftn", "kept")):
        counted(name, kind)
    return counts


#: (order, spectra carried, clamps acting, full transforms, kept transforms)
TRANSFORM_CASES = [
    (1, False, False, 16, 7),
    (1, True, False, 11, 7),
    (1, True, True, 12, 7),  # c's spectrum rebuilt
    (2, False, False, 27, 14),
    (2, False, True, 28, 14),  # c_pred clipped: its spectrum rebuilt
    (2, True, False, 22, 14),
    (2, True, True, 24, 14),  # c's spectrum and c_pred's rebuilt
]


@pytest.mark.parametrize("order, carried, clamped, full, kept", TRANSFORM_CASES)
def test_real_transforms_per_advance(monkeypatch, order, carried, clamped, full, kept):
    """Counts every real transform of one step, full and kept apart: each
    tendency evaluation makes 7 kept ones.  From physical arrays a step
    transforms n, c and u forward; carried spectra save those 5, and a
    spectrum is rebuilt only where a clamp acted.  In the clamped cases the
    previous step's clamp acted on c, and c0_max lies below the largest c,
    so this step's clamps act too."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    s = _smooth_32(params)
    n, c, u, _, hats = advance(s.grid, s.n, s.c, s.u, params, 2e-4, order)
    assert all(h is not None for h in hats)
    if clamped:
        hats = (hats[0], None, hats[2])
        params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=0.75)
    if not carried:
        n, c, u, hats = s.n, s.c, s.u, None
    counts = _count_transforms(monkeypatch)
    _, _, _, log, hats = advance(s.grid, n, c, u, params, 2e-4, order, hats=hats)
    assert counts == {"full": full, "kept": kept}
    assert log["spectra_rebuilt"] == (carried + (order == 2)) * clamped
    assert [h is None for h in hats] == [False, clamped, False]


def test_real_transforms_per_pressure_solve(monkeypatch):
    """The global pressure solve makes only kept transforms: 7 forward
    products (6 of u_i u_j, 1 of the buoyancy) and 1 inverse."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    s = _smooth_32(params)
    counts = _count_transforms(monkeypatch)
    solve_pressure(s, params)
    assert counts == {"full": 0, "kept": 8}


@pytest.mark.parametrize("order", [0, 3])
def test_advance_and_step_reject_other_orders(order):
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    s = _smooth_32(params)
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        advance(s.grid, s.n, s.c, s.u, params, 2e-4, order)
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        step(s, params, 2e-4, order=order)


def test_pruned_transforms_leave_step_and_pressure_bitwise_unchanged(monkeypatch):
    """One order-1 and one order-2 step and one pressure solve, with the
    kept transforms and again with their full-transform expressions:
    every output is equal with ==."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    s = _smooth_32(params)

    def outputs():
        out = [solve_pressure(s, params)]
        for order in (1, 2):
            out += advance(s.grid, s.n, s.c, s.u, params, 2e-3, order)[:3]
        return out

    def zero_filled(grid, block):
        h = np.zeros(block.shape[:-3] + grid.k_sq.shape, dtype=complex)
        h[grid.kept_index(h.shape)] = block
        return h

    kept = outputs()
    monkeypatch.setattr(Grid, "kept_rfftn", lambda grid, v: grid.kept(grid.rfftn(v)))
    monkeypatch.setattr(Grid, "kept_irfftn",
                        lambda grid, b: grid.irfftn(zero_filled(grid, b)))
    for a, b in zip(kept, outputs()):
        assert np.all(a == b)


def _full_spectrum_advance(grid, n, c, u, params, dt):
    """An order-1 step as one update of whole half spectra: the tendencies
    zero-filled off the kept block, E (hat + dt f) everywhere, and one
    projection of the whole velocity update."""
    E = np.exp(-grid.k_sq * dt)
    hats = (grid.rfftn(n), grid.rfftn(c), grid.rfftn(u))
    new = []
    for hat, f in zip(hats, solver._rhs_hats(grid, n, c, u, hats[1], hats[2], params)):
        full = np.zeros_like(hat)
        full[grid.kept_index(full.shape)] = f
        new.append(E * (hat + dt * full))
    n_new, c_new, u_new = (grid.irfftn(h) for h in (new[0], new[1],
                                                    grid.project_hat(new[2])))
    return np.maximum(n_new, 0.0), np.clip(c_new, 0.0, params.c0_max), u_new


def test_fresh_order1_step_and_pressure_are_the_full_spectrum_ones():
    """From physical arrays, the in-place kept-block update of an order-1
    step gives the bits of the whole-spectrum update, and the pressure the
    bits of the whole-spectrum Poisson solve of the masked products."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    s = _smooth_32(params)
    g = s.grid
    got = advance(g, s.n, s.c, s.u, params, 2e-3, 1)
    for a, b in zip(got[:3], _full_spectrum_advance(g, s.n, s.c, s.u, params, 2e-3)):
        assert np.all(a == b)
    gr = [0.0, 0.0, 0.0]
    for i in range(3):
        for j in range(i, 3):
            prod = g.dealias_mask * g.rfftn(1.0 * s.u[i] * s.u[j])
            gr[i] = gr[i] + g.ik[j] * prod
            if j != i:
                gr[j] = gr[j] + g.ik[i] * prod
    gr[2] = gr[2] + g.dealias_mask * g.rfftn(1.0 * s.n * -params.gravity)
    div_hat = sum(k * h for k, h in zip(g.ik, gr))
    ref = g.irfftn(g.dealias_mask * g.poisson_hat(div_hat))
    assert np.all(solve_pressure(s, params) == ref)


def _run(order, carry, steps=200):
    """``steps`` steps of a 32^3 run with chemotaxis and buoyancy, the
    spectra carried from step to step or rebuilt every step."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    cfg = SimulationConfig(grid_n=32, grid_l=1.0, seed=6,
                           init={"preset": "random_smooth", "amplitude": 0.2,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 4})
    s = initial_state(cfg, params)
    f, hats = (s.n, s.c, s.u), None
    for _ in range(steps):
        *f, _, hats = advance(s.grid, *f, params, 2e-4, order, hats=hats if carry else None)
    return f, hats


@pytest.mark.parametrize("order", [1, 2])
def test_carried_spectra_match_rebuilt_ones(order):
    """Carrying the spectra changes a run only by rounding: after 200 steps
    every field is within 1e-13 of the run that rebuilds them every step,
    and all three spectra were still carried."""
    carried, hats = _run(order, carry=True)
    rebuilt, _ = _run(order, carry=False)
    assert all(h is not None for h in hats)
    for a, b in zip(carried, rebuilt):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_carried_step_memory_is_bounded():
    """One carried 32^3 step allocates at most 13 N^3 doubles at its peak
    above its inputs (10.4 measured; a step from physical arrays, which
    builds the 5 spectra, 15.8)."""
    f, hats = _run(1, carry=True, steps=2)
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    grid = Grid(32, 1.0)
    advance(grid, *f, params, 2e-4, 1, hats=hats)  # symbols cached
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    advance(grid, *f, params, 2e-4, 1, hats=hats)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    assert peak <= 13 * 8 * 32**3


def test_carried_order2_step_memory_is_bounded():
    """One carried 64^3 order-2 step peaks at most 40 MB above its inputs
    (38.9 measured; 44.3 when the predictor was formed in copies of the
    three spectra): the predictor lives in the carried spectra."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
    cfg = SimulationConfig(grid_n=64, grid_l=1.0, seed=1,
                           init={"preset": "random_smooth", "amplitude": 0.05,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 2})
    s = initial_state(cfg, params)
    *f, _, hats = advance(s.grid, s.n, s.c, s.u, params, 2e-4, 2)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    advance(s.grid, *f, params, 2e-4, 2, hats=hats)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    assert peak <= 40e6


def _copying_heun_hats(grid, n, c, u, params, dt, hats):
    """Heun's step with its predictor formed in copies of the three
    spectra (E hat off the kept block, E (hat + dt f) on it), the
    corrector written into the spectra last: the reference for the step
    that forms the predictor in the spectra themselves.  Returns the new
    spectra, before any clamp, and the number of spectra rebuilt."""
    n_hat, c_hat, u_hat = hats or (None,) * 3
    rebuilt = 0 if hats is None else (n_hat is None) + (c_hat is None)
    u_rebuilt = u_hat is None
    n_hat = grid.rfftn(n) if n_hat is None else n_hat
    c_hat = grid.rfftn(c) if c_hat is None else c_hat
    u_hat = grid.rfftn(u) if u_hat is None else u_hat
    E = np.exp(-grid.k_sq * dt)
    E_kept = grid.kept(E)

    def put(hat, f, project=False):
        hat *= E
        if project and u_rebuilt:
            grid.project_hat(hat, out=hat)
        hat[grid.kept_index(hat.shape)] = grid.project_hat(f, out=f) if project else f
        return hat

    def predict(hat, f):
        return (grid.kept(hat) + dt * f) * E_kept

    fn, fc, fu = solver._rhs_hats(grid, n, c, u, c_hat, u_hat, params)
    u_pred_hat = put(u_hat.copy(), predict(u_hat, fu), project=True)
    n_pred, _ = solver._clamp(grid.irfftn(put(n_hat.copy(), predict(n_hat, fn))))
    c_pred_hat = put(c_hat.copy(), predict(c_hat, fc))
    c_pred, clipped = solver._clamp(grid.irfftn(c_pred_hat), params.c0_max)
    if clipped:
        c_pred_hat = grid.rfftn(c_pred)
        rebuilt += 1
    fs2 = solver._rhs_hats(grid, n_pred, c_pred, grid.irfftn(u_pred_hat),
                           c_pred_hat, u_pred_hat, params)
    for hat, f, f2 in zip((n_hat, c_hat, u_hat), (fn, fc, fu), fs2):
        f *= E_kept
        f += f2
        f *= 0.5 * dt
        f += E_kept * grid.kept(hat)
    put(n_hat, fn)
    put(c_hat, fc)
    put(u_hat, fu, project=True)
    return (n_hat, c_hat, u_hat), rebuilt


@pytest.mark.parametrize("amplitude, c0_max, rebuilt_total, clipped",
                         [(0.2, 1.0, 0, 0), (0.9, 0.8, 4, 2)])
def test_order2_step_is_bitwise_the_copying_predictor(amplitude, c0_max, rebuilt_total,
                                                      clipped):
    """Ten order-2 steps of a 32^3 run, the first from physical arrays,
    then carried, and the sixth with u_hat rebuilt: every output array,
    spectrum and rebuilt count is == to the step that formed its
    predictor in copies of the spectra.  In the second run c starts above
    c0_max: the clamps act and ``rebuilt_total`` spectra are rebuilt,
    ``clipped`` of them for a predicted c that was clipped."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=c0_max)
    cfg = SimulationConfig(grid_n=32, grid_l=1.0, seed=5,
                           init={"preset": "random_smooth", "amplitude": amplitude,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 3})
    s = initial_state(cfg, params)
    g, f, hats = s.grid, (s.n, s.c, s.u), None
    predicted_clips = rebuilt = 0
    for i in range(10):
        if i == 5:
            hats = (hats[0], hats[1], None)
        copies = None if hats is None else tuple(None if h is None else h.copy()
                                                 for h in hats)
        ref, ref_rebuilt = _copying_heun_hats(g, *f, params, 2e-4, copies)
        *f, log, new = advance(g, *f, params, 2e-4, 2, hats=hats)
        assert log["spectra_rebuilt"] == ref_rebuilt
        rebuilt += ref_rebuilt
        predicted_clips += ref_rebuilt - (0 if hats is None else
                                          sum(h is None for h in hats[:2]))
        expected = (np.maximum(g.irfftn(ref[0]), 0.0),
                    np.clip(g.irfftn(ref[1]), 0.0, c0_max), g.irfftn(ref[2]))
        for a, b in zip(f, expected):
            assert np.array_equal(a, b)
        for h, r in zip(new, ref):
            assert h is None or np.array_equal(h, r)
        hats = new
    assert (rebuilt, predicted_clips) == (rebuilt_total, clipped)


_rotational_rhs_hats = solver._rhs_hats


def _convective_rhs_hats(grid, n, c, u, c_hat, u_hat, params):
    """The n and c tendencies of the solver, with the momentum tendency in
    convective form -u.grad u + gravity n e_z from the nine d_i u_j."""
    fn, fc, _ = _rotational_rhs_hats(grid, n, c, u, c_hat, u_hat, params)
    fu = []
    for j in range(3):
        f = sum(u[i] * grid.irfftn(1j * ki * u_hat[j]) for i, ki in enumerate(grid.k))
        if j == 2:
            f = f - params.gravity * n
        fu.append(-grid.kept(grid.rfftn(f)))
    return fn, fc, np.stack(fu)


@pytest.mark.parametrize("order", [1, 2])
def test_rotational_advection_matches_convective_step(monkeypatch, order):
    """On band-limited data the projection removes grad(|u|^2/2) exactly, so
    the rotational step equals the convective one to rounding."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.3, c0_max=1.0)
    s = _smooth_32(params)
    dt = 2e-3
    got = advance(s.grid, s.n, s.c, s.u, params, dt, order)
    monkeypatch.setattr(solver, "_rhs_hats", _convective_rhs_hats)
    ref = advance(s.grid, s.n, s.c, s.u, params, dt, order)
    for a, b in zip(got[:3], ref[:3]):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
