"""Backward-caloric test functions, the global energy functional, and the
local energy inequality."""

import numpy as np
import pytest

from cnsflow import (
    Grid,
    PhysParams,
    SimulationConfig,
    State,
    Trajectory,
    ball_mask,
    check_heat_properties,
    global_energy_check,
    gradient,
    heat_test_function,
    laplacian,
    lei_residual,
    simulate,
    smooth_bump,
)
from cnsflow import state
from cnsflow.energy import (
    _LEI_STATE_FIELDS,
    LEI_TERMS,
    LHS_TERM_NAMES,
    RHS_TERM_NAMES,
    _LEIFields,
)
from cnsflow.grid_fields import _window_overlaps
from cnsflow.state import EPS_FLOOR, StoredStates, guarded_log


def test_heat_kernel_value_at_origin():
    # at (0, 0) the level-n kernel equals (2^-n)^-3 (cutoff = 1 there)
    tf = heat_test_function(3)
    assert abs(float(tf.value_rt(np.array(0.0), 0.0)) - 512.0) < 1e-10


def test_heat_kernel_scale_dilation():
    tf1 = heat_test_function(3)
    tf2 = heat_test_function(3, scale=2.0)
    rho, t = 0.05, -0.002
    a = float(tf1.value_rt(np.array(rho), t))
    b = float(tf2.value_rt(np.array(2.0 * rho), 4.0 * t))
    assert abs(a - b) < 1e-12


def test_invalid_test_functions_rejected():
    with pytest.raises(ValueError):
        heat_test_function(1)
    with pytest.raises(ValueError):
        smooth_bump(-0.1, 0.01)


def test_heat_properties_structural_constants():
    rep = check_heat_properties()
    assert rep["vi"] == 0.0  # exactly backward caloric on the plateau
    assert rep["fitted_c"] <= 20.0


def test_global_energy_zero_data():
    cfg = SimulationConfig(
        grid_n=16, grid_l=1.0, dt=1e-3, t_end=0.01, output_stride=2,
        init={"preset": "zero"},
    )
    traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,), c0_max=1.0))
    rep = global_energy_check(traj)
    assert np.max(np.abs(rep["lhs"])) < 1e-12
    assert rep["bounded"]
    assert rep["nonincreasing"]


def test_global_energy_diffusion_only_decays():
    """Without chemotaxis and gravity the functional is a Lyapunov
    quantity: instantaneous part decreasing, dissipation compensating."""
    cfg = SimulationConfig(
        grid_n=24, grid_l=1.0, dt=2e-4, t_end=0.02, output_stride=5, seed=6,
        init={"preset": "random_smooth", "amplitude": 0.05,
              "n_mean": 1.0, "c0": 1.0, "modes": 2},
    )
    traj = simulate(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=1.0))
    rep = global_energy_check(traj)
    assert rep["bounded"]


def test_global_energy_bounded_with_coupling(smooth_traj):
    rep = global_energy_check(smooth_traj)
    assert rep["bounded"]
    assert np.all(np.isfinite(rep["lhs"]))


def test_lei_constant_state_every_term_zero(constant_state_traj):
    tf = smooth_bump(0.2, 0.05)
    rep = lei_residual(constant_state_traj, tf, 0.0, (0.5, 0.5, 0.5), 0.25)
    assert rep.max_abs_term == 0.0
    assert rep.residual == 0.0


@pytest.mark.parametrize("level", [3, 4, 5])
def test_lei_heat_kernel_levels(lei_traj, level):
    tf = heat_test_function(level, scale=2.0)
    rep = lei_residual(lei_traj, tf, 0.0, (0.5, 0.5, 0.5), 0.25)
    tol = 1e-4 * (1.0 + rep.max_abs_term)
    assert rep.residual >= -tol


@pytest.mark.parametrize("radius,span", [(0.2, 0.05), (0.12, 0.03)])
def test_lei_smooth_bumps(lei_traj, radius, span):
    tf = smooth_bump(radius, span)
    rep = lei_residual(lei_traj, tf, 0.0, (0.5, 0.5, 0.5), 0.25)
    tol = 1e-4 * (1.0 + rep.max_abs_term)
    assert rep.residual >= -tol


@pytest.mark.parametrize("tf", [heat_test_function(3, scale=2.0),
                                smooth_bump(0.2, 0.05)],
                         ids=["heat_kernel", "smooth_bump"])
def test_derivatives_match_finite_differences(tf):
    """|grad psi|, dt psi and dt psi + Delta psi (radial Laplacian
    psi'' + 2 psi'/rho) against central differences of value_rt, over the
    whole support, seams included."""
    rho, t = np.meshgrid(np.linspace(0.02, tf.support_radius, 41),
                         np.linspace(-tf.support_time, 0.0, 31), indexing="ij")
    h, k = 1e-4 * tf.support_radius, 1e-4 * tf.support_time
    v0 = tf.value_rt(rho, t)
    v_p, v_m = tf.value_rt(rho + h, t), tf.value_rt(rho - h, t)
    d_rho = (v_p - v_m) / (2.0 * h)
    d_t = (tf.value_rt(rho, t + k) - tf.value_rt(rho, t - k)) / (2.0 * k)
    lap = (v_p - 2.0 * v0 + v_m) / h**2 + 2.0 / rho * d_rho

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    assert close(tf.grad_norm_rt(rho, t), np.abs(d_rho))
    assert close(tf.dt_rt(rho, t), d_t)
    assert close(tf.heat_residual_rt(rho, t), d_t + lap)


def test_lei_kinetic_weight_is_the_first_state_max_c():
    """The kinetic terms carry (18/Theta0) max c of the first snapshot,
    however large c grows later in the trajectory."""
    N, theta0 = 16, 2.0
    g = Grid(N, 1.0)
    ones = np.ones((N,) * 3)
    u = np.zeros((3, N, N, N))
    u[0] = 0.3
    states = [State(g, ones, c0 * ones, u, 0.0 * ones, t)
              for c0, t in ((0.5, 0.0), (2.0, 0.01), (4.0, 0.02))]
    traj = Trajectory(states, PhysParams(theta0=theta0, chi_coeffs=(0.0,)))
    tf = smooth_bump(0.2, 0.015)
    center = (0.5, 0.5, 0.5)
    rep = lei_residual(traj, tf, 0.02, center, 0.25)
    mask = ball_mask(g, center, 0.25)
    psi = tf.value_rt(np.sqrt(g.min_image_distance_sq(center))[mask], 0.0)
    ball_u_sq_psi = float(np.sum(0.09 * psi) * g.cell_volume)
    assert ball_u_sq_psi > 0
    assert rep.lhs_terms["kinetic_final"] == pytest.approx(
        (18.0 / theta0) * 0.5 * ball_u_sq_psi, rel=1e-12)


def _lei_oracle(traj, tf, t, center_x, omega_radius):
    """The local energy inequality's 17 terms written out one by one, each
    with its own integrand: the (lhs, rhs) dicts ``lei_residual`` must
    reproduce bit for bit."""
    grid, params = traj.grid, traj.params
    theta0 = params.theta0
    c0max = float(np.max(traj.states[0].c))
    kin = (18.0 / theta0) * c0max
    vol = grid.cell_volume
    mask = ball_mask(grid, center_x, omega_radius)
    rho = np.sqrt(grid.min_image_distance_sq(center_x))
    times = traj.times
    overlaps = _window_overlaps(times, t - tf.support_time, t)[0]
    lhs = {name: 0.0 for name in LHS_TERM_NAMES}
    rhs = {name: 0.0 for name in RHS_TERM_NAMES}

    def ball_sum(arr):
        return float(np.sum(arr) * vol)

    sf = traj.states[traj.nearest(t)]
    psi_f = tf.value_rt(rho[mask], sf.time - t)
    n = np.maximum(sf.n[mask], 0.0)
    lhs["entropy_final"] = ball_sum(n * guarded_log(n, 1.0) * psi_f)
    lhs["grad_sqrt_c_final"] = (2.0 / theta0) * ball_sum(
        np.sum(sf.derived("grad_sqrt_c")[:, mask] ** 2, axis=0) * psi_f)
    lhs["kinetic_final"] = kin * ball_sum(np.sum(sf.u[:, mask] ** 2, axis=0) * psi_f)

    def on(s, name):
        a = getattr(s, name) if name in ("n", "c", "u", "p") else s.derived(name)
        if name == "n_ln_n":
            a = np.maximum(s.n, 0.0) * guarded_log(np.maximum(s.n, 0.0), 1.0)
        return a[..., mask]

    for i, a, b in overlaps:
        w = b - a
        tm = 0.5 * (a + b)
        lam = (tm - times[i]) / (times[i + 1] - times[i])
        psi = tf.value_rt(rho, tm - t)
        if not np.any(psi):
            continue
        gpsi = gradient(grid, psi)[:, mask]
        hres = tf.dt_rt(rho[mask], tm - t) + laplacian(grid, psi)[mask]
        psi = psi[mask]
        s0, s1 = traj.states[i], traj.states[i + 1]

        def mid(name):
            f0, f1 = on(s0, name), on(s1, name)
            return f0 + lam * (f1 - f0)

        u = mid("u")
        n = np.maximum(mid("n"), 0.0)
        c = np.clip(mid("c"), 0.0, None)
        p = mid("p")
        nln = mid("n_ln_n")
        gsc_sq = np.sum(mid("grad_sqrt_c") ** 2, axis=0)
        u_gpsi = np.sum(u * gpsi, axis=0)
        chi_c = params.chi_eval(c)
        gc_gpsi = np.sum(mid("grad_c") * gpsi, axis=0)
        u_sq = np.sum(u**2, axis=0)

        lhs["grad_sqrt_n"] += 4.0 * w * ball_sum(mid("grad_sqrt_n_sq") * psi)
        lhs["lap_sqrt_c"] += (4.0 / (3.0 * theta0)) * w * ball_sum(
            mid("lap_sqrt_c") ** 2 * psi)
        lhs["grad_u"] += kin * w * ball_sum(mid("grad_u_sq") * psi)
        lhs["entropy_quartic"] += (2.0 / (3.0 * theta0)) * w * ball_sum(
            gsc_sq**2 / (c + EPS_FLOOR) * psi)
        rhs["entropy_heat"] += w * ball_sum(nln * hres)
        rhs["entropy_advect"] += w * ball_sum(nln * u_gpsi)
        rhs["chemo_flux"] += w * ball_sum(n * chi_c * gc_gpsi)
        rhs["entropy_chemo_flux"] += w * ball_sum(nln * chi_c * gc_gpsi)
        rhs["grad_sqrt_c_heat"] += (2.0 / theta0) * w * ball_sum(gsc_sq * hres)
        rhs["grad_sqrt_c_advect"] += (2.0 / theta0) * w * ball_sum(gsc_sq * u_gpsi)
        rhs["kinetic_heat"] += kin * w * ball_sum(u_sq * hres)
        rhs["kinetic_advect"] += kin * w * ball_sum(u_sq * u_gpsi)
        rhs["pressure_advect"] += (36.0 / theta0) * c0max * w * ball_sum(
            (p - np.mean(p)) * u_gpsi)
        rhs["buoyancy"] += -(36.0 / theta0) * c0max * w * ball_sum(
            n * (-params.gravity * u[2]) * psi)
    return lhs, rhs


@pytest.mark.parametrize("center", [(0.5, 0.5, 0.5), (0.4903, 0.5121, 0.5237)],
                         ids=["grid", "off_grid"])
@pytest.mark.parametrize("tf", [heat_test_function(3, scale=2.0),
                                heat_test_function(4, scale=2.0),
                                heat_test_function(5, scale=2.0),
                                smooth_bump(0.2, 0.05), smooth_bump(0.12, 0.03)],
                         ids=["heat3", "heat4", "heat5", "bump_0.2", "bump_0.12"])
def test_lei_table_equals_the_term_by_term_oracle(lei_traj, tf, center):
    """Every LEI term, in the table's order, is bitwise the one written
    out by hand, at a grid centre and at an off-grid one."""
    rep = lei_residual(lei_traj, tf, 0.0, center, 0.25)
    lhs, rhs = _lei_oracle(lei_traj, tf, 0.0, center, 0.25)
    assert list(rep.lhs_terms.items()) == list(lhs.items())
    assert list(rep.rhs_terms.items()) == list(rhs.items())
    assert rep.max_abs_term > 0


def test_lei_transforms_psi_once_per_interval(constant_state_traj, monkeypatch):
    """With the snapshots' derived fields cached, an LEI pass makes one
    forward and four inverse transforms per snapshot interval: psi's, for
    its gradient and its Laplacian."""
    traj, tf = constant_state_traj, smooth_bump(0.2, 0.05)
    lei_residual(traj, tf, 0.0, (0.5, 0.5, 0.5), 0.25)
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        def counted(grid, a, _f=getattr(Grid, name), _name=name):
            calls[_name] += 1
            return _f(grid, a)
        monkeypatch.setattr(Grid, name, counted)
    lei_residual(traj, tf, 0.0, (0.5, 0.5, 0.5), 0.25)
    intervals = len(_window_overlaps(traj.times, -tf.support_time, 0.0)[0])
    assert intervals == 5
    assert calls == {"rfftn": intervals, "irfftn": 4 * intervals}


def test_lei_interval_with_zero_psi_forms_no_derived_field(constant_state_traj, monkeypatch):
    """A bump centred midway between grid points, and narrower than its
    distance to each, is zero on every cell: no interval reads a derived
    field of either end, and only the final snapshot forms the one its
    final-time terms read."""
    traj = Trajectory([State(s.grid, s.n, s.c, s.u, s.p, s.time)
                       for s in constant_state_traj.states], constant_state_traj.params)
    tf, h = smooth_bump(0.02, 0.05), traj.grid.h
    centre = (0.5 + h / 2,) * 3
    assert tf.support_radius < np.sqrt(3) / 2 * h
    formed = []
    for name, form in state.TRANSFORMED.items():
        monkeypatch.setitem(state.TRANSFORMED, name,
                            lambda s, _n=name, _f=form: formed.append((s.time, _n)) or _f(s))
    rep = lei_residual(traj, tf, 0.0, centre, 0.25)
    assert len(_window_overlaps(traj.times, -tf.support_time, 0.0)[0]) == 5
    assert formed == [(0.0, "grad_sqrt_c")] and rep.max_abs_term == 0.0


def test_lei_window_within_rounding_of_a_snapshot_reads_nothing_before_it(smooth_traj):
    """A window that starts within rounding of snapshot k's time, here just
    below it, overlaps the interval before t_k by less than eps: that is
    no overlap, so the pass reads no snapshot before t_k (besides the
    first, which sets the kinetic weight), and its terms are those of a
    trajectory whose snapshot k - 1 is another state."""
    times, k = smooth_traj.times, 50
    tf = smooth_bump(0.2, 4 * (times[k + 1] - times[k]))
    t = times[k] + tf.support_time - 1e-15
    assert times[k] - 1e-12 < t - tf.support_time < times[k]
    assert _window_overlaps(times, t - tf.support_time, t)[0][0][0] == k
    read = set()

    def load(i):
        read.add(i)
        return smooth_traj.states[i]

    stored = Trajectory(StoredStates([(smooth_traj.grid, s) for s in times], load),
                        smooth_traj.params)
    rep = lei_residual(stored, tf, t, (0.5, 0.5, 0.5), 0.25)
    assert read == {0, *range(k, k + 5)}
    states = list(smooth_traj.states)
    s = states[k - 1]
    states[k - 1] = State(s.grid, 2.0 * s.n, 0.5 * s.c, -s.u, s.p, s.time)
    other = lei_residual(Trajectory(states, smooth_traj.params), tf, t, (0.5, 0.5, 0.5), 0.25)
    assert rep.lhs_terms == other.lhs_terms and rep.rhs_terms == other.rhs_terms
    assert rep.max_abs_term > 0


def test_lei_state_fields_are_what_its_terms_read(smooth_traj):
    """``_LEI_STATE_FIELDS``, what an LEI interval carries from its earlier
    end to its later one, are exactly the state fields that the terms of
    ``LEI_TERMS`` read, so a term reading another fails here, not in a run."""
    cells = np.arange(0, smooth_traj.grid.n**3, 7)
    at = smooth_traj.states[-1].on(cells)
    asked = []

    def read(name):
        asked.append(name)
        return at(name)

    ones = np.ones(cells.size)
    f = _LEIFields(read, smooth_traj.params, psi=ones, psi_final=ones, heat=ones,
                   grad_psi=np.ones((3, cells.size)))
    for _, _, _, integrand, factor in LEI_TERMS:
        assert np.all(np.isfinite(f[integrand] * f[factor]))
    assert sorted(asked) == sorted(_LEI_STATE_FIELDS)
