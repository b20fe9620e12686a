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
    heat_test_function,
    lei_residual,
    simulate,
    smooth_bump,
)


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
        heat_test_function(3, plateau_x=0.02)  # plateau misses Q_{r_4}
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
