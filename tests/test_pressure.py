"""Pressure solve, local decomposition, Riesz potentials, and the harmonic
interior estimates, checked against closed forms."""

import tracemalloc

import numpy as np
import pytest

from cnsflow import (
    Grid,
    PhysParams,
    SimulationConfig,
    ball_mask,
    cz_sanity_report,
    decompose_local,
    harmonic_interior_bound_check,
    harmonic_residual,
    harmonic_test_family,
    initial_state,
    riesz_potential,
    solve_pressure,
)


def test_taylor_green_pressure_closed_form():
    cfg = SimulationConfig(grid_n=32, grid_l=2.0 * np.pi,
                           init={"preset": "taylor_green", "amplitude": 1.0})
    params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0)
    s = initial_state(cfg, params)
    p = solve_pressure(s, params)
    x, y, _ = np.broadcast_arrays(*s.grid.coords())
    exact = -0.25 * (np.cos(2 * x) + np.cos(2 * y))
    assert np.max(np.abs(p - exact)) < 1e-8


@pytest.fixture(scope="module")
def decomp_setup(smooth_traj, smooth_params):
    s = smooth_traj.states[-1]
    d = decompose_local(s, (0.5, 0.5, 0.5), 0.2, params=smooth_params)
    return s, d


def test_decomposition_identity(decomp_setup):
    s, d = decomp_setup
    assert d.identity_residual(s.p) < 1e-10


def test_p2_is_harmonic_on_inner_ball(decomp_setup):
    _, d = decomp_setup
    rep = harmonic_residual(d)
    assert rep["relative"] < 1e-4


def test_kernel_p1_consistent_with_grid_p1(decomp_setup):
    """The off-grid kernel-sum P1 may differ from the spectral grid P1 by a
    ball-harmonic function, but at the center the two agree closely for a
    well-localized source."""
    _, d = decomp_setup
    from cnsflow.pressure import eval_field_at
    center = np.array([d.center])
    spectral = float(eval_field_at(d.grid, d.p1, center)[0])
    kernel = float(d.p1_at(center)[0])
    scale = max(1e-12, float(np.max(np.abs(d.p1[d.mask_half]))))
    assert abs(spectral - kernel) / scale < 0.05


def test_riesz_uniform_ball_closed_form():
    """I_2 of the indicator of B_R at the center is 2 pi R^2."""
    g = Grid(64, 1.0)
    R = 0.2
    mask = ball_mask(g, (0.5, 0.5, 0.5), R)
    f = mask.astype(float)
    center = np.zeros((64,) * 3, dtype=bool)
    center[32, 32, 32] = True
    out = riesz_potential(g, f, 2.0, mask, target_mask=center)
    got = out[32, 32, 32]
    exact = 2.0 * np.pi * R**2
    assert abs(got - exact) / exact < 0.01


def test_riesz_matches_direct_sum_with_self_cell():
    """Against the direct periodic sum over the support, skipping the
    coincident cell and adding its closed-form ball integral."""
    g = Grid(16, 1.0)
    mask = ball_mask(g, (0.5, 0.5, 0.5), 0.2)
    f = np.random.default_rng(8).normal(size=(16,) * 3)
    alpha = 1.5
    got = riesz_potential(g, f, alpha, mask)[mask]
    xs, ys, zs = np.broadcast_arrays(*g.coords())
    pts = np.stack([xs[mask], ys[mask], zs[mask]], axis=1)
    fv = f[mask]
    d = pts[:, None, :] - pts[None, :, :]
    d -= np.round(d)  # unit box
    r = np.sqrt(np.sum(d * d, axis=2))
    with np.errstate(divide="ignore"):
        kernel = np.where(r > 0, r ** (alpha - 3.0), 0.0)
    a = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * g.h
    ref = kernel @ fv * g.cell_volume + 4.0 * np.pi * a**alpha / alpha * fv
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_riesz_memory_does_not_grow_with_cell_pairs():
    # one len(tgt) x len(src) x 3 array of doubles would take 403 MB here
    g = Grid(32, 1.0)
    mask = np.zeros((32,) * 3, dtype=bool)
    mask[:16, :16, :16] = True  # 4096 source and target cells
    f = np.ones((32,) * 3)
    tracemalloc.start()
    try:
        riesz_potential(g, f, 2.0, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250e6


def test_riesz_alpha_out_of_range():
    g = Grid(16, 1.0)
    mask = ball_mask(g, (0.5, 0.5, 0.5), 0.1)
    f = np.ones((16,) * 3)
    with pytest.raises(ValueError):
        riesz_potential(g, f, 3.5, mask)


def test_harmonic_interior_linear_function():
    """f = x is harmonic with |grad f| = 1; both norms reduce to ball
    volumes and moments we can write down, so the fitted constant is an
    explicit ratio (well under the limit)."""
    fam = harmonic_test_family()[1]  # f = x
    rep = harmonic_interior_bound_check(
        fam["value"], fam["grad_norm"], r=0.25, rho=0.5, k=1, p=2.0, q=2.0,
    )
    # |grad f| = 1 so lhs = |B_r|^{1/2}
    vol_r = 4.0 * np.pi / 3.0 * 0.25**3
    assert abs(rep["lhs"] - np.sqrt(vol_r)) / np.sqrt(vol_r) < 0.01
    # || x ||_{L^2(B_rho)}^2 = (4 pi / 15) rho^5
    f2 = np.sqrt(4.0 * np.pi / 15.0 * 0.5**5)
    assert abs(rep["f_norm"] - f2) / f2 < 0.01
    assert rep["holds"]


def test_harmonic_family_within_limit():
    for fam in harmonic_test_family():
        rep = harmonic_interior_bound_check(
            fam["value"], fam["grad_norm"], r=0.25, rho=0.5, k=1, p=2.0, q=2.0,
        )
        assert rep["fitted_c"] <= 100.0


def test_cz_report_runs(decomp_setup, smooth_params):
    s, d = decomp_setup
    rep = cz_sanity_report(d, s, params=smooth_params)
    assert rep["lhs"] >= 0.0
    assert rep["rhs"] > 0.0
    assert np.isfinite(rep["fitted_c"])
