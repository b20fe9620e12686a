"""Smallness thresholds, flagging criteria, scale iteration, and the dyadic
induction bound."""

import numpy as np
import pytest
from scipy.special import spherical_jn

from cnsflow import grid_fields
from cnsflow import (
    CylinderRangeError,
    Grid,
    ParabolicCylinder,
    PhysParams,
    RegularityConfig,
    ScaleRecord,
    State,
    Trajectory,
    compute_quantities,
    flag_sweep,
    flag_thm13,
    flag_thm16,
    gamma_window,
    induction_verify,
    iteration_trace,
    thresholds,
    trace_from_trajectory,
)


# ---------------------------------------------------------------------------
# thresholds and configuration
# ---------------------------------------------------------------------------

def test_thresholds_closed_forms_trivial_norms():
    cfg = RegularityConfig(eps1=1.0)
    thr = thresholds(cfg)  # b1 = b2 = 1
    assert thr["epsilon"] == 1.0 / 625.0
    assert thr["epsilon0"] == 1.0
    assert thr["epsilon2"] == 1.0
    assert thr["epsilon3"] == 0.2


def test_thresholds_structural_norm_dependence():
    cfg = RegularityConfig(eps1=1.0)
    params = PhysParams(theta0=1.0, chi_coeffs=(1.0,), c0_max=0.0)
    thr = thresholds(cfg, params)  # b1 = 2, b2 = 1
    assert abs(thr["epsilon0"] - 2.0**-12) < 1e-18
    # monotone decreasing in the structural norms
    big = PhysParams(theta0=1.0, chi_coeffs=(2.0,), c0_max=0.5)
    thr_big = thresholds(cfg, big)
    for key in thr:
        assert thr_big[key] < thr[key]
    # monotone increasing in eps1
    thr_small = thresholds(RegularityConfig(eps1=0.5), params)
    for key in thr:
        assert thr_small[key] < thr[key]


def test_gamma_window_nonempty():
    for delta0 in (0.01, 0.03, 0.05, 0.08, 0.1):
        lo, hi = gamma_window(delta0)
        assert lo < hi


def test_config_validation():
    with pytest.raises(ValueError):
        RegularityConfig(delta0=0.2)
    with pytest.raises(ValueError):
        RegularityConfig(theta0=0.5)
    with pytest.raises(ValueError):
        RegularityConfig(c1=0.5)
    with pytest.raises(ValueError):
        RegularityConfig(working_threshold=-1.0)


# ---------------------------------------------------------------------------
# flagging criteria
# ---------------------------------------------------------------------------

def _quiet_traj(N=32, L=1.0, n_val=0.0, t_lo=-0.1):
    g = Grid(N, L)
    arr = np.full((N,) * 3, n_val)
    zeros = np.zeros((N,) * 3)
    states = [State(g, arr.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(t_lo, 0.0, 6)]
    return Trajectory(states)


def test_one_ball_mask_per_pass(monkeypatch):
    """Each functional builds one ball mask per pass over a cylinder: two
    for compute_quantities (sup, integrals), one per radius for thm13, two
    and one for thm16 variants i and ii, two per induction level."""
    calls = []
    real = grid_fields.ball_mask
    monkeypatch.setattr(grid_fields, "ball_mask",
                        lambda *args: calls.append(args) or real(*args))

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    traj, cfg = _quiet_traj(n_val=2.0), RegularityConfig()
    z0 = ((0.5, 0.5, 0.5), 0.0)
    Q = ParabolicCylinder(z0[0], z0[1], 0.2)
    assert count(lambda: compute_quantities(traj, Q)) == 2
    assert count(lambda: flag_thm13(traj, z0, (0.1, 0.2), cfg)) == 2
    assert count(lambda: flag_thm16(traj, z0, cfg, variant="i", rho0=0.2)) == 2
    assert count(lambda: flag_thm16(traj, z0, cfg, variant="ii", rho0=0.2)) == 1
    deep = _quiet_traj(N=32, L=2.0, n_val=2.0, t_lo=-0.3)
    assert count(lambda: induction_verify(deep, ((1.0, 1.0, 1.0), 0.0), 2, cfg)) == 4


def test_zero_field_never_flagged():
    traj = _quiet_traj()
    cfg = RegularityConfig()
    z0 = ((0.5, 0.5, 0.5), 0.0)
    rep = flag_thm13(traj, z0, (0.1, 0.2), cfg)
    assert not rep["flagged"]
    for variant in ("i", "ii"):
        rep = flag_thm16(traj, z0, cfg, variant=variant, rho0=0.2)
        assert not rep["flagged"]


def test_constructed_velocity_hits_margin_two():
    """A shear field scaled so the weighted-gradient functional sits at
    exactly twice the working threshold (up to ball-quadrature error)."""
    N, L, r = 64, 1.0, 0.2
    k = 2.0 * np.pi / L
    cfg = RegularityConfig()
    vol_ball = 4.0 * np.pi / 3.0 * r**3
    j1 = spherical_jn(1, 2.0 * k * r)
    factor = r * k**2 * 0.5 * vol_ball * (1.0 + 3.0 * j1 / (2.0 * k * r))
    a = np.sqrt(2.0 * cfg.working_threshold / factor)

    g = Grid(N, L)
    _, y, _ = np.broadcast_arrays(*g.coords())
    u = np.zeros((3, N, N, N))
    u[0] = a * np.sin(k * y)
    zeros = np.zeros((N,) * 3)
    states = [State(g, zeros.copy(), zeros.copy(), u.copy(), zeros.copy(), t)
              for t in np.linspace(-0.06, 0.0, 7)]
    traj = Trajectory(states)
    rep = flag_thm13(traj, ((0.5, 0.5, 0.5), 0.0), (r,), cfg)
    assert rep["flagged"]
    assert abs(rep["margin"] - 2.0) < 0.1
    assert rep["r_star"] == r


def test_thm16_parts_match_cylinder_quantities(smooth_traj):
    """Variant-ii parts are exactly the cubic cylinder quantities at the
    working radius."""
    cfg = RegularityConfig()
    rho0 = 0.2
    z0 = ((0.5, 0.5, 0.5), 0.06)
    rep = flag_thm16(smooth_traj, z0, cfg, variant="ii", rho0=rho0)
    q = compute_quantities(smooth_traj, ParabolicCylinder(z0[0], z0[1], rho0))
    assert abs(rep["parts"]["chemo"] - q.c_grad_sqrt_c) <= 1e-10
    assert abs(rep["parts"]["velocity"] - q.c_u) <= 1e-10
    assert abs(rep["parts"]["pressure"] - q.d) <= 1e-10


def test_flag_sweep_deterministic_ordering():
    traj = _quiet_traj(n_val=2.0)  # n ln n > 0 everywhere: everything flags
    cfg = RegularityConfig(working_threshold=1e-12)
    centers = np.array([[0.7, 0.5, 0.5, 0.0], [0.3, 0.5, 0.5, 0.0],
                        [0.5, 0.5, 0.5, -0.02]])
    out = flag_sweep(traj, centers, (0.15,), cfg, criterion="thm16ii")
    assert len(out) == 3
    keys = [(t,) + tuple(x) for *x, t in out.points.tolist()]
    assert keys == sorted(keys)
    # same centers, shuffled input: identical output
    out2 = flag_sweep(traj, centers[::-1], (0.15,), cfg, criterion="thm16ii")
    assert [(t,) + tuple(x) for *x, t in out2.points.tolist()] == keys


def test_flag_reports_share_one_shape():
    traj, cfg = _quiet_traj(n_val=2.0), RegularityConfig(working_threshold=1e-12)
    z0 = ((0.5, 0.5, 0.5), 0.0)
    shape = {"value", "r_star", "working_threshold", "paper_threshold",
             "flagged", "margin"}
    rep = flag_thm13(traj, z0, (0.1, 0.2), cfg)
    assert set(rep) == shape | {"per_radius"}
    for variant in ("i", "ii"):
        rep = flag_thm16(traj, z0, cfg, variant=variant, rho0=0.2)
        assert set(rep) == shape | {"parts"} and rep["r_star"] == 0.2
    # a sweep takes only an (m, 4) array of centres
    for bad in ([z0], np.zeros((2, 3))):
        with pytest.raises(ValueError):
            flag_sweep(traj, bad, (0.15,), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flag_sweep_rejects_non_finite_centres(bad):
    traj, cfg = _quiet_traj(n_val=2.0), RegularityConfig(working_threshold=1e-12)
    centers = np.array([[0.5, 0.5, 0.5, 0.0], [0.3, bad, 0.5, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        flag_sweep(traj, centers, (0.15,), cfg)


# ---------------------------------------------------------------------------
# scale iteration
# ---------------------------------------------------------------------------

def test_iteration_trace_synthetic_contraction():
    cfg = RegularityConfig()
    eps = 1e-4  # eps^(1/4) = 0.1: additive term 0.2, handoff level 0.5
    rhos = [0.64, 0.08, 0.01]
    gs = [1.0, 0.4, 0.3]
    records = [ScaleRecord(rho=r, g=g, e_sqrt_n=0.0, e_grad_sqrt_c_u=0.0)
               for r, g in zip(rhos, gs)]
    out = iteration_trace(records, cfg, eps=eps)
    assert out["all_contractions_hold"]
    assert out["k0"] == 1
    assert all(st["hypothesis_held"] for st in out["steps"])


def test_iteration_trace_rejects_bad_ratio():
    cfg = RegularityConfig()
    records = [ScaleRecord(0.5, 1.0, 0.0, 0.0), ScaleRecord(0.1, 0.5, 0.0, 0.0)]
    with pytest.raises(ValueError):
        iteration_trace(records, cfg)


def test_iteration_trace_skips_failed_hypothesis():
    cfg = RegularityConfig()
    eps = 1e-4
    records = [ScaleRecord(0.64, 1.0, 10.0, 10.0),  # hypothesis fails
               ScaleRecord(0.08, 5.0, 0.0, 0.0)]    # growth, but not asserted
    out = iteration_trace(records, cfg, eps=eps)
    assert out["steps"][0]["contraction_holds"] is None
    assert out["all_contractions_hold"]


def test_trace_from_trajectory_runs(lei_traj):
    cfg = RegularityConfig()
    out = trace_from_trajectory(lei_traj, ((0.5, 0.5, 0.5), 0.0), 0.25, 2, cfg)
    assert len(out["records"]) == 2
    assert len(out["steps"]) == 1
    assert out["records"][1].rho == pytest.approx(0.25 / 8.0)
    assert isinstance(out["all_contractions_hold"], bool)


# ---------------------------------------------------------------------------
# dyadic induction
# ---------------------------------------------------------------------------

def test_induction_zero_fields_hold():
    N, L = 48, 4.0
    g = Grid(N, L)
    zeros = np.zeros((N,) * 3)
    states = [State(g, zeros.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.3, 0.0, 7)]
    traj = Trajectory(states)
    out = induction_verify(traj, ((2.0, 2.0, 2.0), 0.0), 1, RegularityConfig())
    assert out["all_hold"]
    assert out["levels"][0]["lhs"] == 0.0


def test_induction_constant_density_closed_form():
    """n = n_bar, everything else zero: the bound's left side is
    (4 pi / 3)(n_bar + n_bar ln n_bar) independent of the level."""
    N, L, n_bar = 48, 4.0, 2.0
    g = Grid(N, L)
    arr = np.full((N,) * 3, n_bar)
    zeros = np.zeros((N,) * 3)
    states = [State(g, arr.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-0.3, 0.0, 7)]
    traj = Trajectory(states)
    out = induction_verify(traj, ((2.0, 2.0, 2.0), 0.0), 1, RegularityConfig(),
                           eps0=100.0)
    exact = 4.0 * np.pi / 3.0 * (n_bar + n_bar * np.log(n_bar))
    got = out["levels"][0]["lhs"]
    assert abs(got - exact) / exact < 0.02
    assert out["all_hold"]


def test_induction_requires_resolved_ball():
    # h = 0.25 gives only 4 cells across B_{1/2}: below the floor of 8
    traj = _quiet_traj(N=16, L=4.0)
    with pytest.raises(CylinderRangeError):
        induction_verify(traj, ((2.0, 2.0, 2.0), 0.0), 1, RegularityConfig())
