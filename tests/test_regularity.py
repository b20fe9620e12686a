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
    induction_verify,
    iteration_trace,
    thresholds,
    trace_from_trajectory,
)

from conftest import mean_removed_oracle


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


def gamma_window(delta0: float) -> tuple[float, float]:
    """Admissible open interval for the interpolation exponent gamma.

    Nonempty for every delta0 > 0 since delta0/(6 - 3*delta0) > 0.
    """
    return (0.0, min(1.0 / 9.0, delta0 / (6.0 - 3.0 * delta0)))


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


def _count_ball_masks(monkeypatch):
    """Patch grid_fields.ball_mask to record its calls; returns count(fn),
    the number of ball masks fn() builds."""
    calls = []
    real = grid_fields.ball_mask
    monkeypatch.setattr(grid_fields, "ball_mask",
                        lambda *args: calls.append(args) or real(*args))

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    return count


def test_one_ball_mask_per_pass(monkeypatch):
    """Each functional builds one ball mask per pass over a cylinder, and
    takes one pass per cylinder: one for compute_quantities, one per
    radius for thm13, one for either thm16 variant, one per induction
    level."""
    count = _count_ball_masks(monkeypatch)
    traj, cfg = _quiet_traj(n_val=2.0), RegularityConfig()
    z0 = ((0.5, 0.5, 0.5), 0.0)
    Q = ParabolicCylinder(z0[0], z0[1], 0.2)
    assert count(lambda: compute_quantities(traj, Q)) == 1
    assert count(lambda: flag_thm13(traj, z0, (0.1, 0.2), cfg)) == 2
    assert count(lambda: flag_thm16(traj, z0, cfg, variant="i", rho0=0.2)) == 1
    assert count(lambda: flag_thm16(traj, z0, cfg, variant="ii", rho0=0.2)) == 1
    deep = _quiet_traj(N=32, L=2.0, n_val=2.0, t_lo=-0.3)
    assert count(lambda: induction_verify(deep, ((1.0, 1.0, 1.0), 0.0), 2, cfg)) == 2


def _grid_centres(m, t0=0.0, n=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, n, size=(m, 3)) / n
    return np.column_stack([x, np.full(m, t0)])


def test_grid_sweep_one_ball_mask_per_radius(monkeypatch):
    """A sweep of grid-point centres at one time builds one ball mask per
    radius (thm13) or one for the bundle (thm16), whatever their number."""
    count = _count_ball_masks(monkeypatch)
    traj, cfg = _quiet_traj(n_val=2.0), RegularityConfig()
    for m in (1, 31, 200, 1000):
        centers = _grid_centres(m, seed=m)
        assert count(lambda: flag_sweep(traj, centers, (0.1, 0.15, 0.2), cfg)) == 3
        for crit in ("thm16i", "thm16ii"):
            assert count(lambda: flag_sweep(traj, centers, (0.1, 0.2), cfg,
                                            criterion=crit)) == 1


@pytest.mark.parametrize("criterion", ["thm13", "thm16i", "thm16ii"])
def test_grid_sweep_raises_the_per_centre_errors(criterion):
    traj, cfg = _quiet_traj(n_val=2.0), RegularityConfig()
    centers = _grid_centres(40)
    with pytest.raises(CylinderRangeError, match="box_length/4"):
        flag_sweep(traj, centers, (0.3,), cfg, criterion=criterion)
    late = _grid_centres(40, t0=0.5)  # past the last snapshot at t = 0
    with pytest.raises(CylinderRangeError, match="recorded span"):
        flag_sweep(traj, late, (0.1,), cfg, criterion=criterion)
    early = _grid_centres(40, t0=-0.09)  # window reaches before t = -0.1
    with pytest.raises(CylinderRangeError, match="recorded span"):
        flag_sweep(traj, early, (0.2,), cfg, criterion=criterion)
    empty = flag_sweep(traj, np.zeros((0, 4)), (0.1,), cfg, criterion=criterion)
    assert len(empty) == 0 and empty.points.shape == (0, 4)
    # no radius is an error for every criterion, centres or not
    for pts in (centers, np.zeros((0, 4))):
        with pytest.raises(CylinderRangeError, match="at least one radius"):
            flag_sweep(traj, pts, (), cfg, criterion=criterion)


def _per_centre(traj, pts, radii, cfg, criterion):
    """flag_thm13 / flag_thm16 reports at each row, one centre at a time."""
    reps = []
    for *x0, t0 in pts.tolist():
        if criterion == "thm13":
            reps.append(flag_thm13(traj, (x0, t0), radii, cfg))
        else:
            reps.append(flag_thm16(traj, (x0, t0), cfg, variant=criterion[5:],
                                   rho0=max(radii)))
    return reps


@pytest.mark.parametrize("criterion", ["thm13", "thm16i", "thm16ii"])
def test_grid_maps_agree_with_per_centre_values(smooth_traj, criterion):
    """Map values at every centre of a stride-4 lattice plus 64 random grid
    points equal the per-centre values to 1e-12 relative, with the same
    r_star and, away from the threshold, the same flags."""
    radii, t0, n = (0.0625, 0.09375), float(smooth_traj.times[-1]), 32
    axis = np.arange(0, n, 4) / n
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    centers = np.vstack([np.column_stack([lattice, np.full(len(lattice), t0)]),
                         _grid_centres(64, t0=t0, seed=7)])
    every = flag_sweep(smooth_traj, centers, radii,
                       RegularityConfig(working_threshold=1e-300), criterion=criterion)
    assert len(every) == len(centers)
    reps = _per_centre(smooth_traj, every.points, radii, RegularityConfig(), criterion)
    values = np.array([rep["value"] for rep in reps])
    assert np.max(np.abs(every.value - values) / values) <= 1e-12
    assert np.array_equal(every.r_star, [rep["r_star"] for rep in reps])
    # a working threshold at the median flags about half of the centres
    cfg = RegularityConfig(working_threshold=float(np.median(values)))
    flagged = flag_sweep(smooth_traj, centers, radii, cfg, criterion=criterion)
    clear = np.abs(values - cfg.working_threshold) > 1e-12 * cfg.working_threshold
    mine = {tuple(p) for p in flagged.points.tolist()}
    theirs = {tuple(p) for p, v in zip(every.points.tolist(), values)
              if v > cfg.working_threshold}
    near = {tuple(p) for p, c in zip(every.points.tolist(), clear) if not c}
    assert 0 < len(theirs) < len(every)
    assert mine - near == theirs - near
    # the sweep counts the rows within the maps' rounding of its threshold
    assert every.near_threshold == 0
    at_value = RegularityConfig(working_threshold=float(every.value[0]))
    assert flag_sweep(smooth_traj, centers, radii, at_value,
                      criterion=criterion).near_threshold >= 1


def _spike_traj(N=32, L=1.0):
    """n and u_0 large in the cells within 1.5h of the box centre and zero
    elsewhere, growing in time; c and P zero."""
    g = Grid(N, L)
    core = grid_fields.ball_mask(g, (0.5, 0.5, 0.5), 1.5 * g.h)
    zeros = np.zeros((N,) * 3)
    states = []
    for k, t in enumerate(np.linspace(-0.1, 0.0, 6)):
        u = np.zeros((3, N, N, N))
        u[0][core] = 1e3 * (k + 1)
        states.append(State(g, np.where(core, 1e6 * (k + 1), 0.0), zeros.copy(),
                            u, zeros.copy(), t))
    return Trajectory(states)


@pytest.mark.parametrize("criterion", ["thm13", "thm16i", "thm16ii"])
def test_grid_maps_on_localized_data(criterion):
    """Where the integrands are concentrated in a small ball, a map's
    rounding scales with its largest value: map and per-centre values
    agree to 1e-12 of the largest, no map value is negative, and the
    flags agree outside a band of that width around the threshold."""
    traj, radii, n = _spike_traj(), (0.0625, 0.09375), 32
    axis = np.arange(0, n, 4) / n
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    centers = np.column_stack([lattice, np.zeros(len(lattice))])
    reps = _per_centre(traj, centers, radii, RegularityConfig(), criterion)
    values = np.array([rep["value"] for rep in reps])
    band = 1e-12 * values.max()
    quiet = values <= band
    assert 0 < quiet.sum() < len(values)
    for frac in (1e-9, 1e-6, 1e-3, 0.1, 0.5):
        cfg = RegularityConfig(working_threshold=frac * values.max())
        out = flag_sweep(traj, centers, radii, cfg, criterion=criterion)
        keep = values > cfg.working_threshold
        assert not np.any(np.abs(values - cfg.working_threshold) <= band)
        assert np.array_equal(out.points, centers[keep])
        assert np.array_equal(out.r_star, [rep["r_star"] for rep, k in zip(reps, keep) if k])
        assert np.max(np.abs(out.value - values[keep])) <= band
    # the integrands are nonnegative, so are their maps, even where the
    # ball misses the spike and the convolution is all rounding
    fields = grid_fields.catalog_fields(("abs_u", 3.0), ("grad_sqrt_n_sq", 1.0))
    for maps in grid_fields.cylinder_maps(traj, 0.0, radii[-1], integrals=fields,
                                          sups=fields):
        assert maps.min() >= 0.0 and np.any(maps == 0.0)
        assert np.median(maps) <= 1e-12 * maps.max()


@pytest.mark.parametrize("criterion", ["thm13", "thm16i", "thm16ii"])
def test_off_grid_sweep_rows_are_the_per_centre_reports(smooth_traj, criterion):
    """Off-grid rows of a sweep run the per-centre reports' code: the same
    value and r_star, with ==, at three times, radii given out of order."""
    rng = np.random.default_rng(23)
    times = smooth_traj.times
    centers = np.column_stack([rng.uniform(0.0, 1.0, size=(9, 3)),
                               np.repeat([times[-1], times[-4], times[-11]], 3)])
    radii = (0.09375, 0.0625, 0.078125)
    out = flag_sweep(smooth_traj, centers, radii,
                     RegularityConfig(working_threshold=1e-300), criterion=criterion)
    assert len(out) == len(centers)
    reps = _per_centre(smooth_traj, out.points, radii, RegularityConfig(), criterion)
    assert out.value.tolist() == [rep["value"] for rep in reps]
    assert out.r_star.tolist() == [rep["r_star"] for rep in reps]


@pytest.mark.parametrize("criterion", ["thm13", "thm16i"])
def test_mixed_sweep_equals_centre_by_centre(smooth_traj, criterion):
    """Grid and off-grid centres at three times in one sweep: the FlagSet
    of the per-centre reports, row for row."""
    radii, h = (0.0625, 0.09375), 1.0 / 32
    times = smooth_traj.times
    rng = np.random.default_rng(11)
    rows = []
    for t0, m in ((float(times[-1]), 40), (float(times[-20]), 36), (float(times[-9]), 5)):
        grid = rng.integers(0, 32, size=(m, 3)) * h
        off = rng.uniform(0.0, 1.0, size=(6, 3))
        rows += [[*x, t0] for x in np.vstack([grid, off]).tolist()]
    centers = np.array(rows)
    reps = _per_centre(smooth_traj, centers, radii, RegularityConfig(), criterion)
    values = np.array([rep["value"] for rep in reps])
    # halfway between the two middle distinct values: map and per-centre
    # values agree only to rounding, so no row may sit at the threshold
    distinct = np.unique(values)
    i = len(distinct) // 2
    cfg = RegularityConfig(working_threshold=float(0.5 * (distinct[i - 1] + distinct[i])))
    assert np.all(np.abs(values - cfg.working_threshold) > 1e-12 * cfg.working_threshold)
    out = flag_sweep(smooth_traj, centers, radii, cfg, criterion=criterion)
    keep = [i for i in np.lexsort(centers[:, [2, 1, 0, 3]].T)
            if values[i] > cfg.working_threshold]
    assert 0 < len(keep) < len(centers)
    assert np.array_equal(out.points, centers[keep])
    assert np.array_equal(out.r_star, [reps[i]["r_star"] for i in keep])
    assert np.allclose(out.value, values[keep], rtol=1e-12, atol=0.0)


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


def test_induction_pressure_matches_oracle(smooth_traj):
    """The level k = 1 pressure term equals the oracle's mean-removed
    |P - P_bar|^(3/2) integral over r^4.  smooth_traj's samples sit on a
    4x box with times scaled by 16, so the ball r = 1/2 is resolved and
    its window recorded."""
    g = Grid(smooth_traj.grid.n, 4.0)
    traj = Trajectory([State(g, s.n, s.c, s.u, s.p, 16.0 * s.time)
                       for s in smooth_traj.states])
    x0, t0, r = (2.0, 2.0, 2.0), float(traj.times[-1]), 0.5
    out = induction_verify(traj, (x0, t0), 1, RegularityConfig())
    exact = mean_removed_oracle(traj, x0, t0, r, "p", 1.5) / r**4
    assert exact > 0.0
    assert abs(out["levels"][0]["pressure"] - exact) <= 1e-12 * exact


def test_induction_requires_resolved_ball():
    # h = 0.25 gives only 4 cells across B_{1/2}: below the floor of 8
    traj = _quiet_traj(N=16, L=4.0)
    with pytest.raises(CylinderRangeError):
        induction_verify(traj, ((2.0, 2.0, 2.0), 0.0), 1, RegularityConfig())
