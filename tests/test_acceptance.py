"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with the checked tolerances."""

import numpy as np
import pytest
from scipy.special import spherical_jn

from cnsflow import (
    Grid,
    ParabolicCylinder,
    PhysParams,
    RegularityConfig,
    ScaleRecord,
    SimulationConfig,
    State,
    Trajectory,
    ball_mask,
    check_heat_properties,
    compute_quantities,
    contains_backward_half,
    decompose_local,
    dimension_estimate,
    divergence,
    eval_field_at,
    flag_sweep,
    flag_thm13,
    harmonic_residual,
    heat_test_function,
    induction_verify,
    initial_state,
    iteration_trace,
    lei_residual,
    log_split,
    riesz_potential,
    shifted_cover,
    simulate,
    smooth_bump,
    solve_pressure,
    step,
    thresholds,
    trace_from_trajectory,
    verify_scaling_invariance,
    verify_vitali,
    vitali_subcover,
)
from cnsflow.cli import main as cli_main

from conftest import make_constant_u_traj


def _report(capsys, num, name, checks):
    ok = all(v for _, v in checks)
    failed = [label for label, v in checks if not v]
    detail = "all checks passed" if ok else "failed: " + ", ".join(failed)
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] criterion {num:02d} ({name}): "
              f"{'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_solver_conservation_structure(capsys):
    """200-step 32^3 Gaussian run: relative mass drift <= 1e-8, c below its
    initial maximum, div u <= 1e-10 every step; swirl-flow reference to
    1e-8."""
    cfg = SimulationConfig(
        grid_n=32, grid_l=1.0, dt=2e-4, t_end=0.04, output_stride=10,
        chi_coeffs=(0.5,), gravity=0.5, seed=1,
        init={"preset": "gaussian", "amplitude": 1.0, "width": 0.1, "c0": 1.0},
    )
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
    s = initial_state(cfg, params)
    mass0 = float(np.sum(s.n) * s.grid.cell_volume)
    drift_max = div_max = c_max = 0.0
    for _ in range(200):
        s = step(s, params, cfg.dt)
        mass = float(np.sum(s.n) * s.grid.cell_volume)
        drift_max = max(drift_max, abs(mass - mass0) / mass0)
        div = divergence(s.grid, s.u)
        div_max = max(div_max, float(np.max(np.abs(div))))
        c_max = max(c_max, float(np.max(s.c)))

    # decoupled swirl flow against the analytic reference
    tg_cfg = SimulationConfig(
        grid_n=32, grid_l=2.0 * np.pi, dt=1e-3, t_end=0.1, output_stride=100,
        chi_coeffs=(0.0,), init={"preset": "taylor_green", "amplitude": 1.0},
    )
    tg_params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0)
    tg = simulate(tg_cfg, params=tg_params).states[-1]
    x, y, _ = np.broadcast_arrays(*tg.grid.coords())
    decay = np.exp(-2.0 * tg.time)
    u_ref = np.array([decay * np.cos(x) * np.sin(y),
                      -decay * np.sin(x) * np.cos(y), np.zeros_like(x)])
    tg_err = float(np.max(np.abs(tg.u - u_ref)))

    _report(capsys, 1, "solver conservation/structure", [
        (f"mass drift {drift_max:.2e} <= 1e-8", drift_max <= 1e-8),
        (f"max c {c_max:.6f} <= 1", c_max <= 1.0 + 1e-12),
        (f"div u {div_max:.2e} <= 1e-10", div_max <= 1e-10),
        (f"swirl reference error {tg_err:.2e} <= 1e-8", tg_err <= 1e-8),
    ])


def test_criterion_02_scaling_suite(capsys, smooth_traj):
    """Scale-invariant quantities match under dyadic rescaling to 1e-6;
    the delta0-weighted gradient functional scales by exactly rho0^delta0;
    entropy quantities flagged non-invariant on n = 1."""
    Q = ParabolicCylinder((0.5, 0.5, 0.5), 0.06, 0.1)
    checks = []
    for rho0 in (2.0, 4.0):
        rep = verify_scaling_invariance(smooth_traj, rho0, Q)
        worst = max(e["rel_dev"] for e in rep["quantities"].values())
        checks.append((f"rho0={rho0}: worst deviation {worst:.2e} <= 1e-6",
                       worst <= 1e-6))
        wf = rep["weighted_grad_sqrt_n"]
        err = abs(wf["measured_factor"] - wf["expected_factor"])
        checks.append((f"rho0={rho0}: weighted factor error {err:.2e} <= 1e-9",
                       err <= 1e-9))

    N, L = 24, 2.0
    g = Grid(N, L)
    ones, zeros = np.ones((N,) * 3), np.zeros((N,) * 3)
    unit = Trajectory([
        State(g, ones.copy(), zeros.copy(), np.zeros((3, N, N, N)),
              zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)
    ])
    rep = verify_scaling_invariance(unit, 2.0, ParabolicCylinder(
        (1.0, 1.0, 1.0), 0.0, 0.4))
    noninv = all(not rep["non_invariant"][k]["invariant"]
                 for k in ("m", "n_entropy"))
    checks.append(("entropy quantities flagged non-invariant on n=1", noninv))
    _report(capsys, 2, "scaling suite", checks)


def test_criterion_03_quantity_correctness(capsys, smooth_traj):
    """Constant-field closed forms within 2% at N=64; Monte-Carlo oracle
    within 2%; log-split partition identity to 1e-12."""
    traj = make_constant_u_traj(N=64, L=4.0)
    r = 1.0
    q = compute_quantities(traj, ParabolicCylinder((2.0, 2.0, 2.0), 0.0, r))
    a_exact = 4.0 * np.pi / 3.0 * r**2
    c_exact = 4.0 * np.pi / 3.0 * r**3
    a_err = abs(q.a_u - a_exact) / a_exact
    c_err = abs(q.c_u - c_exact) / c_exact

    # independent Monte-Carlo quadrature of the cubic velocity integral
    t0, rr = 0.06, np.sqrt(0.036)
    x0 = np.array([0.5, 0.5, 0.5])
    grid_value = compute_quantities(
        smooth_traj, ParabolicCylinder(tuple(x0), t0, rr)).c_u
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(4000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rr * rng.uniform(0.0, 1.0, (4000, 1)) ** (1.0 / 3.0)
    pts += x0
    ball_vol = 4.0 * np.pi / 3.0 * rr**3
    g = smooth_traj.grid
    idx = [i for i, t in enumerate(smooth_traj.times)
           if t0 - rr**2 - 1e-12 <= t <= t0 + 1e-12][::6]
    vals, ts = [], []
    for i in idx:
        s = smooth_traj.states[i]
        u = np.stack([eval_field_at(g, s.u[k], pts) for k in range(3)])
        vals.append(ball_vol * float(np.mean(np.sum(u**2, axis=0) ** 1.5)))
        ts.append(s.time)
    mc_value = float(np.trapezoid(vals, ts)) / rr**2
    mc_err = abs(mc_value - grid_value) / grid_value

    # entropy log-split partition identity
    rho0 = 0.5
    N, L = 24, 2.0
    gg = Grid(N, L)
    rng2 = np.random.default_rng(7)
    n = rng2.uniform(0.1, 6.0, (N,) * 3)
    zeros = np.zeros((N,) * 3)
    rtraj = Trajectory([
        State(gg, n.copy(), zeros.copy(), np.zeros((3, N, N, N)),
              zeros.copy(), t) for t in np.linspace(-0.5, 0.0, 6)
    ])
    rq = 0.4
    split = log_split(rtraj, rho0, ParabolicCylinder((1.0, 1.0, 1.0), 0.0, rq))
    mask = ball_mask(gg, (1.0, 1.0, 1.0), rq)
    direct = (rho0**-2 * np.sum(np.abs(
        n[mask] * np.log(rho0**2 * n[mask])) ** 1.5) * gg.cell_volume * rq**2)
    split_err = abs(split.total - direct) / direct

    _report(capsys, 3, "quantity correctness", [
        (f"A_u closed form error {a_err:.4f} <= 0.02", a_err <= 0.02),
        (f"C_u closed form error {c_err:.4f} <= 0.02", c_err <= 0.02),
        (f"Monte-Carlo oracle error {mc_err:.4f} <= 0.02", mc_err <= 0.02),
        (f"log-split identity error {split_err:.2e} <= 1e-12",
         split_err <= 1e-12),
    ])


def test_criterion_04_heat_kernel_test_functions(capsys):
    """Structural properties of the dyadic heat-kernel test functions hold
    with one fitted constant <= 20 over levels 2..6; the heat residual on
    the plateau cylinder is <= 1e-8 * r4^-5 (it is exactly zero)."""
    rep = check_heat_properties(levels=(2, 3, 4, 5, 6))
    r4 = 0.0625
    _report(capsys, 4, "heat-kernel test functions", [
        (f"fitted C {rep['fitted_c']:.3f} <= 20", rep["fitted_c"] <= 20.0),
        (f"plateau heat residual {rep['vi']:.2e} <= 1e-8*r4^-5",
         rep["vi"] <= 1e-8 * r4**-5),
    ])


def test_criterion_05_local_energy_inequality(capsys, lei_traj, smooth_params,
                                              constant_state_traj):
    """Residual >= -1e-4 (1 + max term) for heat-kernel test functions at
    three levels and two smooth bumps on a smooth run; all-constant state
    gives residual exactly 0."""
    checks = []
    center, omega = (0.5, 0.5, 0.5), 0.25
    for level in (3, 4, 5):
        tf = heat_test_function(level, scale=2.0)
        rep = lei_residual(lei_traj, tf, 0.0, center, omega,
                           params=smooth_params)
        tol = 1e-4 * (1.0 + rep.max_abs_term)
        checks.append((f"heat level {level}: residual {rep.residual:.2e} "
                       f">= {-tol:.2e}", rep.residual >= -tol))
    for radius, span in ((0.2, 0.05), (0.12, 0.03)):
        tf = smooth_bump(radius, span)
        rep = lei_residual(lei_traj, tf, 0.0, center, omega,
                           params=smooth_params)
        tol = 1e-4 * (1.0 + rep.max_abs_term)
        checks.append((f"bump r={radius}: residual {rep.residual:.2e} "
                       f">= {-tol:.2e}", rep.residual >= -tol))
    const_params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), c0_max=1.0)
    rep = lei_residual(constant_state_traj, smooth_bump(0.2, 0.05), 0.0,
                       center, omega, params=const_params)
    checks.append((f"constant state residual {rep.residual} == 0",
                   rep.residual == 0.0))
    _report(capsys, 5, "local energy inequality", checks)


def test_criterion_06_pressure(capsys, smooth_traj, smooth_params):
    """P1 + P2 = P on the half ball to 1e-6; sphere-average harmonicity of
    P2 <= 1e-4 * sup|P2|; swirl pressure closed form to 1e-8; Riesz
    potential of a ball indicator within 2% of 2 pi a^2."""
    s = smooth_traj.states[-1]
    dec = decompose_local(s, (0.5, 0.5, 0.5), 0.2, params=smooth_params)
    ident = dec.identity_residual(s.p)
    harm = harmonic_residual(dec)["relative"]

    cfg = SimulationConfig(grid_n=32, grid_l=2.0 * np.pi,
                           init={"preset": "taylor_green", "amplitude": 1.0})
    tg_params = PhysParams(theta0=1.0, chi_coeffs=(0.0,), c0_max=0.0)
    tg = initial_state(cfg, tg_params)
    p = solve_pressure(tg, tg_params)
    x, y, _ = np.broadcast_arrays(*tg.grid.coords())
    tg_err = float(np.max(np.abs(p + 0.25 * (np.cos(2 * x) + np.cos(2 * y)))))

    g = Grid(64, 1.0)
    a = 0.2
    mask = ball_mask(g, (0.5, 0.5, 0.5), a)
    center = np.zeros((64,) * 3, dtype=bool)
    center[32, 32, 32] = True
    got = riesz_potential(g, mask.astype(float), 2.0, mask,
                          target_mask=center)[32, 32, 32]
    riesz_err = abs(got - 2.0 * np.pi * a**2) / (2.0 * np.pi * a**2)

    _report(capsys, 6, "pressure", [
        (f"identity residual {ident:.2e} <= 1e-6", ident <= 1e-6),
        (f"harmonicity deviation {harm:.2e} <= 1e-4", harm <= 1e-4),
        (f"swirl pressure error {tg_err:.2e} <= 1e-8", tg_err <= 1e-8),
        (f"Riesz ball value error {riesz_err:.4f} <= 0.02", riesz_err <= 0.02),
    ])


def test_criterion_07_regularity_machinery(capsys):
    """Threshold closed forms exact; flag sweeps deterministic; constructed
    concentration flagged with margin 2 within 5%; induction left side for
    constant density matches its closed form within 2%."""
    cfg = RegularityConfig(eps1=1.0)
    thr = thresholds(cfg)
    checks = [
        ("epsilon == 1/625 on trivial norms", thr["epsilon"] == 1.0 / 625.0),
        ("epsilon0 == eps1 on trivial norms", thr["epsilon0"] == 1.0),
    ]

    # determinism: the same sweep twice, shuffled centers
    N, L = 32, 1.0
    g = Grid(N, L)
    arr = np.full((N,) * 3, 2.0)
    zeros = np.zeros((N,) * 3)
    qtraj = Trajectory([
        State(g, arr.copy(), zeros.copy(), np.zeros((3, N, N, N)),
              zeros.copy(), t) for t in np.linspace(-0.1, 0.0, 6)
    ])
    tight = RegularityConfig(working_threshold=1e-12)
    centers = [((0.7, 0.5, 0.5), 0.0), ((0.3, 0.5, 0.5), 0.0),
               ((0.5, 0.5, 0.5), -0.02)]
    f1 = flag_sweep(qtraj, centers, (0.15,), tight, criterion="thm16ii")
    f2 = flag_sweep(qtraj, centers[::-1], (0.15,), tight, criterion="thm16ii")
    det = ([(e.center_t,) + e.center_x for e in f1.entries]
           == [(e.center_t,) + e.center_x for e in f2.entries])
    checks.append(("flag sweeps deterministic under input reordering", det))

    # constructed concentration with analytic margin 2
    Nc, r = 64, 0.2
    k = 2.0 * np.pi / L
    base = RegularityConfig()
    vol_ball = 4.0 * np.pi / 3.0 * r**3
    j1 = spherical_jn(1, 2.0 * k * r)
    factor = r * k**2 * 0.5 * vol_ball * (1.0 + 3.0 * j1 / (2.0 * k * r))
    amp = np.sqrt(2.0 * base.working_threshold / factor)
    gc = Grid(Nc, L)
    _, y, _ = np.broadcast_arrays(*gc.coords())
    u = np.zeros((3, Nc, Nc, Nc))
    u[0] = amp * np.sin(k * y)
    zc = np.zeros((Nc,) * 3)
    ctraj = Trajectory([
        State(gc, zc.copy(), zc.copy(), u.copy(), zc.copy(), t)
        for t in np.linspace(-0.06, 0.0, 7)
    ])
    rep = flag_thm13(ctraj, ((0.5, 0.5, 0.5), 0.0), (r,), base)
    checks.append((f"constructed field flagged, margin {rep['margin']:.4f} "
                   f"in [1.9, 2.1]",
                   rep["flagged"] and abs(rep["margin"] - 2.0) <= 0.1))

    # induction closed form for constant density
    Ni, Li, n_bar = 48, 4.0, 2.0
    gi = Grid(Ni, Li)
    ni = np.full((Ni,) * 3, n_bar)
    zi = np.zeros((Ni,) * 3)
    itraj = Trajectory([
        State(gi, ni.copy(), zi.copy(), np.zeros((3, Ni, Ni, Ni)),
              zi.copy(), t) for t in np.linspace(-0.3, 0.0, 7)
    ])
    out = induction_verify(itraj, ((2.0, 2.0, 2.0), 0.0), 1,
                           RegularityConfig(), eps0=100.0)
    exact = 4.0 * np.pi / 3.0 * (n_bar + n_bar * np.log(n_bar))
    ind_err = abs(out["levels"][0]["lhs"] - exact) / exact
    checks.append((f"induction closed form error {ind_err:.4f} <= 0.02",
                   ind_err <= 0.02))
    _report(capsys, 7, "regularity machinery", checks)


def test_criterion_08_iteration(capsys, lei_traj):
    """One-step contraction G(theta0 rho) <= G(rho)/2 + 2 eps^(1/4) on a
    decaying smooth run wherever the smallness hypothesis holds, and on a
    synthetic sequence exactly."""
    cfg = RegularityConfig()
    out = trace_from_trajectory(lei_traj, ((0.5, 0.5, 0.5), 0.0), 0.25, 2,
                                cfg)
    hyp = all(st["hypothesis_held"] for st in out["steps"])
    contract = out["all_contractions_hold"]

    eps = 1e-4
    records = [ScaleRecord(rho=r, g=g, e_sqrt_n=0.0, e_grad_sqrt_c_u=0.0)
               for r, g in zip([0.64, 0.08, 0.01], [1.0, 0.4, 0.3])]
    synth = iteration_trace(records, cfg, eps=eps)
    _report(capsys, 8, "iteration", [
        ("smallness hypothesis held at every tested scale", hyp),
        ("contraction held along the trajectory trace", contract),
        ("synthetic sequence contracts with k0 = 1",
         synth["all_contractions_hold"] and synth["k0"] == 1),
    ])


def test_criterion_09_hausdorff_estimator(capsys):
    """Box-counting slopes within stated bands on sets of known dimension;
    Vitali postconditions on a 200-cylinder random family; backward-half
    containment in shifted cylinders."""
    checks = []
    seg = dimension_estimate(
        [((x, 0.0, 0.0), 0.0) for x in np.linspace(0.0, 1.0, 1000)],
        [2.0**-k for k in range(2, 8)])
    checks.append((f"segment slope {seg.slope:.3f} in 1 +/- 0.15",
                   abs(seg.slope - 1.0) <= 0.15))
    tseg = dimension_estimate(
        [((0.0, 0.0, 0.0), t) for t in np.linspace(-1.0, 0.0, 1000)],
        [2.0**-k for k in range(1, 6)])
    checks.append((f"temporal slope {tseg.slope:.3f} in 2 +/- 0.2",
                   abs(tseg.slope - 2.0) <= 0.2))
    xs = np.linspace(0.0, 1.0, 96)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    plane = dimension_estimate(
        [((x, y, 0.0), 0.0) for x, y in zip(X.ravel(), Y.ravel())],
        [2.0**-k for k in range(2, 6)])
    checks.append((f"plane slope {plane.slope:.3f} in 2 +/- 0.2",
                   abs(plane.slope - 2.0) <= 0.2))
    cs = np.linspace(0.0, 1.0, 28)
    Xc, Yc, Zc = np.meshgrid(cs, cs, cs, indexing="ij")
    cube = dimension_estimate(
        [((x, y, z), 0.0)
         for x, y, z in zip(Xc.ravel(), Yc.ravel(), Zc.ravel())],
        [0.25, 0.125, 0.0625])
    checks.append((f"cube slope {cube.slope:.3f} in 3 +/- 0.2",
                   abs(cube.slope - 3.0) <= 0.2))
    single = dimension_estimate([((0.5, 0.5, 0.5), 0.0)] * 5,
                                [0.25, 0.125, 0.0625])
    checks.append((f"singleton slope {single.slope:.3f} <= 0.1 in magnitude",
                   abs(single.slope) <= 0.1))

    rng = np.random.default_rng(42)
    cyls = [ParabolicCylinder(tuple(rng.uniform(0.0, 1.0, 3)),
                              rng.uniform(-0.5, 0.0),
                              rng.uniform(0.01, 0.08)) for _ in range(200)]
    sel = vitali_subcover(cyls, box_length=1.0)
    rep = verify_vitali(cyls, sel, box_length=1.0)
    checks.append(("Vitali postconditions on 200-cylinder family",
                   rep["pairwise_disjoint"] and rep["five_r_covers"]))
    contain = all(contains_backward_half(q) for q in shifted_cover(
        [((0.5, 0.5, 0.5), -0.1), ((0.2, 0.8, 0.4), 0.0)], 0.07))
    checks.append(("backward half-cylinder containment exact", contain))
    _report(capsys, 9, "Hausdorff estimator", checks)


def test_criterion_10_end_to_end_determinism(capsys, tmp_path):
    """Re-running the pipeline from the same configuration yields
    byte-identical result CSVs."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.n = 32\ngrid.l = 1.0\nsim.dt = 5e-4\nsim.t_end = 0.01\n"
        "sim.output_stride = 5\nsim.seed = 3\nphys.theta0 = 1.0\n"
        "phys.chi = 0.5\nphys.gravity = 0.3\nphys.c0_max = 1.0\n"
        "init.preset = random_smooth\ninit.amplitude = 0.05\n"
        "init.n_mean = 1.0\ninit.c0 = 1.0\ninit.modes = 2\n"
        "reg.working_threshold = 1e-2\npipeline.radii = 0.05,0.09\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    ok1 = cli_main(["pipeline", "--config", str(cfg), "--out", str(out1)]) == 0
    ok2 = cli_main(["pipeline", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("quantities.csv", "energy.csv", "lei.csv", "flags.csv",
                     "dimension.csv")
    )
    _report(capsys, 10, "end-to-end determinism", [
        ("both pipeline runs exited 0", ok1 and ok2),
        ("result CSVs byte-identical across reruns", identical),
    ])
