"""Pressure solve, local decomposition, Riesz potentials, and the harmonic
interior estimates, checked against closed forms."""

import tracemalloc

import numpy as np
import pytest

from cnsflow import (
    CylinderRangeError,
    Grid,
    PhysParams,
    SimulationConfig,
    State,
    ball_mask,
    cz_sanity_report,
    decompose_local,
    eval_field_at,
    harmonic_residual,
    initial_state,
    riesz_potential,
    solve_pressure,
)
from cnsflow.cli import main, read_csv
from cnsflow.snapshot import write_snapshot

#: (N, L, rho) of the whole-cell symmetry checks: rho = 6h and rho = 4h
SYMMETRY_CASES = [(48, 1.0, 1.0 / 8.0), (32, 2.0 * np.pi, 4.0 * 2.0 * np.pi / 32)]


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


def test_decompose_local_transforms_are_all_pruned(smooth_traj, smooth_params,
                                                   monkeypatch):
    """The split's sources and P1 take the kept (pruned) transforms of the
    global pressure solve: no full Grid.rfftn or Grid.irfftn call."""
    calls = {}
    for name in ("rfftn", "irfftn", "kept_rfftn", "kept_irfftn"):
        def counting(self, values, _name=name, _fn=getattr(Grid, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(self, values)
        monkeypatch.setattr(Grid, name, counting)
    decompose_local(smooth_traj.states[-1], (0.5, 0.5, 0.5), 0.2,
                    params=smooth_params)
    assert calls == {"kept_rfftn": 7, "kept_irfftn": 1}


def _smooth_state(n, box):
    cfg = SimulationConfig(grid_n=n, grid_l=box, seed=3,
                           init={"preset": "random_smooth", "amplitude": 0.05,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 2})
    return initial_state(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,),
                                         gravity=0.5, c0_max=1.0))


@pytest.mark.parametrize("n, box, rho", SYMMETRY_CASES)
def test_decompose_local_masks_are_the_same_at_every_grid_centre(n, box, rho):
    """B_rho and B_{rho/2} of the split are ball_mask's lattice balls:
    at grid-point centres through every index they are the masks at the
    origin rolled by the centre's index."""
    g = Grid(n, box)
    zeros = np.zeros((n,) * 3)
    s = State(g, zeros, zeros, np.zeros((3,) + zeros.shape), zeros, 0.0)
    base = decompose_local(s, (0.0, 0.0, 0.0), rho)
    assert np.array_equal(base.mask_rho, ball_mask(g, (0.0, 0.0, 0.0), rho))
    for i in range(n):
        idx = (i, (5 * i + 3) % n, (11 * i + 7) % n)
        d = decompose_local(s, tuple(j * g.h for j in idx), rho)
        assert np.array_equal(d.mask_rho, np.roll(base.mask_rho, idx, axis=(0, 1, 2))), idx
        assert np.array_equal(d.mask_half, np.roll(base.mask_half, idx, axis=(0, 1, 2))), idx


@pytest.mark.parametrize("n, box, rho", SYMMETRY_CASES)
def test_diagnose_pressure_rows_follow_a_whole_cell_shift(n, box, rho, tmp_path):
    """A snapshot rolled by whole cells, split at the rolled centre, gives
    the same `diagnose pressure` rows: the same shells, and values equal to
    1e-12 relative.  The harmonic defect is a difference of P2 values, so
    it is held to 1e-12 of the P2 scale it is normalised by (sup |P2| on
    B_{rho/2}); harmonic_relative is that normalised defect."""
    s = _smooth_state(n, box)
    shift = (5, 17, 29)
    rolled = State(s.grid, *(np.roll(a, shift, axis=(-3, -2, -1))
                             for a in (s.n, s.c, s.u, s.p)), s.time)
    centre = (3, 7, 11)
    rows = []
    for k, (state, idx) in enumerate(
            ((s, centre), (rolled, tuple((c + m) % n for c, m in zip(centre, shift))))):
        write_snapshot(tmp_path / f"{k}.cns", state)
        assert main(["diagnose", "pressure", "--snapshot", str(tmp_path / f"{k}.cns"),
                     "--center", ",".join(repr(j * s.grid.h) for j in idx),
                     "--rho", repr(rho), "--out", str(tmp_path / f"{k}.csv")]) == 0
        rows.append(read_csv(tmp_path / f"{k}.csv")[1])
    a, b = rows
    assert [r[:2] for r in a] == [r[:2] for r in b]
    value = {r[0]: float(r[2]) for r in a}
    p2_scale = value["harmonic_deviation"] / value["harmonic_relative"]
    scale = {"harmonic_deviation": p2_scale, "harmonic_relative": 1.0}
    for ra, rb in zip(a, b):
        va, vb = float(ra[2]), float(rb[2])
        assert abs(va - vb) <= 1e-12 * scale.get(ra[0], max(abs(va), abs(vb))), ra


def test_decompose_local_refuses_a_ball_wider_than_a_quarter_box(decomp_setup):
    s, _ = decomp_setup
    decompose_local(s, (0.5, 0.5, 0.5), 0.25)
    with pytest.raises(CylinderRangeError):
        decompose_local(s, (0.5, 0.5, 0.5), 0.26)


def test_empty_half_ball_is_refused_by_name(tmp_path, capsys):
    """At 16^3 (h = 0.0625) the ball of radius 0.01 around 0.53 in each
    coordinate holds no cell: decompose_local raises ValueError naming rho
    and h, and `diagnose pressure` exits 2 with that message and writes no
    CSV."""
    s = _smooth_state(16, 1.0)
    with pytest.raises(ValueError, match="rho = 0.02, h = 0.0625"):
        decompose_local(s, (0.53, 0.53, 0.53), 0.02)
    write_snapshot(tmp_path / "s.cns", s)
    out = tmp_path / "split.csv"
    capsys.readouterr()
    assert main(["diagnose", "pressure", "--snapshot", str(tmp_path / "s.cns"),
                 "--center", "0.53,0.53,0.53", "--rho", "0.02", "--out", str(out)]) == 2
    assert "rho = 0.02, h = 0.0625" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, m", [(16, 40), (64, 520)])
def test_eval_field_at_matches_direct_phase_sum(n, m):
    """The separable evaluation equals the direct sum of f_hat e^{i k.x}
    over all N^3 modes, at points inside and outside [0, L); at N = 64 the
    points span two batches, and the direct sum is taken across the seam."""
    g = Grid(n, 2.0)
    rng = np.random.default_rng(n)
    f = rng.normal(size=(n,) * 3)
    pts = rng.uniform(-2.0, 4.0, size=(m, 3))
    got = eval_field_at(g, f, pts)
    fh = np.fft.fftn(f) / f.size
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=g.h)
    idx = np.r_[0:8, max(0, m - 24):m]
    ref = np.array([np.real(np.sum(fh * np.exp(1j * (
        k1[:, None, None] * p[0] + k1[None, :, None] * p[1]
        + k1[None, None, :] * p[2])))) for p in pts[idx]])
    assert np.max(np.abs(got[idx] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.allclose(eval_field_at(g, f, [[0.0, 0.0, 0.0], [2 * g.h, -g.h, 2.0]]),
                       [f[0, 0, 0], f[2, -1, 0]], rtol=0, atol=1e-12)


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


RIESZ_MASKS = {
    "ball": lambda g: ball_mask(g, (0.5, 0.5, 0.5), 0.2),
    "random": lambda g: np.random.default_rng(5).random((g.n,) * 3) < 0.05,
}


@pytest.mark.parametrize("alpha", [0.3, 1.5, 2.9])
@pytest.mark.parametrize("support", sorted(RIESZ_MASKS))
def test_riesz_matches_direct_sum_with_self_cell(support, alpha):
    """Against the direct periodic sum over the support, skipping the
    coincident cell and adding its closed-form ball integral; every cell is
    a target, on the support and off it."""
    g = Grid(16, 1.0)
    mask = RIESZ_MASKS[support](g)
    f = np.random.default_rng(8).normal(size=(16,) * 3)
    everywhere = np.ones((16,) * 3, dtype=bool)
    got = riesz_potential(g, f, alpha, mask, target_mask=everywhere)[everywhere]
    xs, ys, zs = np.broadcast_arrays(*g.coords())
    src = np.stack([xs[mask], ys[mask], zs[mask]], axis=1)
    tgt = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    fv = f[mask]
    d = tgt[:, None, :] - src[None, :, :]
    d -= np.round(d)  # unit box
    r = np.sqrt(np.sum(d * d, axis=2))
    with np.errstate(divide="ignore"):
        kernel = np.where(r > 0, r ** (alpha - 3.0), 0.0)
    a = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * g.h
    self_cell = np.where(mask.ravel(), 4.0 * np.pi * a**alpha / alpha * f.ravel(), 0.0)
    ref = kernel @ fv * g.cell_volume + self_cell
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_riesz_support_above_the_old_cell_cap():
    """Supports of any size: B_0.24 on a 128^3 unit box (121 409 cells, over
    the 40^3 cap the pair sum had) gives I_2 = 2 pi R^2 at the centre, and
    f = 1 on the whole 48^3 box gives the same value at every cell."""
    g = Grid(128, 1.0)
    R = 0.24
    mask = ball_mask(g, (0.5, 0.5, 0.5), R)
    assert int(mask.sum()) == 121409
    center = np.zeros((128,) * 3, dtype=bool)
    center[64, 64, 64] = True
    got = riesz_potential(g, mask.astype(float), 2.0, mask, target_mask=center)
    assert abs(got[64, 64, 64] - 2.0 * np.pi * R**2) < 0.01 * 2.0 * np.pi * R**2
    g = Grid(48, 1.0)
    full = np.ones((48,) * 3, dtype=bool)
    for alpha in (0.3, 1.5, 2.9):
        out = riesz_potential(g, np.ones((48,) * 3), alpha, full)
        assert np.ptp(out) <= 1e-12 * np.max(out)


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


def _ball_lq_norm(fn, radius: float, q: float) -> float:
    """L^q norm over B_radius(0) by midpoint quadrature on a 48^3 cube."""
    h = 2.0 * radius / 48
    x1 = -radius + h * (np.arange(48) + 0.5)
    X, Y, Z = np.meshgrid(x1, x1, x1, indexing="ij")
    inside = X**2 + Y**2 + Z**2 < radius**2
    pts = np.stack([X[inside], Y[inside], Z[inside]], axis=1)
    vals = np.abs(np.asarray(fn(pts), dtype=float))
    return float(np.sum(vals**q) * h**3) ** (1.0 / q)


def harmonic_interior_bound_check(value_fn, deriv_norm_fn, r: float, rho: float,
                                  k: int, p: float, q: float) -> dict:
    """Check the interior estimate for a harmonic function on the unit ball:

        || D^k f ||_{L^q(B_r)}  <=  C r^{3/q} / (rho - r)^{3/p + k} || f ||_{L^p(B_rho)}

    value_fn maps points (m, 3) to f values; deriv_norm_fn maps points to
    the pointwise norm |D^k f|.  Returns the fitted C and whether it is
    at most 100.
    """
    if not 0.0 < r < rho <= 1.0:
        raise ValueError("need 0 < r < rho <= 1")
    lhs = _ball_lq_norm(deriv_norm_fn, r, q)
    f_norm = _ball_lq_norm(value_fn, rho, p)
    geom = r ** (3.0 / q) / (rho - r) ** (3.0 / p + k)
    rhs_base = geom * f_norm
    fitted_c = lhs / rhs_base if rhs_base > 0 else 0.0
    return {
        "lhs": lhs,
        "f_norm": f_norm,
        "geometric_factor": geom,
        "fitted_c": fitted_c,
        "holds": fitted_c <= 100.0,
    }


def harmonic_test_family() -> list:
    """Harmonic polynomials up to degree 4 with closed-form |grad|."""

    def mk(value, grad_sq):
        return {
            "value": lambda pts, v=value: v(pts[:, 0], pts[:, 1], pts[:, 2]),
            "grad_norm": lambda pts, g=grad_sq: np.sqrt(
                g(pts[:, 0], pts[:, 1], pts[:, 2])
            ),
        }

    return [
        mk(lambda x, y, z: np.ones_like(x), lambda x, y, z: np.zeros_like(x)),
        mk(lambda x, y, z: x, lambda x, y, z: np.ones_like(x)),
        mk(lambda x, y, z: x * x - y * y, lambda x, y, z: 4 * x * x + 4 * y * y),
        mk(lambda x, y, z: x * y * z,
           lambda x, y, z: (y * z) ** 2 + (x * z) ** 2 + (x * y) ** 2),
        mk(lambda x, y, z: x**3 - 3 * x * y * y,
           lambda x, y, z: (3 * x * x - 3 * y * y) ** 2 + (6 * x * y) ** 2),
        # degree 4: real part of (x + iy)^4
        mk(lambda x, y, z: x**4 - 6 * x * x * y * y + y**4,
           lambda x, y, z: (4 * x**3 - 12 * x * y * y) ** 2
           + (4 * y**3 - 12 * x * x * y) ** 2),
    ]


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
