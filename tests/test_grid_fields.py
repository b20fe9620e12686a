"""Spectral grid, derivative operators, cylinders and cylinder quadrature."""

import ast
from pathlib import Path

import numpy as np
import pytest

import cnsflow
from cnsflow import (
    CylinderRangeError,
    Grid,
    ParabolicCylinder,
    ball_mask,
    divergence,
    gradient,
    laplacian,
)
from cnsflow.grid_fields import (
    UnknownIntegrandError,
    catalog_fields,
    cylinder_values,
)
from cnsflow import State, Trajectory
from cnsflow.state import gather
from conftest import hessian_components


def leray_project(g: Grid, v: np.ndarray) -> np.ndarray:
    """Remove the gradient part of a (3, N, N, N) field:
    P u = u - grad(Delta^-1 div u)."""
    return g.irfftn(g.project_hat(g.rfftn(v)))


def dealias(grid: Grid, values: np.ndarray) -> np.ndarray:
    """2/3-rule truncation of a physical-space array."""
    return grid.kept_irfftn(grid.kept_rfftn(values))


def trig_field(grid):
    """f = sin(k x) cos(2k y) with k the fundamental wavenumber."""
    x, y, z = np.broadcast_arrays(*grid.coords())
    k = 2.0 * np.pi / grid.box_length
    f = np.sin(k * x) * np.cos(2.0 * k * y)
    grad = np.array([
        k * np.cos(k * x) * np.cos(2.0 * k * y),
        -2.0 * k * np.sin(k * x) * np.sin(2.0 * k * y),
        np.zeros_like(f),
    ])
    lap = -(k**2 + 4.0 * k**2) * f
    return f, grad, lap


def test_gradient_matches_analytic():
    g = Grid(32, 2.0)
    f, grad, _ = trig_field(g)
    got = gradient(g, f)
    assert np.max(np.abs(got - grad)) < 1e-12


def test_laplacian_matches_analytic():
    g = Grid(32, 2.0)
    f, _, lap = trig_field(g)
    got = laplacian(g, f)
    assert np.max(np.abs(got - lap)) < 1e-11


def test_hessian_trace_is_laplacian():
    g = Grid(32, 1.0)
    rng = np.random.default_rng(1)
    f = dealias(g, rng.normal(size=(32,) * 3))
    hess = hessian_components(g, f)
    trace = hess[(0, 0)] + hess[(1, 1)] + hess[(2, 2)]
    lap = laplacian(g, f)
    assert np.max(np.abs(trace - lap)) < 1e-9


def test_divergence_of_gradient_is_laplacian():
    g = Grid(32, 1.0)
    f, _, lap = trig_field(g)
    got = divergence(g, gradient(g, f))
    assert np.max(np.abs(got - lap)) < 1e-10


def test_leray_kills_gradients_and_keeps_solenoidal():
    g = Grid(32, 1.0)
    f, grad, _ = trig_field(g)
    # a pure gradient projects to zero
    proj = leray_project(g, grad)
    assert np.max(np.abs(proj)) < 1e-12
    # a divergence-free field is unchanged
    x, y, _ = np.broadcast_arrays(*g.coords())
    k = 2.0 * np.pi
    u = np.array([np.cos(k * x) * np.sin(k * y),
                  -np.sin(k * x) * np.cos(k * y),
                  np.zeros_like(f)])
    kept = leray_project(g, u)
    assert np.max(np.abs(kept - u)) < 1e-12
    # result is divergence-free on band-limited fields
    rng = np.random.default_rng(2)
    w = np.array([dealias(g, rng.normal(size=(32,) * 3)) for _ in range(3)])
    p = leray_project(g, w)
    assert np.max(np.abs(divergence(g, p))) < 1e-9


def test_leray_is_idempotent():
    g = Grid(24, 1.0)
    rng = np.random.default_rng(3)
    w = np.array([dealias(g, rng.normal(size=(24,) * 3)) for _ in range(3)])
    once = leray_project(g, w)
    twice = leray_project(g, once)
    assert np.max(np.abs(once - twice)) < 1e-10


def test_leray_is_exact_on_white_noise():
    """White noise carries energy on every Nyquist plane, where the
    derivative symbol is zero; the projection must still be solenoidal
    under the spectral divergence, and idempotent."""
    g = Grid(16, 1.0)
    u = np.random.default_rng(7).normal(size=(3, 16, 16, 16))
    once = leray_project(g, u)
    assert np.max(np.abs(divergence(g, u))) > 1.0
    assert np.max(np.abs(divergence(g, once))) <= 1e-10
    assert np.max(np.abs(leray_project(g, once) - once)) <= 1e-12


def test_dealias_is_a_projection():
    g = Grid(32, 1.0)
    rng = np.random.default_rng(4)
    f = rng.normal(size=(32,) * 3)
    once = dealias(g, f)
    assert np.max(np.abs(dealias(g, once) - once)) < 1e-12


@pytest.mark.parametrize("n", range(8, 42, 2))
def test_pruned_transforms_are_bitwise_full_ones(n):
    """The kept transforms equal their full-transform expressions bit for
    bit, on scalar and vector white noise."""
    g = Grid(n, 1.0)
    rng = np.random.default_rng(n)
    for shape in ((n,) * 3, (3,) + (n,) * 3):
        v = rng.normal(size=shape)
        assert np.array_equal(g.kept_rfftn(v), g.kept(g.rfftn(v)))
        h = g.rfftn(rng.normal(size=shape))
        assert np.array_equal(g.kept_irfftn(g.kept(h)), g.irfftn(g.dealias_mask * h))


@pytest.mark.parametrize("n", [8, 10, 32])
def test_kept_block_is_the_masked_modes(n):
    """``kept`` takes exactly the modes the mask keeps, of a spectrum and
    of each broadcast symbol, and its index writes them back in place."""
    g = Grid(n, 1.0)
    h = g.rfftn(np.random.default_rng(n).normal(size=(3,) + (n,) * 3))
    assert np.array_equal(g.kept(h).ravel(), h[:, g.dealias_mask].ravel())
    shape = g.kept(g.k_sq).shape
    for sym in g.ik:
        assert np.array_equal(np.broadcast_to(g.kept(sym), shape),
                              g.kept(np.broadcast_to(sym, g.k_sq.shape)))
    out = np.zeros_like(h)
    out[g.kept_index(out.shape)] = g.kept(h)
    assert np.array_equal(out, g.dealias_mask * h)


def test_vector_transforms_are_the_batched_ones():
    """A stack of fields goes one field at a time, bitwise the batched call."""
    g = Grid(16, 1.0)
    v = np.random.default_rng(2).normal(size=(2, 3, 16, 16, 16))
    h = np.fft.rfftn(v, axes=(-3, -2, -1))
    assert np.array_equal(g.rfftn(v), h)
    assert np.array_equal(g.irfftn(h), np.fft.irfftn(h, s=(16,) * 3, axes=(-3, -2, -1)))


def test_projection_and_poisson_on_the_block_are_the_full_ones():
    """One projection and one Poisson solve serve a half spectrum and a
    kept block: on the block their values are the full ones, bit for bit."""
    g = Grid(24, 2.0)
    rng = np.random.default_rng(9)
    u_hat = g.rfftn(rng.normal(size=(3, 24, 24, 24)))
    assert np.array_equal(g.project_hat(g.kept(u_hat)), g.kept(g.project_hat(u_hat)))
    assert np.array_equal(g.poisson_hat(g.kept(u_hat[0])), g.kept(g.poisson_hat(u_hat[0])))
    block = g.kept(u_hat)
    assert g.project_hat(block, out=block) is block
    assert np.array_equal(block, g.kept(g.project_hat(u_hat)))


@pytest.mark.parametrize("n", [8, 10, 32, 48, 64])
def test_kept_ranges_rebuild_the_dealias_mask(n):
    g = Grid(n, 1.0)
    rows, m = g._kept
    rebuilt = np.zeros_like(g.dealias_mask)
    rebuilt[np.ix_(rows, rows, np.arange(m))] = True
    assert np.array_equal(rebuilt, g.dealias_mask)
    assert len(rows) == 2 * m - 1  # 0..m-1 and N-m+1..N-1


def test_operators_match_complex_fft_formulas():
    """Each half-spectrum operator against its full complex-FFT formula,
    on white noise, which has energy on every Nyquist plane."""
    N, L = 16, 2.0
    g = Grid(N, L)
    rng = np.random.default_rng(6)
    f = rng.normal(size=(N,) * 3)
    w = rng.normal(size=(N,) * 3)
    u = rng.normal(size=(3, N, N, N))
    m = np.fft.fftfreq(N, 1.0 / N)
    k1 = 2.0 * np.pi / L * m
    kd = 2.0 * np.pi / L * np.where(np.abs(m) == N // 2, 0.0, m)
    shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    kf = [k1.reshape(s) for s in shapes]
    ks = [kd.reshape(s) for s in shapes]  # first-derivative symbols
    k_sq = kf[0] ** 2 + kf[1] ** 2 + kf[2] ** 2
    inv = np.where(k_sq > 0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
    mask = np.abs(m) <= N / 3.0
    mask = mask.reshape(shapes[0]) & mask.reshape(shapes[1]) & mask.reshape(shapes[2])

    def real_ifft(hat):
        return np.real(np.fft.ifftn(hat))

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    fh = np.fft.fftn(f)
    grad = gradient(g, f)
    assert all(close(grad[i], real_ifft(1j * ks[i] * fh)) for i in range(3))
    uh = [np.fft.fftn(c) for c in u]
    kd_sq = ks[0] ** 2 + ks[1] ** 2 + ks[2] ** 2  # the projection's |k|^2
    phi = (ks[0] * uh[0] + ks[1] * uh[1] + ks[2] * uh[2]) * np.where(
        kd_sq > 0, 1.0 / np.where(kd_sq > 0, kd_sq, 1.0), 0.0)
    proj = leray_project(g, u)
    assert all(close(proj[i], real_ifft(uh[i] - ks[i] * phi)) for i in range(3))
    assert close(g.irfftn(g.poisson_hat(g.rfftn(f))), real_ifft(fh * inv))
    assert close(dealias(g, f * w), real_ifft(mask * np.fft.fftn(f * w)))


def _numpy_fft_users(tree: ast.Module) -> set:
    """Names of the top-level definitions of a module that reference
    numpy.fft: an attribute ``np.fft`` (under any alias of numpy), or an
    import of numpy.fft or of anything from it."""
    aliases = {"numpy"} | {a.asname for node in ast.walk(tree)
                           if isinstance(node, ast.Import)
                           for a in node.names if a.name == "numpy" and a.asname}
    users = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in aliases
                    or isinstance(node, ast.Import)
                    and any(a.name.startswith("numpy.fft") for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module
                    and (node.module.startswith("numpy.fft")
                         or node.module == "numpy"
                         and any(a.name == "fft" for a in node.names))):
                users.add(getattr(top, "name", f"line {top.lineno}"))
    return users


def test_every_transform_goes_through_grid():
    """In the package, numpy.fft appears only in Grid's methods, so
    counting Grid's transforms counts every transform the package makes."""
    users = {(path.name, name)
             for path in sorted(Path(cnsflow.__file__).parent.glob("*.py"))
             for name in _numpy_fft_users(ast.parse(path.read_text()))}
    assert users == {("grid_fields.py", "Grid")}
    # the scan sees every spelling of a numpy.fft use
    probe = ast.parse("import numpy as xp\ndef f(): return xp.fft.rfft(1)\n"
                      "def g():\n    from numpy.fft import rfft\n"
                      "def h():\n    from numpy import fft\nx = 1\n")
    assert _numpy_fft_users(probe) == {"f", "g", "h"}


def test_min_image_distance_wraps():
    g = Grid(16, 1.0)
    d2 = g.min_image_distance_sq((0.0, 0.0, 0.0))
    # the farthest point is the box center, at distance sqrt(3)/2
    assert abs(np.max(d2) - 0.75) < 1e-12


def test_min_image_distance_is_the_shortest_image():
    """Against the nearest of the 27 periodic images of every cell centre."""
    g = Grid(16, 2.0)
    x0 = np.array([0.3, 1.7, 0.05])
    d2 = g.min_image_distance_sq(tuple(x0))
    assert d2.shape == (16, 16, 16)
    c = np.stack(np.broadcast_arrays(*g.coords()))
    shifts = g.box_length * np.array(np.meshgrid(*[(-1, 0, 1)] * 3)).reshape(3, -1).T
    ref = np.min([np.sum((c + (s - x0)[:, None, None, None]) ** 2, axis=0)
                  for s in shifts], axis=0)
    assert np.max(np.abs(d2 - ref)) < 1e-12


def test_ball_mask_volume():
    g = Grid(64, 1.0)
    r = 0.2
    mask = ball_mask(g, (0.5, 0.5, 0.5), r)
    vol = np.sum(mask) * g.cell_volume
    exact = 4.0 * np.pi / 3.0 * r**3
    assert abs(vol - exact) / exact < 0.02


@pytest.mark.parametrize("n, box, radius", [
    (48, 1.0, 1.0 / 8.0),
    (32, 2.0 * np.pi, 3.0 * 2.0 * np.pi / 32),
    (48, 1.0, 1.0 / 16.0),
])
def test_ball_mask_same_stencil_at_every_grid_centre(n, box, radius):
    """Cells exactly on the sphere fall on the same side at every grid
    point; the centres run through every index on each axis."""
    g = Grid(n, box)
    base = ball_mask(g, (0.0, 0.0, 0.0), radius)
    q = round((radius / g.h) ** 2)
    off = np.arange(-n // 2, n // 2)
    lattice = np.sum(off[:, None, None] ** 2 + off[None, :, None] ** 2
                     + off[None, None, :] ** 2 < q)
    assert np.sum(base) == lattice
    for i in range(n):
        idx = (i, (5 * i + 3) % n, (11 * i + 7) % n)
        mask = ball_mask(g, tuple(j * g.h for j in idx), radius)
        assert np.array_equal(mask, np.roll(base, idx, axis=(0, 1, 2))), idx


def test_ball_mask_radius_cap():
    g = Grid(16, 1.0)
    with pytest.raises(CylinderRangeError):
        ball_mask(g, (0.5, 0.5, 0.5), 0.3)


@pytest.mark.parametrize("x0", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5), 0.5])
def test_ball_mask_needs_three_coordinates(x0):
    with pytest.raises(ValueError, match="three coordinates"):
        ball_mask(Grid(16, 1.0), x0, 0.1)


def test_ball_radius_zero_is_empty_and_negative_or_nan_raises():
    """Radius 0 is the empty ball (the innermost shell edge of `diagnose
    pressure`); a negative or NaN radius raises ValueError naming it, for
    the ball and for the cylinder, which also rejects 0."""
    g = Grid(16, 1.0)
    for x0 in ((0.5, 0.5, 0.5), (0.51, 0.52, 0.53)):
        assert not ball_mask(g, x0, 0.0).any()
    for radius in (-0.1, float("nan")):
        with pytest.raises(ValueError, match=f"got {radius}"):
            ball_mask(g, (0.5, 0.5, 0.5), radius)
    for radius in (-0.1, 0.0, float("nan")):
        with pytest.raises(ValueError, match=f"got {radius}"):
            ParabolicCylinder((0.5, 0.5, 0.5), 0.0, radius)


def test_cylinder_time_intervals():
    q = ParabolicCylinder((0.0, 0.0, 0.0), 0.0, 0.5)
    assert q.time_interval() == (-0.25, 0.0)
    qs = ParabolicCylinder((0.0, 0.0, 0.0), 0.0, 0.5, shifted=True)
    lo, hi = qs.time_interval()
    assert abs(lo - (-0.875 * 0.25)) < 1e-15
    assert abs(hi - 0.125 * 0.25) < 1e-15


def _integrals_only(traj, Q, fields):
    return cylinder_values(traj, Q, integrals=fields)


def _sups_only(traj, Q, fields):
    return cylinder_values(traj, Q, sups=fields)


def test_cylinder_fit_check():
    """ball_mask is the one box-fit check: cylinder_values, for integrals
    and for sups, refuses a radius above L/4 and accepts L/4 itself."""
    traj, _ = _const_traj(N=16, L=1.0)
    sqrt_n = catalog_fields(("sqrt_n", 1.0))
    for fn in (_integrals_only, _sups_only):
        fn(traj, ParabolicCylinder((0.5, 0.5, 0.5), 0.0, 0.25), sqrt_n)
        with pytest.raises(CylinderRangeError):
            fn(traj, ParabolicCylinder((0.5, 0.5, 0.5), 0.0, 0.26), sqrt_n)


def _const_traj(value=2.0, N=32, L=2.0):
    g = Grid(N, L)
    arr = np.full((N,) * 3, value)
    zeros = np.zeros((N,) * 3)
    states = [State(g, arr.copy(), zeros.copy(), np.zeros((3, N, N, N)),
                    zeros.copy(), t) for t in np.linspace(-1.0, 0.0, 11)]
    return Trajectory(states), g


def test_cylinder_time_integral_constant_field():
    traj, g = _const_traj()
    r = 0.4
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, r)
    n_itself = catalog_fields(("sqrt_n", 2.0))
    got = cylinder_values(traj, Q, integrals=n_itself)[0][0]
    mask = ball_mask(g, (1.0, 1.0, 1.0), r)
    exact = 2.0 * np.sum(mask) * g.cell_volume * r**2
    assert abs(got - exact) / exact < 1e-12


def test_cylinder_time_integral_partial_window():
    # time window clipped against the recorded span uses trapezoid weights:
    # for a field constant in time the answer is exact
    traj, g = _const_traj()
    Q = ParabolicCylinder((1.0, 1.0, 1.0), -0.05, 0.3)
    got = cylinder_values(traj, Q, integrals=catalog_fields(("sqrt_n", 2.0)))[0][0]
    mask = ball_mask(g, (1.0, 1.0, 1.0), 0.3)
    exact = 2.0 * np.sum(mask) * g.cell_volume * 0.09
    assert abs(got - exact) / exact < 1e-12


def test_integral_out_of_span_raises():
    traj, _ = _const_traj()
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 5.0, 0.3)
    with pytest.raises(CylinderRangeError):
        cylinder_values(traj, Q, integrals=catalog_fields(("sqrt_n", 1.0)))


def test_sup_out_of_span_raises():
    """The sup applies the integral's window rule: a window reaching
    before the first snapshot is rejected, not truncated."""
    g = Grid(16, 2.0)
    zeros = np.zeros((16,) * 3)
    states = [State(g, zeros.copy(), zeros.copy(), np.ones((3, 16, 16, 16)),
                    zeros.copy(), t) for t in np.linspace(-0.1, 0.0, 5)]
    traj = Trajectory(states)
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, 0.4)  # window (-0.16, 0]
    for fn in (_integrals_only, _sups_only):
        with pytest.raises(CylinderRangeError):
            fn(traj, Q, catalog_fields(("abs_u", 1.0)))
    # a NaN window lies in no span
    Q = ParabolicCylinder((1.0, 1.0, 1.0), float("nan"), 0.1)
    for fn in (_integrals_only, _sups_only):
        with pytest.raises(CylinderRangeError, match="outside recorded span"):
            fn(traj, Q, catalog_fields(("abs_u", 1.0)))


def test_cylinder_sup_picks_max():
    g = Grid(16, 2.0)
    zeros = np.zeros((16,) * 3)
    states = []
    for i, t in enumerate(np.linspace(-1.0, 0.0, 5)):
        u = np.zeros((3, 16, 16, 16))
        u[0] = float(i)  # |u| grows with time
        states.append(State(g, zeros.copy(), zeros.copy(), u, zeros.copy(), t))
    traj = Trajectory(states)
    Q = ParabolicCylinder((1.0, 1.0, 1.0), 0.0, 0.4)
    got = cylinder_values(traj, Q, sups=catalog_fields(("abs_u", 2.0)))[1][0]
    mask = ball_mask(g, (1.0, 1.0, 1.0), 0.4)
    exact = 16.0 * np.sum(mask) * g.cell_volume
    assert abs(got - exact) / exact < 1e-12


def test_array_passes_equal_scalar_passes(smooth_traj):
    """One pass over several integrands, integrals and sups together,
    gives, bit for bit, what one pass per integrand gives, and what the
    integrals-only and sups-only passes give."""
    Q = ParabolicCylinder((0.5, 0.5, 0.5), 0.06, 0.15)
    terms = (("grad_u_sq", 1.0), ("abs_u", 3.0), ("abs_p", 1.5),
             ("abs_n_ln_n", 1.0), ("sqrt_n", 2.0))

    def scalar(name, p):
        return lambda at: [gather(at.state.derived(name) ** p, at.cells)]

    both = catalog_fields(*terms)
    integrals, sups = cylinder_values(smooth_traj, Q, both, both)
    assert integrals.shape == sups.shape == (len(terms),)
    assert cylinder_values(smooth_traj, Q, integrals=both)[1] is None
    assert cylinder_values(smooth_traj, Q, sups=both)[0] is None
    assert np.all(integrals == _integrals_only(smooth_traj, Q, both)[0])
    assert np.all(sups == _sups_only(smooth_traj, Q, both)[1])
    for k, (name, p) in enumerate(terms):
        for one in (scalar(name, p), catalog_fields((name, p))):
            assert integrals[k] == _integrals_only(smooth_traj, Q, one)[0][0]
            assert sups[k] == _sups_only(smooth_traj, Q, one)[1][0]


def test_catalog_fields_rejects_unknown_integrand():
    with pytest.raises(UnknownIntegrandError):
        catalog_fields(("abs_u", 2.0), ("abs_v", 2.0))
