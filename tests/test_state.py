"""States, derived fields, and the parabolic rescaling."""

import gc
import weakref

import numpy as np
import pytest

from cnsflow import (
    Grid,
    ParabolicCylinder,
    PhysParams,
    RegularityConfig,
    SimulationConfig,
    State,
    Trajectory,
    ball_mask,
    compute_quantities,
    flag_sweep,
    global_energy_check,
    initial_state,
    lei_residual,
    rescale_state,
    simulate,
    smooth_bump,
)
from cnsflow.grid_fields import (
    INTEGRAND_NAMES,
    RescaleError,
    gradient,
    laplacian,
)
from cnsflow.state import EPS_FLOOR, POINTWISE, TRANSFORMED, guarded_log
from conftest import hessian_components


def _state(N=16, L=1.0, n=None, c=None, u=None, t=0.0):
    g = Grid(N, L)
    shape = (N,) * 3
    return State(
        g,
        np.zeros(shape) if n is None else n,
        np.zeros(shape) if c is None else c,
        np.zeros((3,) + shape) if u is None else u,
        np.zeros(shape),
        t,
    )


def test_entropy_density_vanishes_at_zero_and_one():
    s = _state(n=np.zeros((16,) * 3))
    assert np.max(np.abs(s.derived("n_ln_n"))) == 0.0
    s = _state(n=np.ones((16,) * 3))
    assert np.max(np.abs(s.derived("n_ln_n"))) == 0.0


def test_entropy_density_value():
    s = _state(n=np.full((16,) * 3, 2.0))
    assert np.allclose(s.derived("n_ln_n"), 2.0 * np.log(2.0))


def test_constant_concentration_has_no_gradients():
    s = _state(c=np.full((16,) * 3, 0.7))
    assert np.max(np.abs(s.derived("grad_sqrt_c"))) < 1e-12
    assert np.max(np.abs(s.derived("hess_sqrt_c_sq"))) < 1e-12
    assert np.max(s.derived("entropy_quartic")) < 1e-12


def _seeded_state(N=8):
    """Rough seeded fields, with negative n and c cells to floor."""
    rng = np.random.default_rng(17)
    shape = (N,) * 3
    return State(Grid(N, 1.0), rng.normal(1.0, 0.6, shape),
                 rng.uniform(-0.1, 1.0, shape), rng.normal(size=(3,) + shape),
                 rng.normal(size=shape), 0.0)


def test_floored_intermediates_are_not_derived_fields():
    s = _seeded_state()
    for name in ("sqrt_n_floored", "sqrt_c_floored", "grad_sqrt_n"):
        with pytest.raises(KeyError):
            s.derived(name)


@pytest.mark.parametrize("name", INTEGRAND_NAMES + (
    "grad_sqrt_c", "grad_c", "lap_sqrt_c", "n_ln_n", "grad_sqrt_n1_sq"))
def test_derived_fields_are_finite_with_their_shape(name):
    s = _seeded_state()
    a = s.derived(name)
    vector = name in ("grad_sqrt_c", "grad_c")
    assert a.shape == ((3,) if vector else ()) + (8, 8, 8)
    assert np.all(np.isfinite(a))


def test_floored_root_derivatives_are_bitwise_their_operators():
    s = _seeded_state()
    g = s.grid
    root_n, root_c = (np.sqrt(np.maximum(a, 0.0) + EPS_FLOOR) for a in (s.n, s.c))
    hess = hessian_components(g, root_c)
    expected = {
        "grad_sqrt_n_sq": np.sum(gradient(g, root_n) ** 2, axis=0),
        "grad_sqrt_c": gradient(g, root_c),
        "hess_sqrt_c_sq": sum(hess[(i, j)] ** 2 for i in range(3) for j in range(3)),
        "lap_sqrt_c": laplacian(g, root_c),
    }
    for name, ref in expected.items():
        assert np.array_equal(s.derived(name), ref), name


def _smooth_state(N=32):
    cfg = SimulationConfig(grid_n=N, grid_l=1.0, dt=2e-4, seed=4,
                           init={"preset": "random_smooth", "amplitude": 0.5, "modes": 4})
    return initial_state(cfg, PhysParams(theta0=1.0, chi_coeffs=(0.5,)))


@pytest.mark.parametrize("make", [_seeded_state, _smooth_state])
def test_squared_derivative_sums_are_bitwise_the_stacked_forms(make):
    """The squared-derivative fields, summed in place into one array, are
    bitwise the stacked sums they replace: the same terms in the same
    order, ``np.sum(... ** 2, axis=0)`` adding its components left to
    right and ``sum`` starting from 0."""
    s = make()
    g = s.grid

    def grad_sq(a):
        return np.sum(gradient(g, a) ** 2, axis=0)

    hess = hessian_components(g, np.sqrt(np.maximum(s.c, 0.0) + EPS_FLOOR))
    stacked = {
        "grad_u_sq": sum(grad_sq(comp) for comp in s.u),
        "grad_sqrt_n_sq": grad_sq(np.sqrt(np.maximum(s.n, 0.0) + EPS_FLOOR)),
        "hess_sqrt_c_sq": sum(hess[(i, j)] ** 2 for i in range(3) for j in range(3)),
        "grad_sqrt_n1_sq": grad_sq(np.sqrt(np.maximum(s.n, 0.0) + 1.0)),
    }
    for name, ref in stacked.items():
        assert np.array_equal(s.derived(name), ref), name


def test_pointwise_fields_on_any_cells_are_the_whole_grid_ones():
    """Each pointwise field, on a ball's flat indices and on the whole
    grid, is bitwise its whole-grid formula gathered on those cells, and
    none is cached."""
    s = _seeded_state()
    n, c = np.maximum(s.n, 0.0), np.maximum(s.c, 0.0)
    gsc_sq = np.sum(s.derived("grad_sqrt_c") ** 2, axis=0)
    n_ln_n = n * guarded_log(n, 1.0)
    whole = {
        "abs_u": np.sqrt(np.sum(s.u**2, axis=0)),
        "sqrt_n": np.sqrt(n),
        "abs_p": np.abs(s.p),
        "n_ln_n": n_ln_n,
        "abs_n_ln_n": np.abs(n_ln_n),
        "abs_grad_sqrt_c": np.sqrt(gsc_sq),
        "entropy_quartic": gsc_sq**2 / (c + EPS_FLOOR),
    }
    assert set(whole) == set(POINTWISE)
    mask = ball_mask(s.grid, (0.25, 0.5, 0.625), 0.2)
    flat = np.flatnonzero(mask)
    for name, ref in whole.items():
        assert np.array_equal(s.derived(name), ref), name
        assert np.array_equal(s.on(flat)(name), ref.ravel()[flat]), name
        assert np.array_equal(s.on(slice(None))(name), ref), name
    assert set(s._cache) == {"grad_sqrt_c"}


def test_cells_as_a_boolean_mask_are_refused():
    """``np.take`` reads a boolean mask as the flat indices 0 and 1, so a
    mask is refused; its flat indices read the masked values."""
    s = _seeded_state()
    mask = ball_mask(s.grid, (0.25, 0.5, 0.625), 0.2)
    with pytest.raises(TypeError, match="flatnonzero"):
        s.on(mask)("n")
    assert np.array_equal(s.on(np.flatnonzero(mask))("n"), s.n[mask])


def test_fields_on_cells_are_freed_without_the_cycle_collector():
    """What ``State.on`` forms is freed as soon as it is dropped: a
    whole-grid pointwise field left to the cycle collector stayed alive
    across pipeline rounds and raised their peak RSS."""
    s = _seeded_state()
    gc.disable()
    try:
        at = s.on(slice(None))
        refs = [weakref.ref(at(name)) for name in POINTWISE]
        del at
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_states_cache_only_transformed_fields():
    """After every functional of the pipeline on a 32^3 run like the
    benchmark's (9 snapshots, radii 2h and 4h, a stride-4 thm13 sweep, the
    LEI bump), each state caches only derived fields that take a
    transform, all seven are in use, and the caches hold at most 24 MB
    (21.5 MB measured; 36.4 MB when the pointwise fields were cached
    too)."""
    params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
    cfg = SimulationConfig(grid_n=32, grid_l=1.0, dt=5e-4, t_end=0.02, output_stride=5,
                           order=2, seed=7,
                           init={"preset": "random_smooth", "amplitude": 0.05,
                                 "n_mean": 1.0, "c0": 1.0, "modes": 2})
    traj = simulate(cfg, params)
    t, x0 = float(traj.times[-1]), (0.5, 0.5, 0.5)
    for r in (0.0625, 0.125):
        compute_quantities(traj, ParabolicCylinder(x0, t, r))
    global_energy_check(traj)
    lei_residual(traj, smooth_bump(0.125, 0.01), t, x0, 0.25)
    axis = np.arange(0, 32, 4) / 32
    centers = np.array([(a, b, c, t) for a in axis for b in axis for c in axis])
    flag_sweep(traj, centers, (0.0625, 0.125), RegularityConfig(), criterion="thm13")
    keys = [set(s._cache) for s in traj.states]
    assert set().union(*keys) == set(TRANSFORMED) == {
        "grad_u_sq", "grad_sqrt_n_sq", "grad_sqrt_c", "hess_sqrt_c_sq", "lap_sqrt_c",
        "grad_c", "grad_sqrt_n1_sq"}
    assert sum(a.nbytes for s in traj.states for a in s._cache.values()) <= 24e6


def test_velocity_magnitude():
    u = np.zeros((3, 16, 16, 16))
    u[0], u[1] = 3.0, 4.0
    s = _state(u=u)
    assert np.allclose(s.derived("abs_u"), 5.0)


def test_nonfinite_fields_rejected():
    n = np.zeros((16,) * 3)
    n[0, 0, 0] = np.nan
    with pytest.raises(Exception):
        _state(n=n)


def test_trajectory_requires_increasing_times():
    a, b = _state(t=0.0), _state(t=0.0)
    with pytest.raises(ValueError):
        Trajectory([a, b])


def test_nearest_picks_nearest():
    states = [_state(t=t) for t in (0.0, 0.1, 0.2)]
    traj = Trajectory(states)
    assert traj.states[traj.nearest(0.12)].time == 0.1
    assert traj.states[traj.nearest(0.19)].time == 0.2


def test_rescale_requires_dyadic():
    traj = Trajectory([_state(t=0.0), _state(t=0.1)])
    with pytest.raises(RescaleError):
        rescale_state(traj, 3.0)


def test_rescale_transforms_fields():
    N = 16
    rng = np.random.default_rng(5)
    n = rng.uniform(0.5, 1.5, (N,) * 3)
    traj = Trajectory([_state(n=n, t=0.0), _state(n=n, t=0.1)])
    scaled = rescale_state(traj, 2.0)
    assert scaled.grid.box_length == 0.5
    assert np.allclose(scaled.states[0].n, 4.0 * n)
    assert abs(scaled.states[1].time - 0.025) < 1e-15
