"""States, derived fields, and the parabolic rescaling."""

import numpy as np
import pytest

from cnsflow import Grid, State, Trajectory, rescale_state
from cnsflow.grid_fields import (
    INTEGRAND_NAMES,
    RescaleError,
    gradient,
    hessian_components,
    laplacian,
)
from cnsflow.state import EPS_FLOOR


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


def test_state_at_picks_nearest():
    states = [_state(t=t) for t in (0.0, 0.1, 0.2)]
    traj = Trajectory(states)
    assert traj.state_at(0.12).time == 0.1
    assert traj.state_at(0.19).time == 0.2


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
