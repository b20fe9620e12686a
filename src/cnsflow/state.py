"""Simulation states, trajectories, derived fields and the scaling transform."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid_fields import (
    Grid,
    RescaleError,
    _check_finite,
    gradient,
    hessian_components,
    laplacian,
)

#: Floor added under square roots so gradients of sqrt(n), sqrt(c) stay finite
#: at vacuum; perturbs the diagnostic integrals far below test tolerances.
EPS_FLOOR = 1e-14


def guarded_log(n: np.ndarray, w: float) -> np.ndarray:
    """log(w n) where n > 0 and 0 elsewhere, so n log(w n) is 0 at n = 0."""
    with np.errstate(divide="ignore"):
        return np.log(np.where(n > 0, w * n, 1.0))


class State:
    """One snapshot (n, c, u, P) at a fixed time.

    Derived fields (square roots, gradients, Hessians, entropy densities)
    are computed spectrally on demand and cached; states are treated as
    immutable after construction.
    """

    def __init__(self, grid: Grid, n, c, u, p, time: float):
        self.grid = grid
        self.n = np.asarray(n, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.u = np.asarray(u, dtype=float)  # shape (3, N, N, N)
        self.p = np.asarray(p, dtype=float)
        self.time = float(time)
        shape = (grid.n,) * 3
        if self.n.shape != shape or self.c.shape != shape or self.p.shape != shape:
            raise ValueError("scalar field shape mismatch")
        if self.u.shape != (3,) + shape:
            raise ValueError("velocity shape mismatch")
        for name in ("n", "c", "u", "p"):
            _check_finite(getattr(self, name), name)
        self._cache: dict[str, np.ndarray] = {}

    def derived(self, name: str) -> np.ndarray:
        if name in self._cache:
            return self._cache[name]
        arr = self._compute_derived(name)
        self._cache[name] = arr
        return arr

    def _compute_derived(self, name: str) -> np.ndarray:
        g = self.grid
        if name == "abs_u":
            return np.sqrt(np.sum(self.u**2, axis=0))
        if name == "grad_u_sq":
            out = np.zeros((g.n,) * 3)
            for comp in self.u:
                gv = gradient(g, comp)
                out += np.sum(gv**2, axis=0)
            return out
        if name == "sqrt_n":
            return np.sqrt(np.maximum(self.n, 0.0))
        if name == "sqrt_n_floored":
            return np.sqrt(np.maximum(self.n, 0.0) + EPS_FLOOR)
        if name == "grad_sqrt_n":
            return gradient(g, self.derived("sqrt_n_floored"))
        if name == "grad_sqrt_n_sq":
            return np.sum(self.derived("grad_sqrt_n") ** 2, axis=0)
        if name == "sqrt_c":
            return np.sqrt(np.maximum(self.c, 0.0))
        if name == "sqrt_c_floored":
            return np.sqrt(np.maximum(self.c, 0.0) + EPS_FLOOR)
        if name == "grad_sqrt_c":
            return gradient(g, self.derived("sqrt_c_floored"))
        if name == "abs_grad_sqrt_c":
            return np.sqrt(np.sum(self.derived("grad_sqrt_c") ** 2, axis=0))
        if name == "hess_sqrt_c_sq":
            hess = hessian_components(g, self.derived("sqrt_c_floored"))
            return sum(hess[(i, j)] ** 2 for i in range(3) for j in range(3))
        if name == "lap_sqrt_c":
            return laplacian(g, self.derived("sqrt_c_floored"))
        if name == "grad_c":
            return gradient(g, self.c)
        if name == "grad_sqrt_n1_sq":
            root = np.sqrt(np.maximum(self.n, 0.0) + 1.0)
            return np.sum(gradient(g, root) ** 2, axis=0)
        if name == "abs_p":
            return np.abs(self.p)
        if name == "n_ln_n":
            n = np.maximum(self.n, 0.0)
            return n * guarded_log(n, 1.0)
        if name == "abs_n_ln_n":
            return np.abs(self.derived("n_ln_n"))
        if name == "entropy_quartic":
            grad4 = np.sum(self.derived("grad_sqrt_c") ** 2, axis=0) ** 2
            return grad4 / (np.maximum(self.c, 0.0) + EPS_FLOOR)
        raise KeyError(f"no derived field {name!r}")


@dataclass
class InitialNorms:
    """Norms of the initial data entering the global energy bound."""

    n_l1: float
    c0_max: float
    u_l2: float
    grad_sqrt_c_l2: float
    n_entropy_l1: float  # integral of (n0+1) ln(n0+1)

    @classmethod
    def from_state(cls, s: State) -> "InitialNorms":
        vol = s.grid.cell_volume
        n = np.maximum(s.n, 0.0)
        return cls(
            n_l1=float(np.sum(n) * vol),
            c0_max=float(np.max(s.c)),
            u_l2=float(np.sqrt(np.sum(s.u**2) * vol)),
            grad_sqrt_c_l2=float(
                np.sqrt(np.sum(s.derived("grad_sqrt_c") ** 2) * vol)
            ),
            n_entropy_l1=float(np.sum((n + 1.0) * np.log1p(n)) * vol),
        )


class Trajectory:
    """Time-ordered snapshots on one grid with a uniform output interval."""

    def __init__(self, states: Sequence[State], params=None,
                 initial_norms: Optional[InitialNorms] = None):
        if not states:
            raise ValueError("trajectory needs at least one state")
        grid = states[0].grid
        if any(s.grid != grid for s in states):
            raise ValueError("all states must share one grid")
        times = np.array([s.time for s in states])
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.states = list(states)
        self.params = params
        self.initial_norms = initial_norms or InitialNorms.from_state(states[0])

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def state_at(self, t: float) -> State:
        """Snapshot closest to time t."""
        i = int(np.argmin(np.abs(self.times - t)))
        return self.states[i]


def _dyadic_exponent(rho0: float) -> int:
    m = math.log2(rho0)
    if abs(m - round(m)) > 1e-12 or round(m) < 0:
        raise RescaleError(f"rho0 must be 2^m with integer m >= 0, got {rho0}")
    return int(round(m))


def rescale_state(traj: Trajectory, rho0: float) -> Trajectory:
    """Apply the parabolic scaling: n -> rho0^2 n(rho0 x, rho0^2 t), c -> c,
    u -> rho0 u, P -> rho0^2 P.

    The grid samples are reused verbatim: the rescaled trajectory lives on
    a box of length L/rho0 with the same N, so every rescaled collocation
    point coincides with an original one and no interpolation occurs.
    """
    _dyadic_exponent(rho0)
    g = traj.grid
    new_grid = Grid(g.n, g.box_length / rho0)
    states = [
        State(
            new_grid,
            rho0**2 * s.n,
            s.c,
            rho0 * s.u,
            rho0**2 * s.p,
            s.time / rho0**2,
        )
        for s in traj.states
    ]
    return Trajectory(states, params=traj.params, initial_norms=traj.initial_norms)
