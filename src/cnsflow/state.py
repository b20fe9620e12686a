"""Simulation states, trajectories, derived fields and the scaling transform."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


def _floored_sqrt(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(a, 0.0) + EPS_FLOOR)


def guarded_log(n: np.ndarray, w: float) -> np.ndarray:
    """log(w n) where n > 0 and 0 elsewhere, so n log(w n) is 0 at n = 0."""
    with np.errstate(divide="ignore"):
        return np.log(np.where(n > 0, w * n, 1.0))


class State:
    """One snapshot (n, c, u, P) at a fixed time.

    ``derived(name)`` computes a field that some functional integrates
    (square roots, gradients, Hessians, entropy densities) spectrally on
    first use and caches it; intermediates such as the floored square
    roots are not kept.  States are immutable after construction.
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
        if name == "grad_sqrt_n_sq":
            return np.sum(gradient(g, _floored_sqrt(self.n)) ** 2, axis=0)
        if name == "grad_sqrt_c":
            return gradient(g, _floored_sqrt(self.c))
        if name == "abs_grad_sqrt_c":
            return np.sqrt(np.sum(self.derived("grad_sqrt_c") ** 2, axis=0))
        if name == "hess_sqrt_c_sq":
            hess = hessian_components(g, _floored_sqrt(self.c))
            return sum(hess[(i, j)] ** 2 for i in range(3) for j in range(3))
        if name == "lap_sqrt_c":
            return laplacian(g, _floored_sqrt(self.c))
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


def _polyder(coeffs) -> np.ndarray:
    return np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=float))


@dataclass(frozen=True)
class PhysParams:
    """The physics of a run: coupling coefficients and their norms.

    chi is a polynomial in the oxygen concentration (coefficients low to
    high); the consumption rate is tied to it by kappa(s) = theta0 * s * chi(s).
    The buoyancy force is -n grad_phi with constant grad_phi = (0, 0, -gravity).
    A trajectory carries its PhysParams, and ``trajectory.json`` records them.
    """

    theta0: float = 1.0
    chi_coeffs: tuple[float, ...] = (1.0,)
    gravity: float = 0.0
    c0_max: float = 1.0

    def __post_init__(self):
        if self.theta0 <= 0:
            raise ValueError("theta0 must be positive")
        object.__setattr__(self, "chi_coeffs", tuple(float(a) for a in self.chi_coeffs))
        self.validate_structure()

    def chi_eval(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("chi argument must be nonnegative")
        return np.polynomial.polynomial.polyval(s, self.chi_coeffs)

    def kappa_eval(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("kappa argument must be nonnegative")
        return self.theta0 * s * self.chi_eval(s)

    def validate_structure(self) -> None:
        """Check chi >= 0 and kappa convex nondecreasing at 1000 points of
        [0, c0_max]."""
        s = np.linspace(0.0, max(self.c0_max, 1e-12), 1000)
        if np.any(self.chi_eval(s) < -1e-12):
            raise ValueError("chi(s) must be nonnegative on [0, c0_max]")
        kappa = np.array([0.0] + [self.theta0 * a for a in self.chi_coeffs])
        dk = np.polynomial.polynomial.polyval(s, _polyder(kappa))
        ddk = np.polynomial.polynomial.polyval(s, _polyder(_polyder(kappa)))
        if np.any(dk < -1e-12) or np.any(ddk < -1e-12):
            raise ValueError("kappa must be nondecreasing and convex on [0, c0_max]")

    @cached_property
    def chi_norm(self) -> float:
        """Sum of the sup norms on [0, c0_max] of chi and its first two
        derivatives."""
        s = np.linspace(0.0, max(self.c0_max, 1e-12), 1000)
        c = np.asarray(self.chi_coeffs, dtype=float)
        total = 0.0
        for _ in range(3):
            total += float(np.max(np.abs(np.polynomial.polynomial.polyval(s, c))))
            c = _polyder(c) if len(c) > 1 else np.zeros(1)
        return total


class Trajectory:
    """Snapshots on one grid at strictly increasing times, and the physics
    that produced them.  The intervals between snapshots need not be
    equal: a run whose step count is not a multiple of its output stride
    ends with a shorter one.  ``times`` is read from the states once, when
    the trajectory is built; to shift the states' times, build a new
    trajectory from them."""

    def __init__(self, states: Sequence[State], params: PhysParams = PhysParams()):
        if not states:
            raise ValueError("trajectory needs at least one state")
        grid = states[0].grid
        if any(s.grid != grid for s in states):
            raise ValueError("all states must share one grid")
        self.times = np.array([s.time for s in states])
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.states = list(states)
        self.params = params
        #: solver health of the run that produced the states, when known
        self.run_log: Optional[dict] = None

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

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
    return Trajectory(states, params=traj.params)
