"""Simulation states, trajectories, derived fields and the scaling transform."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .grid_fields import (
    Grid,
    RescaleError,
    _check_finite,
    gradient,
    laplacian,
    second_derivative,
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


def _abs(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(v**2, axis=0))


def _sum_into(out: np.ndarray, arrays) -> np.ndarray:
    """Add ``arrays`` into ``out`` in their order, bitwise their
    left-to-right sum, with no stacked temporary.  Callers allocate
    ``out`` before the arrays, so the long-lived result lies below their
    temporaries and the heap can give those pages back: with the first
    array as the output, the benchmark's 32^3 pipeline peaked 1.5 MB
    higher."""
    it = iter(arrays)
    np.copyto(out, next(it))
    for a in it:
        out += a
    return out


def _squared(a: np.ndarray) -> np.ndarray:
    return np.square(a, out=a)


def _grad_sq(g: Grid, a: np.ndarray) -> np.ndarray:
    """|grad a|^2: the squares of d_0 a, d_1 a, d_2 a, in that order."""
    out = np.empty(a.shape)
    fh = g.rfftn(a)
    return _sum_into(out, (_squared(g.irfftn(ik * fh)) for ik in g.ik))


def _hess_sq(g: Grid, a: np.ndarray) -> np.ndarray:
    """|Hess a|^2: the squares of the nine d_i d_j a in row-major (i, j)
    order; a mirrored square is made once and kept until its second use."""
    out = np.empty(a.shape)
    fh = g.rfftn(a)
    mirrored = {}

    def square(i, j):
        if i > j:
            return mirrored.pop((j, i))
        sq = _squared(second_derivative(g, fh, i, j))
        if i < j:
            mirrored[(i, j)] = sq
        return sq

    return _sum_into(out, (square(i, j) for i in range(3) for j in range(3)))


def _n_ln_n(n: np.ndarray) -> np.ndarray:
    n = np.maximum(n, 0.0)
    return n * guarded_log(n, 1.0)


#: The derived fields that take a transform: name -> its form on a state.
#: Made on the whole grid on first use and cached by the state.
TRANSFORMED = {
    "grad_u_sq": lambda s: _sum_into(np.empty(s.n.shape),
                                      (_grad_sq(s.grid, comp) for comp in s.u)),
    "grad_sqrt_n_sq": lambda s: _grad_sq(s.grid, _floored_sqrt(s.n)),
    "grad_sqrt_c": lambda s: gradient(s.grid, _floored_sqrt(s.c)),
    "hess_sqrt_c_sq": lambda s: _hess_sq(s.grid, _floored_sqrt(s.c)),
    "lap_sqrt_c": lambda s: laplacian(s.grid, _floored_sqrt(s.c)),
    "grad_c": lambda s: gradient(s.grid, s.c),
    "grad_sqrt_n1_sq": lambda s: _grad_sq(s.grid, np.sqrt(np.maximum(s.n, 0.0) + 1.0)),
}

#: The derived fields that are elementwise in the base arrays and the
#: cached ``grad_sqrt_c``: name -> (the arrays it reads, its form).  They
#: are formed on the cells a functional reads (``State.on``), never cached.
POINTWISE = {
    "abs_u": (("u",), _abs),
    "sqrt_n": (("n",), lambda n: np.sqrt(np.maximum(n, 0.0))),
    "abs_p": (("p",), np.abs),
    "n_ln_n": (("n",), _n_ln_n),
    "abs_n_ln_n": (("n",), lambda n: np.abs(_n_ln_n(n))),
    "abs_grad_sqrt_c": (("grad_sqrt_c",), _abs),
    "entropy_quartic": (("grad_sqrt_c", "c"), lambda g, c: np.sum(g**2, axis=0) ** 2
                        / (np.maximum(c, 0.0) + EPS_FLOOR)),
}


class State:
    """One snapshot (n, c, u, P) at a fixed time.

    Derived fields are of two kinds: the ``TRANSFORMED`` ones are computed
    on the whole grid on first use and cached (the floored square roots
    they start from are not kept); the ``POINTWISE`` ones are formed on
    the cells asked for (``on``) and never cached.  ``derived(name)``
    returns either on the whole grid.  States are immutable after
    construction.
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
        """The derived field ``name`` on the whole grid."""
        if name in POINTWISE:
            return self.on(slice(None))(name)
        if name not in self._cache:
            self._cache[name] = TRANSFORMED[name](self)
        return self._cache[name]

    def on(self, cells) -> _OnCells:
        """The one way a functional reads a snapshot: ``at(name)``, a base
        array (n, c, u, p) or derived field on ``cells`` (flat indices, or
        ``slice(None)`` for the whole grid), each gathered or formed once."""
        return _OnCells(self, cells)


def gather(a: np.ndarray, cells) -> np.ndarray:
    """The values of a field (last three axes the grid) on ``cells``: flat
    indices, in their order, or ``slice(None)`` for ``a`` itself.  A
    boolean mask is refused: ``np.take`` would read it as the indices 0, 1."""
    if isinstance(cells, slice):
        return a
    if np.asarray(cells).dtype == bool:
        raise TypeError("cells is a boolean mask; pass np.flatnonzero(mask)")
    return np.take(a.reshape(a.shape[:-3] + (-1,)), cells, axis=-1)


class _OnCells:
    """``State.on``'s ``at``: a callable, not a closure, so that what it
    has gathered is freed with it and not left to the cycle collector."""

    def __init__(self, state: State, cells):
        self.state, self.cells, self.got = state, cells, {}

    def __call__(self, name: str) -> np.ndarray:
        if name not in self.got:
            if name in POINTWISE:
                reads, form = POINTWISE[name]
                self.got[name] = form(*map(self, reads))
            else:
                s = self.state
                a = getattr(s, name) if name in ("n", "c", "u", "p") else s.derived(name)
                self.got[name] = gather(a, self.cells)
        return self.got[name]


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


class StoredStates(Sequence):
    """The read-only states of an on-disk trajectory, known at first by
    their headers alone: ``heads`` holds each one's (grid, time).  State i
    is made by ``read(i)`` the first time it is indexed, then kept for the
    sequence's lifetime."""

    def __init__(self, heads: list, read: Callable[[int], State]):
        self.heads, self._read, self._kept = heads, read, {}

    def __len__(self) -> int:
        return len(self.heads)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        if i not in self._kept:
            self._kept[i] = self._read(i)
        return self._kept[i]


class Trajectory:
    """Snapshots on one grid at strictly increasing times, and the physics
    that produced them.  The intervals between snapshots need not be
    equal: a run whose step count is not a multiple of its output stride
    ends with a shorter one.

    ``states`` is the one way to get a state: a list for a trajectory
    built in memory, a ``StoredStates`` for one opened by
    ``read_trajectory``, which reads each snapshot on first use.  ``grid``
    and ``times`` are taken once, when the trajectory is built, from the
    states or the stored headers; to shift the states' times, build a new
    trajectory from them."""

    def __init__(self, states: Sequence[State], params: PhysParams = PhysParams()):
        if not states:
            raise ValueError("trajectory needs at least one state")
        stored = isinstance(states, StoredStates)
        heads = states.heads if stored else [(s.grid, s.time) for s in states]
        self.grid = heads[0][0]
        if any(g != self.grid for g, _ in heads):
            raise ValueError("all states must share one grid")
        self.times = np.array([t for _, t in heads])
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.states = states if stored else list(states)
        self.params = params
        #: solver health of the run that produced the states, when known
        self.run_log: Optional[dict] = None

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
