"""Periodic-box fields with spectral calculus and parabolic-cylinder quadrature.

All fields live on a uniform N^3 grid over the torus [0, L)^3 with
cell-centered collocation points, as plain arrays: (N, N, N) for a
scalar, (3, N, N, N) for a vector.  Every spectral operator is a
function of (grid, array) that returns an array.  Derivatives are
Fourier multipliers, so they are exact for band-limited data.
Space-time integrals over parabolic cylinders use a binary ball mask
(minimum-image distance) in space and the trapezoid rule on the
piecewise-linear-in-time interpolant of the spatial integral.  Two
primitives, ``cylinder_time_integral`` and ``cylinder_sup``, are the only
code that decides which cells and snapshots make up a cylinder; each
builds the mask and the window once for any number of integrands.  Their
time window, and the local energy inequality's, follow one rule,
``_window_overlaps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class NonFiniteFieldError(ValueError):
    """A field contains NaN or Inf."""


class UnknownIntegrandError(ValueError):
    """Integrand name is not in the fixed catalog."""


class CylinderRangeError(ValueError):
    """Cylinder does not fit in the box or the recorded time span."""


class RescaleError(ValueError):
    """Unsupported rescaling factor."""


def _check_finite(values: np.ndarray, what: str = "field") -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
        raise NonFiniteFieldError(f"{what} has {bad} non-finite entries")


class Grid:
    """Uniform periodic grid on [0, L)^3 with N cells per axis.

    Also the spectral operator layer: real transforms onto the half
    spectrum (last axis 0..N/2), the Fourier symbols every spectral
    operation uses (built on first use and cached), one Leray projection
    and one Poisson solve.
    """

    def __init__(self, n: int, box_length: float):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"need even N >= 8, got {n}")
        if box_length <= 0:
            raise ValueError("box_length must be positive")
        self.n = int(n)
        self.box_length = float(box_length)
        self.h = self.box_length / self.n
        x1 = self.h * np.arange(self.n)
        self.x = x1.reshape(-1, 1, 1)
        self.y = x1.reshape(1, -1, 1)
        self.z = x1.reshape(1, 1, -1)
        self.cell_volume = self.h**3

    # -- spectral operator layer --------------------------------------------
    def rfftn(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum transform of real samples (last three axes)."""
        return np.fft.rfftn(values, axes=(-3, -2, -1))

    def irfftn(self, hat: np.ndarray) -> np.ndarray:
        """Real N^3 samples of a half spectrum (inverse of ``rfftn``)."""
        return np.fft.irfftn(hat, s=(self.n,) * 3, axes=(-3, -2, -1))

    @cached_property
    def _k_full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        kz = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)
        return k1.reshape(-1, 1, 1), k1.reshape(1, -1, 1), kz.reshape(1, 1, -1)

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First-derivative wavenumbers with the Nyquist entry zeroed (the
        odd symbol i k has no real Nyquist mode)."""
        k_nyq = np.max(np.abs(self._k_full[0]))
        return tuple(np.where(np.abs(k) < k_nyq, k, 0.0) for k in self._k_full)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2, Nyquist modes included."""
        return sum(k**2 for k in self._k_full)

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1/|k|^2, with 0 at k = 0 (the zero-mean inverse Laplacian)."""
        return np.divide(1.0, self.k_sq, out=np.zeros_like(self.k_sq),
                         where=self.k_sq > 0)

    @cached_property
    def inv_kd_sq(self) -> np.ndarray:
        """1/|k|^2 of the Nyquist-zeroed ``k`` (0 where that vanishes), so
        the projection divides by the symbol it differentiates with."""
        kd_sq = sum(k**2 for k in self.k)
        return np.divide(1.0, kd_sq, out=np.zeros_like(kd_sq), where=kd_sq > 0)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask."""
        lim = (2.0 / 3.0) * np.max(np.abs(self._k_full[0]))
        kx, ky, kz = (np.abs(k) <= lim for k in self._k_full)
        return kx & ky & kz

    def project_hat(self, u_hat: np.ndarray) -> np.ndarray:
        """Leray projection u - k (k . u)/|k|^2 of a (3, ...) half spectrum,
        with the Nyquist-zeroed ``k`` throughout, so k . (P u) = 0 exactly."""
        phi = sum(k * h for k, h in zip(self.k, u_hat)) * self.inv_kd_sq
        return np.stack([h - k * phi for k, h in zip(self.k, u_hat)])

    def poisson_hat(self, rhs_hat: np.ndarray) -> np.ndarray:
        """Zero-mean periodic solution of -Delta p = rhs, in Fourier space."""
        return rhs_hat * self.inv_k_sq

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.box_length == other.box_length
        )

    def __hash__(self):
        return hash((self.n, self.box_length))

    def __repr__(self):
        return f"Grid(n={self.n}, box_length={self.box_length})"

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable cell-center coordinate arrays."""
        return self.x, self.y, self.z

    def min_image_offsets(self, x0: Sequence[float]) -> np.ndarray:
        """Periodic displacement from x0 to every cell center, each
        component in [-L/2, L/2], shape (3, N, N, N)."""
        L = self.box_length
        return np.stack(np.broadcast_arrays(*(
            np.mod(c - x0i + 0.5 * L, L) - 0.5 * L
            for c, x0i in zip(self.coords(), x0)
        )))

    def min_image_distance_sq(self, x0: Sequence[float]) -> np.ndarray:
        """Squared periodic distance from every cell center to x0."""
        return np.sum(self.min_image_offsets(x0) ** 2, axis=0)


@dataclass(frozen=True)
class ParabolicCylinder:
    """Q_r(z0) = B_r(x0) x (t0 - r^2, t0), or the time-shifted variant
    Q* = B_r x (t0 - (7/8) r^2, t0 + (1/8) r^2)."""

    center_x: tuple[float, float, float]
    center_t: float
    radius: float
    shifted: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center_x", tuple(float(v) for v in self.center_x))

    def time_interval(self) -> tuple[float, float]:
        r2 = self.radius**2
        if self.shifted:
            return (self.center_t - 0.875 * r2, self.center_t + 0.125 * r2)
        return (self.center_t - r2, self.center_t)

    def check_fits(self, grid: Grid) -> None:
        if 2.0 * self.radius > 0.5 * grid.box_length:
            raise CylinderRangeError(
                f"cylinder radius {self.radius} too large for box {grid.box_length}"
            )


def _spacetime_points(points) -> np.ndarray:
    """A set of spacetime points as a float (m, 4) array, one row
    (x0, x1, x2, t) per point; any other shape, or a non-finite coordinate,
    raises ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(
            f"expected an (m, 4) array of (x0, x1, x2, t) rows, got shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise ValueError(
            f"point row {bad[0]} has a non-finite coordinate: {pts[bad[0]].tolist()}")
    return pts


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------

def gradient(g: Grid, f: np.ndarray) -> np.ndarray:
    """Spectral gradient, shape (3, N, N, N); exact for band-limited fields."""
    fh = g.rfftn(f)
    return np.stack([g.irfftn(1j * k * fh) for k in g.k])


def divergence(g: Grid, v: np.ndarray) -> np.ndarray:
    """Spectral divergence of a (3, N, N, N) field."""
    return g.irfftn(sum(1j * k * g.rfftn(c) for k, c in zip(g.k, v)))


def laplacian(g: Grid, f: np.ndarray) -> np.ndarray:
    return g.irfftn(-g.k_sq * g.rfftn(f))


def hessian_components(g: Grid, f: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """All nine second derivatives d_i d_j f (symmetric; computed once per
    pair); the diagonal keeps the Nyquist modes, like the Laplacian."""
    fh = g.rfftn(f)
    out = {}
    for i in range(3):
        for j in range(i, 3):
            sym = -g._k_full[i] ** 2 if i == j else -g.k[i] * g.k[j]
            out[(i, j)] = out[(j, i)] = g.irfftn(sym * fh)
    return out


def leray_project(g: Grid, v: np.ndarray) -> np.ndarray:
    """Remove the gradient part of a (3, N, N, N) field:
    P u = u - grad(Delta^-1 div u)."""
    return g.irfftn(g.project_hat(g.rfftn(v)))


def dealias(grid: Grid, values: np.ndarray) -> np.ndarray:
    """2/3-rule truncation of a physical-space array."""
    return grid.irfftn(grid.dealias_mask * grid.rfftn(values))


def spectral_upsample(grid: Grid, values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of a field onto a factor-times-finer grid."""
    if factor == 1:
        return np.array(values)
    n, m = grid.n, grid.n * factor
    fh = np.fft.fftn(values)
    out = np.zeros((m, m, m), dtype=complex)
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    out[np.ix_(idx, idx, idx)] = fh
    return np.real(np.fft.ifftn(out)) * factor**3


# ---------------------------------------------------------------------------
# cylinder quadrature
# ---------------------------------------------------------------------------

def ball_mask(grid: Grid, x0: Sequence[float], radius: float) -> np.ndarray:
    """Binary in/out mask of B_r(x0) under the minimum-image convention.

    A grid-point centre gets the integer-offset stencil |offset|^2 <
    (r/h)^2 (rounded when integer to rounding), the same at every grid
    point; other centres use floating minimum-image distances."""
    if 2.0 * radius > 0.5 * grid.box_length:
        raise CylinderRangeError(
            f"ball radius {radius} exceeds box_length/4 = {grid.box_length / 4}"
        )
    index = np.asarray(x0, dtype=float) / grid.h
    if np.any(np.abs(index - np.round(index)) > 1e-9):
        return grid.min_image_distance_sq(x0) < radius**2
    q = (radius / grid.h) ** 2
    q = round(q) if abs(q - round(q)) < 1e-9 else q
    n = grid.n
    ox, oy, oz = (((np.arange(n) - int(i) + n // 2) % n - n // 2) ** 2
                  for i in np.round(index))
    return ox[:, None, None] + oy[None, :, None] + oz[None, None, :] < q


#: Fixed integrand catalog: the |.| quantities of the cylinder functionals,
#: each a derived field of ``State``; ``ball_integrals`` applies the powers.
INTEGRAND_NAMES = (
    "abs_u",
    "grad_u_sq",
    "abs_grad_sqrt_c",
    "hess_sqrt_c_sq",
    "sqrt_n",
    "grad_sqrt_n_sq",
    "abs_p",
    "abs_n_ln_n",
    "entropy_quartic",
)


def ball_integrals(*integrands: tuple[str, float]) -> Callable:
    """The ``spatial(state, mask)`` of catalog integrands: for each
    (name, power) the ball integral of that integrand to that power, as
    one array in the order given."""
    for name, _ in integrands:
        if name not in INTEGRAND_NAMES:
            raise UnknownIntegrandError(f"unknown integrand {name!r}")

    def spatial(state, mask):
        vol = state.grid.cell_volume
        return np.array([np.sum(state.derived(name)[mask] ** p) * vol
                         for name, p in integrands])

    return spatial


def _window_overlaps(times: np.ndarray, t_lo: float, t_hi: float):
    """The one rule for which recorded times a window (t_lo, t_hi) uses.

    Raises CylinderRangeError unless the window lies in the recorded span
    up to the tolerance eps = 1e-12 max(1, span).  Returns the overlaps
    (i, a, b), a < b, of the window with each snapshot interval
    [t_i, t_{i+1}], and eps.
    """
    eps = 1e-12 * max(1.0, abs(times[-1] - times[0]))
    if t_lo < times[0] - eps or t_hi > times[-1] + eps:
        raise CylinderRangeError(
            f"time window ({t_lo}, {t_hi}) outside recorded span "
            f"({times[0]}, {times[-1]})"
        )
    a = np.maximum(times[:-1], t_lo)
    b = np.minimum(times[1:], t_hi)
    return [(i, a[i], b[i]) for i in np.flatnonzero(b > a).tolist()], eps


def _ball_and_window(traj, Q: ParabolicCylinder):
    """Q's ball mask, the recorded times and Q's time interval: which
    cells and snapshots make up Q."""
    Q.check_fits(traj.grid)
    mask = ball_mask(traj.grid, Q.center_x, Q.radius)
    return mask, traj.times, *Q.time_interval()


def _interval_segments(
    times: np.ndarray, t_lo: float, t_hi: float
) -> list[tuple[int, float, float]]:
    """Segments (i, w_i, w_{i+1}) so that the integral of the linear
    interpolant of g over [t_lo, t_hi] is sum(w_i g_i + w_{i+1} g_{i+1})."""
    out = []
    for i, a, b in _window_overlaps(times, t_lo, t_hi)[0]:
        delta = times[i + 1] - times[i]
        la = (a - times[i]) / delta
        lb = (b - times[i]) / delta
        mid = 0.5 * (la + lb)
        out.append((i, (b - a) * (1.0 - mid), (b - a) * mid))
    if not out:
        raise CylinderRangeError("no snapshots overlap the cylinder time window")
    return out


def cylinder_time_integral(traj, Q: ParabolicCylinder, spatial: Callable):
    """Time integral over Q's window of ``spatial(state, mask)``.

    ``spatial`` maps a snapshot plus the ball mask to a real number or to
    an array; the time rule integrates the piecewise-linear interpolant of
    each component, so one pass (one mask, one window) serves any number
    of integrands.  Returns a float or an array of the same shape.
    """
    mask, times, t_lo, t_hi = _ball_and_window(traj, Q)
    segments = _interval_segments(times, t_lo, t_hi)
    needed = sorted({i for seg in segments for i in (seg[0], seg[0] + 1)})
    g = {i: np.asarray(spatial(traj.states[i], mask), dtype=float) for i in needed}
    total = sum(w0 * g[i] + w1 * g[i + 1] for i, w0, w1 in segments)
    return float(total) if np.ndim(total) == 0 else total


def cylinder_sup(traj, Q: ParabolicCylinder, spatial: Callable):
    """Componentwise max of ``spatial(state, mask)`` over the recorded
    snapshots in Q's time window; a float or an array like ``spatial``'s."""
    mask, times, t_lo, t_hi = _ball_and_window(traj, Q)
    eps = _window_overlaps(times, t_lo, t_hi)[1]
    idx = [i for i, t in enumerate(times) if t_lo - eps <= t <= t_hi + eps]
    if not idx:
        raise CylinderRangeError("no snapshots in the cylinder time window")
    best = np.max([spatial(traj.states[i], mask) for i in idx], axis=0)
    return float(best) if np.ndim(best) == 0 else best


def integrate_cylinder(traj, field_expr: str, Q: ParabolicCylinder, p: float = 1.0) -> float:
    """Space-time integral of a catalog integrand to the power p over Q."""
    return float(cylinder_time_integral(traj, Q, ball_integrals((field_expr, p)))[0])


def sup_over_time(traj, field_expr: str, Q: ParabolicCylinder, p: float = 1.0) -> float:
    """Max over recorded snapshots in Q's window of the ball integral."""
    return float(cylinder_sup(traj, Q, ball_integrals((field_expr, p)))[0])
