"""Periodic-box fields with spectral calculus and parabolic-cylinder quadrature.

All fields live on a uniform N^3 grid over the torus [0, L)^3 with
cell-centered collocation points, as plain arrays: (N, N, N) for a
scalar, (3, N, N, N) for a vector.  Every spectral operator is a
function of (grid, array) that returns an array.  Derivatives are
Fourier multipliers, so they are exact for band-limited data.
Space-time integrals over parabolic cylinders use a binary ball mask
(minimum-image distance) in space and the trapezoid rule on the
piecewise-linear-in-time interpolant of the spatial integral.  Two
primitives, ``cylinder_values`` at one centre and ``cylinder_maps`` at
every grid point at once, are the only code that decides which cells and
snapshots make up a cylinder.  Both build the mask and the window once
for any number of integrands, take their integrands in one form,
``fields(at)`` of a snapshot's ``State.on`` view (see ``catalog_fields``),
and return one shape, (integrals, sups).  Their time window, and the
local energy inequality's, follow one rule, ``_window_overlaps``.
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
    and one Poisson solve, each for a half spectrum or a kept block: the
    (K, K, m) modes the 2/3 mask keeps (``kept``; N = 32: K = 21 of 32 rows,
    m = 11 of 17 columns; N = 64: 43 of 64 and 22 of 33).  ``kept_rfftn(v)``
    is bitwise ``kept(rfftn(v))``, ``kept_irfftn(b)`` is bitwise ``irfftn``
    of b zero-filled, and both transform only the kept modes.
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
    # A stack of fields goes one N^3 field at a time: bitwise the batched
    # call, faster, and with one field's temporaries at a time.
    def rfftn(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum transform of real samples (last three axes)."""
        if values.ndim == 3:
            return np.fft.rfftn(values)
        out = np.empty(values.shape[:-1] + (self.n // 2 + 1,), dtype=complex)
        for i in np.ndindex(values.shape[:-3]):
            out[i] = np.fft.rfftn(values[i])
        return out

    def irfftn(self, hat: np.ndarray) -> np.ndarray:
        """Real N^3 samples of a half spectrum (inverse of ``rfftn``)."""
        s, axes = (self.n,) * 3, (0, 1, 2)
        if hat.ndim == 3:
            return np.fft.irfftn(hat, s=s, axes=axes)
        out = np.empty(hat.shape[:-3] + s)
        for i in np.ndindex(hat.shape[:-3]):
            out[i] = np.fft.irfftn(hat[i], s=s, axes=axes)
        return out

    # The kept pair keeps numpy's pass order (rfftn: last axis, then -2,
    # then -3; irfftn the reverse), so every kept mode goes through the
    # same 1-D transforms as in the full ones and comes out bitwise equal.
    def kept_rfftn(self, values: np.ndarray) -> np.ndarray:
        """``kept(rfftn(values))``, transforming only kept modes."""
        rows, m = self._kept
        a = np.fft.rfft(values, axis=-1)[..., :m]
        a = np.fft.fft(a, axis=-2).take(rows, axis=-2)
        return np.fft.fft(a, axis=-3).take(rows, axis=-3)

    def kept_irfftn(self, block: np.ndarray) -> np.ndarray:
        """``irfftn`` of a kept block zero-filled to the half spectrum,
        transforming only kept modes."""
        rows, m = self._kept
        n = self.n
        a = np.zeros(block.shape[:-3] + (n, len(rows), m), dtype=complex)
        a[..., rows, :, :] = block
        b = np.zeros(block.shape[:-3] + (n, n, m), dtype=complex)
        b[..., rows, :] = np.fft.ifft(a, axis=-3)
        # irfft zero-pads the m kept columns to N/2 + 1
        return np.fft.irfft(np.fft.ifft(b, axis=-2), n=n, axis=-1)

    def kept_index(self, shape) -> tuple:
        """The index of the kept modes in an array of ``shape``: a half
        spectrum, or a symbol whose length-1 axes broadcast (they stay)."""
        rows, m = self._kept
        axes = (rows, rows, np.arange(m))
        return (...,) + np.ix_(*(ax if size > 1 else [0]
                                 for ax, size in zip(axes, shape[-3:])))

    def kept(self, a: np.ndarray) -> np.ndarray:
        """The kept block of a half spectrum, (..., K, K, m), or of a symbol."""
        return a[self.kept_index(a.shape)]

    def _on(self, symbol: np.ndarray, hat: np.ndarray) -> np.ndarray:
        """``symbol`` on the modes of ``hat``: a half spectrum or a kept block."""
        return symbol if hat.shape[-1] == self.n // 2 + 1 else self.kept(symbol)

    @cached_property
    def _kept(self) -> tuple[np.ndarray, int]:
        """The modes ``dealias_mask`` keeps, read off it: the indices of
        the kept rows of each full axis, and the number m of kept columns
        of the half axis (columns 0..m-1)."""
        mask = self.dealias_mask
        return np.flatnonzero(mask[:, 0, 0]), int(np.count_nonzero(mask[0, 0, :]))

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
    def ik(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first-derivative symbols i k."""
        return tuple(1j * k for k in self.k)

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

    def project_hat(self, u_hat: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Leray projection u - k (k . u)/|k|^2 of a (3, ...) half spectrum
        or kept block, into ``out`` (may be ``u_hat``), with the
        Nyquist-zeroed ``k`` throughout, so k . (P u) = 0 exactly."""
        k = [self._on(ki, u_hat) for ki in self.k]
        phi = k[0] * u_hat[0]
        phi += k[1] * u_hat[1]
        phi += k[2] * u_hat[2]
        phi *= self._on(self.inv_kd_sq, u_hat)
        out = np.empty_like(u_hat) if out is None else out
        for i in range(3):
            np.subtract(u_hat[i], k[i] * phi, out=out[i])
        return out

    def poisson_hat(self, rhs_hat: np.ndarray) -> np.ndarray:
        """Zero-mean periodic solution of -Delta p = rhs, in Fourier space
        (a half spectrum or a kept block)."""
        return rhs_hat * self._on(self.inv_k_sq, rhs_hat)

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

    def min_image_distance_sq(self, x0: Sequence[float]) -> np.ndarray:
        """Squared periodic distance from every cell center to x0, each
        displacement component taken in [-L/2, L/2]."""
        L = self.box_length
        return sum((np.mod(c - x0i + 0.5 * L, L) - 0.5 * L) ** 2
                   for c, x0i in zip(self.coords(), x0))


@dataclass(frozen=True)
class ParabolicCylinder:
    """Q_r(z0) = B_r(x0) x (t0 - r^2, t0), or the time-shifted variant
    Q* = B_r x (t0 - (7/8) r^2, t0 + (1/8) r^2)."""

    center_x: tuple[float, float, float]
    center_t: float
    radius: float
    shifted: bool = False

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"cylinder radius must be positive, got {self.radius}")
        object.__setattr__(self, "center_x", tuple(float(v) for v in self.center_x))

    def time_interval(self) -> tuple[float, float]:
        r2 = self.radius**2
        if self.shifted:
            return (self.center_t - 0.875 * r2, self.center_t + 0.125 * r2)
        return (self.center_t - r2, self.center_t)


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
    return np.stack([g.irfftn(ik * fh) for ik in g.ik])


def divergence(g: Grid, v: np.ndarray) -> np.ndarray:
    """Spectral divergence of a (3, N, N, N) field."""
    return g.irfftn(sum(ik * g.rfftn(c) for ik, c in zip(g.ik, v)))


def laplacian(g: Grid, f: np.ndarray) -> np.ndarray:
    return g.irfftn(-g.k_sq * g.rfftn(f))


def second_derivative(g: Grid, fh: np.ndarray, i: int, j: int) -> np.ndarray:
    """d_i d_j of the field whose half spectrum is ``fh``; the diagonal
    keeps the Nyquist modes, like the Laplacian."""
    sym = -g._k_full[i] ** 2 if i == j else -g.k[i] * g.k[j]
    return g.irfftn(sym * fh)


# ---------------------------------------------------------------------------
# cylinder quadrature
# ---------------------------------------------------------------------------

def ball_mask(grid: Grid, x0: Sequence[float], radius: float) -> np.ndarray:
    """Binary in/out mask of B_r(x0) under the minimum-image convention.

    A grid-point centre gets the integer-offset stencil |offset|^2 <
    (r/h)^2 (rounded when integer to rounding), the same at every grid
    point; other centres use floating minimum-image distances.  Every
    cell set "inside B_r(x0)" in the package comes from here, and this is
    the one check that a ball fits the box (2r <= L/2, else
    CylinderRangeError), has a radius r >= 0 and a centre of three
    coordinates (else ValueError); r = 0 gives the empty ball."""
    if np.shape(x0) != (3,):
        raise ValueError(f"a ball centre needs three coordinates, got {x0!r}")
    if not radius >= 0:
        raise ValueError(f"ball radius must be >= 0, got {radius}")
    if 2.0 * radius > 0.5 * grid.box_length:
        raise CylinderRangeError(
            f"ball radius {radius} exceeds box_length/4 = {grid.box_length / 4}"
        )
    on_grid, index = _grid_index(grid, x0)
    if not on_grid:
        return grid.min_image_distance_sq(x0) < radius**2
    q = (radius / grid.h) ** 2
    q = round(q) if abs(q - round(q)) < 1e-9 else q
    return _offset_sq(grid.n, index.tolist()) < q


def _offset_sq(n: int, index) -> np.ndarray:
    """(N, N, N) integer |offset|^2 of every cell from the cell ``index``,
    each offset component the minimum image in [-N/2, N/2)."""
    ox, oy, oz = (((np.arange(n) - i + n // 2) % n - n // 2) ** 2 for i in index)
    return ox[:, None, None] + oy[None, :, None] + oz[None, None, :]


def _grid_index(grid: Grid, x) -> tuple[np.ndarray, np.ndarray]:
    """Whether each point of an (..., 3) array is a grid point (every
    coordinate within 1e-9 cells of one), and its grid index mod N."""
    index = np.asarray(x, dtype=float) / grid.h
    if not np.all(np.isfinite(index)):
        raise ValueError("a grid index needs finite coordinates")
    near = np.round(index)
    on_grid = ~np.any(np.abs(index - near) > 1e-9, axis=-1)
    return on_grid, np.mod(near, grid.n).astype(int)


#: Fixed integrand catalog: the |.| quantities of the cylinder functionals,
#: each a derived field of ``State``, read on the cells of one call through
#: ``State.on``; ``catalog_fields`` applies the powers.
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


def catalog_fields(*integrands: tuple[str, float]) -> Callable:
    """The ``fields`` of catalog integrands: for each (name, power) that
    integrand to that power.

    ``fields(at)`` is the one integrand form of the cylinder primitives.
    ``at`` is one snapshot's ``State.on`` view of the cells a primitive
    reads: one ball's cells for one centre, the whole grid for
    ``cylinder_maps``.  It returns one array per integrand, of values on
    those cells.  ``cylinder_maps`` needs elementwise integrands, as the
    catalog's are; a per-centre pass may also use integrands that depend
    on the whole ball, such as a ball mean (``diagnostics.mean_removed``)
    or a selection of its cells (``diagnostics.log_split``'s density
    bands)."""
    for name, _ in integrands:
        if name not in INTEGRAND_NAMES:
            raise UnknownIntegrandError(f"unknown integrand {name!r}")
    # a**1.0 is a: skip the pass
    return lambda at: [at(name) if p == 1.0 else at(name) ** p for name, p in integrands]


def _window_overlaps(times: np.ndarray, t_lo: float, t_hi: float):
    """The one rule for which recorded times a window (t_lo, t_hi) uses.

    Raises CylinderRangeError unless the window lies in the recorded span
    up to the tolerance eps = 1e-12 max(1, span); a window with a NaN
    bound lies in no span.  Returns the overlaps
    (i, a, b), b - a > eps, of the window with each snapshot interval
    [t_i, t_{i+1}], and eps: an overlap of rounding width is none.
    """
    eps = 1e-12 * max(1.0, abs(times[-1] - times[0]))
    if not (t_lo >= times[0] - eps and t_hi <= times[-1] + eps):
        raise CylinderRangeError(
            f"time window ({t_lo}, {t_hi}) outside recorded span "
            f"({times[0]}, {times[-1]})"
        )
    a = np.maximum(times[:-1], t_lo)
    b = np.minimum(times[1:], t_hi)
    return [(i, a[i], b[i]) for i in np.flatnonzero(b - a > eps).tolist()], eps


def _snapshot_weights(times: np.ndarray, t_lo: float, t_hi: float) -> dict:
    """The trapezoid weight of each snapshot in the integral of the
    piecewise-linear interpolant over [t_lo, t_hi], summed over the
    snapshot intervals the window overlaps."""
    weights = {}
    for i, a, b in _window_overlaps(times, t_lo, t_hi)[0]:
        delta = times[i + 1] - times[i]
        la = (a - times[i]) / delta
        lb = (b - times[i]) / delta
        mid = 0.5 * (la + lb)
        weights[i] = weights.get(i, 0.0) + (b - a) * (1.0 - mid)
        weights[i + 1] = weights.get(i + 1, 0.0) + (b - a) * mid
    if not weights:
        raise CylinderRangeError("no snapshots overlap the cylinder time window")
    return weights


def _sup_snapshots(times: np.ndarray, t_lo: float, t_hi: float) -> list:
    """Indices of the recorded snapshots in the window (t_lo, t_hi)."""
    eps = _window_overlaps(times, t_lo, t_hi)[1]
    idx = [i for i, t in enumerate(times) if t_lo - eps <= t <= t_hi + eps]
    if not idx:
        raise CylinderRangeError("no snapshots in the cylinder time window")
    return idx


def _cylinder(traj, Q: ParabolicCylinder, integrals, sups):
    """Which cells and snapshots make up Q: its ball mask, and its window's
    snapshots in time order as (state, time weight, is a sup snapshot); the
    weight is None unless ``integrals`` are given, the flag False unless
    ``sups`` are."""
    times, (t_lo, t_hi) = traj.times, Q.time_interval()
    mask = ball_mask(traj.grid, Q.center_x, Q.radius)
    weights = {} if integrals is None else _snapshot_weights(times, t_lo, t_hi)
    peaks = set() if sups is None else set(_sup_snapshots(times, t_lo, t_hi))
    return mask, [(traj.states[i], weights.get(i), i in peaks)
                  for i in sorted(peaks.union(weights))]


def cylinder_values(traj, Q: ParabolicCylinder, integrals: Callable = None,
                    sups: Callable = None):
    """Q's space-time integral of each integrand of ``integrals`` and, of
    each integrand of ``sups``, the max over the recorded snapshots in Q's
    time window of its ball integral (see ``catalog_fields``).

    The time rule integrates the piecewise-linear interpolant of each
    ball integral, so one pass (one mask, one window) serves any number
    of integrands; each snapshot is read through one view of Q's cells,
    which its integrals and sups share.  Returns (integrals, sups), each
    one array in its fields' order, or None where no fields were given:
    the shape ``cylinder_maps`` returns at every grid point.
    """
    mask, window = _cylinder(traj, Q, integrals, sups)
    cells, vol = np.flatnonzero(mask), traj.grid.cell_volume
    int_values = sup_values = None
    for state, w, peak in window:
        at = state.on(cells)
        if w is not None:
            v = w * np.array([np.sum(a) * vol for a in integrals(at)])
            int_values = v if int_values is None else int_values + v
        if peak:
            v = np.array([np.sum(a) * vol for a in sups(at)])
            sup_values = v if sup_values is None else np.maximum(sup_values, v)
    return int_values, sup_values


def cylinder_maps(traj, t0: float, radius: float, integrals: Callable = None,
                  sups: Callable = None):
    """Whole-grid maps of ``cylinder_values`` over Q_r((x, t0)) at every
    grid point x at once.

    ``integrals`` and ``sups`` are ``fields(at)`` (see ``catalog_fields``)
    whose integrands are elementwise and nonnegative; each snapshot's view
    is of the whole grid.  A ball sum at a grid point is the periodic
    convolution of the integrand with the lattice ball at the origin, so
    each map is one real-FFT convolution: of the weighted sum over the
    window's snapshots for the integrals (time weights applied before
    transforming), and of each snapshot, then an elementwise max, for the
    sups.  A convolution's rounding error scales with the map's largest
    value, not with the value at x, so a ball holding only zeros may come
    out slightly negative; every map is clipped at 0.  Returns (integral
    maps, sup maps), each a (k, N, N, N) array indexed by the grid index
    of x, or None where no fields were given.
    """
    grid = traj.grid
    stencil, window = _cylinder(
        traj, ParabolicCylinder((0.0, 0.0, 0.0), t0, radius), integrals, sups)
    kernel = grid.rfftn(stencil.astype(float)) * grid.cell_volume

    def convolve(values):
        out = grid.irfftn(grid.rfftn(values) * kernel)
        return np.maximum(out, 0.0, out=out)

    total = sup_maps = None
    for state, w, peak in window:
        at = state.on(slice(None))
        if w is not None:
            values = integrals(at)
            if total is None:
                total = np.zeros((len(values),) + stencil.shape)
            for acc, f in zip(total, values):
                acc += w * f
        if peak:
            snap = convolve(np.stack(sups(at)))
            sup_maps = snap if sup_maps is None else np.maximum(sup_maps, snap)
    return None if total is None else convolve(total), sup_maps
