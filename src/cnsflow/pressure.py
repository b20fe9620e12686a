"""Pressure recovery and its local Newtonian-potential decomposition.

The global pressure solves the periodic Poisson problem obtained by taking
the divergence of the momentum equation.  Locally, P splits into P1 (a
Newtonian potential of the cutoff nonlinear sources, evaluated by direct
kernel quadrature over masked cells) and P2 = P - P1, which is harmonic on
the half-radius ball; the module also provides Riesz potentials and an
interior-estimate checker for harmonic functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .energy import _smoothstep
from .grid_fields import (
    CylinderRangeError,
    Grid,
    spectral_upsample,
)

#: Hard cap on the number of source cells in one direct potential sum.
MAX_SOURCE_CELLS = 40**3


def _force_hats(grid: Grid, u, n, gp, weight=1.0) -> list:
    """Half-spectrum transforms of g_i = sum_j d_j(weight u_i u_j) +
    weight n grad_phi_i, the field whose divergence drives the pressure."""
    k = grid.k
    g = [0.0, 0.0, 0.0]
    for i in range(3):
        for j in range(i, 3):
            prod = grid.rfftn(weight * u[i] * u[j])
            g[i] = g[i] + 1j * k[j] * prod
            if j != i:
                g[j] = g[j] + 1j * k[i] * prod
        if np.any(gp[i]):
            g[i] = g[i] + grid.rfftn(weight * n * gp[i])
    return g


def _poisson_div(grid: Grid, g_hat) -> np.ndarray:
    """Zero-mean periodic solve of -Delta p = div g, with g dealiased."""
    div_hat = sum(1j * k * h for k, h in zip(grid.k, g_hat))
    return grid.irfftn(grid.poisson_hat(grid.dealias_mask * div_hat))


def solve_pressure(s, params=None) -> np.ndarray:
    """Zero-mean periodic solve of -Delta P = d_i d_j (u_i u_j) + div(n grad_phi);
    returns the (N, N, N) array P."""
    grid = s.grid
    gp = params.grad_phi_arrays(grid) if params is not None else np.zeros_like(s.u)
    return _poisson_div(grid, _force_hats(grid, s.u, s.n, gp))


def quintic_bump(dist: np.ndarray, rho: float) -> np.ndarray:
    """Radial cutoff: 1 on B_{rho/2}, 0 outside B_rho, C^4 at both ends.

    The high-order seam keeps spectral derivatives of cutoff products
    accurate on moderate grids.
    """
    s = np.clip((np.asarray(dist, dtype=float) - 0.5 * rho) / (0.5 * rho), 0.0, 1.0)
    return 1.0 - _smoothstep(s)


def eval_field_at(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric (exact interpolant) evaluation at arbitrary points.

    points has shape (m, 3); coordinates are taken modulo the box.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fh = np.fft.fftn(values) / values.size
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    # accumulate axis by axis to keep memory at O(N^3) per point batch
    out = np.empty(len(pts))
    for a, p in enumerate(pts):
        ph = np.exp(1j * (k1.reshape(-1, 1, 1) * p[0]
                          + k1.reshape(1, -1, 1) * p[1]
                          + k1.reshape(1, 1, -1) * p[2]))
        out[a] = float(np.real(np.sum(fh * ph)))
    return out


@dataclass
class PressureDecomposition:
    """Local split P = P1 + P2 around x0 at radius rho.

    p1 and p2 are full-grid periodic arrays; the split is meaningful on the
    ball B_rho(x0), where P1 carries the cutoff local sources and P2 is
    harmonic on B_{rho/2} up to discretization error.
    """

    grid: Grid
    center: tuple[float, float, float]
    rho: float
    eta: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    mean_u: np.ndarray
    mean_n: float
    mask_rho: np.ndarray
    mask_half: np.ndarray
    _fine_points: np.ndarray = None
    _fine_sources: np.ndarray = None
    _fine_volume: float = 0.0

    def p1_at(self, points) -> np.ndarray:
        """Kernel-sum evaluation of P1 at arbitrary points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _kernel_sum(self.grid, pts, self._fine_points,
                           self._fine_sources, self._fine_volume)

    def identity_residual(self, p_values: np.ndarray) -> float:
        """max |P - (P1 + P2)| over B_{rho/2} (zero by construction)."""
        return float(np.max(np.abs(
            (p_values - self.p1 - self.p2)[self.mask_half]
        )))


def _kernel_sum(grid: Grid, targets: np.ndarray, sources_xyz: np.ndarray,
                sources_g: np.ndarray, vol: float) -> np.ndarray:
    """sum over sources of grad K(x - y) . g(y) dV with K the Newtonian
    kernel; the singular (coincident) cell is skipped, which is the exact
    ball-average of the odd kernel."""
    L = grid.box_length
    out = np.empty(len(targets))
    chunk = max(1, int(2e6 // max(1, len(sources_xyz))))
    for a0 in range(0, len(targets), chunk):
        t = targets[a0:a0 + chunk]
        d = t[:, None, :] - sources_xyz[None, :, :]
        d -= L * np.round(d / L)
        r2 = np.sum(d * d, axis=2)
        r3 = r2 * np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(r3 > 1e-30, 1.0 / r3, 0.0)
        out[a0:a0 + chunk] = (
            -vol / (4.0 * np.pi)
            * np.sum(w * np.einsum("abi,bi->ab", d, sources_g), axis=1)
        )
    return out


def decompose_local(s, x0: Sequence[float], rho: float, params=None,
                    upsample: int = 2) -> PressureDecomposition:
    """Split the pressure near x0: P1 = Newtonian potential of the cutoff
    sources (velocity part with the ball-mean removed, buoyancy part with
    the cell density), P2 = P - P1.

    The grid values of P1 come from a spectral Poisson solve against the
    cutoff sources, which pins down P1 up to a function harmonic on the
    ball (so P2 = P - P1 is harmonic on B_{rho/2} to spectral accuracy).
    The direct Newtonian kernel quadrature is kept for off-grid evaluation
    through ``p1_at``: one integration by parts moves the outer derivative
    of each source onto the kernel, and the sources are sampled on an
    ``upsample``-times-finer grid via trigonometric interpolation.
    """
    grid = s.grid
    if rho > grid.box_length / 4.0:
        raise CylinderRangeError(f"rho = {rho} exceeds box_length/4")
    x0 = tuple(float(v) for v in x0)
    dist = np.sqrt(grid.min_image_distance_sq(x0))
    eta = quintic_bump(dist, rho)
    mask_rho = dist < rho
    mask_half = dist < 0.5 * rho

    n_fine_est = int(np.ceil(4.19 * (rho / (grid.h / upsample)) ** 3))
    while upsample > 1 and n_fine_est > MAX_SOURCE_CELLS:
        upsample -= 1
        n_fine_est = int(np.ceil(4.19 * (rho / (grid.h / upsample)) ** 3))

    mean_u = np.array([float(np.mean(s.u[i][mask_rho])) for i in range(3)])
    mean_n = float(np.mean(s.n[mask_rho]))
    w = s.u - mean_u[:, None, None, None]
    gp = params.grad_phi_arrays(grid) if params is not None else np.zeros_like(s.u)

    # g_i = sum_j d_j(eta w_i w_j) + eta n grad_phi_i  (one derivative kept;
    # the other acts on the kernel inside the sum)
    g_hat = _force_hats(grid, w, s.n, gp, weight=eta)
    g = grid.irfftn(np.stack(g_hat))

    fine = Grid(grid.n * upsample, grid.box_length) if upsample > 1 else grid
    g_fine = np.array([spectral_upsample(grid, g[i], upsample) for i in range(3)])
    dist_f = np.sqrt(fine.min_image_distance_sq(x0))
    src_mask = dist_f < rho
    if int(np.sum(src_mask)) > MAX_SOURCE_CELLS:
        raise CylinderRangeError(
            f"{int(np.sum(src_mask))} source cells exceed the {MAX_SOURCE_CELLS} cap"
        )
    xs, ys, zs = np.broadcast_arrays(*fine.coords())
    src_xyz = np.stack([xs[src_mask], ys[src_mask], zs[src_mask]], axis=1)
    src_g = np.stack([g_fine[i][src_mask] for i in range(3)], axis=1)
    vol_f = fine.cell_volume

    # grid values of P1: zero-mean periodic solve of -Delta P1 = div g,
    # with the same dealiased-product convention as the global pressure
    p1 = _poisson_div(grid, g_hat)
    p2 = s.p - p1

    return PressureDecomposition(
        grid=grid, center=x0, rho=rho, eta=eta, p1=p1, p2=p2,
        mean_u=mean_u, mean_n=mean_n, mask_rho=mask_rho, mask_half=mask_half,
        _fine_points=src_xyz, _fine_sources=src_g, _fine_volume=vol_f,
    )


def _fibonacci_sphere(m: int) -> np.ndarray:
    i = np.arange(m) + 0.5
    phi = np.pi * (1.0 + math.sqrt(5.0)) * i
    ct = 1.0 - 2.0 * i / m
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)


def harmonic_residual(decomp: PressureDecomposition, radii=None,
                      n_sphere: int = 128) -> dict:
    """Mean-value test of P2 on spheres around the decomposition center.

    A harmonic function equals its sphere averages, so the maximum of
    |P2(x0) - avg_{|x-x0|=s} P2| over s <= rho/4, normalized by the max of
    |P2| on B_{rho/2}, measures the harmonic defect of P2.
    """
    if radii is None:
        radii = [decomp.rho / 8.0, decomp.rho / 4.0]
    grid = decomp.grid
    x0 = np.asarray(decomp.center)

    def p2_at(points):
        return eval_field_at(grid, decomp.p2, np.atleast_2d(points))

    center_val = float(p2_at(x0[None, :])[0])
    dirs = _fibonacci_sphere(n_sphere)
    deviations = {}
    for r in radii:
        avg = float(np.mean(p2_at(x0[None, :] + r * dirs)))
        deviations[r] = abs(center_val - avg)
    sup_p2 = float(np.max(np.abs(decomp.p2[decomp.mask_half])))
    worst = max(deviations.values())
    return {
        "center_value": center_val,
        "deviations": deviations,
        "max_deviation": worst,
        "sup_p2": sup_p2,
        "relative": worst / sup_p2 if sup_p2 > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Riesz potentials
# ---------------------------------------------------------------------------

def riesz_potential(grid: Grid, f: np.ndarray, alpha: float, mask: np.ndarray,
                    target_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """I_alpha f(x) = integral of f(y) |x-y|^(alpha-3) over the masked support,
    as an (N, N, N) array that is zero off ``target_mask`` (default ``mask``).

    Direct midpoint quadrature; the coincident cell uses the closed-form
    kernel integral over the volume-equivalent ball.
    """
    if not 0.0 < alpha < 3.0:
        raise ValueError(f"alpha must lie in (0, 3), got {alpha}")
    if int(np.sum(mask)) > MAX_SOURCE_CELLS:
        raise CylinderRangeError("masked support exceeds the source-cell cap")
    if target_mask is None:
        target_mask = mask
    vol = grid.cell_volume
    L = grid.box_length
    xs, ys, zs = np.broadcast_arrays(*grid.coords())
    src = np.stack([xs[mask], ys[mask], zs[mask]], axis=1)
    fv = f[mask]
    tgt = np.stack([xs[target_mask], ys[target_mask], zs[target_mask]], axis=1)

    # volume-equivalent ball radius of one cell
    a = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * grid.h
    self_weight = 4.0 * np.pi * a**alpha / alpha  # integral of r^(alpha-3) over B_a

    out_vals = np.empty(len(tgt))
    chunk = max(1, int(2e6 // max(1, len(src))))
    tiny = 0.5 * grid.h * 1e-6
    for a0 in range(0, len(tgt), chunk):
        t = tgt[a0:a0 + chunk]
        d = t[:, None, :] - src[None, :, :]
        d -= L * np.round(d / L)
        r = np.sqrt(np.sum(d * d, axis=2))
        with np.errstate(divide="ignore"):
            k = np.where(r > tiny, r ** (alpha - 3.0), 0.0)
        vals = np.sum(k * fv[None, :], axis=1) * vol
        # analytic self-cell for targets coinciding with a source cell
        hit = np.argmin(r, axis=1)
        coincident = r[np.arange(len(t)), hit] < tiny
        vals[coincident] += self_weight * fv[hit[coincident]]
        out_vals[a0:a0 + chunk] = vals
    out = np.zeros((grid.n,) * 3)
    out[target_mask] = out_vals
    return out


# ---------------------------------------------------------------------------
# harmonic interior estimates
# ---------------------------------------------------------------------------

def _ball_lq_norm(fn: Callable, radius: float, q: float, samples: int) -> float:
    """L^q norm over B_radius(0) by midpoint quadrature on a samples^3 cube."""
    h = 2.0 * radius / samples
    x1 = -radius + h * (np.arange(samples) + 0.5)
    X, Y, Z = np.meshgrid(x1, x1, x1, indexing="ij")
    inside = X**2 + Y**2 + Z**2 < radius**2
    pts = np.stack([X[inside], Y[inside], Z[inside]], axis=1)
    vals = np.abs(np.asarray(fn(pts), dtype=float))
    return float(np.sum(vals**q) * h**3) ** (1.0 / q)


def harmonic_interior_bound_check(value_fn: Callable, deriv_norm_fn: Callable,
                                  r: float, rho: float, k: int,
                                  p: float, q: float,
                                  c_limit: float = 100.0,
                                  samples: int = 48) -> dict:
    """Check the interior estimate for a harmonic function on the unit ball:

        || D^k f ||_{L^q(B_r)}  <=  C r^{3/q} / (rho - r)^{3/p + k} || f ||_{L^p(B_rho)}

    value_fn maps points (m, 3) to f values; deriv_norm_fn maps points to
    the pointwise norm |D^k f|.  Returns the fitted C and whether it is
    within c_limit.
    """
    if not 0.0 < r < rho <= 1.0:
        raise ValueError("need 0 < r < rho <= 1")
    lhs = _ball_lq_norm(deriv_norm_fn, r, q, samples)
    f_norm = _ball_lq_norm(value_fn, rho, p, samples)
    geom = r ** (3.0 / q) / (rho - r) ** (3.0 / p + k)
    rhs_base = geom * f_norm
    fitted_c = lhs / rhs_base if rhs_base > 0 else 0.0
    return {
        "lhs": lhs,
        "f_norm": f_norm,
        "geometric_factor": geom,
        "fitted_c": fitted_c,
        "holds": fitted_c <= c_limit,
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


def cz_sanity_report(decomp: PressureDecomposition, s, params=None) -> dict:
    """Report the local Calderon-Zygmund-type bound on P1.

    Compares the 3/2-integral of P1 on B_rho against the cubic velocity
    fluctuation plus the two buoyancy terms; the fitted constant is
    reported, not asserted against any universal value.
    """
    grid = decomp.grid
    vol = grid.cell_volume
    m = decomp.mask_rho
    lhs = float(np.sum(np.abs(decomp.p1[m]) ** 1.5) * vol)
    w_sq = sum((s.u[i] - decomp.mean_u[i]) ** 2 for i in range(3))
    term_u = float(np.sum(w_sq[m] ** 1.5) * vol)
    gp = params.grad_phi_arrays(grid) if params is not None else np.zeros_like(s.u)
    gp_norm = np.sqrt(np.sum(gp**2, axis=0))
    fluct = np.abs(s.n - decomp.mean_n) * gp_norm
    mean_part = abs(decomp.mean_n) * gp_norm
    rho = decomp.rho
    term_n1 = rho**0.75 * float(np.sum(fluct[m] ** 1.2) * vol) ** 1.25
    term_n2 = rho**0.75 * float(np.sum(mean_part[m] ** 1.2) * vol) ** 1.25
    rhs = term_u + term_n1 + term_n2
    return {
        "lhs": lhs,
        "rhs": rhs,
        "term_u": term_u,
        "term_buoyancy_fluct": term_n1,
        "term_buoyancy_mean": term_n2,
        "fitted_c": lhs / rhs if rhs > 0 else 0.0,
    }
