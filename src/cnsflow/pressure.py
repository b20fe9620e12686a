"""Pressure recovery and its local Newtonian-potential decomposition.

The global pressure solves the periodic Poisson problem obtained by taking
the divergence of the momentum equation.  Locally, P splits into P1 (a
Newtonian potential of the cutoff nonlinear sources, solved on the grid by
the same kept-block Poisson path as P) and P2 = P - P1, which is harmonic on
the half-radius ball; the module also provides Riesz potentials on the
grid (one periodic FFT convolution with the lattice kernel, on supports of
any size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import cutoff_step
from .grid_fields import Grid, _offset_sq, ball_mask
from .state import PhysParams


def _poisson_of_forces(grid: Grid, u, n, gravity: float, weight=1.0) -> np.ndarray:
    """Zero-mean periodic solve of -Delta p = div g, where g_i =
    sum_j d_j(weight u_i u_j) + weight n grad_phi_i and grad_phi =
    (0, 0, -gravity).  It works on the kept block: the products are
    dealiased as they are transformed, and all its transforms are kept."""
    ik = [grid.kept(iki) for iki in grid.ik]
    g = [0.0, 0.0, 0.0]
    for i in range(3):
        for j in range(i, 3):
            prod = grid.kept_rfftn(weight * u[i] * u[j])
            g[i] = g[i] + ik[j] * prod
            if j != i:
                g[j] = g[j] + ik[i] * prod
    if gravity:
        g[2] = g[2] + grid.kept_rfftn(weight * n * -gravity)
    div_hat = sum(k * h for k, h in zip(ik, g))
    return grid.kept_irfftn(grid.poisson_hat(div_hat))


def solve_pressure(s, params: PhysParams = PhysParams()) -> np.ndarray:
    """Zero-mean periodic solve of -Delta P = d_i d_j (u_i u_j) + div(n grad_phi);
    returns the (N, N, N) array P."""
    return _poisson_of_forces(s.grid, s.u, s.n, params.gravity)


def eval_field_at(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric (exact interpolant) evaluation at arbitrary points.

    points has shape (m, 3); coordinates act modulo the box.  The real
    part of the full spectral sum (Nyquist modes at the phase of -N/2),
    from the half spectrum and the conjugates of its columns
    0 < k_z < N/2, whose x and y Nyquist rows take the phase of +N/2;
    contracted axis by axis, in batches of about 2^20 intermediate entries.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = grid.n, grid.n // 2 + 1
    fh = grid.rfftn(values) / values.size
    k1 = grid._k_full[0].ravel()  # Nyquist at -N/2
    out = np.zeros(len(pts))
    batch = max(1, 2**20 // (n * m))
    for a in range(0, len(pts), batch):
        e = np.exp(1j * pts[a:a + batch, :, None] * k1)
        e_conj = e.copy()
        e_conj[..., n // 2] = np.conj(e[..., n // 2])
        for phase, cols in ((e, slice(0, m)), (e_conj, slice(1, m - 1))):
            fx = (phase[:, 0] @ fh[..., cols].reshape(n, -1)).reshape(len(e), n, -1)
            fxy = (phase[:, 1, None, :] @ fx)[:, 0]
            out[a:a + batch] += np.sum(fxy * e[:, 2, cols], axis=-1).real
    return out


@dataclass
class PressureDecomposition:
    """Local split P = P1 + P2 around x0 at radius rho.

    p1 and p2 are full-grid periodic arrays; the split is meaningful on the
    ball B_rho(x0), where P1 carries the cutoff local sources and P2 is
    harmonic on B_{rho/2} up to discretization error.  Off the grid, either
    part is its trigonometric interpolant, ``eval_field_at(grid, p1, pts)``.
    """

    grid: Grid
    center: tuple[float, float, float]
    rho: float
    p1: np.ndarray
    p2: np.ndarray
    mean_u: np.ndarray
    mean_n: float
    mask_rho: np.ndarray
    mask_half: np.ndarray

    def identity_residual(self, p_values: np.ndarray) -> float:
        """max |P - (P1 + P2)| over B_{rho/2} (zero by construction)."""
        return float(np.max(np.abs(
            (p_values - self.p1 - self.p2)[self.mask_half]
        )))


def decompose_local(s, x0: Sequence[float], rho: float,
                    params: PhysParams = PhysParams()) -> PressureDecomposition:
    """Split the pressure near x0: P1 = Newtonian potential of the cutoff
    sources (velocity part with the ball-mean removed, buoyancy part with
    the cell density), P2 = P - P1.

    P1 is the zero-mean periodic Poisson solve against the cutoff sources,
    on the same kept block as ``solve_pressure``; this pins down P1 up to a
    function harmonic on the ball (so P2 = P - P1 is harmonic on B_{rho/2}
    to spectral accuracy).  Raises ValueError unless rho > 0 and B_{rho/2}
    holds a cell.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    grid = s.grid
    x0 = tuple(float(v) for v in x0)
    mask_rho = ball_mask(grid, x0, rho)
    mask_half = ball_mask(grid, x0, 0.5 * rho)
    if not mask_half.any():
        raise ValueError(f"B_rho/2 around {x0} holds no cell: rho = {rho}, h = {grid.h}")
    eta = cutoff_step(np.sqrt(grid.min_image_distance_sq(x0)), 0.5 * rho, rho)

    mean_u = np.array([float(np.mean(s.u[i][mask_rho])) for i in range(3)])
    mean_n = float(np.mean(s.n[mask_rho]))
    w = s.u - mean_u[:, None, None, None]

    # sources g_i = sum_j d_j(eta w_i w_j) + eta n grad_phi_i
    p1 = _poisson_of_forces(grid, w, s.n, params.gravity, weight=eta)
    p2 = s.p - p1

    return PressureDecomposition(
        grid=grid, center=x0, rho=rho, p1=p1, p2=p2,
        mean_u=mean_u, mean_n=mean_n, mask_rho=mask_rho, mask_half=mask_half,
    )


def _fibonacci_sphere(m: int) -> np.ndarray:
    i = np.arange(m) + 0.5
    phi = np.pi * (1.0 + math.sqrt(5.0)) * i
    ct = 1.0 - 2.0 * i / m
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)


def harmonic_residual(decomp: PressureDecomposition) -> dict:
    """Mean-value test of P2 on the spheres of radius rho/8 and rho/4
    (128 points each) around the decomposition center.

    A harmonic function equals its sphere averages, so the maximum of
    |P2(x0) - avg_{|x-x0|=s} P2| over those s, normalized by the max of
    |P2| on B_{rho/2}, measures the harmonic defect of P2.
    """
    grid = decomp.grid
    x0 = np.asarray(decomp.center)

    def p2_at(points):
        return eval_field_at(grid, decomp.p2, np.atleast_2d(points))

    center_val = float(p2_at(x0[None, :])[0])
    dirs = _fibonacci_sphere(128)
    deviations = {}
    for r in (decomp.rho / 8.0, decomp.rho / 4.0):
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

    Midpoint quadrature over the support's cells, the coincident cell taking
    the closed-form kernel integral over the volume-equivalent ball.  Targets
    and sources are grid cells, so their minimum-image offset depends only on
    the index difference mod N: the sum is one periodic real-FFT convolution
    of f on the support with the lattice kernel (the particle-mesh method),
    at any support size.
    """
    if not 0.0 < alpha < 3.0:
        raise ValueError(f"alpha must lie in (0, 3), got {alpha}")
    if target_mask is None:
        target_mask = mask
    r2 = grid.h**2 * _offset_sq(grid.n, (0, 0, 0))
    r2[0, 0, 0] = 1.0  # the self cell, weighted below
    kernel = grid.cell_volume * r2 ** (0.5 * (alpha - 3.0))
    # volume-equivalent ball radius of one cell; integral of r^(alpha-3) over B_a
    a = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * grid.h
    kernel[0, 0, 0] = 4.0 * np.pi * a**alpha / alpha
    out = grid.irfftn(grid.rfftn(np.where(mask, f, 0.0)) * grid.rfftn(kernel))
    out[~target_mask] = 0.0
    return out


def cz_sanity_report(decomp: PressureDecomposition, s,
                     params: PhysParams = PhysParams()) -> dict:
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
    gp_norm = abs(params.gravity)
    fluct = np.abs(s.n[m] - decomp.mean_n) * gp_norm
    rho = decomp.rho
    term_n1 = rho**0.75 * float(np.sum(fluct**1.2) * vol) ** 1.25
    term_n2 = rho**0.75 * float(
        np.sum(m) * vol * (abs(decomp.mean_n) * gp_norm) ** 1.2) ** 1.25
    rhs = term_u + term_n1 + term_n2
    return {
        "lhs": lhs,
        "rhs": rhs,
        "term_u": term_u,
        "term_buoyancy_fluct": term_n1,
        "term_buoyancy_mean": term_n2,
        "fitted_c": lhs / rhs if rhs > 0 else 0.0,
    }
