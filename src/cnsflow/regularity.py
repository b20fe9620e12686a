"""Epsilon-regularity machinery: closed-form smallness thresholds, local
criterion flags, the scale-iteration contraction check, and the dyadic
induction verifier.

A *flag* never asserts singularity: it records that a smallness criterion
failed to certify regularity at a point, together with the measured margin.
The closed-form thresholds are astronomically small by design; every report
therefore carries both the exact threshold and the configurable working
threshold actually used for flagging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .diagnostics import compute_quantities, mean_removed
from .grid_fields import (
    CylinderRangeError,
    ParabolicCylinder,
    _grid_index,
    _spacetime_points,
    catalog_fields,
    cylinder_maps,
    cylinder_values,
)
from .state import Trajectory, guarded_log


@dataclass(frozen=True)
class RegularityConfig:
    """Exponents and constants of the regularity criteria.

    delta0 tunes the weighted density-gradient functional; theta0 is the
    scale-contraction ratio; c1 the induction constant; eps1 the base
    smallness parameter entering every closed-form threshold.
    working_threshold is what flags actually compare against.
    """

    delta0: float = 0.05
    eps1: float = 1.0
    theta0: float = 1.0 / 8.0
    c1: float = 2.0
    working_threshold: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.delta0 <= 0.1:
            raise ValueError(f"delta0 must lie in (0, 1/10], got {self.delta0}")
        if self.eps1 <= 0.0:
            raise ValueError("eps1 must be positive")
        if not 0.0 < self.theta0 < 0.25:
            raise ValueError(f"theta0 must lie in (0, 1/4), got {self.theta0}")
        if self.c1 <= 1.0:
            raise ValueError("c1 must exceed 1")
        if self.working_threshold <= 0.0:
            raise ValueError("working_threshold must be positive")


def thresholds(cfg: RegularityConfig, params=None) -> dict:
    """Closed-form smallness thresholds from the structural norms.

    With b1 = 1 + |chi|_0 and b2 = 1 + |grad phi|_inf + |c0|_inf:

    - epsilon  = eps1^8  / (625 b1^80 b2^160)   (weighted-gradient criterion)
    - epsilon0 = eps1    / (b1^12 b2^24)        (sup+dissipation bundle)
    - epsilon2 = eps1^2  / (b1^20 b2^40)        (cubic-integral bundle)
    - epsilon3 = epsilon2 / 5                   (invariant-quantity bundle)

    Each is strictly increasing in eps1 and strictly decreasing in every
    structural norm.
    """
    if params is None:
        chi_norm, gp_max, c0_max = 0.0, 0.0, 0.0
    else:
        chi_norm, gp_max, c0_max = params.chi_norm, abs(params.gravity), params.c0_max
    b1 = 1.0 + chi_norm
    b2 = 1.0 + gp_max + c0_max
    eps1 = cfg.eps1
    epsilon2 = eps1**2 / (b1**20 * b2**40)
    return {
        "epsilon": eps1**8 / (625.0 * b1**80 * b2**160),
        "epsilon0": eps1 / (b1**12 * b2**24),
        "epsilon2": epsilon2,
        "epsilon3": epsilon2 / 5.0,
    }


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

#: the columns of a flag CSV, one row per flagged point
FLAG_COLUMNS = ("t0", "x0", "x1", "x2", "r_star", "value",
                "working_threshold", "paper_threshold", "margin")

#: the closed-form threshold each sweep criterion is reported against
PAPER_THRESHOLD = {"thm13": "epsilon", "thm16i": "epsilon0", "thm16ii": "epsilon2"}


@dataclass
class FlagSet:
    """The flagged points of one sweep.

    points is an (m, 4) array of (x0, x1, x2, t) rows ordered by
    (t, x0, x1, x2); r_star and value are the (m,) radius and criterion
    value of each row; the two thresholds are the sweep's, the same for
    every row.
    """

    points: np.ndarray
    r_star: np.ndarray
    value: np.ndarray
    working_threshold: float
    paper_threshold: float

    def __len__(self):
        return len(self.points)

    @property
    def margin(self) -> np.ndarray:
        return self.value / self.working_threshold

    def rows(self) -> list:
        """One FLAG_COLUMNS row per flagged point."""
        return [[t, x0, x1, x2, r, v, self.working_threshold,
                 self.paper_threshold, m]
                for (x0, x1, x2, t), r, v, m in zip(
                    self.points.tolist(), self.r_star.tolist(),
                    self.value.tolist(), self.margin.tolist())]


#: the dissipation integrands |grad sqrt(n)|^2, |grad u|^2, |hess sqrt(c)|^2
_DISSIPATION = (("grad_sqrt_n_sq", 1.0), ("grad_u_sq", 1.0), ("hess_sqrt_c_sq", 1.0))


def _sup_bundle(w: float = 1.0):
    """The ``fields`` of the sup-in-time bundle, one integrand
    n + |n ln(w n)| + |grad sqrt(c)|^2 + |u|^2.  w rescales the density
    argument of the logarithm for analytically rescaled bundles."""

    def fields(at):
        n = np.maximum(at("n"), 0.0)
        nln = np.abs(n * guarded_log(n, w))
        return [n + nln + np.sum(at("grad_sqrt_c") ** 2, axis=0)
                + np.sum(at("u") ** 2, axis=0)]

    return fields


def _cubic_bundle(w: float):
    """The ``fields`` of the cubic bundle: n^(3/2)(|ln(w n)| + 1)^(3/2),
    |grad sqrt(c)|^3, |u|^3 and |P|^(3/2)."""
    catalog = catalog_fields(("abs_grad_sqrt_c", 3.0), ("abs_u", 3.0),
                             ("abs_p", 1.5))

    def fields(at):
        n = np.maximum(at("n"), 0.0)
        lnw = np.abs(guarded_log(n, w))
        return [n**1.5 * (lnw + 1.0) ** 1.5, *catalog(at)]

    return fields


def _criterion(criterion: str, radii: Sequence[float], cfg: RegularityConfig,
               cylinder):
    """The one definition of each criterion (see ``flag_thm13`` and
    ``flag_thm16``; thm16 takes rho0 = max(radii)), at one centre or at
    every grid point at once.

    ``cylinder(r, integrals, sups)`` returns the (integrals, sups) of the
    cylinder of radius r: ``cylinder_values`` at one centre, whose entries
    are floats, or ``cylinder_maps`` at one time, whose entries are
    whole-grid maps.  Returns (value, r_star, detail), scalars or maps
    alike; detail is thm13's value per radius or a thm16 bundle's parts.
    """
    if criterion == "thm13":
        per_radius = {}
        best_v = best_r = -np.inf
        for r in sorted(float(r) for r in radii):
            i_n, i_u, i_c = cylinder(r, catalog_fields(*_DISSIPATION), None)[0]
            val = r ** (-1.0 - cfg.delta0) * i_n + (1.0 / r) * (i_u + i_c)
            per_radius[r] = val
            better = val > best_v  # ties keep the smaller radius
            best_v = np.where(better, val, best_v)
            best_r = np.where(better, r, best_r)
        return best_v, best_r, per_radius
    rho0 = float(max(radii))
    if criterion == "thm16i":
        (i_n, i_u, i_c, i_p), (sup,) = cylinder(
            rho0, catalog_fields(*_DISSIPATION, ("abs_p", 1.5)), _sup_bundle(rho0**2))
        parts = {"sup_part": (1.0 / rho0) * sup,
                 "dissipation": (1.0 / rho0) * (i_n + i_u + i_c),
                 "pressure": rho0**-2 * i_p}
    else:
        ints = cylinder(rho0, _cubic_bundle(rho0**2), None)[0]
        parts = dict(zip(("density", "chemo", "velocity", "pressure"),
                         (rho0**-2 * v for v in ints)))
    value = sum(parts.values())
    return value, np.full(np.shape(value), rho0), parts


def _at_centre(traj: Trajectory, x0, t0: float):
    """``_criterion``'s ``cylinder`` at the one centre (x0, t0)."""
    return lambda r, integrals, sups: cylinder_values(
        traj, ParabolicCylinder(x0, t0, r), integrals, sups)


def _centre_report(traj: Trajectory, z0, criterion: str, radii, cfg: RegularityConfig,
                   detail: str) -> dict:
    """The report shape of every criterion at one centre z0, its detail
    under the key ``detail``: flagged when the value is not certified to
    lie at or below the working threshold."""
    value, r_star, parts = _criterion(criterion, radii, cfg,
                                      _at_centre(traj, tuple(z0[0]), float(z0[1])))
    value, thr = float(value), cfg.working_threshold
    return {"value": value, "r_star": float(r_star), "working_threshold": thr,
            "paper_threshold": thresholds(cfg, traj.params)[PAPER_THRESHOLD[criterion]],
            "flagged": not value <= thr, "margin": value / thr,
            detail: {k: float(v) for k, v in parts.items()}}


def flag_thm13(traj: Trajectory, z0, radii: Sequence[float],
               cfg: RegularityConfig) -> dict:
    """Weighted-gradient smallness check at z0 over the supplied radii.

    The functional is the maximum over radii of the delta0-weighted
    density-gradient integral r^(-1-delta0) * int_Q |grad sqrt(n)|^2 plus
    the scale-invariant dissipation integral r^(-1) * int_Q (|grad u|^2 +
    |hess sqrt(c)|^2), one pass per radius; the point is flagged when it
    exceeds the working threshold.  The paper threshold comes from the
    trajectory's physics.
    """
    if not radii:
        raise CylinderRangeError("need at least one radius")
    return _centre_report(traj, z0, "thm13", radii, cfg, "per_radius")


def flag_thm16(traj: Trajectory, z0, cfg: RegularityConfig,
               variant: str = "ii", rho0: float = 0.25) -> dict:
    """Unit-cylinder smallness bundle at z0, evaluated by analytically
    rescaling the working cylinder of radius rho0 to unit size.

    variant "i": sup-in-time ball integral of (n + |n ln n| + |grad
    sqrt(c)|^2 + |u|^2) plus the space-time dissipation integral and the
    pressure 3/2-integral.  variant "ii": the cubic bundle
    n^(3/2)(|ln n|+1)^(3/2) + |grad sqrt(c)|^3 + |u|^3 + |P|^(3/2).

    Under the parabolic rescaling the unit-cylinder bundle of the rescaled
    fields equals a weighted cylinder integral of the original fields
    (weights rho0^-1 for the quadratic terms, rho0^-2 for the cubic and
    pressure terms, with ln n shifted to ln(rho0^2 n)); both variants are
    evaluated in that exact form, so no field interpolation occurs.
    Either variant takes one pass over Q.  The point is flagged
    (inconclusive) unless the bundle is at or below the working threshold
    (regular); r_star is rho0.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    return _centre_report(traj, z0, "thm16" + variant, (rho0,), cfg, "parts")


def flag_sweep(traj: Trajectory, centers: np.ndarray, radii: Sequence[float],
               cfg: RegularityConfig, criterion: str = "thm13") -> FlagSet:
    """Evaluate one criterion at every row of an (m, 4) array of candidate
    centres; collect the flagged ones, ordered by (t, x0, x1, x2).

    thm16i and thm16ii evaluate their bundle at rho0 = max(radii).  The
    rows that are grid points are read from whole-grid criterion maps
    (``cylinder_maps``), one set per time t0; off-grid rows are evaluated
    one by one (``cylinder_values``), by the same ``_criterion`` as
    ``flag_thm13`` / ``flag_thm16``.  Map and per-centre values agree to
    rounding relative to the map's largest value.
    """
    if criterion not in PAPER_THRESHOLD:
        raise ValueError(f"unknown criterion {criterion!r}")
    if len(radii) == 0:
        raise CylinderRangeError("need at least one radius")
    pts = _spacetime_points(centers)
    value, r_star = np.empty(len(pts)), np.empty(len(pts))
    on_grid, index = _grid_index(traj.grid, pts[:, :3])
    for t0 in np.unique(pts[on_grid, 3]).tolist():
        rows = np.flatnonzero(on_grid & (pts[:, 3] == t0))
        at = tuple(index[rows].T)
        v_map, r_map, _ = _criterion(criterion, radii, cfg,
                                     partial(cylinder_maps, traj, t0))
        value[rows], r_star[rows] = v_map[at], r_map[at]
    for row in np.flatnonzero(~on_grid).tolist():
        *x0, t0 = pts[row].tolist()
        value[row], r_star[row], _ = _criterion(criterion, radii, cfg,
                                                _at_centre(traj, x0, t0))
    keep = ~(value <= cfg.working_threshold)
    order = np.lexsort(pts[:, [2, 1, 0, 3]].T)  # by t, then x0, x1, x2
    order = order[keep[order]]
    return FlagSet(
        points=pts[order],
        r_star=r_star[order],
        value=value[order],
        working_threshold=cfg.working_threshold,
        paper_threshold=thresholds(cfg, traj.params)[PAPER_THRESHOLD[criterion]],
    )


# ---------------------------------------------------------------------------
# scale iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleRecord:
    """Inputs of one iteration scale: the combined quantity G and the two
    smallness hypotheses' left-hand sides."""

    rho: float
    g: float
    e_sqrt_n: float
    e_grad_sqrt_c_u: float


def iteration_trace(records: Sequence[ScaleRecord], cfg: RegularityConfig,
                    eps: Optional[float] = None) -> dict:
    """Check the one-step contraction G(theta0 rho) <= G(rho)/2 + 2 eps^(1/4)
    along a decreasing sequence of scales.

    records must be ordered by decreasing rho with ratio theta0 between
    consecutive scales.  At each step the smallness hypothesis
    (E_sqrt_n(rho) <= eps rho^delta0 and E_{grad sqrt c, u}(rho) <= eps)
    is recorded; the contraction is asserted only where it held.  Also
    reports the first index k0 with G <= 5 eps^(1/4).
    """
    if len(records) < 2:
        raise ValueError("iteration needs at least two scales")
    rhos = [rec.rho for rec in records]
    for a, b in zip(rhos, rhos[1:]):
        if not math.isclose(b / a, cfg.theta0, rel_tol=1e-9):
            raise ValueError(
                f"scales must contract by theta0={cfg.theta0}: got {a} -> {b}"
            )
    eps = cfg.working_threshold if eps is None else float(eps)
    bound_add = 2.0 * eps**0.25
    handoff = 5.0 * eps**0.25
    steps = []
    for prev, nxt in zip(records, records[1:]):
        hyp = (prev.e_sqrt_n <= eps * prev.rho**cfg.delta0
               and prev.e_grad_sqrt_c_u <= eps)
        bound = 0.5 * prev.g + bound_add
        steps.append({
            "rho": prev.rho,
            "g": prev.g,
            "g_next": nxt.g,
            "hypothesis_held": hyp,
            "bound": bound,
            "contraction_holds": (nxt.g <= bound) if hyp else None,
            "slack": bound - nxt.g,
        })
    k0 = next((k for k, rec in enumerate(records) if rec.g <= handoff), None)
    ok = all(st["contraction_holds"] is not False for st in steps)
    return {
        "eps": eps,
        "handoff_level": handoff,
        "steps": steps,
        "k0": k0,
        "g_values": [rec.g for rec in records],
        "all_contractions_hold": ok,
    }


def trace_from_trajectory(traj: Trajectory, z0, rho0: float, levels: int,
                          cfg: RegularityConfig,
                          eps: Optional[float] = None) -> dict:
    """Build the iteration records from cylinder quantities at radii
    theta0^k rho0, k = 0..levels-1, then run iteration_trace."""
    x0, t0 = tuple(z0[0]), float(z0[1])
    records = []
    for k in range(levels):
        rho = rho0 * cfg.theta0**k
        Q = ParabolicCylinder(x0, t0, rho)
        q = compute_quantities(traj, Q)
        records.append(ScaleRecord(
            rho=rho, g=q.g, e_sqrt_n=q.e_sqrt_n,
            e_grad_sqrt_c_u=q.e_grad_sqrt_c + q.e_u,
        ))
    out = iteration_trace(records, cfg, eps=eps)
    out["records"] = records
    return out


# ---------------------------------------------------------------------------
# dyadic induction
# ---------------------------------------------------------------------------

def induction_verify(traj: Trajectory, z0, k_max: int, cfg: RegularityConfig,
                     eps0: Optional[float] = None) -> dict:
    """Evaluate the dyadic induction bound at radii r_k = 2^-k, k = 1..k_max:

        r_k^-3 sup_t int_{B_{r_k}} (n + |n ln n| + |grad sqrt c|^2 + |u|^2)
        + r_k^-3 int_{Q_{r_k}} (|grad sqrt n|^2 + |hess sqrt c|^2 + |grad u|^2)
        + r_k^-4 int_{Q_{r_k}} |P - P_bar|^(3/2)   <=   C1 eps0^(1/2)

    with P_bar the ball mean per snapshot.  eps0 defaults to the working
    threshold; each level needs at least 8 grid cells across B_{r_k}; each
    level takes one pass over its cylinder.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    x0, t0 = tuple(z0[0]), float(z0[1])
    g = traj.grid
    eps0 = cfg.working_threshold if eps0 is None else float(eps0)
    bound = cfg.c1 * math.sqrt(eps0)
    dissipation = catalog_fields(*_DISSIPATION)

    def integrals(at):
        return [*dissipation(at), mean_removed(at("p"), 1.5)]

    levels = []
    for k in range(1, k_max + 1):
        r = 2.0**-k
        if 2.0 * r / g.h < 8.0:
            raise CylinderRangeError(
                f"level k={k} needs >= 8 cells across B_r (r={r}, h={g.h})"
            )
        ints, sups = cylinder_values(traj, ParabolicCylinder(x0, t0, r), integrals,
                                     _sup_bundle())
        sup_part = r**-3 * float(sups[0])
        i_n, i_u, i_c, i_p = ints.tolist()
        diss = r**-3 * (i_n + i_c + i_u)
        press = r**-4 * i_p
        lhs = sup_part + diss + press
        levels.append({
            "k": k, "r": r, "sup_part": sup_part, "dissipation": diss,
            "pressure": press, "lhs": lhs, "bound": bound,
            "holds": lhs <= bound,
        })
    return {
        "eps0": eps0,
        "c1": cfg.c1,
        "bound": bound,
        "levels": levels,
        "all_hold": all(lv["holds"] for lv in levels),
    }
