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
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .grid_fields import (
    CylinderRangeError,
    ParabolicCylinder,
    ball_mask,
    cylinder_time_integral,
    integrate_cylinder,
)
from .state import Trajectory, guarded_log


def gamma_window(delta0: float) -> tuple[float, float]:
    """Admissible open interval for the interpolation exponent gamma.

    Nonempty for every delta0 > 0 since delta0/(6 - 3*delta0) > 0.
    """
    return (0.0, min(1.0 / 9.0, delta0 / (6.0 - 3.0 * delta0)))


@dataclass(frozen=True)
class RegularityConfig:
    """Exponents and constants of the regularity criteria.

    delta0 tunes the weighted density-gradient functional; gamma is the
    interpolation exponent of the iteration (defaults to the midpoint of
    its admissible window); theta0 is the scale-contraction ratio; c1 the
    induction constant; a0 the sup-in-time mass of the density; eps1 the
    base smallness parameter entering every closed-form threshold.
    working_threshold is what flags actually compare against.
    """

    delta0: float = 0.05
    eps1: float = 1.0
    gamma: Optional[float] = None
    theta0: float = 1.0 / 8.0
    c1: float = 2.0
    a0: float = 0.0
    working_threshold: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.delta0 <= 0.1:
            raise ValueError(f"delta0 must lie in (0, 1/10], got {self.delta0}")
        if self.eps1 <= 0.0:
            raise ValueError("eps1 must be positive")
        lo, hi = gamma_window(self.delta0)
        if self.gamma is None:
            object.__setattr__(self, "gamma", 0.5 * (lo + hi))
        if not lo < self.gamma < hi:
            raise ValueError(
                f"gamma must lie in ({lo}, {hi}) for delta0={self.delta0}"
            )
        if not 0.0 < self.theta0 < 0.25:
            raise ValueError(f"theta0 must lie in (0, 1/4), got {self.theta0}")
        if self.c1 <= 1.0:
            raise ValueError("c1 must exceed 1")
        if self.a0 < 0.0:
            raise ValueError("a0 must be nonnegative")
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
        chi_norm = params.chi_norm
        gp_max = params.gradphi_max
        c0_max = params.c0_max
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

@dataclass(frozen=True)
class FlagEntry:
    """One point where a smallness criterion was not certified."""

    center_x: tuple
    center_t: float
    r_star: float
    value: float
    working_threshold: float
    paper_threshold: float

    @property
    def margin(self) -> float:
        return self.value / self.working_threshold


@dataclass
class FlagSet:
    """Deterministically ordered collection of flagged points."""

    entries: list = field(default_factory=list)

    def __post_init__(self):
        self.entries = sorted(
            self.entries, key=lambda e: (e.center_t,) + tuple(e.center_x)
        )

    def __len__(self):
        return len(self.entries)

    def points(self) -> list:
        return [(e.center_x, e.center_t) for e in self.entries]

    def rows(self) -> list:
        return [
            {
                "t0": e.center_t,
                "x0": e.center_x[0], "x1": e.center_x[1], "x2": e.center_x[2],
                "r_star": e.r_star,
                "value": e.value,
                "working_threshold": e.working_threshold,
                "paper_threshold": e.paper_threshold,
                "margin": e.margin,
            }
            for e in self.entries
        ]


def weighted_gradient_functional(traj: Trajectory, Q: ParabolicCylinder,
                                 delta0: float) -> dict:
    """r^(-1-delta0) * integral of |grad sqrt(n)|^2 over Q plus
    r^(-1) * integral of (|grad u|^2 + |hess sqrt(c)|^2)."""
    r = Q.radius
    part_n = r ** (-1.0 - delta0) * integrate_cylinder(traj, "grad_sqrt_n_sq", Q)
    part_uc = (1.0 / r) * (
        integrate_cylinder(traj, "grad_u_sq", Q)
        + integrate_cylinder(traj, "hess_sqrt_c_sq", Q)
    )
    return {"density_part": part_n, "velocity_chem_part": part_uc,
            "total": part_n + part_uc}


def flag_thm13(traj: Trajectory, z0, radii: Sequence[float],
               cfg: RegularityConfig, params=None,
               threshold: Optional[float] = None) -> dict:
    """Weighted-gradient smallness check at z0 over the supplied radii.

    The functional is the maximum over radii of the delta0-weighted
    density-gradient integral plus the scale-invariant dissipation integral;
    the point is flagged when it exceeds the working threshold.
    """
    if not radii:
        raise CylinderRangeError("need at least one radius")
    x0, t0 = tuple(z0[0]), float(z0[1])
    thr = cfg.working_threshold if threshold is None else float(threshold)
    per_radius = {}
    best_r, best_v = None, -np.inf
    for r in sorted(radii):
        Q = ParabolicCylinder(x0, t0, float(r))
        val = weighted_gradient_functional(traj, Q, cfg.delta0)["total"]
        per_radius[float(r)] = val
        if val > best_v:
            best_r, best_v = float(r), val
    paper_thr = thresholds(cfg, params)["epsilon"]
    flagged = best_v > thr
    entry = None
    if flagged:
        entry = FlagEntry(
            center_x=x0, center_t=t0, r_star=best_r, value=best_v,
            working_threshold=thr, paper_threshold=paper_thr,
        )
    return {
        "center": (x0, t0),
        "per_radius": per_radius,
        "value": best_v,
        "r_star": best_r,
        "working_threshold": thr,
        "paper_threshold": paper_thr,
        "flagged": flagged,
        "margin": best_v / thr,
        "entry": entry,
    }


def _sup_in_time_bundle(traj: Trajectory, Q: ParabolicCylinder,
                        with_log_weight: Optional[float] = None) -> float:
    """sup over snapshots in Q's time window of the ball integral of
    n + |n ln n| + |grad sqrt(c)|^2 + |u|^2.

    with_log_weight rescales the density argument of the logarithm
    (|n ln(w n)| instead of |n ln n|) for analytically rescaled bundles.
    """
    g = traj.grid
    Q.check_fits(g)
    t_lo, t_hi = Q.time_interval()
    mask = ball_mask(g, Q.center_x, Q.radius)
    vol = g.cell_volume
    times = traj.times
    sel = np.where((times >= t_lo - 1e-12) & (times <= t_hi + 1e-12))[0]
    if len(sel) == 0:
        raise CylinderRangeError("no snapshots inside the cylinder time window")
    w = 1.0 if with_log_weight is None else float(with_log_weight)
    best = 0.0
    for i in sel:
        s = traj.states[i]
        n = np.maximum(s.n[mask], 0.0)
        nln = np.abs(n * guarded_log(n, w))
        total = float(
            np.sum(n + nln) * vol
            + np.sum(s.derived("grad_sqrt_c")[..., mask] ** 2) * vol
            + np.sum(s.u[..., mask] ** 2) * vol
        )
        best = max(best, total)
    return best


def flag_thm16(traj: Trajectory, z0, cfg: RegularityConfig, params=None,
               variant: str = "ii", rho0: float = 0.25,
               threshold: Optional[float] = None) -> dict:
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
    Returns a regular-certificate when the bundle is below threshold and
    "inconclusive" otherwise.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    x0, t0 = tuple(z0[0]), float(z0[1])
    thr = cfg.working_threshold if threshold is None else float(threshold)
    Q = ParabolicCylinder(x0, t0, float(rho0))
    w = rho0**2
    vol = traj.grid.cell_volume
    paper = thresholds(cfg, params)
    if variant == "i":
        sup_part = (1.0 / rho0) * _sup_in_time_bundle(traj, Q, with_log_weight=w)
        diss = (1.0 / rho0) * (
            integrate_cylinder(traj, "grad_sqrt_n_sq", Q)
            + integrate_cylinder(traj, "grad_u_sq", Q)
            + integrate_cylinder(traj, "hess_sqrt_c_sq", Q)
        )
        press = rho0**-2 * integrate_cylinder(traj, "abs_p", Q, p=1.5)
        value = sup_part + diss + press
        parts = {"sup_part": sup_part, "dissipation": diss, "pressure": press}
        paper_thr = paper["epsilon0"]
    else:
        def cubic_density(state, mask):
            n = np.maximum(state.n[mask], 0.0)
            lnw = np.abs(guarded_log(n, w))
            return float(np.sum(n**1.5 * (lnw + 1.0) ** 1.5) * vol)

        dens = rho0**-2 * cylinder_time_integral(traj, Q, cubic_density)
        chem = rho0**-2 * integrate_cylinder(traj, "abs_grad_sqrt_c", Q, p=3.0)
        velo = rho0**-2 * integrate_cylinder(traj, "abs_u", Q, p=3.0)
        press = rho0**-2 * integrate_cylinder(traj, "abs_p", Q, p=1.5)
        value = dens + chem + velo + press
        parts = {"density": dens, "chemo": chem, "velocity": velo,
                 "pressure": press}
        paper_thr = paper["epsilon2"]
    certified = value <= thr
    entry = None
    if not certified:
        entry = FlagEntry(
            center_x=x0, center_t=t0, r_star=float(rho0), value=value,
            working_threshold=thr, paper_threshold=paper_thr,
        )
    return {
        "center": (x0, t0),
        "variant": variant,
        "rho0": float(rho0),
        "parts": parts,
        "value": value,
        "working_threshold": thr,
        "paper_threshold": paper_thr,
        "status": "regular_certified" if certified else "inconclusive",
        "margin": value / thr,
        "entry": entry,
    }


def flag_sweep(traj: Trajectory, centers: Sequence, radii: Sequence[float],
               cfg: RegularityConfig, params=None,
               criterion: str = "thm13") -> FlagSet:
    """Evaluate one criterion over many candidate centers; collect flags.

    centers is a sequence of ((x, y, z), t) points; the result is ordered
    deterministically by (t, x).
    """
    entries = []
    for z0 in centers:
        if criterion == "thm13":
            rep = flag_thm13(traj, z0, radii, cfg, params=params)
        elif criterion in ("thm16i", "thm16ii"):
            rep = flag_thm16(traj, z0, cfg, params=params,
                             variant="i" if criterion == "thm16i" else "ii",
                             rho0=max(radii))
        else:
            raise ValueError(f"unknown criterion {criterion!r}")
        if rep["entry"] is not None:
            entries.append(rep["entry"])
    return FlagSet(entries)


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
    from .diagnostics import compute_quantities

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
                     params=None, eps0: Optional[float] = None) -> dict:
    """Evaluate the dyadic induction bound at radii r_k = 2^-k, k = 1..k_max:

        r_k^-3 sup_t int_{B_{r_k}} (n + |n ln n| + |grad sqrt c|^2 + |u|^2)
        + r_k^-3 int_{Q_{r_k}} (|grad sqrt n|^2 + |hess sqrt c|^2 + |grad u|^2)
        + r_k^-4 int_{Q_{r_k}} |P - P_bar|^(3/2)   <=   C1 eps0^(1/2)

    with P_bar the ball mean per snapshot.  eps0 defaults to the working
    threshold; each level needs at least 8 grid cells across B_{r_k}.
    """
    from .diagnostics import _mean_removed_integral

    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    x0, t0 = tuple(z0[0]), float(z0[1])
    g = traj.grid
    eps0 = cfg.working_threshold if eps0 is None else float(eps0)
    bound = cfg.c1 * math.sqrt(eps0)
    levels = []
    for k in range(1, k_max + 1):
        r = 2.0**-k
        if 2.0 * r / g.h < 8.0:
            raise CylinderRangeError(
                f"level k={k} needs >= 8 cells across B_r (r={r}, h={g.h})"
            )
        Q = ParabolicCylinder(x0, t0, r)
        sup_part = r**-3 * _sup_in_time_bundle(traj, Q)
        diss = r**-3 * (
            integrate_cylinder(traj, "grad_sqrt_n_sq", Q)
            + integrate_cylinder(traj, "hess_sqrt_c_sq", Q)
            + integrate_cylinder(traj, "grad_u_sq", Q)
        )
        press = r**-4 * _mean_removed_integral(traj, Q, lambda s: s.p, 1.5)
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
