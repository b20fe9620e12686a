"""Scale-invariant cylinder quantities, their scaling verification, and the
entropy log-splitting.

Every quantity is a weighted space-time norm over a parabolic cylinder,
normalized so it is unchanged by the parabolic rescaling of the fields
(n by rho^2, u by rho, P by rho^2, lengths by 1/rho, times by 1/rho^2).
The two entropy quantities M and N are the deliberate exceptions: n ln n
does not transform homogeneously, and the splitting below quantifies by
how much.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .grid_fields import ParabolicCylinder, catalog_fields, cylinder_values
from .state import Trajectory, guarded_log, rescale_state

#: quantity names whose values are exactly preserved by the rescaling
INVARIANT_NAMES = (
    "a_u", "e_u", "a_grad_sqrt_c", "e_grad_sqrt_c", "a_sqrt_n", "e_sqrt_n",
    "c_u", "c_u_tilde", "c_sqrt_n", "c_grad_sqrt_c", "d",
)

#: quantities that are *not* scaling-invariant (entropy weights)
NON_INVARIANT_NAMES = ("m", "n_entropy")


@dataclass
class LocalQuantities:
    """All cylinder quantities at one (center, radius).

    a_* are sup-in-time quantities (weight 1/r), e_* are dissipation
    integrals (weight 1/r), c_* are cubic integrals (weight 1/r^2), d is
    the pressure 3/2-integral (weight 1/r^2), m and n_entropy carry the
    n ln n weight.  g = n_entropy + d + c_combined drives the scale
    iteration.
    """

    r: float
    center_x: tuple
    center_t: float
    a_u: float
    e_u: float
    a_grad_sqrt_c: float
    e_grad_sqrt_c: float
    a_sqrt_n: float
    e_sqrt_n: float
    c_u: float
    c_u_tilde: float
    c_sqrt_n: float
    c_grad_sqrt_c: float
    d: float
    m: float
    n_entropy: float
    a_combined: float
    e_combined: float
    c_combined: float
    g: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def mean_removed(a: np.ndarray, power: float) -> np.ndarray:
    """The integrand |a - (a)_B|^power of a field's values ``a`` on one
    ball's cells, as a view gives them (``at("p")``, or ``at("u")``, whose
    ball mean is removed componentwise), (a)_B their mean.  A ball-mean
    integrand, so for per-centre passes only."""
    centered = a - a.mean(axis=-1, keepdims=True)
    mag = np.sqrt(np.sum(centered**2, axis=0)) if a.ndim == 2 else np.abs(centered)
    return mag**power


def compute_quantities(traj: Trajectory, Q: ParabolicCylinder) -> LocalQuantities:
    """Evaluate every cylinder quantity on Q in one pass over Q: sups in
    time (the a_* and m) and space-time integrals (the rest, with
    c_u_tilde's ball mean removed snapshot by snapshot).

    The pressure integral d uses raw |P|; the mean-removed pressure enters
    only the dyadic induction (``regularity.induction_verify``).
    """
    r = Q.radius
    inv_r = 1.0 / r
    inv_r2 = inv_r * inv_r
    catalog = catalog_fields(
        ("grad_u_sq", 1.0), ("hess_sqrt_c_sq", 1.0), ("grad_sqrt_n_sq", 1.0),
        ("abs_u", 3.0), ("sqrt_n", 3.0), ("abs_grad_sqrt_c", 3.0),
        ("abs_p", 1.5), ("abs_n_ln_n", 1.5))
    ints, sups = cylinder_values(
        traj, Q,
        integrals=lambda at: [*catalog(at), mean_removed(at("u"), 3.0)],
        sups=catalog_fields(("abs_u", 2.0), ("abs_grad_sqrt_c", 2.0),
                            ("sqrt_n", 2.0), ("abs_n_ln_n", 1.0)))
    a_u, a_gc, a_sn, m = (inv_r * sups).tolist()
    e_u, e_gc, e_sn = (inv_r * ints[:3]).tolist()
    c_u, c_sn, c_gc, d, n_ent, c_ut = (inv_r2 * ints[3:]).tolist()

    a_comb = a_u + a_gc + a_sn
    e_comb = e_u + e_gc + e_sn
    c_comb = c_u + c_sn + c_gc
    return LocalQuantities(
        r=r, center_x=Q.center_x, center_t=Q.center_t,
        a_u=a_u, e_u=e_u, a_grad_sqrt_c=a_gc, e_grad_sqrt_c=e_gc,
        a_sqrt_n=a_sn, e_sqrt_n=e_sn, c_u=c_u, c_u_tilde=c_ut,
        c_sqrt_n=c_sn, c_grad_sqrt_c=c_gc, d=d, m=m, n_entropy=n_ent,
        a_combined=a_comb, e_combined=e_comb, c_combined=c_comb,
        g=n_ent + d + c_comb,
    )


def rescaled_cylinder(Q: ParabolicCylinder, rho0: float) -> ParabolicCylinder:
    """The image of Q under the rescaling: radius r/rho0, center mapped by
    x -> x/rho0, t -> t/rho0^2."""
    return ParabolicCylinder(
        tuple(x / rho0 for x in Q.center_x),
        Q.center_t / rho0**2,
        Q.radius / rho0,
        shifted=Q.shifted,
    )


def verify_scaling_invariance(traj: Trajectory, rho0: float,
                              Q: ParabolicCylinder, delta0: float = 0.05) -> dict:
    """Compare every quantity on (traj, Q) against the rescaled trajectory
    on the rescaled cylinder.

    Returns per-quantity (original, rescaled, relative deviation); the
    entropy quantities are reported with their ratio and marked expected
    non-invariant.  Also checks that the r^(-1-delta0) density-gradient
    functional scales by exactly rho0^delta0.
    """
    scaled = rescale_state(traj, rho0)
    Qs = rescaled_cylinder(Q, rho0)
    orig = compute_quantities(traj, Q)
    resc = compute_quantities(scaled, Qs)
    report = {"rho0": rho0, "quantities": {}, "non_invariant": {}}
    for name in INVARIANT_NAMES:
        a, b = getattr(orig, name), getattr(resc, name)
        denom = max(abs(a), abs(b), 1e-300)
        report["quantities"][name] = {
            "original": a, "rescaled": b, "rel_dev": abs(a - b) / denom,
        }
    for name in NON_INVARIANT_NAMES:
        a, b = getattr(orig, name), getattr(resc, name)
        report["non_invariant"][name] = {
            "original": a, "rescaled": b,
            "ratio": b / a if a != 0 else np.inf if b != 0 else 1.0,
            "invariant": np.isclose(a, b, rtol=1e-6, atol=1e-300),
        }
    # weighted density-gradient functional: scales by exactly rho0^delta0
    grad_n = catalog_fields(("grad_sqrt_n_sq", 1.0))
    (f_orig,) = cylinder_values(traj, Q, grad_n)[0].tolist()
    (f_resc,) = cylinder_values(scaled, Qs, grad_n)[0].tolist()
    f_orig *= Q.radius ** (-1.0 - delta0)
    f_resc *= Qs.radius ** (-1.0 - delta0)
    report["weighted_grad_sqrt_n"] = {
        "original": f_orig,
        "rescaled": f_resc,
        "expected_factor": rho0**delta0,
        "measured_factor": f_resc / f_orig if f_orig != 0 else 1.0,
    }
    return report


@dataclass
class LogSplit:
    """Partition of the rescaled entropy integral by density range."""

    rho0: float
    m1: float  # contribution of {n < rho0^(-3/2)}
    m2: float  # contribution of {rho0^(-3/2) <= n <= rho0^(-2)}
    m3: float  # contribution of {n > rho0^(-2)}

    @property
    def total(self) -> float:
        return self.m1 + self.m2 + self.m3


def log_split(traj: Trajectory, rho0: float, Q: ParabolicCylinder) -> LogSplit:
    """Split rho0^(-2) * integral over Q of |n ln(rho0^2 n)|^(3/2) into the
    three density bands below/between/above rho0^(-3/2) and rho0^(-2).

    The bands are disjoint and exhaustive, so the parts sum to the full
    integral exactly.
    """
    if not 0.0 < rho0 < 1.0:
        raise ValueError(f"rho0 must lie in (0, 1), got {rho0}")
    lo, hi = rho0 ** (-1.5), rho0 ** (-2.0)

    def bands(at):
        n = np.maximum(at("n"), 0.0)
        val = np.abs(n * guarded_log(n, rho0**2)) ** 1.5
        return [val[sel] for sel in (n < lo, (n >= lo) & (n <= hi), n > hi)]

    m1, m2, m3 = (rho0 ** (-2.0) * cylinder_values(traj, Q, bands)[0]).tolist()
    return LogSplit(rho0=rho0, m1=m1, m2=m2, m3=m3)
