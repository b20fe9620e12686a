"""Energy inequalities: backward-heat-kernel test functions, the global
energy bound, and the local energy inequality residual.

The test functions are products of the backward heat kernel
Psi_n(x,t) = (r_n^2 - t)^(-3/2) exp(-|x|^2 / (4 (r_n^2 - t))), r_k = 2^(-k),
with a radial-in-space, quintic space-time cutoff xi that equals 1 on the
cylinder Q_{r_4} and vanishes outside Q_{r_3}.  On the plateau the product
is exactly backward caloric, so the (dt + Delta) terms of the local energy
inequality vanish there analytically, not just to quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid_fields import ball_mask, gradient, laplacian
from .state import EPS_FLOOR, Trajectory


def _smoothstep(s: np.ndarray) -> np.ndarray:
    # ninth-order monotone step (C^4 at both endpoints); the extra
    # smoothness keeps the spectrally sampled Laplacian of the cutoff
    # accurate at moderate grid resolutions.
    return s**5 * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + 70.0 * s))))


def _smoothstep_d1(s: np.ndarray) -> np.ndarray:
    return 630.0 * (s * (1.0 - s)) ** 4


def _smoothstep_d2(s: np.ndarray) -> np.ndarray:
    return 2520.0 * (s * (1.0 - s)) ** 3 * (1.0 - 2.0 * s)


class _RadialCutoff:
    """xi(x, t) = X(|x|) T(t): 1 for |x| <= a_x and t >= -a_t, 0 for
    |x| >= b_x or t <= -b_t, C^4 polynomial step in between."""

    def __init__(self, a_x, b_x, a_t, b_t):
        if not (0 < a_x < b_x and 0 < a_t < b_t):
            raise ValueError("cutoff needs 0 < plateau < support in space and time")
        self.a_x, self.b_x, self.a_t, self.b_t = a_x, b_x, a_t, b_t

    def _sx(self, rho):
        return np.clip((rho - self.a_x) / (self.b_x - self.a_x), 0.0, 1.0)

    def x_val(self, rho):
        return 1.0 - _smoothstep(self._sx(rho))

    def x_d1(self, rho):
        inside = (rho > self.a_x) & (rho < self.b_x)
        return np.where(
            inside, -_smoothstep_d1(self._sx(rho)) / (self.b_x - self.a_x), 0.0
        )

    def x_d2(self, rho):
        inside = (rho > self.a_x) & (rho < self.b_x)
        return np.where(
            inside, -_smoothstep_d2(self._sx(rho)) / (self.b_x - self.a_x) ** 2, 0.0
        )

    def _st(self, t):
        return np.clip((-t - self.a_t) / (self.b_t - self.a_t), 0.0, 1.0)

    def t_val(self, t):
        return 1.0 - _smoothstep(self._st(t))

    def t_d1(self, t):
        t = np.asarray(t, dtype=float)
        inside = (-t > self.a_t) & (-t < self.b_t)
        return np.where(
            inside, _smoothstep_d1(self._st(t)) / (self.b_t - self.a_t), 0.0
        )


class TestFunction:
    """Nonnegative space-time cutoff psi with analytic gradient and heat
    residual (dt psi + Delta psi).

    kind "heat_kernel": psi = Psi_level * xi; kind "smooth_bump": psi = xi
    alone.  Coordinates are relative to the function's own center; callers
    shift by the cylinder center and apply the minimum-image convention.
    """

    def __init__(self, kind: str, cutoff: _RadialCutoff,
                 level: Optional[int] = None, scale: float = 1.0):
        if kind not in ("heat_kernel", "smooth_bump"):
            raise ValueError(f"unknown test-function kind {kind!r}")
        if kind == "heat_kernel" and (level is None or level < 2):
            raise ValueError("heat-kernel test functions need level >= 2")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.kind = kind
        self.cutoff = cutoff
        self.level = level
        self.scale = float(scale)
        self.r_level = 2.0 ** (-level) if level is not None else None
        self.support_radius = scale * cutoff.b_x
        self.support_time = scale**2 * cutoff.b_t  # psi = 0 for t <= -this

    # -- radial building blocks --------------------------------------------
    def _kernel(self, rho, t):
        s = self.r_level**2 - t
        psi = s ** (-1.5) * np.exp(-(rho**2) / (4.0 * s))
        dpsi_drho = -rho / (2.0 * s) * psi
        return psi, dpsi_drho

    def value_rt(self, rho, t):
        """psi as a function of radius and time (scaled coordinates)."""
        return self._value_base(np.asarray(rho, dtype=float) / self.scale,
                                t / self.scale**2)

    def _value_base(self, rho, t):
        xi = self.cutoff.x_val(rho) * self.cutoff.t_val(t)
        if self.kind == "smooth_bump":
            return xi
        return self._kernel(rho, t)[0] * xi

    def grad_norm_rt(self, rho, t):
        """|grad psi| as a function of radius and time (scaled)."""
        return self._grad_base(np.asarray(rho, dtype=float) / self.scale,
                               t / self.scale**2) / self.scale

    def _grad_base(self, rho, t):
        T = self.cutoff.t_val(t)
        X, Xp = self.cutoff.x_val(rho), self.cutoff.x_d1(rho)
        if self.kind == "smooth_bump":
            return np.abs(Xp) * T
        K, Kp = self._kernel(rho, t)
        return np.abs(Kp * X + K * Xp) * T

    def heat_residual_rt(self, rho, t):
        """dt psi + Delta psi as a function of radius and time (scaled)."""
        return self._heat_base(np.asarray(rho, dtype=float) / self.scale,
                               t / self.scale**2) / self.scale**2

    def _heat_base(self, rho, t):
        """dt psi + Delta psi as a function of radius and time.

        For the heat kernel the Psi factor is exactly backward caloric, so
        only cutoff-derivative terms survive; both kinds return exact zero
        on the cutoff plateau.
        """
        rho = np.asarray(rho, dtype=float)
        X = self.cutoff.x_val(rho)
        Xp = self.cutoff.x_d1(rho)
        Xpp = self.cutoff.x_d2(rho)
        T = self.cutoff.t_val(t)
        Tp = self.cutoff.t_d1(t)
        safe_rho = np.where(rho > 0, rho, 1.0)
        lap_x = Xpp + np.where(rho > 0, 2.0 * Xp / safe_rho, 3.0 * Xpp)
        xi_heat = X * Tp + T * lap_x
        if self.kind == "smooth_bump":
            return xi_heat
        K, Kp = self._kernel(rho, t)
        return K * xi_heat + 2.0 * Kp * Xp * T

    # -- grid-shaped evaluation --------------------------------------------
    def value(self, xrel, t):
        return self.value_rt(np.sqrt(np.sum(np.asarray(xrel) ** 2, axis=0)), t)

    def grad(self, xrel, t):
        """Vector gradient, shaped like xrel."""
        xrel = np.asarray(xrel, dtype=float)
        rho = np.sqrt(np.sum(xrel**2, axis=0))
        rb, tb = rho / self.scale, t / self.scale**2
        T = self.cutoff.t_val(tb)
        X, Xp = self.cutoff.x_val(rb), self.cutoff.x_d1(rb)
        if self.kind == "smooth_bump":
            radial = Xp * T
        else:
            K, Kp = self._kernel(rb, tb)
            radial = (Kp * X + K * Xp) * T
        unit = xrel / np.where(rho > 0, rho, 1.0)
        return radial / self.scale * unit

    def heat_residual(self, xrel, t):
        return self.heat_residual_rt(
            np.sqrt(np.sum(np.asarray(xrel) ** 2, axis=0)), t
        )

    def dt_value(self, xrel, t):
        """Analytic time derivative of psi."""
        rho = np.sqrt(np.sum(np.asarray(xrel) ** 2, axis=0))
        rb, tb = rho / self.scale, t / self.scale**2
        X = self.cutoff.x_val(rb)
        T, Tp = self.cutoff.t_val(tb), self.cutoff.t_d1(tb)
        if self.kind == "smooth_bump":
            return X * Tp / self.scale**2
        s = self.r_level**2 - tb
        K = self._kernel(rb, tb)[0]
        dK = K * (1.5 / s - rb**2 / (4.0 * s * s))
        return (dK * X * T + K * X * Tp) / self.scale**2


def heat_test_function(level: int, plateau_x: float = 0.075,
                       plateau_t: float = 0.005625,
                       scale: float = 1.0) -> TestFunction:
    """Backward-caloric test function at dyadic level >= 2: kernel scale
    r_level = 2^(-level), cutoff plateau covering Q_{r_4}, support Q_{r_3}.

    scale applies the parabolic dilation psi(x/scale, t/scale^2), which
    preserves nonnegativity, the vanishing boundary values, and exact
    backward-caloricity on the plateau.
    """
    if level < 2:
        raise ValueError(f"level must be >= 2, got {level}")
    r3, r4 = 0.125, 0.0625
    if not (r4 <= plateau_x < r3 and r4**2 <= plateau_t < r3**2):
        raise ValueError("plateau must cover Q_{r_4} and stay inside Q_{r_3}")
    return TestFunction(
        "heat_kernel",
        _RadialCutoff(plateau_x, r3, plateau_t, r3**2),
        level=level,
        scale=scale,
    )


def smooth_bump(radius: float, time_span: float) -> TestFunction:
    """Plain polynomial bump: 1 on the half-size cylinder, 0 outside
    B_radius x (-time_span, 0]."""
    return TestFunction(
        "smooth_bump",
        _RadialCutoff(0.5 * radius, radius, 0.5 * time_span, time_span),
    )


# ---------------------------------------------------------------------------
# test-function property checks
# ---------------------------------------------------------------------------

def _shell_samples(r_out, t_lo, m=240):
    rho = np.linspace(0.0, r_out, m)
    t = np.linspace(t_lo, 0.0, m)
    return np.meshgrid(rho, t, indexing="ij")

def _in_cyl(Rho, T, r):
    return (Rho <= r) & (T > -r * r)


def check_heat_properties(levels=(2, 3, 4, 5, 6), m: int = 240) -> dict:
    """Fitted constants for the structural properties of the heat-kernel
    test functions, over the requested levels.

    Properties (r_k = 2^(-k), phi the level-n function):
      i)   C^-1 r_n^-3 <= phi <= C r_n^-3 on Q_{r_n} intersected with the
           cutoff plateau cylinder Q_{r_4} (for n < 4 the literal cylinder
           meets the cutoff's zero set, where a lower bound is impossible);
      ii)  phi <= C r_{k+1}^-3 on the dyadic shell Q_{r_k} \\ Q_{r_{k+1}},
           normalized by the inner radius of the shell;
      iii) |grad phi| <= C r_n^-4 on Q_{r_n};
      iv)  |grad phi| <= C r_k^-4 on Q_{r_{k-1}} \\ Q_{r_k};
      v)   |dt phi + Delta phi| <= C r_4^-5 on Q_{r_3};
      vi)  dt phi + Delta phi = 0 on Q_{r_4} (exact).
    Returns per-property fitted constants and their maximum.
    """
    r3, r4 = 0.125, 0.0625
    out = {p: 0.0 for p in ("i", "ii", "iii", "iv", "v", "vi")}
    for n in levels:
        tf = heat_test_function(n)
        rn = 2.0 ** (-n)
        Rho, T = _shell_samples(r3, -(r3**2), m)

        # i) two-sided bound on Q_{r_n} within the plateau
        r_eff = min(rn, r4)
        on_i = _in_cyl(Rho, T, r_eff)
        vals = tf.value_rt(Rho, T)[on_i] * rn**3
        out["i"] = max(out["i"], float(np.max(vals)), float(1.0 / np.min(vals)))

        # ii) shell bounds, inner-radius normalization
        for k in range(2, n + 1):
            rk, rk1 = 2.0 ** (-k), 2.0 ** (-k - 1)
            shell = _in_cyl(Rho, T, rk) & ~_in_cyl(Rho, T, rk1)
            if np.any(shell):
                out["ii"] = max(
                    out["ii"], float(np.max(tf.value_rt(Rho, T)[shell])) * rk1**3
                )

        # iii) gradient on Q_{r_n}
        on_n = _in_cyl(Rho, T, rn)
        out["iii"] = max(
            out["iii"], float(np.max(tf.grad_norm_rt(Rho, T)[on_n])) * rn**4
        )

        # iv) gradient on dyadic shells
        for k in range(2, n + 1):
            rk, rkm = 2.0 ** (-k), 2.0 ** (-k + 1)
            shell = _in_cyl(Rho, T, min(rkm, r3)) & ~_in_cyl(Rho, T, rk)
            if np.any(shell):
                out["iv"] = max(
                    out["iv"], float(np.max(tf.grad_norm_rt(Rho, T)[shell])) * rk**4
                )

        # v) heat residual on the support, r_4^-5 normalization
        out["v"] = max(
            out["v"], float(np.max(np.abs(tf.heat_residual_rt(Rho, T)))) * r4**5
        )

        # vi) exact zero on Q_{r_4}
        on_4 = _in_cyl(Rho, T, r4)
        out["vi"] = max(
            out["vi"], float(np.max(np.abs(tf.heat_residual_rt(Rho, T)[on_4])))
            * r4**5
        )
    out["fitted_c"] = max(out["i"], out["ii"], out["iii"], out["iv"], out["v"])
    return out


# ---------------------------------------------------------------------------
# global energy inequality
# ---------------------------------------------------------------------------

def global_energy_check(traj: Trajectory, params=None) -> dict:
    """Evaluate the global energy functional along the trajectory.

    LHS(t) = ||u||_2^2 + int_0^t ||grad u||_2^2
           + int (n+1) ln(n+1) + int_0^t int |grad sqrt(n+1)|^2
           + (2/Theta0) ||grad sqrt c||_2^2
           + (4/(3 Theta0)) int_0^t ||Hess sqrt c||_2^2
           + (1/(3 Theta0)) int_0^t int c^-1 |grad sqrt c|^4.

    Returns the sampled LHS, the fitted linear-growth constant
    C* = max_t LHS(t)/(1+t-t_start), and whether LHS ever exceeds
    LHS(start) + C*(t - t_start) beyond tolerance.
    """
    if traj.initial_norms is None:
        raise ValueError("trajectory lacks an initial-norm record")
    theta0 = params.theta0 if params is not None else (
        traj.params.theta0 if traj.params is not None else 1.0
    )
    vol = traj.grid.cell_volume
    times = traj.times
    inst, dissip = [], []
    for s in traj.states:
        n = np.maximum(s.n, 0.0)
        inst.append(
            float(np.sum(s.u**2) * vol)
            + float(np.sum((n + 1.0) * np.log1p(n)) * vol)
            + (2.0 / theta0) * float(np.sum(s.derived("grad_sqrt_c") ** 2) * vol)
        )
        dissip.append(
            float(np.sum(s.derived("grad_u_sq")) * vol)
            + float(np.sum(s.derived("grad_sqrt_n1_sq")) * vol)
            + (4.0 / (3.0 * theta0)) * float(np.sum(s.derived("hess_sqrt_c_sq")) * vol)
            + (1.0 / (3.0 * theta0)) * float(np.sum(s.derived("entropy_quartic")) * vol)
        )
    inst = np.array(inst)
    dissip = np.array(dissip)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(times) * (dissip[1:] + dissip[:-1]))]
    )
    lhs = inst + cumulative
    rel_t = times - times[0]
    c_star = float(np.max(lhs / (1.0 + rel_t)))
    tol = 1e-6 * max(1.0, lhs[0])
    excess = lhs - (lhs[0] + c_star * rel_t)
    return {
        "times": times,
        "lhs": lhs,
        "instantaneous": inst,
        "dissipation_cumulative": cumulative,
        "c_star": c_star,
        "bounded": bool(np.all(excess <= tol)),
        "nonincreasing": bool(np.all(np.diff(lhs) <= tol)),
        "max_increase": float(np.max(np.diff(lhs))) if len(lhs) > 1 else 0.0,
    }


# ---------------------------------------------------------------------------
# local energy inequality
# ---------------------------------------------------------------------------

LHS_TERM_NAMES = (
    "entropy_final",        # int n ln n psi(., t)
    "grad_sqrt_n",          # 4 iint |grad sqrt n|^2 psi
    "grad_sqrt_c_final",    # (2/Theta0) int |grad sqrt c|^2 psi(., t)
    "lap_sqrt_c",           # (4/(3 Theta0)) iint |Delta sqrt c|^2 psi
    "kinetic_final",        # (18/Theta0)||c0|| int |u|^2 psi(., t)
    "grad_u",               # (18/Theta0)||c0|| iint |grad u|^2 psi
    "entropy_quartic",      # (2/(3 Theta0)) iint c^-1 |grad sqrt c|^4 psi
)

RHS_TERM_NAMES = (
    "entropy_heat",         # iint n ln n (dt psi + Delta psi)
    "entropy_advect",       # iint n ln n u . grad psi
    "chemo_flux",           # iint n chi(c) grad c . grad psi
    "entropy_chemo_flux",   # iint n ln n chi(c) grad c . grad psi
    "grad_sqrt_c_heat",     # (2/Theta0) iint |grad sqrt c|^2 (dt psi + Delta psi)
    "grad_sqrt_c_advect",   # (2/Theta0) iint |grad sqrt c|^2 u . grad psi
    "kinetic_heat",         # (18/Theta0)||c0|| iint |u|^2 (dt psi + Delta psi)
    "kinetic_advect",       # (18/Theta0)||c0|| iint |u|^2 u . grad psi
    "pressure_advect",      # (36/Theta0)||c0|| iint (P - Pbar) u . grad psi
    "buoyancy",             # -(36/Theta0)||c0|| iint n grad_phi . u psi
)


@dataclass
class LEIReport:
    t: float
    lhs_terms: dict
    rhs_terms: dict

    @property
    def lhs_total(self) -> float:
        return sum(self.lhs_terms.values())

    @property
    def rhs_total(self) -> float:
        return sum(self.rhs_terms.values())

    @property
    def residual(self) -> float:
        return self.rhs_total - self.lhs_total

    @property
    def max_abs_term(self) -> float:
        return max(
            max(abs(v) for v in self.lhs_terms.values()),
            max(abs(v) for v in self.rhs_terms.values()),
        )

    def passes(self, tol_scale: float = 1e-4) -> bool:
        return self.residual >= -tol_scale * (1.0 + self.max_abs_term)


def _interp_arrays(a, b, lam):
    return a + lam * (b - a)


def lei_residual(traj: Trajectory, tf: TestFunction, t: float,
                 center_x, omega_radius: float, params=None) -> LEIReport:
    """All terms of the local energy inequality for the test function tf
    centered at (center_x, t), integrated over Omega = B_omega_radius.

    Time integrals use the midpoint rule on the analytic psi factor with
    linear interpolation of the fields between snapshots; final-time ball
    integrals use the snapshot nearest to t.  Returns the named terms and
    the residual rhs_total - lhs_total (nonnegative when the inequality
    holds).
    """
    if params is None:
        params = traj.params
    if params is None:
        from .solver import PhysParams

        params = PhysParams()
    if tf.support_radius > omega_radius:
        raise ValueError("test-function support exceeds the integration ball")
    grid = traj.grid
    theta0 = params.theta0
    c0max = traj.initial_norms.c0_max
    vol = grid.cell_volume
    mask = ball_mask(grid, center_x, omega_radius)
    xrel = np.stack(
        [
            np.mod(c - x0 + 0.5 * grid.box_length, grid.box_length)
            - 0.5 * grid.box_length
            for c, x0 in zip(
                np.broadcast_arrays(*grid.coords()), center_x
            )
        ]
    )
    gp = params.grad_phi_arrays(grid)

    times = traj.times
    t_lo = t - tf.support_time
    eps = 1e-12 * max(1.0, float(times[-1] - times[0]))
    if t_lo < times[0] - eps or t > times[-1] + eps:
        raise ValueError("test-function time support outside the recorded span")

    lhs = {name: 0.0 for name in LHS_TERM_NAMES}
    rhs = {name: 0.0 for name in RHS_TERM_NAMES}

    def ball_sum(arr):
        return float(np.sum(arr[mask]) * vol)

    # final-time terms at the snapshot nearest to t
    sf = traj.state_at(t)
    psi_f = tf.value(xrel, sf.time - t)
    lhs["entropy_final"] = ball_sum(sf.derived("n_ln_n") * psi_f)
    lhs["grad_sqrt_c_final"] = (2.0 / theta0) * ball_sum(
        np.sum(sf.derived("grad_sqrt_c") ** 2, axis=0) * psi_f
    )
    lhs["kinetic_final"] = (18.0 / theta0) * c0max * ball_sum(
        np.sum(sf.u**2, axis=0) * psi_f
    )

    # time-integrated terms: midpoint in psi, linear in the fields
    for i in range(len(times) - 1):
        a, b = max(times[i], t_lo), min(times[i + 1], t)
        if b <= a:
            continue
        w = b - a
        tm = 0.5 * (a + b)
        lam = (tm - times[i]) / (times[i + 1] - times[i])
        s0, s1 = traj.states[i], traj.states[i + 1]
        psi = tf.value(xrel, tm - t)
        if not np.any(psi):
            continue
        # spatial derivatives of psi taken spectrally from the sampled
        # array, so discrete integration by parts is exact (the cell sum
        # of Delta psi and of u . grad psi against constants vanishes);
        # the time derivative is analytic
        gpsi = gradient(grid, psi)
        hres = tf.dt_value(xrel, tm - t) + laplacian(grid, psi)

        def mid(name):
            return _interp_arrays(s0.derived(name), s1.derived(name), lam)

        u = _interp_arrays(s0.u, s1.u, lam)
        n = np.maximum(_interp_arrays(s0.n, s1.n, lam), 0.0)
        c = np.clip(_interp_arrays(s0.c, s1.c, lam), 0.0, None)
        p = _interp_arrays(s0.p, s1.p, lam)
        nln = mid("n_ln_n")
        gsc_sq = np.sum(mid("grad_sqrt_c") ** 2, axis=0)
        u_gpsi = np.sum(u * gpsi, axis=0)
        grad_c = mid("grad_c")
        chi_c = params.chi_eval(c)
        gc_gpsi = np.sum(grad_c * gpsi, axis=0)

        lhs["grad_sqrt_n"] += 4.0 * w * ball_sum(mid("grad_sqrt_n_sq") * psi)
        lhs["lap_sqrt_c"] += (4.0 / (3.0 * theta0)) * w * ball_sum(
            mid("lap_sqrt_c") ** 2 * psi
        )
        lhs["grad_u"] += (18.0 / theta0) * c0max * w * ball_sum(
            mid("grad_u_sq") * psi
        )
        lhs["entropy_quartic"] += (2.0 / (3.0 * theta0)) * w * ball_sum(
            gsc_sq**2 / (c + EPS_FLOOR) * psi
        )

        rhs["entropy_heat"] += w * ball_sum(nln * hres)
        rhs["entropy_advect"] += w * ball_sum(nln * u_gpsi)
        rhs["chemo_flux"] += w * ball_sum(n * chi_c * gc_gpsi)
        rhs["entropy_chemo_flux"] += w * ball_sum(nln * chi_c * gc_gpsi)
        rhs["grad_sqrt_c_heat"] += (2.0 / theta0) * w * ball_sum(gsc_sq * hres)
        rhs["grad_sqrt_c_advect"] += (2.0 / theta0) * w * ball_sum(gsc_sq * u_gpsi)
        u_sq = np.sum(u**2, axis=0)
        rhs["kinetic_heat"] += (18.0 / theta0) * c0max * w * ball_sum(u_sq * hres)
        rhs["kinetic_advect"] += (18.0 / theta0) * c0max * w * ball_sum(
            u_sq * u_gpsi
        )
        p_bar = float(np.mean(p[mask]))
        rhs["pressure_advect"] += (36.0 / theta0) * c0max * w * ball_sum(
            (p - p_bar) * u_gpsi
        )
        rhs["buoyancy"] += -(36.0 / theta0) * c0max * w * ball_sum(
            n * np.sum(gp * u, axis=0) * psi
        )

    return LEIReport(t=t, lhs_terms=lhs, rhs_terms=rhs)
