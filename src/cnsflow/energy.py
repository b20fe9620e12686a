"""Energy inequalities: backward-heat-kernel test functions, the global
energy bound, and the local energy inequality residual.

The test functions are products of the backward heat kernel
Psi_n(x,t) = (r_n^2 - t)^(-3/2) exp(-|x|^2 / (4 (r_n^2 - t))), r_k = 2^(-k),
with a radial-in-space, C^4 ninth-order space-time cutoff xi that equals 1
on the cylinder Q_{r_4} and vanishes outside Q_{r_3}.  On the plateau the product
is exactly backward caloric, so the (dt + Delta) terms of the local energy
inequality vanish there analytically, not just to quadrature accuracy.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid_fields import Pass, Plan, _window_overlaps, ball_mask
from .state import EPS_FLOOR, Trajectory, gather


def _smoothstep(s: np.ndarray) -> np.ndarray:
    # ninth-order monotone step (C^4 at both endpoints); the extra
    # smoothness keeps the spectrally sampled Laplacian of the cutoff
    # accurate at moderate grid resolutions.
    return s**5 * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + 70.0 * s))))


def cutoff_step(r, a: float, b: float) -> np.ndarray:
    """The one radial step: 1 for r <= a, 0 for r >= b, the C^4
    ninth-order step in between."""
    return 1.0 - _smoothstep(np.clip((r - a) / (b - a), 0.0, 1.0))


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
        return cutoff_step(rho, self.a_x, self.b_x)

    def _on_x_seam(self, rho, fn):
        # fn(s) on the open seam a_x < rho < b_x and 0 elsewhere; only the
        # seam cells are evaluated, as most of a grid lies off the seam
        out = np.zeros(np.shape(rho))
        seam = (rho > self.a_x) & (rho < self.b_x)
        out[seam] = fn(self._sx(rho[seam]))
        return out

    def x_d1(self, rho):
        return self._on_x_seam(
            rho, lambda s: -_smoothstep_d1(s) / (self.b_x - self.a_x))

    def x_d2(self, rho):
        return self._on_x_seam(
            rho, lambda s: -_smoothstep_d2(s) / (self.b_x - self.a_x) ** 2)

    def _st(self, t):
        return np.clip((-t - self.a_t) / (self.b_t - self.a_t), 0.0, 1.0)

    def t_val(self, t):
        return cutoff_step(-t, self.a_t, self.b_t)

    def t_d1(self, t):
        t = np.asarray(t, dtype=float)
        inside = (-t > self.a_t) & (-t < self.b_t)
        return np.where(
            inside, _smoothstep_d1(self._st(t)) / (self.b_t - self.a_t), 0.0
        )


#: unscaled (rho, t), the kernel factor K with dK/drho and dK/dt, and the
#: cutoff factors X(rho), T(t) with their derivatives
_Parts = namedtuple("_Parts", "rho t K K_rho K_t X X_rho T T_t")


class TestFunction:
    """Nonnegative space-time cutoff psi with analytic gradient and heat
    residual (dt psi + Delta psi).

    psi = K X T with X(|x|) T(t) the cutoff and K the kernel factor:
    Psi_level for kind "heat_kernel", 1 for kind "smooth_bump".
    Every evaluator takes the radius |x| and time relative to the
    function's own center; callers measure |x| by the minimum-image
    convention.
    """

    def __init__(self, kind: str, cutoff: _RadialCutoff,
                 level: Optional[int] = None, scale: float = 1.0):
        if kind not in ("heat_kernel", "smooth_bump"):
            raise ValueError(f"unknown test-function kind {kind!r}")
        if kind == "heat_kernel" and (level is None or level < 2):
            raise ValueError("heat-kernel test functions need level >= 2")
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.kind = kind
        self.cutoff = cutoff
        self.level = level
        self.scale = float(scale)
        self.r_level = 2.0 ** (-level) if level is not None else None
        self.support_radius = scale * cutoff.b_x
        self.support_time = scale**2 * cutoff.b_t  # psi = 0 for t <= -this

    def _parts(self, rho, t) -> _Parts:
        """Every factor of psi at scaled (rho, t), in unscaled coordinates."""
        rho = np.asarray(rho, dtype=float) / self.scale
        t = t / self.scale**2
        c = self.cutoff
        X, X_rho, T, T_t = c.x_val(rho), c.x_d1(rho), c.t_val(t), c.t_d1(t)
        if self.kind == "smooth_bump":
            return _Parts(rho, t, 1.0, 0.0, 0.0, X, X_rho, T, T_t)
        s = self.r_level**2 - t
        K = s ** (-1.5) * np.exp(-(rho**2) / (4.0 * s))
        K_t = K * (1.5 / s - rho**2 / (4.0 * s * s))
        return _Parts(rho, t, K, -rho / (2.0 * s) * K, K_t, X, X_rho, T, T_t)

    def value_rt(self, rho, t):
        """psi as a function of radius and time (scaled coordinates)."""
        p = self._parts(rho, t)
        return p.K * (p.X * p.T)

    def grad_norm_rt(self, rho, t):
        """|grad psi| as a function of radius and time (scaled)."""
        p = self._parts(rho, t)
        return np.abs(p.K_rho * p.X + p.K * p.X_rho) * p.T / self.scale

    def heat_residual_rt(self, rho, t):
        """dt psi + Delta psi as a function of radius and time (scaled).

        For the heat kernel K is exactly backward caloric, so only
        cutoff-derivative terms survive; both kinds return exact zero on
        the cutoff plateau.
        """
        p = self._parts(rho, t)
        X_rr = self.cutoff.x_d2(p.rho)
        safe_rho = np.where(p.rho > 0, p.rho, 1.0)
        lap_x = X_rr + np.where(p.rho > 0, 2.0 * p.X_rho / safe_rho, 3.0 * X_rr)
        xi_heat = p.X * p.T_t + p.T * lap_x
        return (p.K * xi_heat + 2.0 * p.K_rho * p.X_rho * p.T) / self.scale**2

    def dt_rt(self, rho, t):
        """dt psi as a function of radius and time (scaled)."""
        p = self._parts(rho, t)
        return (p.K_t * p.X * p.T + p.K * p.X * p.T_t) / self.scale**2


def heat_test_function(level: int, scale: float = 1.0) -> TestFunction:
    """Backward-caloric test function at dyadic level >= 2: kernel scale
    r_level = 2^(-level), cutoff plateau |x| <= 0.075, -t <= 0.005625
    covering Q_{r_4}, support Q_{r_3}.

    scale applies the parabolic dilation psi(x/scale, t/scale^2), which
    preserves nonnegativity, the vanishing boundary values, and exact
    backward-caloricity on the plateau.
    """
    return TestFunction("heat_kernel", _RadialCutoff(0.075, 0.125, 0.005625, 0.125**2),
                        level=level, scale=scale)


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

def energy_plan(traj: Trajectory) -> Plan:
    """``global_energy_check`` as a plan: one pass over every snapshot."""
    theta0 = traj.params.theta0
    vol = traj.grid.cell_volume
    times = traj.times
    inst, dissip = [], []

    def step(i, s):
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

    def finish() -> dict:
        inst_a = np.array(inst)
        dissip_a = np.array(dissip)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(times) * (dissip_a[1:] + dissip_a[:-1]))]
        )
        lhs = inst_a + cumulative
        rel_t = times - times[0]
        c_star = float(np.max(lhs / (1.0 + rel_t)))
        tol = 1e-6 * max(1.0, lhs[0])
        excess = lhs - (lhs[0] + c_star * rel_t)
        return {
            "times": times,
            "lhs": lhs,
            "instantaneous": inst_a,
            "dissipation_cumulative": cumulative,
            "c_star": c_star,
            "bounded": bool(np.all(excess <= tol)),
            "nonincreasing": bool(np.all(np.diff(lhs) <= tol)),
            "max_increase": float(np.max(np.diff(lhs))) if len(lhs) > 1 else 0.0,
        }

    return Plan([Pass(range(len(times)), step)], finish)


def global_energy_check(traj: Trajectory) -> dict:
    """Evaluate the global energy functional along the trajectory, with the
    trajectory's Theta0.

    LHS(t) = ||u||_2^2 + int_0^t ||grad u||_2^2
           + int (n+1) ln(n+1) + int_0^t int |grad sqrt(n+1)|^2
           + (2/Theta0) ||grad sqrt c||_2^2
           + (4/(3 Theta0)) int_0^t ||Hess sqrt c||_2^2
           + (1/(3 Theta0)) int_0^t int c^-1 |grad sqrt c|^4.

    Returns the sampled LHS, the fitted linear-growth constant
    C* = max_t LHS(t)/(1+t-t_start), and whether LHS ever exceeds
    LHS(start) + C*(t - t_start) beyond tolerance.
    """
    return energy_plan(traj).run(traj)


# ---------------------------------------------------------------------------
# local energy inequality
# ---------------------------------------------------------------------------

def _kinetic(theta0, c0max):
    return (18.0 / theta0) * c0max


#: The local energy inequality, one row per term: (side, name, weight,
#: integrand, factor).  A term is weight(Theta0, ||c0||), ||c0|| the max of
#: c in the first snapshot, times the integral over Omega of integrand *
#: factor: on the final snapshot for psi_final (psi at the final time), over
#: the time window for psi, heat (dt psi + Delta psi), advect (u . grad psi)
#: and chemotactic (grad c . grad psi).  Each energy density, n ln n,
#: (2/Theta0)|grad sqrt c|^2 and (18/Theta0)||c0|| |u|^2, meets psi_final,
#: heat and advect.
LEI_TERMS = (
    ("lhs", "entropy_final", lambda th, c0: 1.0, "n_ln_n", "psi_final"),
    ("lhs", "grad_sqrt_n", lambda th, c0: 4.0, "grad_sqrt_n_sq", "psi"),
    ("lhs", "grad_sqrt_c_final", lambda th, c0: 2.0 / th, "grad_sqrt_c_sq", "psi_final"),
    ("lhs", "lap_sqrt_c", lambda th, c0: 4.0 / (3.0 * th), "lap_sqrt_c_sq", "psi"),
    ("lhs", "kinetic_final", _kinetic, "u_sq", "psi_final"),
    ("lhs", "grad_u", _kinetic, "grad_u_sq", "psi"),
    ("lhs", "entropy_quartic", lambda th, c0: 2.0 / (3.0 * th), "quartic", "psi"),
    ("rhs", "entropy_heat", lambda th, c0: 1.0, "n_ln_n", "heat"),
    ("rhs", "entropy_advect", lambda th, c0: 1.0, "n_ln_n", "advect"),
    ("rhs", "chemo_flux", lambda th, c0: 1.0, "n_chi", "chemotactic"),
    ("rhs", "entropy_chemo_flux", lambda th, c0: 1.0, "n_ln_n_chi", "chemotactic"),
    ("rhs", "grad_sqrt_c_heat", lambda th, c0: 2.0 / th, "grad_sqrt_c_sq", "heat"),
    ("rhs", "grad_sqrt_c_advect", lambda th, c0: 2.0 / th, "grad_sqrt_c_sq", "advect"),
    ("rhs", "kinetic_heat", _kinetic, "u_sq", "heat"),
    ("rhs", "kinetic_advect", _kinetic, "u_sq", "advect"),
    ("rhs", "pressure_advect", lambda th, c0: (36.0 / th) * c0, "p_fluct", "advect"),
    # grad_phi = (0, 0, -gravity)
    ("rhs", "buoyancy", lambda th, c0: -(36.0 / th) * c0, "n_grad_phi_u", "psi"),
)

LHS_TERM_NAMES = tuple(name for side, name, *_ in LEI_TERMS if side == "lhs")
RHS_TERM_NAMES = tuple(name for side, name, *_ in LEI_TERMS if side == "rhs")

#: the LEI's integrands and factors that are not state fields: name ->
#: their form of the other fields and the physics (``_LEIFields``)
_LEI_FORMS = {
    "n+": lambda f: np.maximum(f["n"], 0.0),
    "c+": lambda f: np.clip(f["c"], 0.0, None),
    "chi": lambda f: f.params.chi_eval(f["c+"]),
    "grad_sqrt_c_sq": lambda f: np.sum(f["grad_sqrt_c"] ** 2, axis=0),
    "u_sq": lambda f: np.sum(f["u"] ** 2, axis=0),
    "lap_sqrt_c_sq": lambda f: f["lap_sqrt_c"] ** 2,
    "quartic": lambda f: f["grad_sqrt_c_sq"] ** 2 / (f["c+"] + EPS_FLOOR),
    "n_chi": lambda f: f["n+"] * f["chi"],
    "n_ln_n_chi": lambda f: f["n_ln_n"] * f["chi"],
    "p_fluct": lambda f: f["p"] - np.mean(f["p"]),
    "n_grad_phi_u": lambda f: f["n+"] * (-f.params.gravity * f["u"][2]),
    "advect": lambda f: np.sum(f["u"] * f["grad_psi"], axis=0),
    "chemotactic": lambda f: np.sum(f["grad_c"] * f["grad_psi"], axis=0),
}


class _LEIFields(dict):
    """The LEI's fields on Omega's cells by name, each formed once: one
    given (psi and its derivatives), an ``_LEI_FORMS`` form, or else
    ``read(name)``, a state's field."""

    def __init__(self, read, params, **given):
        super().__init__(given)
        self.read, self.params = read, params

    def __missing__(self, name):
        form = _LEI_FORMS.get(name)
        value = self[name] = form(self) if form else self.read(name)
        return value


@dataclass
class LEIReport:
    """The LEI's terms at time t by name, each side in ``LEI_TERMS`` order."""
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


def lei_plan(traj: Trajectory, tf: TestFunction, t: float,
             center_x, omega_radius: float) -> Plan:
    """``lei_residual`` as a plan: one pass over the first snapshot (for
    ||c0||), the one nearest to t and the ends of each snapshot interval
    the window overlaps.  The first is visited before any term is formed,
    and an interval's terms when its later end is, from a view of its
    earlier end kept until then."""
    if tf.support_radius > omega_radius:
        raise ValueError("test-function support exceeds the integration ball")
    grid = traj.grid
    params, th = traj.params, traj.params.theta0
    cells = np.flatnonzero(ball_mask(grid, center_x, omega_radius))
    rho = np.sqrt(grid.min_image_distance_sq(center_x))
    rho_om = gather(rho, cells)
    times = traj.times
    # each overlap (i, a, b) by the index of its interval's later end
    overlaps = {i + 1: (i, a, b)
                for i, a, b in _window_overlaps(times, t - tf.support_time, t)[0]}
    final = int(np.argmin(np.abs(times - t)))  # the snapshot nearest to t
    terms = {"lhs": dict.fromkeys(LHS_TERM_NAMES, 0.0),
             "rhs": dict.fromkeys(RHS_TERM_NAMES, 0.0)}
    c0max = None
    kept = {}  # the view of an interval's earlier end, until its later end

    def ball_sum(f, integrand, factor):
        return float(np.sum(f[integrand] * f[factor]) * grid.cell_volume)

    def final_terms(sf):
        # final-time terms at the snapshot nearest to t
        f = _LEIFields(sf.on(cells), params, psi_final=tf.value_rt(rho_om, sf.time - t))
        for side, name, weight, integrand, factor in LEI_TERMS:
            if factor == "psi_final":
                terms[side][name] = weight(th, c0max) * ball_sum(f, integrand, factor)

    def interval(i, a, b, view0, view1):
        # time-integrated terms: midpoint in psi, linear in the fields
        w = b - a
        tm = 0.5 * (a + b)
        lam = (tm - times[i]) / (times[i + 1] - times[i])
        psi = tf.value_rt(rho, tm - t)
        if not np.any(psi):
            return

        def mid(name):
            # a base or derived field on Omega's cells, linear in time
            f0, f1 = view0(name), view1(name)
            return f0 + lam * (f1 - f0)

        # spatial derivatives of psi taken spectrally from the sampled
        # array, so discrete integration by parts is exact (the cell sum
        # of Delta psi and of u . grad psi against constants vanishes);
        # the time derivative is analytic
        psi_hat = grid.rfftn(psi)
        grad_psi = gather(np.stack([grid.irfftn(ik * psi_hat) for ik in grid.ik]), cells)
        heat = tf.dt_rt(rho_om, tm - t) + gather(grid.irfftn(-grid.k_sq * psi_hat), cells)
        # the whole-grid psi and psi_hat are not kept while the fields are formed
        psi, psi_hat = gather(psi, cells), None
        f = _LEIFields(mid, params, psi=psi, grad_psi=grad_psi, heat=heat)
        for side, name, weight, integrand, factor in LEI_TERMS:
            if factor != "psi_final":
                terms[side][name] += weight(th, c0max) * w * ball_sum(f, integrand, factor)

    def step(j, state):
        nonlocal c0max
        if j == 0:
            c0max = float(np.max(state.c))
        if j == final:
            final_terms(state)
        view = state.on(cells)
        if j in overlaps:
            interval(*overlaps[j], kept.pop(j - 1), view)
        if j + 1 in overlaps:
            kept[j] = view

    reads = {0, final, *overlaps, *(j - 1 for j in overlaps)}
    return Plan([Pass(reads, step)],
                lambda: LEIReport(t=t, lhs_terms=terms["lhs"], rhs_terms=terms["rhs"]))


def lei_residual(traj: Trajectory, tf: TestFunction, t: float,
                 center_x, omega_radius: float) -> LEIReport:
    """Every term of the local energy inequality (``LEI_TERMS``) for the
    test function tf centered at (center_x, t), integrated over Omega =
    B_omega_radius, with the trajectory's physics.

    Time integrals run over the overlaps of the window
    (t - tf.support_time, t] with the snapshot intervals, by the window
    rule of the cylinder quadrature (CylinderRangeError outside the
    recorded span), with the midpoint rule on the analytic psi factor and
    linear interpolation of the fields between snapshots; final-time ball
    integrals use the snapshot nearest to t.  Integrands are formed on
    Omega's cells only, from psi's spectral derivatives taken on the full
    grid from one transform of psi per interval.  Returns the named terms
    and the residual rhs_total - lhs_total (nonnegative when the
    inequality holds).
    """
    return lei_plan(traj, tf, t, center_x, omega_radius).run(traj)
