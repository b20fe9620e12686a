"""IMEX pseudo-spectral time integration of the chemotaxis-Navier-Stokes system.

The stiff diffusion is integrated exactly in Fourier space (integrating
factor); advection, chemotaxis, consumption and buoyancy are explicit.
Cell advection is stepped in divergence form, so the total cell mass is
conserved to rounding before positivity clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grid_fields import Grid, _check_finite
from .pressure import solve_pressure
from .snapshot import read_snapshot, snapshot_name, write_snapshot, write_trajectory_meta
from .state import State, Trajectory


class CFLError(RuntimeError):
    """Advective CFL limit exceeded; carries a suggested stable dt."""

    def __init__(self, cfl: float, suggested_dt: float):
        super().__init__(
            f"CFL number {cfl:.3f} > 0.5; reduce dt to <= {suggested_dt:.3e}"
        )
        self.suggested_dt = suggested_dt


def _polyder(coeffs: Sequence[float]) -> np.ndarray:
    return np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=float))


@dataclass
class PhysParams:
    """Coupling coefficients and their norms.

    chi is a polynomial in the oxygen concentration (coefficients low to
    high); the consumption rate is tied to it by kappa(s) = theta0 * s * chi(s).
    The buoyancy force is -n grad_phi with constant grad_phi = (0, 0, -gravity)
    unless an explicit (3, N, N, N) field is supplied.
    """

    theta0: float = 1.0
    chi_coeffs: tuple[float, ...] = (1.0,)
    gravity: float = 0.0
    c0_max: float = 1.0
    grad_phi_field: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.theta0 <= 0:
            raise ValueError("theta0 must be positive")
        self.chi_coeffs = tuple(float(a) for a in self.chi_coeffs)
        self.validate_structure()

    # -- coupling functions -------------------------------------------------
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

    def validate_structure(self, samples: int = 1000) -> None:
        """Sampled check of chi >= 0 and kappa convex nondecreasing on
        [0, c0_max]."""
        s = np.linspace(0.0, max(self.c0_max, 1e-12), samples)
        if np.any(self.chi_eval(s) < -1e-12):
            raise ValueError("chi(s) must be nonnegative on [0, c0_max]")
        kappa = np.array([0.0] + [self.theta0 * a for a in self.chi_coeffs])
        dk = np.polynomial.polynomial.polyval(s, _polyder(kappa))
        ddk = np.polynomial.polynomial.polyval(s, _polyder(_polyder(kappa)))
        if np.any(dk < -1e-12) or np.any(ddk < -1e-12):
            raise ValueError("kappa must be nondecreasing and convex on [0, c0_max]")

    # -- cached norms -------------------------------------------------------
    def _c2_norm(self, coeffs) -> float:
        """Sum over the polynomial and its first two derivatives of the
        sup norm on [0, c0_max]."""
        s = np.linspace(0.0, max(self.c0_max, 1e-12), 1000)
        c = np.asarray(coeffs, dtype=float)
        total = 0.0
        for _ in range(3):
            total += float(np.max(np.abs(np.polynomial.polynomial.polyval(s, c))))
            c = _polyder(c) if len(c) > 1 else np.zeros(1)
        return total

    @property
    def chi_norm(self) -> float:
        return self._c2_norm(self.chi_coeffs)

    @property
    def kappa_norm(self) -> float:
        return self._c2_norm([0.0] + [self.theta0 * a for a in self.chi_coeffs])

    @property
    def gradphi_max(self) -> float:
        if self.grad_phi_field is not None:
            return float(np.max(np.sqrt(np.sum(self.grad_phi_field**2, axis=0))))
        return abs(self.gravity)

    def grad_phi_arrays(self, grid: Grid) -> np.ndarray:
        if self.grad_phi_field is not None:
            return self.grad_phi_field
        out = np.zeros((3, grid.n, grid.n, grid.n))
        out[2] = -self.gravity
        return out


def _rhs_hats(grid: Grid, n, c, u, c_hat, u_hat, params: PhysParams):
    """Half-spectrum transforms of the explicit (non-diffusive) tendencies;
    derivatives come from the hats of c and u, and each product is
    dealiased by masking its forward transform."""
    k, mask = grid.k, grid.dealias_mask
    gp = params.grad_phi_arrays(grid)
    c_pos = np.maximum(c, 0.0)
    chi_c = params.chi_eval(c_pos)
    kappa_c = params.kappa_eval(c_pos)
    grad_c = [grid.irfftn(1j * ki * c_hat) for ki in k]

    # n: divergence-form flux of advection + chemotaxis
    fn_hat = -sum(1j * ki * mask * grid.rfftn(n * u[i] + chi_c * n * grad_c[i])
                  for i, ki in enumerate(k))

    # c: advection + consumption
    adv_c = u[0] * grad_c[0] + u[1] * grad_c[1] + u[2] * grad_c[2]
    fc_hat = -grid.rfftn(adv_c + kappa_c * n) * mask

    # u: advection + buoyancy
    fu_hat = []
    for j in range(3):
        adv = sum(u[i] * grid.irfftn(1j * ki * u_hat[j]) for i, ki in enumerate(k))
        fu_hat.append(-grid.rfftn(adv + n * gp[j]) * mask)
    return fn_hat, fc_hat, np.stack(fu_hat)


def advance(grid: Grid, n, c, u, params: PhysParams, dt: float, order: int = 1):
    """One IMEX step on raw arrays: returns (n, c, u, step_log).

    Makes 29 real transforms at order 1 and 54 at order 2, from the
    physical arrays alone (no transform is carried between steps).
    Diffusion uses the exact integrating factor exp(-|k|^2 dt); the
    velocity is re-projected divergence-free; c is clamped to
    [0, c0_max] and n at zero, with the clamped mass logged.  The new
    arrays are checked for finiteness once.
    """
    max_u = float(np.max(np.sqrt(np.sum(u**2, axis=0))))
    cfl = max_u * dt / grid.h
    if cfl > 0.5:
        raise CFLError(cfl, 0.5 * grid.h / max_u)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")

    E = np.exp(-grid.k_sq * dt)
    n_hat, c_hat = grid.rfftn(n), grid.rfftn(c)
    u_hat = grid.rfftn(u)
    fn, fc, fu = _rhs_hats(grid, n, c, u, c_hat, u_hat, params)
    n_new = E * (n_hat + dt * fn)
    c_new = E * (c_hat + dt * fc)
    u_new = E * (u_hat + dt * fu)
    if order == 2:
        # Heun on the integrating-factor variables
        u_pred_hat = grid.project_hat(u_new)
        n_pred = np.maximum(grid.irfftn(n_new), 0.0)
        c_pred = np.clip(grid.irfftn(c_new), 0.0, params.c0_max)
        fn2, fc2, fu2 = _rhs_hats(grid, n_pred, c_pred, grid.irfftn(u_pred_hat),
                                  grid.rfftn(c_pred), u_pred_hat, params)
        n_new = E * n_hat + 0.5 * dt * (E * fn + fn2)
        c_new = E * c_hat + 0.5 * dt * (E * fc + fc2)
        u_new = E * u_hat + 0.5 * dt * (E * fu + fu2)

    u_arr = grid.irfftn(grid.project_hat(u_new))
    n_arr = grid.irfftn(n_new)
    c_arr = grid.irfftn(c_new)
    for name, arr in (("n", n_arr), ("c", c_arr), ("u", u_arr)):
        _check_finite(arr, name)

    clamp_mass = float(-np.sum(np.minimum(n_arr, 0.0)) * grid.cell_volume)
    c_overshoot = max(0.0, float(np.max(c_arr)) - params.c0_max)
    step_log = {"clamp_mass": clamp_mass, "c_overshoot_preclamp": c_overshoot, "cfl": cfl}
    return np.maximum(n_arr, 0.0), np.clip(c_arr, 0.0, params.c0_max), u_arr, step_log


def _with_pressure(grid: Grid, n, c, u, time: float, params: PhysParams) -> State:
    s = State(grid, n, c, u, np.zeros_like(n), time)
    s.p = solve_pressure(s, params)
    return s


def step(s: State, params: PhysParams, dt: float, order: int = 1) -> State:
    """One IMEX step (``advance``: 29 real transforms at order 1, 54 at
    order 2), then the pressure solve; returns a new State with P and a
    ``step_log`` dict attached."""
    n, c, u, step_log = advance(s.grid, s.n, s.c, s.u, params, dt, order)
    new = _with_pressure(s.grid, n, c, u, s.time + dt, params)
    new.step_log = step_log
    return new


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class SimulationConfig:
    grid_n: int = 32
    grid_l: float = 2.0 * math.pi
    dt: float = 1e-3
    t_end: float = 0.1
    output_stride: int = 10
    theta0: float = 1.0
    chi_coeffs: tuple[float, ...] = (1.0,)
    gravity: float = 0.0
    seed: int = 0
    order: int = 1
    init: dict = field(default_factory=lambda: {"preset": "zero"})
    start_time: float = 0.0


def initial_state(cfg: SimulationConfig, params: PhysParams) -> State:
    grid = Grid(cfg.grid_n, cfg.grid_l)
    shape = (grid.n,) * 3
    preset = cfg.init.get("preset", "zero")
    n = np.zeros(shape)
    c = np.zeros(shape)
    u = np.zeros((3,) + shape)

    if preset == "zero":
        pass
    elif preset == "gaussian":
        amp = float(cfg.init.get("amplitude", 1.0))
        width = float(cfg.init.get("width", grid.box_length / 8.0))
        center = [0.5 * grid.box_length] * 3
        d2 = grid.min_image_distance_sq(center)
        n = amp * np.exp(-d2 / (2.0 * width**2))
        c = np.full(shape, float(cfg.init.get("c0", 1.0)))
    elif preset == "taylor_green":
        amp = float(cfg.init.get("amplitude", 1.0))
        k = 2.0 * np.pi / grid.box_length
        x, y, _ = grid.coords()
        u[0] = amp * np.cos(k * x) * np.sin(k * y)
        u[1] = -amp * np.sin(k * x) * np.cos(k * y)
    elif preset == "random_smooth":
        rng = np.random.default_rng(cfg.seed)
        amp = float(cfg.init.get("amplitude", 0.1))
        c0 = float(cfg.init.get("c0", 1.0))
        modes = int(cfg.init.get("modes", 2))
        n_mean = float(cfg.init.get("n_mean", 1.2 * amp))
        n = n_mean + amp * _band_limited(rng, grid, modes)
        n = np.maximum(n, 0.0)
        c = np.clip(c0 * (0.75 + 0.25 * amp * _band_limited(rng, grid, modes)),
                    0.0, c0)
        raw = np.array([amp * _band_limited(rng, grid, modes) for _ in range(3)])
        u = grid.irfftn(grid.project_hat(grid.rfftn(raw)))
    elif preset == "restart":
        s = read_snapshot(cfg.init["path"])
        if s.grid.n != grid.n or s.grid.box_length != grid.box_length:
            raise ValueError("restart snapshot grid does not match config")
        return s
    else:
        raise ValueError(f"unknown init preset {preset!r}")

    return _with_pressure(grid, n, c, u, cfg.start_time, params)


def _band_limited(rng, grid: Grid, modes: int) -> np.ndarray:
    """Random real field supported on |k_i| <= modes wavenumber indices.

    Each mode k != 0 draws (a, b) in the order kx, ky, kz (outer to inner)
    and contributes a cos(k.x) + b sin(k.x) = Re[(a - i b) e^{i k.x}].  The
    sum is one inverse real FFT of the Hermitian part of those
    coefficients, which gives the real part.
    """
    m = np.arange(-modes, modes + 1)
    kx, ky, kz = (a.ravel() for a in np.meshgrid(m, m, m, indexing="ij"))
    keep = (kx != 0) | (ky != 0) | (kz != 0)
    kx, ky, kz = kx[keep], ky[keep], kz[keep]
    ab = rng.normal(size=(len(kx), 2)) / (1.0 + kx * kx + ky * ky + kz * kz)[:, None]
    coeff = 0.5 * (ab[:, 0] - 1j * ab[:, 1])
    n = grid.n
    full = np.zeros((n, n, n), dtype=complex)
    # add.at: with 2 modes + 1 > N, aliased modes share a grid wavenumber
    np.add.at(full, (kx % n, ky % n, kz % n), coeff)
    np.add.at(full, (-kx % n, -ky % n, -kz % n), np.conj(coeff))
    out = n**3 * grid.irfftn(full[..., : n // 2 + 1])
    return out / max(1.0, float(np.max(np.abs(out))))


def simulate(cfg: SimulationConfig, params: Optional[PhysParams] = None,
             out_dir=None) -> Trajectory:
    """Run the solver and collect snapshots every ``output_stride`` steps.

    Steps run on raw arrays (``advance``); a State, with its pressure
    solved, is built only for the initial and every kept snapshot.  When
    ``out_dir`` is given, each kept snapshot is written in the CNS1 format
    as soon as it is produced, and ``trajectory.json`` (with the run log)
    is written last, so it exists only for a run that finished.
    """
    if params is None:
        params = PhysParams(
            theta0=cfg.theta0,
            chi_coeffs=cfg.chi_coeffs,
            gravity=cfg.gravity,
            c0_max=float(cfg.init.get("c0", 1.0)),
        )
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # a marker left by an earlier run must not vouch for this one
        (out / "trajectory.json").unlink(missing_ok=True)
    states = []

    def keep(state: State) -> None:
        if out is not None:
            write_snapshot(out / snapshot_name(len(states)), state)
        states.append(state)

    s = initial_state(cfg, params)
    keep(s)
    grid, n, c, u, t = s.grid, s.n, s.c, s.u, s.time
    n_steps = int(round((cfg.t_end - cfg.start_time) / cfg.dt))
    mass0 = float(np.sum(n) * grid.cell_volume)
    run_log = {"clamp_mass_total": 0.0, "c_overshoot_max": 0.0, "mass_drift_max": 0.0}
    for i in range(1, n_steps + 1):
        n, c, u, step_log = advance(grid, n, c, u, params, cfg.dt, order=cfg.order)
        t = t + cfg.dt
        run_log["clamp_mass_total"] += step_log["clamp_mass"]
        run_log["c_overshoot_max"] = max(
            run_log["c_overshoot_max"], step_log["c_overshoot_preclamp"]
        )
        if mass0 > 0:
            mass = float(np.sum(n) * grid.cell_volume)
            # drift before crediting back the clamped (negative) mass
            drift = abs(mass - run_log["clamp_mass_total"] - mass0) / mass0
            run_log["mass_drift_max"] = max(run_log["mass_drift_max"], drift)
        if i % cfg.output_stride == 0 or i == n_steps:
            keep(_with_pressure(grid, n, c, u, t, params))
    traj = Trajectory(states, params=params)
    traj.run_log = run_log
    if out is not None:
        write_trajectory_meta(out, traj, extra_meta={"run_log": run_log})
    return traj
