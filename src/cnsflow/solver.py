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

import numpy as np

from .grid_fields import Grid, _check_finite
from .pressure import solve_pressure
from .snapshot import read_snapshot, snapshot_name, write_snapshot, write_trajectory_meta
from .state import PhysParams, State, Trajectory


class CFLError(RuntimeError):
    """Advective CFL limit exceeded; carries a suggested stable dt."""

    def __init__(self, cfl: float, suggested_dt: float):
        super().__init__(
            f"CFL number {cfl:.3f} > 0.5; reduce dt to <= {suggested_dt:.3e}"
        )
        self.suggested_dt = suggested_dt


_CYCLIC = ((1, 2), (2, 0), (0, 1))  # (a, b) of component j of a cross product


def _rhs_hats(grid: Grid, n, c, u, c_hat, u_hat, params: PhysParams):
    """Half-spectrum transforms of the explicit (non-diffusive) tendencies;
    derivatives come from the hats of c and u, and each product is
    dealiased by its pruned forward transform."""
    ik = grid.ik
    c_pos = np.maximum(c, 0.0)
    chi_c = params.chi_eval(c_pos)
    kappa_n = params.theta0 * c_pos * chi_c * n  # kappa_eval(c) n, from chi_c
    chi_n = chi_c * n
    del c_pos, chi_c
    grad_c = [grid.irfftn(iki * c_hat) for iki in ik]

    # Sums accumulate in place, in their written order; negating a sum term
    # by term, -(a + b) = (-a) - b, is exact.
    # n: divergence-form flux of advection + chemotaxis
    fn_hat = 0
    for i, iki in enumerate(ik):
        flux = n * u[i]
        flux += chi_n * grad_c[i]
        fn_hat -= iki * grid.dealiased_rfftn(flux)

    # c: advection + consumption
    adv_c = u[0] * grad_c[0]
    adv_c += u[1] * grad_c[1]
    adv_c += u[2] * grad_c[2]
    adv_c += kappa_n
    fc_hat = grid.dealiased_rfftn(adv_c)
    np.negative(fc_hat, out=fc_hat)
    del grad_c, adv_c, kappa_n, chi_n

    # u: u x curl u + buoyancy n grad_phi, with grad_phi = (0, 0, -gravity);
    # the update's Leray projection removes the gradient part of
    # u.grad u = grad(|u|^2/2) - u x curl u
    omega = []
    for a, b in _CYCLIC:
        w = ik[a] * u_hat[b]
        w -= ik[b] * u_hat[a]
        omega.append(grid.irfftn(w))
    fu_hat = np.empty_like(u_hat)
    for j, (a, b) in enumerate(_CYCLIC):
        f = u[a] * omega[b]
        f -= u[b] * omega[a]
        if j == 2:
            f += params.gravity * n
        fu_hat[j] = grid.dealiased_rfftn(f)
    return fn_hat, fc_hat, fu_hat


def advance(grid: Grid, n, c, u, params: PhysParams, dt: float, order: int = 1):
    """One IMEX step on raw arrays: returns (n, c, u, step_log).

    ``order`` is 1 (integrating-factor Euler) or 2 (Heun); any other value
    raises ValueError before any work.  Makes 16 full real transforms and
    7 pruned ones at order 1, 28 full and 14 pruned at order 2, from the
    physical arrays alone (no transform is carried between steps).  The
    pruned ones are the dealiased products' ``Grid.dealiased_rfftn``,
    bitwise ``dealias_mask * rfftn``; ``Grid.dealiased_irfftn``, bitwise
    ``irfftn(dealias_mask * h)``, serves the pressure solve.  Both
    transform only the modes the 2/3 mask keeps (21 of 32 rows and 11 of
    17 half-axis columns at N = 32, 43 of 64 and 22 of 33 at N = 64).
    Advection of u is in rotational form, u x curl u: the velocity is
    re-projected divergence-free, which removes the gradient part of
    u.grad u.  Diffusion uses the exact integrating factor
    exp(-|k|^2 dt); c is clamped to [0, c0_max] and n at zero, with the
    clamped mass logged.  The new arrays are checked for finiteness once.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    u_sq = u[0] * u[0]
    u_sq += u[1] * u[1]
    u_sq += u[2] * u[2]
    max_u = float(np.sqrt(np.max(u_sq)))
    cfl = max_u * dt / grid.h
    if cfl > 0.5:
        raise CFLError(cfl, 0.5 * grid.h / max_u)

    E = np.exp(-grid.k_sq * dt)
    n_hat, c_hat = grid.rfftn(n), grid.rfftn(c)
    u_hat = grid.rfftn(u)
    fn, fc, fu = _rhs_hats(grid, n, c, u, c_hat, u_hat, params)
    if order == 1:
        # E (hat + dt f), formed in the tendency arrays
        for hat, f in ((n_hat, fn), (c_hat, fc), (u_hat, fu)):
            f *= dt
            f += hat
            f *= E
        n_new, c_new, u_new = fn, fc, fu
    else:
        # Heun on the integrating-factor variables
        u_pred_hat = grid.project_hat(E * (u_hat + dt * fu))
        n_pred = np.maximum(grid.irfftn(E * (n_hat + dt * fn)), 0.0)
        c_pred = np.clip(grid.irfftn(E * (c_hat + dt * fc)), 0.0, params.c0_max)
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
    """One IMEX step (``advance``), then the pressure solve; returns a new
    State with P and a ``step_log`` dict attached."""
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
    seed: int = 0
    order: int = 1
    init: dict = field(default_factory=lambda: {"preset": "zero"})

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")


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

    return _with_pressure(grid, n, c, u, 0.0, params)


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
    half = np.zeros((n, n, n // 2 + 1), dtype=complex)
    # add.at, in the draw order: with 2 modes + 1 > N, aliased modes share
    # a grid wavenumber; only columns kz mod N <= N/2 are kept
    for sign, value in ((1, coeff), (-1, np.conj(coeff))):
        idx = (sign * kx % n, sign * ky % n, sign * kz % n)
        kept = idx[2] <= n // 2
        np.add.at(half, tuple(k[kept] for k in idx), value[kept])
    out = n**3 * grid.irfftn(half)
    return out / max(1.0, float(np.max(np.abs(out))))


def simulate(cfg: SimulationConfig, params: PhysParams, out_dir=None) -> Trajectory:
    """Run the solver and collect snapshots every ``output_stride`` steps,
    from the initial state's own time (a restart's snapshot time) to
    ``t_end``.

    Steps run on raw arrays (``advance``); a State, with its pressure
    solved, is built only for the initial and every kept snapshot.  When
    ``out_dir`` is given, each kept snapshot is written in the CNS1 format
    as soon as it is produced, and ``trajectory.json`` (with the physics
    and the run log) is written last, so it exists only for a run that
    finished.
    """
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
    n_steps = int(round((cfg.t_end - t) / cfg.dt))
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
        write_trajectory_meta(out, traj)
    return traj
