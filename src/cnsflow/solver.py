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
    """Kept blocks of the explicit (non-diffusive) tendencies; derivatives
    come from the hats of c and u, and each product is dealiased by its
    kept forward transform."""
    ik = grid.ik
    kept_ik = [grid.kept(iki) for iki in ik]
    c_pos = np.maximum(c, 0.0)
    chi_c = params.chi_eval(c_pos)
    kappa_n = params.theta0 * c_pos * chi_c * n  # kappa_eval(c) n, from chi_c
    chi_n = chi_c * n
    del c_pos, chi_c
    grad_c = [grid.irfftn(iki * c_hat) for iki in ik]

    # Sums accumulate in place, in their written order up to commuting two
    # terms; negating a sum term by term, -(a + b) = (-a) - b, is exact.
    # c: advection + consumption
    adv_c = u[0] * grad_c[0]
    adv_c += u[1] * grad_c[1]
    adv_c += u[2] * grad_c[2]
    adv_c += kappa_n
    fc = grid.kept_rfftn(adv_c)
    np.negative(fc, out=fc)
    del adv_c, kappa_n

    # n: divergence-form flux of advection + chemotaxis, formed in grad_c
    fn = 0
    for i, (iki, flux) in enumerate(zip(kept_ik, grad_c)):
        flux *= chi_n
        flux += n * u[i]
        fn -= iki * grid.kept_rfftn(flux)
    del grad_c, chi_n

    # u: u x curl u + buoyancy n grad_phi, with grad_phi = (0, 0, -gravity);
    # the update's Leray projection removes the gradient part of
    # u.grad u = grad(|u|^2/2) - u x curl u
    omega = []
    for a, b in _CYCLIC:
        w = ik[a] * u_hat[b]
        w -= ik[b] * u_hat[a]
        omega.append(grid.irfftn(w))
    fu = np.empty((3,) + fc.shape, dtype=complex)
    for j, (a, b) in enumerate(_CYCLIC):
        f = u[a] * omega[b]
        f -= u[b] * omega[a]
        if j == 2:
            f += params.gravity * n
        fu[j] = grid.kept_rfftn(f)
    return fn, fc, fu


def _clamp(a, hi=None):
    """``a`` clamped to [0, hi] (at 0 only when hi is None), and whether the
    clamp changed it; an unchanged array is returned as it is."""
    acted = np.min(a) < 0.0 or (hi is not None and np.max(a) > hi)
    return (np.clip(a, 0.0, hi) if acted else a), bool(acted)


def advance(grid: Grid, n, c, u, params: PhysParams, dt: float, order: int = 1,
            hats=None):
    """One IMEX step on raw arrays: returns (n, c, u, step_log, hats).

    ``order`` is 1 (integrating-factor Euler) or 2 (Heun); any other value
    raises ValueError before any work.  ``hats`` = (n_hat, c_hat, u_hat)
    carries the arrays' spectra from step to step: they are updated in
    place and returned, None for a field whose clamp acted.  A missing
    spectrum is rebuilt from its array; a rebuilt u_hat, solenoidal only to
    rounding, has its whole update projected, a carried one only its kept
    block.  Real transforms, full + kept: 16 + 7 at order 1 from physical
    arrays and 11 + 7 carried; 28 + 14 and 23 + 14 at order 2, one full
    fewer when the predicted c needed no clip.  The tendencies are kept
    blocks, their products dealiased by ``Grid.kept_rfftn``.  Advection of
    u is in rotational form, u x curl u; the projection removes the
    gradient part of u.grad u.  Diffusion uses the exact integrating factor
    E = exp(-|k|^2 dt).  Off the kept block every update is E hat, written
    into the spectra once, in place; then the Euler block E (b + dt f), b
    the block before the step: the whole order-1 update and, at order 2,
    Heun's predictor, inverted from the spectra before the corrector
    E b + dt/2 (E f + f2) overwrites the block.  c is clamped to
    [0, c0_max] and n at zero; the step log holds the clamped mass and the
    number of spectra a clamp forced to be rebuilt ("spectra_rebuilt").
    The new arrays are checked for finiteness once.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    u_sq = u[0] * u[0]
    u_sq += u[1] * u[1]
    u_sq += u[2] * u[2]
    max_u = float(np.sqrt(np.max(u_sq)))
    del u_sq
    cfl = max_u * dt / grid.h
    if cfl > 0.5:
        raise CFLError(cfl, 0.5 * grid.h / max_u)

    n_hat, c_hat, u_hat = hats or (None,) * 3
    rebuilt = 0 if hats is None else (n_hat is None) + (c_hat is None)
    u_rebuilt = u_hat is None
    n_hat = grid.rfftn(n) if n_hat is None else n_hat
    c_hat = grid.rfftn(c) if c_hat is None else c_hat
    u_hat = grid.rfftn(u) if u_hat is None else u_hat
    fs = _rhs_hats(grid, n, c, u, c_hat, u_hat, params)

    spectra = (n_hat, c_hat, u_hat)
    blocks = [grid.kept(hat) for hat in spectra]
    E = np.exp(-grid.k_sq * dt)
    E_kept = grid.kept(E)
    for hat in spectra:
        hat *= E
    if u_rebuilt:
        grid.project_hat(u_hat, out=u_hat)
    kept = grid.kept_index(u_hat.shape)

    def put(hat, f):
        """Write the block ``f`` into ``hat``, projecting a velocity block."""
        hat[kept] = grid.project_hat(f, out=f) if f.ndim == 4 else f

    # Euler: E (b + dt f) on the block; at order 2, Heun's predictor
    for hat, b, f in zip(spectra, blocks, fs):
        put(hat, (b + dt * f) * E_kept)
    if order == 2:
        n_pred, _ = _clamp(grid.irfftn(n_hat))
        c_pred, clipped = _clamp(grid.irfftn(c_hat), params.c0_max)
        rebuilt += clipped
        fs2 = _rhs_hats(grid, n_pred, c_pred, grid.irfftn(u_hat),
                        grid.rfftn(c_pred) if clipped else c_hat, u_hat, params)
        del n_pred, c_pred
        # the corrector: E b + dt/2 (E f + f2) on the block
        for hat, b, f, f2 in zip(spectra, blocks, fs, fs2):
            f *= E_kept
            f += f2
            f *= 0.5 * dt
            f += E_kept * b
            put(hat, f)
    del fs, blocks

    u_arr = grid.irfftn(u_hat)
    n_arr = grid.irfftn(n_hat)
    c_arr = grid.irfftn(c_hat)
    for name, arr in (("n", n_arr), ("c", c_arr), ("u", u_arr)):
        _check_finite(arr, name)

    clamp_mass = float(-np.sum(np.minimum(n_arr, 0.0)) * grid.cell_volume)
    c_overshoot = max(0.0, float(np.max(c_arr)) - params.c0_max)
    n_arr, n_clamped = _clamp(n_arr)
    c_arr, c_clamped = _clamp(c_arr, params.c0_max)
    step_log = {"clamp_mass": clamp_mass, "c_overshoot_preclamp": c_overshoot, "cfl": cfl,
                "spectra_rebuilt": rebuilt}
    hats = (None if n_clamped else n_hat, None if c_clamped else c_hat, u_hat)
    return n_arr, c_arr, u_arr, step_log, hats


def _with_pressure(grid: Grid, n, c, u, time: float, params: PhysParams) -> State:
    s = State(grid, n, c, u, np.zeros_like(n), time)
    s.p = solve_pressure(s, params)
    return s


def step(s: State, params: PhysParams, dt: float, order: int = 1) -> State:
    """One IMEX step (``advance``), then the pressure solve; returns a new
    State with P and a ``step_log`` dict attached."""
    n, c, u, step_log, _ = advance(s.grid, s.n, s.c, s.u, params, dt, order)
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
        # projected in its own spectrum, each array dropped once used
        u = np.empty((3,) + shape)
        for i in range(3):
            u[i] = amp * _band_limited(rng, grid, modes)
        u = grid.rfftn(u)
        u = grid.irfftn(grid.project_hat(u, out=u))
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


def step_times(cfg: SimulationConfig, t: float) -> list:
    """The time after each step ``simulate`` takes from time t."""
    times = []
    for _ in range(int(round((cfg.t_end - t) / cfg.dt))):
        t = t + cfg.dt
        times.append(t)
    return times


def simulate(cfg: SimulationConfig, params: PhysParams, out_dir=None) -> Trajectory:
    """Run the solver and collect snapshots every ``output_stride`` steps,
    from the initial state's own time (a restart's snapshot time) to
    ``t_end``.

    Steps run on raw arrays (``advance``), carrying their spectra; a
    State, with its pressure solved, is built only for the initial and
    every kept snapshot, after which the spectra are rebuilt from the
    arrays, so a run resumed from a kept snapshot is bitwise this run.  When
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
    grid, n, c, u = s.grid, s.n, s.c, s.u
    times = step_times(cfg, s.time)
    mass0 = float(np.sum(n) * grid.cell_volume)
    run_log = {"clamp_mass_total": 0.0, "c_overshoot_max": 0.0, "mass_drift_max": 0.0,
               "spectra_rebuilt": 0}
    hats = None
    for i, t in enumerate(times, 1):
        n, c, u, step_log, hats = advance(grid, n, c, u, params, cfg.dt,
                                          order=cfg.order, hats=hats)
        run_log["clamp_mass_total"] += step_log["clamp_mass"]
        run_log["spectra_rebuilt"] += step_log["spectra_rebuilt"]
        run_log["c_overshoot_max"] = max(
            run_log["c_overshoot_max"], step_log["c_overshoot_preclamp"]
        )
        if mass0 > 0:
            mass = float(np.sum(n) * grid.cell_volume)
            # drift before crediting back the clamped (negative) mass
            drift = abs(mass - run_log["clamp_mass_total"] - mass0) / mass0
            run_log["mass_drift_max"] = max(run_log["mass_drift_max"], drift)
        if i % cfg.output_stride == 0 or i == len(times):
            keep(_with_pressure(grid, n, c, u, t, params))
            hats = None
    traj = Trajectory(states, params=params)
    traj.run_log = run_log
    if out is not None:
        write_trajectory_meta(out, traj)
    return traj
