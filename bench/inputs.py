"""Seeded inputs of the three workloads.

Every config, centre list and point set is drawn from ``--seed``; the same
seed gives the same inputs.  The program receives only these files and
arguments.  The ball-stencil symmetry inputs are fixed on purpose: they
exercise a known fault on every run, whatever the seed.
"""

from __future__ import annotations

import math

import numpy as np

from checks import thm13_lattice

#: physics shared by every workload: chemotaxis and buoyancy switched on
PHYSICS = {"phys.theta0": 1.0, "phys.chi": 0.5, "phys.gravity": 0.5,
           "phys.c0_max": 1.0}
INIT = {"init.preset": "random_smooth", "init.amplitude": 0.05,
        "init.n_mean": 1.0, "init.c0": 1.0, "init.modes": 2}

SOLVE_N, SOLVE_DT, SOLVE_STEPS = 64, 2e-4, 6

PIPE_N, PIPE_DT, PIPE_STEPS, PIPE_STRIDE = 32, 5e-4, 40, 5
PIPE_RADII = (0.0625, 0.125)  # 2h and 4h on the unit box
PIPE_FLAG_STRIDE = 4  # 512 centres; the pipeline default is N/4 = 8
DELTA0 = 0.05  # RegularityConfig default, used by the thm13 functional

DIAG_N, DIAG_DT, DIAG_STEPS, DIAG_STRIDE = 32, 2e-3, 30, 5  # to t = 0.06, as in criterion 06
DIAG_RADII = (0.0625, 0.09375)  # 2h and 3h
DIAG_LATTICE = 3  # 3 x 3 x 3 centres
DIAG_FLAG_STRIDE = (4, 8)  # thm13, thm16i
DIAG_PRESSURE_RHO = 0.2
DIAG_BUMP = (0.1, 0.01)  # LEI test function: radius, time span
DIM_POINTS = 20_000
CURVE_SCALES = "2^-3..2^-6"
SEGMENT_SCALES = "2^-2..2^-5"

#: (N, L, radius) of the constant-field symmetry check; fixed, not seeded
SYMMETRY_CASES = ((48, 1.0, 1.0 / 8.0), (32, 2.0 * math.pi, 3.0 * 2.0 * math.pi / 32))
SYMMETRY_CENTRES = 8


def config_text(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def sim_entries(rng, n, dt, steps, stride, order) -> dict:
    return {"grid.n": n, "grid.l": 1.0, "sim.dt": dt, "sim.t_end": repr(steps * dt),
            "sim.output_stride": stride, "sim.seed": int(rng.integers(0, 2**31)),
            "sim.order": order, **PHYSICS, **INIT}


def solve_config(seed: int):
    """SimulationConfig and PhysParams of the ``solve`` workload: 64^3,
    order 1, a few steps, keeping only the first and the last state."""
    from cnsflow.cli import build_sim_config

    rng = np.random.default_rng([seed, 1])
    entries = sim_entries(rng, SOLVE_N, SOLVE_DT, SOLVE_STEPS, SOLVE_STEPS, order=1)
    return build_sim_config({k: str(v) for k, v in entries.items()})


# ---------------------------------------------------------------------------
# pipeline: a working threshold that flags some centres but not all
# ---------------------------------------------------------------------------


def heat_flow(state, times) -> list:
    """The initial state carried forward by the heat flow alone, as
    snapshot dicts; the forcing is weak at this amplitude."""
    n = state.grid.n
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=state.grid.h)
    kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=state.grid.h)
    k_sq = k1.reshape(-1, 1, 1) ** 2 + k1.reshape(1, -1, 1) ** 2 + kz.reshape(1, 1, -1) ** 2
    hats = [np.fft.rfftn(f) for f in (state.n, state.c, *state.u)]

    def at(t):
        return [np.fft.irfftn(h * np.exp(-k_sq * t), s=(n,) * 3, axes=(0, 1, 2)) for h in hats]

    return [{"N": n, "L": state.grid.box_length, "t": t, "n": f[0], "c": f[1],
             "u": np.stack(f[2:])} for t, f in ((t, at(t)) for t in times)]


def pipeline_config(seed: int) -> str:
    """32^3 order-2 pipeline config with a dense flag lattice and a working
    threshold at the median of thm13 values estimated from the heat flow,
    so that the flagged share is neither 0 nor 1."""
    from cnsflow.cli import build_sim_config
    from cnsflow.solver import initial_state

    rng = np.random.default_rng([seed, 2])
    entries = sim_entries(rng, PIPE_N, PIPE_DT, PIPE_STEPS, PIPE_STRIDE, order=2)
    entries["pipeline.radii"] = ",".join(repr(r) for r in PIPE_RADII)
    entries["pipeline.flag_stride"] = PIPE_FLAG_STRIDE
    sim, params = build_sim_config({k: str(v) for k, v in entries.items()})
    state = initial_state(sim, params)
    t_last = PIPE_STEPS * PIPE_DT
    times = [k * PIPE_DT for k in range(0, PIPE_STEPS + 1, PIPE_STRIDE)]
    est = thm13_lattice(heat_flow(state, times), t_last, PIPE_RADII, PIPE_FLAG_STRIDE, DELTA0)
    entries["reg.working_threshold"] = repr(float(np.median(est)))
    return config_text(entries)


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def diagnose_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    entries = sim_entries(rng, DIAG_N, DIAG_DT, DIAG_STEPS, DIAG_STRIDE, order=1)
    h = 1.0 / DIAG_N
    t_last = DIAG_STEPS * DIAG_DT
    base = rng.integers(0, DIAG_N, size=3)
    step = DIAG_N // DIAG_LATTICE
    centres = [tuple(float(((base[a] + (i, j, k)[a] * step) % DIAG_N) * h) for a in range(3))
               for i in range(DIAG_LATTICE) for j in range(DIAG_LATTICE)
               for k in range(DIAG_LATTICE)]
    pressure_centre = tuple(float(v) * h for v in rng.integers(0, DIAG_N, size=3))
    lei_centre = tuple(float(v) * h for v in rng.integers(0, DIAG_N, size=3))
    return {
        "entries": entries,
        "t_last": t_last,
        "centres": centres,
        "pressure_centre": pressure_centre,
        "lei_centre": lei_centre,
        "curve": curve_points(rng),
        "segment": segment_points(rng),
    }


def curve_points(rng) -> list:
    """A closed spatial curve at one time: a circle of radius 1/4 in a
    random plane, sampled at sorted uniform angles.  Parabolic dimension 1."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    e1, e2 = q[:, 0], q[:, 1]
    radius = 0.25
    centre = rng.uniform(0.3, 0.7, size=3)
    t0 = float(rng.uniform(0.0, 1.0))
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=DIM_POINTS))
    xyz = centre + radius * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)
    return [(tuple(p), t0) for p in xyz.tolist()]


def segment_points(rng) -> list:
    """A time segment at one spatial point: t uniform on an interval of
    length 1.  Parabolic dimension 2."""
    x = tuple(rng.uniform(0.0, 1.0, size=3).tolist())
    ts = np.sort(rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0, size=DIM_POINTS))
    return [(x, float(t)) for t in ts]


def flags_csv_text(points) -> str:
    """Points in the flag CSV layout that ``cnsflow dimension`` reads,
    ordered by (t, x) like a FlagSet."""
    lines = ["t0,x0,x1,x2,r_star,value,working_threshold,paper_threshold,margin"]
    for x, t in sorted(points, key=lambda p: (p[1],) + tuple(p[0])):
        lines.append(f"{t!r},{x[0]!r},{x[1]!r},{x[2]!r},0.1,1.0,0.5,0.5,2.0")
    return "\n".join(lines) + "\n"


def centres_csv_text(centres, t0: float) -> str:
    lines = ["x0,x1,x2,t0"] + [f"{x!r},{y!r},{z!r},{t0!r}" for x, y, z in centres]
    return "\n".join(lines) + "\n"


def symmetry_centres(n: int, box_length: float) -> list:
    h = box_length / n
    return [tuple(((a * k + b) % n) * h for a, b in ((5, 0), (11, 3), (17, 7)))
            for k in range(SYMMETRY_CENTRES)]
