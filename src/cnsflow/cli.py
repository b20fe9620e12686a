"""Command-line operator surface: configuration ingestion, run
orchestration, CSV emission, and deterministic manifests.

Configuration files are flat ``key = value`` text with dotted namespaces
(``grid.n = 32``); ``#`` starts a comment, and a key no command reads
(``CONFIG_KEYS``) is an error.  A run config must set ``REQUIRED_KEYS``;
an unset key takes the default of the dataclass field it sets (``init.*``:
of ``solver.initial_state``), and a value that does not parse exits 2
naming its key.  All tabular outputs are CSV with a stable header and
deterministic float formatting, so a rerun with an identical manifest
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
import warnings
from contextlib import suppress
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import LocalQuantities, quantities_plan
from .energy import (
    LEI_TERMS,
    energy_plan,
    heat_test_function,
    lei_plan,
    lei_residual,
    smooth_bump,
)
from .grid_fields import (
    CylinderRangeError,
    Grid,
    NonFiniteFieldError,
    ParabolicCylinder,
    Pass,
    Plan,
    RescaleError,
    _snapshot_weights,
    ball_mask,
    sweep,
)
from .hausdorff import dimension_estimate
from .pressure import decompose_local, harmonic_residual
from .regularity import (
    FLAG_COLUMNS,
    PAPER_THRESHOLD,
    RegularityConfig,
    flag_plan,
    flag_sweep,
)
from .snapshot import read_snapshot, read_trajectory, snapshot_time
from .solver import CFLError, SimulationConfig, simulate, step_times
from .state import PhysParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

#: exceptions classified as numeric failures (exit code 3)
_NUMERIC_ERRORS = (
    CFLError,
    NonFiniteFieldError,
    CylinderRangeError,
    RescaleError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


class ConfigError(Exception):
    """Malformed or incomplete configuration."""


class PhaseError(Exception):
    """A pipeline phase failed; its own exception is the ``__cause__``."""


#: (exception types, stderr label, exit code), first match wins
_EXIT_CLASSES = (
    (ConfigError, "config error", EXIT_CONFIG),
    (_NUMERIC_ERRORS, "numeric failure", EXIT_NUMERIC),
    ((ValueError, KeyError), "config error", EXIT_CONFIG),
    (OSError, "io error", EXIT_IO),
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_config(path) -> dict:
    """Read a flat key = value file with dotted namespaces."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


#: every key a command reads from a config file: the object it sets
#: (``sim``: SimulationConfig, ``phys``: PhysParams, ``init``: the init
#: dict, ``reg``: RegularityConfig, ``pipeline``: the pipeline's own), the
#: field it sets there, and how its value parses
_CONFIG = {
    "grid.n": ("sim", "grid_n", int), "grid.l": ("sim", "grid_l", float),
    "sim.dt": ("sim", "dt", float), "sim.t_end": ("sim", "t_end", float),
    "sim.output_stride": ("sim", "output_stride", int),
    "sim.seed": ("sim", "seed", int), "sim.order": ("sim", "order", int),
    "phys.theta0": ("phys", "theta0", float), "phys.gravity": ("phys", "gravity", float),
    "phys.chi": ("phys", "chi_coeffs", _float_list),
    "phys.c0_max": ("phys", "c0_max", float),
    "init.preset": ("init", "preset", str), "init.path": ("init", "path", str),
    "init.modes": ("init", "modes", int), "init.c0": ("init", "c0", float),
    "init.amplitude": ("init", "amplitude", float), "init.width": ("init", "width", float),
    "init.n_mean": ("init", "n_mean", float),
    "reg.delta0": ("reg", "delta0", float), "reg.eps1": ("reg", "eps1", float),
    "reg.working_threshold": ("reg", "working_threshold", float),
    "pipeline.flag_stride": ("pipeline", "flag_stride", int),
    "pipeline.radii": ("pipeline", "radii", _float_list),
}
CONFIG_KEYS = frozenset(_CONFIG)

#: the keys a run config must set
REQUIRED_KEYS = ("grid.n", "grid.l", "sim.dt", "sim.t_end")


def read_config(path) -> dict:
    """``parse_config`` for a command: a key outside ``CONFIG_KEYS``, such
    as a misspelt one, is a ConfigError rather than a silent default."""
    cfg = parse_config(path)
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"{path}: unknown config key(s) {names}")
    return cfg


def config_get(cfg: dict, key: str, cast=str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {cfg[key]!r}") from exc


def _fields_of(cfg: dict, target: str) -> dict:
    """The fields of ``target`` that ``cfg`` sets, each parsed by the
    table; a missing required key is a ConfigError that names it."""
    return {name: config_get(cfg, key, cast)
            for key, (obj, name, cast) in _CONFIG.items()
            if obj == target and (key in cfg or key in REQUIRED_KEYS)}


def _center(text: str) -> tuple:
    """A ``--center`` value: exactly three comma-separated coordinates."""
    center = _float_list(text)
    if len(center) != 3:
        raise ConfigError(
            f"--center needs exactly three comma-separated values, got {text!r}")
    return center


def build_sim_config(cfg: dict) -> tuple:
    """Assemble the simulation config and physical parameters.  An unset
    ``phys.c0_max`` is ``init.c0`` when that is set."""
    sim, phys, init = (_fields_of(cfg, t) for t in ("sim", "phys", "init"))
    if "c0" in init:
        phys.setdefault("c0_max", init["c0"])
    if init:
        sim["init"] = init
    return SimulationConfig(**sim), PhysParams(**phys)


def build_reg_config(cfg: dict) -> RegularityConfig:
    try:
        return RegularityConfig(**_fields_of(cfg, "reg"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """CSV with a stable header; a float is written as its repr."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else str(v) for v in row])


def read_csv(path) -> tuple:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    return header, rows


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def write_manifest(out_dir, config_path, sim, params, phase_seconds,
                   outputs, failed_phase=None, flag_near_threshold=None) -> Path:
    """manifest.json, through a temporary file: the run's inputs, outputs
    and per-phase seconds, the flag sweep's count of rows within rounding
    of its threshold once it has one, and, for a failed pipeline, the
    phase that failed."""
    manifest = {
        "version": __version__,
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "seed": sim.seed,
        "grid": {"n": sim.grid_n, "box_length": sim.grid_l, "dt": sim.dt},
        "params": asdict(params),
        "outputs": {k: str(v) for k, v in outputs.items()},
        "phase_seconds": phase_seconds,
    }
    if failed_phase is not None:
        manifest["failed_phase"] = failed_phase
    if flag_near_threshold is not None:
        manifest["flag_near_threshold"] = flag_near_threshold
    path = Path(out_dir) / "manifest.json"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

#: the cylinder's (t0, x0, r), then LocalQuantities' values in field order
QUANTITY_COLUMNS = ("t0", "x0", "x1", "x2", "r",
                    *(f.name for f in fields(LocalQuantities)[3:]))

LEI_COLUMNS = ("t", *(f"{side}_{name}" for side, name, *_ in LEI_TERMS), "residual")
DIMENSION_COLUMNS = ("kind", "scale", "value")


def _quantity_row(traj, x0, t0: float, r: float) -> Plan:
    """The plan of one QUANTITY_COLUMNS row: the cylinder quantities at
    (x0, t0, r)."""
    def row(q):
        d = q.as_dict()
        return [t0, x0[0], x0[1], x0[2], r] + [d[name] for name in QUANTITY_COLUMNS[5:]]

    return quantities_plan(traj, ParabolicCylinder(x0, t0, r)).then(row)


def _lei_row(rep) -> list:
    """One LEI_COLUMNS row: the local energy inequality terms of a report."""
    return [rep.t, *rep.lhs_terms.values(), *rep.rhs_terms.values(), rep.residual]


def _dimension_rows(est) -> list:
    """The count and slope rows of a covering-dimension estimate."""
    return ([["count", r, float(n)] for r, n in zip(est.scales, est.counts)]
            + [["slope", est.scales[-1], est.slope]])


#: the columns of a centres or flag CSV that hold a point's coordinates
_POINT_COLUMNS = ("x0", "x1", "x2", "t0")


def _read_centers(path) -> np.ndarray:
    """The points of a centres or flag CSV, found by header name, as an
    (m, 4) array of (x0, x1, x2, t) rows; every coordinate must be finite."""
    with open(path) as f:
        header = f.readline().rstrip("\r\n").split(",")
        for name in _POINT_COLUMNS:
            if name not in header:
                raise ConfigError(f"{path}: no column {name!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header only
                pts = np.loadtxt(f, delimiter=",", ndmin=2,
                                 usecols=[header.index(n) for n in _POINT_COLUMNS])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    bad = np.flatnonzero(~np.all(np.isfinite(pts), axis=1))
    if len(bad):
        raise ConfigError(f"{path}: data row {bad[0] + 1} has a non-finite coordinate")
    return pts


def cmd_simulate(args) -> int:
    cfg = read_config(args.config)
    sim, params = build_sim_config(cfg)
    out = Path(args.out)
    t0 = time.perf_counter()
    simulate(sim, params, out_dir=out)
    write_manifest(out, args.config, sim, params,
                   {"simulate": time.perf_counter() - t0},
                   {"trajectory": out})
    return EXIT_OK


def cmd_diagnose_quantities(args) -> int:
    traj = read_trajectory(args.traj)
    centers = _read_centers(args.centers)
    radii = _float_list(args.radii)
    if not radii:
        raise ConfigError("empty --radii")
    rows = Plan.all(_quantity_row(traj, x0, t0, r)
                    for *x0, t0 in centers.tolist() for r in sorted(radii)).run(traj)
    write_csv(args.out, QUANTITY_COLUMNS, rows)
    return EXIT_OK


def cmd_diagnose_pressure(args) -> int:
    state = read_snapshot(args.snapshot)
    center = _center(args.center)
    rho = float(args.rho)
    params = PhysParams()  # a lone snapshot records no physics
    if args.config:
        _, params = build_sim_config(read_config(args.config))
    dec = decompose_local(state, center, rho, params=params)
    res = harmonic_residual(dec)
    edges = np.linspace(0.0, rho, 17)
    inside = [ball_mask(state.grid, center, r) for r in edges]
    rows = []
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        sel = inside[k + 1] & ~inside[k]
        if not np.any(sel):
            continue
        rows += [[kind, 0.5 * (lo + hi), float(np.mean(a[sel]))] for kind, a in (
            ("profile_p", state.p), ("profile_p1", dec.p1), ("profile_p2", dec.p2))]
    rows.append(["identity_residual", rho, dec.identity_residual(state.p)])
    rows.append(["harmonic_deviation", rho, res["max_deviation"]])
    rows.append(["harmonic_relative", rho, res["relative"]])
    write_csv(args.out, ("kind", "r", "value"), rows)
    return EXIT_OK


#: the options each kind of ``--psi`` test function takes
_PSI_OPTIONS = {"heat": ("k", "scale"), "bump": ("r", "span")}


def _parse_psi(spec: str, box_length: float):
    """Test-function spec: heat:k=3[,scale=S] or bump:r=R,span=T.  Any
    other option, or a level k that is not an integer, is a ConfigError."""
    kind, _, rest = spec.partition(":")
    if kind not in _PSI_OPTIONS:
        raise ConfigError(f"unknown test-function spec {spec!r}")
    opts = {}
    for tok in rest.split(","):
        if tok:
            k, _, v = tok.partition("=")
            k = k.strip()
            if k not in _PSI_OPTIONS[kind]:
                raise ConfigError(f"--psi {kind} has no option {k!r}; "
                                  f"it takes {' and '.join(_PSI_OPTIONS[kind])}")
            opts[k] = float(v)
    if kind == "heat":
        level = opts.get("k", 3.0)
        if not level.is_integer():
            raise ConfigError(f"--psi heat: k must be an integer, got {level!r}")
        scale = opts.get("scale", box_length)
        return heat_test_function(int(level), scale=scale)
    radius = opts.get("r", box_length / 8.0)
    span = opts.get("span", (box_length / 8.0) ** 2)
    return smooth_bump(radius, span)


def cmd_verify_lei(args) -> int:
    traj = read_trajectory(args.traj)
    L = traj.grid.box_length
    tf = _parse_psi(args.psi, L)
    center = _center(args.center) if args.center else (L / 2,) * 3
    omega = float(args.omega) if args.omega else L / 4.0
    t = float(args.t)
    write_csv(args.out, LEI_COLUMNS, [_lei_row(lei_residual(traj, tf, t, center, omega))])
    return EXIT_OK


def _candidate_centers(traj, stride: int) -> np.ndarray:
    """Every stride-th grid point at the last snapshot time, as an (m, 4)
    array of (x0, x1, x2, t) rows in x0-major order."""
    if stride < 1:
        raise ConfigError(f"grid stride must be at least 1, got {stride}")
    g = traj.grid
    axis = np.arange(0, g.n, stride) * g.h
    x = np.meshgrid(axis, axis, axis, indexing="ij")
    t = np.full(x[0].shape, float(traj.times[-1]))
    return np.stack([*x, t], axis=-1).reshape(-1, 4)


def cmd_flag(args) -> int:
    traj = read_trajectory(args.traj)
    radii = _float_list(args.radii)
    if not radii:
        raise ConfigError("empty --radii")
    reg = build_reg_config(read_config(args.config)) if args.config \
        else RegularityConfig()
    centers = _candidate_centers(traj, int(args.grid_stride))
    flags = flag_sweep(traj, centers, radii, reg, criterion=args.criterion)
    write_csv(args.out, FLAG_COLUMNS, flags.rows())
    print(f"flag: {flags.near_threshold} of {len(centers)} rows lie within rounding "
          "of the working threshold", file=sys.stderr)
    return EXIT_OK


def _parse_scales(spec: str) -> list:
    """Either 2^-a..2^-b or a comma list of radii.  A bare exponent range
    such as 3..5 is refused: it does not say whether 2^3 or 2^-3 is meant."""
    if ".." not in spec:
        return list(_float_list(spec))
    ends = [tok.strip() for tok in spec.split("..")]
    if not all(tok.startswith("2^") for tok in ends):
        raise ConfigError(f"--scales {spec!r}: write a range as 2^-a..2^-b")
    lo, hi = sorted(-int(tok[2:]) for tok in ends)
    return [2.0**-k for k in range(lo, hi + 1)]


def cmd_dimension(args) -> int:
    points = _read_centers(args.flags)
    scales = _parse_scales(args.scales)
    out_rows = []
    if len(points):
        est = dimension_estimate(points, scales)
        out_rows = _dimension_rows(est)
        out_rows.append(["fit_residual", est.scales[-1], est.fit_residual])
        alpha = float(args.alpha)
        out_rows.append(["measure_upper", alpha, est.measure_upper(alpha)])
        trend = est.measure_trend(alpha)
        out_rows.append(["measure_trend_decreasing", alpha,
                         1.0 if trend["classification"] == "decreasing" else 0.0])
    write_csv(args.out, DIMENSION_COLUMNS, out_rows)
    return EXIT_OK


class _HeldPlan:
    """One analysis phase of the pipeline in its shared sweep: its plan,
    the seconds its building and steps take, and the first exception
    either raised, held until the phase's turn (``result``), so the phases
    before it still finish."""

    def __init__(self, build):
        self.seconds, self.error = 0.0, None
        self.plan = self._timed(build)

    def _timed(self, fn, *args):
        if self.error is None:
            t0 = time.perf_counter()
            try:
                return fn(*args)
            except Exception as exc:  # held until the phase's turn
                self.error = exc
            finally:
                self.seconds += time.perf_counter() - t0

    def passes(self) -> list:
        """The plan's passes, each step timed and held."""
        if self.plan is None:
            return []
        return [Pass(p.snapshots, partial(self._timed, p.step)) for p in self.plan.passes]

    def result(self):
        """The phase's result, or its held exception; the plan, and what
        its passes gathered, go with it."""
        if self.error is not None:
            raise self.error
        plan, self.plan = self.plan, None
        return plan.finish()


def cmd_pipeline(args) -> int:
    cfg = read_config(args.config)
    sim, params = build_sim_config(cfg)
    reg = build_reg_config(cfg)
    # parsed before the run, so a malformed value is a config error
    pipe = _fields_of(cfg, "pipeline")
    flag_stride = pipe.get("flag_stride", max(1, sim.grid_n // 4))
    radii = pipe.get("radii")
    key = "sim.t_end" if radii is None else "pipeline.radii"
    L = sim.grid_l
    center, omega = (L / 2.0,) * 3, L / 4.0
    # the planned first and last snapshot times, by simulate's own rule
    t_first = (snapshot_time(sim.init["path"])
               if sim.init.get("preset") == "restart" else 0.0)
    t_last = ([t_first] + step_times(sim, t_first))[-1]
    span = t_last - t_first
    if radii is None:
        r_cap = min(L / 8.0, 0.95 * span**0.5)
        radii = (0.5 * r_cap, r_cap)
    bump_r = min(L / 8.0, max(radii))
    bump_span = min(0.5 * span, bump_r**2)
    # before the first step, each cylinder of the analysis phases (each
    # radius at t_last for the quantities and flags, then the LEI's ball)
    # by the cylinder quadrature's own rules on the planned grid and span
    grid = Grid(sim.grid_n, L)
    for name, r, depth in [("quantities", r, r**2) for r in radii] + [
            ("lei", omega, bump_span)]:
        try:
            ball_mask(grid, center, r)
            _snapshot_weights(np.array([t_first, t_last]), t_last - depth, t_last)
        except ValueError as exc:
            raise ConfigError(f"{key}: phase {name!r} would fail: {exc}") from exc
    tf = smooth_bump(bump_r, bump_span)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phase_seconds = {}
    outputs = {}
    near = {}  # the flag sweep's count of rows within rounding of its threshold

    def phase(name, output, fn, header=None, before=0.0):
        """Run one phase, timed, plus ``before`` seconds spent on it
        earlier; with a header, ``fn`` returns the rows of
        ``<output>.csv``.  The output is recorded, and the manifest
        rewritten, once the phase is done."""
        path = out / (f"{output}.csv" if header else output)
        t0 = time.perf_counter()
        try:
            result = fn()
            if header:
                write_csv(path, header, result)
        except Exception as exc:
            with suppress(OSError):  # the phase's own error sets the exit code
                write_manifest(out, args.config, sim, params, phase_seconds,
                               outputs, failed_phase=name, **near)
            raise PhaseError(f"pipeline phase {name!r} failed: {exc}") from exc
        phase_seconds[name] = before + time.perf_counter() - t0
        outputs[output] = path
        write_manifest(out, args.config, sim, params, phase_seconds, outputs, **near)
        return result

    traj = phase("simulate", "trajectory",
                 lambda: simulate(sim, params, out_dir=out / "trajectory"))
    # the analysis phases read the streamed trajectory in one sweep
    held = {
        "quantities": _HeldPlan(lambda: Plan.all(
            _quantity_row(traj, center, t_last, r) for r in sorted(radii))),
        "energy": _HeldPlan(lambda: energy_plan(traj).then(
            lambda rep: list(zip(rep["times"], rep["lhs"])))),
        "lei": _HeldPlan(lambda: lei_plan(traj, tf, t_last, center, omega).then(
            lambda rep: [_lei_row(rep)])),
        "flag": _HeldPlan(lambda: flag_plan(
            traj, _candidate_centers(traj, flag_stride), radii, reg)),
    }
    try:
        sweep(traj, [p for h in held.values() for p in h.passes()])
    except Exception as exc:  # a snapshot read failed: no phase has its data
        for h in held.values():
            h.error = h.error or exc
    for name, header in (("quantities", QUANTITY_COLUMNS), ("energy", ("t", "lhs")),
                         ("lei", LEI_COLUMNS)):
        phase(name, name, held[name].result, header, held[name].seconds)

    def flag():
        flags = held["flag"].result()
        near["flag_near_threshold"] = flags.near_threshold
        return flags.rows()

    flag_rows = phase("flag", "flags", flag, FLAG_COLUMNS, held["flag"].seconds)

    def dimension():
        points = [[x0, x1, x2, t0] for t0, x0, x1, x2, *_ in flag_rows]
        if not points:
            return []
        scales = [L / 8.0, L / 16.0, L / 32.0]
        return _dimension_rows(dimension_estimate(points, scales, box_length=L))

    phase("dimension", "dimension", dimension, DIMENSION_COLUMNS)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

PLOT_KINDS = ("quantity-vs-r", "g-trace", "dimension-fit", "energy-time")


def emit_plot_data(csv_in, kind: str, csv_out) -> None:
    """Reshape a result CSV into plot-ready columns."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}")
    header, rows = read_csv(csv_in)
    if kind == "quantity-vs-r":
        names = QUANTITY_COLUMNS[5:]
        out_rows = [[np.log10(float(row[header.index("r")]))]
                    + [np.log10(max(float(row[header.index(n)]), 1e-300)) for n in names]
                    for row in rows]
        write_csv(csv_out, ["log10_r"] + ["log10_" + n for n in names], out_rows)
    elif kind == "g-trace":
        rho_idx, g_idx = header.index("r"), header.index("g")
        out_rows = [[k, float(row[rho_idx]), float(row[g_idx])]
                    for k, row in enumerate(rows)]
        write_csv(csv_out, ("k", "rho", "g"), out_rows)
    elif kind == "dimension-fit":
        kind_idx = header.index("kind")
        scale_idx, val_idx = header.index("scale"), header.index("value")
        pairs = [(np.log(1.0 / float(r[scale_idx])), np.log(float(r[val_idx])))
                 for r in rows if r[kind_idx] == "count"]
        slope = [float(r[val_idx]) for r in rows if r[kind_idx] == "slope"]
        out_rows = [["point", x, y] for x, y in pairs]
        if slope:
            out_rows.append(["fitted_slope", 0.0, slope[0]])
        write_csv(csv_out, ("kind", "log_inv_r", "log_n"), out_rows)
    else:  # energy-time
        t_idx, l_idx = header.index("t"), header.index("lhs")
        out_rows = [[float(r[t_idx]), float(r[l_idx])] for r in rows]
        write_csv(csv_out, ("t", "lhs"), out_rows)


def cmd_plot_data(args) -> int:
    emit_plot_data(args.csv_in, args.kind, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cnsflow",
        description="Chemotaxis-fluid solver and regularity diagnostics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run the solver from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_simulate)

    dp = sub.add_parser("diagnose", help="cylinder quantities / pressure split")
    dsub = dp.add_subparsers(dest="diagnose_what", required=True)
    dq = dsub.add_parser("quantities")
    dq.add_argument("--traj", required=True)
    dq.add_argument("--centers", required=True,
                    help="CSV with columns x0,x1,x2,t0")
    dq.add_argument("--radii", required=True)
    dq.add_argument("--out", required=True)
    dq.set_defaults(fn=cmd_diagnose_quantities)
    dpr = dsub.add_parser("pressure")
    dpr.add_argument("--snapshot", required=True)
    dpr.add_argument("--center", required=True)
    dpr.add_argument("--rho", required=True)
    dpr.add_argument("--config", default=None)
    dpr.add_argument("--out", required=True)
    dpr.set_defaults(fn=cmd_diagnose_pressure)

    vp = sub.add_parser("verify-lei", help="local energy inequality residual")
    vp.add_argument("--traj", required=True)
    vp.add_argument("--psi", required=True,
                    help="heat:k=3[,scale=S] or bump:r=R,span=T")
    vp.add_argument("--t", required=True)
    vp.add_argument("--center", default=None)
    vp.add_argument("--omega", default=None)
    vp.add_argument("--out", required=True)
    vp.set_defaults(fn=cmd_verify_lei)

    fp = sub.add_parser("flag", help="epsilon-criterion sweep")
    fp.add_argument("--traj", required=True)
    fp.add_argument("--grid-stride", default="8")
    fp.add_argument("--radii", required=True)
    fp.add_argument("--criterion", default="thm13",
                    choices=tuple(PAPER_THRESHOLD))
    fp.add_argument("--config", default=None)
    fp.add_argument("--out", required=True)
    fp.set_defaults(fn=cmd_flag)

    mp = sub.add_parser(
        "dimension", help="covering dimension of a flag set",
        description="Greedy covering counts and box-counting slope of the points "
                    "in a flag CSV.  The counts use no periodic wrap, because a "
                    "flag CSV carries no box length; `cnsflow pipeline` wraps at "
                    "the run's box length.")
    mp.add_argument("--flags", required=True)
    mp.add_argument("--scales", required=True,
                    help="2^-a..2^-b or comma list")
    mp.add_argument("--alpha", default="1.05")
    mp.add_argument("--out", required=True)
    mp.set_defaults(fn=cmd_dimension)

    pp = sub.add_parser("pipeline", help="simulate + diagnose + flag + dimension")
    pp.add_argument("--config", required=True)
    pp.add_argument("--out", required=True)
    pp.set_defaults(fn=cmd_pipeline)

    gp = sub.add_parser("plot-data", help="reshape result CSVs for plotting")
    gp.add_argument("--csv-in", required=True)
    gp.add_argument("--kind", required=True, choices=PLOT_KINDS)
    gp.add_argument("--out", required=True)
    gp.set_defaults(fn=cmd_plot_data)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # a pipeline phase failure is classified by the phase's own exception
        own = exc.__cause__ if isinstance(exc, PhaseError) else exc
        for types, label, code in _EXIT_CLASSES:
            if isinstance(own, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
