"""One benchmark workload in a fresh process: set-up, timed rounds, checks.

    python3 bench/workload.py --workload solve --seed 1 --seconds 25 \
        --work bench/_work/solve [--traced --spans bench/_results/spans.jsonl.gz]

``bench/run.py`` starts this script with BLAS/OpenMP threads capped at 1
and prints the metrics; this script prints one JSON object as its last
line.  Set-up (imports, then input generation repeated SETUP_REPEATS
times) is timed apart from the rounds.  A round runs the workload's
program calls once, timed, then checks their outputs, untimed.  Rounds
repeat until ``--seconds`` have passed; every round makes the same
operations, so the share of failed operations does not depend on the run
length.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cnsflow  # noqa: E402
from cnsflow import cli, diagnostics, grid_fields, solver, state  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPEATS = 3
#: pipeline phase -> the program functions that do its work, for the
#: cross-check of the manifest's phase times against the spans
PHASE_FUNCTIONS = {
    "simulate": {"solver.simulate"},
    "persist": {"snapshot.write_trajectory"},
    "quantities": {"diagnostics.compute_quantities"},
    "energy": {"energy.global_energy_check"},
    "lei": {"energy.lei_residual"},
    "flag": {"regularity.flag_sweep"},
    "dimension": {"hausdorff.dimension_estimate"},
}


class Ops:
    """Operations of a run: program calls and correctness checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = []  # (name, detail, known fault or None)

    def call(self, name, fn):
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # a failing program call is a failed operation
            self.failed.append((name, f"{type(exc).__name__}: {exc}", None))
            return None
        if isinstance(result, int) and result != 0:
            self.failed.append((name, f"exit code {result}", None))
        return result

    def check(self, name, fn, known_fault=None):
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed.append((name, detail, known_fault))

    @contextmanager
    def checking(self):
        """Checks are the benchmark's work, not the program's: untraced."""
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True


def _field_checks(ops, snaps, box_length):
    """Mass, divergence and bounds of the states; each check reads its
    inputs inside, so missing outputs fail the check, not the run."""
    ops.check("mass", lambda: checks.check_mass(
        [s["n"] for s in snaps], (box_length / snaps[0]["N"]) ** 3))
    ops.check("divergence", lambda: checks.check_divergence(
        [s["u"] for s in snaps], box_length))
    ops.check("bounds", lambda: checks.check_bounds(snaps, inputs.PHYSICS["phys.c0_max"]))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def setup_solve(seed, work):
    return inputs.solve_config(seed)


def round_solve(inp, ops, work):
    cfg, params = inp
    t0 = time.perf_counter()
    traj = ops.call("simulate", lambda: solver.simulate(cfg, params=params))
    wall = time.perf_counter() - t0
    with ops.checking():
        snaps = [{"N": s.grid.n, "L": s.grid.box_length, "t": s.time, "n": s.n,
                  "c": s.c, "u": s.u, "p": s.p} for s in (traj.states if traj else [])]
        _field_checks(ops, snaps, cfg.grid_l)
        ops.check("pressure", lambda: checks.check_pressure(
            snaps[-1]["p"], checks.poisson_pressure(snaps[-1]["n"], snaps[-1]["u"],
                                                    cfg.grid_l, params.gravity)))
    steps = int(round(cfg.t_end / cfg.dt))
    return {"wall_s": wall, "rates": {"steps_per_s": steps / wall}}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def setup_pipeline(seed, work):
    work.mkdir(parents=True, exist_ok=True)
    path = work / "pipeline.cfg"
    path.write_text(inputs.pipeline_config(seed))
    return path


def round_pipeline(cfg_path, ops, work):
    out = work / "run"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    ops.call("pipeline", lambda: cli.main(["pipeline", "--config", str(cfg_path),
                                           "--out", str(out)]))
    wall = time.perf_counter() - t0
    phases = {}
    with ops.checking():
        snaps = [checks.read_cns1(p) for p in sorted((out / "trajectory").glob("snap_*.cns"))]
        _field_checks(ops, snaps, 1.0)
        ops.check("combined_sums", lambda: checks.check_combined(
            checks.csv_records(out / "quantities.csv")))

        def c_u_check():
            quantities = checks.csv_records(out / "quantities.csv")
            for rec in quantities:
                ref = checks.velocity_quantities(
                    snaps, (rec["x0"], rec["x1"], rec["x2"]), rec["t0"], rec["r"])
                ok, detail = checks.check_close("c_u", rec["c_u"], ref["c_u"])
                if not ok:
                    return ok, detail
            return True, f"c_u of {len(quantities)} cylinders within 2%"

        ops.check("c_u_quadrature", c_u_check)
        ops.check("lei", lambda: checks.lei_check(checks.csv_records(out / "lei.csv")[0]))
        ops.check("flag_rows", lambda: checks.check_flag_rows(
            checks.csv_records(out / "flags.csv")))
        centres = (inputs.PIPE_N // inputs.PIPE_FLAG_STRIDE) ** 3
        ops.check("flagged_share", lambda: checks.check_flagged_share(
            len(checks.csv_records(out / "flags.csv")), centres))
        ops.check("covering_counts", lambda: checks.check_counts_monotone(
            checks.csv_records(out / "dimension.csv")))
        manifest = out / "manifest.json"
        if manifest.exists():
            phases = json.loads(manifest.read_text())["phase_seconds"]
    rates = {}
    if phases:
        rates = {
            "steps_per_s": inputs.PIPE_STEPS / phases["simulate"],
            "cylinders_per_s": len(inputs.PIPE_RADII) / phases["quantities"],
            "flag_evals_per_s": centres * len(inputs.PIPE_RADII) / phases["flag"],
            "dimension_points_per_s":
                len(checks.csv_records(out / "flags.csv")) / phases["dimension"],
        }
    return {"wall_s": wall, "phases": phases, "rates": rates}


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _constant_trajectory(n, box_length, radius):
    grid = grid_fields.Grid(n, box_length)
    shape = (n,) * 3
    u = np.stack([np.full(shape, v) for v in (1.0, 0.5, -0.25)])
    states = [state.State(grid, np.full(shape, 2.0), np.full(shape, 0.5), u,
                          np.full(shape, 0.3), t) for t in (-radius**2, 0.0)]
    return state.Trajectory(states)


def setup_diagnose(seed, work):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inp = inputs.diagnose_inputs(seed)
    cfg = work / "diagnose.cfg"
    cfg.write_text(inputs.config_text(inp["entries"]))
    traj = work / "traj"
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(traj)])
    if code != 0:
        raise RuntimeError(f"set-up simulate exited with {code}")
    snap_paths = sorted(traj.glob("snap_*.cns"))
    snaps = [checks.read_cns1(p) for p in snap_paths]
    # a working threshold at the median of the thm13 values flags about half
    # of the thm13 centres (and every thm16i centre, whose values are larger)
    thm13 = checks.thm13_lattice(snaps, snaps[-1]["t"], inputs.DIAG_RADII,
                                 inputs.DIAG_FLAG_STRIDE[0], inputs.DELTA0)
    threshold = float(np.median(thm13))
    cfg.write_text(inputs.config_text({**inp["entries"],
                                       "reg.working_threshold": repr(threshold)}))
    centres = work / "centres.csv"
    centres.write_text(inputs.centres_csv_text(inp["centres"], inp["t_last"]))
    for name in ("curve", "segment"):
        (work / f"{name}.csv").write_text(inputs.flags_csv_text(inp[name]))
    symmetry = [(n, box, r, _constant_trajectory(n, box, r), inputs.symmetry_centres(n, box))
                for n, box, r in inputs.SYMMETRY_CASES]
    return {"cfg": cfg, "traj": traj, "centres": centres, "t_last": inp["t_last"],
            "snaps": snaps, "last_snap": snap_paths[-1], "thm13": thm13,
            "threshold": threshold,
            "pressure_centre": inp["pressure_centre"], "lei_centre": inp["lei_centre"],
            "symmetry": symmetry}


def _csv_floats(values):
    return ",".join(repr(float(v)) for v in values)


def round_diagnose(inp, ops, work):
    out = work / "round"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    traj, cfg = str(inp["traj"]), str(inp["cfg"])
    radii = _csv_floats(inputs.DIAG_RADII)
    bump_r, bump_span = inputs.DIAG_BUMP
    commands = {
        "quantities": ["diagnose", "quantities", "--traj", traj, "--centers",
                       str(inp["centres"]), "--radii", radii, "--out", str(out / "q.csv")],
        "flag_thm13": ["flag", "--traj", traj, "--grid-stride", str(inputs.DIAG_FLAG_STRIDE[0]),
                       "--radii", radii, "--criterion", "thm13", "--config", cfg,
                       "--out", str(out / "f13.csv")],
        "flag_thm16i": ["flag", "--traj", traj, "--grid-stride", str(inputs.DIAG_FLAG_STRIDE[1]),
                        "--radii", radii, "--criterion", "thm16i", "--config", cfg,
                        "--out", str(out / "f16.csv")],
        "verify_lei": ["verify-lei", "--traj", traj, "--psi",
                       f"bump:r={bump_r!r},span={bump_span!r}", "--t", repr(inp["t_last"]),
                       "--center", _csv_floats(inp["lei_centre"]), "--omega", "0.25",
                       "--out", str(out / "lei.csv")],
        "pressure": ["diagnose", "pressure", "--snapshot", str(inp["last_snap"]),
                     "--center", _csv_floats(inp["pressure_centre"]),
                     "--rho", repr(inputs.DIAG_PRESSURE_RHO), "--config", cfg,
                     "--out", str(out / "p.csv")],
        "dimension_curve": ["dimension", "--flags", str(work / "curve.csv"), "--scales",
                            inputs.CURVE_SCALES, "--out", str(out / "dim_curve.csv")],
        "dimension_segment": ["dimension", "--flags", str(work / "segment.csv"), "--scales",
                              inputs.SEGMENT_SCALES, "--out", str(out / "dim_segment.csv")],
    }
    timings = {}
    for name, argv in commands.items():
        t0 = time.perf_counter()
        ops.call(name, lambda argv=argv: cli.main(argv))
        timings[name] = time.perf_counter() - t0
    with ops.checking():
        def quadrature():
            quantities = checks.csv_records(out / "q.csv")
            for rec in quantities:
                ref = checks.velocity_quantities(
                    inp["snaps"], (rec["x0"], rec["x1"], rec["x2"]), rec["t0"], rec["r"])
                for name in ("a_u", "c_u"):
                    ok, detail = checks.check_close(name, rec[name], ref[name])
                    if not ok:
                        return ok, detail
            return True, f"a_u and c_u of {len(quantities)} cylinders within 2%"

        ops.check("quantities_quadrature", quadrature)
        ops.check("flag_rows", lambda: checks.check_flag_rows(
            checks.csv_records(out / "f13.csv") + checks.csv_records(out / "f16.csv")))
        ops.check("flag_set_thm13", lambda: checks.check_flag_set(
            checks.csv_records(out / "f13.csv"), inp["thm13"], inp["threshold"],
            inputs.DIAG_FLAG_STRIDE[0] / inputs.DIAG_N))
        ops.check("lei", lambda: checks.lei_check(checks.csv_records(out / "lei.csv")[0]))
        ops.check("pressure_identity", lambda: checks.check_limit(
            checks.csv_records(out / "p.csv"), "identity_residual", 1e-6))
        ops.check("pressure_harmonic", lambda: checks.check_limit(
            checks.csv_records(out / "p.csv"), "harmonic_relative", 1e-4))
        ops.check("slope_curve", lambda: checks.check_slope(
            checks.csv_records(out / "dim_curve.csv"), 1.0, 0.15))
        ops.check("slope_segment", lambda: checks.check_slope(
            checks.csv_records(out / "dim_segment.csv"), 2.0, 0.2))
        for n, _, r, const_traj, centres in inp["symmetry"]:
            ops.check(f"ball_symmetry_N{n}",
                      lambda t=const_traj, c=centres, r=r: _symmetry(t, c, r),
                      known_fault="grid_fields.ball_mask")
    n_cyl = len(inputs.DIAG_RADII) * inputs.DIAG_LATTICE**3
    evals = sum((inputs.DIAG_N // s) ** 3 * k for s, k in
                zip(inputs.DIAG_FLAG_STRIDE, (len(inputs.DIAG_RADII), 1)))
    rates = {
        "cylinders_per_s": n_cyl / timings["quantities"],
        "flag_evals_per_s": evals / (timings["flag_thm13"] + timings["flag_thm16i"]),
        "dimension_points_per_s": 2 * inputs.DIM_POINTS
        / (timings["dimension_curve"] + timings["dimension_segment"]),
    }
    return {"wall_s": sum(timings.values()), "rates": rates}


def _symmetry(traj, centres, radius):
    """Cylinder quantities of a constant field at grid-point centres."""
    rows = []
    for x in centres:
        q = diagnostics.compute_quantities(traj, grid_fields.ParabolicCylinder(x, 0.0, radius))
        rows.append({k: v for k, v in q.as_dict().items()
                     if k not in ("r", "center_x", "center_t")})
    return checks.check_identical(rows)


WORKLOADS = {
    "solve": (setup_solve, round_solve),
    "pipeline": (setup_pipeline, round_pipeline),
    "diagnose": (setup_diagnose, round_diagnose),
}


# ---------------------------------------------------------------------------
# per-layer figures of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer, rounds) -> dict:
    idx = tracing.SpanIndex(tracer.spans)
    per = 1.0 / len(rounds)

    def calls(*names):
        return len(idx.named(set(names))) * per

    def ms(*names):
        return idx.outer_time(set(names)) * 1e3 * per

    steps = [s[5] - s[4] for s in idx.named({"solver.step"})]
    inits = [s[5] - s[4] for s in idx.named({"solver.initial_state"})]
    ffts = [s for s in tracer.spans if s[2] == "fft"]
    cyl = ("grid_fields.cylinder_time_integral", "grid_fields.sup_over_time")
    m = {
        "solver.step_ms": statistics.median(steps) * 1e3 if steps else 0.0,
        "solver.steps": len(steps) * per,
        "solver.fft_per_step": idx.count_under("fft", "solver.step") / len(steps) if steps else 0.0,
        "solver.initial_state_s": statistics.mean(inits) if inits else 0.0,
        "pressure.solve_pressure_ms": ms("pressure.solve_pressure"),
        "pressure.solve_pressure_calls": calls("pressure.solve_pressure"),
        "pressure.decompose_local_ms": ms("pressure.decompose_local"),
        "pressure.harmonic_residual_ms": ms("pressure.harmonic_residual"),
        "pressure.eval_field_points": tracer.counts["pressure.eval_field_points"] * per,
        "pressure.eval_field_ms": ms("pressure.eval_field_at"),
        "grid_fields.fft_calls": len(ffts) * per,
        "grid_fields.fft_elements": tracer.counts["fft.elements"] * per,
        "grid_fields.fft_s": sum(s[5] - s[4] for s in ffts) * per,
        "grid_fields.ball_mask_calls": calls("grid_fields.ball_mask"),
        "grid_fields.ball_mask_ms": ms("grid_fields.ball_mask"),
        "grid_fields.cylinder_integral_calls": calls(*cyl),
        "grid_fields.cylinder_integral_ms": ms(*cyl),
        "state.derived_calls": calls("state.State.derived"),
        "state.derived_ms": ms("state.State.derived"),
        "diagnostics.compute_quantities_calls": calls("diagnostics.compute_quantities"),
        "diagnostics.compute_quantities_ms": ms("diagnostics.compute_quantities"),
        "regularity.flag_sweep_ms": ms("regularity.flag_sweep"),
        "regularity.flag_evals": tracer.counts["regularity.flag_evals"] * per,
        "regularity.flagged": tracer.counts["regularity.flagged"] * per,
        "energy.lei_residual_ms": ms("energy.lei_residual"),
        "energy.global_energy_check_ms": ms("energy.global_energy_check"),
        "hausdorff.dimension_estimate_ms": ms("hausdorff.dimension_estimate"),
        "hausdorff.points": tracer.counts["hausdorff.points"] * per,
        "snapshot.bytes_written": tracer.counts["snapshot.bytes_written"] * per,
        "snapshot.write_ms": ms("snapshot.write_snapshot", "snapshot.write_trajectory"),
        "snapshot.bytes_read": tracer.counts["snapshot.bytes_read"] * per,
        "snapshot.read_ms": ms("snapshot.read_snapshot", "snapshot.read_trajectory"),
    }
    for layer in tracing.LAYERS:
        own = [s for s in tracer.spans if s[2] == layer]
        m[f"{layer}.self_s"] = sum(s[6] for s in own) * per
        m[f"{layer}.rss_growth_mb"] = sum(s[7] for s in own) / 1024.0
    m["trace.spans"] = len(tracer.spans) * per
    gaps = [0.0]
    for phase, names in PHASE_FUNCTIONS.items():
        total = sum(r.get("phases", {}).get(phase, 0.0) for r in rounds)
        if total:
            gaps.append(abs(total - idx.outer_time(names)) * 1e3 * per)
    m["cli.phase_span_gap_ms"] = max(gaps)
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe-imports", action="store_true",
                   help="print the import time of this process and stop")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--work")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = p.parse_args(argv)
    if args.probe_imports:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0

    setup, run_round = WORKLOADS[args.workload]
    work = Path(args.work)
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = setup(args.seed, work)
        gen_s.append(time.perf_counter() - t0)

    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    ops = Ops(tracer)
    rounds = []
    t_run = time.perf_counter()
    while not rounds or time.perf_counter() - t_run < args.seconds:
        rounds.append(run_round(inp, ops, work))

    def median_of(key):
        keys = sorted({k for r in rounds for k in r.get(key, {})})
        return {k: statistics.median(r[key][k] for r in rounds if k in r.get(key, {}))
                for k in keys}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cnsflow": cnsflow.__file__,
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "import_s": IMPORT_S,
        "gen_s": gen_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "failures": sorted({(n, d, k) for n, d, k in ops.failed}),
        "correct": all(k is not None for _, _, k in ops.failed),
        "rates": median_of("rates"),
        "phases": median_of("phases"),
    }
    if tracer is not None:
        tracer.enabled = False
        result["layers"] = layer_metrics(tracer, rounds)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
