"""Record a parent-versus-change performance comparison as one JSON file.

    python3 tools/perf_record.py --parent ../parent-checkout --out BENCH_21.json

Run from the root of the change's checkout; ``--parent`` is a checkout of
the parent commit.  It records the line count and byte size of each
tree's ``src/cnsflow/*.py``, which a setup_s difference can be read
against (the workloads' children compile that source), and two parts,
each run in fresh processes, one BLAS/OpenMP thread each:

- end to end: ``bench/run.py --trace 0`` of every workload in both trees,
  ``--pairs`` alternated pairs per workload (parent first on even pairs,
  change first on odd ones), one seed per pair; medians, quartiles
  (inclusive method) and the pairs each tree won, per metric;
- per step: for N = 32, 48, 64 and orders 1 and 2, the ms per ``advance``
  (median), its real transforms (each ``Grid`` method whose name ends in
  ``fftn``, counted in N^3 fields, full ``rfftn``/``irfftn`` apart from the
  pruned ones) and its tracemalloc peak above its inputs, for a step from
  physical arrays and, where ``advance`` takes ``hats``, a carried one;
- trajectory commands: ``diagnose quantities``, ``flag --grid-stride 8``
  and ``verify-lei`` on 64^3 trajectories of 6 and 11 snapshots (made
  by the change's ``cnsflow simulate``), each command in a fresh process
  per run, parent and change alternated: its ``ru_maxrss`` (MB) and the
  wall time of ``cli.main``, medians of COMMAND_RUNS runs, and
  whether the two trees' CSVs are byte-identical.  Every window (radii
  2h and 3h, an LEI bump of span 1.5 snapshot intervals) ends inside a
  snapshot interval, so both lengths read the same number of snapshots.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("solve", "pipeline", "diagnose")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

STEP_PROBE = r"""
import inspect, json, sys, time, tracemalloc
from cnsflow import Grid, PhysParams, SimulationConfig, initial_state
from cnsflow.solver import advance

n, order, reps = (int(a) for a in sys.argv[1:4])
params = PhysParams(theta0=1.0, chi_coeffs=(0.5,), gravity=0.5, c0_max=1.0)
cfg = SimulationConfig(grid_n=n, grid_l=1.0, dt=2e-4, seed=1,
                       init={"preset": "random_smooth", "amplitude": 0.05,
                             "n_mean": 1.0, "c0": 1.0, "modes": 2})
s = initial_state(cfg, params)
carries = "hats" in inspect.signature(advance).parameters
counts = {"full": 0, "pruned": 0}
for name in [m for m in vars(Grid) if m.endswith("fftn")]:
    def counted(grid, a, _f=getattr(Grid, name),
                _kind="full" if name in ("rfftn", "irfftn") else "pruned"):
        counts[_kind] += a[..., 0, 0, 0].size
        return _f(grid, a)
    setattr(Grid, name, counted)

def inputs(path):
    if path == "fresh":
        return (s.n, s.c, s.u), {}
    out = advance(s.grid, s.n, s.c, s.u, params, 2e-4, order)
    return out[:3], {"hats": tuple(h.copy() for h in out[4])}

result = {}
for path in ("fresh", "carried") if carries else ("fresh",):
    fields, kw = inputs(path)
    counts.update(full=0, pruned=0)
    advance(s.grid, *fields, params, 2e-4, order, **kw)
    row = {"transforms": dict(counts), "ms": []}
    for _ in range(reps):
        fields, kw = inputs(path)
        t0 = time.perf_counter()
        advance(s.grid, *fields, params, 2e-4, order, **kw)
        row["ms"].append(1e3 * (time.perf_counter() - t0))
    fields, kw = inputs(path)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    advance(s.grid, *fields, params, 2e-4, order, **kw)
    row["traced_peak_mb"] = round((tracemalloc.get_traced_memory()[1] - base) / 1e6, 2)
    tracemalloc.stop()
    result[path] = row
print(json.dumps(result))
"""


#: a 64^3 run that keeps a snapshot every 1e-3; t_end sets the count
TRAJ_CONFIG = """\
grid.n = 64
grid.l = 1.0
sim.dt = 2e-4
sim.t_end = {t_end!r}
sim.output_stride = 5
sim.seed = 7
phys.theta0 = 1.0
phys.chi = 0.5
phys.gravity = 0.5
phys.c0_max = 1.0
init.preset = random_smooth
init.amplitude = 0.05
init.n_mean = 1.0
init.c0 = 1.0
init.modes = 2
"""
TRAJ_SNAPSHOTS = (6, 11)
COMMAND_RUNS = 3

COMMAND_PROBE = r"""
import json, resource, sys, time
from cnsflow import cli

t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "wall_s": time.perf_counter() - t0,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(tree / "src")
    return env


def source_size(tree: Path) -> dict:
    files = sorted((tree / "src" / "cnsflow").glob("*.py"))
    return {"files": len(files),
            "lines": sum(len(f.read_text().splitlines()) for f in files),
            "bytes": sum(f.stat().st_size for f in files)}


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(q2, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(trees: dict, pairs: int, first_seed: int, seconds: float) -> dict:
    out = {}
    for w, workload in enumerate(WORKLOADS):
        runs = {name: [] for name in trees}
        for i in range(pairs):
            seed = first_seed + 100 * w + i
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for name in order:
                r = bench_run(trees[name], workload, seed, seconds)
                runs[name].append(r)
                print(f"{workload} pair {i} seed {seed} {name}: "
                      + " ".join(f"{m}={r['metrics'][m]['value']:.4g}" for m in METRICS),
                      file=sys.stderr, flush=True)
        row = {"seeds": f"{first_seed + 100 * w}-{first_seed + 100 * w + pairs - 1}",
               "pairs": pairs,
               "correct": {n: all(r["correct"] for r in rs) for n, rs in runs.items()},
               "operations": {n: {"attempted": sum(r["attempted"] for r in rs),
                                  "failed": sum(r["failed"] for r in rs)}
                              for n, rs in runs.items()}}
        for metric in METRICS:
            values = {n: [r["metrics"][metric]["value"] for r in rs] for n, rs in runs.items()}
            p, c = values["parent"], values["change"]
            wins = sum(b < a for a, b in zip(p, c))
            par = quartiles(p)
            row[metric] = {
                "parent": par, "change": quartiles(c),
                "change_better_in_pairs": f"{wins}/{pairs}",
                "median_change_over_parent": round(statistics.median(c) / par["median"], 4),
                "parent_iqr": round(par["q3"] - par["q1"], 4),
                "median_difference": round(par["median"] - statistics.median(c), 4),
            }
        out[workload] = row
    return out


def per_step(trees: dict) -> dict:
    out = {}
    for n, reps in ((32, 30), (48, 15), (64, 10)):
        for order in (1, 2):
            key = f"N={n} order={order}"
            out[key] = {}
            for name, tree in trees.items():
                proc = subprocess.run([sys.executable, "-c", STEP_PROBE, str(n), str(order),
                                       str(reps)], env=child_env(tree), capture_output=True,
                                      text=True, check=True)
                rows = json.loads(proc.stdout.strip().splitlines()[-1])
                for row in rows.values():
                    row["ms_median"] = round(statistics.median(row.pop("ms")), 2)
                out[key][name] = rows
                print(f"{key} {name}: {rows}", file=sys.stderr, flush=True)
    return out


def trajectory_commands(traj: Path, t_last: float, centres: Path) -> dict:
    """command -> its argv, without ``--out``, at the trajectory's last time."""
    radii, traj = "0.03125,0.046875", str(traj)
    return {
        "diagnose quantities": ["diagnose", "quantities", "--traj", traj,
                                "--centers", str(centres), "--radii", radii],
        "flag": ["flag", "--traj", traj, "--grid-stride", "8", "--radii", radii],
        "verify-lei": ["verify-lei", "--traj", traj, "--psi", "bump:r=0.05,span=0.0015",
                       "--t", repr(t_last)],
    }


def trajectory_rss(trees: dict) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for count in TRAJ_SNAPSHOTS:
            traj, cfg = work / f"traj{count}", work / f"traj{count}.cfg"
            cfg.write_text(TRAJ_CONFIG.format(t_end=(count - 1) * 1e-3))
            subprocess.run([sys.executable, "-m", "cnsflow.cli", "simulate", "--config",
                            str(cfg), "--out", str(traj)], env=child_env(trees["change"]),
                           capture_output=True, check=True)
            t_last = json.loads((traj / "trajectory.json").read_text())["times"][-1]
            centres = work / "centres.csv"
            centres.write_text("x0,x1,x2,t0\n" + "".join(
                f"{x!r},{y!r},{z!r},{t_last!r}\n"
                for x, y, z in ((0.5, 0.5, 0.5), (0.25, 0.75, 0.125))))
            for command, argv in trajectory_commands(traj, t_last, centres).items():
                key = f"{command} snapshots={count}"
                results = {name: [] for name in trees}
                for i in range(COMMAND_RUNS):
                    for name in list(trees) if i % 2 == 0 else list(trees)[::-1]:
                        proc = subprocess.run(
                            [sys.executable, "-c", COMMAND_PROBE, *argv,
                             "--out", str(work / f"{name}.csv")],
                            env=child_env(trees[name]), capture_output=True, text=True,
                            check=True)
                        results[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))
                row = {"csv_identical": (work / "parent.csv").read_bytes()
                       == (work / "change.csv").read_bytes()}
                for name, rs in results.items():
                    row[name] = {"exit": sorted({r["exit"] for r in rs}),
                                 **{m: round(statistics.median(r[m] for r in rs), 4)
                                    for m in ("peak_rss_mb", "wall_s")}}
                out[key] = row
                print(f"{key}: {row}", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--first-seed", type=int, default=2100)
    p.add_argument("--skip-end-to-end", action="store_true")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": Path.cwd().resolve()}
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu_threads_per_child": 1},
        "source": {name: source_size(tree) for name, tree in trees.items()},
        "per_step": per_step(trees),
        "trajectory_commands": {
            "command": "python3 -c COMMAND_PROBE <cnsflow argv>, one fresh process per run",
            "runs": COMMAND_RUNS,
            "rows": trajectory_rss(trees)},
    }
    if not args.skip_end_to_end:
        record["end_to_end"] = {
            "command": f"python3 bench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "workloads": end_to_end(trees, args.pairs, args.first_seed, args.seconds)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
