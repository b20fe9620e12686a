"""cnsflow benchmark: the solve, pipeline and diagnose workloads.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # all three workloads in turn

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in a fresh child process (``workload.py``)
with BLAS/OpenMP threads capped at 1 and ``CNS_THREADS`` unset, so its
peak RSS is its own.  ``--trace 0`` prints the end-to-end metrics of one
untraced child.  ``--trace 1`` runs an untraced child, then a traced one,
and prints the per-layer metrics: the spans' figures from the traced
child, the throughputs and the program's own phase times from the
untraced one, and the tracing overhead as the difference of their
median round times.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"
WORKLOADS = ("solve", "pipeline", "diagnose")
DEADLINE_S = 170.0
IMPORT_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PHASES = ("simulate", "persist", "quantities", "energy", "lei", "flag", "dimension")
RATES = {"steps_per_s": "steps/s", "cylinders_per_s": "cylinders/s",
         "flag_evals_per_s": "evals/s", "dimension_points_per_s": "points/s"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CNS_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(deadline) -> float:
    """Median import time of the program over IMPORT_PROBES fresh processes."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), "--probe-imports"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"import probe exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(times)


def run_child(workload, seed, seconds, traced, deadline) -> dict:
    work = WORK / f"{workload}-{os.getpid()}-{'traced' if traced else 'plain'}"
    argv = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--work", str(work)]
    if traced:
        RESULTS.mkdir(parents=True, exist_ok=True)
        argv += ["--traced", "--spans", str(RESULTS / f"spans-{workload}-{seed}.jsonl.gz")]
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["cnsflow"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported cnsflow from {result['cnsflow']}, not from {SRC}")
    return result


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plain, import_s) -> dict:
    return {
        "wall_s": metric(statistics.median(plain["round_wall_s"]), "s"),
        "setup_s": metric(import_s + statistics.median(plain["gen_s"]), "s"),
        "peak_rss_mb": metric(plain["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced) -> dict:
    layers = {k: metric(v, _unit(k)) for k, v in traced["layers"].items()}
    for name, unit in RATES.items():
        layers[name] = metric(plain["rates"].get(name, 0.0), unit)
    for phase in PHASES:
        layers[f"cli.phase_s.{phase}"] = metric(plain["phases"].get(phase, 0.0), "s")
    plain_wall = statistics.median(plain["round_wall_s"])
    traced_wall = statistics.median(traced["round_wall_s"])
    layers["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    layers["trace.traced_wall_s"] = metric(traced_wall, "s")
    return layers


def _unit(name) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("bytes_written", "bytes"),
                         ("bytes_read", "bytes"), ("fft_elements", "elements"),
                         ("points", "points")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    plain = run_child(workload, seed, seconds, False, deadline)
    runs = [plain]
    if trace:
        runs.append(run_child(workload, seed, seconds, True, deadline))
        metrics = per_layer(plain, runs[1])
    else:
        metrics = end_to_end(plain, import_seconds(deadline))
    print(f"workload {workload}  seed {seed}  rounds {plain['rounds']}  "
          f"attempted {plain['attempted']}  failed {plain['failed']}")
    print("  round wall times (s): " + " ".join(f"{w:.3f}" for w in plain["round_wall_s"]))
    for name, unit in RATES.items():
        if name in plain["rates"] and name not in metrics:
            print(f"  {name} = {plain['rates'][name]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, detail, fault in plain["failures"]:
        print(f"  FAILED {name}: {detail}" + (f" (known fault in {fault})" if fault else ""))
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cnsflow benchmark")
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload; all three in turn when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cnsflow" / "__init__.py").is_file():
        print(f"no cnsflow sources under {SRC}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
