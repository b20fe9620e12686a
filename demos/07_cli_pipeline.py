"""Drive the command-line interface end to end.

The `cnsflow` entry point exposes the library as subcommands:

    simulate             run the solver from a key = value config file
    diagnose quantities  cylinder quantities at chosen centers/radii
    diagnose pressure    local pressure split around a point
    verify-lei           local energy inequality residual
    flag                 epsilon-criterion sweep over a center lattice
    dimension            covering dimension of a flag CSV
    pipeline             all of the above in one deterministic run
    plot-data            reshape result CSVs into plot-ready columns

Reruns with the same config produce byte-identical CSVs (exercised below).
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O failure.
"""

import tempfile
from pathlib import Path

from cnsflow.cli import main, read_csv

CONFIG = """\
grid.n = 24
grid.l = 1.0
sim.dt = 5e-4
sim.t_end = 0.02
sim.output_stride = 5
sim.seed = 3
phys.theta0 = 1.0
phys.chi = 0.5
phys.gravity = 0.3
phys.c0_max = 1.0
init.preset = random_smooth
init.amplitude = 0.05
init.n_mean = 1.0
init.c0 = 1.0
init.modes = 2
reg.working_threshold = 1e-2
pipeline.radii = 0.06,0.12
"""

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    cfg = tmp / "run.cfg"
    cfg.write_text(CONFIG)

    for out in (tmp / "a", tmp / "b"):
        code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
        print(f"pipeline -> {out.name}: exit {code}")

    for name in ("quantities.csv", "energy.csv", "lei.csv",
                 "flags.csv", "dimension.csv"):
        same = (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()
        print(f"  {name:16s} byte-identical across reruns: {same}")

    header, rows = read_csv(tmp / "a" / "quantities.csv")
    print(f"quantities.csv: {len(rows)} rows, columns {header[:6]} ...")

    code = main(["plot-data", "--csv-in", str(tmp / "a" / "energy.csv"),
                 "--kind", "energy-time", "--out", str(tmp / "energy_plot.csv")])
    print(f"plot-data energy-time: exit {code}")

    # a deliberately broken config exits with the config code (2)
    bad = tmp / "bad.cfg"
    bad.write_text("grid.l = 1.0\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp / "x")])
    print(f"missing grid.n: exit {code} (expected 2)")
