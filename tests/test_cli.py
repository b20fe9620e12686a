"""Command-line interface: config parsing, exit codes, subcommand round
trips, and byte-identical rerun determinism."""

import os

import numpy as np
import pytest

from cnsflow.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    config_get,
    main,
    parse_config,
    read_csv,
)

CONFIG_TEXT = """\
# short smoke-test run
grid.n = 16
grid.l = 1.0
sim.dt = 5e-4
sim.t_end = 0.01
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
pipeline.radii = 0.05,0.09
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "run.cfg"
    cfg.write_text(CONFIG_TEXT)
    return d


@pytest.fixture(scope="module")
def traj_dir(workdir):
    out = workdir / "traj"
    assert main(["simulate", "--config", str(workdir / "run.cfg"),
                 "--out", str(out)]) == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_parse_config_comments_and_namespaces(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a.b = 1  # trailing comment\n\n# full comment\nx = hi\n")
    cfg = parse_config(p)
    assert cfg == {"a.b": "1", "x": "hi"}
    with pytest.raises(ConfigError):
        config_get(cfg, "missing.key")
    assert config_get(cfg, "a.b", int) == 1
    assert config_get(cfg, "nope", float, 2.5) == 2.5


def test_parse_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this line has no equals sign\n")
    with pytest.raises(ConfigError):
        parse_config(p)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_key_exits_2(workdir, tmp_path, capsys):
    p = tmp_path / "incomplete.cfg"
    p.write_text("grid.l = 1.0\nsim.dt = 1e-3\nsim.t_end = 0.001\n")
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "grid.n" in capsys.readouterr().err


def test_malformed_pipeline_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(CONFIG_TEXT + "pipeline.flag_stride = abc\n")
    code = main(["pipeline", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "pipeline.flag_stride" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory").exists()  # failed before the run


def test_out_of_range_cylinder_exits_3(workdir, traj_dir, tmp_path, capsys):
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1,x2,t0\n0.5,0.5,0.5,0.01\n")
    code = main(["diagnose", "quantities", "--traj", str(traj_dir),
                 "--centers", str(centers), "--radii", "0.9",
                 "--out", str(tmp_path / "q.csv")])
    assert code == EXIT_NUMERIC


def test_nan_snapshot_exits_3(traj_dir, tmp_path, capsys):
    snap = sorted(traj_dir.glob("snap_*.cns"))[-1]
    data = bytearray(snap.read_bytes())
    data[24 + 8 * 5:24 + 8 * 6] = np.array([np.nan], dtype="<f8").tobytes()
    bad = tmp_path / "nan.cns"
    bad.write_bytes(bytes(data))
    code = main(["diagnose", "pressure", "--snapshot", str(bad),
                 "--center", "0.5,0.5,0.5", "--rho", "0.2",
                 "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_NUMERIC
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_unwritable_output_exits_4(workdir, traj_dir, tmp_path):
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1,x2,t0\n0.5,0.5,0.5,0.01\n")
    code = main(["diagnose", "quantities", "--traj", str(traj_dir),
                 "--centers", str(centers), "--radii", "0.05",
                 "--out", "/nonexistent-dir/q.csv"])
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# subcommand round trips
# ---------------------------------------------------------------------------

def test_diagnose_quantities_roundtrip(traj_dir, tmp_path):
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1,x2,t0\n0.5,0.5,0.5,0.01\n")
    out = tmp_path / "q.csv"
    assert main(["diagnose", "quantities", "--traj", str(traj_dir),
                 "--centers", str(centers), "--radii", "0.05,0.09",
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header[:5] == ["t0", "x0", "x1", "x2", "r"]
    assert len(rows) == 2
    assert all(np.isfinite(float(v)) for row in rows for v in row)


def test_diagnose_pressure_roundtrip(traj_dir, workdir, tmp_path):
    snap = sorted(traj_dir.glob("snap_*.cns"))[-1]
    out = tmp_path / "p.csv"
    assert main(["diagnose", "pressure", "--snapshot", str(snap),
                 "--center", "0.5,0.5,0.5", "--rho", "0.2",
                 "--config", str(workdir / "run.cfg"),
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    kinds = {r[0] for r in rows}
    assert {"identity_residual", "harmonic_relative"} <= kinds
    ident = [float(r[2]) for r in rows if r[0] == "identity_residual"][0]
    assert ident < 1e-10


def test_verify_lei_roundtrip(traj_dir, tmp_path):
    out = tmp_path / "lei.csv"
    assert main(["verify-lei", "--traj", str(traj_dir),
                 "--psi", "bump:r=0.08,span=0.004", "--t", "0.01",
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "t" and header[-1] == "residual"
    assert len(rows) == 1


def test_flag_and_dimension_roundtrip(traj_dir, tmp_path):
    flags = tmp_path / "flags.csv"
    assert main(["flag", "--traj", str(traj_dir), "--grid-stride", "8",
                 "--radii", "0.05,0.09", "--out", str(flags)]) == EXIT_OK
    header, _ = read_csv(flags)
    assert header[:4] == ["t0", "x0", "x1", "x2"]
    # dimension runs on any flag CSV, including an empty one
    dim = tmp_path / "dim.csv"
    assert main(["dimension", "--flags", str(flags),
                 "--scales", "2^-2..2^-4", "--out", str(dim)]) == EXIT_OK
    header, _ = read_csv(dim)
    assert header == ["kind", "scale", "value"]


def test_dimension_synthetic_flags(tmp_path):
    # a line of flagged points should fit slope about 1
    flags = tmp_path / "flags.csv"
    lines = ["t0,x0,x1,x2,r_star,value,working_threshold,paper_threshold,margin"]
    for x in np.linspace(0.0, 1.0, 400):
        lines.append(f"0.0,{x},0.0,0.0,0.1,1.0,0.01,0.001,100.0")
    flags.write_text("\n".join(lines) + "\n")
    out = tmp_path / "dim.csv"
    assert main(["dimension", "--flags", str(flags),
                 "--scales", "2^-2..2^-6", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    slope = [float(r[2]) for r in rows if r[0] == "slope"][0]
    assert abs(slope - 1.0) < 0.2


# ---------------------------------------------------------------------------
# pipeline and determinism
# ---------------------------------------------------------------------------

def test_pipeline_and_byte_identical_rerun(workdir, tmp_path):
    cfg = str(workdir / "run.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["pipeline", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("quantities.csv", "energy.csv", "lei.csv", "flags.csv",
                 "dimension.csv"):
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert a == b, name
        assert len(a) > 0


def test_plot_data_kinds(workdir, tmp_path):
    cfg = str(workdir / "run.cfg")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for kind, src in (("quantity-vs-r", "quantities.csv"),
                      ("g-trace", "quantities.csv"),
                      ("dimension-fit", "dimension.csv"),
                      ("energy-time", "energy.csv")):
        dst = tmp_path / f"{kind}.csv"
        assert main(["plot-data", "--csv-in", str(out / src),
                     "--kind", kind, "--out", str(dst)]) == EXIT_OK
        header, _ = read_csv(dst)
        assert header


def test_plot_data_rejects_unknown_kind(tmp_path):
    src = tmp_path / "x.csv"
    src.write_text("a,b\n1,2\n")
    with pytest.raises(SystemExit):  # argparse rejects the choice
        main(["plot-data", "--csv-in", str(src), "--kind", "bogus",
              "--out", str(tmp_path / "y.csv")])
