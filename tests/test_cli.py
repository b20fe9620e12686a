"""Command-line interface: config parsing, exit codes, subcommand round
trips, and byte-identical rerun determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnsflow import PhysParams, RegularityConfig, SimulationConfig, cli, snapshot
from cnsflow.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    LEI_COLUMNS,
    ConfigError,
    _parse_psi,
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

def test_package_and_cli_import_without_scipy():
    """The package never imports scipy: importing scipy.fft alone raised the
    setup time of a 64^3 solve from about 0.2 s to 0.5 s.  Checked in a
    fresh interpreter, since the tests themselves import scipy."""
    code = ("import sys, cnsflow, cnsflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_parse_config_comments_and_namespaces(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a.b = 1  # trailing comment\n\n# full comment\nx = hi\n")
    cfg = parse_config(p)
    assert cfg == {"a.b": "1", "x": "hi"}
    with pytest.raises(ConfigError):
        config_get(cfg, "missing.key")
    assert config_get(cfg, "a.b", int) == 1


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


@pytest.mark.parametrize("key, value", [("sim.dt", "0"), ("sim.dt", "-0.001"),
                                        ("sim.output_stride", "0"), ("sim.order", "3"),
                                        ("init.modes", "2.5"), ("init.amplitude", "abc")])
def test_bad_run_parameter_exits_2_before_any_snapshot(tmp_path, capsys, key, value):
    p = tmp_path / "bad.cfg"
    p.write_text(CONFIG_TEXT + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
    assert key.split(".")[1] in capsys.readouterr().err
    assert not out.exists()


def test_required_keys_alone_build_the_dataclass_defaults():
    """A config of the required keys alone sets nothing else: every other
    field is its dataclass's default."""
    cfg = {"grid.n": "12", "grid.l": "2.0", "sim.dt": "0.002", "sim.t_end": "0.5"}
    assert set(cfg) == set(cli.REQUIRED_KEYS)
    sim, params = cli.build_sim_config(cfg)
    assert sim == SimulationConfig(grid_n=12, grid_l=2.0, dt=0.002, t_end=0.5)
    assert params == PhysParams()
    assert cli.build_reg_config(cfg) == RegularityConfig()
    for key in cfg:
        with pytest.raises(ConfigError, match=key):
            cli.build_sim_config({k: v for k, v in cfg.items() if k != key})


def test_every_config_key_reaches_its_field():
    """Each key, set to a value other than its default, arrives at its
    field parsed by its type; an unset phys.c0_max is init.c0."""
    cfg = {"grid.n": "12", "grid.l": "2.0", "sim.dt": "0.002", "sim.t_end": "0.5",
           "sim.output_stride": "3", "sim.seed": "7", "sim.order": "2",
           "phys.theta0": "2.0", "phys.chi": "0.5,0.25", "phys.gravity": "0.3",
           "phys.c0_max": "3.0",
           "init.preset": "gaussian", "init.amplitude": "0.2", "init.width": "0.1",
           "init.c0": "2.0", "init.modes": "3", "init.n_mean": "0.7",
           "init.path": "snap.cns",
           "reg.delta0": "0.08", "reg.eps1": "0.5",
           "reg.working_threshold": "0.5",
           "pipeline.flag_stride": "2", "pipeline.radii": "0.1,0.2"}
    assert set(cfg) == cli.CONFIG_KEYS
    sim, params = cli.build_sim_config(cfg)
    assert sim == SimulationConfig(
        grid_n=12, grid_l=2.0, dt=0.002, t_end=0.5, output_stride=3, seed=7, order=2,
        init={"preset": "gaussian", "amplitude": 0.2, "width": 0.1, "c0": 2.0,
              "modes": 3, "n_mean": 0.7, "path": "snap.cns"})
    assert type(sim.init["modes"]) is int
    assert params == PhysParams(theta0=2.0, chi_coeffs=(0.5, 0.25), gravity=0.3,
                                c0_max=3.0)
    assert cli.build_reg_config(cfg) == RegularityConfig(
        delta0=0.08, eps1=0.5, working_threshold=0.5)
    assert cli._fields_of(cfg, "pipeline") == {"flag_stride": 2, "radii": (0.1, 0.2)}
    del cfg["phys.c0_max"]
    assert cli.build_sim_config(cfg)[1].c0_max == 2.0


@pytest.mark.parametrize("line", ["sim.output_strid = 2", "init.mdoes = 3"])
def test_misspelt_config_key_exits_2_before_any_snapshot(tmp_path, capsys, line):
    p = tmp_path / "typo.cfg"
    p.write_text(CONFIG_TEXT + line + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_config_key_fails_pipeline_and_flag(traj_dir, tmp_path, capsys):
    """A misspelt key fails every command that reads a config; a full run
    config, whose keys the flag command does not all read, still works."""
    p = tmp_path / "typo.cfg"
    p.write_text(CONFIG_TEXT + "reg.working_treshold = 5\n")
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
    assert "reg.working_treshold" in capsys.readouterr().err
    assert not out.exists()
    flag = ["flag", "--traj", str(traj_dir), "--radii", "0.05", "--grid-stride", "8",
            "--out", str(tmp_path / "f.csv"), "--config"]
    assert main(flag + [str(p)]) == EXIT_CONFIG
    assert not (tmp_path / "f.csv").exists()
    full = tmp_path / "run.cfg"
    full.write_text(CONFIG_TEXT + "sim.order = 1\npipeline.flag_stride = 4\n")
    assert main(flag + [str(full)]) == EXIT_OK


def test_malformed_pipeline_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(CONFIG_TEXT + "pipeline.flag_stride = abc\n")
    code = main(["pipeline", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "pipeline.flag_stride" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory").exists()  # failed before the run


@pytest.mark.parametrize("old, new, key", [
    # r = 0.11: the window r^2 = 0.0121 is longer than the span 0.01
    ("pipeline.radii = 0.05,0.09", "pipeline.radii = 0.05,0.11", "pipeline.radii"),
    # 2r > L/2
    ("pipeline.radii = 0.05,0.09", "pipeline.radii = 0.3", "pipeline.radii"),
    # no step: the default radii are 0, whose windows overlap no interval
    ("sim.t_end = 0.01\n", "sim.t_end = 0.0\n", "sim.t_end"),
])
def test_unfit_plan_exits_2_before_the_first_step(tmp_path, capsys, old, new, key):
    """A cylinder that cannot fit the planned grid or span fails the
    pipeline before its first step, naming the key, and writes nothing."""
    text = CONFIG_TEXT.replace(old, new)
    if key == "sim.t_end":
        text = text.replace("pipeline.radii = 0.05,0.09\n", "")
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: phase 'quantities'"), err
    assert not out.exists()


def test_restart_plan_spans_from_the_snapshot_time(traj_dir, tmp_path, capsys):
    """A restart's plan starts at its snapshot's time (0.0025): r = 0.09
    needs a span of 0.0081 and the restart has 0.0075, so the pipeline
    exits 2 before any step; r = 0.08 fits and the run completes."""
    snap = sorted(traj_dir.glob("snap_*.cns"))[1]
    text = CONFIG_TEXT.replace("init.preset = random_smooth",
                               f"init.preset = restart\ninit.path = {snap}")
    for radii, code in (("0.05,0.09", EXIT_CONFIG), ("0.05,0.08", EXIT_OK)):
        cfg = tmp_path / f"restart_{radii}.cfg"
        cfg.write_text(text.replace("pipeline.radii = 0.05,0.09", f"pipeline.radii = {radii}"))
        out = tmp_path / radii
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)
    assert "pipeline.radii: phase 'quantities' would fail" in capsys.readouterr().err


def test_pipeline_phase_exits_with_its_exception_code(workdir, traj_dir, tmp_path,
                                                      capsys):
    """A negative radius is a config error (2) in the pipeline's quantities
    phase as in the standalone subcommands, and stderr names the phase."""
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(CONFIG_TEXT.replace("pipeline.radii = 0.05,0.09",
                                       "pipeline.radii = -0.05,0.09"))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "phase 'quantities'" in err
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1,x2,t0\n0.5,0.5,0.5,0.01\n")
    assert main(["diagnose", "quantities", "--traj", str(traj_dir), "--centers",
                 str(centers), "--radii=-0.05,0.09",
                 "--out", str(tmp_path / "q.csv")]) == EXIT_CONFIG
    assert main(["flag", "--traj", str(traj_dir), "--radii=-0.05",
                 "--out", str(tmp_path / "f.csv")]) == EXIT_CONFIG


@pytest.mark.parametrize("stride", ["0", "-4"])
def test_non_positive_grid_stride_exits_2(traj_dir, tmp_path, stride):
    assert main(["flag", "--traj", str(traj_dir), f"--grid-stride={stride}",
                 "--radii", "0.05", "--out", str(tmp_path / "f.csv")]) == EXIT_CONFIG


@pytest.mark.parametrize("center", ["0.51,0.52", "0.5,0.5", "0.5,0.5,0.5,0.5"])
def test_centre_of_other_than_three_values_exits_2(traj_dir, tmp_path, capsys, center):
    """verify-lei and diagnose pressure take a centre of exactly three
    coordinates; any other count exits 2 and writes no CSV."""
    snap = sorted(traj_dir.glob("snap_*.cns"))[-1]
    out = tmp_path / "out.csv"
    for argv in (["verify-lei", "--traj", str(traj_dir), "--psi", "bump:r=0.08,span=0.004",
                  "--t", "0.01"],
                 ["diagnose", "pressure", "--snapshot", str(snap), "--rho", "0.2"]):
        capsys.readouterr()
        assert main(argv + ["--center", center, "--out", str(out)]) == EXIT_CONFIG
        assert "exactly three" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("psi, message", [("bump:rr=0.1", "no option 'rr'"),
                                          ("heat:k=3,scle=9", "no option 'scle'"),
                                          ("heat:k=3.7", "k must be an integer"),
                                          ("heat:k=3,scale=nan", "scale must be positive, got nan")])
def test_unknown_or_fractional_psi_option_exits_2(traj_dir, tmp_path, capsys, psi, message):
    """An option a test function does not take, a fractional heat level
    or a NaN scale exits 2 naming it, and writes no CSV."""
    out = tmp_path / "lei.csv"
    capsys.readouterr()
    assert main(["verify-lei", "--traj", str(traj_dir), "--psi", psi, "--t", "0.01",
                 "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_psi_specs_set_their_options():
    heat = _parse_psi("heat:k=3,scale=2", 1.0)
    assert (heat.kind, heat.level, heat.scale) == ("heat_kernel", 3, 2.0)
    assert _parse_psi("heat:k=4.0", 1.0).level == 4
    bump = _parse_psi("bump:r=0.1,span=0.01", 1.0)
    assert (bump.kind, bump.support_radius, bump.support_time) == ("smooth_bump", 0.1, 0.01)


@pytest.mark.parametrize("command, radius", [
    ("pressure", "-0.2"), ("pressure", "0"), ("pressure", "nan"),
    ("flag", "nan"), ("quantities", "nan")])
def test_non_positive_or_nan_radius_exits_2(traj_dir, tmp_path, capsys, command, radius):
    """A radius that is not > 0 (a negative, zero or NaN --rho, a NaN in
    --radii) exits 2 naming the radius, and writes no CSV."""
    snap = sorted(traj_dir.glob("snap_*.cns"))[-1]
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1,x2,t0\n0.5,0.5,0.5,0.01\n")
    argv = {
        "pressure": ["diagnose", "pressure", "--snapshot", str(snap),
                     "--center", "0.5,0.5,0.5", "--rho"],
        "flag": ["flag", "--traj", str(traj_dir), "--grid-stride", "4", "--radii"],
        "quantities": ["diagnose", "quantities", "--traj", str(traj_dir),
                       "--centers", str(centers), "--radii"],
    }[command]
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(argv + [radius, "--out", str(out)]) == EXIT_CONFIG
    assert f"got {float(radius)}" in capsys.readouterr().err
    assert not out.exists()


FLAG_HEADER = "t0,x0,x1,x2,r_star,value,working_threshold,paper_threshold,margin\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_points_exit_2(traj_dir, tmp_path, capsys, bad):
    """Centres and flag CSVs come from outside the program: a non-finite
    coordinate is a config error that names the file."""
    flags = tmp_path / "flags.csv"
    flags.write_text(FLAG_HEADER + "0.0,0.1,0.2,0.3,0.1,1.0,0.5,0.5,2.0\n"
                     f"{bad},0.4,0.5,0.6,0.1,1.0,0.5,0.5,2.0\n"
                     "0.01,0.7,0.8,0.9,0.1,1.0,0.5,0.5,2.0\n")
    capsys.readouterr()
    assert main(["dimension", "--flags", str(flags), "--scales", "2^-2..2^-4",
                 "--out", str(tmp_path / "d.csv")]) == EXIT_CONFIG
    assert str(flags) in capsys.readouterr().err
    centers = tmp_path / "centers.csv"
    centers.write_text(f"x0,x1,x2,t0\n0.5,{bad},0.5,0.01\n")
    assert main(["diagnose", "quantities", "--traj", str(traj_dir), "--centers",
                 str(centers), "--radii", "0.05", "--out", str(tmp_path / "q.csv")]) \
        == EXIT_CONFIG
    assert str(centers) in capsys.readouterr().err


def test_out_of_range_cylinder_exits_3(workdir, traj_dir, tmp_path, capsys):
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1,x2,t0\n0.5,0.5,0.5,0.01\n")
    code = main(["diagnose", "quantities", "--traj", str(traj_dir),
                 "--centers", str(centers), "--radii", "0.9",
                 "--out", str(tmp_path / "q.csv")])
    assert code == EXIT_NUMERIC
    # whole-grid flag maps: a ball wider than L/4, a window longer than
    # the recorded span
    for radius in ("0.3", "0.15"):
        code = main(["flag", "--traj", str(traj_dir), "--grid-stride", "2",
                     "--radii", radius, "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_NUMERIC
    # the test function's time support reaches before the first snapshot
    code = main(["verify-lei", "--traj", str(traj_dir),
                 "--psi", "bump:r=0.08,span=0.02", "--t", "0.01",
                 "--out", str(tmp_path / "lei.csv")])
    assert code == EXIT_NUMERIC
    # a NaN time lies in no recorded span
    code = main(["verify-lei", "--traj", str(traj_dir),
                 "--psi", "bump:r=0.08,span=0.004", "--t", "nan",
                 "--out", str(tmp_path / "lei.csv")])
    assert code == EXIT_NUMERIC
    assert not (tmp_path / "lei.csv").exists()


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


@pytest.fixture(scope="module")
def seven_snap_dir(workdir):
    """The smoke-test run to t = 0.015: 7 snapshots, 0.0025 apart."""
    cfg = workdir / "seven.cfg"
    cfg.write_text(CONFIG_TEXT.replace("sim.t_end = 0.01", "sim.t_end = 0.015"))
    out = workdir / "seven"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("snap_*.cns"))) == 7
    return out


def _analysis_argv(command, traj, out):
    """One analysis subcommand on ``traj`` at its last time, t = 0.015.
    Its radii (r^2 <= 0.002025) and the LEI bump's span (0.004) reach
    back into the last one and the last two snapshot intervals."""
    centers = out.with_name("centers.csv")
    centers.write_text("x0,x1,x2,t0\n0.5,0.25,0.75,0.015\n")
    traj, out = str(traj), str(out)
    return {
        "quantities": ["diagnose", "quantities", "--traj", traj, "--centers", str(centers),
                       "--radii", "0.03,0.045", "--out", out],
        "flag_thm13": ["flag", "--traj", traj, "--grid-stride", "8", "--radii",
                       "0.03,0.045", "--criterion", "thm13", "--out", out],
        "flag_thm16i": ["flag", "--traj", traj, "--grid-stride", "8", "--radii",
                        "0.03,0.045", "--criterion", "thm16i", "--out", out],
        "verify_lei": ["verify-lei", "--traj", traj, "--psi", "bump:r=0.08,span=0.004",
                       "--t", "0.015", "--out", out],
    }[command]


#: the snapshots each command reads: its window and, for the LEI's c0max,
#: snapshot 0
WINDOW_READS = {"quantities": [5, 6], "flag_thm13": [5, 6], "flag_thm16i": [5, 6],
                "verify_lei": [0, 4, 5, 6]}


@pytest.mark.parametrize("command", list(WINDOW_READS))
def test_analysis_reads_only_its_window(seven_snap_dir, tmp_path, monkeypatch, command):
    """A trajectory subcommand reads each snapshot its window needs once,
    and no other: opening the trajectory checks every snapshot but keeps
    none."""
    reads = []
    real = snapshot.read_snapshot

    def counted(path, grid=None):
        reads.append(int(Path(path).stem.split("_")[1]))
        return real(path, grid)

    monkeypatch.setattr(snapshot, "read_snapshot", counted)
    out = tmp_path / "out.csv"
    assert main(_analysis_argv(command, seven_snap_dir, out)) == EXIT_OK
    assert sorted(reads) == WINDOW_READS[command]
    assert out.exists()


def _damaged_copy(src, dst, index, damage):
    shutil.copytree(src, dst)
    path = dst / f"snap_{index:06d}.cns"
    good = path.read_bytes()
    nan_at = 24 + 8 * (2 * 16**3 + 5)  # a cell of u_0
    path.write_bytes({
        "bad_magic": b"XXXX" + good[4:],
        "truncated": good[:-8],
        "trailing_bytes": good + b"\x00" * 8,
        "corrupt_n": good[:4] + (2**21).to_bytes(4, "little") + good[8:],
        "nan": good[:nan_at] + np.array([np.nan], dtype="<f8").tobytes() + good[nan_at + 8:],
    }[damage])
    return dst


@pytest.mark.parametrize("command", list(WINDOW_READS))
@pytest.mark.parametrize("damage, code, message", [
    ("bad_magic", EXIT_CONFIG, "bad magic"),
    ("truncated", EXIT_CONFIG, "truncated or overlong"),
    ("trailing_bytes", EXIT_CONFIG, "truncated or overlong"),
    ("corrupt_n", EXIT_CONFIG, "truncated or overlong"),
    ("nan", EXIT_NUMERIC, "u has 1 non-finite entries"),
])
def test_damaged_snapshot_outside_every_window_fails_at_open(
        seven_snap_dir, tmp_path, monkeypatch, capsys, command, damage, code, message):
    """Snapshot 1 lies in no command's window, yet a damaged one fails the
    command when the trajectory is opened, with its exit code and message
    and no CSV.  A damaged header or file length is found before any
    array is read."""
    traj = _damaged_copy(seven_snap_dir, tmp_path / "traj", 1, damage)
    arrays = []
    real = np.fromfile

    def counted(*args, **kwargs):
        arrays.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "fromfile", counted)
    out = tmp_path / "out.csv"
    assert main(_analysis_argv(command, traj, out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()
    if damage != "nan":
        assert arrays == []


def test_missing_restart_snapshot_exits_4(tmp_path, monkeypatch):
    """init.path stays a string, so a numeric-looking name is looked up as
    a file and a missing one is an I/O failure."""
    cfg = tmp_path / "restart.cfg"
    cfg.write_text("grid.n = 16\ngrid.l = 1.0\nsim.dt = 5e-4\n"
                   "sim.t_end = 0.001\ninit.preset = restart\ninit.path = 0001\n")
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_IO


def test_restart_runs_from_its_snapshot_time(traj_dir, tmp_path):
    """A restart steps from its snapshot's own time up to sim.t_end, so it
    reproduces the rest of the run it was cut from."""
    times = json.loads((traj_dir / "trajectory.json").read_text())["times"]
    snap = sorted(traj_dir.glob("snap_*.cns"))[1]
    cfg = tmp_path / "restart.cfg"
    cfg.write_text(CONFIG_TEXT.replace("init.preset = random_smooth",
                                       f"init.preset = restart\ninit.path = {snap}"))
    out = tmp_path / "resumed"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "trajectory.json").read_text())["times"] == times[1:]
    assert (out / "snap_000003.cns").read_bytes() == \
        sorted(traj_dir.glob("snap_*.cns"))[-1].read_bytes()


def test_manifest_records_the_trajectory_physics(traj_dir):
    """manifest.json and trajectory.json hold one record of the physics."""
    manifest = json.loads((traj_dir / "manifest.json").read_text())
    meta = json.loads((traj_dir / "trajectory.json").read_text())
    assert manifest["params"] == meta["params"]
    assert manifest["params"]["c0_max"] == 1.0


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


@pytest.mark.parametrize("scales", ["3..5", "2^-3..5", "-3..-5"])
def test_dimension_rejects_bare_exponent_range(tmp_path, capsys, scales):
    """3..5 once ran at scales 32, 16, 8 (2^k for a bare k), while the help
    text reads as 2^-3..2^-5: a bare exponent is a config error, and
    nothing is written."""
    flags = tmp_path / "flags.csv"
    flags.write_text(FLAG_HEADER + "0.0,0.1,0.2,0.3,0.1,1.0,0.5,0.5,2.0\n")
    out = tmp_path / "dim.csv"
    capsys.readouterr()
    assert main(["dimension", "--flags", str(flags), f"--scales={scales}",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "2^-a..2^-b" in capsys.readouterr().err
    assert not out.exists()


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
    # the streamed trajectory, its physics and its run log
    names = sorted(p.name for p in (out1 / "trajectory").iterdir())
    assert names == sorted(p.name for p in (out2 / "trajectory").iterdir())
    assert "trajectory.json" in names and len(names) > 1
    for name in names:
        a = (out1 / "trajectory" / name).read_bytes()
        assert a == (out2 / "trajectory" / name).read_bytes(), name
    meta = json.loads((out1 / "trajectory" / "trajectory.json").read_text())
    assert meta["params"]["gravity"] == 0.3 and "run_log" in meta


def test_analysis_reads_physics_from_trajectory(tmp_path):
    """verify-lei and flag, run on the pipeline's trajectory with the
    pipeline's test function, centres and radii, reproduce its lei.csv and
    flags.csv byte for byte: all three use the physics the trajectory
    records."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEXT.replace("reg.working_threshold = 1e-2",
                                       "reg.working_threshold = 1e-9"))
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    traj = run / "trajectory"
    times = json.loads((traj / "trajectory.json").read_text())["times"]
    r = min(1.0 / 8.0, 0.09)  # min(L/8, max radii)
    span = min(0.5 * (times[-1] - times[0]), r**2)
    lei = tmp_path / "lei.csv"
    assert main(["verify-lei", "--traj", str(traj),
                 "--psi", f"bump:r={r!r},span={span!r}", "--t", repr(times[-1]),
                 "--center", "0.5,0.5,0.5", "--omega", "0.25",
                 "--out", str(lei)]) == EXIT_OK
    assert lei.read_bytes() == (run / "lei.csv").read_bytes()
    flags = tmp_path / "flags.csv"
    assert main(["flag", "--traj", str(traj), "--grid-stride", "4",
                 "--radii", "0.05,0.09", "--config", str(cfg),
                 "--out", str(flags)]) == EXIT_OK
    assert len(read_csv(flags)[1]) > 0
    assert flags.read_bytes() == (run / "flags.csv").read_bytes()


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


def test_lei_columns_are_the_csv_header():
    """The columns derived from the LEI's table are the header every LEI
    CSV has carried."""
    assert LEI_COLUMNS == (
        "t", "lhs_entropy_final", "lhs_grad_sqrt_n", "lhs_grad_sqrt_c_final",
        "lhs_lap_sqrt_c", "lhs_kinetic_final", "lhs_grad_u", "lhs_entropy_quartic",
        "rhs_entropy_heat", "rhs_entropy_advect", "rhs_chemo_flux",
        "rhs_entropy_chemo_flux", "rhs_grad_sqrt_c_heat", "rhs_grad_sqrt_c_advect",
        "rhs_kinetic_heat", "rhs_kinetic_advect", "rhs_pressure_advect",
        "rhs_buoyancy", "residual")


def test_quantity_columns_are_the_csv_header():
    """The columns read off LocalQuantities are the header every
    quantities CSV has carried."""
    assert cli.QUANTITY_COLUMNS == (
        "t0", "x0", "x1", "x2", "r",
        "a_u", "e_u", "a_grad_sqrt_c", "e_grad_sqrt_c", "a_sqrt_n", "e_sqrt_n",
        "c_u", "c_u_tilde", "c_sqrt_n", "c_grad_sqrt_c", "d", "m", "n_entropy",
        "a_combined", "e_combined", "c_combined", "g")


def test_failed_pipeline_manifest_names_the_simulate_phase(tmp_path, capsys):
    """A run past the CFL limit exits 3 and still writes manifest.json,
    naming the phase that failed, with no phase time."""
    cfg = tmp_path / "tg.cfg"
    cfg.write_text("grid.n = 16\ngrid.l = 1.0\nsim.dt = 0.05\nsim.t_end = 0.1\n"
                   "init.preset = taylor_green\ninit.amplitude = 1.0\n")
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert "CFL number 0.800 > 0.5" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_phase"] == "simulate"
    assert manifest["phase_seconds"] == {}


def test_failed_pipeline_manifest_keeps_the_earlier_phase_times(workdir, tmp_path,
                                                                monkeypatch):
    """A phase that fails after others leaves their times in manifest.json
    and names itself; the exit code is its exception's."""
    def fail(*args, **kwargs):
        raise FloatingPointError("flag sweep failed")

    monkeypatch.setattr(cli, "flag_sweep", fail)
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(workdir / "run.cfg"),
                 "--out", str(out)]) == EXIT_NUMERIC
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_phase"] == "flag"
    assert list(manifest["phase_seconds"]) == ["energy", "lei", "quantities", "simulate"]
    assert all(s > 0 for s in manifest["phase_seconds"].values())
    assert "flags" not in manifest["outputs"] and "lei" in manifest["outputs"]
