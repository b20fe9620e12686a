"""Binary snapshot format and trajectory persistence."""

import json
import shutil

import numpy as np
import pytest

from cnsflow import (
    Grid,
    SimulationConfig,
    State,
    Trajectory,
    read_snapshot,
    read_trajectory,
    simulate,
    write_snapshot,
    write_trajectory,
)


def _random_state(seed=0, N=12, L=1.5, t=0.25):
    rng = np.random.default_rng(seed)
    g = Grid(N, L)
    return State(
        g,
        rng.uniform(0.0, 2.0, (N,) * 3),
        rng.uniform(0.0, 1.0, (N,) * 3),
        rng.normal(size=(3, N, N, N)),
        rng.normal(size=(N,) * 3),
        t,
    )


def test_snapshot_roundtrip_bitwise(tmp_path):
    s = _random_state()
    path = tmp_path / "a.cns"
    write_snapshot(path, s)
    back = read_snapshot(path)
    assert back.grid.n == s.grid.n
    assert back.grid.box_length == s.grid.box_length
    assert back.time == s.time
    for name in ("n", "c", "u", "p"):
        assert np.array_equal(getattr(back, name), getattr(s, name))


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.cns"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(Exception):
        read_snapshot(path)


def test_trajectory_roundtrip(tmp_path):
    states = [_random_state(seed=i, t=0.1 * i) for i in range(3)]
    traj = Trajectory(states)
    write_trajectory(tmp_path / "run", traj)
    back = read_trajectory(tmp_path / "run")
    assert len(back.states) == 3
    assert np.array_equal(back.times, traj.times)
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.n, b.n)
        assert np.array_equal(a.u, b.u)
    assert back.initial_norms.n_l1 == traj.initial_norms.n_l1


def test_trajectory_meta_with_grid_dt_key_reads(tmp_path):
    """A trajectory.json written with a "dt" entry under "grid" (as older
    versions did) still reads, and the key plays no part in the grid."""
    states = [_random_state(seed=i, t=0.1 * i) for i in range(2)]
    write_trajectory(tmp_path / "run", Trajectory(states))
    meta_path = tmp_path / "run" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
    assert "dt" not in meta["grid"]
    meta["grid"]["dt"] = 2e-4
    meta_path.write_text(json.dumps(meta))
    back = read_trajectory(tmp_path / "run")
    assert back.grid == states[0].grid
    assert np.array_equal(back.times, [0.0, 0.1])


def test_simulate_grids_equal_with_and_without_meta(tmp_path):
    """The grid of a simulated trajectory does not depend on whether
    trajectory.json is there, so states read either way mix in one
    Trajectory."""
    cfg = SimulationConfig(grid_n=16, grid_l=1.0, dt=2e-4, t_end=0.001,
                           output_stride=2, seed=5,
                           init={"preset": "random_smooth", "amplitude": 0.05})
    simulate(cfg, out_dir=tmp_path / "run")
    bare = tmp_path / "bare"
    bare.mkdir()
    for p in (tmp_path / "run").glob("snap_*.cns"):
        shutil.copy(p, bare / p.name)
    with_meta = read_trajectory(tmp_path / "run")
    without = read_trajectory(bare)
    assert with_meta.grid == without.grid
    assert hash(with_meta.grid) == hash(without.grid)
    mixed = Trajectory(with_meta.states[:2] + without.states[2:])
    assert np.array_equal(mixed.times, with_meta.times)


def test_missing_trajectory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_trajectory(tmp_path / "nope")
