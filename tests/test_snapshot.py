"""Binary snapshot format and trajectory persistence."""

import json
import shutil

import numpy as np
import pytest

from cnsflow import (
    Grid,
    PhysParams,
    SimulationConfig,
    State,
    Trajectory,
    read_snapshot,
    read_trajectory,
    simulate,
    write_snapshot,
    write_trajectory,
)
from cnsflow import snapshot


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


@pytest.mark.parametrize("damage", ["bad_magic", "truncated", "trailing_bytes", "corrupt_n"])
def test_snapshot_rejects_bad_magic(tmp_path, damage):
    """A file whose magic or length does not match its CNS1 header is
    rejected before any array is read; a corrupt N (here 2^21, whose
    arrays would need 2^69 bytes) is caught by the same length check."""
    path = tmp_path / "bad.cns"
    write_snapshot(path, _random_state(N=8))
    good = path.read_bytes()
    bad = {
        "bad_magic": b"XXXX" + b"\x00" * 64,
        "truncated": good[:-8],
        "trailing_bytes": good + b"\x00" * 8,
        "corrupt_n": good[:4] + (2**21).to_bytes(4, "little") + good[8:],
    }[damage]
    path.write_bytes(bad)
    with pytest.raises(ValueError):
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


def test_trajectory_reads_each_state_on_first_use(tmp_path, monkeypatch):
    """An opened trajectory holds no state until one is indexed; each is
    then read once, on the trajectory's own grid, and kept."""
    states = [_random_state(seed=i, t=0.1 * i) for i in range(4)]
    write_trajectory(tmp_path / "run", Trajectory(states))
    reads = []
    real = snapshot.read_snapshot
    monkeypatch.setattr(snapshot, "read_snapshot",
                        lambda path, grid=None: reads.append(path.name) or real(path, grid))
    back = read_trajectory(tmp_path / "run")
    assert reads == [] and len(back.states) == 4
    assert back.grid == states[0].grid
    assert np.array_equal(back.times, [s.time for s in states])
    last = back.states[-1]
    assert back.states[3] is last and last.grid is back.grid
    assert np.array_equal(last.u, states[3].u)
    assert [s.time for s in back.states[1:3]] == [states[1].time, states[2].time]
    assert reads == ["snap_000003.cns", "snap_000001.cns", "snap_000002.cns"]
    with pytest.raises(IndexError):
        back.states[4]


@pytest.mark.parametrize("other, message", [
    (_random_state(N=14, t=0.2), "share one grid"),
    (_random_state(t=0.05), "strictly increasing"),
])
def test_mismatched_headers_fail_at_open(tmp_path, monkeypatch, other, message):
    """A snapshot on another grid, or out of time order, fails the open
    from its header alone."""
    run = tmp_path / "run"
    write_trajectory(run, Trajectory([_random_state(t=0.0), _random_state(t=0.1)]))
    write_snapshot(run / "snap_000002.cns", other)
    (run / "trajectory.json").unlink()
    monkeypatch.setattr(np, "fromfile", None)
    with pytest.raises(ValueError, match=message):
        read_trajectory(run)


def test_trajectory_meta_with_grid_dt_key_reads(tmp_path):
    """trajectory.json records the physics.  One written as older versions
    did, with a "dt" entry under "grid", an "initial_norms" entry and no
    "params", still reads: neither entry plays a part in the trajectory,
    and the physics are PhysParams()."""
    states = [_random_state(seed=i, t=0.1 * i) for i in range(2)]
    params = PhysParams(theta0=2.0, chi_coeffs=(0.5, 0.25), gravity=0.3, c0_max=1.0)
    write_trajectory(tmp_path / "run", Trajectory(states, params))
    assert read_trajectory(tmp_path / "run").params == params
    meta_path = tmp_path / "run" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
    assert "dt" not in meta["grid"] and "initial_norms" not in meta
    meta["grid"]["dt"] = 2e-4
    meta["initial_norms"] = {"n_l1": 1.0, "c0_max": 1.0, "u_l2": 0.1,
                             "grad_sqrt_c_l2": 0.2, "n_entropy_l1": 1.4}
    del meta["params"]
    meta_path.write_text(json.dumps(meta))
    back = read_trajectory(tmp_path / "run")
    assert back.grid == states[0].grid
    assert np.array_equal(back.times, [0.0, 0.1])
    assert back.params == PhysParams()


def test_trajectory_meta_with_unknown_params_key_raises(tmp_path):
    """An entry of "params" that PhysParams does not have is a malformed
    trajectory.json (ValueError, a configuration error), not a crash."""
    write_trajectory(tmp_path / "run", Trajectory([_random_state()]))
    meta_path = tmp_path / "run" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
    meta["params"]["kappa"] = 1.0
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="kappa"):
        read_trajectory(tmp_path / "run")


def test_simulate_grids_equal_with_and_without_meta(tmp_path):
    """The grid of a simulated trajectory does not depend on whether
    trajectory.json is there, so states read either way mix in one
    Trajectory."""
    cfg = SimulationConfig(grid_n=16, grid_l=1.0, dt=2e-4, t_end=0.001,
                           output_stride=2, seed=5,
                           init={"preset": "random_smooth", "amplitude": 0.05})
    simulate(cfg, PhysParams(), out_dir=tmp_path / "run")
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
