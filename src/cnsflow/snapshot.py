"""CNS1 snapshot binary format and trajectory persistence.

Layout: magic b"CNS1", N as uint32 little-endian, then L and t as float64
little-endian, then the arrays n, c, u1, u2, u3, P, each N^3 float64
little-endian in (i, j, k) row-major order.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .grid_fields import Grid, _check_finite
from .state import PhysParams, State, StoredStates, Trajectory

MAGIC = b"CNS1"
HEADER_BYTES = 24


def write_snapshot(path, state: State) -> None:
    """Write one CNS1 snapshot to a temporary file, then move it into
    place, so ``path`` never holds a partial snapshot."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    g = state.grid
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(np.array([g.n], dtype="<u4").tobytes())
        f.write(np.array([g.box_length, state.time], dtype="<f8").tobytes())
        for arr in (state.n, state.c, state.u[0], state.u[1], state.u[2], state.p):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)


def _read_header(f, path) -> tuple[int, float, float]:
    """N, L and t of an open CNS1 file; the file length must be exactly
    what N calls for."""
    header = f.read(HEADER_BYTES)
    if header[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {header[:4]!r}, expected {MAGIC!r}")
    n = int.from_bytes(header[4:8], "little")
    size, expected = os.fstat(f.fileno()).st_size, HEADER_BYTES + 48 * n**3
    if size != expected:
        raise ValueError(f"{path}: truncated or overlong snapshot: {size} bytes, "
                         f"N = {n} needs {expected}")
    box_length, t = np.frombuffer(header, dtype="<f8", count=2, offset=8)
    return n, float(box_length), float(t)


def snapshot_time(path) -> float:
    """The time of a CNS1 snapshot, read from its checked header only."""
    with open(path, "rb") as f:
        return _read_header(f, path)[2]


def read_snapshot(path, grid: Grid = None) -> State:
    """Read one CNS1 snapshot; its header is checked before any array is
    read.  The state is built on ``grid`` when one is given (a trajectory
    passes its own, so its Fourier symbols are made once), else on a new
    Grid of the header's N and L."""
    with open(path, "rb") as f:
        n, box_length, t = _read_header(f, path)
        data = np.fromfile(f, dtype="<f8", count=6 * n**3).reshape(6, n, n, n)
    grid = grid or Grid(n, box_length)
    return State(grid, data[0], data[1], data[2:5], data[5], t)


def _check_values(path, n: int) -> None:
    """Raise NonFiniteFieldError, as ``State`` would, naming the first of
    n, c, u, P with a non-finite entry; one field is read at a time and
    none is kept."""
    with open(path, "rb") as f:
        f.seek(HEADER_BYTES)
        for name, count in (("n", 1), ("c", 1), ("u", 3), ("p", 1)):
            _check_finite(np.fromfile(f, dtype="<f8", count=count * n**3), name)


def snapshot_name(index: int) -> str:
    return f"snap_{index:06d}.cns"


def write_trajectory(out_dir, traj: Trajectory) -> None:
    """Persist all snapshots plus the ``trajectory.json`` sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(traj.states):
        write_snapshot(out / snapshot_name(i), s)
    write_trajectory_meta(out, traj)


def write_trajectory_meta(out_dir, traj: Trajectory) -> None:
    """Write ``trajectory.json`` (times, grid, the physics and, when the
    trajectory has one, its run log) through a temporary file; written
    after the snapshots, it marks the trajectory complete."""
    meta = {
        "format": "CNS1",
        "count": len(traj.states),
        "times": traj.times.tolist(),
        "grid": {"n": traj.grid.n, "box_length": traj.grid.box_length},
        "params": asdict(traj.params),
    }
    if traj.run_log is not None:
        meta["run_log"] = traj.run_log
    path = Path(out_dir) / "trajectory.json"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_trajectory(in_dir) -> Trajectory:
    """Open a trajectory directory.  Every snapshot is checked here, with
    the errors ``read_snapshot`` and ``Trajectory`` raise: its header and
    file length first, then one grid and strictly increasing times, then
    that every value is finite (streamed, nothing kept).  Only the headers
    are kept: snapshot i is read the first time ``states[i]`` is indexed,
    on the trajectory's one Grid, and kept for the trajectory's lifetime.
    The physics come from the "params" entry of ``trajectory.json``; a
    directory without one (or without the file) reads with
    ``PhysParams()``."""
    src = Path(in_dir)
    meta_path = src / "trajectory.json"
    meta = {}
    if meta_path.exists():
        with open(meta_path) as f:
            meta = json.load(f)
        paths = [src / snapshot_name(i) for i in range(meta["count"])]
    else:
        paths = sorted(src.glob("snap_*.cns"))
        if not paths:
            raise FileNotFoundError(f"no snapshots under {src}")
    try:
        params = PhysParams(**meta.get("params", {}))
    except TypeError as exc:  # an unknown or missing key
        raise ValueError(f"{meta_path}: {exc}") from exc
    heads = []
    for p in paths:
        with open(p, "rb") as f:
            n, box_length, t = _read_header(f, p)
        heads.append((Grid(n, box_length), t))
    # every state is built on the first header's grid, the trajectory's own
    traj = Trajectory(StoredStates(heads, lambda i: read_snapshot(paths[i], heads[0][0])),
                      params=params)
    for p, (g, _) in zip(paths, heads):
        _check_values(p, g.n)
    return traj
