"""CNS1 snapshot binary format and trajectory persistence.

Layout: magic b"CNS1", N as uint32 little-endian, then L and t as float64
little-endian, then the arrays n, c, u1, u2, u3, P, each N^3 float64
little-endian in (i, j, k) row-major order.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from .grid_fields import Grid
from .state import InitialNorms, State, Trajectory

MAGIC = b"CNS1"


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


def read_snapshot(path) -> State:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        n = int(np.frombuffer(f.read(4), dtype="<u4")[0])
        box_length, t = np.frombuffer(f.read(16), dtype="<f8")
        count = n**3
        arrays = []
        for _ in range(6):
            buf = f.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(f"{path}: truncated snapshot")
            arrays.append(np.frombuffer(buf, dtype="<f8").reshape(n, n, n).copy())
    grid = Grid(n, float(box_length))
    nn, c, u1, u2, u3, p = arrays
    return State(grid, nn, c, np.stack([u1, u2, u3]), p, float(t))


def snapshot_name(index: int) -> str:
    return f"snap_{index:06d}.cns"


def write_trajectory(out_dir, traj: Trajectory, extra_meta: Optional[dict] = None) -> None:
    """Persist all snapshots plus a JSON sidecar with times and norms."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(traj.states):
        write_snapshot(out / snapshot_name(i), s)
    write_trajectory_meta(out, traj, extra_meta)


def write_trajectory_meta(out_dir, traj: Trajectory,
                          extra_meta: Optional[dict] = None) -> None:
    """Write ``trajectory.json`` (times and norms) through a temporary
    file; written after the snapshots, it marks the trajectory complete."""
    norms = traj.initial_norms
    meta = {
        "format": "CNS1",
        "count": len(traj.states),
        "times": [s.time for s in traj.states],
        "grid": {"n": traj.grid.n, "box_length": traj.grid.box_length},
        "initial_norms": {
            "n_l1": norms.n_l1,
            "c0_max": norms.c0_max,
            "u_l2": norms.u_l2,
            "grad_sqrt_c_l2": norms.grad_sqrt_c_l2,
            "n_entropy_l1": norms.n_entropy_l1,
        },
    }
    if extra_meta:
        meta.update(extra_meta)
    path = Path(out_dir) / "trajectory.json"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_trajectory(in_dir, params=None) -> Trajectory:
    src = Path(in_dir)
    meta_path = src / "trajectory.json"
    if meta_path.exists():
        with open(meta_path) as f:
            meta = json.load(f)
        count = meta["count"]
        paths = [src / snapshot_name(i) for i in range(count)]
        norms = InitialNorms(**meta["initial_norms"])
    else:
        paths = sorted(src.glob("snap_*.cns"))
        if not paths:
            raise FileNotFoundError(f"no snapshots under {src}")
        norms = None
    states = [read_snapshot(p) for p in paths]
    return Trajectory(states, params=params, initial_norms=norms)
