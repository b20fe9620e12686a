"""Property tests: corrupt snapshots, configs and point CSVs, which come
from outside the program, exit with the documented code through
``cli.main``: 2 for a configuration error, 3 for a non-finite payload."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnsflow import Grid, State, Trajectory, write_trajectory
from cnsflow.cli import EXIT_CONFIG, EXIT_NUMERIC, main

POINT_COLUMNS = ("x0", "x1", "x2", "t0")
FLAG_COLUMNS = ("t0", "x0", "x1", "x2", "r_star", "value",
                "working_threshold", "paper_threshold", "margin")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A scratch directory and a two-snapshot 8^3 trajectory."""
    d = tmp_path_factory.mktemp("props")
    g = Grid(8, 1.0)
    ones = np.ones((8,) * 3)
    write_trajectory(d / "traj", Trajectory([
        State(g, ones.copy(), ones.copy(), np.zeros((3, 8, 8, 8)), 0.0 * ones, t)
        for t in (0.0, 0.01)]))
    return d


def _snapshot_bytes(n: int, payload=None) -> bytes:
    header = (b"CNS1" + np.array([n], dtype="<u4").tobytes()
              + np.array([1.0, 0.0], dtype="<f8").tobytes())
    if payload is None:
        payload = np.zeros(6 * n**3)
    return header + np.asarray(payload, dtype="<f8").tobytes()


def _pressure_exit(work, data: bytes) -> int:
    snap = work / "snap.cns"
    snap.write_bytes(data)
    return main(["diagnose", "pressure", "--snapshot", str(snap), "--center",
                 "0.5,0.5,0.5", "--rho", "0.2", "--out", str(work / "p.csv")])


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

@given(cut=st.integers(1, 6 * 8**3 * 8 + 23))
def test_truncated_snapshot_exits_2(work, cut):
    assert _pressure_exit(work, _snapshot_bytes(8)[:-cut]) == EXIT_CONFIG


@given(extra=st.binary(min_size=1, max_size=64))
def test_snapshot_with_trailing_bytes_exits_2(work, extra):
    assert _pressure_exit(work, _snapshot_bytes(8) + extra) == EXIT_CONFIG


@given(n=st.one_of(st.integers(0, 7), st.sampled_from([9, 11, 13])))
def test_snapshot_with_small_or_odd_n_exits_2(work, n):
    # the file length matches its N, so the grid check rejects it
    assert _pressure_exit(work, _snapshot_bytes(n)) == EXIT_CONFIG


@given(index=st.integers(0, 6 * 8**3 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_snapshot_with_non_finite_payload_exits_3(work, index, bad):
    payload = np.ones(6 * 8**3)
    payload[index] = bad
    assert _pressure_exit(work, _snapshot_bytes(8, payload)) == EXIT_NUMERIC


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

VALID_CONFIG = {"grid.n": "16", "grid.l": "1.0", "sim.dt": "5e-4",
                "sim.t_end": "0.001", "sim.output_stride": "1"}
CASTS = {"grid.n": int, "grid.l": float, "sim.dt": float, "sim.t_end": float,
         "sim.output_stride": int}
# no comment marker and nothing str.splitlines breaks a line at
LINE_TEXT = st.text(st.characters(blacklist_characters="#",
                                  blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                    max_size=20)


def _simulate_exit(work, lines) -> int:
    cfg = work / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return main(["simulate", "--config", str(cfg), "--out", str(work / "sim")])


def _rejects(cast, text: str) -> bool:
    try:
        cast(text)
    except ValueError:
        return True
    return False


@given(line=LINE_TEXT.filter(lambda s: "=" not in s and s.strip()))
def test_config_line_without_equals_exits_2(work, line):
    lines = [f"{k} = {v}" for k, v in VALID_CONFIG.items()] + [line]
    assert _simulate_exit(work, lines) == EXIT_CONFIG


@given(key=st.sampled_from(sorted(CASTS)), data=st.data())
def test_config_unparsable_value_exits_2(work, key, data):
    value = data.draw(LINE_TEXT.filter(lambda s: _rejects(CASTS[key], s.strip())))
    lines = [f"{k} = {value if k == key else v}" for k, v in VALID_CONFIG.items()]
    assert _simulate_exit(work, lines) == EXIT_CONFIG
    assert not (work / "sim" / "trajectory.json").exists()


# ---------------------------------------------------------------------------
# centres and flag CSVs
# ---------------------------------------------------------------------------

def _points_exits(work, header, rows) -> tuple:
    """Exit codes of ``dimension --flags`` and ``diagnose quantities
    --centers`` on one CSV."""
    path = work / "points.csv"
    path.write_text("\n".join([",".join(header)]
                              + [",".join(map(repr, r)) for r in rows]) + "\n")
    dim = main(["dimension", "--flags", str(path), "--scales", "2^-2..2^-4",
                "--out", str(work / "d.csv")])
    quant = main(["diagnose", "quantities", "--traj", str(work / "traj"),
                  "--centers", str(path), "--radii", "0.2",
                  "--out", str(work / "q.csv")])
    return dim, quant


ROWS = st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.floats(0.0, 0.01), min_size=9, max_size=9), min_size=m, max_size=m))


@given(header=st.sampled_from([POINT_COLUMNS, FLAG_COLUMNS]), data=st.data())
def test_point_csv_missing_column_exits_2(work, header, data):
    drop = data.draw(st.sampled_from(POINT_COLUMNS))
    kept = [c for c in header if c != drop]
    rows = [r[:len(kept)] for r in data.draw(ROWS)]
    assert _points_exits(work, kept, rows) == (EXIT_CONFIG, EXIT_CONFIG)


@given(header=st.sampled_from([POINT_COLUMNS, FLAG_COLUMNS]), data=st.data())
def test_point_csv_non_finite_value_exits_2(work, header, data):
    rows = [r[:len(header)] for r in data.draw(ROWS)]
    i = data.draw(st.integers(0, len(rows) - 1))
    col = header.index(data.draw(st.sampled_from(POINT_COLUMNS)))
    rows[i][col] = data.draw(st.sampled_from([float("nan"), float("inf"),
                                              float("-inf")]))
    assert _points_exits(work, header, rows) == (EXIT_CONFIG, EXIT_CONFIG)
