"""Tests of the benchmark's own checks: each check accepts a correct output
and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py
"""

import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def _grid(n, box_length=2.0 * math.pi):
    x = box_length / n * np.arange(n)
    return np.meshgrid(x, x, x, indexing="ij")


def _taylor_green(n=16):
    x, y, _ = _grid(n)
    return np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y), np.zeros_like(x)])


def _snap(u, t, n_field=None, c=None, box_length=2.0 * math.pi):
    shape = u.shape[1:]
    return {"N": shape[0], "L": box_length, "t": t, "u": u,
            "n": np.ones(shape) if n_field is None else n_field,
            "c": np.full(shape, 0.5) if c is None else c, "p": np.zeros(shape)}


def test_mass_drift_rejected():
    n0 = np.ones((8, 8, 8))
    assert checks.check_mass([n0, n0.copy()], 1.0)[0]
    n1 = n0.copy()
    n1[0, 0, 0] += 1e-5
    assert not checks.check_mass([n0, n1], 1.0)[0]


def test_nonzero_divergence_rejected():
    u = _taylor_green()
    assert checks.check_divergence([u], 2.0 * math.pi)[0]
    x, _, _ = _grid(16)
    bad = u.copy()
    bad[0] += 1e-6 * np.sin(x)  # d/dx adds 1e-6 cos x
    ok, detail = checks.check_divergence([bad], 2.0 * math.pi)
    assert not ok, detail


@pytest.mark.parametrize("field,value", [("c", 1.5), ("c", -0.1), ("n", -1e-3),
                                         ("p", float("nan"))])
def test_bounds_violation_rejected(field, value):
    snap = _snap(_taylor_green(), 0.0)
    assert checks.check_bounds([snap], 1.0)[0]
    snap[field] = snap[field].copy()
    snap[field][1, 2, 3] = value
    assert not checks.check_bounds([snap], 1.0)[0]


def test_poisson_solve_matches_closed_form():
    # -Lap P = d_i d_j (u_i u_j) for the Taylor-Green cell: P = (cos 2x + cos 2y) / 4
    x, y, _ = _grid(16)
    u = _taylor_green()
    p = checks.poisson_pressure(np.zeros_like(x), u, 2.0 * math.pi, gravity=0.0)
    assert np.max(np.abs(p - 0.25 * (np.cos(2 * x) + np.cos(2 * y)))) < 1e-12


def test_pressure_mismatch_rejected():
    u = _taylor_green()
    ref = checks.poisson_pressure(np.ones(u.shape[1:]), u, 2.0 * math.pi, gravity=0.5)
    assert checks.check_pressure(ref.copy(), ref)[0]
    assert not checks.check_pressure(ref * (1 + 1e-8), ref)[0]


def test_ball_has_one_stencil_at_every_grid_centre():
    n, box = 48, 1.0
    h = box / n
    counts = {int(checks.ball(n, box, (i * h, j * h, k * h), 1.0 / 8.0).sum())
              for i, j, k in [(0, 0, 0), (5, 11, 17), (47, 3, 29), (24, 24, 24)]}
    assert len(counts) == 1


def test_shifted_c_u_rejected():
    n, box, r = 16, 1.0, 0.25
    u = np.zeros((3, n, n, n))
    u[0] = 2.0
    snaps = [_snap(u, t, box_length=box) for t in (-0.1, -0.05, 0.0)]
    q = checks.velocity_quantities(snaps, (0.5, 0.5, 0.5), 0.0, r)
    cells = int(checks.ball(n, box, (0.5, 0.5, 0.5), r).sum())
    volume = cells * (box / n) ** 3
    assert q["a_u"] == pytest.approx(4.0 * volume / r, rel=1e-12)
    assert q["c_u"] == pytest.approx(8.0 * volume, rel=1e-12)  # r^-2 * r^2 |u|^3 |B|
    assert checks.check_close("c_u", 1.01 * q["c_u"], q["c_u"])[0]
    assert not checks.check_close("c_u", 1.05 * q["c_u"], q["c_u"])[0]


def test_time_integral_is_exact_for_linear_data():
    times = [0.0, 1.0, 3.0]
    values = [1.0, 3.0, 7.0]  # g(t) = 1 + 2t
    assert checks.time_integral(times, values, 0.5, 2.5) == pytest.approx(2.0 + 6.0)


def _quantity_row(**shift):
    row = {"r": 0.1, "a_u": 1.0, "a_grad_sqrt_c": 2.0, "a_sqrt_n": 3.0,
           "e_u": 0.5, "e_grad_sqrt_c": 0.25, "e_sqrt_n": 0.125,
           "c_u": 4.0, "c_sqrt_n": 5.0, "c_grad_sqrt_c": 6.0,
           "n_entropy": 0.3, "d": 0.7}
    row["a_combined"] = 6.0
    row["e_combined"] = 0.875
    row["c_combined"] = 15.0
    row["g"] = 16.0
    row.update(shift)
    return row


def test_wrong_combined_sum_rejected():
    assert checks.check_combined([_quantity_row()])[0]
    assert not checks.check_combined([_quantity_row(c_combined=15.001)])[0]
    assert not checks.check_combined([_quantity_row(g=15.5)])[0]


def _lei_row(residual_shift=0.0, lhs=1.0, rhs=1.5):
    return {"t": 0.0, "lhs_a": lhs, "rhs_b": rhs, "residual": rhs - lhs + residual_shift}


def test_lei_violation_rejected():
    assert checks.lei_check(_lei_row())[0]
    assert not checks.lei_check(_lei_row(lhs=2.0, rhs=1.0))[0]
    assert not checks.lei_check(_lei_row(residual_shift=0.1))[0]


def _flag_row(value=2.0, thr=0.5, margin=None):
    return {"value": value, "working_threshold": thr,
            "margin": value / thr if margin is None else margin}


def test_bad_flag_rows_rejected():
    assert checks.check_flag_rows([_flag_row(), _flag_row(value=0.6)])[0]
    assert not checks.check_flag_rows([_flag_row(value=0.4)])[0]
    assert not checks.check_flag_rows([_flag_row(margin=3.0)])[0]


def test_flagged_share_must_be_strict():
    assert checks.check_flagged_share(254, 512)[0]
    assert not checks.check_flagged_share(0, 512)[0]
    assert not checks.check_flagged_share(512, 512)[0]


def _dimension_rows(counts, slope):
    rows = [{"kind": "count", "scale": 2.0**-k, "value": float(c)}
            for k, c in enumerate(counts, start=2)]
    return rows + [{"kind": "slope", "scale": 2.0 ** -(len(counts) + 1), "value": slope}]


def test_decreasing_counts_rejected():
    assert checks.check_counts_monotone(_dimension_rows([4, 8, 8, 16], 1.0))[0]
    assert not checks.check_counts_monotone(_dimension_rows([4, 8, 7, 16], 1.0))[0]


def test_wrong_slope_rejected():
    assert checks.check_slope(_dimension_rows([8, 16, 32], 1.02), 1.0, 0.15)[0]
    assert not checks.check_slope(_dimension_rows([8, 16, 32], 1.3), 1.0, 0.15)[0]
    assert not checks.check_slope(_dimension_rows([8, 32, 128], 1.7), 2.0, 0.2)[0]


def test_pressure_split_limits():
    rows = [{"kind": "identity_residual", "r": 0.2, "value": 1e-15},
            {"kind": "harmonic_relative", "r": 0.2, "value": 1e-6}]
    assert checks.check_limit(rows, "identity_residual", 1e-6)[0]
    assert checks.check_limit(rows, "harmonic_relative", 1e-4)[0]
    rows[0]["value"], rows[1]["value"] = 1e-3, 1e-2
    assert not checks.check_limit(rows, "identity_residual", 1e-6)[0]
    assert not checks.check_limit(rows, "harmonic_relative", 1e-4)[0]
    assert not checks.check_limit(rows[:1], "harmonic_relative", 1e-4)[0]


def test_spread_across_centres_rejected():
    rows = [{"a_u": 2.0, "e_u": 1e-30}, {"a_u": 2.0, "e_u": 3e-30}]
    assert checks.check_identical(rows)[0]
    rows.append({"a_u": 2.02, "e_u": 0.0})
    assert not checks.check_identical(rows)[0]


def test_cns1_reader(tmp_path):
    n = 8
    arrays = [np.full((n, n, n), float(i)) for i in range(6)]
    path = tmp_path / "snap.cns"
    path.write_bytes(b"CNS1" + struct.pack("<Idd", n, 1.0, 0.25)
                     + b"".join(a.astype("<f8").tobytes() for a in arrays))
    snap = checks.read_cns1(path)
    assert (snap["N"], snap["L"], snap["t"]) == (n, 1.0, 0.25)
    assert snap["u"].shape == (3, n, n, n) and np.all(snap["p"] == 5.0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        checks.read_cns1(path)


def test_thm13_lattice_matches_direct_ball_sums():
    n, box, r, stride = 16, 1.0, 0.25, 8
    x, y, _ = _grid(n, box)
    u = np.stack([np.sin(2 * np.pi * y), np.zeros_like(x), np.zeros_like(x)])
    snaps = [_snap(u, t, box_length=box) for t in (-0.1, 0.0)]  # n, c constant
    values = checks.thm13_lattice(snaps, 0.0, [r], stride, delta0=0.05)
    grad_u_sq = (2 * np.pi * np.cos(2 * np.pi * y)) ** 2
    h = box / n
    for idx, value in zip(np.ndindex(2, 2, 2), values):
        centre = tuple(i * stride * h for i in idx)
        direct = np.sum(grad_u_sq[checks.ball(n, box, centre, r)]) * h**3
        assert value == pytest.approx(r * direct, rel=1e-10)  # r^-1 * r^2 * ball sum


def test_wrong_flag_set_rejected():
    values = np.arange(1.0, 9.0)  # a 2 x 2 x 2 lattice, ordered (x, y, z)
    spacing = 0.5
    rows = [{"x0": i * spacing, "x1": j * spacing, "x2": k * spacing, "value": v}
            for (i, j, k), v in zip(np.ndindex(2, 2, 2), values) if v > 4.5]
    assert checks.check_flag_set(rows, values, 4.5, spacing)[0]
    assert not checks.check_flag_set(rows[1:], values, 4.5, spacing)[0]
    rows[0] = {**rows[0], "value": rows[0]["value"] * 1.01}
    assert not checks.check_flag_set(rows, values, 4.5, spacing)[0]
