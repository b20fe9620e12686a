"""Correctness checks of the benchmark, written apart from cnsflow.

Every check here uses numpy and the standard library only: snapshots are
parsed from the documented CNS1 byte layout, CSVs with the csv module, and
every spectral operation, ball stencil and quadrature is computed afresh.
A check returns ``(ok, detail)``; it never raises on a wrong value.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def read_cns1(path) -> dict:
    """Parse one CNS1 snapshot: magic, N (u32), L and t (f64), then
    n, c, u1, u2, u3, P as N^3 little-endian float64 arrays."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"CNS1":
        raise ValueError(f"{path}: not a CNS1 snapshot")
    (n,) = struct.unpack("<I", raw[4:8])
    box_length, t = struct.unpack("<dd", raw[8:24])
    data = np.frombuffer(raw, dtype="<f8", offset=24)
    if data.size != 6 * n**3:
        raise ValueError(f"{path}: {data.size} values, expected {6 * n**3}")
    fields = data.reshape(6, n, n, n)
    return {"N": n, "L": box_length, "t": t, "n": fields[0], "c": fields[1],
            "u": fields[2:5], "p": fields[5]}


def csv_records(path) -> list:
    """CSV rows as dicts of floats (non-numeric cells kept as strings)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))

    def conv(v):
        try:
            return float(v)
        except ValueError:
            return v

    return [{k: conv(v) for k, v in zip(rows[0], row)} for row in rows[1:]]


# ---------------------------------------------------------------------------
# spectral helpers (real transforms, independent of the program's calculus)
# ---------------------------------------------------------------------------


def _wavenumbers(n: int, box_length: float):
    k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=box_length / n)
    k_half = 2.0 * np.pi * np.fft.rfftfreq(n, d=box_length / n)
    return (k_full.reshape(-1, 1, 1), k_full.reshape(1, -1, 1),
            k_half.reshape(1, 1, -1))


def _two_thirds_mask(n: int, box_length: float):
    kx, ky, kz = _wavenumbers(n, box_length)
    k_max = np.pi * n / box_length
    lim = (2.0 / 3.0) * k_max
    return (np.abs(kx) <= lim) & (np.abs(ky) <= lim) & (np.abs(kz) <= lim)


def max_divergence(u: np.ndarray, box_length: float) -> float:
    n = u.shape[-1]
    ks = _wavenumbers(n, box_length)
    div_hat = sum(1j * k * np.fft.rfftn(u[i]) for i, k in enumerate(ks))
    return float(np.max(np.abs(np.fft.irfftn(div_hat, s=u.shape[1:], axes=(0, 1, 2)))))


def poisson_pressure(n_field, u, box_length: float, gravity: float) -> np.ndarray:
    """Zero-mean periodic solve of -Lap P = d_i d_j (u_i u_j) + div(n grad phi)
    with grad phi = (0, 0, -gravity) and 2/3-rule products."""
    n = u.shape[-1]
    ks = _wavenumbers(n, box_length)
    mask = _two_thirds_mask(n, box_length)
    rhs = np.zeros(mask.shape, dtype=complex)
    for i in range(3):
        for j in range(3):
            rhs -= ks[i] * ks[j] * mask * np.fft.rfftn(u[i] * u[j])
    rhs += 1j * ks[2] * mask * np.fft.rfftn(-gravity * n_field)
    k_sq = ks[0] ** 2 + ks[1] ** 2 + ks[2] ** 2
    p_hat = np.divide(rhs, k_sq, out=np.zeros_like(rhs), where=k_sq > 0)
    return np.fft.irfftn(p_hat, s=u.shape[1:], axes=(0, 1, 2))


# ---------------------------------------------------------------------------
# ball stencils and cylinder quadrature
# ---------------------------------------------------------------------------


def ball(n: int, box_length: float, center, radius: float) -> np.ndarray:
    """Cells whose centre lies strictly inside B_r(center), periodically.

    A centre on a grid point is handled in integer offsets against one
    rounded (r/h)^2, so the stencil is the same at every grid point; other
    centres use floating minimum-image distances.
    """
    h = box_length / n
    idx = np.arange(n)
    grid_index = [c / h for c in center]
    if all(abs(g - round(g)) < 1e-9 for g in grid_index):
        q = (radius / h) ** 2
        if abs(q - round(q)) < 1e-9:
            q = round(q)
        d2 = np.zeros((n, n, n))
        for axis, g in enumerate(grid_index):
            off = (idx - int(round(g)) + n // 2) % n - n // 2
            shape = [1, 1, 1]
            shape[axis] = n
            d2 = d2 + (off**2).reshape(shape)
        return d2 < q
    d2 = np.zeros((n, n, n))
    for axis, c in enumerate(center):
        off = (idx * h - c + 0.5 * box_length) % box_length - 0.5 * box_length
        shape = [1, 1, 1]
        shape[axis] = n
        d2 = d2 + (off**2).reshape(shape)
    return d2 < radius**2


def time_integral(times, values, t_lo: float, t_hi: float) -> float:
    """Exact integral over [t_lo, t_hi] of the piecewise-linear interpolant
    of ``values`` sampled at ``times``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    total = 0.0
    for i in range(len(times) - 1):
        a, b = max(times[i], t_lo), min(times[i + 1], t_hi)
        if b <= a:
            continue
        slope = (values[i + 1] - values[i]) / (times[i + 1] - times[i])
        ga = values[i] + slope * (a - times[i])
        gb = values[i] + slope * (b - times[i])
        total += 0.5 * (b - a) * (ga + gb)
    return total


def velocity_quantities(snaps: list, center, t0: float, radius: float) -> dict:
    """a_u = r^-1 sup_t int_B |u|^2 and c_u = r^-2 int_Q |u|^3 over the
    backward cylinder Q_r(center, t0), from parsed CNS1 snapshots."""
    n, box_length = snaps[0]["N"], snaps[0]["L"]
    vol = (box_length / n) ** 3
    mask = ball(n, box_length, center, radius)
    t_lo = t0 - radius**2
    eps = 1e-12 * max(1.0, abs(snaps[-1]["t"] - snaps[0]["t"]))
    times, cubic, sup_sq = [], [], 0.0
    for s in snaps:
        speed_sq = np.sum(s["u"] ** 2, axis=0)[mask]
        times.append(s["t"])
        cubic.append(float(np.sum(speed_sq**1.5) * vol))
        if t_lo - eps <= s["t"] <= t0 + eps:
            sup_sq = max(sup_sq, float(np.sum(speed_sq) * vol))
    return {"a_u": sup_sq / radius,
            "c_u": time_integral(times, cubic, t_lo, t0) / radius**2}


def _derivative_sums(snap):
    """|grad sqrt n|^2 and |grad u|^2 + |Hess sqrt c|^2 of one snapshot."""
    n = snap["N"]
    ks = _wavenumbers(n, snap["L"])

    def inv(a):
        return np.fft.irfftn(a, s=(n,) * 3, axes=(0, 1, 2))

    sn = np.fft.rfftn(np.sqrt(np.maximum(snap["n"], 0.0)))
    sc = np.fft.rfftn(np.sqrt(np.maximum(snap["c"], 0.0)))
    grad_sn = sum(inv(1j * k * sn) ** 2 for k in ks)
    grad_u = sum(inv(1j * k * np.fft.rfftn(comp)) ** 2 for comp in snap["u"] for k in ks)
    hess_sc = sum(inv(-ks[i] * ks[j] * sc) ** 2 for i in range(3) for j in range(3))
    return grad_sn, grad_u + hess_sc


def thm13_lattice(snaps, t_last: float, radii, stride: int, delta0: float) -> np.ndarray:
    """The thm13 functional, max over radii of r^(-1-delta0) int_Q |grad sqrt n|^2
    + r^-1 int_Q (|grad u|^2 + |Hess sqrt c|^2), at every ``stride``-th grid
    point, ordered (x, y, z).  Ball sums are periodic convolutions with the
    grid-centred stencil; time integrals use the piecewise-linear rule."""
    n, box = snaps[0]["N"], snaps[0]["L"]
    h = box / n
    times = [s["t"] for s in snaps]
    dens = [_derivative_sums(s) for s in snaps]
    sel = np.ix_(*[np.arange(0, n, stride)] * 3)
    best = None
    for r in radii:
        kernel = np.fft.rfftn(ball(n, box, (0.0, 0.0, 0.0), r).astype(float))
        sums = [[np.fft.irfftn(np.fft.rfftn(d) * kernel, s=(n,) * 3, axes=(0, 1, 2))[sel]
                 * h**3 for d in pair] for pair in dens]
        val = np.empty(sums[0][0].shape)
        for p in np.ndindex(val.shape):
            i_n = time_integral(times, [b[0][p] for b in sums], t_last - r * r, t_last)
            i_uc = time_integral(times, [b[1][p] for b in sums], t_last - r * r, t_last)
            val[p] = r ** (-1.0 - delta0) * i_n + i_uc / r
        best = val if best is None else np.maximum(best, val)
    return best.ravel()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_mass(n_fields, cell_volume: float, tol: float = 1e-8):
    masses = [float(np.sum(f) * cell_volume) for f in n_fields]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    return drift <= tol, f"relative mass drift {drift:.3e} (limit {tol:g})"


def check_divergence(u_fields, box_length: float, tol: float = 1e-10):
    worst = max(max_divergence(u, box_length) for u in u_fields)
    return worst <= tol, f"max |div u| {worst:.3e} (limit {tol:g})"


def check_bounds(states, c0_max: float):
    """0 <= c <= c0_max, n >= 0 and every value finite."""
    for s in states:
        arrays = (s["n"], s["c"], s["u"], s["p"])
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return False, f"non-finite value at t={s['t']}"
        if np.min(s["n"]) < 0.0:
            return False, f"min n {np.min(s['n']):.3e} < 0 at t={s['t']}"
        c_lo, c_hi = float(np.min(s["c"])), float(np.max(s["c"]))
        if c_lo < 0.0 or c_hi > c0_max:
            return False, f"c in [{c_lo}, {c_hi}] outside [0, {c0_max}]"
    return True, f"{len(states)} states within bounds"


def check_pressure(p, p_ref, tol: float = 1e-10):
    err = float(np.max(np.abs(p - p_ref)) / max(np.max(np.abs(p_ref)), 1e-300))
    return err <= tol, f"pressure vs independent Poisson solve: {err:.3e} (limit {tol:g})"


def check_close(name: str, value: float, reference: float, rel: float = 0.02):
    err = abs(value - reference) / max(abs(reference), 1e-300)
    return err <= rel, f"{name} {value:.6e} vs quadrature {reference:.6e}: {err:.2%} (limit {rel:.0%})"


_SUMS = {
    "a_combined": ("a_u", "a_grad_sqrt_c", "a_sqrt_n"),
    "e_combined": ("e_u", "e_grad_sqrt_c", "e_sqrt_n"),
    "c_combined": ("c_u", "c_sqrt_n", "c_grad_sqrt_c"),
    "g": ("n_entropy", "d", "c_combined"),
}


def check_combined(records, rel: float = 1e-12):
    """Each combined quantity and g equal the sums that define them."""
    for rec in records:
        for total, parts in _SUMS.items():
            want = sum(rec[p] for p in parts)
            if abs(rec[total] - want) > rel * max(abs(want), 1e-300):
                return False, f"{total}={rec[total]!r} but parts sum to {want!r} at r={rec['r']}"
    return True, f"{len(records)} rows: combined quantities and g match their sums"


def lei_check(record: dict, tol_scale: float = 1e-4):
    """Residual >= -tol_scale (1 + max |term|), and residual = rhs - lhs."""
    lhs = [v for k, v in record.items() if k.startswith("lhs_")]
    rhs = [v for k, v in record.items() if k.startswith("rhs_")]
    biggest = max(abs(v) for v in lhs + rhs)
    residual = record["residual"]
    if abs(residual - (sum(rhs) - sum(lhs))) > 1e-9 * (1.0 + biggest):
        return False, f"residual {residual!r} != rhs - lhs {sum(rhs) - sum(lhs)!r}"
    floor = -tol_scale * (1.0 + biggest)
    return residual >= floor, f"LEI residual {residual:.3e} (floor {floor:.3e})"


def check_flag_rows(records):
    """Every flag row has value > threshold and margin = value / threshold."""
    for rec in records:
        thr = rec["working_threshold"]
        if not rec["value"] > thr:
            return False, f"flag value {rec['value']!r} <= threshold {thr!r}"
        want = rec["value"] / thr
        if abs(rec["margin"] - want) > 1e-12 * abs(want):
            return False, f"margin {rec['margin']!r} != value/threshold {want!r}"
    return True, f"{len(records)} flag rows consistent"


def check_flag_set(records, values, threshold: float, spacing: float, rel: float = 1e-9):
    """The flagged lattice centres are exactly those whose own thm13 value
    exceeds the threshold, and each flagged value agrees with its own value
    to 1e-6.  ``values`` are ordered as ``thm13_lattice`` returns them;
    values within ``rel`` of the threshold are not judged."""
    m = round(len(values) ** (1.0 / 3.0))
    own = values.reshape(m, m, m)
    flagged = {}
    for rec in records:
        flagged[tuple(round(rec[k] / spacing) for k in ("x0", "x1", "x2"))] = rec["value"]
    for idx in np.ndindex(own.shape):
        v = own[idx]
        if idx in flagged and abs(flagged[idx] - v) > 1e-6 * v:
            return False, f"centre {idx}: flag value {flagged[idx]:.6e}, own value {v:.6e}"
        if abs(v - threshold) > rel * threshold and (v > threshold) != (idx in flagged):
            return False, (f"centre {idx}: own value {v:.6e}, threshold {threshold:.6e}, "
                           f"flagged {idx in flagged}")
    return True, f"{len(flagged)} of {own.size} flagged centres match the own thm13 values"


def check_flagged_share(flagged: int, centres: int):
    ok = 0 < flagged < centres
    return ok, f"{flagged} of {centres} centres flagged"


def check_counts_monotone(records):
    """Covering counts do not decrease as the scale shrinks."""
    pairs = sorted(((r["scale"], r["value"]) for r in records if r["kind"] == "count"),
                   reverse=True)
    counts = [c for _, c in pairs]
    if len(counts) < 2:
        return False, f"only {len(counts)} covering counts"
    ok = all(b >= a for a, b in zip(counts, counts[1:]))
    return ok, f"counts by shrinking scale {counts}"


def check_slope(records, expected: float, tol: float):
    slopes = [r["value"] for r in records if r["kind"] == "slope"]
    if len(slopes) != 1:
        return False, f"{len(slopes)} slope rows"
    ok = abs(slopes[0] - expected) <= tol
    return ok, f"covering slope {slopes[0]:.4f} (expected {expected} +- {tol})"


def check_limit(records, kind: str, limit: float):
    """The value of the row of the given kind is at most ``limit``."""
    values = [r["value"] for r in records if r["kind"] == kind]
    if len(values) != 1:
        return False, f"{len(values)} {kind} rows"
    return values[0] <= limit, f"{kind} {values[0]:.3e} (limit {limit:g})"


def check_identical(rows: list, rel: float = 1e-9):
    """All dicts of cylinder quantities agree, up to ``rel`` times the
    largest magnitude (derivatives of constants are rounding noise)."""
    names = sorted(rows[0])
    scale = max(abs(r[k]) for r in rows for k in names)
    worst, where = 0.0, None
    for k in names:
        vals = [r[k] for r in rows]
        spread = max(vals) - min(vals)
        if spread > worst:
            worst, where = spread, k
    ok = worst <= rel * scale
    return ok, f"largest spread {worst:.3e} in {where} (limit {rel * scale:.3e})"
