"""Parabolic metric geometry: distance, cylinder coverings, the 5r Vitali
subcover, box-counting dimension, and upper Hausdorff-measure estimates.

A single spacetime point is an (x, t) pair; a set of points is a float
(m, 4) array with one row (x0, x1, x2, t) per point.  The parabolic distance
max(|x - y|, sqrt|t - s|) makes a cylinder of radius r comparable to a
metric ball of radius r, so covering counts N(r) ~ r^(-d) identify the
parabolic dimension d of a set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid_fields import ParabolicCylinder, _spacetime_points


def _spatial_dist(x1, x2, box_length: Optional[float] = None):
    """Euclidean distance over the last axis, taken to the nearest periodic
    image when a box length is given."""
    d = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    if box_length is not None:
        d -= box_length * np.round(d / box_length)
    return np.sqrt(np.sum(d * d, axis=-1))


def parabolic_distance(z1, z2, box_length: Optional[float] = None) -> float:
    """max(|x1 - x2|, sqrt|t1 - t2|) between two (x, t) points, with
    periodic spatial distance when a box length is given."""
    (x1, t1), (x2, t2) = z1, z2
    return float(max(_spatial_dist(x1, x2, box_length),
                     math.sqrt(abs(float(t1) - float(t2)))))


# ---------------------------------------------------------------------------
# Vitali 5r subcover
# ---------------------------------------------------------------------------

def _cylinders_disjoint(a: ParabolicCylinder, b: ParabolicCylinder,
                        box_length: Optional[float] = None) -> bool:
    """Disjointness of two (standard) parabolic cylinders: spatial balls
    disjoint, or time intervals disjoint."""
    if _spatial_dist(a.center_x, b.center_x, box_length) >= a.radius + b.radius:
        return True
    a_lo, a_hi = a.time_interval()
    b_lo, b_hi = b.time_interval()
    return a_hi <= b_lo or b_hi <= a_lo


def _contained_in_shifted_dilate(q: ParabolicCylinder, big: ParabolicCylinder,
                                 factor: float = 5.0,
                                 box_length: Optional[float] = None) -> bool:
    """Is Q contained in the shifted cylinder Q*(center(big), factor*r_big)?

    The dilate is the *shifted* cylinder B(x, R) x (t - 7R^2/8, t + R^2/8)
    with R = factor * r_big: the plain backward dilate cannot absorb the
    future part of neighbours, the shifted one can.
    """
    R = factor * big.radius
    if _spatial_dist(q.center_x, big.center_x, box_length) + q.radius > R + 1e-12:
        return False
    lo, hi = q.time_interval()
    big_lo = big.center_t - 0.875 * R * R
    big_hi = big.center_t + 0.125 * R * R
    return lo >= big_lo - 1e-12 and hi <= big_hi + 1e-12


def vitali_subcover(cylinders: Sequence[ParabolicCylinder],
                    box_length: Optional[float] = None) -> list:
    """Greedy-by-radius disjoint subfamily whose shifted 5r-dilates cover
    every input cylinder.

    Standard Vitali selection: walk the family in decreasing radius and
    keep each cylinder disjoint from everything already kept.  Any skipped
    cylinder meets a kept one of at least its radius, which places it
    inside that cylinder's shifted 5r-dilate.
    """
    order = sorted(range(len(cylinders)),
                   key=lambda i: (-cylinders[i].radius, i))
    selected: list = []
    for i in order:
        q = cylinders[i]
        if all(_cylinders_disjoint(q, s, box_length) for s in selected):
            selected.append(q)
    return selected


def verify_vitali(cylinders: Sequence[ParabolicCylinder],
                  selected: Sequence[ParabolicCylinder],
                  box_length: Optional[float] = None) -> dict:
    """Exhaustive check of the two Vitali postconditions."""
    disjoint = all(
        _cylinders_disjoint(a, b, box_length)
        for i, a in enumerate(selected) for b in selected[i + 1:]
    )
    covered = all(
        any(_contained_in_shifted_dilate(q, s, 5.0, box_length)
            for s in selected)
        for q in cylinders
    )
    return {"pairwise_disjoint": disjoint, "five_r_covers": covered}


# ---------------------------------------------------------------------------
# shifted cylinders
# ---------------------------------------------------------------------------

def shifted_cover(points: np.ndarray, r: float) -> list:
    """Shifted cylinders Q*(z, r) = B(x, r) x (t - 7r^2/8, t + r^2/8)
    centered at the rows of an (m, 4) point array."""
    pts = _spacetime_points(points)
    if r <= 0:
        raise ValueError("radius must be positive")
    return [ParabolicCylinder(tuple(x), t, float(r), shifted=True)
            for *x, t in pts.tolist()]


def contains_backward_half(qstar: ParabolicCylinder) -> bool:
    """Containment Q(z, r/2) subset of Q*(z, r) at the same center."""
    if not qstar.shifted:
        raise ValueError("expected a shifted cylinder")
    r = qstar.radius
    half = ParabolicCylinder(qstar.center_x, qstar.center_t, 0.5 * r)
    lo, hi = half.time_interval()
    big_lo, big_hi = qstar.time_interval()
    return lo >= big_lo and hi <= big_hi


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

@dataclass
class CoveringEstimate:
    """Greedy covering counts across dyadic scales with a fitted slope.

    slope is the least-squares fit of log N against log(1/r) over the
    three finest scales; measure_upper(alpha) is the alpha-gauge
    premeasure sum N(r) * r^alpha at the finest scale.
    """

    scales: list
    counts: list
    slope: float
    fit_residual: float

    def measure_upper(self, alpha: float) -> float:
        return self.counts[-1] * self.scales[-1] ** alpha

    def measure_trend(self, alpha: float) -> dict:
        """Per-scale premeasure sums and whether they decrease with scale
        (decreasing across scales is consistent with zero measure)."""
        sums = [n * r**alpha for r, n in zip(self.scales, self.counts)]
        decreasing = all(b <= a * (1.0 + 1e-12) for a, b in zip(sums, sums[1:]))
        return {"alpha": alpha, "sums": sums,
                "classification": "decreasing" if decreasing else "not-decreasing"}


def _greedy_scan(points: np.ndarray, r: float,
                 box_length: Optional[float] = None) -> int:
    """Number of parabolic balls of radius r a greedy cover of the (m, 4)
    point array needs: each ball is centred at the first point not yet
    covered.  Every ball tests every point."""
    xs, ts = points[:, :3], points[:, 3]
    alive = np.ones(len(points), dtype=bool)
    count = 0
    while np.any(alive):
        i = int(np.argmax(alive))
        dist = np.maximum(_spatial_dist(xs, xs[i], box_length),
                          np.sqrt(np.abs(ts - ts[i])))
        alive &= dist > r
        count += 1
    return count


def _greedy_count(points: np.ndarray, r: float,
                  box_length: Optional[float] = None) -> int:
    """The count of ``_greedy_scan``, with each ball testing only the points
    in the 3^4 space-time cells around its centre's cell.

    Cells have side s >= r in space and s^2 in time, so every point within
    parabolic distance r of a centre lies in a neighbouring cell.  The
    relative margin and an allowance of a few ulps of the largest coordinate
    (or box length) keep that true after rounding, and bound the cell
    indices by 2^48.  In a periodic box s = L / cells and spatial indices
    wrap mod cells; a box fewer than 3 cells wide falls back to the scan.
    The distances and the ``dist > r`` rule are the scan's, so the counts
    are equal.
    """
    reach = max(np.abs(points).max(), box_length or 0.0)
    side = np.array([r, r, r, r * r]) * (1.0 + 1e-6) + 16 * np.finfo(float).eps * reach
    wrap = [None] * 4
    if box_length is not None:
        cells = math.floor(box_length / side[0])
        if cells < 3:
            return _greedy_scan(points, r, box_length)
        side[:3] = box_length / cells
        wrap[:3] = [cells] * 3
    keys = np.floor(points / side).astype(np.int64)
    if box_length is not None:
        keys[:, :3] %= cells
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)])
    bounds = zip(starts.tolist(), starts[1:].tolist() + [len(order)])
    table = {tuple(k): order[a:b] for k, (a, b) in zip(sorted_keys[starts].tolist(), bounds)}

    def around(k, n):
        return (k - 1, k, k + 1) if n is None else ((k - 1) % n, k, (k + 1) % n)

    xs, ts = points[:, :3], points[:, 3]
    alive = np.ones(len(points), dtype=bool)
    count, i = 0, 0
    while alive[i]:
        near = map(table.get, itertools.product(*map(around, keys[i].tolist(), wrap)))
        cand = np.concatenate([p for p in near if p is not None])
        dist = np.maximum(_spatial_dist(xs[cand], xs[i], box_length),
                          np.sqrt(np.abs(ts[cand] - ts[i])))
        alive[cand] &= dist > r
        count += 1
        i += int(alive[i:].argmax())
    return count


def dimension_estimate(points: np.ndarray, scales: Sequence[float],
                       box_length: Optional[float] = None) -> CoveringEstimate:
    """Greedy covering counts of a finite spacetime point set, an (m, 4)
    array of (x0, x1, x2, t) rows, over the given scales, plus the
    box-counting slope from the three finest scales.

    scales must contain at least 3 distinct values; they are processed in
    decreasing order.  Temporal resolution is r^2, so scales should satisfy
    r^2 >= the point spacing in time for meaningful counts.
    """
    pts = _spacetime_points(points)
    if not len(pts):
        raise ValueError("point set must be nonempty")
    rs = sorted(set(float(r) for r in scales), reverse=True)
    if len(rs) < 3:
        raise ValueError("need at least 3 distinct scales")
    if any(r <= 0 for r in rs):
        raise ValueError("scales must be positive")
    counts = [_greedy_count(pts, r, box_length) for r in rs]
    xs = np.log(1.0 / np.array(rs[-3:]))
    ys = np.log(np.array(counts[-3:], dtype=float))
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(coef[0])
    residual = float(res[0]) if len(res) else 0.0
    return CoveringEstimate(
        scales=rs, counts=counts, slope=slope, fit_residual=residual,
    )
