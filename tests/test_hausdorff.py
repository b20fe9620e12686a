"""Parabolic metric, Vitali selection, and box-counting dimension estimates
against sets of known dimension."""

import numpy as np
import pytest

from cnsflow import hausdorff
from cnsflow import (
    ParabolicCylinder,
    contains_backward_half,
    dimension_estimate,
    parabolic_distance,
    shifted_cover,
    verify_vitali,
    vitali_subcover,
)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_distance_examples():
    a = ((0.0, 0.0, 0.0), 0.0)
    b = ((0.3, 0.0, 0.0), 0.04)
    # spatial 0.3 vs temporal sqrt(0.04) = 0.2
    assert abs(parabolic_distance(a, b) - 0.3) < 1e-15
    c = ((0.1, 0.0, 0.0), 0.09)
    assert abs(parabolic_distance(a, c) - 0.3) < 1e-15


def test_distance_periodic_wrap():
    a = ((0.05, 0.0, 0.0), 0.0)
    b = ((0.95, 0.0, 0.0), 0.0)
    assert abs(parabolic_distance(a, b, box_length=1.0) - 0.1) < 1e-12
    assert abs(parabolic_distance(a, b) - 0.9) < 1e-12


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(0)
    pts = [((rng.uniform(), rng.uniform(), rng.uniform()),
            rng.uniform(-1.0, 0.0)) for _ in range(60)]
    bad = 0
    for i in range(0, 60, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        if (parabolic_distance(a, c, 1.0)
                > parabolic_distance(a, b, 1.0)
                + parabolic_distance(b, c, 1.0) + 1e-12):
            bad += 1
    assert bad == 0


# ---------------------------------------------------------------------------
# Vitali selection
# ---------------------------------------------------------------------------

def test_vitali_single_cylinder():
    q = ParabolicCylinder((0.5, 0.5, 0.5), 0.0, 0.1)
    sel = vitali_subcover([q])
    assert sel == [q]
    rep = verify_vitali([q], sel)
    assert rep["pairwise_disjoint"] and rep["five_r_covers"]


def test_vitali_disjoint_family_kept_whole():
    cyls = [ParabolicCylinder((0.1 + 0.25 * i, 0.1, 0.1), 0.0, 0.05)
            for i in range(3)]
    sel = vitali_subcover(cyls)
    assert len(sel) == 3


def test_vitali_random_family_postconditions():
    rng = np.random.default_rng(42)
    cyls = [
        ParabolicCylinder(tuple(rng.uniform(0.0, 1.0, 3)),
                          rng.uniform(-0.5, 0.0),
                          rng.uniform(0.01, 0.08))
        for _ in range(200)
    ]
    sel = vitali_subcover(cyls, box_length=1.0)
    rep = verify_vitali(cyls, sel, box_length=1.0)
    assert rep["pairwise_disjoint"]
    assert rep["five_r_covers"]
    assert 0 < len(sel) < 200


def test_shifted_cover_contains_backward_half():
    pts = np.array([[0.5, 0.5, 0.5, -0.1], [0.2, 0.8, 0.4, 0.0]])
    for q in shifted_cover(pts, 0.07):
        assert q.shifted
        assert contains_backward_half(q)


def test_shifted_cover_rejects_bad_radius():
    with pytest.raises(ValueError):
        shifted_cover(np.zeros((1, 4)), -0.1)


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------

def test_dimension_singleton_is_zero():
    est = dimension_estimate(np.tile([0.5, 0.5, 0.5, 0.0], (5, 1)),
                             [0.25, 0.125, 0.0625])
    assert est.counts == [1, 1, 1]
    assert abs(est.slope) <= 0.1


def test_dimension_spatial_segment_is_one():
    pts = np.zeros((1000, 4))
    pts[:, 0] = np.linspace(0.0, 1.0, 1000)
    scales = [2.0**-k for k in range(2, 8)]
    est = dimension_estimate(pts, scales)
    assert abs(est.slope - 1.0) <= 0.15


def test_dimension_temporal_segment_is_two():
    # a time interval has parabolic dimension 2 (r covers r^2 in time)
    pts = np.zeros((1000, 4))
    pts[:, 3] = np.linspace(-1.0, 0.0, 1000)
    scales = [2.0**-k for k in range(1, 6)]
    est = dimension_estimate(pts, scales)
    assert abs(est.slope - 2.0) <= 0.2


def test_dimension_spatial_plane_is_two():
    xs = np.linspace(0.0, 1.0, 96)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.zeros((X.size, 4))
    pts[:, 0], pts[:, 1] = X.ravel(), Y.ravel()
    scales = [2.0**-k for k in range(2, 6)]
    est = dimension_estimate(pts, scales)
    assert abs(est.slope - 2.0) <= 0.2


def test_dimension_spatial_cube_is_three():
    xs = np.linspace(0.0, 1.0, 28)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    pts = np.zeros((X.size, 4))
    pts[:, 0], pts[:, 1], pts[:, 2] = X.ravel(), Y.ravel(), Z.ravel()
    est = dimension_estimate(pts, [0.25, 0.125, 0.0625])
    assert abs(est.slope - 3.0) <= 0.2


def test_counts_monotone_under_subset():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (500, 4))
    pts[:, 3] = -pts[:, 3] ** 2
    sub = pts[:200]
    scales = [0.25, 0.125, 0.0625]
    full = dimension_estimate(pts, scales)
    part = dimension_estimate(sub, scales)
    for a, b in zip(part.counts, full.counts):
        assert a <= b


def test_measure_gauges():
    pts = np.zeros((1000, 4))
    pts[:, 0] = np.linspace(0.0, 1.0, 1000)
    scales = [2.0**-k for k in range(2, 8)]
    est = dimension_estimate(pts, scales)
    # premeasure is nonincreasing in alpha at fixed scale
    assert est.measure_upper(1.0) >= est.measure_upper(2.0)
    # above the true dimension the premeasure decays with the scale
    assert est.measure_trend(2.0)["classification"] == "decreasing"


def test_dimension_requires_three_scales():
    with pytest.raises(ValueError):
        dimension_estimate(np.zeros((1, 4)), [0.5, 0.25])


def test_point_sets_must_be_m_by_4():
    pairs = [((0.5, 0.5, 0.5), 0.0), ((0.2, 0.8, 0.4), 0.0)]
    for bad in (pairs, np.zeros((3, 3)), np.zeros(4)):
        with pytest.raises(ValueError):
            dimension_estimate(bad, [0.25, 0.125, 0.0625])
        with pytest.raises(ValueError):
            shifted_cover(bad, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dimension_rejects_non_finite_points(bad):
    pts = np.array([[0.1, 0.1, 0.1, 0.0], [0.9, 0.9, 0.9, 0.0],
                    [bad, 0.5, 0.5, 0.0], [0.5, 0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        dimension_estimate(pts, [0.25, 0.125, 0.0625])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_shifted_cover_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="non-finite"):
        shifted_cover(np.array([[0.5, 0.5, 0.5, 0.0], [0.2, 0.8, 0.4, bad]]), 0.1)


def _oracle_counts(pts, scales, box_length=None):
    """Greedy cover over the full pairwise parabolic-distance matrix."""
    d = pts[None, :, :3] - pts[:, None, :3]
    if box_length is not None:
        d -= box_length * np.round(d / box_length)
    dist = np.maximum(np.sqrt(np.sum(d * d, axis=2)),
                      np.sqrt(np.abs(pts[None, :, 3] - pts[:, None, 3])))
    counts = []
    for r in sorted(scales, reverse=True):
        alive = np.ones(len(pts), dtype=bool)
        count = 0
        for i in range(len(pts)):
            if alive[i]:
                alive &= dist[i] > r
                count += 1
        counts.append(count)
    return counts


def test_periodic_counts_match_pairwise_oracle():
    rng = np.random.default_rng(11)
    L, scales = 1.0, [0.25, 0.125, 0.0625]
    pts = np.column_stack([rng.uniform(0.0, L, (300, 3)),
                           rng.uniform(-0.05, 0.0, 300)])
    assert dimension_estimate(pts, scales, box_length=L).counts \
        == _oracle_counts(pts, scales, L)

    # a set straddling the seam: every coordinate within 0.1 of 0 = L
    seam = pts.copy()
    seam[:, :3] = (rng.uniform(-0.1, 0.1, (300, 3))) % L
    counts = dimension_estimate(seam, scales, box_length=L).counts
    assert counts == _oracle_counts(seam, scales, L)
    assert counts != dimension_estimate(seam, scales).counts  # wrapping matters
    moved = seam.copy()
    moved[:, :3] = (seam[:, :3] + 0.5 * L) % L
    assert dimension_estimate(moved, scales, box_length=L).counts == counts


def test_open_counts_match_pairwise_oracle():
    rng = np.random.default_rng(12)
    scales = [0.25, 0.125, 0.0625, 0.03125]
    pts = np.column_stack([rng.uniform(0.0, 1.0, (400, 3)),
                           rng.uniform(-0.05, 0.0, 400)])
    assert dimension_estimate(pts, scales).counts == _oracle_counts(pts, scales)


def test_out_of_box_coordinates_match_pairwise_oracle():
    # negative coordinates and coordinates beyond L, open and wrapped
    rng = np.random.default_rng(13)
    L, scales = 1.0, [0.3, 0.15, 0.075]
    pts = np.column_stack([rng.uniform(-1.5, 2.5, (400, 3)),
                           rng.uniform(-0.3, 0.2, 400)])
    for box_length in (None, L):
        assert dimension_estimate(pts, scales, box_length=box_length).counts \
            == _oracle_counts(pts, scales, box_length)


def test_narrow_box_falls_back_to_scan(monkeypatch):
    # L / r = 2.5: fewer than 3 cells across, so no cell list
    calls, scan = [], hausdorff._greedy_scan

    def spy(points, r, box_length=None):
        calls.append(r)
        return scan(points, r, box_length)

    monkeypatch.setattr(hausdorff, "_greedy_scan", spy)
    rng = np.random.default_rng(14)
    L, scales = 1.0, [0.4, 0.2, 0.1]
    pts = np.column_stack([rng.uniform(0.0, L, (300, 3)),
                           rng.uniform(-0.2, 0.0, 300)])
    assert dimension_estimate(pts, scales, box_length=L).counts \
        == _oracle_counts(pts, scales, L)
    assert calls == [0.4]


def test_exact_distance_ties_match_pairwise_oracle():
    # a dyadic lattice spaced r/2 in space and r^2 in time: many pairs are
    # at parabolic distance exactly r, and only `dist > r` keeps them apart
    r, L = 0.125, 0.5
    ax = np.arange(8) * (r / 2)
    X0, X1, X2, T = np.meshgrid(ax, ax, ax[:2], -np.arange(5) * r * r, indexing="ij")
    pts = np.column_stack([X0.ravel(), X1.ravel(), X2.ravel(), T.ravel()])
    pts = pts[np.random.default_rng(15).permutation(len(pts))]
    scales = [2 * r, r, r / 2]
    for box_length in (None, L):
        assert dimension_estimate(pts, scales, box_length=box_length).counts \
            == _oracle_counts(pts, scales, box_length)


def _scan_counts(pts, scales, box_length=None):
    return [hausdorff._greedy_scan(pts, r, box_length)
            for r in sorted(scales, reverse=True)]


def test_large_sets_match_the_scan():
    # 2e4-point sets like the benchmark's, too large for the pairwise oracle:
    # a circle of radius 1/4 at one time, and a time segment at one point
    rng = np.random.default_rng(16)
    m = 20_000
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    circle = np.zeros((m, 4))
    circle[:, :3] = rng.uniform(0.3, 0.7, 3) + 0.25 * (
        np.cos(theta)[:, None] * q[:, 0] + np.sin(theta)[:, None] * q[:, 1])
    circle[:, 3] = rng.uniform()
    scales = [2.0**-k for k in range(3, 7)]
    for box_length in (None, 1.0):
        assert dimension_estimate(circle, scales, box_length=box_length).counts \
            == _scan_counts(circle, scales, box_length)
    segment = np.tile(np.append(rng.uniform(0.0, 1.0, 3), 0.0), (m, 1))
    segment[:, 3] = np.sort(rng.uniform() + rng.uniform(0.0, 1.0, m))
    scales = [2.0**-k for k in range(2, 6)]
    assert dimension_estimate(segment, scales).counts == _scan_counts(segment, scales)
