"""The bottom-up statistics table against the per-level top-down build.

``build_stats`` sorts the points once, at the cap, takes each level's sums
from the sorted points and merges every coarser level's scatter from its
children.  The reference below is the build it
replaced: one grouped two-pass reduction over all n points per depth, then
a separate center-difference gain pass.  Both must give the same cells and
counts, and agree on centers, errors and gains to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rectree.kernels
from rectree.oracle import DiscreteDistribution, isolation_depth, oracle_stats
from rectree.stats import Dataset, build_stats
from rectree.tree import default_max_depth


def reference_levels(data, depth_cap):
    """(codes, counts, centers, errors, gains) per depth, rescanning the points per level."""
    dim, n = data.dim, data.n
    deep_codes = rectree.kernels.morton_encode(data.points, depth_cap)
    order = np.argsort(deep_codes, kind="stable")
    pts = np.ascontiguousarray(data.points[order])
    deep_codes = deep_codes[order]
    levels = []
    for depth in range(depth_cap + 1):
        codes = deep_codes >> (dim * (depth_cap - depth))
        starts = np.concatenate([[0], np.flatnonzero(np.diff(codes)) + 1])
        counts, sums, scatters = rectree.kernels.group_moments(pts, starts)
        means = sums / counts[:, None]
        levels.append([codes[starts], counts, means, scatters / n, None])
    for depth in range(depth_cap):
        lv, child = levels[depth], levels[depth + 1]
        pcodes = child[0] >> dim
        prow = np.searchsorted(lv[0], pcodes)
        diff_sq = ((child[2] - lv[2][prow]) ** 2).sum(axis=1)
        seg_starts = np.concatenate([[0], np.flatnonzero(np.diff(pcodes)) + 1])
        lv[4] = np.sqrt(np.add.reduceat(child[1] / n * diff_sq, seg_starts))
    return levels


def clustered_points(seed, dim, n_base, n_dup, n_triples):
    """Random points plus exact duplicates and triples one ulp apart in every coordinate.

    Triples are added only next to at least two spread points: a dataset
    that is nothing but a triple has E_root at the rounding scale of its own
    center, where neither build is accurate relative to E_root.
    """
    rng = np.random.default_rng(seed)
    base = rng.random((n_base, dim))
    parts = [base, base[rng.integers(0, n_base, size=n_dup)]]
    if n_base >= 2:
        for x in base[rng.integers(0, n_base, size=n_triples)] * 0.5:
            y = np.nextafter(x, 1.0)
            parts.append(np.stack([x, y, np.nextafter(y, 1.0)]))
    return np.concatenate(parts)


@st.composite
def datasets(draw):
    dim = draw(st.integers(1, 4))
    n_dup = draw(st.integers(0, 20))
    n_triples = draw(st.integers(0, 5))
    n_base = draw(st.integers(1, 300 - n_dup - 3 * n_triples))
    pts = clustered_points(draw(st.integers(0, 2**32 - 1)), dim, n_base, n_dup, n_triples)
    cap = draw(st.integers(0, default_max_depth(dim)))
    return Dataset(pts), cap


class TestAgainstTopDown:
    @given(datasets())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        data, cap = case
        table = build_stats(data, cap)
        ref = reference_levels(data, cap)
        tol = 1e-12 * ref[0][3][0]
        for depth, (codes, counts, centers, errors, gains) in enumerate(ref):
            lv = table.level(depth)
            assert lv.codes.dtype == np.int64 and np.array_equal(lv.codes, codes)
            assert lv.counts.dtype == counts.dtype and np.array_equal(lv.counts, counts)
            assert lv.centers.shape == centers.shape
            assert np.all(np.abs(lv.centers - centers) <= 1e-14)
            assert np.all(np.abs(lv.errors - errors) <= tol)
            if depth == cap:
                assert lv.gains is None
            else:
                assert np.all(np.abs(lv.gains**2 - gains**2) <= tol)

    @given(datasets())
    @settings(max_examples=100, deadline=None)
    def test_single_child_parent_is_its_child(self, case):
        data, cap = case
        table = build_stats(data, cap)
        for depth in range(cap):
            lv, child = table.level(depth), table.level(depth + 1)
            parent_codes, n_children = np.unique(child.codes >> data.dim, return_counts=True)
            assert np.array_equal(parent_codes, lv.codes)
            only = np.flatnonzero(n_children == 1)
            rows = np.searchsorted(child.codes >> data.dim, lv.codes[only])
            assert np.array_equal(lv.counts[only], child.counts[rows])
            assert np.array_equal(lv.centers[only], child.centers[rows])
            assert np.array_equal(lv.errors[only], child.errors[rows])


def test_merged_centers_are_correctly_rounded():
    # 256 parents at depth 9 in [0.5, 1), each with 5 points in its left child
    # and 11 in its right, on the 2^-49 grid: a parent's partial sums (< 16)
    # are exact, so its center must be fl(sum / 16), as one scan over the
    # points gives.  Sums rebuilt from child means, fl(fl(s / k) * k), miss
    # it in ~2.5% of the parents.
    rng = np.random.default_rng(0)
    pts = []
    for cell in range(256, 512):
        for child, k in ((2 * cell, 5), (2 * cell + 1, 11)):
            pts.append((child * 2**39 + rng.integers(0, 2**39, size=(k, 1))) / 2.0**49)
    data = Dataset(np.concatenate(pts))
    centers = reference_levels(data, 10)[9][2]
    assert np.array_equal(build_stats(data, 10).level(9).centers, centers)


def replicated(seed, dim, m, n):
    """Distinct atoms, each repeated (multiplicities summing to n), and their empirical measure."""
    rng = np.random.default_rng(seed)
    atoms = rng.random((m, dim))
    counts = np.ones(m, dtype=np.int64) + np.bincount(rng.integers(0, m, size=n - m), minlength=m)
    data = Dataset(np.repeat(atoms, counts, axis=0))
    return data, DiscreteDistribution(atoms, counts / n)


@pytest.mark.parametrize("dim,m,n", [(1, 5, 64), (2, 12, 256), (3, 30, 300), (4, 7, 128)])
def test_matches_oracle_on_exact_duplicates(dim, m, n):
    data, dist = replicated(dim * 100 + m, dim, m, n)
    cap = isolation_depth(dist) + 1
    table, oracle = build_stats(data, cap), oracle_stats(dist, cap)
    for depth in range(cap + 1):
        lv, lv_o = table.level(depth), oracle.level(depth)
        assert np.array_equal(lv.codes, lv_o.codes)
        assert np.all(np.abs(lv.counts / n - lv_o.counts) <= 1e-15)
        assert np.all(np.abs(lv.centers - lv_o.centers) <= 1e-15)
        assert np.all(np.abs(lv.errors - lv_o.errors) <= 1e-15)
        if depth < cap:
            assert np.all(np.abs(lv.gains - lv_o.gains) <= 1e-15)


def test_points_scanned_once(monkeypatch):
    """One grouped two-pass reduction over the n rows, at the deepest level.

    Coarser levels read the sorted points only for their sums
    (``np.add.reduceat``) and merge their scatters from their children.
    """
    calls = []
    group_moments = rectree.kernels.group_moments

    def counting(points, starts):
        calls.append(points.shape[0])
        return group_moments(points, starts)

    monkeypatch.setattr(rectree.kernels, "group_moments", counting)
    data = Dataset(np.random.default_rng(0).random((1000, 2)))
    build_stats(data, 9)
    assert calls == [data.n]
