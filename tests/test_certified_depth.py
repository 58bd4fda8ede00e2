"""The certified statistics depth and the run-table quantizer against their references.

``build_stats(data, cap, eta)`` stops at the first depth where
``gain_bound`` puts every cell below eta; the reference is the table built
to ``cap``.  Both must give the same leaves and code vectors at eta.  A
``Quantizer`` finds a point's leaf with one search over sorted runs of
deepest-level codes; the reference is the per-depth search over
``tables()`` it replaced.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree import kernels
from rectree.errors import DepthCapError
from rectree.reconstruction import Quantizer, fit, load_codebook, quantizer_from_stats, RateSchedule
from rectree.stats import Dataset, build_stats, gain_bound
from rectree.kernels import default_max_depth
from rectree.tree import CellId, cell_to_code


def corner_pair(rng, depth, dim, copies):
    """``copies`` points at a cell's lower corner, as many at the last double below its upper one.

    Such a cell sits on the bound: its variance is side**2 / 4 per coordinate.
    """
    k = rng.integers(0, 1 << depth, size=dim)
    lower = k * 2.0**-depth
    upper = np.nextafter((k + 1) * 2.0**-depth, 0.0)
    return np.repeat(np.stack([lower, upper]), copies, axis=0)


@st.composite
def on_bound_data(draw):
    dim = draw(st.integers(1, 4))
    cap = draw(st.integers(1, default_max_depth(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [rng.random((draw(st.integers(0, 150)), dim))]
    for _ in range(draw(st.integers(1, 4))):
        depth, copies = draw(st.integers(0, cap)), draw(st.integers(1, 4))
        parts.append(corner_pair(rng, depth, dim, copies))
    return Dataset(np.concatenate(parts)), cap


def thresholds(table, data):
    """From root-only to near full depth, through ties at the gains of cells on their bound."""
    gains = np.concatenate([table.level(d).gains for d in range(table.depth_cap)])
    positive = np.unique(gains[gains > 0])
    etas = [2.0 * gain_bound(1.0, 0, data.dim), float(positive.min()) if positive.size else 1.0]
    etas += np.quantile(positive, [0.1, 0.5, 0.9]).tolist() if positive.size else []
    tight = []
    for d in range(table.depth_cap):
        lv = table.level(d)
        bound = gain_bound(lv.counts / data.n, d, data.dim)
        on = lv.gains >= 0.99 * bound
        tight += lv.gains[on].tolist()
        tight += (np.sqrt(lv.counts[on] / data.n * data.dim) * 2.0 ** -(d + 1)).tolist()
    for value in sorted(set(tight) - {0.0})[-8:]:
        etas += [value, float(np.nextafter(value, 0.0)), float(np.nextafter(value, 2.0))]
    return etas


def assert_certified_matches_full(data, cap):
    full = build_stats(data, cap)
    for eta in thresholds(full, data):
        cert = build_stats(data, cap, eta)
        depth = cert.depth_cap
        assert 1 <= depth <= cap
        # The certificate holds for the gains as computed: none at or below j* reaches eta.
        for d in range(depth, cap):
            assert np.all(full.level(d).gains < eta)
        # Sums are taken per level, so a center or gain does not depend on where the table stops.
        for d in range(depth + 1):
            mine, ref = cert.level(d), full.level(d)
            assert np.array_equal(mine.codes, ref.codes)
            assert np.array_equal(mine.counts, ref.counts)
            assert np.array_equal(mine.centers, ref.centers)
            if d < depth:
                assert np.array_equal(mine.gains, ref.gains)
        got = quantizer_from_stats(cert, eta).tables()
        want = quantizer_from_stats(full, eta).tables()
        assert list(got) == list(want)
        for d in want:
            assert np.array_equal(got[d][0], want[d][0])
            assert np.all(np.abs(got[d][1] - want[d][1]) <= 1e-15)


@given(on_bound_data())
@settings(max_examples=150, deadline=None)
def test_certified_build_matches_full_build(case):
    assert_certified_matches_full(*case)


@pytest.mark.parametrize("copies", [1000, 4000])
@pytest.mark.parametrize("seed", [0, 1])
def test_heavy_deep_cell_on_its_bound(seed, copies):
    # Thousands of points at both corners of one depth-30 cell: its center
    # is a long sequential sum, rounded on the scale of the cell's side.
    rng = np.random.default_rng(seed)
    data = Dataset(np.concatenate([rng.random((100, 1)), corner_pair(rng, 30, 1, copies)]))
    assert_certified_matches_full(data, 32)


def test_certified_depth_stops_where_every_cell_fails():
    # 2**12 evenly spread points in D = 1: a depth-j cell holds 2**-j of them,
    # so its bound is 2**-(1.5 j + 1) (1 + margin).
    data = Dataset(((np.arange(4096) + 0.5) / 4096)[:, None])
    assert build_stats(data, 12, 2.0**-7).depth_cap == 5
    assert build_stats(data, 12, 2.0**-8).depth_cap == 5
    # Within the margin above the depth-5 bound, depth 5 still counts as
    # reachable; a depth-5 cell sums 128 points, so the margin is 129 * 2**-42.
    margin = 129 * 2.0**-42
    assert build_stats(data, 12, 2.0**-8.5 * (1 + margin / 2)).depth_cap == 6
    assert build_stats(data, 12, 2.0**-8.5 * (1 + 2 * margin)).depth_cap == 5
    # A cell whose bound equals eta may still reach it (ties expand).
    assert build_stats(data, 12, float(gain_bound(2.0**-5, 5, 1, 128))).depth_cap == 6
    assert build_stats(data, 12, 10.0).depth_cap == 1
    assert build_stats(data, 3, 1e-9).depth_cap == 3
    assert build_stats(data, 0, 10.0).depth_cap == 0
    # A cap beyond the storable depth is refused only when eta is not certified above it.
    assert build_stats(data, 40, 2.0**-7).depth_cap == 5
    with pytest.raises(DepthCapError):
        build_stats(data, 40, 1e-12)
    with pytest.raises(DepthCapError):
        build_stats(data, 40)


def per_depth_assign(tables, dim, points):
    """The leaf search the run table replaced: one search per depth, deepest code shifted."""
    deepest = max(tables)
    deep = kernels.morton_encode(points, deepest)
    depths = np.full(points.shape[0], -1, dtype=np.int64)
    codes = np.zeros(points.shape[0], dtype=np.int64)
    vectors = np.full(points.shape, np.nan)
    for depth, (leaf_codes, leaf_vectors) in tables.items():
        cand = deep >> dim * (deepest - depth)
        pos = np.minimum(np.searchsorted(leaf_codes, cand), leaf_codes.shape[0] - 1)
        hit = (leaf_codes[pos] == cand) & (depths < 0)
        depths[hit], codes[hit], vectors[hit] = depth, cand[hit], leaf_vectors[pos[hit]]
    assert np.all(depths >= 0)
    return depths, codes, vectors


def probe_points(rng, tables, dim, n_random):
    """Random points plus every leaf's lower corner and the last double below its upper one."""
    parts = [rng.random((n_random, dim))]
    for depth, (codes, _) in tables.items():
        lower = kernels.morton_decode(codes, depth, dim) * 2.0**-depth
        parts += [lower, np.nextafter(lower + 2.0**-depth, 0.0)]
    return np.concatenate(parts)


def assert_matches_per_depth(q, tables, points):
    depths, codes, vectors = per_depth_assign(tables, q.dim, points)
    rows = q.assign(points)
    got_depths = q.depths[rows].astype(np.int64)
    assert np.array_equal(got_depths, depths)
    assert np.array_equal(q.starts[rows] >> q.dim * (q.deepest - got_depths), codes)
    assert np.array_equal(q.reconstruct(points), vectors)


@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.3))
@settings(max_examples=60, deadline=None)
def test_fitted_run_table_matches_per_depth_search(dim, seed, eta):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((int(rng.integers(1, 400)), dim)) ** 2)
    q = fit(data, eta, RateSchedule(1 << dim))
    tables = q.tables()
    assert_matches_per_depth(q, tables, probe_points(rng, tables, dim, 300))


@st.composite
def tilings(draw):
    """Uneven tilings of [0, 1)^D: split random leaves from the root down, in any order."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = min(default_max_depth(dim), 12)
    leaves = [(0, (0,) * dim)]
    for _ in range(draw(st.integers(0, 30))):
        depth, index = leaves.pop(int(rng.integers(0, len(leaves))))
        if depth == top:
            leaves.append((depth, index))
            continue
        for t in range(1 << dim):
            leaves.append((depth + 1, tuple(2 * k + (t >> i & 1) for i, k in enumerate(index))))
    rng.shuffle(leaves)
    return dim, leaves, rng


@given(tilings())
@settings(max_examples=80, deadline=None)
def test_loaded_run_table_matches_per_depth_search(tmp_path_factory, case):
    dim, leaves, rng = case
    rows = [{"depth": d, "index": list(k), "code": rng.random(dim).tolist()} for d, k in leaves]
    doc = {"format": "rectree-codebook", "version": 1, "dim": dim, "eta": 0.1,
           "gamma": None, "beta": None, "depth_cap": 3, "leaves": rows}
    path = tmp_path_factory.mktemp("cb") / "codebook.json"
    path.write_text(json.dumps(doc))
    q = load_codebook(path)
    # The reference tables come from the file's rows, not from the quantizer.
    by_depth = {}
    for row in rows:
        cell = CellId(row["depth"], tuple(row["index"]))
        by_depth.setdefault(cell.depth, []).append((cell_to_code(cell), row["code"]))
    tables = {}
    for depth in sorted(by_depth):
        entries = sorted(by_depth[depth])
        tables[depth] = (np.array([c for c, _ in entries], dtype=np.int64),
                         np.array([v for _, v in entries]))
    assert list(q.tables()) == list(tables)
    for depth, (codes, vectors) in tables.items():
        assert np.array_equal(q.tables()[depth][0], codes)
        assert np.array_equal(q.tables()[depth][1], vectors)
    assert_matches_per_depth(q, tables, probe_points(rng, tables, dim, 200))


@pytest.mark.parametrize(
    "tables, message",
    [
        ({2: [0, 3]}, "no leaf covers the depth-2 cell of code 1"),
        ({2: [1, 2, 3]}, "no leaf covers the depth-2 cell of code 0"),
        ({2: [0, 1, 2]}, "no leaf covers the depth-2 cell of code 3"),
        ({2: [0, 1, 1, 2, 3]}, r"duplicate leaf, depth 2 index \[1\]"),
        ({1: [0, 1], 2: [1]}, r"one leaf inside another, depth 2 index \[1\]"),
    ],
    ids=["gap", "gap-first", "gap-last", "duplicate", "nested"],
)
def test_leaves_that_do_not_tile_are_refused_at_construction(tables, message):
    tables = {d: (np.array(codes), np.full((len(codes), 1), 0.5)) for d, codes in tables.items()}
    with pytest.raises(ValueError, match=f"^{message}$"):
        Quantizer.from_tables(1, tables, 0.1, 2)
