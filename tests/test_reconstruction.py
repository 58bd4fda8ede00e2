import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree import kernels, reconstruction
from rectree.datagen import GeneratorSpec, sample
from rectree.errors import DepthCapError, DomainError
from rectree.reconstruction import (
    Quantizer,
    RateSchedule,
    decode,
    empirical_distortion,
    encode,
    fit,
    load_codebook,
    quantizer_from_stats,
    save_codebook,
    sweep,
    threshold_subtree,
)
from rectree.stats import Dataset, build_stats
from rectree.tree import CellId

from reference_tree import cube_center, root_cell, run_table_rows

TWO_POINT = Dataset(np.array([[0.1], [0.9]]))


def uniform_data(seed, n, dim):
    return Dataset(np.random.default_rng(seed).random((n, dim)))


class TestRateSchedule:
    def test_derived_fields(self):
        s = RateSchedule(branching=2, gamma=1.5, beta=1.0)
        assert s.c_a == 1.0 / (128 * 3)
        assert s.depth_cap(1024) == math.floor(1.5 * math.log(1024) / math.log(2))
        assert s.eta_n(1024) == pytest.approx(
            math.sqrt(2.5 * math.log(1024) / (s.threshold_constant * 1024))
        )
        assert RateSchedule(branching=2).threshold_constant == 1.5

    def test_theoretical_constant_matches_formula(self):
        s = RateSchedule.with_theoretical_constant(branching=4, gamma=2.0, beta=0.5)
        n = 5000
        assert s.eta_n(n) == pytest.approx(
            math.sqrt(2.5 * math.log(n) / (s.c_a * n)), rel=1e-15
        )

    @given(st.integers(2, 10**6), st.floats(0.5, 3.0), st.sampled_from([2, 4, 8]))
    @settings(max_examples=100, deadline=None)
    def test_depth_invariant(self, n, gamma, a):
        s = RateSchedule(branching=a, gamma=gamma)
        assert a ** s.depth_cap(n) <= n**gamma * (1 + 1e-9)

    def test_eta_decreasing(self):
        s = RateSchedule(branching=2)
        etas = [s.eta_n(n) for n in (4, 16, 256, 4096, 65536)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_eta_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            RateSchedule(branching=2).eta_n(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateSchedule(branching=2, gamma=0.0)
        with pytest.raises(ValueError):
            RateSchedule(branching=2, beta=-1.0)
        for bad in (math.nan, math.inf):
            for name in ("gamma", "beta", "threshold_constant"):
                with pytest.raises(ValueError, match="must be finite and positive"):
                    RateSchedule(branching=2, **{name: bad})

    def test_refusal_messages(self):
        with pytest.raises(ValueError, match="^branching must be at least 2$"):
            RateSchedule(1)
        with pytest.raises(ValueError, match="^n must be positive$"):
            RateSchedule(2).depth_cap(0)


class TestThresholdSubtree:
    def test_two_point_mark_root(self):
        table = build_stats(TWO_POINT, 3)
        sub = threshold_subtree(table, 0.3)
        assert type(sub) is frozenset and sub == {root_cell(1)}

    def test_two_point_nothing_marked(self):
        table = build_stats(TWO_POINT, 3)
        sub = threshold_subtree(table, 0.5)
        assert sub == {root_cell(1)}

    def test_inclusive_tie(self):
        # both points in the left half; the gain of cell (1,(0)) is exactly 0.125
        data = Dataset(np.array([[0.125], [0.375]]))
        table = build_stats(data, 3)
        tied = threshold_subtree(table, 0.125)
        assert CellId(1, (0,)) in tied
        above = threshold_subtree(table, np.nextafter(0.125, 1.0))
        assert above == {root_cell(1)}

    def test_degenerate_threshold(self):
        for seed in range(5):
            table = build_stats(uniform_data(seed, 400, 2), 4)
            assert threshold_subtree(table, 1.0) == {root_cell(2)}

    @given(st.integers(0, 10**9), st.floats(0.01, 0.5), st.floats(1.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_nesting_in_eta(self, seed, eta1, factor):
        table = build_stats(uniform_data(seed, 300, 1), 6)
        small = threshold_subtree(table, eta1)
        large = threshold_subtree(table, eta1 * factor)
        assert large <= small

    def test_rejects_negative_depth_cap(self):
        table = build_stats(TWO_POINT, 2)
        with pytest.raises(ValueError) as exc:
            threshold_subtree(table, 0.1, -1)
        assert str(exc.value) == "depth_cap -1 is below the table depth 2"

    def test_depth_cap_at_or_above_the_table_depth(self):
        # The envelope mixes in every gain above the table depth, so a cap
        # there or deeper changes nothing and a shallower one is refused.
        table = build_stats(uniform_data(4, 400, 2), 4)
        for eta, deepest in ((0.2, 0), (0.02, 2), (0.002, 3)):
            subtree = threshold_subtree(table, eta)
            assert max(cell.depth for cell in subtree) == deepest
            for cap in (4, 5, 40):
                assert threshold_subtree(table, eta, cap) == subtree
            for cap in (3, 1, 0):
                with pytest.raises(ValueError) as exc:
                    threshold_subtree(table, eta, cap)
                assert str(exc.value) == f"depth_cap {cap} is below the table depth 4"

    def test_rejects_nonpositive_eta(self):
        table = build_stats(TWO_POINT, 2)
        for eta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and positive"):
                threshold_subtree(table, eta)


class TestFit:
    def test_degenerate_eta_single_level(self):
        data = uniform_data(0, 500, 2)
        q = fit(data, 1.0, RateSchedule(branching=4))
        assert set(q.leaves) == {CellId(1, idx) for idx in [(0, 0), (0, 1), (1, 0), (1, 1)]}

    def test_single_point(self):
        q = fit(Dataset(np.array([[0.7]])), 0.01, RateSchedule(branching=2))
        assert set(q.leaves) == {CellId(1, (0,)), CellId(1, (1,))}
        assert np.array_equal(q.codebook[CellId(1, (1,))], [0.7])
        assert np.array_equal(q.codebook[CellId(1, (0,))], cube_center(CellId(1, (0,))))

    def test_isolating_fit_zero_distortion(self):
        # one point per depth-j_n cell, tiny eta: occupied leaves isolate points
        schedule = RateSchedule(branching=2)
        n = 16
        cap = schedule.depth_cap(n)
        pts = (np.arange(2**cap) + 0.5) / 2**cap
        rng = np.random.default_rng(0)
        data = Dataset(rng.permutation(pts)[:n][:, None])
        q = fit(data, 1e-12, schedule)
        assert empirical_distortion(q, data) <= 1e-28

    def test_zero_depth_cap_keeps_the_root(self, tmp_path):
        # j_n = 0: the table reaches depth 1, the subtree is {root} and j_n labels the file.
        data = sample(GeneratorSpec("sphere", 13), 300)
        schedule = RateSchedule(branching=1 << 13)
        assert schedule.depth_cap(data.n) == 0
        q = fit(data, schedule.eta_n(data.n), schedule)
        assert q.depth_cap == 0
        assert len(q.starts) == 8192 and np.all(q.depths == 1)
        save_codebook(q, tmp_path / "codebook.json")
        assert json.loads((tmp_path / "codebook.json").read_text())["depth_cap"] == 0
        back = load_codebook(tmp_path / "codebook.json")
        for name in ("starts", "depths", "vectors"):
            got, want = getattr(back, name), getattr(q, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (back.threshold, back.depth_cap, back.gamma, back.beta) == (
            q.threshold, 0, q.gamma, q.beta)

    def test_leaf_depth_capped(self):
        data = uniform_data(3, 2000, 1)
        schedule = RateSchedule(branching=2)
        q = fit(data, 0.001, schedule)
        assert all(cell.depth <= schedule.depth_cap(data.n) for cell in q.leaves)

    def test_depth_cap_error(self):
        # j_n = 80, and at eta = 1e-12 a one-point cell can reach eta down to depth 37.
        with pytest.raises(DepthCapError):
            fit(uniform_data(1, 4, 1), 1e-12, RateSchedule(branching=2, gamma=40.0))

    def test_fits_when_eta_certifies_a_storable_depth(self):
        # j_n = 33 exceeds the 32 levels a 1-d Morton code holds, but no
        # cell below depth 5 can reach eta = 0.01, so the fit needs only those.
        data, schedule = uniform_data(2, 2048, 1), RateSchedule(branching=2, gamma=3.0)
        assert schedule.depth_cap(data.n) == 33
        q = fit(data, 0.01, schedule)
        assert q.depth_cap == 33
        assert {cell.depth for cell in q.leaves} == {4}
        table = build_stats(data, 32)
        assert set(q.leaves) == set(quantizer_from_stats(table, q.threshold).leaves)

    def test_branching_mismatch(self):
        with pytest.raises(ValueError):
            fit(uniform_data(1, 10, 2), 0.1, RateSchedule(branching=2))


class TestEncodeDecode:
    def quantizer(self):
        return fit(uniform_data(1, 800, 1), 0.05, RateSchedule(branching=2))

    def test_boundary_half(self):
        q = fit(TWO_POINT, 1.0, RateSchedule(branching=2))
        depths, index = encode(q, np.array([[0.5]]))
        assert depths.tolist() == [1] and index.tolist() == [[1]]

    def test_roundtrip_is_projection(self):
        q = self.quantizer()
        depths, index = encode(q, np.random.default_rng(2).random((50, 1)))
        rec = decode(q, depths, index)
        assert not np.shares_memory(rec, q.vectors)
        assert CellId(30, (5,)) not in q.codebook
        again = encode(q, rec)
        assert np.array_equal(again[0], depths) and np.array_equal(again[1], index)

    def test_decode_every_leaf_matches_tables(self):
        q = fit(uniform_data(3, 3000, 2), 0.01, RateSchedule(branching=4))
        for depth, (codes, vectors) in q.tables().items():
            index = kernels.morton_decode(codes, depth, q.dim)
            assert np.array_equal(decode(q, np.full(len(codes), depth), index), vectors)

    def test_unknown_leaf(self):
        q = self.quantizer()
        (leaf_depth,), (leaf_index,) = encode(q, np.array([[0.3]]))
        for depth, index, problem in [
            (30, [5], r"row 1: depth 30 index \[5\] is not a leaf"),
            (0, [0], r"row 1: depth 0 index \[0\] is not a leaf"),
            (2, [4], r"row 1: no cell of depth 2 \(0..32\) has index \[4\]"),
        ]:
            with pytest.raises(ValueError, match=problem):
                decode(q, [leaf_depth, depth], [leaf_index, index])

    def test_out_of_domain(self):
        q = self.quantizer()
        with pytest.raises(DomainError):
            encode(q, np.array([[1.0]]))

    def test_empty_batch(self):
        q = fit(uniform_data(1, 800, 2), 0.05, RateSchedule(branching=4))
        depths, index = encode(q, np.empty((0, 2)))
        assert depths.dtype == index.dtype == np.int64
        assert depths.shape == (0,) and index.shape == (0, 2)
        assert decode(q, depths, index).shape == (0, 2)

    def test_encode_takes_a_list_and_refuses_points_outside(self):
        q = self.quantizer()
        depths, index = encode(q, [[0.3], [0.7]])
        want = encode(q, np.array([[0.3], [0.7]]))
        assert np.array_equal(depths, want[0]) and np.array_equal(index, want[1])
        for point in (1.0, -0.1, math.nan):
            with pytest.raises(DomainError, match=r"some points lie outside \[0, 1\)\^1"):
                encode(q, [[0.3], [point]])

    @pytest.mark.parametrize("fraction", [(0.7, 0), (0, 0.9), (0.7, 0.9)])
    def test_decode_refuses_fractional_ids(self, fraction):
        # These used to be truncated to the leaf (d, i) and decoded.
        q = self.quantizer()
        depths, index = encode(q, np.array([[0.3], [0.7]]))
        with pytest.raises(TypeError) as exc:
            decode(q, depths + fraction[0], index + fraction[1])
        assert str(exc.value) == ("depths must be integers" if fraction[0] else "index must be integers")

    @pytest.mark.parametrize("depths, index, message", [
        (1, [[1]], "depths must be (n,), got shape ()"),
        ([[1, 1, 1, 1, 1]], np.zeros((5, 1), np.int64), "depths must be (n,), got shape (1, 5)"),
        ([1, 1], [1, 0], "index must be (2, 1), got shape (2,)"),
        ([1], [[1, 0]], "index must be (1, 1), got shape (1, 2)"),
    ])
    def test_decode_names_a_wrong_shape(self, depths, index, message):
        with pytest.raises(ValueError) as exc:
            decode(self.quantizer(), depths, index)
        assert str(exc.value) == message

    @staticmethod
    def corner_quantizer(dim, deepest):
        """Leaves down to ``deepest`` along the corner at the origin: every child
        of the depth-(d - 1) corner cell but the corner itself is a depth-d leaf."""
        tables = {}
        for depth in range(1, deepest + 1):
            codes = np.arange(0 if depth == deepest else 1, 1 << dim)
            centers = (kernels.morton_decode(codes, depth, dim) + 0.5) * 2.0**-depth
            tables[depth] = (codes, centers)
        return Quantizer.from_tables(dim, tables, threshold=0.1, depth_cap=deepest)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("deepest", [3, 8, 16])
    def test_points_outside_the_cube_at_every_depth(self, dim, deepest):
        q = self.corner_quantizer(dim, deepest)
        inside = np.full((1, dim), 0.5)
        assert np.array_equal(q.reconstruct(inside), inside + 0.25)
        for x in (1.0, -0.001, np.nan, 2.0, -np.inf):
            for k in range(dim):
                point = inside.copy()
                point[0, k] = x
                for call in (q.assign, q.reconstruct):
                    with pytest.raises(DomainError):
                        call(np.vstack([inside, point]))

    def test_uniform_depth_8_leaves_refuse_the_cube_edge(self):
        # The byte spread used to wrap x = 1.0 onto index 0: [[1.0, 0.5]]
        # reconstructed as [[0.00195, 0.50195]].
        codes = np.arange(1 << 16)
        centers = (kernels.morton_decode(codes, 8, 2) + 0.5) / 256
        q = Quantizer.from_tables(2, {8: (codes, centers)}, threshold=0.1, depth_cap=8)
        for point in ([1.0, 0.5], [-0.001, 0.5], [np.nan, 0.5]):
            with pytest.raises(DomainError):
                q.reconstruct(np.array([point]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_names_both_dims(self, width):
        q = fit(uniform_data(1, 800, 2), 0.05, RateSchedule(branching=4))
        points = np.full((4, width), 0.3)
        for call in (lambda: encode(q, points), lambda: q.assign(points),
                     lambda: empirical_distortion(q, Dataset(points))):
            with pytest.raises(ValueError, match=re.escape(f"must be (n, 2), got shape (4, {width})")):
                call()

    @pytest.mark.parametrize("points, shape", [
        (np.zeros(3), "(3,)"),
        (np.zeros((2, 3, 1)), "(2, 3, 1)"),
        (np.zeros((2, 2)), "(2, 2)"),
        ([0.1, 0.2, 0.3], "(3,)"),
        (0.5, "()"),
    ])
    def test_shape_error_names_the_shape(self, points, shape):
        q = fit(uniform_data(1, 800, 3), 0.05, RateSchedule(branching=8))
        for call in (q.assign, q.reconstruct):
            with pytest.raises(ValueError) as info:
                call(points)
            assert str(info.value) == f"points must be (n, 3), got shape {shape}"

    def test_assign_takes_a_list(self):
        q = fit(uniform_data(1, 800, 3), 0.05, RateSchedule(branching=8))
        points = [[0.1, 0.2, 0.3], [0.9, 0.5, 0.0]]
        assert np.array_equal(q.assign(points), q.assign(np.array(points)))
        assert np.array_equal(q.reconstruct(points), q.reconstruct(np.array(points)))

    def test_asymmetric_depths(self):
        # all data on the left: the left side splits deeper than the right
        data = Dataset(np.concatenate([np.random.default_rng(0).random(300) * 0.5])[:, None])
        q = fit(data, 0.02, RateSchedule(branching=2))
        depths, _ = encode(q, np.array([[0.1], [0.9]]))
        assert depths[0] > depths[1]


@st.composite
def tilings(draw, dims=(1, 2, 3)):
    """A quantizer whose leaves come from random splits, with cube-center code vectors.

    Each split replaces a leaf by its 2**dim children; splitting a newest
    child again grows one path deep, so runs of several deep leaves share
    the cells of the lookup table's coarser depth.
    """
    dim = draw(st.sampled_from(dims))
    top = {1: 24, 2: 11, 3: 8}[dim]
    leaves = [(0, 0)]
    for _ in range(draw(st.integers(0, 12 if dim == 3 else 24))):
        open_ = [i for i, (depth, _) in enumerate(leaves) if depth < top]
        if not open_:
            break
        newest = draw(st.booleans())
        i = open_[-1] if newest else open_[draw(st.integers(0, len(open_) - 1))]
        depth, code = leaves.pop(i)
        leaves += [(depth + 1, code << dim | j) for j in range(1 << dim)]
    tables = {}
    for depth in sorted({depth for depth, _ in leaves}):
        codes = np.array(sorted(c for d, c in leaves if d == depth), dtype=np.int64)
        centers = (kernels.morton_decode(codes, depth, dim) + 0.5) * 2.0**-depth
        tables[depth] = (codes, centers)
    return Quantizer.from_tables(dim, tables, threshold=0.1, depth_cap=top)


def leaf_cells(q):
    """(depths, lattice indices) of every leaf, in row order."""
    index = kernels.morton_decode(q.starts, q.deepest, q.dim) >> (q.deepest - q.depths[:, None])
    return q.depths.astype(np.int64), index


class TestLeafLookup:
    """``assign`` and ``decode`` find the same rows as one binary search per code."""

    @given(q=tilings(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_assign_matches_the_run_table_search(self, q, data):
        leaves = len(q.starts)
        # Batches from empty through below, at and far above the leaf count.
        n = data.draw(st.sampled_from([0, 1, leaves - 1, leaves, 4 * leaves, 5000]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        depths, index = leaf_cells(q)
        picks = rng.integers(0, leaves, n)
        corners = index[picks] * 2.0 ** -depths[picks, None]
        points = np.where(rng.random((n, q.dim)) < 0.5, rng.random((n, q.dim)), corners)
        points[rng.random((n, q.dim)) < 0.05] = np.nextafter(1.0, 0.0)
        rows = q.assign(points)
        assert rows.dtype == np.int64 and rows.shape == (n,)
        assert np.array_equal(rows, run_table_rows(q.starts, kernels.morton_encode(points, q.deepest)))
        assert np.array_equal(q.reconstruct(points), q.vectors[rows])
        if n:
            bad = data.draw(st.sampled_from([1.0, -1e-300, np.nan, 2.0, np.inf, -np.inf]))
            points[rng.integers(n), rng.integers(q.dim)] = bad
            for call in (q.assign, q.reconstruct):
                with pytest.raises(DomainError, match=r"some points lie outside \[0, 1\)\^"):
                    call(points)

    @given(q=tilings(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode_matches_the_run_table_search(self, q, data):
        leaves = len(q.starts)
        n = data.draw(st.sampled_from([0, 1, leaves - 1, leaves, 4 * leaves, 5000]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        leaf_depths, leaf_index = leaf_cells(q)
        picks = rng.integers(0, leaves, n)
        depths, index = leaf_depths[picks], leaf_index[picks]
        assert np.array_equal(decode(q, depths, index), q.vectors[picks])
        if n:
            # Move a few rows to a random cell of a nearby depth; the error
            # names the first row that is no leaf, if any is.
            i = rng.integers(n, size=data.draw(st.integers(1, 3)))
            depths[i] = np.clip(depths[i] + rng.choice([-1, 1, 2], i.size), 0, q.depth_cap + 1)
            index[i] = rng.integers(0, 1 << depths[i, None], (i.size, q.dim))
            start = kernels.morton_encode(index * 2.0 ** -depths[:, None], q.deepest)
            ref = run_table_rows(q.starts, start)
            bad = np.flatnonzero((q.starts[ref] != start) | (q.depths[ref] != depths))
            if bad.size:
                j = bad[0]
                with pytest.raises(ValueError) as info:
                    decode(q, depths, index)
                assert str(info.value) == (f"row {j}: depth {depths[j]} index "
                                           f"{index[j].tolist()} is not a leaf of this quantizer")
            else:
                assert np.array_equal(decode(q, depths, index), q.vectors[ref])

    @pytest.mark.parametrize("dim", [19, 20])
    def test_root_leaf_in_high_dimension(self, dim):
        q = Quantizer.from_tables(dim, {0: (np.array([0]), np.full((1, dim), 0.5))},
                                  threshold=0.1, depth_cap=0)
        points = np.random.default_rng(dim).random((3000, dim))
        points[0] = np.nextafter(1.0, 0.0)
        points[1] = 0.0
        assert np.array_equal(q.assign(points), np.zeros(3000, np.int64))
        assert np.array_equal(decode(q, [0, 0], np.zeros((2, dim), np.int64)), np.full((2, dim), 0.5))
        assert q.assign(np.empty((0, dim))).shape == (0,)
        assert decode(q, np.empty(0, np.int64), np.empty((0, dim), np.int64)).shape == (0, dim)
        for bad in (1.0, -1e-300, np.nan):
            points[5, 7] = bad
            with pytest.raises(DomainError):
                q.assign(points)
        with pytest.raises(ValueError, match=r"row 1: depth 1 index \[0(, 0)*\] is not a leaf"):
            decode(q, [0, 1], np.zeros((2, dim), np.int64))


class TestDistortion:
    def test_codebook_points_have_zero_distortion(self):
        q = fit(uniform_data(5, 500, 2), 0.05, RateSchedule(branching=4))
        codes = Dataset(np.array([q.codebook[c] for c in q.leaves if q.codebook[c].min() >= 0]))
        assert empirical_distortion(q, codes) == 0.0

    def test_single_cell_quantizer_equals_root_error(self):
        root = root_cell(1)
        tables = {root.depth: (np.array([0]), TWO_POINT.points.mean(axis=0)[None, :])}
        q = Quantizer.from_tables(1, tables, threshold=1.0, depth_cap=0)
        assert empirical_distortion(q, TWO_POINT) == pytest.approx(0.16, rel=1e-12)

    def test_reencoding_decoded_points_is_stable(self):
        q = fit(uniform_data(7, 600, 2), 0.03, RateSchedule(branching=4))
        data = uniform_data(8, 200, 2)
        rec = q.reconstruct(data.points)
        assert empirical_distortion(q, Dataset(rec)) == 0.0


class TestSweep:
    def test_matches_individual_fits(self):
        data = uniform_data(4, 1200, 1)
        schedule = RateSchedule(branching=2)
        etas = [0.4, 0.1, 0.03, 0.008]
        results = sweep(data, etas, schedule)
        for eta, q, leaf_count, train in results:
            single = fit(data, eta, schedule)
            assert set(q.leaves) == set(single.leaves)
            for cell in q.leaves:
                assert np.array_equal(q.codebook[cell], single.codebook[cell])
            assert leaf_count == len(q.leaves)
            assert train == pytest.approx(empirical_distortion(single, data), rel=1e-12, abs=0)

    def test_fit_is_the_one_threshold_sweep(self):
        data = uniform_data(4, 1200, 1)
        schedule = RateSchedule(branching=2)
        q = fit(data, 1, schedule)
        ((eta, swept, leaf_count, train),) = sweep(data, [1], schedule)
        assert type(q.threshold) is float and q.threshold == eta == 1.0
        assert np.array_equal(q.starts, swept.starts) and np.array_equal(q.vectors, swept.vectors)
        assert leaf_count == len(q.starts) == len(q.leaves) and train == q.train_distortion

    def test_monotonicity(self):
        data = uniform_data(9, 1500, 2)
        results = sweep(data, [1.0, 0.5, 0.25, 0.12, 0.06, 0.03], RateSchedule(branching=4))
        leaf_counts = [r[2] for r in results]
        trains = [r[3] for r in results]
        assert all(a <= b for a, b in zip(leaf_counts, leaf_counts[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(trains, trains[1:]))

    @given(
        dim=st.integers(1, 4),
        pool=st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                # Coordinates on dyadic faces k 2**-d.
                st.builds(lambda k, d: (k % 2**d) / 2**d, st.integers(0, 63), st.integers(0, 6)),
            ),
            min_size=4, max_size=64,
        ),
        picks=st.lists(st.integers(0, 63), min_size=2, max_size=48),
        gamma=st.sampled_from([0.01, 1.5, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_train_matches_encoding_the_train_set(self, dim, pool, picks, gamma):
        # Picks from a small pool of coordinates give duplicate points; gamma
        # 0.01 gives j_n = 0, and eta 1e-9 puts leaves at the table's depth.
        coords = np.array(pool)
        points = np.array([[coords[(p + k) % len(coords)] for k in range(dim)] for p in picks])
        data = Dataset(points)
        root_error = build_stats(data, 1).level(0).errors[0]
        etas = [0.3, 0.05, 0.01, 1e-3, 1e-9]
        for eta, q, _, train in sweep(data, etas, RateSchedule(1 << dim, gamma)):
            assert abs(train - empirical_distortion(q, data)) <= 1e-12 * root_error

    def test_reads_train_from_the_table(self, monkeypatch):
        data = uniform_data(5, 500, 2)
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Quantizer, "assign")
        counted(reconstruction, "empirical_distortion")
        # The traced codebook build wraps this module attribute.
        counted(reconstruction, "quantizer_from_stats")
        sweep(data, [0.3, 0.05, 0.01], RateSchedule(branching=4))
        assert calls == {"quantizer_from_stats": 3}

    def test_single_eta(self):
        data = uniform_data(10, 100, 1)
        results = sweep(data, [1.0], RateSchedule(branching=2))
        assert len(results) == 1 and results[0][2] == 2

    def test_rejects_nonpositive(self):
        for etas in ([0.5, -0.1], [0.5, math.nan], [math.inf, 0.5]):
            with pytest.raises(ValueError, match="must be finite and positive"):
                sweep(TWO_POINT, etas, RateSchedule(branching=2))
        with pytest.raises(ValueError, match="no thresholds given"):
            sweep(TWO_POINT, [], RateSchedule(branching=2))

    @pytest.mark.parametrize(
        "data,eta,schedule,error",
        [
            (uniform_data(1, 10, 3), 0.1, RateSchedule(branching=2), ValueError),
            (uniform_data(1, 10, 1), 0.0, RateSchedule(branching=2), ValueError),
            (uniform_data(1, 4, 1), 1e-12, RateSchedule(branching=2, gamma=40.0), DepthCapError),
            (uniform_data(1, 10, 1), math.nan, RateSchedule(branching=2), ValueError),
            (uniform_data(1, 10, 1), math.inf, RateSchedule(branching=2), ValueError),
        ],
        ids=["branching", "eta", "depth_cap", "eta-nan", "eta-inf"],
    )
    def test_rejects_what_fit_rejects(self, data, eta, schedule, error):
        with pytest.raises(error) as from_fit:
            fit(data, eta, schedule)
        with pytest.raises(error) as from_sweep:
            sweep(data, [eta], schedule)
        assert str(from_sweep.value) == str(from_fit.value)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        q = fit(uniform_data(11, 700, 2), 0.04, RateSchedule(branching=4))
        path = tmp_path / "codebook.json"
        save_codebook(q, path)
        back = load_codebook(path)
        assert set(back.leaves) == set(q.leaves)
        assert back.threshold == q.threshold
        assert back.depth_cap == q.depth_cap
        assert back.gamma == q.gamma and back.beta == q.beta
        for cell in q.leaves:
            assert np.array_equal(back.codebook[cell], q.codebook[cell])

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_codebook(path)


def leaf(depth, *index, code=None):
    return {"depth": depth, "index": list(index), "code": code or [0.5] * len(index)}


def codebook_doc(leaves, dim=1):
    return {"format": "rectree-codebook", "version": 1, "dim": dim, "eta": 0.1,
            "gamma": None, "beta": None, "depth_cap": 3, "leaves": leaves}


HALVES = [leaf(1, 0), leaf(1, 1)]


class TestSaveRefusesNonFiniteCodes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_names_first_bad_row_and_writes_nothing(self, tmp_path, bad):
        # Rows sit in file order (depth, then index): the depth-2 leaf at
        # index 1 is row 2, after both depth-1 leaves.
        tables = {1: (np.array([1]), np.array([[0.75]])),
                  2: (np.array([0, 1]), np.array([[0.125], [bad]]))}
        q = Quantizer.from_tables(1, tables, 0.1, 3)
        path = tmp_path / "codebook.json"
        with pytest.raises(ValueError, match=rf"codebook .*codebook.json: row 2: code \[{bad}\] "
                                             "is not finite"):
            save_codebook(q, path)
        assert not path.exists()


class TestSaveRefusesWhatLoadRefuses:
    @pytest.mark.parametrize("eta, cap", [(0.0, 3), (math.nan, 3), (-1.0, 3), (0.1, -1)],
                             ids=["eta-zero", "eta-nan", "eta-negative", "cap-negative"])
    def test_header_load_refuses_is_not_written(self, tmp_path, eta, cap):
        q = Quantizer.from_tables(1, {1: (np.array([0, 1]), np.array([[0.25], [0.75]]))}, eta, cap)
        path = tmp_path / "codebook.json"
        message = f"codebook {path}: needs a finite eta > 0 and a depth_cap >= 0, not {eta} and {cap}"
        with pytest.raises(ValueError) as exc:
            save_codebook(q, path)
        assert str(exc.value) == message
        assert not path.exists()
        # The same header written by hand is refused by the load with the same words.
        path.write_text(json.dumps({**codebook_doc(HALVES), "eta": eta, "depth_cap": cap}))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == message


class TestCodebookValidation:
    @pytest.mark.parametrize(
        "doc, problem",
        [
            ({k: v for k, v in codebook_doc(HALVES).items() if k != "dim"}, "lacks dim"),
            ({k: v for k, v in codebook_doc(HALVES).items() if k != "eta"}, "lacks eta"),
            (codebook_doc([]), "lacks leaves"),
            (codebook_doc([leaf(1, 0), leaf(1, 1, 0)]), "row 1: index and code need 1 entries"),
            (codebook_doc([leaf(1, 0), leaf(1, 1, code=[0.5, 0.5])]), "row 1: index and code"),
            (codebook_doc([leaf(1, 0), {"depth": 1, "code": [0.5]}]), "KeyError 'index'"),
            (codebook_doc([leaf(1, 0), leaf(1, 2)]), "row 1: no cell of depth 1"),
            (codebook_doc([leaf(1, 0), leaf(-1, 0)]), "row 1: no cell of depth -1"),
            (codebook_doc([leaf(0, 0, 0), leaf(1, 0, 5)], dim=2), "row 1: no cell of depth 1"),
            (codebook_doc([leaf(1, 0), leaf(1, 1), leaf(1, 0)]), "duplicate leaf"),
            (codebook_doc([leaf(1, 0), leaf(1, 1), leaf(2, 0)]), "one leaf inside another"),
            (codebook_doc([leaf(0, 0), leaf(3, 5)]), "one leaf inside another"),
            (codebook_doc([leaf(1, 0)]), "no leaf covers the depth-1 cell of code 1"),
            (codebook_doc([leaf(1, 1), leaf(2, 1)]), "no leaf covers the depth-2 cell of code 0"),
            (codebook_doc([leaf(1, 0), leaf(2, 3)]), "no leaf covers the depth-2 cell of code 2"),
            ({**codebook_doc(HALVES), "dim": 3.7}, "codebook.json: TypeError dim must be one integer"),
            (codebook_doc([leaf(1, 0), leaf(1.5, 1)]),
             "codebook.json: TypeError leaf depths must be integers"),
            (codebook_doc([leaf(1, 0), leaf(1, 0.5)]),
             "codebook.json: TypeError leaf indices must be integers"),
            (codebook_doc([leaf(1, 0), leaf(1, 1, code=[float("nan")])]),
             r"codebook.json: row 1: code \[nan\] is not finite"),
            ({**codebook_doc(HALVES), "eta": "abc"}, "codebook.json: TypeError eta must be one number"),
            (codebook_doc([leaf(1, 0), leaf(1, 1, code=["abc"])]),
             "codebook.json: TypeError leaf codes must be numbers"),
            ({**codebook_doc(HALVES), "eta": -1.0}, r"codebook.json: needs .* not -1.0 and 3"),
            ({**codebook_doc(HALVES), "eta": math.nan}, r"codebook.json: needs .* not nan and 3"),
            ({**codebook_doc(HALVES), "eta": math.inf}, r"codebook.json: needs .* not inf and 3"),
            ({**codebook_doc(HALVES), "depth_cap": -5}, r"codebook.json: needs .* not 0.1 and -5"),
        ],
    )
    def test_rejects_with_named_problem(self, tmp_path, doc, problem):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=problem) as exc:
            load_codebook(path)
        assert "\n" not in str(exc.value)

    def test_rejects_dim_zero(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps({**codebook_doc(HALVES), "dim": 0}))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == f"codebook {path}: dim 0 is not positive"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([leaf(1, 0), leaf(1, 1), leaf(1, 0)], "duplicate leaf, depth 1 index [0]"),
            ([leaf(1, 0), leaf(1, 1), leaf(2, 0)], "one leaf inside another, depth 2 index [0]"),
            ([leaf(0, 0), leaf(3, 5)], "one leaf inside another, depth 3 index [5]"),
            ([leaf(1, 0)], "no leaf covers the depth-1 cell of code 1"),
        ],
        ids=["duplicate", "nested", "nested-deep", "gap"],
    )
    def test_tiling_error_names_the_file(self, tmp_path, rows, message):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(codebook_doc(rows)))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == f"codebook {path}: {message}"

    def test_uneven_tiling_loads_and_encodes(self, tmp_path):
        path = tmp_path / "codebook.json"
        rows = [leaf(1, 1, code=[0.7]), leaf(2, 0, code=[0.1]), leaf(2, 1, code=[0.3])]
        path.write_text(json.dumps(codebook_doc(rows)))
        q = load_codebook(path)
        assert len(q.leaves) == 3
        depths, index = encode(q, np.array([[0.1]]))
        assert depths.tolist() == [2] and index.tolist() == [[0]]
        assert np.array_equal(decode(q, [1], [[1]]), [[0.7]])


def v2_doc(subtree=((0, [0]),), leaves=(), dim=1):
    """A v2 codebook of the given (depth, index) subtree rows and (depth, index, code) leaves."""
    return {"format": "rectree-codebook", "version": 2, "dim": dim, "eta": 0.1,
            "gamma": None, "beta": None, "depth_cap": 3,
            "subtree": {"depth": [d for d, _ in subtree], "index": [i for _, i in subtree]},
            "leaves": {"depth": [d for d, _, _ in leaves], "index": [i for _, i, _ in leaves],
                       "code": [c for _, _, c in leaves]}}


# Root and its left child: leaves [1] at depth 1, [0] and [1] at depth 2.
LEFT = ((0, [0]), (1, [0]))


class TestCodebookV2Validation:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({**v2_doc(), "version": 3}, "codebook {path}: unsupported codebook version 3"),
            ({k: v for k, v in v2_doc().items() if k != "subtree"}, "codebook {path}: lacks subtree"),
            ({**v2_doc(), "leaves": []}, "codebook {path}: leaves is not an object"),
            ({**v2_doc(), "subtree": {"depth": [0]}}, "codebook {path}: subtree lacks index"),
            (v2_doc(((0, [0]), (1.5, [1]))),
             "codebook {path}: TypeError subtree.depth must be integers"),
            (v2_doc(LEFT, [(1, [0.5], [0.3])]),
             "codebook {path}: TypeError leaves.index must be integers"),
            (v2_doc(LEFT, [(1, [1], ["abc"])]),
             "codebook {path}: TypeError leaves.code must be numbers"),
            ({**v2_doc(), "subtree": {"depth": [0, 1], "index": [[0]]}},
             "codebook {path}: subtree depth/index must have shapes (n,), (n, 1), not (2,), (1, 1)"),
            ({**v2_doc(LEFT), "leaves": {"depth": [1, 2], "index": [[1], [0]], "code": [[0.3]]}},
             "codebook {path}: leaves depth/index/code must have shapes (n,), (n, 1), (n, 1), "
             "not (2,), (2, 1), (1, 1)"),
            (v2_doc(((0, [0, 0]),), [(1, [1], [0.1, 0.2])], dim=2),
             "codebook {path}: leaves depth/index/code must have shapes (n,), (n, 2), (n, 2), "
             "not (1,), (1, 1), (1, 2)"),
            (v2_doc(LEFT, [(1, [1], [math.nan])]), "codebook {path}: leaves row 0: code [nan] is not finite"),
            (v2_doc(((0, [0]), (1, [2]))),
             "codebook {path}: subtree row 1: no cell of depth 1 (0..32) has index [2]"),
            (v2_doc(LEFT, [(-1, [0], [0.3])]),
             "codebook {path}: leaves row 0: no cell of depth -1 (0..32) has index [0]"),
            (v2_doc(((0, [0] * 62), (1, [0] * 62)), dim=62),
             f"codebook {{path}}: subtree row 1: depth 1 index {[0] * 62} has children deeper than 1"),
            (v2_doc(((1, [0]), (2, [1]))), "codebook {path}: subtree lacks the root"),
            (v2_doc(((0, [0]), (2, [1]))),
             "codebook {path}: subtree row 1: depth 2 index [1] has no parent in the subtree"),
            (v2_doc(((0, [0]), (1, [0]), (1, [0]))),
             "codebook {path}: subtree row 2: depth 1 index [0] is listed twice"),
            (v2_doc(LEFT, [(2, [1], [0.3]), (1, [0], [0.3])]),
             "codebook {path}: leaves row 1: depth 1 index [0] is not an outer leaf of the subtree"),
            (v2_doc(LEFT, [(2, [2], [0.6])]),
             "codebook {path}: leaves row 0: depth 2 index [2] is not an outer leaf of the subtree"),
            (v2_doc(LEFT, [(3, [0], [0.1])]),
             "codebook {path}: leaves row 0: depth 3 index [0] is not an outer leaf of the subtree"),
            (v2_doc(LEFT, [(0, [0], [0.1])]),
             "codebook {path}: leaves row 0: depth 0 index [0] is not an outer leaf of the subtree"),
            (v2_doc((), [(1, [0], [0.1])]),
             "codebook {path}: leaves row 0: depth 1 index [0] is not an outer leaf of the subtree"),
            (v2_doc(LEFT, [(1, [1], [0.6]), (2, [0], [0.1]), (1, [1], [0.7])]),
             "codebook {path}: leaves row 2: depth 1 index [1] is listed twice"),
        ],
        ids=["version", "no-subtree", "leaves-list", "no-index", "depth-float", "index-float",
             "code-text", "subtree-lengths", "code-length", "index-width", "code-nan",
             "subtree-index-range", "leaf-depth-negative", "subtree-too-deep", "no-root",
             "not-parent-closed", "subtree-duplicate", "leaf-in-subtree", "leaf-orphan",
             "leaf-too-deep", "leaf-root", "leaf-below-root-leaf", "leaf-duplicate"],
    )
    def test_rejects_with_exact_message(self, tmp_path, doc, message):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == message.format(path=path)

    def test_implied_leaves_decode_to_cube_centers(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(v2_doc(LEFT, [(2, [1], [0.3])])))
        q = load_codebook(path)
        assert decode(q, [1, 2, 2], [[1], [0], [1]]).tolist() == [[0.75], [0.125], [0.3]]
        path.write_text(json.dumps(v2_doc((), [])))
        assert load_codebook(path).vectors.tolist() == [[0.5]]
        path.write_text(json.dumps(v2_doc((), [(0, [0], [0.1])])))
        assert load_codebook(path).vectors.tolist() == [[0.1]]

    def test_rows_may_come_in_any_order(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(v2_doc(LEFT[::-1], [(2, [1], [0.3]), (1, [1], [0.9])])))
        q = load_codebook(path)
        assert decode(q, [1, 2, 2], [[1], [0], [1]]).tolist() == [[0.9], [0.125], [0.3]]


# Codebooks whose numbers hold a JSON boolean or string; numpy's inferred dtype
# passes each one (an int64 or float64 array), so each must be refused entry by entry.
LOOSE_NUMBERS = [
    ({**codebook_doc(HALVES), "eta": True}, "eta must be one number"),
    ({**codebook_doc(HALVES), "eta": "0.05"}, "eta must be one number"),
    ({**codebook_doc(HALVES), "gamma": True}, "gamma must be one number"),
    ({**codebook_doc(HALVES), "gamma": "1.5"}, "gamma must be one number"),
    ({**codebook_doc(HALVES), "beta": False}, "beta must be one number"),
    ({**codebook_doc(HALVES), "beta": "1.0"}, "beta must be one number"),
    (codebook_doc([leaf(True, 0), leaf(1, 1)]), "leaf depths must be integers"),
    (codebook_doc([leaf(1, False), leaf(1, 1)]), "leaf indices must be integers"),
    (codebook_doc([leaf(1, 0, code=[False]), leaf(1, 1, code=[True])]),
     "leaf codes must be numbers"),
    (codebook_doc([leaf(1, 0, code=[False]), leaf(1, 1)]), "leaf codes must be numbers"),
    (codebook_doc([leaf(1, 0, code=["0.25"]), leaf(1, 1, code=["0.75"])]),
     "leaf codes must be numbers"),
    (codebook_doc([leaf(1, 0, code=["0.25"]), leaf(1, 1)]), "leaf codes must be numbers"),
    ({**v2_doc(LEFT), "eta": True}, "eta must be one number"),
    ({**v2_doc(LEFT), "eta": "0.05"}, "eta must be one number"),
    ({**v2_doc(LEFT), "gamma": False}, "gamma must be one number"),
    ({**v2_doc(LEFT), "beta": "1.0"}, "beta must be one number"),
    (v2_doc(((0, [0]), (True, [0]))), "subtree.depth must be integers"),
    (v2_doc(((0, [False]), (1, [0]))), "subtree.index must be integers"),
    (v2_doc(LEFT, [(True, [1], [0.6]), (2, [0], [0.1])]), "leaves.depth must be integers"),
    (v2_doc(LEFT, [(1, [True], [0.6]), (2, [0], [0.1])]), "leaves.index must be integers"),
    (v2_doc(LEFT, [(1, [1], [True])]), "leaves.code must be numbers"),
    (v2_doc(LEFT, [(1, [1], [True]), (2, [0], [0.1])]), "leaves.code must be numbers"),
    (v2_doc(LEFT, [(1, [1], ["0.6"])]), "leaves.code must be numbers"),
    (v2_doc(LEFT, [(1, [1], ["0.6"]), (2, [0], [0.1])]), "leaves.code must be numbers"),
    (v2_doc(((0, [0, 0]),), [(1, [1, 1], [True, "0.25"])], dim=2), "leaves.code must be numbers"),
]


class TestCodebookNumbersAreNumbers:
    @pytest.mark.parametrize(
        "doc, problem", LOOSE_NUMBERS,
        ids=["v1-eta-true", "v1-eta-text", "v1-gamma-true", "v1-gamma-text", "v1-beta-false",
             "v1-beta-text", "v1-depth-mixed", "v1-index-mixed", "v1-code-bool",
             "v1-code-bool-mixed", "v1-code-text", "v1-code-text-mixed", "v2-eta-true",
             "v2-eta-text", "v2-gamma-false", "v2-beta-text", "v2-subtree-depth-mixed",
             "v2-subtree-index-mixed", "v2-leaf-depth-mixed", "v2-leaf-index-mixed",
             "v2-code-bool", "v2-code-bool-mixed", "v2-code-text", "v2-code-text-mixed",
             "v2-code-row-mixed"],
    )
    def test_boolean_or_string_is_refused(self, tmp_path, doc, problem):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == f"codebook {path}: TypeError {problem}"

    @pytest.mark.parametrize(
        "doc, problem",
        [
            (codebook_doc([leaf(True, 0), leaf(True, 1)]), "leaf depths must be integers"),
            (codebook_doc([leaf(1, False), leaf(1, True)]), "leaf indices must be integers"),
            (v2_doc(((True, [0]),)), "subtree.depth must be integers"),
            (v2_doc(LEFT, [(1, [True], [0.6])]), "leaves.index must be integers"),
        ],
        ids=["v1-depth", "v1-index", "v2-subtree-depth", "v2-leaf-index"],
    )
    def test_all_boolean_integers_are_refused(self, tmp_path, doc, problem):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == f"codebook {path}: TypeError {problem}"

    @pytest.mark.parametrize(
        "doc, version",
        [({**codebook_doc(HALVES), "version": True}, "True"),
         ({**codebook_doc(HALVES), "version": 1.0}, "1.0"),
         ({**v2_doc(LEFT), "version": "2"}, "'2'")],
        ids=["v1-true", "v1-float", "v2-text"],
    )
    def test_version_must_be_an_integer(self, tmp_path, doc, version):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == f"codebook {path}: unsupported codebook version {version}"

    def test_decode_refuses_boolean_ids(self):
        q = fit(TWO_POINT, 0.01, RateSchedule(branching=2))
        with pytest.raises(TypeError, match="^depths must be integers$"):
            decode(q, [1, True], [[0], [1]])
        with pytest.raises(TypeError, match="^index must be integers$"):
            decode(q, [1, 1], [[0], [True]])
