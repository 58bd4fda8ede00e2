import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree import kernels
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

from reference_tree import cube_center, root_cell

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


class TestThresholdSubtree:
    def test_two_point_mark_root(self):
        table = build_stats(TWO_POINT, 3)
        sub = threshold_subtree(table, 0.3)
        assert sub.cells == {root_cell(1)}

    def test_two_point_nothing_marked(self):
        table = build_stats(TWO_POINT, 3)
        sub = threshold_subtree(table, 0.5)
        assert sub.cells == {root_cell(1)}

    def test_inclusive_tie(self):
        # both points in the left half; the gain of cell (1,(0)) is exactly 0.125
        data = Dataset(np.array([[0.125], [0.375]]))
        table = build_stats(data, 3)
        tied = threshold_subtree(table, 0.125)
        assert CellId(1, (0,)) in tied.cells
        above = threshold_subtree(table, np.nextafter(0.125, 1.0))
        assert above.cells == {root_cell(1)}

    def test_degenerate_threshold(self):
        for seed in range(5):
            table = build_stats(uniform_data(seed, 400, 2), 4)
            assert threshold_subtree(table, 1.0).cells == {root_cell(2)}

    @given(st.integers(0, 10**9), st.floats(0.01, 0.5), st.floats(1.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_nesting_in_eta(self, seed, eta1, factor):
        table = build_stats(uniform_data(seed, 300, 1), 6)
        small = threshold_subtree(table, eta1)
        large = threshold_subtree(table, eta1 * factor)
        assert large.cells <= small.cells

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
        assert set(q.leaves) == set(quantizer_from_stats(table, q.threshold, depth_cap=32).leaves)

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

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_names_both_dims(self, width):
        q = fit(uniform_data(1, 800, 2), 0.05, RateSchedule(branching=4))
        points = np.full((4, width), 0.3)
        for call in (lambda: encode(q, points), lambda: q.assign(points),
                     lambda: empirical_distortion(q, Dataset(points))):
            with pytest.raises(ValueError, match=f"point dim {width} != quantizer dim 2"):
                call()

    def test_asymmetric_depths(self):
        # all data on the left: the left side splits deeper than the right
        data = Dataset(np.concatenate([np.random.default_rng(0).random(300) * 0.5])[:, None])
        q = fit(data, 0.02, RateSchedule(branching=2))
        depths, _ = encode(q, np.array([[0.1], [0.9]]))
        assert depths[0] > depths[1]


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
            assert train == pytest.approx(empirical_distortion(single, data), rel=1e-12)

    def test_monotonicity(self):
        data = uniform_data(9, 1500, 2)
        results = sweep(data, [1.0, 0.5, 0.25, 0.12, 0.06, 0.03], RateSchedule(branching=4))
        leaf_counts = [r[2] for r in results]
        trains = [r[3] for r in results]
        assert all(a <= b for a, b in zip(leaf_counts, leaf_counts[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(trains, trains[1:]))

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
            ({**codebook_doc(HALVES), "dim": 3.7}, "codebook.json: TypeError dim must be integers"),
            (codebook_doc([leaf(1, 0), leaf(1.5, 1)]),
             "codebook.json: TypeError leaf depths must be integers"),
            (codebook_doc([leaf(1, 0), leaf(1, 0.5)]),
             "codebook.json: TypeError leaf indices must be integers"),
            (codebook_doc([leaf(1, 0), leaf(1, 1, code=[float("nan")])]),
             r"codebook.json row 1: code \[nan\] is not finite"),
            ({**codebook_doc(HALVES), "eta": "abc"},
             "codebook.json: ValueError could not convert string to float: 'abc'"),
            (codebook_doc([leaf(1, 0), leaf(1, 1, code=["abc"])]),
             "codebook.json: ValueError could not convert string to float: 'abc'"),
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

    def test_uneven_tiling_loads_and_encodes(self, tmp_path):
        path = tmp_path / "codebook.json"
        rows = [leaf(1, 1, code=[0.7]), leaf(2, 0, code=[0.1]), leaf(2, 1, code=[0.3])]
        path.write_text(json.dumps(codebook_doc(rows)))
        q = load_codebook(path)
        assert len(q.leaves) == 3
        depths, index = encode(q, np.array([[0.1]]))
        assert depths.tolist() == [2] and index.tolist() == [[0]]
        assert np.array_equal(decode(q, [1], [[1]]), [[0.7]])
