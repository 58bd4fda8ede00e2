import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree.errors import DepthCapError, DomainError
from rectree.stats import Dataset, build_stats
from rectree.tree import CellId

from reference_tree import cells, cube_center, locate, lookup, root_cell


def random_dataset(seed, n=200, dim=2):
    return Dataset(np.random.default_rng(seed).random((n, dim)))


TWO_POINT = Dataset(np.array([[0.1], [0.9]]))


class TestDataset:
    def test_rejects_out_of_domain_with_index(self):
        pts = np.array([[0.5], [1.0], [0.2]])
        with pytest.raises(DomainError, match="point 1"):
            Dataset(pts)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="dim >= 1"):
            Dataset(np.zeros((3, 0)))


class TestBuildStats:
    def test_single_point_all_ancestors(self):
        p = np.array([0.3, 0.6])
        table = build_stats(Dataset(p[None, :]), 5)
        for depth in range(6):
            cell = locate(p, depth)
            entry = lookup(table, cell)
            assert entry.count == 1
            assert np.array_equal(entry.center, p)
            assert entry.error == 0.0
            if depth < 5:
                assert entry.gain == 0.0

    def test_two_point_fixture(self):
        table = build_stats(TWO_POINT, 1)
        root = root_cell(1)
        assert lookup(table, root).error == pytest.approx(0.16, rel=1e-12)
        assert lookup(table, CellId(1, (0,))).error == 0.0
        assert lookup(table, CellId(1, (1,))).error == 0.0
        assert lookup(table, root).gain == pytest.approx(0.4, rel=1e-12)

    def test_all_points_in_one_child(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.random((50, 1)) * 0.5)  # everything in [0, 0.5)
        table = build_stats(data, 1)
        root = root_cell(1)
        child = CellId(1, (0,))
        # single occupied child: gain^2 equals the error difference exactly
        diff = lookup(table, root).error - lookup(table, child).error
        assert lookup(table, root).gain ** 2 == pytest.approx(diff, rel=1e-12, abs=1e-18)

    def test_empty_cell_lookup_uses_cube_center(self):
        table = build_stats(TWO_POINT, 3)
        empty = CellId(2, (1,))  # [0.25, 0.5): no data
        entry = lookup(table, empty)
        assert entry.count == 0
        assert np.array_equal(entry.center, cube_center(empty))
        assert entry.error == 0.0
        assert entry.gain == 0.0

    def test_gain_none_at_cap(self):
        table = build_stats(TWO_POINT, 2)
        assert lookup(table, CellId(2, (0,))).gain is None

    def test_depth_cap_validation(self):
        with pytest.raises(DepthCapError):
            build_stats(TWO_POINT, 64)

    @pytest.mark.parametrize("eta", [None, 100.0])
    def test_refuses_depth_one_where_no_code_holds_it(self, eta):
        # 63 coordinates leave no bit of a 62-bit code for depth 1, whatever eta certifies.
        data = Dataset(np.full((3, 63), 0.3))
        with pytest.raises(DepthCapError, match="^dim 63 has no depth-1 cells in a 62-bit code$"):
            build_stats(data, 1, eta)
        table = build_stats(data, 0, eta)
        assert table.depth_cap == 0 and table.level(0).counts.tolist() == [3]

    @pytest.mark.parametrize("depth", [-1, 3])
    def test_level_outside_the_table(self, depth):
        with pytest.raises(DepthCapError, match=f"^depth {depth} outside table range 0..2$"):
            build_stats(TWO_POINT, 2).level(depth)

    def test_no_gain_by_difference_at_the_table_depth(self):
        with pytest.raises(DepthCapError, match="^no children statistics below depth 2$"):
            build_stats(TWO_POINT, 2).gain_sq_by_difference(2)

    def test_mass_conservation(self):
        data = random_dataset(7, n=500, dim=2)
        table = build_stats(data, 4)
        for depth in range(5):
            lv = table.level(depth)
            assert lv.counts.sum() == data.n

    def test_monotone_refinement(self):
        data = random_dataset(8, n=300, dim=2)
        table = build_stats(data, 4)
        for depth in range(4):
            diff = table.gain_sq_by_difference(depth)
            assert np.all(diff >= -1e-12)

    @given(st.integers(0, 10**9), st.integers(1, 3), st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_between_within_identity(self, seed, dim, n):
        data = random_dataset(seed, n=n, dim=dim)
        cap = 4 if dim < 3 else 3
        table = build_stats(data, cap)
        for depth in range(cap):
            lv = table.level(depth)
            diff = table.gain_sq_by_difference(depth)
            err = np.abs(lv.gains**2 - diff)
            bound = 1e-9 * np.maximum(lv.errors, 1e-300)
            assert np.all(err <= bound)

    def test_centers_inside_point_bounding_box(self):
        data = random_dataset(3, n=400, dim=2)
        table = build_stats(data, 3)
        for depth in range(4):
            for cell, entry in cells(table, depth):
                inside = [p for p in data.points if locate(p, depth) == cell]
                lo = np.min(inside, axis=0) - 1e-12
                hi = np.max(inside, axis=0) + 1e-12
                assert np.all(entry.center >= lo) and np.all(entry.center <= hi)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        pts = rng.random((200, 2)) * 0.25
        shift = np.array([0.5, 0.25])
        base = build_stats(Dataset(pts), 4)
        moved = build_stats(Dataset(pts + shift), 4)
        # depth >= 2: the shift is a whole number of cells, so statistics
        # transport cell-to-cell
        for depth in (2, 3, 4):
            offset = (shift * 2**depth).astype(int)
            for cell, entry in cells(base, depth):
                target = CellId(depth, tuple(k + o for k, o in zip(cell.index, offset)))
                other = lookup(moved, target)
                assert other.count == entry.count
                np.testing.assert_allclose(other.center, entry.center + shift, atol=1e-12)
                assert other.error == pytest.approx(entry.error, abs=1e-12)
                if depth < 4:
                    assert other.gain == pytest.approx(entry.gain, abs=1e-12)


class TestGainOp:
    def test_empty_cell_gain_zero(self):
        table = build_stats(TWO_POINT, 3)
        assert lookup(table, CellId(2, (1,))).gain == 0.0

    def test_children_sharing_center(self):
        # two coincident points split nowhere: every gain is zero
        data = Dataset(np.array([[0.3, 0.3], [0.3, 0.3]]))
        table = build_stats(data, 3)
        for depth in range(3):
            for _, entry in cells(table, depth):
                assert entry.gain == 0.0

    def test_matches_difference_formula(self):
        data = random_dataset(11, n=250, dim=1)
        table = build_stats(data, 5)
        for depth in range(5):
            for cell, entry in cells(table, depth):
                child_sum = sum(
                    lookup(table, CellId(depth + 1, (2 * cell.index[0] + t,))).error
                    for t in (0, 1)
                )
                assert entry.gain**2 == pytest.approx(
                    entry.error - child_sum, rel=1e-9, abs=1e-15
                )
