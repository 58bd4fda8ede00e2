import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree.errors import DepthCapError, DomainError
from rectree.kernels import default_max_depth
from rectree.tree import CellId, cell_to_code, cells_from_codes

from reference_tree import (
    StructureError,
    Subtree,
    ancestors,
    cell_contains,
    cell_diameter,
    cell_volume,
    children,
    cube_center,
    locate,
    outer_leaves,
    parent,
    root_cell,
    smallest_subtree,
    validate,
)


def full_subtree(dim, depth):
    cells = {root_cell(dim)}
    frontier = [root_cell(dim)]
    for _ in range(depth):
        frontier = [c for cell in frontier for c in children(cell)]
        cells.update(frontier)
    return Subtree(frozenset(cells), dim)


def random_subtree(dim, size, rng):
    """Grow by repeatedly expanding a random outer leaf; stays parent-closed."""
    cells = {root_cell(dim)}
    leaves = list(children(root_cell(dim)))
    while len(cells) < size and leaves:
        pick = rng.integers(len(leaves))
        cell = leaves.pop(int(pick))
        cells.add(cell)
        if cell.depth < default_max_depth(dim):
            leaves.extend(children(cell))
    return Subtree(frozenset(cells), dim)


class TestCellId:
    def test_refuses_negative_depth(self):
        with pytest.raises(ValueError, match="^negative depth -1$"):
            CellId(-1, (0,))

    @pytest.mark.parametrize("k", [2, -1])
    def test_refuses_index_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"^lattice index {k} out of range at depth 1$"):
            CellId(1, (0, k))


class TestLocate:
    def test_root_contains_everything(self):
        assert locate(np.array([0.0, 0.0]), 0) == root_cell(2)
        assert locate(np.array([0.9999, 0.5]), 0) == root_cell(2)

    def test_depth_one_2d(self):
        assert locate(np.array([0.3, 0.7]), 1) == CellId(1, (0, 1))

    def test_half_open_boundary(self):
        assert locate(np.array([0.5]), 1) == CellId(1, (1,))

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            locate(np.array([1.0]), 3)
        with pytest.raises(DomainError):
            locate(np.array([0.2, -0.1]), 3)

    def test_depth_cap(self):
        with pytest.raises(DepthCapError):
            locate(np.array([0.2]), 40)

    @given(
        st.integers(1, 3),
        st.integers(0, 8),
        st.lists(st.floats(0, 1, exclude_max=True, allow_nan=False), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_nesting(self, dim, depth, coords):
        point = np.array(coords[:dim])
        fine = locate(point, depth + 1)
        assert parent(fine) == locate(point, depth)


class TestChildrenParent:
    def test_root_split_1d(self):
        assert children(root_cell(1)) == {CellId(1, (0,)), CellId(1, (1,))}

    def test_index_doubling(self):
        assert children(CellId(1, (1,))) == {CellId(2, (2,)), CellId(2, (3,))}

    def test_branching_2d(self):
        kids = children(root_cell(2))
        assert len(kids) == 4
        union = set()
        for kid in kids:
            assert parent(kid) == root_cell(2)
            union.add(kid.index)
        assert union == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_cap_error(self):
        cap = default_max_depth(1)
        cell = CellId(cap, (0,))
        with pytest.raises(DepthCapError):
            children(cell)

    def test_parent_examples(self):
        assert parent(root_cell(1)) == root_cell(1)
        assert parent(CellId(2, (3,))) == CellId(1, (1,))
        assert parent(CellId(1, (0, 1))) == root_cell(2)


class TestOuterLeaves:
    def test_root_only(self):
        part = outer_leaves(Subtree(frozenset({root_cell(1)}), 1))
        assert part.leaves == {CellId(1, (0,)), CellId(1, (1,))}

    def test_one_expansion(self):
        sub = Subtree(frozenset({root_cell(1), CellId(1, (0,))}), 1)
        assert outer_leaves(sub).leaves == {
            CellId(1, (1,)),
            CellId(2, (0,)),
            CellId(2, (1,)),
        }

    def test_uniform_refinement(self):
        sub = full_subtree(1, 2)
        leaves = outer_leaves(sub).leaves
        assert leaves == {CellId(3, (k,)) for k in range(8)}

    def test_invalid_subtree(self):
        with pytest.raises(StructureError):
            outer_leaves(Subtree(frozenset({CellId(1, (0,))}), 1))
        with pytest.raises(StructureError):
            outer_leaves(Subtree(frozenset({root_cell(1), CellId(2, (0,))}), 1))

    @given(st.integers(1, 3), st.integers(1, 60), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_tiling_and_cardinality(self, dim, size, seed):
        rng = np.random.default_rng(seed)
        sub = random_subtree(dim, size, rng)
        part = outer_leaves(sub)
        a = 1 << dim
        assert len(part) <= (a - 1) * len(sub) + 1
        depths = {cell.depth for cell in part}
        for point in rng.random((50, dim)):
            # The point's cell at each leaf depth, located once per depth.
            home = {depth: locate(point, depth) for depth in depths}
            hits = [cell for cell in part if cell == home[cell.depth]]
            assert len(hits) == 1


class TestSmallestSubtree:
    def test_empty(self):
        assert smallest_subtree([], dim=1).cells == {root_cell(1)}

    def test_chain(self):
        sub = smallest_subtree([CellId(2, (3,))])
        assert sub.cells == {root_cell(1), CellId(1, (1,)), CellId(2, (3,))}

    def test_root_marked(self):
        assert smallest_subtree([root_cell(2)]).cells == {root_cell(2)}

    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_is_minimal_parent_closed(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        marked = []
        for _ in range(count):
            depth = int(rng.integers(0, 6))
            idx = tuple(int(rng.integers(0, 1 << depth)) for _ in range(dim))
            marked.append(CellId(depth, idx))
        sub = smallest_subtree(marked, dim=dim)
        validate(sub)
        assert set(marked) <= sub.cells
        # minimality: every member is an ancestor of (or is) a marked cell
        for cell in sub.cells:
            assert any(cell in ancestors(m) for m in marked + [root_cell(dim)])


class TestGeometry:
    def test_diameter_law(self):
        for dim in (1, 2, 3, 8):
            for depth in (0, 1, 5):
                cell = CellId(depth, (0,) * dim)
                assert cell_diameter(cell) == pytest.approx(math.sqrt(dim) * 2.0**-depth)

    def test_volume_law(self):
        assert cell_volume(CellId(3, (1, 1))) == 2.0**-6

    def test_cube_center_inside(self):
        cell = CellId(2, (3, 0))
        center = cube_center(cell)
        assert locate(center, 2) == cell

    @given(st.integers(1, 4), st.integers(0, 10), st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_morton_roundtrip(self, dim, depth, seed):
        rng = np.random.default_rng(seed)
        idx = tuple(int(rng.integers(0, 1 << depth)) for _ in range(dim))
        cell = CellId(depth, idx)
        assert cells_from_codes(depth, np.array([cell_to_code(cell)]), dim) == [cell]


class TestLevelPartition:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_level_tiles_once(self, dim):
        # 10^4 random points: exactly one cell per depth contains each point,
        # and sibling cells never claim it
        rng = np.random.default_rng(99)
        points = rng.random((10_000, dim))
        for depth in (0, 1, 3, 5):
            for point in points[:: 2000]:
                cell = locate(point, depth)
                assert cell_contains(cell, point)
                if depth >= 1:
                    for other in children(parent(cell)):
                        if other != cell:
                            assert not cell_contains(other, point)
            codes = [tuple(locate(p, depth).index) for p in points[::100]]
            assert all(max(c) < 2**depth for c in codes)
