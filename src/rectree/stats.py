"""Single-pass per-cell sample statistics down to a truncation depth.

For a dataset x_1..x_n and every nonempty dyadic cell I of depth <= cap,
the table holds

    count        n_I   = #{i : x_i in I}
    center       c_I   = mean of the x_i in I          (cube center if empty)
    local_error  E_I   = (1/n) sum_{x_i in I} |x_i - c_I|^2
    gain         eps_I = sqrt( sum_{J child of I} (n_J/n) |c_J - c_I|^2 )

computed with a two-pass (mean, then scatter) scheme per cell to avoid
the cancellation of a running sum-of-squares.  The gain uses the
center-difference form, which is nonnegative by construction; it agrees
with E_I - sum_J E_J by the between-within decomposition of the variance,
and :meth:`StatsTable.gain_sq_by_difference` exposes that second route for
cross-checking.

Cells at the truncation depth are unexpandable: their children are never
measured, so their gain is undefined (``None``), and thresholding only
ever inspects cells strictly above the cap.

Empty cells are not stored.  They contribute zero to every sum above, so
sparse storage is exact, and lookups synthesize the count-0 statistics
with the cube-center fallback on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DepthCapError, DomainError
from .tree import CellId, cell_to_code, cells_from_codes, cube_center, default_max_depth


@dataclass(frozen=True)
class Dataset:
    """n sample vectors in [0, 1)^D, row per sample."""

    points: np.ndarray
    normalization: object | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d (n, dim), got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        bad = ~np.isfinite(pts) | (pts < 0.0) | (pts >= 1.0)
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            raise DomainError(f"point {i} = {pts[i].tolist()} outside [0, 1)^{pts.shape[1]}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class CellStats:
    """Per-cell empirical quantities; ``gain`` is None at the truncation depth."""

    count: int
    center: np.ndarray
    local_error: float
    gain: float | None


@dataclass
class _Level:
    codes: np.ndarray    # sorted Morton codes of nonempty cells
    counts: np.ndarray
    centers: np.ndarray  # (m, dim)
    errors: np.ndarray   # E_I, already divided by n
    gains: np.ndarray | None


@dataclass
class StatsTable:
    """Sparse per-cell statistics for all nonempty cells of depth <= depth_cap."""

    dim: int
    n: int
    depth_cap: int
    _levels: list[_Level] = field(repr=False)

    def level(self, depth: int) -> _Level:
        if not 0 <= depth <= self.depth_cap:
            raise DepthCapError(f"depth {depth} outside table range 0..{self.depth_cap}")
        return self._levels[depth]

    def lookup(self, cell: CellId) -> CellStats:
        """Statistics of any cell of depth <= depth_cap; empty cells synthesized."""
        lv = self.level(cell.depth)
        code = cell_to_code(cell)
        row = int(np.searchsorted(lv.codes, code))
        gain_defined = cell.depth < self.depth_cap
        if row >= lv.codes.shape[0] or lv.codes[row] != code:
            return CellStats(0, cube_center(cell), 0.0, 0.0 if gain_defined else None)
        return CellStats(
            int(lv.counts[row]),
            lv.centers[row].copy(),
            float(lv.errors[row]),
            float(lv.gains[row]) if gain_defined else None,
        )

    def __getitem__(self, cell: CellId) -> CellStats:
        return self.lookup(cell)

    def __contains__(self, cell: CellId) -> bool:
        return self.lookup(cell).count > 0

    def cells(self, depth: int):
        """Iterate (CellId, CellStats) over the nonempty cells of one depth."""
        for cell in cells_from_codes(depth, self.level(depth).codes, self.dim):
            yield cell, self.lookup(cell)

    def gain_sq_by_difference(self, depth: int) -> np.ndarray:
        """E_I - sum_J E_J per nonempty cell of the given depth (test cross-check)."""
        if depth >= self.depth_cap:
            raise DepthCapError(f"no children statistics below depth {depth}")
        lv, child = self._levels[depth], self._levels[depth + 1]
        child_err_sum = np.zeros(lv.codes.shape[0])
        if child.codes.shape[0]:
            prow = np.searchsorted(lv.codes, child.codes >> self.dim)
            np.add.at(child_err_sum, prow, child.errors)
        return lv.errors - child_err_sum


def build_stats(data: Dataset, depth_cap: int) -> StatsTable:
    """Exact sample statistics for every nonempty cell of depth <= depth_cap.

    One Morton sort at the deepest level orders the points for every
    coarser level at once (coarse codes are prefixes of fine codes), so
    each level is a contiguous grouped reduction.
    """
    dim, n = data.dim, data.n
    if depth_cap < 0 or depth_cap > default_max_depth(dim):
        raise DepthCapError(f"depth_cap {depth_cap} outside 0..{default_max_depth(dim)}")
    deep_codes = kernels.morton_encode(data.points, depth_cap)
    order = np.argsort(deep_codes, kind="stable")
    pts = np.ascontiguousarray(data.points[order])
    deep_codes = deep_codes[order]

    levels: list[_Level] = []
    for depth in range(depth_cap + 1):
        codes = deep_codes >> (dim * (depth_cap - depth))
        starts = np.concatenate([[0], np.flatnonzero(np.diff(codes)) + 1])
        counts, means, scatters = kernels.group_moments(pts, starts)
        levels.append(_Level(codes[starts], counts, means, scatters / n, None))

    for depth in range(depth_cap):
        lv, child = levels[depth], levels[depth + 1]
        pcodes = child.codes >> dim
        prow = np.searchsorted(lv.codes, pcodes)
        weights = child.counts / n
        diff_sq = ((child.centers - lv.centers[prow]) ** 2).sum(axis=1)
        seg_starts = np.concatenate([[0], np.flatnonzero(np.diff(pcodes)) + 1])
        gain_sq = np.add.reduceat(weights * diff_sq, seg_starts)
        lv.gains = np.sqrt(gain_sq)

    return StatsTable(dim=dim, n=n, depth_cap=depth_cap, _levels=levels)


def gain(stats: StatsTable, cell: CellId) -> float:
    """Refinement gain of one cell (center-difference form); 0 for empty cells.

    Raises for cells at the truncation depth, whose children were never
    measured.
    """
    if cell.depth >= stats.depth_cap:
        raise DepthCapError(
            f"cell at depth {cell.depth} has no children statistics (cap {stats.depth_cap})"
        )
    value = stats.lookup(cell).gain
    return float(value) if value is not None else 0.0
