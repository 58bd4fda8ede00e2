"""Per-cell sample statistics down to a truncation depth, built bottom-up.

For a dataset x_1..x_n and every nonempty dyadic cell I of depth <= cap,
the table holds

    count        n_I   = #{i : x_i in I}
    center       c_I   = mean of the x_i in I          (cube center if empty)
    local_error  E_I   = (1/n) sum_{x_i in I} |x_i - c_I|^2
    gain         eps_I = sqrt( sum_{J child of I} (n_J/n) |c_J - c_I|^2 )

Only the deepest level reads the points, with a two-pass (mean, then
scatter) reduction per cell that avoids the cancellation of a running
sum-of-squares.  Each coarser cell merges its children (Chan, Golub &
LeVeque): n_I and the point sum s_I are the children's totals,
c_I = s_I / n_I, b_I = sum_J n_J |c_J - c_I|^2, eps_I = sqrt(b_I / n) and
n E_I = sum_J n E_J + b_I, so the between-within identity
E_I = sum_J E_J + eps_I^2 holds by construction (cross-check:
:meth:`StatsTable.gain_sq_by_difference`).  Sums, not means, are carried,
so a cell with one child copies that child's statistics bit for bit.

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
        child = self._levels[depth + 1]
        first = np.flatnonzero(np.diff(child.codes >> self.dim, prepend=-1))
        return self._levels[depth].errors - np.add.reduceat(child.errors, first)


def _sum_runs(x, starts, rows, runs, merged):
    """Per parent, its first child's x, or the children's sum where it has several."""
    out = np.take(x, starts, axis=0)
    out[merged] = np.add.reduceat(np.take(x, rows, axis=0), runs, axis=0)
    return out


def build_stats(data: Dataset, depth_cap: int) -> StatsTable:
    """Exact sample statistics for every nonempty cell of depth <= depth_cap.

    One Morton sort orders the points at the cap; a coarse code is a prefix
    of a fine one, so each cell's children are a contiguous run of the
    level below and every coarser level is a grouped merge of that level.
    """
    dim, n = data.dim, data.n
    if depth_cap < 0 or depth_cap > default_max_depth(dim):
        raise DepthCapError(f"depth_cap {depth_cap} outside 0..{default_max_depth(dim)}")
    deep_codes = kernels.morton_encode(data.points, depth_cap)
    order = np.argsort(deep_codes, kind="stable")
    pts = np.take(data.points, order, axis=0)
    deep_codes = deep_codes[order]

    starts = np.concatenate([[0], np.flatnonzero(np.diff(deep_codes)) + 1])
    counts, sums, scatters = kernels.group_moments(pts, starts)
    centers = sums / counts[:, None]
    levels = [_Level(deep_codes[starts], counts, centers, scatters / n, None)]
    for _ in range(depth_cap):
        child = levels[-1]
        codes = child.codes >> dim
        first = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, codes.shape[0]))
        # Most parents copy their only child; the parents in ``merged``
        # reduce child rows ``rows``, one run per parent starting at ``runs``.
        merged = np.flatnonzero(sizes > 1)
        rows = np.flatnonzero(~(first & np.append(first[1:], True)))
        runs = np.flatnonzero(first[rows])
        counts, sums, scatters = (
            _sum_runs(x, starts, rows, runs, merged) for x in (child.counts, sums, scatters)
        )
        centers = sums / counts[:, None]
        diff = np.take(child.centers, rows, axis=0)
        diff -= np.repeat(np.take(centers, merged, axis=0), sizes[merged], axis=0)
        between = np.add.reduceat(child.counts[rows] * np.einsum("ij,ij->i", diff, diff), runs)
        scatters[merged] += between
        gains = np.zeros(starts.shape[0])
        gains[merged] = np.sqrt(between / n)
        levels.append(_Level(codes[starts], counts, centers, scatters / n, gains))

    return StatsTable(dim=dim, n=n, depth_cap=depth_cap, _levels=levels[::-1])

