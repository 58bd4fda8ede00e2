"""Per-cell reference model of the dyadic tree, for tests only.

``rectree.stats`` and ``rectree.reconstruction`` hold a tree as one
sorted array of Morton codes per depth.  This module keeps the
cell-by-cell form of the same definitions (``CellId`` in, ``CellId``
out, frozensets for subtrees and leaf sets), so that tests can check the
array form and the oracle against a literal reading of the definitions:

- ``locate``, ``children``, ``parent`` and ``ancestors`` walk the tree one
  cell at a time;
- ``Subtree`` holds a parent-closed cell set with its dimension; wrap
  the frozenset that ``rectree.reconstruction.threshold_subtree``
  returns as ``Subtree(cells, dim)`` to pass it to ``validate`` or
  ``outer_leaves``;
- ``smallest_subtree`` closes a marked set under ``parent``;
- ``closure_levels`` closes per-depth arrays of marked Morton codes with
  ``np.union1d``, one level at a time: the closure that the envelope
  column of a statistics table replaced;
- ``outer_leaves`` takes the children of the subtree not in the subtree;
- ``lookup`` and ``cells`` read one cell's statistics from a sample or an
  oracle table, with the count-0 statistics of an empty cell;
- ``approximation_error_from_table`` sums the oracle error of each leaf;
- ``isolation_depth`` encodes and counts the atoms' cells at each depth in
  turn until they separate, the depth ``oracle_stats`` reads off its sort;
- ``run_table_rows`` finds the leaf run holding each code with one binary
  search per code, the lookup a ``Quantizer``'s bucketed table replaces;
- ``quantizer_from_tables`` builds a ``Quantizer`` from per-depth tables
  of leaf codes and code vectors, their rows concatenated unsorted;
- ``leaf_cells`` reads a ``Quantizer``'s leaves back as a frozenset of
  ``CellId``s, for the tests that compare leaf sets or ask membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from rectree import kernels
from rectree.errors import DepthCapError, DomainError
from rectree.oracle import oracle_stats
from rectree.reconstruction import Quantizer, threshold_subtree
from rectree.kernels import default_max_depth
from rectree.tree import CellId, cell_to_code, cells_from_codes


class StructureError(ValueError):
    """A subtree or partition violates its structural invariants."""


@dataclass(frozen=True)
class Subtree:
    """Parent-closed set of cells containing the root."""

    cells: frozenset[CellId]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def root_cell(dim: int) -> CellId:
    return CellId(0, (0,) * dim)


def is_root(cell: CellId) -> bool:
    return cell.depth == 0


def cube_center(cell: CellId) -> np.ndarray:
    """Geometric center of the cell; the code vector of an empty leaf."""
    return (np.asarray(cell.index, dtype=np.float64) + 0.5) * 2.0 ** (-cell.depth)


@dataclass(frozen=True)
class CellStats:
    """One cell of a table; ``gain`` is None at the depth of a sample table."""

    count: float  # n_I, or the mass rho_I in an oracle table
    mass: float  # count / n
    center: np.ndarray
    error: float
    gain: float | None


def lookup(table, cell: CellId) -> CellStats:
    """A cell of a sample or oracle StatsTable; count 0 and the cube center if empty."""
    lv = table.level(cell.depth)
    hit = np.flatnonzero(lv.codes == cell_to_code(cell))
    if not hit.size:
        return CellStats(0, 0.0, cube_center(cell), 0.0, None if lv.gains is None else 0.0)
    row = int(hit[0])
    gain = None if lv.gains is None else float(lv.gains[row])
    count = lv.counts[row].item()
    return CellStats(count, count / table.n, lv.centers[row].copy(), float(lv.errors[row]), gain)


def cells(table, depth: int):
    """(CellId, CellStats) over the nonempty cells of one depth, in code order."""
    for cell in cells_from_codes(depth, table.level(depth).codes, table.dim):
        yield cell, lookup(table, cell)


def locate(point, depth: int, max_depth: int | None = None) -> CellId:
    """The unique cell of the given depth containing the point.

    Coordinates must lie in [0, 1); values at or beyond 1.0 are rejected,
    not clamped (normalization is the ingestion layer's job).
    """
    pt = np.asarray(point, dtype=np.float64)
    if pt.ndim != 1:
        raise ValueError("point must be a single vector")
    dim = pt.shape[0]
    cap = default_max_depth(dim) if max_depth is None else max_depth
    if depth < 0 or depth > cap:
        raise DepthCapError(f"depth {depth} exceeds max_depth {cap}")
    if not np.all(np.isfinite(pt)) or np.any(pt < 0.0) or np.any(pt >= 1.0):
        raise DomainError(f"point {pt.tolist()} outside [0, 1)^{dim}")
    # Scaling by 2**depth is exact, so the floor is the exact lattice index.
    idx = np.floor(pt * np.float64(2.0**depth)).astype(np.int64)
    return CellId(depth, tuple(int(k) for k in idx))


def children(cell: CellId, max_depth: int | None = None) -> frozenset[CellId]:
    """The 2**D cells at depth+1 tiling the given cell (index doubling rule)."""
    cap = default_max_depth(cell.dim) if max_depth is None else max_depth
    if cell.depth >= cap:
        raise DepthCapError(f"cell at depth {cell.depth} is at the depth cap {cap}")
    out = []
    for t in range(1 << cell.dim):
        idx = tuple(2 * k + ((t >> i) & 1) for i, k in enumerate(cell.index))
        out.append(CellId(cell.depth + 1, idx))
    return frozenset(out)


def parent(cell: CellId) -> CellId:
    """The enclosing cell one level up; the root is its own parent."""
    if is_root(cell):
        return cell
    return CellId(cell.depth - 1, tuple(k >> 1 for k in cell.index))


def ancestors(cell: CellId) -> list[CellId]:
    """The cell and every cell above it, up to the root."""
    chain = [cell]
    while not is_root(chain[-1]):
        chain.append(parent(chain[-1]))
    return chain


def validate(subtree: Subtree) -> None:
    """StructureError unless the subtree holds the root and is parent-closed."""
    if root_cell(subtree.dim) not in subtree.cells:
        raise StructureError("subtree does not contain the root")
    for cell in subtree.cells:
        if cell.dim != subtree.dim:
            raise StructureError(f"cell {cell} has dim {cell.dim}, expected {subtree.dim}")
        if not is_root(cell) and parent(cell) not in subtree.cells:
            raise StructureError(f"subtree not parent-closed at {cell}")


@dataclass(frozen=True)
class OuterLeafPartition:
    """Cells just outside a subtree; tiles the cube when the subtree is finite."""

    leaves: frozenset[CellId]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "leaves", frozenset(self.leaves))

    def __len__(self) -> int:
        return len(self.leaves)

    def __iter__(self):
        return iter(self.leaves)


def outer_leaves(subtree: Subtree) -> OuterLeafPartition:
    """All cells not in the subtree whose parent is in the subtree."""
    validate(subtree)
    leaves = set()
    for cell in subtree.cells:
        for child in children(cell, max_depth=cell.depth + 1):
            if child not in subtree.cells:
                leaves.add(child)
    branching = 1 << subtree.dim
    bound = (branching - 1) * len(subtree.cells) + 1
    if len(leaves) > bound:
        raise StructureError(f"{len(leaves)} outer leaves exceed the bound {bound}")
    return OuterLeafPartition(frozenset(leaves), subtree.dim)


def smallest_subtree(marked: Iterable[CellId], dim: int | None = None) -> Subtree:
    """Union of the ancestor chains of all marked cells, plus the root.

    Equals {root} when nothing is marked (``dim`` is then required to know
    which root to produce).
    """
    marked = list(marked)
    if dim is None:
        if not marked:
            raise ValueError("dim is required when the marked set is empty")
        dim = marked[0].dim
    cells = {root_cell(dim)}
    for cell in marked:
        if cell.dim != dim:
            raise ValueError(f"cell {cell} has dim {cell.dim}, expected {dim}")
        while cell not in cells:
            cells.add(cell)
            cell = parent(cell)
    return Subtree(frozenset(cells), dim)


def closure_levels(marked: dict[int, np.ndarray], dim: int) -> list[np.ndarray]:
    """Union of the ancestor chains of the marked cells, plus the root.

    ``marked`` maps depth -> marked Morton codes; the result holds the
    sorted subtree codes at depths 0..deepest, {root} when nothing is
    marked.  The union is carried up one level at a time (``code >> dim``
    is the parent).
    """
    deepest = max((depth for depth, codes in marked.items() if codes.size), default=0)
    levels = [np.zeros(1, dtype=np.int64)] * (deepest + 1)
    carry = np.zeros(0, dtype=np.int64)
    for depth in range(deepest, 0, -1):
        carry = np.union1d(marked.get(depth, carry[:0]), carry)
        levels[depth] = carry
        carry = carry >> dim
    return levels


def cell_diameter(cell: CellId) -> float:
    """sqrt(D) * 2**-j: the diagonal of a depth-j dyadic cube."""
    return math.sqrt(cell.dim) * 2.0 ** (-cell.depth)


def cell_volume(cell: CellId) -> float:
    """Lebesgue volume 2**(-j*D)."""
    return 2.0 ** (-cell.depth * cell.dim)


def cell_contains(cell: CellId, point) -> bool:
    pt = np.asarray(point, dtype=np.float64)
    lo = np.asarray(cell.index, dtype=np.float64) * 2.0 ** (-cell.depth)
    hi = lo + 2.0 ** (-cell.depth)
    return bool(np.all(pt >= lo) and np.all(pt < hi))


def approximation_error_from_table(table, eta: float) -> float:
    """Exact expected distortion sum_{leaves} E_I, one table lookup per leaf."""
    leaves = outer_leaves(Subtree(threshold_subtree(table, eta), table.dim))
    return math.fsum(lookup(table, cell).error for cell in leaves)


def isolation_depth(dist) -> int:
    """Smallest depth at which all atoms occupy distinct cells."""
    cap = default_max_depth(dist.dim)
    for depth in range(cap + 1):
        codes = kernels.morton_encode(dist.points, depth)
        if np.unique(codes).shape[0] == dist.points.shape[0]:
            return depth
    raise DepthCapError(f"atoms not separated by depth {cap}; they are too close")


def run_table_rows(starts: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Row of the last run starting at or below each code (-1 below the first)."""
    return np.searchsorted(starts, codes, side="right") - 1


def quantizer_from_tables(dim: int, tables: dict, *header, **named) -> Quantizer:
    """A Quantizer of per-depth (leaf codes, code vectors) tables; the constructor sorts them."""
    deepest = max(tables)
    starts = np.concatenate([codes << dim * (deepest - d) for d, (codes, _) in tables.items()])
    depths = np.concatenate([np.full(len(codes), d, np.int8) for d, (codes, _) in tables.items()])
    vectors = np.concatenate([vectors for _, vectors in tables.values()])
    return Quantizer(dim, starts, depths, vectors, *header, **named)


def leaf_cells(q: Quantizer) -> frozenset[CellId]:
    """The leaves of a Quantizer as CellIds, read from its per-depth tables."""
    return frozenset(cell for depth, (codes, _) in q.tables().items()
                     for cell in cells_from_codes(depth, codes, q.dim))


def leaf_count_bound_monitor(dist, etas) -> list[tuple[float, int, int]]:
    """(eta, #subtree, #leaves) rows for trend inspection; no hard assertion."""
    table = oracle_stats(dist)
    rows = []
    for eta in etas:
        sub = Subtree(threshold_subtree(table, float(eta)), table.dim)
        rows.append((float(eta), len(sub), len(outer_leaves(sub))))
    return rows
