"""Dyadic partition trees over the unit cube [0, 1)^D.

The tree is implicit: a cell is addressed arithmetically by its depth and
lattice index, and only subtrees and per-cell statistics are ever
materialized (the full tree at depth j has 2**(j*D) cells and must never
be allocated).  Cells are half-open boxes

    [k_1 2^-j, (k_1+1) 2^-j) x ... x [k_D 2^-j, (k_D+1) 2^-j),

so every point of the cube lies in exactly one cell per depth, the lower
face included and the upper face excluded.

A (proper) subtree is a parent-closed set of cells containing the root.
Its outer leaves are the cells just outside it, i.e. cells not in the
subtree whose parent is; for a finite subtree they tile the cube and
satisfy the exact cardinality bound

    #leaves <= (a - 1) * #subtree + 1,      a = 2**D.

The fitting path holds a tree as one sorted int64 array of Morton codes
per depth (Gargantini's linear quadtree, CACM 1982; :func:`subtree_codes`,
:func:`outer_leaf_codes`).  :class:`CellId` and the per-cell functions
serve the API boundary and are the reference the array form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels
from .errors import DepthCapError, DomainError, StructureError

# Lattice indices are bit-interleaved into signed 64-bit codes, so the
# usable depth is capped at 62 bits total across coordinates.
MORTON_BITS = 62


def default_max_depth(dim: int) -> int:
    """Default storage depth cap: 32 per coordinate, scaled down by D."""
    return min(32, MORTON_BITS // dim)


@dataclass(frozen=True)
class CellId:
    """Address of one dyadic cell: depth j and lattice index k, k[i] < 2**j."""

    depth: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"negative depth {self.depth}")
        object.__setattr__(self, "index", tuple(int(k) for k in self.index))
        top = 1 << self.depth
        for k in self.index:
            if not 0 <= k < top:
                raise ValueError(f"lattice index {k} out of range at depth {self.depth}")

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def is_root(self) -> bool:
        return self.depth == 0


def root_cell(dim: int) -> CellId:
    return CellId(0, (0,) * dim)


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
    if cell.is_root:
        return cell
    return CellId(cell.depth - 1, tuple(k >> 1 for k in cell.index))


@dataclass(frozen=True)
class Subtree:
    """Parent-closed set of cells containing the root."""

    cells: frozenset[CellId]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: CellId) -> bool:
        return cell in self.cells

    def __iter__(self):
        return iter(self.cells)

    @classmethod
    def from_codes(cls, levels: list[np.ndarray], dim: int) -> "Subtree":
        """The subtree whose depth-d cells have the Morton codes ``levels[d]``."""
        cells = [c for d, codes in enumerate(levels) for c in cells_from_codes(d, codes, dim)]
        return cls(frozenset(cells), dim)

    def validate(self) -> None:
        if root_cell(self.dim) not in self.cells:
            raise StructureError("subtree does not contain the root")
        for cell in self.cells:
            if cell.dim != self.dim:
                raise StructureError(f"cell {cell} has dim {cell.dim}, expected {self.dim}")
            if not cell.is_root and parent(cell) not in self.cells:
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

    def __contains__(self, cell: CellId) -> bool:
        return cell in self.leaves

    def __iter__(self):
        return iter(self.leaves)


def outer_leaves(subtree: Subtree) -> OuterLeafPartition:
    """All cells not in the subtree whose parent is in the subtree."""
    subtree.validate()
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


def cube_center(cell: CellId) -> np.ndarray:
    """Geometric center of the cell; the fallback code vector for empty cells."""
    return (np.asarray(cell.index, dtype=np.float64) + 0.5) * 2.0 ** (-cell.depth)


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


def cell_to_code(cell: CellId) -> int:
    """Bit-interleaved (Morton) form of the lattice index."""
    code = 0
    for b in range(cell.depth):
        for k in range(cell.dim):
            code |= ((cell.index[k] >> b) & 1) << (b * cell.dim + k)
    return code


def cells_from_codes(depth: int, codes: np.ndarray, dim: int) -> list[CellId]:
    """The cells of one depth's Morton codes, in code order."""
    return [CellId(depth, tuple(k)) for k in kernels.morton_decode(codes, depth, dim).tolist()]


def subtree_codes(marked: dict[int, np.ndarray], dim: int) -> list[np.ndarray]:
    """Array form of :func:`smallest_subtree`: sorted codes at depths 0..deepest.

    ``marked`` maps depth -> marked codes; the union is carried up one level
    at a time (``code >> dim`` is the parent).  The root is always included.
    """
    deepest = max((depth for depth, codes in marked.items() if codes.size), default=0)
    levels = [np.zeros(1, dtype=np.int64)] * (deepest + 1)
    carry = np.zeros(0, dtype=np.int64)
    for depth in range(deepest, 0, -1):
        carry = np.union1d(marked.get(depth, carry[:0]), carry)
        levels[depth] = carry
        carry = carry >> dim
    return levels


def outer_leaf_codes(levels: list[np.ndarray], dim: int) -> dict[int, np.ndarray]:
    """Array form of :func:`outer_leaves`: sorted leaf codes per depth.

    The depth-(d + 1) leaves are the children of the depth-d subtree cells
    minus the depth-(d + 1) subtree cells.
    """
    offsets = np.arange(1 << dim, dtype=np.int64)
    leaves = {}
    for depth, codes in enumerate(levels):
        kids = ((codes[:, None] << dim) | offsets).ravel()
        if depth + 1 < len(levels):
            kids = kids[~np.isin(kids, levels[depth + 1], assume_unique=True)]
        if kids.size:
            leaves[depth + 1] = kids
    return leaves
