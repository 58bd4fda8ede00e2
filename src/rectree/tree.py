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

A tree is held as one sorted int64 array of Morton codes per depth
(Gargantini's linear quadtree, CACM 1982):
:func:`~rectree.stats.smallest_subtree` reads the subtree that a threshold
keeps off a statistics table's envelope column, one mask per depth, and
:func:`~rectree.reconstruction.outer_leaves` takes its leaves.  This
module holds only the API boundary: :class:`CellId` and the code
conversions behind the ``CellId`` views of a quantizer and of
:func:`~rectree.reconstruction.threshold_subtree`, which returns a
subtree as a frozenset of cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


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
