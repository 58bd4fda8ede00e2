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
(Gargantini's linear quadtree, CACM 1982): :func:`smallest_subtree` reads
the subtree that a threshold keeps off a statistics table's envelope
column, one mask per depth, and :func:`outer_leaves` takes its leaves.
:class:`CellId` and the code conversions serve only the API boundary: the
``CellId`` views of a quantizer and of
:func:`~rectree.reconstruction.threshold_subtree`, which returns a
subtree as a frozenset of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


def default_max_depth(dim: int) -> int:
    """Default storage depth cap: 32 per coordinate, scaled down by D."""
    return min(32, kernels.MORTON_BITS // dim)


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


def smallest_subtree(stats, eta: float) -> list[np.ndarray]:
    """The smallest subtree holding every cell of gain >= eta: sorted codes per depth.

    ``stats`` is a :class:`~rectree.stats.StatsTable`.  A cell is in the
    subtree exactly when its envelope, the largest gain among it and its
    stored descendants, reaches eta; the root always is.  The envelope
    never grows down a path, so the nonempty levels are a prefix: the
    result holds depths 0..deepest, {root} when no cell reaches eta.
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"eta {eta} must be finite and positive")
    kept = [lv.codes[lv.envelope >= eta] for lv in map(stats.level, range(1, stats.depth_cap))]
    return [np.zeros(1, dtype=np.int64)] + [codes for codes in kept if codes.size]


def outer_leaves(levels: list[np.ndarray], dim: int) -> dict[int, np.ndarray]:
    """All cells not in the subtree whose parent is in it: sorted codes per depth.

    ``levels`` are the subtree's codes per depth.  The depth-(d + 1) leaves
    are the children of the depth-d subtree cells minus the depth-(d + 1)
    subtree cells.
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
