"""Per-cell sample statistics down to a table depth, built from one sort.

For a dataset x_1..x_n and every nonempty dyadic cell I of depth <= the
table depth, the table holds

    count        n_I   = #{i : x_i in I}
    center       c_I   = mean of the x_i in I          (cube center if empty)
    local_error  E_I   = (1/n) sum_{x_i in I} |x_i - c_I|^2
    gain         eps_I = sqrt( sum_{J child of I} (n_J/n) |c_J - c_I|^2 )
    envelope     t_I   = max(eps_I, max_{J child of I} t_J)   (the largest gain at or below I)

The table depth is the requested cap, or, given the smallest threshold
eta that will be applied, the certified depth j* <= cap: the first depth
at which no cell can reach eta, since eps_I <= sqrt(n_I D / n) 2^-(j+1)
(:func:`gain_bound`).  A threshold at eta or above selects the same cells
from either table.

The points are Morton-sorted once at the cap, by the linear-time radix
sort :func:`~rectree.kernels.morton_argsort` (the permutation of a stable
comparison sort), so every cell is a run of the sorted points.  Each
level's point sums are one reduction over the sorted points at that
level's run starts, so a center does not depend on the depth the table
stops at.  Only the deepest level computes a scatter
from the points, with a two-pass (mean, then scatter) reduction per cell
that avoids the cancellation of a running sum-of-squares.  Every coarser
cell is one merge of its run of children (Chan, Golub & LeVeque), found by
:meth:`_Level.child_runs`: b_I = sum_J n_J |c_J - c_I|^2, eps_I =
sqrt(b_I / n) and n E_I = sum_J n E_J + b_I, so the between-within
identity E_I = sum_J E_J + eps_I^2 holds by construction (cross-check:
:meth:`StatsTable.gain_sq_by_difference`).  The rule has no one-child
case: such a cell holds the same points in the same order as its child,
so its center is the child's bit for bit, b_I is exactly 0 and its error
is the child's.

Cells at the table depth are unexpandable: their children are never
measured, so their gain is undefined (``None``) and their envelope -inf:
thresholding keeps the root and the cells with t_I >= eta, all above it,
which :func:`smallest_subtree` reads off as one mask per depth.

Empty cells are not stored.  They contribute zero to every sum above, so
sparse storage is exact, and each row stores its parent's t (+inf at
depth 1): the nonempty leaves at eta are the rows with t_I < eta <=
t_parent(I).  The oracle's exact population table
(:func:`~rectree.oracle.oracle_stats`) is a table of this type with the
masses as counts and n = 1, so ``counts / n`` is a cell's share in both;
it populates gains at its deepest level too, where they are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DepthCapError, DomainError


@dataclass(frozen=True)
class Dataset:
    """n sample vectors in [0, 1)^D, row per sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be 2-d (n, dim) with dim >= 1, got shape {pts.shape}")
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


@dataclass
class _Level:
    codes: np.ndarray    # sorted Morton codes of nonempty cells
    counts: np.ndarray   # n_I; an oracle table holds the masses rho_I here, with n = 1
    centers: np.ndarray  # (m, dim)
    errors: np.ndarray   # E_I, already divided by n
    gains: np.ndarray | None
    envelope: np.ndarray  # t_I, the largest gain at or below I; -inf at the table depth
    parent_envelope: np.ndarray | None = None  # +inf at depth 1 (S holds the root), None at 0

    def child_runs(self, dim: int) -> np.ndarray:
        """First row of each parent's run of children, this level being the children."""
        return np.flatnonzero(np.diff(self.codes >> dim, prepend=-1))


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

    def gain_sq_by_difference(self, depth: int) -> np.ndarray:
        """E_I - sum_J E_J per nonempty cell of the given depth (test cross-check)."""
        if depth >= self.depth_cap:
            raise DepthCapError(f"no children statistics below depth {depth}")
        child = self._levels[depth + 1]
        within = np.add.reduceat(child.errors, child.child_runs(self.dim))
        return self._levels[depth].errors - within


def smallest_subtree(stats: StatsTable, eta: float) -> list[np.ndarray]:
    """The smallest subtree holding every cell of gain >= eta: sorted codes per depth.

    A cell is in the subtree exactly when its envelope, the largest gain
    among it and its stored descendants, reaches eta; the root always is.
    The envelope never grows down a path, so the nonempty levels are a
    prefix: the result holds depths 0..deepest, {root} when no cell
    reaches eta.
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"eta {eta} must be finite and positive")
    kept = [lv.codes[lv.envelope >= eta] for lv in map(stats.level, range(1, stats.depth_cap))]
    return [np.zeros(1, dtype=np.int64)] + [codes for codes in kept if codes.size]


def _check_depth_one(dim: int, depth: int) -> None:
    """DepthCapError if ``depth`` >= 1 but a Morton code of ``dim`` coordinates has no depth 1."""
    if depth >= 1 > kernels.default_max_depth(dim):
        raise DepthCapError(f"dim {dim} has no depth-1 cells in a {kernels.MORTON_BITS}-bit code")


def gain_bound(share, depth: int, dim: int, summed=1):
    """An upper bound on the computed gain of a depth-``depth`` cell holding ``share`` of the mass.

    eps_I**2 <= E_I by the between-within identity, and
    E_I <= share * dim * 4**-depth / 4 by Popoviciu's variance bound per
    coordinate of a cube of side 2**-depth, so
    eps_I <= sqrt(share * dim) * 2**-(depth + 1).

    A computed gain also carries the rounding of the centers it compares.
    A center summed in sequence from ``summed`` coordinates in [0, 1) is
    off by at most about summed * 2**-53, against a half-side of
    2**-(depth + 1), so the bound is widened by a relative
    (summed + 1) * 2**(depth - 47), several times that error.  The widened
    bound only shrinks down the tree as long as ``share`` and ``summed``
    do, so once every cell of some depth falls below eta, every deeper
    cell does too.
    """
    return np.sqrt(share * dim) * 2.0 ** -(depth + 1) * (1.0 + (summed + 1) * 2.0 ** (depth - 47))


def build_stats(data: Dataset, depth_cap: int, eta: float | None = None) -> StatsTable:
    """Exact sample statistics for every nonempty cell of depth <= the table depth.

    The table depth is ``depth_cap``, or with ``eta`` the certified depth
    j* <= depth_cap: the first depth >= 1 at which :func:`gain_bound` puts
    every cell below eta.  No cell at or below j* can reach eta, so a
    threshold >= eta selects the same cells from this table as from the
    one built to depth_cap, and finds every leaf in it.  With ``eta``,
    depth_cap may exceed :func:`~rectree.kernels.default_max_depth` as long
    as j* does not.  A depth_cap >= 1 in a dim whose Morton code has no
    depth-1 cell (D >= 63) is refused, as :func:`~rectree.oracle.oracle_stats`
    refuses it.

    One Morton sort orders the points at the deepest depth searched: an
    LSD radix sort of the dim * deepest code bits in 16-bit digits
    (:func:`~rectree.kernels.morton_argsort`), which gives exactly the
    permutation of ``np.argsort(codes, kind="stable")`` in linear time.  A
    coarse code is a prefix of a fine one, so every cell is a run of the
    sorted points and its children are a contiguous run of the level
    below.  Each level's runs and counts come from one pass over the
    sorted codes, top-down, which is where j* is read off.  Then, bottom-up,
    every parent is the merge of its run of child rows, whether it has one
    child or many, and its envelope the maximum of its gain and theirs.
    """
    dim, n, max_depth = data.dim, data.n, kernels.default_max_depth(data.dim)
    _check_depth_one(dim, depth_cap)
    if depth_cap < 0 or (eta is None and depth_cap > max_depth):
        raise DepthCapError(f"depth_cap {depth_cap} outside 0..{max_depth}")
    deepest = min(depth_cap, max_depth)
    deep_codes = kernels.morton_encode(data.points, deepest)
    order = kernels.morton_argsort(deep_codes, dim * deepest)
    pts = np.take(data.points, order, axis=0)
    deep_codes = deep_codes[order]

    # Neighbours in the sorted order share their depth-j cell unless their
    # codes differ above the low dim * (deepest - j) bits.
    fork = deep_codes[1:] ^ deep_codes[:-1]
    starts, counts = [], []
    for depth in range(deepest + 1):
        first = np.flatnonzero(fork >= 1 << dim * (deepest - depth)) + 1
        starts.append(np.concatenate([[0], first]))
        counts.append(np.diff(np.append(starts[-1], n)))
        heaviest = int(counts[-1].max())
        if eta is not None and depth >= 1 and gain_bound(heaviest / n, depth, dim, heaviest) < eta:
            break
    else:
        if depth_cap > max_depth:
            raise DepthCapError(f"depth_cap {depth_cap} exceeds max_depth {max_depth} and eta = "
                                f"{eta!r} is not certified above it; raise eta or lower the cap")
    cap = len(starts) - 1

    def codes(depth):
        return deep_codes[starts[depth]] >> dim * (deepest - depth)

    _, sums, scatters = kernels.group_moments(pts, starts[cap])
    levels = [_Level(codes(cap), counts[cap], sums / counts[cap][:, None], scatters / n, None,
                     np.full(len(counts[cap]), -np.inf))]
    for depth in range(cap - 1, -1, -1):
        child = levels[-1]
        # Sums are reduced from the points at every level, so a center does
        # not depend on the depth the table stops at.
        centers = np.add.reduceat(pts, starts[depth], axis=0) / counts[depth][:, None]
        first = child.child_runs(dim)
        runs = np.diff(first, append=len(child.codes))
        diff = child.centers - np.repeat(centers, runs, 0)
        between = np.add.reduceat(child.counts * np.einsum("ij,ij->i", diff, diff), first)
        scatters = np.add.reduceat(scatters, first) + between
        gains = np.sqrt(between / n)
        envelope = np.maximum(gains, np.maximum.reduceat(child.envelope, first))
        child.parent_envelope = np.repeat(np.inf if depth == 0 else envelope, runs)
        levels.append(_Level(codes(depth), counts[depth], centers, scatters / n, gains, envelope))

    return StatsTable(dim=dim, n=n, depth_cap=cap, _levels=levels[::-1])
