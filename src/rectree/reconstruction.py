"""Thresholded refinement of the partition tree and the resulting quantizer.

Given per-cell statistics to a truncation depth j_n, a threshold eta > 0
selects the cells whose refinement gain satisfies eps_I >= eta (inclusive,
so ties expand).  The kept subtree is the smallest parent-closed set
containing every selected cell, {root} when nothing is selected, and the
quantizer is the outer-leaf partition of that subtree with one code vector
per leaf: the leaf's center of mass when it saw training data, the cube
center otherwise (so decoding is total).

The path runs on sorted Morton-code arrays, one per depth, and a
:class:`Quantizer` holds its leaves as sorted runs of deepest-level codes.
:func:`encode` and :func:`decode` speak (depth, lattice index) arrays, the
form of the codebook file and the ``rectree encode``/``decode`` CSVs.
``CellId`` appears only in :func:`threshold_subtree` and the
``leaves``/``codebook`` views.

The data-driven run couples the threshold and the truncation depth to the
sample size n:

    j_n   = floor(gamma * ln n / ln a)
    eta_n = sqrt((gamma + beta) * ln n / (c * n))

with a = 2**D.  The constant c prescribed by the concentration analysis is
c_a = 1/(128 (a+1)); it is provably loose, and at bench scale it pushes
eta_n above every achievable gain, freezing the tree at the root for any
n below about 10^6.  The schedule therefore treats c as a calibration
constant: the default 1.5 was fixed once so that the bench-scale threshold
range overlaps the gain ladders of the reference distributions, and the
analysis value stays available as :attr:`RateSchedule.c_a` and via
:meth:`RateSchedule.with_theoretical_constant`.  The decay exponent being
measured does not depend on c.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError
from .stats import Dataset, StatsTable, build_stats
from .tree import (
    CellId,
    Subtree,
    cells_from_codes,
    default_max_depth,
    outer_leaves,
    smallest_subtree,
)

CODEBOOK_FORMAT = "rectree-codebook"
CODEBOOK_VERSION = 1


@dataclass(frozen=True)
class RateSchedule:
    """Parameters (gamma, beta, a) and the derived j_n, eta_n, c_a."""

    branching: int
    gamma: float = 1.5
    beta: float = 1.0
    threshold_constant: float = 1.5

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be at least 2")
        if not (0 < self.gamma < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"gamma {self.gamma} and beta {self.beta} must be finite and positive")
        if not 0 < self.threshold_constant < math.inf:
            raise ValueError(f"threshold_constant {self.threshold_constant} "
                             "must be finite and positive")

    @classmethod
    def with_theoretical_constant(cls, branching: int, gamma: float = 1.5, beta: float = 1.0):
        """Schedule using the analysis constant c_a = 1/(128(a+1)) verbatim."""
        return cls(branching, gamma, beta, threshold_constant=1.0 / (128.0 * (branching + 1)))

    @property
    def c_a(self) -> float:
        """The concentration constant 1/(128(a+1)) from the analysis."""
        return 1.0 / (128.0 * (self.branching + 1))

    def depth_cap(self, n: int) -> int:
        """j_n = floor(gamma ln n / ln a); deeper trees as data size grows."""
        if n < 1:
            raise ValueError("n must be positive")
        depth = self.gamma * math.log(n) / math.log(self.branching)
        if depth == math.inf:
            raise ValueError(f"gamma {self.gamma} gives an infinite j_n at n = {n}")
        return int(math.floor(depth))

    def eta_n(self, n: int) -> float:
        """Data-driven threshold sqrt((gamma+beta) ln n / (c n))."""
        if n < 2:
            raise ValueError("eta_n requires n >= 2 (ln 1 = 0 gives no threshold)")
        return math.sqrt((self.gamma + self.beta) * math.log(n) / (self.threshold_constant * n))


def _subtree_levels(stats: StatsTable, eta: float, depth_cap: int | None) -> list[np.ndarray]:
    """Sorted subtree codes per depth: the closure of codes[gains >= eta], depth < cap."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta {eta} must be finite and positive")
    cap = stats.depth_cap if depth_cap is None else min(depth_cap, stats.depth_cap)
    marked = {d: stats.level(d).codes[stats.level(d).gains >= eta] for d in range(cap)}
    return smallest_subtree(marked, stats.dim)


def threshold_subtree(stats: StatsTable, eta: float, depth_cap: int | None = None) -> Subtree:
    """Smallest subtree containing every cell with gain >= eta.

    Only cells of depth < depth_cap are inspected: a gain needs children
    statistics one level down, so the deepest measurable candidates sit
    one level above the cap.  Returns {root} when no cell qualifies.
    """
    return Subtree.from_codes(_subtree_levels(stats, eta, depth_cap), stats.dim)


@dataclass
class Quantizer:
    """An outer-leaf partition with one code vector per leaf.

    With m the deepest leaf depth, a depth-d leaf of Morton code c is the
    run [c << dim (m - d), (c + 1) << dim (m - d)) of depth-m codes.  The
    leaves are held as their run starts, sorted (so the runs tile
    [0, 2**(dim m)) in order), with each leaf's depth and code vector in
    the same order.  ``tables()`` is a per-depth view of these rows, and
    ``codebook`` and ``leaves`` are views keyed by ``CellId``.
    """

    dim: int
    starts: np.ndarray = field(repr=False)   # int64, sorted depth-m codes
    depths: np.ndarray = field(repr=False)   # int8
    vectors: np.ndarray = field(repr=False)  # (leaves, dim)
    threshold: float
    depth_cap: int
    gamma: float | None = None
    beta: float | None = None
    deepest: int = field(init=False)

    def __post_init__(self):
        self.deepest = int(self.depths.max())

    @classmethod
    def from_tables(cls, dim: int, tables: dict[int, tuple[np.ndarray, np.ndarray]],
                    threshold: float, depth_cap: int,
                    gamma: float | None = None, beta: float | None = None) -> "Quantizer":
        """A quantizer from per-depth (leaf codes, code vectors) tables that tile the cube."""
        deepest = max(tables)
        starts = np.concatenate([codes << dim * (deepest - d) for d, (codes, _) in tables.items()])
        depths = np.concatenate([np.full(len(c), d, np.int8) for d, (c, _) in tables.items()])
        vectors = np.concatenate([vectors for _, vectors in tables.values()])
        order = np.argsort(starts, kind="stable")
        return cls(dim, starts[order], depths[order], vectors[order],
                   threshold, depth_cap, gamma, beta)

    def tables(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-depth (sorted Morton codes, aligned code-vector matrix), ascending in depth."""
        out = {}
        for depth in np.unique(self.depths).tolist():
            rows = np.flatnonzero(self.depths == depth)
            codes = self.starts[rows] >> self.dim * (self.deepest - depth)
            out[depth] = (codes, self.vectors[rows])
        return out

    @property
    def codebook(self) -> "Codebook":
        return Codebook(self)

    @property
    def leaves(self):
        """The leaves as a set of CellIds."""
        return self.codebook.keys()

    def _rows(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(leaf row, depth-m code) per point: one encode and one search."""
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"point dim {points.shape[-1]} != quantizer dim {self.dim}")
        deep = kernels.morton_encode(points, self.deepest)
        rows = np.searchsorted(self.starts, deep, side="right") - 1
        size = 1 << self.dim * (self.deepest - self.depths[rows].astype(np.int64))
        if np.any((rows < 0) | (deep >= self.starts[rows] + size)):
            raise DomainError("some points were not covered by any leaf")
        return rows, deep

    def assign(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leaf (depth, Morton code) per point.

        The leaf is the run that holds the point's depth-m code, and its own
        code is that code shifted, since floor(x 2**m) >> (m - d) == floor(x 2**d).
        """
        rows, deep = self._rows(points)
        depths = self.depths[rows].astype(np.int64)
        return depths, deep >> self.dim * (self.deepest - depths)

    def reconstruct(self, points: np.ndarray) -> np.ndarray:
        """Code vector of the leaf containing each point."""
        return np.take(self.vectors, self._rows(points)[0], axis=0)


class Codebook(Mapping):
    """Leaf CellId -> code vector, read from a quantizer's rows on demand."""

    def __init__(self, quantizer: Quantizer):
        self._q = quantizer

    def __getitem__(self, cell: CellId) -> np.ndarray:
        try:
            return decode(self._q, [cell.depth], [cell.index])[0]
        except (AttributeError, ValueError):
            raise KeyError(cell) from None

    def __iter__(self):
        for depth, (codes, _) in self._q.tables().items():
            yield from cells_from_codes(depth, codes, self._q.dim)

    def __len__(self) -> int:
        return self._q.starts.shape[0]


def quantizer_from_stats(
    stats: StatsTable,
    eta: float,
    gamma: float | None = None,
    beta: float | None = None,
    depth_cap: int | None = None,
) -> Quantizer:
    """Threshold, take outer leaves, and attach code vectors."""
    cap = stats.depth_cap if depth_cap is None else depth_cap
    tables = {}
    for depth, codes in outer_leaves(_subtree_levels(stats, eta, cap), stats.dim).items():
        lv = stats.level(depth)
        rows = lv.rows(codes)
        stored = rows >= 0
        vectors = np.empty((codes.shape[0], stats.dim))
        vectors[stored] = lv.centers[rows[stored]]
        # Empty leaves get their cube center.
        empty = kernels.morton_decode(codes[~stored], depth, stats.dim)
        vectors[~stored] = (empty + 0.5) * 2.0 ** (-depth)
        tables[depth] = (codes, vectors)
    return Quantizer.from_tables(stats.dim, tables, eta, cap, gamma, beta)


def _schedule_stats(data: Dataset, etas: list[float], schedule: RateSchedule):
    """Check etas and schedule against the data; (statistics for the smallest eta, j_n).

    The table stops at the depth that the smallest eta certifies (see
    :func:`~rectree.stats.build_stats`), so j_n may exceed the deepest
    storable depth as long as that certified depth does not.
    """
    if not etas:
        raise ValueError("no thresholds given")
    bad = [eta for eta in etas if not 0 < eta < math.inf]
    if bad:
        raise ValueError(f"eta {bad[0]} must be finite and positive")
    if schedule.branching != 1 << data.dim:
        raise ValueError(f"schedule branching {schedule.branching} does not match dim {data.dim}")
    cap = schedule.depth_cap(data.n)
    # Leaves reach depth max(1, j_n), so the table has a level below the root.
    return build_stats(data, max(1, cap), min(etas)), cap


def fit(data: Dataset, eta: float, schedule: RateSchedule) -> Quantizer:
    """Build statistics to depth min(j_n, j*), threshold at eta, extract the quantizer."""
    stats, cap = _schedule_stats(data, [eta], schedule)
    return quantizer_from_stats(stats, eta, schedule.gamma, schedule.beta, depth_cap=cap)


def sweep(
    data: Dataset, etas, schedule: RateSchedule
) -> list[tuple[float, Quantizer, int, float]]:
    """Quantizers for several thresholds, reusing one statistics build.

    Returns (eta, quantizer, leaf_count, train_distortion) per eta, in the
    given order.  Subtrees nest as eta decreases, so leaf counts are
    nondecreasing along a descending eta list.
    """
    etas = [float(e) for e in etas]
    stats, cap = _schedule_stats(data, etas, schedule)
    out = []
    for eta in etas:
        q = quantizer_from_stats(stats, eta, schedule.gamma, schedule.beta, depth_cap=cap)
        out.append((eta, q, len(q.leaves), empirical_distortion(q, data)))
    return out


def encode(q: Quantizer, points) -> tuple[np.ndarray, np.ndarray]:
    """Leaf of each point as (depths, lattice indices): int64 arrays (n,) and (n, dim)."""
    points = Dataset(points).points
    depths = q.depths[q._rows(points)[0]].astype(np.int64)
    # Scaling by 2**d is exact, so this is floor(x 2**d), the leaf's index.
    return depths, np.floor(points * 2.0 ** depths[:, None]).astype(np.int64)


def decode(q: Quantizer, depths, index) -> np.ndarray:
    """Code vectors of the leaves given as (depth, lattice index) rows.

    ValueError naming the first row that is no cell or no leaf of ``q``.
    """
    depths = np.asarray(depths, dtype=np.int64)
    index = np.asarray(index, dtype=np.int64)
    if index.shape != (depths.shape[0], q.dim):
        raise ValueError(f"index shape {index.shape} != ({depths.shape[0]}, {q.dim})")
    start = _lower_corners(depths, index, q.deepest)
    rows = np.minimum(np.searchsorted(q.starts, start), q.starts.shape[0] - 1)
    bad = np.flatnonzero((q.starts[rows] != start) | (q.depths[rows] != depths))
    if bad.size:
        i = bad[0]
        raise ValueError(f"row {i}: depth {depths[i]} index {index[i].tolist()} "
                         "is not a leaf of this quantizer")
    return np.take(q.vectors, rows, axis=0)


def empirical_distortion(q: Quantizer, data: Dataset) -> float:
    """Mean squared reconstruction error over the dataset."""
    recon = q.reconstruct(data.points)
    return float(np.mean(((data.points - recon) ** 2).sum(axis=1)))


def save_codebook(q: Quantizer, path) -> None:
    """Write the versioned JSON codebook, leaves sorted by (depth, index).

    Integer fields round-trip bit-exactly; code vectors use the shortest
    decimal representation that parses back to the same binary double.
    """
    index = kernels.morton_decode(q.starts, q.deepest, q.dim) >> (q.deepest - q.depths[:, None])
    order = np.lexsort([*index.T[::-1], q.depths])
    rows = zip(q.depths[order].tolist(), index[order].tolist(), q.vectors[order].tolist())
    leaves = [{"depth": d, "index": k, "code": c} for d, k, c in rows]
    doc = {
        "format": CODEBOOK_FORMAT,
        "version": CODEBOOK_VERSION,
        "dim": q.dim,
        "eta": q.threshold,
        "gamma": q.gamma,
        "beta": q.beta,
        "depth_cap": q.depth_cap,
        "leaves": leaves,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; TypeError unless every entry is a JSON integer."""
    array = np.array(values)
    if array.size and array.dtype.kind != "i":
        raise TypeError(f"{what} must be integers")
    return array.astype(np.int64)


def _lower_corners(depths: np.ndarray, index: np.ndarray, deepest: int) -> np.ndarray:
    """Depth-``deepest`` Morton code of each (depth, index) row's lower corner.

    ValueError naming the first row that is no cell: a depth outside
    0..default_max_depth or an index outside 0..2**depth - 1.
    """
    top = default_max_depth(index.shape[1])
    outside = (index < 0) | (index >> depths[:, None] != 0)
    bad = np.flatnonzero((depths < 0) | (depths > top) | outside.any(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"row {i}: no cell of depth {depths[i]} (0..{top}) "
                         f"has index {index[i].tolist()}")
    # A lower corner k 2**-d is exact and encodes to the first code of its run.
    return kernels.morton_encode(index * 2.0 ** -depths[:, None], deepest)


def load_codebook(path) -> Quantizer:
    """Read a codebook; ValueError unless it is well formed and its leaves tile the cube.

    In Morton order a depth-d leaf is the run [c, c + 1) << dim (m - d) of
    depth-m codes, so the leaves tile the cube exactly when their runs,
    sorted, abut from 0 to 2**(dim m): no duplicate, no leaf inside
    another, and volumes summing to the whole cube.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != CODEBOOK_FORMAT:
        raise ValueError(f"not a codebook file: {path}")
    if doc.get("version") != CODEBOOK_VERSION:
        raise ValueError(f"unsupported codebook version {doc.get('version')}")
    missing = [key for key in ("dim", "eta", "depth_cap", "leaves") if key not in doc]
    if missing or not doc["leaves"]:
        raise ValueError(f"codebook {path} lacks {', '.join(missing) or 'leaves'}")
    rows = doc["leaves"]
    try:
        dim = int(_integers(doc["dim"], "dim"))
        short = [i for i, r in enumerate(rows) if len(r["index"]) != dim or len(r["code"]) != dim]
        if not short:
            depths = _integers([row["depth"] for row in rows], "leaf depths")
            index = _integers([row["index"] for row in rows], "leaf indices")
            index = index.reshape(len(rows), dim)
            vectors = np.array([row["code"] for row in rows], dtype=np.float64)
            vectors = vectors.reshape(len(rows), dim)
            eta, cap = float(doc["eta"]), int(_integers(doc["depth_cap"], "depth_cap"))
            gamma, beta = (None if doc.get(k) is None else float(doc[k]) for k in ("gamma", "beta"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed codebook {path}: {type(exc).__name__} {exc}") from None
    if short:
        raise ValueError(f"codebook row {short[0]}: index and code need {dim} entries each")
    if dim < 1:
        raise ValueError(f"codebook dim {dim} is not positive")
    if not 0 < eta < math.inf or cap < 0:
        raise ValueError(f"codebook {path}: needs a finite eta > 0 and a depth_cap >= 0, "
                         f"not {eta} and {cap}")
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"codebook {path} row {i}: code {vectors[i].tolist()} is not finite")
    deepest = int(depths.max())
    try:
        start = _lower_corners(depths, index, deepest)
    except ValueError as exc:
        raise ValueError(f"codebook {exc}") from None
    order = np.argsort(start, kind="stable")
    s, e = start[order], start[order] + (1 << dim * (deepest - depths[order]))
    bad = np.flatnonzero(s[1:] != e[:-1])
    if bad.size and s[bad[0] + 1] < e[bad[0]]:
        a, b = order[bad[0]], order[bad[0] + 1]
        what = "duplicate leaf" if depths[a] == depths[b] else "one leaf inside another"
        raise ValueError(f"codebook {path}: {what}, depth {depths[b]} index {index[b].tolist()}")
    if s[0] != 0 or bad.size or e[-1] != 1 << dim * deepest:
        gap = 0 if s[0] != 0 else int(e[bad[0]] if bad.size else e[-1])
        raise ValueError(f"codebook {path}: no leaf covers the depth-{deepest} cell of code {gap}")
    return Quantizer(dim, s, depths[order].astype(np.int8), vectors[order], eta, cap, gamma, beta)
