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
``CellId`` appears only at the boundary: :func:`threshold_subtree`,
:func:`encode`, :func:`decode` and the ``leaves``/``codebook`` views.

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
    cell_to_code,
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
        if self.gamma <= 0 or self.beta <= 0:
            raise ValueError("gamma and beta must be positive")
        if self.threshold_constant <= 0:
            raise ValueError("threshold_constant must be positive")

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
        return int(math.floor(self.gamma * math.log(n) / math.log(self.branching)))

    def eta_n(self, n: int) -> float:
        """Data-driven threshold sqrt((gamma+beta) ln n / (c n))."""
        if n < 2:
            raise ValueError("eta_n requires n >= 2 (ln 1 = 0 gives no threshold)")
        return math.sqrt((self.gamma + self.beta) * math.log(n) / (self.threshold_constant * n))


def _subtree_levels(stats: StatsTable, eta: float, depth_cap: int | None) -> list[np.ndarray]:
    """Sorted subtree codes per depth: the closure of codes[gains >= eta], depth < cap."""
    if eta <= 0:
        raise ValueError("eta must be positive")
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
        q = self._q
        depth = getattr(cell, "depth", None)
        if depth is not None and depth <= q.deepest and cell.dim == q.dim:
            start = cell_to_code(cell) << q.dim * (q.deepest - depth)
            row = int(np.searchsorted(q.starts, start))
            if row < q.starts.shape[0] and q.starts[row] == start and q.depths[row] == depth:
                return q.vectors[row]
        raise KeyError(cell)

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
        rows = np.searchsorted(lv.codes, codes)
        rows[rows == lv.codes.shape[0]] = 0
        stored = lv.codes[rows] == codes
        vectors = np.empty((codes.shape[0], stats.dim))
        vectors[stored] = lv.centers[rows[stored]]
        # Empty leaves get their cube center, by the arithmetic of tree.cube_center.
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
    if any(eta <= 0 for eta in etas):
        raise ValueError("eta must be positive")
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


def encode(q: Quantizer, point) -> CellId:
    """The unique leaf containing the point."""
    pt = np.asarray(point, dtype=np.float64)
    if pt.ndim != 1:
        raise ValueError("point must be a single vector")
    if not np.all(np.isfinite(pt)) or np.any(pt < 0.0) or np.any(pt >= 1.0):
        raise DomainError(f"point {pt.tolist()} outside [0, 1)^{pt.shape[0]}")
    depths, codes = q.assign(pt[None, :])
    return cells_from_codes(int(depths[0]), codes, q.dim)[0]


def decode(q: Quantizer, cell: CellId) -> np.ndarray:
    """The code vector of a leaf."""
    try:
        return q.codebook[cell].copy()
    except KeyError:
        raise ValueError(f"{cell} is not a leaf of this quantizer") from None


def empirical_distortion(q: Quantizer, data: Dataset) -> float:
    """Mean squared reconstruction error over the dataset."""
    recon = q.reconstruct(data.points)
    return float(np.mean(((data.points - recon) ** 2).sum(axis=1)))


def save_codebook(q: Quantizer, path) -> None:
    """Write the versioned JSON codebook, leaves sorted by (depth, index).

    Integer fields round-trip bit-exactly; code vectors use the shortest
    decimal representation that parses back to the same binary double.
    """
    leaves = []
    for depth, (codes, vectors) in q.tables().items():
        index = kernels.morton_decode(codes, depth, q.dim)
        order = np.lexsort(index.T[::-1])
        rows = zip(index[order].tolist(), vectors[order].tolist())
        leaves += [{"depth": depth, "index": k, "code": c} for k, c in rows]
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
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"codebook {path} row {i}: code {vectors[i].tolist()} is not finite")
    top = default_max_depth(dim)
    outside = (index < 0) | (index >> depths[:, None] != 0)
    bad = np.flatnonzero((depths < 0) | (depths > top) | outside.any(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"codebook row {i}: no cell of depth {depths[i]} (0..{top}) "
                         f"has index {index[i].tolist()}")
    deepest = int(depths.max())
    # A lower corner k 2**-d is exact and encodes to the first code of its run.
    start = kernels.morton_encode(index * 2.0 ** -depths[:, None], deepest)
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
