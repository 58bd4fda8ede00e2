"""Thresholded refinement of the partition tree and the resulting quantizer.

Given per-cell statistics to a truncation depth j_n, a threshold eta > 0
selects the cells whose refinement gain satisfies eps_I >= eta (inclusive,
so ties expand).  The kept subtree is the smallest parent-closed set
containing every selected cell, {root} when nothing is selected, and the
quantizer is the outer-leaf partition of that subtree with one code vector
per leaf: the leaf's center of mass when it saw training data, the cube
center otherwise (so decoding is total).  Its train distortion is read
from the table too, sum_{leaves J} E_J, so a sweep encodes no train point.

Subtrees nest as eta decreases, so one statistics table serves a whole
list of thresholds: :func:`sweep` builds it once, for the smallest eta,
and :func:`fit` is the sweep over one threshold.  The path runs on sorted
Morton-code arrays, one per depth, and a :class:`Quantizer` holds its
leaves as sorted runs of deepest-level codes, so a leaf count is
``len(q.starts)``.  A point's or a leaf's row is found through one
bucketed lookup: a table over the cells of a coarser depth k gives the
row wherever one run starts in the cell, and only codes in a cell that
several runs share are searched among the run starts.  :func:`encode`
and :func:`decode` speak (depth,
lattice index) arrays, the form of the codebook file and the ``rectree
encode``/``decode`` CSVs.  ``CellId`` appears only in views built on
request: the frozenset that :func:`threshold_subtree` returns and a
quantizer's ``leaves``/``codebook``.

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
from .tree import CellId, cells_from_codes, default_max_depth, outer_leaves, smallest_subtree

CODEBOOK_FORMAT = "rectree-codebook"
CODEBOOK_VERSION = 1

# Most cells in a Quantizer's leaf-lookup table: 2 MB of int64 rows.
_TABLE_CELLS = 1 << 18


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
        return cls(branching, gamma, beta, threshold_constant=cls(branching).c_a)

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


def threshold_subtree(
    stats: StatsTable, eta: float, depth_cap: int | None = None
) -> frozenset[CellId]:
    """Cells of the smallest subtree containing every cell with gain >= eta.

    Only cells of depth < depth_cap are inspected: a gain needs children
    statistics one level down, so the deepest measurable candidates sit
    one level above the cap.  Returns {root} when no cell qualifies.
    """
    levels = _subtree_levels(stats, eta, depth_cap)
    return frozenset(cell for depth, codes in enumerate(levels)
                     for cell in cells_from_codes(depth, codes, stats.dim))


@dataclass
class Quantizer:
    """An outer-leaf partition with one code vector per leaf.

    With m the deepest leaf depth, a depth-d leaf of Morton code c is the
    run [c << dim (m - d), (c + 1) << dim (m - d)) of depth-m codes.  The
    leaves are held as their run starts, sorted (so the runs tile
    [0, 2**(dim m)) in order), with each leaf's depth and code vector in
    the same order.  ``tables()`` is a per-depth view of these rows, and
    ``codebook`` and ``leaves`` are views keyed by ``CellId``.
    ``train_distortion`` is sum_{leaves J} E_J over the data of the table
    it was built from (an oracle's distribution included); None if loaded.

    The leaves tile the cube exactly when their runs abut from 0 to
    2**(dim m): no duplicate, no leaf inside another, and no gap.  The
    constructor checks this, so a point's leaf is the last run starting
    at or below its depth-m code.  ``assign`` and ``decode`` find it with
    one gather from a table over the depth-k cells, k <= m: a cell that
    one run starts in, or that lies inside a shallower leaf, holds that
    leaf's row; only a code in a cell shared by several runs (all deeper
    than k) is searched among the run starts.  k is the deepest depth
    whose table has at most min(2**18, 16 n) cells for n codes, and 0
    (search every code, no table) when n is below the leaf count.
    """

    dim: int
    starts: np.ndarray = field(repr=False)   # int64, sorted depth-m codes
    depths: np.ndarray = field(repr=False)   # int8
    vectors: np.ndarray = field(repr=False)  # (leaves, dim)
    threshold: float
    depth_cap: int
    gamma: float | None = None
    beta: float | None = None
    train_distortion: float | None = None
    deepest: int = field(init=False)

    def __post_init__(self):
        self.deepest = int(self.depths.max())
        shifts = self.dim * (self.deepest - self.depths.astype(np.int64))
        ends = self.starts + (1 << shifts)
        bad = np.flatnonzero(self.starts[1:] != ends[:-1])
        if bad.size and self.starts[bad[0] + 1] < ends[bad[0]]:
            i = bad[0] + 1
            depth = int(self.depths[i])
            what = "duplicate leaf" if self.depths[i - 1] == depth else "one leaf inside another"
            index = kernels.morton_decode(self.starts[i:i + 1] >> shifts[i], depth, self.dim)[0]
            raise ValueError(f"{what}, depth {depth} index {index.tolist()}")
        if self.starts[0] != 0 or bad.size or ends[-1] != 1 << self.dim * self.deepest:
            gap = 0 if self.starts[0] != 0 else int(ends[bad[0]] if bad.size else ends[-1])
            raise ValueError(f"no leaf covers the depth-{self.deepest} cell of code {gap}")

    @classmethod
    def from_tables(cls, dim: int, tables: dict[int, tuple[np.ndarray, np.ndarray]],
                    threshold: float, depth_cap: int,
                    gamma: float | None = None, beta: float | None = None) -> "Quantizer":
        """A quantizer from per-depth (leaf codes, code vectors) tables that tile the cube."""
        deepest = max(tables)
        starts = np.concatenate([codes << dim * (deepest - d) for d, (codes, _) in tables.items()])
        depths = np.concatenate([np.full(len(c), d, np.int8) for d, (c, _) in tables.items()])
        vectors = np.concatenate([vectors for _, vectors in tables.values()])
        order = kernels.morton_argsort(starts, dim * deepest)
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

    def assign(self, points) -> np.ndarray:
        """Leaf row of each point: the run holding its depth-m code (one encode, one lookup)."""
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must be (n, {self.dim}), got shape {points.shape}")
        deep = kernels.morton_encode(points, self.deepest)
        # The leaves tile the cube; a point outside it has code -1.
        if deep.min(initial=0) < 0:
            raise DomainError(f"some points lie outside [0, 1)^{self.dim}")
        return self._rows(deep)

    def _rows(self, codes: np.ndarray) -> np.ndarray:
        """Row of the run holding each depth-m code in 0..2**(dim m) - 1."""
        n, leaves = codes.shape[0], self.starts.shape[0]
        bits = min(_TABLE_CELLS, 16 * n).bit_length() - 1
        depth = 0 if n < leaves else min(self.deepest, bits // self.dim)
        if depth == 0:  # the one cell holds every run: search each code
            return np.searchsorted(self.starts, codes, side="right") - 1
        shift = self.dim * (self.deepest - depth)
        cells = self.starts >> shift
        heads = np.flatnonzero(np.diff(cells, prepend=-1))
        # A head's row fills its own cell and the cells of a shallower leaf
        # after it; a cell whose run holds several leaves gets -1.
        shared = np.diff(heads, append=leaves) > 1
        spans = np.diff(cells[heads], append=1 << self.dim * depth)
        rows = np.take(np.repeat(np.where(shared, -1, heads), spans), codes >> shift)
        if shared.any():
            search = np.flatnonzero(rows < 0)
            rows[search] = np.searchsorted(self.starts, codes[search], side="right") - 1
        return rows

    def reconstruct(self, points) -> np.ndarray:
        """Code vector of the leaf containing each point."""
        return np.take(self.vectors, self.assign(points), axis=0)


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
    """Threshold, take outer leaves, and attach code vectors.

    A stored leaf's code vector is the center of mass of its points, so the
    train distortion is the sum of the stored leaves' E_J; an empty one adds 0.
    """
    cap = stats.depth_cap if depth_cap is None else depth_cap
    tables, errors = {}, []
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
        errors.append(lv.errors[rows[stored]])
    q = Quantizer.from_tables(stats.dim, tables, eta, cap, gamma, beta)
    q.train_distortion = math.fsum(np.concatenate(errors).tolist())
    return q


def fit(data: Dataset, eta: float, schedule: RateSchedule) -> Quantizer:
    """The quantizer of :func:`sweep` at the one threshold eta."""
    return sweep(data, [eta], schedule)[0][1]


def sweep(
    data: Dataset, etas, schedule: RateSchedule
) -> list[tuple[float, Quantizer, int, float]]:
    """Quantizers for several thresholds from one statistics build.

    Returns (eta, quantizer, leaf_count, train_distortion) per eta, in the
    given order.  The table stops at the depth min(j_n, j*) that the
    smallest eta certifies (see :func:`~rectree.stats.build_stats`), so j_n
    may exceed the deepest storable depth as long as j* does not.
    Subtrees nest as eta decreases, so leaf counts are nondecreasing along
    a descending eta list.  ``train_distortion`` is sum_{leaves J} E_J
    read from the table: no train point is encoded.
    """
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("no thresholds given")
    bad = [eta for eta in etas if not 0 < eta < math.inf]
    if bad:
        raise ValueError(f"eta {bad[0]} must be finite and positive")
    if schedule.branching != 1 << data.dim:
        raise ValueError(f"schedule branching {schedule.branching} does not match dim {data.dim}")
    cap = schedule.depth_cap(data.n)
    # Leaves reach depth max(1, j_n), so the table has a level below the root.
    stats = build_stats(data, max(1, cap), min(etas))
    out = []
    for eta in etas:
        q = quantizer_from_stats(stats, eta, schedule.gamma, schedule.beta, depth_cap=cap)
        out.append((eta, q, len(q.starts), q.train_distortion))
    return out


def encode(q: Quantizer, points) -> tuple[np.ndarray, np.ndarray]:
    """Leaf of each point as (depths, lattice indices): int64 arrays (n,) and (n, dim)."""
    points = Dataset(points).points
    depths = q.depths[q.assign(points)].astype(np.int64)
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
    rows = q._rows(start)
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

    The file has the fixed v1 layout of ``json.dumps(doc, indent=2)``
    plus a newline, and a test pins it byte for byte.  The header goes
    through ``json``; each leaf is one %-template per dim, ``%d`` for the
    integers and ``%r`` for the code values, since ``float.__repr__`` is
    what ``json`` writes for a finite float: the shortest decimal that
    parses back to the same double.  ValueError, and no file, if a code
    vector is not finite.
    """
    index = kernels.morton_decode(q.starts, q.deepest, q.dim) >> (q.deepest - q.depths[:, None])
    order = np.lexsort([*index.T[::-1], q.depths])
    vectors = q.vectors[order]
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"codebook {path} row {i}: code {vectors[i].tolist()} is not finite")
    head = json.dumps({
        "format": CODEBOOK_FORMAT,
        "version": CODEBOOK_VERSION,
        "dim": q.dim,
        "eta": q.threshold,
        "gamma": q.gamma,
        "beta": q.beta,
        "depth_cap": q.depth_cap,
    }, indent=2)
    entries = ",\n        ".join
    leaf = ('    {\n      "depth": %d,\n'
            f'      "index": [\n        {entries(["%d"] * q.dim)}\n      ],\n'
            f'      "code": [\n        {entries(["%r"] * q.dim)}\n      ]\n    }}')
    rows = zip(q.depths[order].tolist(), index[order].tolist(), vectors.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        # The header's closing "\n}" moves after the leaves.
        fh.write(head[:-2] + ',\n  "leaves": [\n')
        sep = ""
        for depth, idx, code in rows:
            fh.write(sep + leaf % (depth, *idx, *code))
            sep = ",\n"
        fh.write("\n  ]\n}\n")


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
    """Read a codebook; ValueError unless it is well formed and its leaves tile the cube."""
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
    order = kernels.morton_argsort(start, dim * deepest)
    try:
        return Quantizer(dim, start[order], depths[order].astype(np.int8), vectors[order],
                         eta, cap, gamma, beta)
    except ValueError as exc:
        raise ValueError(f"codebook {path}: {exc}") from None
