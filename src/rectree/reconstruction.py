"""Thresholded refinement of the partition tree and the resulting quantizer.

Given per-cell statistics to a truncation depth j_n, a threshold eta > 0
selects the cells whose refinement gain satisfies eps_I >= eta (inclusive,
so ties expand).  The kept subtree, the smallest parent-closed set
containing every selected cell, is the root and the cells whose envelope
(the largest gain at or below a cell) reaches eta, all above the table
depth; a quantizer's ``depth_cap`` is a label, the table depth or the
j_n of :func:`sweep`.  The quantizer is the outer-leaf partition of that
subtree with one code vector per leaf: the leaf's center of mass when it
saw training data (a mask over the table's rows), the cube center
otherwise (so decoding is total).  Its train distortion is read from the
table too, sum_{leaves J} E_J, so a sweep encodes no train point.

Subtrees nest as eta decreases, so one statistics table serves a whole
list of thresholds: :func:`sweep` builds it once, for the smallest eta,
and :func:`fit` is the sweep over one threshold.  The path runs on sorted
Morton-code arrays, one per depth: :func:`~rectree.stats.smallest_subtree`
masks the table's envelope column at eta, :func:`outer_leaves` takes the
children of that subtree outside it, and a :class:`Quantizer` holds its
leaves as sorted runs of deepest-level codes, so a leaf count is
``len(q.starts)``.  A point's or a leaf's row is found through one
bucketed lookup: a table over the cells of a coarser depth k gives the
row wherever one run starts in the cell, and only codes in a cell that
several runs share are searched among the run starts.  :func:`encode`
and :func:`decode` speak (depth, lattice index) arrays, the form of the
codebook file and the ``rectree encode``/``decode`` CSVs.  ``CellId``
appears only in views built on request: the frozenset that
:func:`threshold_subtree` returns and a quantizer's ``leaves``/``codebook``.

The codebook file (:func:`save_codebook`, format version 2) holds the
subtree and only the leaves whose code vector is not their cube center,
as flat (depth, index) arrays: every other outer leaf of the subtree is
implied, so a fit's file grows with its subtree and its nonempty leaves,
not with its (a - 1)|S| + 1 leaves.  :func:`load_codebook` builds the
subtree's outer leaves at their cube centers and places the listed code
vectors through the leaf lookup of :func:`decode`, as a fit does its
nonempty leaves, and still reads version 1 files, which list every leaf.

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
from .errors import DomainError, naming
from .stats import Dataset, StatsTable, build_stats, smallest_subtree
from .tree import CellId, cells_from_codes

CODEBOOK_FORMAT = "rectree-codebook"
CODEBOOK_VERSION = 2

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


def threshold_subtree(stats: StatsTable, eta: float,
                      depth_cap: int | None = None) -> frozenset[CellId]:
    """Cells of the smallest subtree containing every cell with gain >= eta.

    These are the root and the cells above the table depth whose envelope
    reaches eta; {root} when no cell qualifies.  A ``depth_cap`` at or above
    the table depth changes nothing, and one below it is refused.
    """
    if depth_cap is not None and depth_cap < stats.depth_cap:
        raise ValueError(f"depth_cap {depth_cap} is below the table depth {stats.depth_cap}")
    return frozenset(cell for depth, codes in enumerate(smallest_subtree(stats, eta))
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


def quantizer_from_stats(stats: StatsTable, eta: float, gamma: float | None = None,
                         beta: float | None = None) -> Quantizer:
    """Threshold, take outer leaves at their cube centers, and attach code vectors.

    The nonempty leaves, the rows with envelope < eta <= their parent's,
    get their centers of mass through :meth:`Quantizer._rows`; the train
    distortion sums their E_J.  Its ``depth_cap`` is the table depth.
    """
    q = _centered(smallest_subtree(stats, eta), stats.dim, eta, stats.depth_cap, gamma, beta)
    leaves = []
    for depth in range(1, q.deepest + 1):
        lv = stats.level(depth)
        mask = (lv.envelope < eta) & (eta <= lv.parent_envelope)
        leaves.append((lv.codes[mask] << stats.dim * (q.deepest - depth), lv.centers[mask],
                       lv.errors[mask]))
    starts, centers, errors = map(np.concatenate, zip(*leaves))
    q.vectors[q._rows(starts)] = centers
    q.train_distortion = math.fsum(errors.tolist())
    return q


def _centered(levels: list[np.ndarray], dim: int, *header) -> Quantizer:
    """The outer leaves of a subtree's codes per depth (the root if none) at their cube centers."""
    leaves = outer_leaves(levels, dim) if levels else {0: np.zeros(1, np.int64)}
    return Quantizer.from_tables(dim, {d: (codes, (kernels.morton_decode(codes, d, dim) + 0.5)
                                           * 2.0 ** -d) for d, codes in leaves.items()}, *header)


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


def fit(data: Dataset, eta: float, schedule: RateSchedule) -> Quantizer:
    """The quantizer of :func:`sweep` at the one threshold eta."""
    return sweep(data, [eta], schedule)[0][1]


def sweep(
    data: Dataset, etas, schedule: RateSchedule
) -> list[tuple[float, Quantizer, int, float]]:
    """Quantizers for several thresholds from one statistics build.

    Returns (eta, quantizer, leaf_count, train_distortion) per eta, in the
    given order, each quantizer's ``depth_cap`` being j_n.  The table stops
    at the depth min(max(1, j_n), j*) that the smallest eta certifies (see
    :func:`~rectree.stats.build_stats`), so j_n may exceed the deepest
    storable depth as long as j* does not.
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
        q = quantizer_from_stats(stats, eta, schedule.gamma, schedule.beta)
        q.depth_cap = cap
        out.append((eta, q, len(q.starts), q.train_distortion))
    return out


def encode(q: Quantizer, points) -> tuple[np.ndarray, np.ndarray]:
    """Leaf of each point as (depths, lattice indices): int64 arrays (n,) and (n, dim).

    The points go through :meth:`Quantizer.assign` alone, so an empty batch
    gives empty arrays and a point outside [0, 1)^dim is a DomainError.
    """
    points = np.asarray(points, dtype=np.float64)
    depths = q.depths[q.assign(points)].astype(np.int64)
    # Scaling by 2**d is exact, so this is floor(x 2**d), the leaf's index.
    return depths, np.floor(points * 2.0 ** depths[:, None]).astype(np.int64)


def decode(q: Quantizer, depths, index) -> np.ndarray:
    """Code vectors of the leaves given as (depth, lattice index) rows.

    TypeError unless every depth and index is an integer; ValueError if
    the shapes are not (n,) and (n, dim), or naming the first row that is
    no cell or no leaf of ``q``.
    """
    depths = _numbers(depths, "depths")
    index = _numbers(index, "index")
    if depths.ndim != 1:
        raise ValueError(f"depths must be (n,), got shape {depths.shape}")
    if index.shape != (depths.shape[0], q.dim):
        raise ValueError(f"index must be ({depths.shape[0]}, {q.dim}), got shape {index.shape}")
    rows = _leaf_rows(q, depths, index, "row", "is not a leaf of this quantizer")
    return np.take(q.vectors, rows, axis=0)


def _leaf_rows(q: Quantizer, depths: np.ndarray, index: np.ndarray, rows: str,
               problem: str) -> np.ndarray:
    """Row of ``q`` holding each (depth, index) leaf, found through :meth:`Quantizer._rows`.

    ValueError naming the first row (``rows`` and its number) that is no
    cell, or whose lower corner starts no leaf of its depth (``problem``).
    """
    start = _lower_corners(depths, index, q.deepest, rows)
    found = q._rows(start)
    _refuse(rows, depths, index, (q.starts[found] != start) | (q.depths[found] != depths), problem)
    return found


def empirical_distortion(q: Quantizer, data: Dataset) -> float:
    """Mean squared reconstruction error over the dataset."""
    recon = q.reconstruct(data.points)
    return float(np.mean(((data.points - recon) ** 2).sum(axis=1)))


def save_codebook(q: Quantizer, path) -> None:
    """Write the JSON codebook v2: the subtree, and the leaves off their cube center.

    Next to the header (``format``, ``version``, ``dim``, ``eta``,
    ``gamma``, ``beta``, ``depth_cap``) the file holds two blocks of
    parallel arrays, each in (depth, index) order:

    * ``subtree``: ``depth`` and ``index`` of the strict ancestors of the
      leaves; empty when the one leaf is the root;
    * ``leaves``: ``depth``, ``index`` and ``code`` of the leaves whose
      code vector differs, bit for bit, from the cube center
      (index + 0.5) 2**-depth.  Every other outer leaf of the subtree is
      implied and decodes to its cube center.

    So a fit's file grows with its subtree and its nonempty leaves, not
    with its (a - 1)|S| + 1 leaves.  Floats go through ``.tolist()`` and
    ``json``, which writes ``float.__repr__``: the shortest decimal that
    parses back to the same double, so a load gives the quantizer bit for
    bit.  ValueError naming the file, and no file, if :func:`load_codebook`
    would refuse the header, or if a code vector is not finite, naming its
    row among all leaves in (depth, index) order.
    """
    header = {
        "format": CODEBOOK_FORMAT,
        "version": CODEBOOK_VERSION,
        "dim": q.dim,
        "eta": q.threshold,
        "gamma": q.gamma,
        "beta": q.beta,
        "depth_cap": q.depth_cap,
    }
    depths = q.depths.astype(np.int64)
    index = kernels.morton_decode(q.starts, q.deepest, q.dim) >> (q.deepest - depths[:, None])
    with naming(f"codebook {path}"):
        _header(header, ())
        if not np.isfinite(q.vectors).all():
            _check_finite(q.vectors[np.lexsort([*index.T[::-1], depths])], "row")
    # A cube center is positive, so != between finite doubles is a bit compare.
    off = (q.vectors != (index + 0.5) * 2.0 ** -depths[:, None]).any(axis=1)
    sub_depths, sub_index = [depths[:0]], [index[:0]]
    for d in range(q.deepest):
        # The depth-d subtree cells are the depth-d cells of the deeper leaves.
        codes = q.starts[q.depths > d] >> q.dim * (q.deepest - d)
        codes = codes[np.diff(codes, prepend=-1) != 0]
        sub_depths.append(np.full(codes.shape[0], d))
        sub_index.append(kernels.morton_decode(codes, d, q.dim))
    subtree = _file_order(np.concatenate(sub_depths), np.concatenate(sub_index))
    leaves = _file_order(depths[off], index[off], q.vectors[off])
    doc = {**header, "subtree": dict(zip(("depth", "index"), subtree)),
           "leaves": dict(zip(("depth", "index", "code"), leaves))}
    text = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + text + "\n}\n")


def _file_order(depths: np.ndarray, index: np.ndarray, *rest: np.ndarray) -> list[list]:
    """The arrays as lists, rows sorted by (depth, index)."""
    order = np.lexsort([*index.T[::-1], depths])
    return [array[order].tolist() for array in (depths, index, *rest)]


def _numbers(values, what: str, kind: type = int, scalar: bool = False):
    """``values`` as an int64 array, or float64 if ``kind`` is float; a ``kind`` if ``scalar``.

    TypeError unless every entry is an integer (a number, for float).  A bool
    or a string is none, even among numbers, where numpy infers a numeric
    dtype (``[0, True]`` is int64); an ndarray is checked by its dtype alone.
    """
    array = np.array(values)
    entries = () if isinstance(values, np.ndarray) else np.array(values, dtype=object).flat
    loose = not {bool, np.bool_}.isdisjoint(map(type, entries))
    wrong = array.size and array.dtype.kind not in ("i" if kind is int else "if")
    if wrong or loose or scalar and array.ndim:
        noun = "integer" if kind is int else "number"
        raise TypeError(f"{what} must be " + (f"one {noun}" if scalar else f"{noun}s"))
    array = array.astype(np.int64 if kind is int else np.float64)
    return kind(array) if scalar else array


def _lower_corners(depths: np.ndarray, index: np.ndarray, deepest: int,
                   rows: str = "row") -> np.ndarray:
    """Depth-``deepest`` Morton code of each (depth, index) row's lower corner.

    ValueError naming the first row that is no cell (``rows`` and its
    number): a depth outside 0..kernels.default_max_depth or an index outside
    0..2**depth - 1.
    """
    top = kernels.default_max_depth(index.shape[1])
    outside = (index < 0) | (index >> depths[:, None] != 0)
    bad = np.flatnonzero((depths < 0) | (depths > top) | outside.any(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{rows} {i}: no cell of depth {depths[i]} (0..{top}) "
                         f"has index {index[i].tolist()}")
    # A lower corner k 2**-d is exact and encodes to the first code of its run.
    return kernels.morton_encode(index * 2.0 ** -depths[:, None], deepest)


def load_codebook(path) -> Quantizer:
    """Read a codebook file: version 2 as :func:`save_codebook` writes it, or version 1.

    A v1 file lists every leaf as one ``{"depth", "index", "code"}``
    object.  A v2 file's quantizer holds the outer leaves of the subtree at
    their cube centers, with each listed leaf found as :func:`decode` finds
    a leaf and given its listed code vector.  ValueError, naming the file and
    the problem in one line, unless the file is well formed and its leaves
    tile the cube.
    """
    with naming(f"codebook {path}"):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != CODEBOOK_FORMAT:
            raise ValueError("not a codebook file")
        version = doc.get("version")
        if type(version) is not int or version not in (1, CODEBOOK_VERSION):
            raise ValueError(f"unsupported codebook version {version!r}")
        return _load_v1(doc) if version == 1 else _load_v2(doc)


def _header(doc: dict, blocks: tuple[str, ...]):
    """(dim, eta, depth_cap, gamma, beta) of a codebook that has every key of ``blocks``."""
    missing = [key for key in ("dim", "eta", "depth_cap", *blocks) if key not in doc]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    dim, cap = (_numbers(doc[key], key, scalar=True) for key in ("dim", "depth_cap"))
    eta = _numbers(doc["eta"], "eta", float, scalar=True)
    gamma, beta = (None if doc.get(key) is None else _numbers(doc[key], key, float, scalar=True)
                   for key in ("gamma", "beta"))
    if dim < 1:
        raise ValueError(f"dim {dim} is not positive")
    if not 0 < eta < math.inf or cap < 0:
        raise ValueError(f"needs a finite eta > 0 and a depth_cap >= 0, not {eta} and {cap}")
    return dim, eta, cap, gamma, beta


def _load_v1(doc: dict) -> Quantizer:
    """The quantizer of a v1 file, whose leaves are listed one object each."""
    dim, eta, cap, gamma, beta = _header(doc, ("leaves",))
    rows = doc["leaves"]
    if not rows:
        raise ValueError("lacks leaves")
    short = [i for i, r in enumerate(rows) if len(r["index"]) != dim or len(r["code"]) != dim]
    if short:
        raise ValueError(f"row {short[0]}: index and code need {dim} entries each")
    depths = _numbers([row["depth"] for row in rows], "leaf depths")
    index = _numbers([row["index"] for row in rows], "leaf indices").reshape(len(rows), dim)
    vectors = _numbers([row["code"] for row in rows], "leaf codes", float).reshape(len(rows), dim)
    _check_finite(vectors, "row")
    deepest = int(depths.max())
    start = _lower_corners(depths, index, deepest)
    order = kernels.morton_argsort(start, dim * deepest)
    return Quantizer(dim, start[order], depths[order].astype(np.int8), vectors[order],
                     eta, cap, gamma, beta)


def _check_finite(vectors: np.ndarray, rows: str) -> None:
    """ValueError naming the first row of ``vectors`` that is not finite, if one is."""
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{rows} {i}: code {vectors[i].tolist()} is not finite")


def _load_v2(doc: dict) -> Quantizer:
    """The quantizer of a v2 file: its subtree's outer leaves, listed or at their cube centers."""
    dim, eta, cap, gamma, beta = _header(doc, ("subtree", "leaves"))
    sub_depths, sub_index = _block(doc, "subtree", ("depth", "index"), dim)
    leaf_depths, leaf_index, vectors = _block(doc, "leaves", ("depth", "index", "code"), dim)
    _check_finite(vectors, "leaves row")
    top = kernels.default_max_depth(dim)
    # Both blocks' rows are checked for being cells before any structure check, and a
    # file with several faults is refused for the first one in this order.
    sub_codes = (_lower_corners(sub_depths, sub_index, top, "subtree row")
                 >> dim * (top - sub_depths))
    _lower_corners(leaf_depths, leaf_index, top, "leaves row")
    subtree = ("subtree row", sub_depths, sub_index)
    _refuse(*subtree, sub_depths >= top, f"has children deeper than {top}")
    if sub_depths.size and not (sub_depths == 0).any():
        raise ValueError("subtree lacks the root")
    _refuse(*subtree, _repeats(sub_depths, sub_codes), "is listed twice")
    levels = [np.unique(sub_codes[sub_depths == d]) for d in range(sub_depths.max(initial=-1) + 1)]
    orphans = np.zeros(sub_depths.shape[0], bool)
    for depth in range(1, len(levels)):
        at = sub_depths == depth
        orphans[at] = ~np.isin(sub_codes[at] >> dim, levels[depth - 1])
    _refuse(*subtree, orphans, "has no parent in the subtree")
    q = _centered(levels, dim, eta, cap, gamma, beta)
    rows = _leaf_rows(q, leaf_depths, leaf_index, "leaves row",
                      "is not an outer leaf of the subtree")
    _refuse("leaves row", leaf_depths, leaf_index, _repeats(leaf_depths, rows), "is listed twice")
    q.vectors[rows] = vectors
    return q


def _block(doc: dict, name: str, keys: tuple[str, ...], dim: int) -> list[np.ndarray]:
    """A v2 block's arrays: int64 depths (n,), int64 indices (n, dim), codes (n, dim)."""
    block = doc[name]
    if not isinstance(block, dict):
        raise ValueError(f"{name} is not an object")
    missing = [key for key in keys if key not in block]
    if missing:
        raise ValueError(f"{name} lacks {', '.join(missing)}")
    arrays = [_numbers(block[key], f"{name}.{key}", kind)
              for key, kind in zip(keys, (int, int, float))]
    # An empty JSON list has shape (0,).
    arrays[1:] = [a.reshape(0, dim) if a.shape == (0,) else a for a in arrays[1:]]
    n = arrays[0].shape[0] if arrays[0].ndim == 1 else -1
    if [a.shape for a in arrays] != [(n,)] + [(n, dim)] * (len(arrays) - 1):
        want = ", ".join(["(n,)"] + [f"(n, {dim})"] * (len(arrays) - 1))
        got = ", ".join(str(a.shape) for a in arrays)
        raise ValueError(f"{name} {'/'.join(keys)} must have shapes {want}, not {got}")
    return arrays


def _repeats(depths: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Mask of the rows whose (depth, code) an earlier row already has."""
    order = np.lexsort((codes, depths))  # stable: equal rows stay in file order
    mask = np.zeros(codes.shape[0], bool)
    mask[order[1:][(np.diff(depths[order]) == 0) & (np.diff(codes[order]) == 0)]] = True
    return mask


def _refuse(rows: str, depths: np.ndarray, index: np.ndarray, mask: np.ndarray,
            problem: str) -> None:
    """ValueError ``ROWS i: depth d index k PROBLEM`` for the first row i in ``mask``, if any."""
    bad = np.flatnonzero(mask)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{rows} {i}: depth {depths[i]} index {index[i].tolist()} {problem}")
