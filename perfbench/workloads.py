"""Workloads of the rectree benchmark: seeded inputs, one timed job, output checks.

Each job calls the public functions that the matching CLI command calls
(``fit`` + ``distortion``, ``sweep --generator``, ``baseline``), through
their module attributes so that the traced run sees the wrappers that
``spans.py`` installs.  Inputs come from ``rectree.datagen`` in set-up.
Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rectree import baselines as B
from rectree import datagen as G
from rectree import reconstruction as R
from rectree.tree import cell_to_code

# Both identities are checked relative to the root error E_root, the
# scale of every per-cell term.  Relative to each cell's own error, the
# between-within gap fails at 1e-9 on cells of three points within ~1e-10
# of each other (E_I ~ 1e-21, gap ~ 1e-30: double-precision rounding).
GAIN_RTOL = 1e-9
TELESCOPE_RTOL = 1e-12


@dataclass
class Case:
    """One training set, its independent holdout, and the thresholds to fit at."""

    name: str
    seed: int
    train: object
    holdout: object
    schedule: R.RateSchedule
    etas: list[float]


@dataclass
class JobOutput:
    fit_s: float  # the tree-building calls: fit, or sweep
    encode_s: float  # the holdout empirical_distortion calls
    holdout_points: int
    holdout_distortion: float  # at eta_n; geometric mean over a sweep's etas
    kmeans_holdout_distortion: float  # at the finest eta
    digest: str


@dataclass
class Built:
    """A quantizer the job built, kept only by the check pass."""

    case: Case
    eta: float
    quantizer: R.Quantizer
    loaded: R.Quantizer | None
    train_distortion: float | None


def _case(name, kind, dim, n, holdout_n, seed, etas) -> Case:
    # The distribution (and a manifold's embedding rotation) is fixed; the
    # seed selects the draws.  A rotation per seed would move leaf counts,
    # and with them the work of a job, from seed to seed.
    spec = G.GeneratorSpec(kind, dim)
    schedule = R.RateSchedule(1 << dim)
    train = G.sample(replace(spec, stream=2 * seed), n)
    holdout = G.sample(replace(spec, stream=2 * seed + 1), holdout_n)
    return Case(name, seed, train, holdout, schedule, etas(schedule, n))


def _at_eta_n(schedule, n):
    return [schedule.eta_n(n)]


@dataclass(frozen=True)
class FitWorkload:
    """``rectree fit`` at eta_n, save -> load the codebook, holdout ``distortion``."""

    kind: str
    dims: tuple[int, ...]
    n: int

    def setup(self, seed: int) -> list[Case]:
        return [
            _case(f"D{dim}", self.kind, dim, self.n, self.n, seed, _at_eta_n) for dim in self.dims
        ]

    def job(self, cases, workdir: Path, keep: list | None = None) -> JobOutput:
        fit_s = encode_s = 0.0
        dists = []
        digest = hashlib.sha256()
        for case in cases:
            eta = case.etas[0]
            t = time.perf_counter()
            q = R.fit(case.train, eta, case.schedule)
            fit_s += time.perf_counter() - t
            path = workdir / f"{case.name}.json"
            R.save_codebook(q, path)
            loaded = R.load_codebook(path)
            t = time.perf_counter()
            d = R.empirical_distortion(loaded, case.holdout)
            encode_s += time.perf_counter() - t
            dists.append(d)
            digest.update(f"{case.name} {len(q.leaves)} {d.hex()};".encode())
            if keep is not None:
                keep.append(Built(case, eta, q, loaded, None))
        return JobOutput(
            fit_s,
            encode_s,
            sum(c.holdout.n for c in cases),
            statistics.fmean(dists),
            0.0,
            digest.hexdigest(),
        )


@dataclass(frozen=True)
class SweepWorkload:
    """``rectree sweep --generator`` (train and holdout distortion per eta).

    With ``kmeans_iters`` set it is ``rectree baseline`` instead: k-means at
    each eta's leaf count, with Lloyd capped at ``kmeans_iters`` iterations
    so that every seed does the same amount of k-means work.
    """

    kind: str
    dim: int
    n: int
    holdout_n: int
    etas: object  # (schedule, n) -> descending thresholds
    kmeans_iters: int | None = None

    def setup(self, seed: int) -> list[Case]:
        return [_case(f"D{self.dim}", self.kind, self.dim, self.n, self.holdout_n, seed, self.etas)]

    def job(self, cases, workdir: Path, keep: list | None = None) -> JobOutput:
        (case,) = cases
        t = time.perf_counter()
        rows = R.sweep(case.train, case.etas, case.schedule)
        fit_s = time.perf_counter() - t
        encode_s = 0.0
        kd = 0.0
        dists = []
        digest = hashlib.sha256()
        for i, (eta, q, leaf_count, train_d) in enumerate(rows):
            if self.kmeans_iters is not None:
                model = B.kmeans_fit(
                    case.train,
                    min(leaf_count, case.train.n),
                    seed=(case.seed << 8) + i,
                    max_iters=self.kmeans_iters,
                )
            t = time.perf_counter()
            d = R.empirical_distortion(q, case.holdout)
            encode_s += time.perf_counter() - t
            dists.append(d)
            digest.update(f"{leaf_count} {train_d.hex()} {d.hex()};".encode())
            if self.kmeans_iters is not None:
                kd = B.kmeans_distortion(model, case.holdout)
                digest.update(f"{model.iterations_run} {kd.hex()};".encode())
            if keep is not None:
                keep.append(Built(case, eta, q, None, train_d))
        # The finest eta alone varies by 8-9% from seed to seed (IQR over ten
        # seeds); the geometric mean over the curve by 1.5-5%.
        return JobOutput(
            fit_s,
            encode_s,
            len(rows) * case.holdout.n,
            statistics.geometric_mean(dists),
            kd,
            digest.hexdigest(),
        )


def _halving_ladder(schedule, n):
    """20 thresholds eta_n * 2**(2 - k/2), k = 0..19, coarse to fine."""
    return [schedule.eta_n(n) * 2.0 ** (2 - k / 2) for k in range(20)]


def _fixed_etas(schedule, n):
    return [0.04, 0.02, 0.01, 0.005]


WORKLOADS = {
    "fit_large": FitWorkload("uniform_cube", (1, 3), 1 << 18),
    "sweep_manifold": SweepWorkload("swiss_roll", 3, 1 << 14, 1 << 14, _halving_ladder),
    "fit_highdim": FitWorkload("sphere", (13,), 1 << 15),
    "baseline_kmeans": SweepWorkload(
        "swiss_roll", 3, 1 << 11, 10 << 11, _fixed_etas, kmeans_iters=20
    ),
}


def _stored_rows(level, codes: np.ndarray) -> np.ndarray:
    """Rows of ``level`` holding the given codes; -1 where the cell is empty."""
    rows = np.searchsorted(level.codes, codes)
    rows[rows == level.codes.shape[0]] = 0
    return np.where(level.codes[rows] == codes, rows, -1)


def _subtree_gain_sq(stats, subtree) -> float:
    """Sum of eps_I**2 over the subtree's cells, read through StatsTable.level()."""
    by_depth: dict[int, list[int]] = {}
    for cell in subtree:
        by_depth.setdefault(cell.depth, []).append(cell_to_code(cell))
    terms = []
    for depth, codes in by_depth.items():
        level = stats.level(depth)
        rows = _stored_rows(level, np.array(codes, dtype=np.int64))
        terms.extend(float(g) ** 2 for g in level.gains[rows[rows >= 0]])
    return math.fsum(terms)


def check(workload, cases, workdir: Path, digests: list[str]):
    """Run the job once more, keep what it built, and check the outputs.

    Returns ``(checks, counters, histogram)``: a list of (name, passed)
    pairs, the structural counters of one job (sums over the job's
    statistics tables and quantizers; they repeat exactly for a given
    seed), and the job's leaf-depth histogram.
    """
    built: list[Built] = []
    out = workload.job(cases, workdir, keep=built)
    checks = [("output digest identical across repeats", all(d == out.digest for d in digests))]
    counters = Counter()
    histogram: Counter = Counter()
    for case in cases:
        cap = case.schedule.depth_cap(case.train.n)
        stats = R.build_stats(case.train, max(1, cap))
        levels = [stats.level(d) for d in range(stats.depth_cap + 1)]
        counters["stats.stored_cells"] += sum(lv.codes.shape[0] for lv in levels)
        counters["stats.singleton_cells"] += sum(int(np.count_nonzero(lv.counts == 1)) for lv in levels)
        counters["stats.table_bytes"] += sum(
            a.nbytes
            for lv in levels
            for a in (lv.codes, lv.counts, lv.centers, lv.errors, lv.gains)
            if a is not None
        )
        root_error = float(levels[0].errors[0])
        scale = max(root_error, 1e-300)
        worst = max(
            float(np.max(np.abs(lv.gains**2 - stats.gain_sq_by_difference(d))))
            for d, lv in enumerate(levels[:-1])
        )
        checks.append(
            (f"{case.name} gain_sq_by_difference within {GAIN_RTOL:g} E_root", worst <= GAIN_RTOL * scale)
        )
        branching = case.schedule.branching
        mine = [b for b in built if b.case is case]
        for b in mine:
            q = b.quantizer
            subtree = R.threshold_subtree(stats, b.eta, cap)
            train_d = b.train_distortion
            if train_d is None:
                train_d = R.empirical_distortion(q, case.train)
            telescoped = root_error - _subtree_gain_sq(stats, subtree)
            tag = f"{case.name} eta={b.eta:.4g}"
            checks.append(
                (f"{tag} telescoping within {TELESCOPE_RTOL:g} E_root",
                 abs(train_d - telescoped) <= TELESCOPE_RTOL * scale)
            )
            bound = (branching - 1) * len(subtree) + 1
            checks.append((f"{tag} leaves <= (a-1)|S|+1", len(q.leaves) <= bound))
            counters["tree.subtree_cells"] += len(subtree)
            counters["tree.leaves"] += len(q.leaves)
            for depth, (codes, vectors) in q.tables().items():
                histogram[depth] += codes.shape[0]
                nonempty = _stored_rows(stats.level(depth), codes) >= 0
                counters["tree.nonempty_leaves"] += int(np.count_nonzero(nonempty))
                counters["reconstruction.codebook_bytes"] += codes.nbytes + vectors.nbytes
        if len(mine) > 1:
            leaf_counts = [len(b.quantizer.leaves) for b in mine]
            checks.append(
                (f"{case.name} leaf counts nondecreasing along descending etas",
                 all(x <= y for x, y in zip(leaf_counts, leaf_counts[1:])))
            )
        finest = mine[-1]
        loaded = finest.loaded
        if loaded is None:
            path = workdir / f"check-{case.name}.json"
            R.save_codebook(finest.quantizer, path)
            loaded = R.load_codebook(path)
        same = np.array_equal(
            finest.quantizer.reconstruct(case.holdout.points), loaded.reconstruct(case.holdout.points)
        )
        checks.append((f"{case.name} saved and loaded codebook reconstruct identically", same))
    counters["stats.singleton_share"] = counters["stats.singleton_cells"] / counters["stats.stored_cells"]
    counters["tree.nonempty_leaf_share"] = counters["tree.nonempty_leaves"] / counters["tree.leaves"]
    return checks, dict(counters), dict(sorted(histogram.items()))
