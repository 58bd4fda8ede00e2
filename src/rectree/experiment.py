"""Experiment harness: distortion-decay runs, sweeps, and baselines.

Expected distortion is estimated on an independent holdout sample (the
population quantity prescribes no estimator; holdout keeps it unbiased
for a fixed quantizer).  Every run derives its generator seeds from the
experiment seed with counter-based streams, so outputs are byte-identical
across repeat runs with the same configuration.

Each run returns rows of Python ints and floats (the rate run as
``RateRow`` records); the command line writes them through
:func:`~rectree.datagen.write_csv`, so this module does no file I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import kmeans_distortion, kmeans_fit
from .datagen import GeneratorSpec, sample
from .oracle import DiscreteDistribution, oracle_stats
from .reconstruction import RateSchedule, empirical_distortion, fit, quantizer_from_stats, sweep
from .stats import Dataset


@dataclass(frozen=True)
class RateExperimentConfig:
    """One distortion-vs-n run with the data-driven schedule eta_n."""

    generator: GeneratorSpec
    n_grid: tuple[int, ...]
    schedule: RateSchedule | None = None  # defaults to RateSchedule(2**dim)
    holdout_n: int | None = None  # defaults to 10 * max(n_grid)
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing and nonempty")
        if any(n < 2 for n in grid):
            raise ValueError("n_grid entries must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if self.holdout_n is not None and self.holdout_n < 1:
            raise ValueError(f"holdout_n {self.holdout_n} must be positive")
        dim = self.generator.ambient_dim
        schedule = RateSchedule(1 << dim) if self.schedule is None else self.schedule
        if schedule.branching != 1 << dim:
            raise ValueError(f"schedule branching {schedule.branching} does not match dim {dim}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "schedule", schedule)

    @property
    def effective_holdout_n(self) -> int:
        return 10 * max(self.n_grid) if self.holdout_n is None else self.holdout_n


@dataclass(frozen=True)
class RateRow:
    n: int
    eta_n: float
    j_n: int
    leaf_count: float
    holdout_distortion_mean: float
    holdout_distortion_std: float


@dataclass(frozen=True)
class RateResult:
    rows: tuple[RateRow, ...]
    fitted_slope: float


def _child_seed(*entropy: int) -> int:
    words = np.random.SeedSequence(list(entropy)).generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x over the pairs with x, y > 0.

    nan when fewer than two distinct x remain: the slope is undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = (x > 0) & (y > 0)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    if np.unique(lx).size < 2:
        return float("nan")
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def run_rate_experiment(cfg: RateExperimentConfig) -> RateResult:
    """Fit with eta_n per n, evaluate on holdouts, aggregate, fit the slope."""
    schedule = cfg.schedule
    rows = []
    for i, n in enumerate(cfg.n_grid):
        eta = schedule.eta_n(n)
        dists, leaves = [], []
        for trial in range(cfg.trials):
            train_spec = replace(cfg.generator, stream=_child_seed(cfg.seed, i, trial, 0))
            holdout_spec = replace(cfg.generator, stream=_child_seed(cfg.seed, i, trial, 1))
            quantizer = fit(sample(train_spec, n), eta, schedule)
            holdout = sample(holdout_spec, cfg.effective_holdout_n)
            dists.append(empirical_distortion(quantizer, holdout))
            leaves.append(len(quantizer.starts))
        mean = float(np.mean(dists))
        std = float(np.std(dists, ddof=1)) if cfg.trials > 1 else 0.0
        rows.append(
            RateRow(n, eta, schedule.depth_cap(n), float(np.mean(leaves)), mean, std)
        )
    slope = fit_loglog_slope(
        [math.log(r.n) / r.n for r in rows], [r.holdout_distortion_mean for r in rows]
    )
    return RateResult(tuple(rows), slope)


def _sweep_with_holdout(
    generator: GeneratorSpec, n: int, etas, gamma: float, holdout_n: int | None
) -> tuple[Dataset, Dataset, list[tuple[float, int, float, float]]]:
    """(train, holdout, rows): sweep a train sample, score each eta on an independent holdout.

    Row: (eta, leaf_count, train_distortion, holdout_distortion).  The
    holdout has 10 n points unless ``holdout_n`` is given.
    """
    if holdout_n is not None and holdout_n < 1:
        raise ValueError(f"holdout_n {holdout_n} must be positive")
    schedule = RateSchedule(1 << generator.ambient_dim, gamma)
    train = sample(generator, n)
    holdout_spec = replace(generator, stream=_child_seed(generator.seed, n, 0, 1))
    holdout = sample(holdout_spec, 10 * n if holdout_n is None else holdout_n)
    rows = [
        (eta, leaf_count, train_dist, empirical_distortion(quantizer, holdout))
        for eta, quantizer, leaf_count, train_dist in sweep(train, etas, schedule)
    ]
    return train, holdout, rows


def run_eta_sweep_experiment(
    generator: GeneratorSpec, n: int, etas, gamma: float = 1.5, holdout_n: int | None = None
) -> list[tuple[float, int, float, float]]:
    """(eta, leaf_count, train_distortion, holdout_distortion) per eta."""
    return _sweep_with_holdout(generator, n, etas, gamma, holdout_n)[2]


def run_approximation_trend(
    dist: DiscreteDistribution, etas
) -> tuple[list[tuple[float, float, int]], float]:
    """Exact (eta, approximation error, leaf count) rows plus the log-log slope.

    Rows with zero error (all atoms isolated by the subtree) carry no
    information about the decay and are excluded from the fit.
    """
    table = oracle_stats(dist)
    quantizers = [quantizer_from_stats(table, float(eta)) for eta in etas]
    rows = [(q.threshold, q.train_distortion, len(q.starts)) for q in quantizers]
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    return rows, slope


def run_baseline_comparison(
    generator: GeneratorSpec, n: int, etas, gamma: float = 1.5, holdout_n: int | None = None
) -> list[tuple[float, int, float, float, int, float, float]]:
    """Reconstruction tree vs k-means at matched codebook sizes (report only).

    Row: (eta, leaf_count, tree_train, tree_holdout, k, kmeans_train,
    kmeans_holdout) with k = leaf_count.
    """
    train, holdout, tree_rows = _sweep_with_holdout(generator, n, etas, gamma, holdout_n)
    rows = []
    for i, row in enumerate(tree_rows):
        k = min(row[1], train.n)
        model = kmeans_fit(train, k, seed=_child_seed(generator.seed, n, i, 2))
        rows.append((*row, k, model.final_objective, kmeans_distortion(model, holdout)))
    return rows
