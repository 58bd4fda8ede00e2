"""Experiment harness: distortion-decay runs, sweeps, and baselines.

Expected distortion is estimated on an independent holdout sample (the
population quantity prescribes no estimator; holdout keeps it unbiased
for a fixed quantizer).  Every run derives its generator seeds from the
experiment seed with counter-based streams, so outputs are byte-identical
across repeat runs with the same configuration.

Each run returns rows of Python ints and floats; the command line writes
them through :func:`~rectree.datagen.write_csv`, so this module does no
file I/O.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .baselines import kmeans_distortion, kmeans_fit
from .datagen import GeneratorSpec, sample
from .errors import _integer
from .oracle import DiscreteDistribution, oracle_stats
from .reconstruction import RateSchedule, empirical_distortion, quantizer_from_stats, sweep
from .stats import Dataset

# The columns of a rate run's rows.
RATE_COLUMNS = ("n", "eta_n", "j_n", "leaf_count", "holdout_distortion_mean",
                "holdout_distortion_std")


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


def _scored_sweep(
    train_spec: GeneratorSpec, holdout_spec: GeneratorSpec | None, n: int, holdout_n: int | None,
    etas, schedule: RateSchedule,
) -> tuple[Dataset, Dataset, list[tuple[float, int, float, float]]]:
    """(train, holdout, rows): sweep n train points, score each eta on an independent holdout.

    Row: (eta, leaf_count, train_distortion, holdout_distortion).  The
    holdout has 10 n points unless ``holdout_n`` is given, and is drawn
    from ``holdout_spec``, by default stream _child_seed(train_spec.seed,
    n, 0, 1) of the train distribution.
    """
    _integer("n takes an integer", n)
    if n < 1:
        raise ValueError(f"n {n} must be positive")
    holdout_n = 10 * n if holdout_n is None else holdout_n
    _integer("holdout_n takes an integer", holdout_n)
    if holdout_n < 1:
        raise ValueError(f"holdout_n {holdout_n} must be positive")
    if holdout_spec is None:
        holdout_spec = replace(train_spec, stream=_child_seed(train_spec.seed, n, 0, 1))
    train = sample(train_spec, n)
    holdout = sample(holdout_spec, holdout_n)
    rows = [
        (eta, leaf_count, train_dist, empirical_distortion(quantizer, holdout))
        for eta, quantizer, leaf_count, train_dist in sweep(train, etas, schedule)
    ]
    return train, holdout, rows


def run_rate_experiment(
    generator: GeneratorSpec, n_grid, schedule: RateSchedule | None = None,
    holdout_n: int | None = None, trials: int = 1, seed: int = 0,
) -> tuple[list[tuple[int, float, int, float, float, float]], float]:
    """(rows, slope): fit at eta_n per n, score on holdouts, aggregate the trials, fit the slope.

    Row: the :data:`RATE_COLUMNS`.  ``schedule`` defaults to
    RateSchedule(2**dim) and ``holdout_n`` to 10 max(n_grid).  Trial t at
    the i-th n samples its train set from stream _child_seed(seed, i, t, 0)
    and its holdout from stream _child_seed(seed, i, t, 1).
    """
    for value in (*n_grid, trials):
        _integer("n_grid and trials take integers", value)
    _integer("seed takes an integer", seed)
    grid = [int(n) for n in n_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing and nonempty")
    if grid[0] < 2:
        raise ValueError("n_grid entries must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError(f"seed {seed} must be non-negative")
    schedule = RateSchedule(1 << generator.ambient_dim) if schedule is None else schedule
    holdout_n = 10 * grid[-1] if holdout_n is None else holdout_n
    rows = []
    for i, n in enumerate(grid):
        eta = schedule.eta_n(n)
        scored = [
            _scored_sweep(replace(generator, stream=_child_seed(seed, i, trial, 0)),
                          replace(generator, stream=_child_seed(seed, i, trial, 1)),
                          n, holdout_n, [eta], schedule)[2][0]
            for trial in range(trials)
        ]
        dists = [row[3] for row in scored]
        std = float(np.std(dists, ddof=1)) if trials > 1 else 0.0
        leaves = float(np.mean([row[1] for row in scored]))
        rows.append((n, eta, schedule.depth_cap(n), leaves, float(np.mean(dists)), std))
    slope = fit_loglog_slope([math.log(r[0]) / r[0] for r in rows], [r[4] for r in rows])
    return rows, slope


def run_eta_sweep_experiment(
    generator: GeneratorSpec, n: int, etas, gamma: float = 1.5, holdout_n: int | None = None
) -> list[tuple[float, int, float, float]]:
    """(eta, leaf_count, train_distortion, holdout_distortion) per eta.

    The holdout is drawn from stream _child_seed(generator.seed, n, 0, 1)
    and has 10 n points unless ``holdout_n`` is given.
    """
    schedule = RateSchedule(1 << generator.ambient_dim, gamma)
    return _scored_sweep(generator, None, n, holdout_n, etas, schedule)[2]


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
    schedule = RateSchedule(1 << generator.ambient_dim, gamma)
    train, holdout, tree_rows = _scored_sweep(generator, None, n, holdout_n, etas, schedule)
    rows = []
    for i, row in enumerate(tree_rows):
        k = min(row[1], train.n)
        model = kmeans_fit(train, k, seed=_child_seed(generator.seed, n, i, 2))
        rows.append((*row, k, model.final_objective, kmeans_distortion(model, holdout)))
    return rows
