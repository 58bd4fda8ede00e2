"""Lloyd's k-means with k-means++ seeding, the codebook-size-matched baseline.

Runs are reproducible across platforms: all randomness comes from a
counter-based generator (Philox) keyed by the seed, assignment ties break
toward the lowest center index, and empty clusters are re-seeded to the
point farthest from their stale center (lowest index on ties).

Assignments do not depend on how the BLAS rounds.  ``nearest_centers``
ranks centers with a matrix product, but keeps its answer only where a
rounding bound certifies it equals the direct search over
sum((x - c)**2); every other row, ties included, is searched directly.
So labels, distances and through them the whole Lloyd trajectory are the
bits of the direct search, on any BLAS and any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import _integer
from .stats import Dataset

_TOL = 1e-10  # relative objective improvement below which Lloyd's iterations stop


@dataclass(frozen=True)
class KMeansModel:
    centers: np.ndarray
    k: int
    iterations_run: int
    final_objective: float
    objective_trace: tuple[float, ...]


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    if k == 1:
        return centers
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            # Inverse-CDF draw with prob proportional to squared distance.
            u = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(d2), u))
            pick = min(pick, n - 1)
        else:
            pick = int(rng.integers(n))
        centers[j] = points[pick]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_fit(
    data: Dataset,
    k: int,
    seed: int = 0,
    max_iters: int = 300,
) -> KMeansModel:
    """Lloyd iterations until the relative objective improvement drops below ``_TOL``."""
    for name, value in (("k", k), ("seed", seed), ("max_iters", max_iters)):
        _integer(f"{name} takes an integer", value)
    if not 0 <= int(seed) < 1 << 128:  # Philox's key is 128 bits
        raise ValueError(f"seed {seed} must be " + ("non-negative" if seed < 0 else "below 2**128"))
    points = data.points
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    centers = _plus_plus_init(points, k, rng)

    trace: list[float] = []
    prev = np.inf
    for it in range(max_iters):
        labels, sqd = kernels.nearest_centers(points, centers)
        objective = float(np.mean(sqd))
        trace.append(objective)
        if prev - objective <= _TOL * max(objective, np.finfo(float).tiny):
            break
        prev = objective
        if it == max_iters - 1:
            # Budget exhausted: keep the centers that produced trace[-1].
            break
        counts = np.bincount(labels, minlength=k)
        # bincount adds each cluster's points in row order, one coordinate
        # at a time; the golden k-means test pins the resulting bits.
        sums = np.column_stack(
            [np.bincount(labels, weights=points[:, j], minlength=k) for j in range(points.shape[1])]
        )
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.flatnonzero(~nonempty):
            far = int(np.argmax(((points - centers[j]) ** 2).sum(axis=1)))
            new_centers[j] = points[far]
        centers = new_centers

    return KMeansModel(
        centers=centers,
        k=k,
        iterations_run=len(trace),
        final_objective=trace[-1],
        objective_trace=tuple(trace),
    )


def kmeans_distortion(model: KMeansModel, data: Dataset) -> float:
    """Mean squared distance to the nearest center."""
    _, sqd = kernels.nearest_centers(data.points, model.centers)
    return float(np.mean(sqd))
