"""Exact infinite-sample quantities for finitely supported distributions.

For an atomic distribution every population quantity is a finite sum, so

    mass    rho_I = sum of atom weights in I
    center  c_I   = weighted mean of the atoms in I     (cube center if empty)
    error   E_I   = sum_I w |x - c_I|^2
    gain    eps_I = sqrt( sum_{J child of I} rho_J |c_J - c_I|^2 )

are computed exactly (compensated summation via ``math.fsum``), giving a
brute-force ground truth for the empirical algorithm.  Note the child mass
rho_J in the gain: the between-within identity

    E_I = sum_J E_J + eps_I^2

forces the child weight, and a test verifies that only this version
satisfies the identity.

The table is a :class:`~rectree.stats.StatsTable` with the masses as
counts and n = 1, so the sample pipeline applies unchanged:
``threshold_subtree(table, eta)`` is the population subtree and
``quantizer_from_stats(table, eta)`` the population quantizer.  Atoms
separate at a finite depth, the isolation depth, below which every cell
holds at most one atom and has gain exactly 0.  The table stops one level
past it (or at :func:`~rectree.tree.default_max_depth`, where atoms isolated
there have nothing below), so it is exact and untruncated for every eta > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DepthCapError
from .stats import Dataset, StatsTable, _Level
from .tree import MORTON_BITS, default_max_depth


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite weighted point set: atoms in [0, 1)^D with positive weights summing to 1.

    Coincident atoms are merged (weights added) so that isolation at a
    finite depth is well defined.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = Dataset(self.points).points  # names the first atom outside [0, 1)^D
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise ValueError(f"{pts.shape[0]} atoms need one weight each, got shape {w.shape}")
        bad = np.flatnonzero(~(w > 0.0))
        if bad.size:
            raise ValueError(f"weight {bad[0]} = {float(w[bad[0]])!r} must be positive")
        uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
        if uniq.shape[0] != pts.shape[0]:
            merged = np.zeros(uniq.shape[0])
            np.add.at(merged, inverse, w)
            pts, w = np.ascontiguousarray(uniq), merged
        total = math.fsum(w.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]


def isolation_depth(dist: DiscreteDistribution) -> int:
    """Smallest depth at which all atoms occupy distinct cells."""
    cap = default_max_depth(dist.dim)
    for depth in range(cap + 1):
        codes = kernels.morton_encode(dist.points, depth)
        if np.unique(codes).shape[0] == dist.n_atoms:
            return depth
    raise DepthCapError(f"atoms not separated by depth {cap}; they are too close")


def _weighted_level(points, weights, codes, bits) -> _Level:
    order = kernels.morton_argsort(codes, bits)
    codes_s, pts, w = codes[order], points[order], weights[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(codes_s)) + 1])
    ends = np.concatenate([starts[1:], [codes_s.shape[0]]])
    m, dim = starts.shape[0], points.shape[1]
    masses = np.empty(m)
    centers = np.empty((m, dim))
    errors = np.empty(m)
    for g, (lo, hi) in enumerate(zip(starts, ends)):
        wg = w[lo:hi]
        masses[g] = math.fsum(wg.tolist())
        for k in range(dim):
            centers[g, k] = math.fsum((wg * pts[lo:hi, k]).tolist()) / masses[g]
        sq = ((pts[lo:hi] - centers[g]) ** 2).sum(axis=1)
        errors[g] = math.fsum((wg * sq).tolist())
    return _Level(codes_s[starts], masses, centers, errors, None)


def _gains_from_children(parent: _Level, child: _Level, dim: int) -> np.ndarray:
    prow = parent.rows(child.codes >> dim)
    gains_sq = [[] for _ in range(parent.codes.shape[0])]
    diff_sq = ((child.centers - parent.centers[prow]) ** 2).sum(axis=1)
    for row in range(child.codes.shape[0]):
        gains_sq[prow[row]].append(child.counts[row] * diff_sq[row])
    return np.sqrt([math.fsum(terms) for terms in gains_sq])


def oracle_stats(dist: DiscreteDistribution) -> StatsTable:
    """Exact weighted statistics for every nonempty cell, one level past isolation.

    The table stops at min(isolation depth + 1, default_max_depth(D)).  A
    cell at or below the isolation depth holds at most one atom, so it
    cannot improve by splitting and its gain is exactly 0; gains are
    populated at every stored depth, and thresholding the table at any
    eta > 0 gives the untruncated population subtree.
    """
    cap = min(isolation_depth(dist) + 1, default_max_depth(dist.dim))
    if cap < 1:  # outer leaves reach depth 1, so the table needs that level
        raise DepthCapError(f"dim {dist.dim} has no depth-1 cells in a {MORTON_BITS}-bit code")
    deep_codes = kernels.morton_encode(dist.points, cap)
    levels = [_weighted_level(dist.points, dist.weights, deep_codes >> dist.dim * (cap - depth),
                              dist.dim * depth) for depth in range(cap + 1)]
    for depth in range(cap):
        levels[depth].gains = _gains_from_children(levels[depth], levels[depth + 1], dist.dim)
    levels[cap].gains = np.zeros(levels[cap].codes.shape[0])
    return StatsTable(dim=dist.dim, n=1, depth_cap=cap, _levels=levels)
