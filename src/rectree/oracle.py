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

The atoms are Morton-sorted once, at the deepest storable depth, so every
cell at every depth is a run of them and every parent a run of child rows
(:meth:`~rectree.stats._Level.child_runs`).  Each sum is one correctly
rounded ``fsum`` per run, so the order within a run changes no bit.

The table is a :class:`~rectree.stats.StatsTable` with the masses as
counts and n = 1, so the sample pipeline applies unchanged:
``threshold_subtree(table, eta)`` is the population subtree and
``quantizer_from_stats(table, eta)`` the population quantizer.  Atoms
separate at a finite depth, the isolation depth, below which every cell
holds at most one atom and has gain exactly 0.  The table stops one level
past it (or at :func:`~rectree.kernels.default_max_depth`, where atoms
isolated there have nothing below), so it is exact and untruncated for
every eta > 0.  A dim whose 62-bit code has no depth-1 cell (D >= 63) is
refused by the check :func:`~rectree.stats.build_stats` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DepthCapError
from .stats import Dataset, StatsTable, _check_depth_one, _Level


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


def _run_fsums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each run of ``values``, runs starting at ``starts``."""
    values, bounds = values.tolist(), starts.tolist() + [len(values)]
    return np.array([math.fsum(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def _weighted_level(points, weights, codes) -> _Level:
    """One level's cells, the atoms being sorted by their codes at this depth."""
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    masses = _run_fsums(weights, starts)
    centers = np.column_stack([_run_fsums(weights * x, starts) for x in points.T]) / masses[:, None]
    diff = points - np.repeat(centers, np.diff(starts, append=len(codes)), 0)
    errors = _run_fsums(weights * (diff**2).sum(axis=1), starts)
    return _Level(codes[starts], masses, centers, errors, None, np.full(len(starts), -np.inf))


def oracle_stats(dist: DiscreteDistribution) -> StatsTable:
    """Exact weighted statistics for every nonempty cell, one level past isolation.

    The atoms are sorted once, at the deepest storable depth
    default_max_depth(D) (:func:`~rectree.kernels.default_max_depth`), and
    the isolation depth is read off that sort; the table stops at
    min(isolation depth + 1, default_max_depth(D)).  A cell at or below the isolation depth holds at
    most one atom, so it cannot improve by splitting and its gain is exactly
    0; gains are populated at every stored depth, and thresholding the table
    at any eta > 0 gives the untruncated population subtree.  Gains and
    envelopes run bottom-up, as in :func:`~rectree.stats.build_stats`.
    """
    top = kernels.default_max_depth(dist.dim)
    deep_codes = kernels.morton_encode(dist.points, top)
    order = kernels.morton_argsort(deep_codes, dist.dim * top)
    pts, w, deep_codes = dist.points[order], dist.weights[order], deep_codes[order]
    # Sorted neighbours a, b first fall into different cells at depth
    # top - (bit_length(a ^ b) - 1) // D: the smallest XOR gives the isolation
    # depth (the initial value, of D * top + 1 bits, puts one atom's at 0).
    closest = int(np.min(deep_codes[1:] ^ deep_codes[:-1], initial=1 << dist.dim * top))
    if closest == 0:
        raise DepthCapError(f"atoms not separated by depth {top}; they are too close")
    _check_depth_one(dist.dim, 1)  # outer leaves reach depth 1, so the table needs that level
    cap = min(top - (closest.bit_length() - 1) // dist.dim + 1, top)
    levels = [_weighted_level(pts, w, deep_codes >> dist.dim * (top - depth))
              for depth in range(cap + 1)]
    for parent, child in reversed(list(zip(levels, levels[1:]))):
        first = child.child_runs(dist.dim)
        runs = np.diff(first, append=len(child.codes))
        diff = child.centers - np.repeat(parent.centers, runs, 0)
        parent.gains = np.sqrt(_run_fsums(child.counts * (diff**2).sum(axis=1), first))
        parent.envelope = np.maximum(parent.gains, np.maximum.reduceat(child.envelope, first))
        child.parent_envelope = np.repeat(np.inf if parent is levels[0] else parent.envelope, runs)
    levels[cap].gains = np.zeros(levels[cap].codes.shape[0])
    return StatsTable(dim=dist.dim, n=1, depth_cap=cap, _levels=levels)
