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

Atoms separate at a finite depth (every cell below holds at most one
atom), so gains vanish from that depth on and the eta-selected subtree is
provably untruncated once the depth cap exceeds the isolation depth.  The
default cap is isolation depth + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapTooSmallError, DepthCapError, DomainError
from .reconstruction import Quantizer, _subtree_levels, quantizer_from_stats
from .stats import StatsTable, _Level, gain_bound
from .tree import Subtree, default_max_depth, outer_leaves


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite weighted point set: atoms in [0, 1)^D with positive weights summing to 1.

    Coincident atoms are merged (weights added) so that isolation at a
    finite depth is well defined.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if pts.ndim != 2 or w.ndim != 1 or pts.shape[0] != w.shape[0]:
            raise ValueError("points must be (m, dim) with one weight per atom")
        if pts.shape[0] < 1:
            raise ValueError("distribution needs at least one atom")
        if np.any(~np.isfinite(pts)) or np.any(pts < 0.0) or np.any(pts >= 1.0):
            raise DomainError("atoms must lie in [0, 1)^D")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
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


@dataclass
class OracleTable(StatsTable):
    """Exact statistics for every nonempty cell of depth <= depth_cap.

    A :class:`~rectree.stats.StatsTable` with n = 1: ``counts`` holds the
    masses rho_I, and gains are populated down to the cap itself.
    """

    isolation: int


def _weighted_level(points, weights, codes) -> _Level:
    order = np.argsort(codes, kind="stable")
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


def oracle_stats(dist: DiscreteDistribution, depth_cap: int | None = None) -> OracleTable:
    """Exact weighted statistics for every nonempty cell up to depth_cap.

    Gains are populated at every stored depth.  At the cap itself they are
    measured from one hidden extra level when atoms are not yet isolated
    there, and are exactly zero otherwise (a cell holding at most one atom
    cannot improve by splitting).
    """
    iso = isolation_depth(dist)
    cap = iso + 1 if depth_cap is None else depth_cap
    # Outer leaves of any subtree reach depth >= 1, so a one-level table is
    # the smallest that can describe a quantizer.
    if cap < 1 or cap > default_max_depth(dist.dim):
        raise DepthCapError(f"depth_cap {cap} outside 1..{default_max_depth(dist.dim)}")
    deep = cap + 1 if cap < iso else cap
    deep_codes = kernels.morton_encode(dist.points, deep)
    levels = [_weighted_level(dist.points, dist.weights, deep_codes >> dist.dim * (deep - depth))
              for depth in range(deep + 1)]
    for depth in range(min(cap + 1, deep)):
        levels[depth].gains = _gains_from_children(levels[depth], levels[depth + 1], dist.dim)
    levels = levels[: cap + 1]
    if levels[cap].gains is None:
        levels[cap].gains = np.zeros(levels[cap].codes.shape[0])
    return OracleTable(dim=dist.dim, n=1, depth_cap=cap, _levels=levels, isolation=iso)


def _certified_levels(table: OracleTable, eta: float) -> list[np.ndarray]:
    """Subtree codes per depth: the closure of every cell with gain >= eta.

    Raises when the cap cannot certify the untruncated subtree: either a
    selected cell sits at the cap itself, or atoms are not yet isolated by
    the cap and :func:`~rectree.stats.gain_bound` does not yet rule out
    selected cells below it (a cell below the cap holds at most the
    largest mass of a cell at the cap).
    """
    levels = _subtree_levels(table, eta, None)
    cap = table.depth_cap
    heaviest = table.level(cap).counts.max()
    certified = cap >= table.isolation or gain_bound(heaviest, cap + 1, table.dim) < eta
    if not certified:
        raise CapTooSmallError(
            f"depth_cap {cap} cannot certify the subtree at eta={eta}: atoms only "
            f"separate at depth {table.isolation}"
        )
    if np.any(table.level(cap).gains >= eta):
        raise CapTooSmallError(
            f"cell with gain >= {eta} found at depth_cap {cap}; "
            "deeper selected cells may exist, raise the cap"
        )
    return levels


def subtree_from_table(table: OracleTable, eta: float) -> Subtree:
    """Ancestor closure of all cells with gain >= eta; {root} when none."""
    return Subtree.from_codes(_certified_levels(table, eta), table.dim)


def oracle_subtree(
    dist: DiscreteDistribution, eta: float, depth_cap: int | None = None
) -> Subtree:
    return subtree_from_table(oracle_stats(dist, depth_cap), eta)


def quantizer_from_table(table: OracleTable, eta: float) -> Quantizer:
    """The population quantizer: outer leaves with centers of mass as codes.

    The table has the level layout of a :class:`StatsTable`, so the
    empirical extraction applies once the cap is known to certify the subtree.
    """
    _certified_levels(table, eta)
    return quantizer_from_stats(table, eta)


def outer_leaf_errors(table: OracleTable, eta: float) -> np.ndarray:
    """E_I of every outer leaf of the subtree at eta, in code order per depth; 0 if empty."""
    errors = []
    for depth, codes in outer_leaves(_certified_levels(table, eta), table.dim).items():
        lv = table.level(depth)
        rows = lv.rows(codes)
        errors.append(np.where(rows >= 0, lv.errors[rows], 0.0))
    return np.concatenate(errors)


def approximation_error_from_table(table: OracleTable, eta: float) -> float:
    """Exact expected distortion sum_{leaves} E_I of the population quantizer."""
    return math.fsum(outer_leaf_errors(table, eta).tolist())
