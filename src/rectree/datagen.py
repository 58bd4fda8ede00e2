"""Synthetic samplers and dataset ingestion.

Generator kinds:

* ``uniform_cube``   uniform on [0, 1)^D (the dyadic tree's native setting);
* ``density_cube``   density on the cube proportional to p1 + (p2-p1) x_0,
  bounded between positive constants, sampled by rejection;
* ``circle`` / ``sphere`` / ``swiss_roll``   uniform with respect to the
  surface measure of a low-dimensional manifold, embedded isometrically
  into R^D (zero padding plus a seeded random rotation so dyadic cells cut
  the manifold generically) and then mapped by a single scale and
  translation into the open unit cube with diameter at most 1.

All samplers are deterministic given the spec's seed; randomness comes
from counter-based Philox streams, one for the embedding rotation and one
for the draws, so the embedding does not depend on n.

``normalize`` is the ingestion path for external data: one global scale
plus a translation (no per-axis distortion) into [0, 1 - ulp]^D with
diameter at most 1, keeping the map for inverse transforms.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .stats import Dataset

_KINDS = ("uniform_cube", "density_cube", "circle", "sphere", "swiss_roll")
_INTRINSIC = {"uniform_cube": None, "density_cube": None, "circle": 1, "sphere": 2, "swiss_roll": 2}
_EDGE = 1.0 - 2.0**-20  # keeps embedded manifolds strictly inside the cube

_MAGIC = b"RTDS"
_VERSION = 1
_HEADER = struct.Struct("<IIQB")  # version, dim, n, normalization flag

_SWISS_T0 = 1.5 * math.pi
_SWISS_T1 = 4.5 * math.pi
_SWISS_HEIGHT = 21.0


@dataclass(frozen=True)
class NormalizationMap:
    """y = scale * x + translation, with the inverse for round trips."""

    scale: float
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "translation", np.ascontiguousarray(self.translation, dtype=np.float64)
        )

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) * self.scale + self.translation

    def invert(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.translation) / self.scale

    @classmethod
    def identity(cls, dim: int) -> "NormalizationMap":
        return cls(1.0, np.zeros(dim))


@dataclass(frozen=True)
class GeneratorSpec:
    """What to sample: kind, ambient dimension, seed, and density bounds.

    ``seed`` fixes the distribution itself, including the embedding
    rotation of manifold kinds; ``stream`` selects an independent draw
    stream from that same distribution (fresh trials, holdout sets).
    """

    kind: str
    ambient_dim: int
    seed: int = 0
    density_bounds: tuple[float, float] | None = None
    stream: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; choose from {_KINDS}")
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        minimum = {"circle": 2, "sphere": 3, "swiss_roll": 3}.get(self.kind, 1)
        if self.ambient_dim < minimum:
            raise ValueError(f"{self.kind} needs ambient_dim >= {minimum}")
        if self.kind == "density_cube":
            if self.density_bounds is None:
                raise ValueError("density_cube requires density_bounds = (p1, p2)")
            p1, p2 = self.density_bounds
            if not 0 < p1 <= p2 < math.inf:
                raise ValueError(f"density bounds must satisfy 0 < p1 <= p2, got {p1}, {p2}")
        elif self.density_bounds is not None:
            raise ValueError("density_bounds only applies to density_cube")

    @property
    def intrinsic_dim(self) -> int:
        d = _INTRINSIC[self.kind]
        return self.ambient_dim if d is None else d


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def embedding_rotation(spec: GeneratorSpec) -> np.ndarray:
    """Seeded orthogonal matrix, fixed across sample sizes for a given spec."""
    d = spec.ambient_dim
    g = _rng(spec.seed, 0)
    q, r = np.linalg.qr(g.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _swiss_arclength(t):
    return 0.5 * (t * np.sqrt(1.0 + t * t) + np.arcsinh(t))


def _swiss_t_from_arclength(s: np.ndarray) -> np.ndarray:
    # Newton on A(t) = s from the large-t guess t ~ sqrt(2 s).
    t = np.sqrt(2.0 * np.maximum(s, 0.0)) + 1e-9
    for _ in range(12):
        t = t - (_swiss_arclength(t) - s) / np.sqrt(1.0 + t * t)
    return np.clip(t, _SWISS_T0, _SWISS_T1)


def _canonical_manifold(spec: GeneratorSpec, n: int, g: np.random.Generator):
    """Canonical samples, the canonical center, and a diameter upper bound."""
    if spec.kind == "circle":
        theta = g.random(n) * (2.0 * math.pi)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        return pts, np.zeros(2), 2.0
    if spec.kind == "sphere":
        v = g.standard_normal((n, 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        while np.any(norms == 0):
            bad = norms[:, 0] == 0
            v[bad] = g.standard_normal((int(bad.sum()), 3))
            norms = np.linalg.norm(v, axis=1, keepdims=True)
        return v / norms, np.zeros(3), 2.0
    if spec.kind == "swiss_roll":
        lo, hi = _swiss_arclength(np.array([_SWISS_T0, _SWISS_T1]))
        t = _swiss_t_from_arclength(lo + g.random(n) * (hi - lo))
        y = g.random(n) * _SWISS_HEIGHT
        pts = np.column_stack([t * np.cos(t), y, t * np.sin(t)])
        center = np.array([0.0, _SWISS_HEIGHT / 2.0, 0.0])
        diam = math.sqrt(8.0 * _SWISS_T1**2 + _SWISS_HEIGHT**2)
        return pts, center, diam
    raise ValueError(spec.kind)


def sample(spec: GeneratorSpec, n: int) -> Dataset:
    """Draw n points; deterministic given the spec."""
    if n < 1:
        raise ValueError("n must be positive")
    d = spec.ambient_dim
    g = _rng(spec.seed, 1, spec.stream)

    if spec.kind == "uniform_cube":
        return Dataset(g.random((n, d)), NormalizationMap.identity(d))

    if spec.kind == "density_cube":
        p1, p2 = spec.density_bounds
        rows = []
        remaining = n
        while remaining > 0:
            proposal = g.random((remaining, d))
            accept = g.random(remaining) * p2 <= p1 + (p2 - p1) * proposal[:, 0]
            rows.append(proposal[accept])
            remaining -= int(accept.sum())
        return Dataset(np.concatenate(rows), NormalizationMap.identity(d))

    canonical, center, diam = _canonical_manifold(spec, n, g)
    padded = np.zeros((n, d))
    padded[:, : canonical.shape[1]] = canonical - center
    rotation = embedding_rotation(spec)
    scale = _EDGE / diam
    points = (padded @ rotation.T) * scale + 0.5
    return Dataset(points, NormalizationMap(scale, np.full(d, 0.5)))


def manifold_residual(spec: GeneratorSpec, data: Dataset) -> np.ndarray:
    """Per-point deviation from the manifold's defining equations.

    Undoes the cube map and the embedding rotation, then evaluates the
    canonical constraints; exact samples give residuals at rounding level.
    """
    if _INTRINSIC[spec.kind] is None:
        raise ValueError(f"{spec.kind} is not a manifold kind")
    rotation = embedding_rotation(spec)
    nm = data.normalization
    if not isinstance(nm, NormalizationMap):
        raise ValueError("dataset does not carry the generator's normalization map")
    canonical = nm.invert(data.points) @ rotation
    tail = canonical[:, 3:] if spec.kind != "circle" else canonical[:, 2:]
    tail_res = np.abs(tail).max(axis=1) if tail.shape[1] else np.zeros(len(canonical))
    if spec.kind == "circle":
        res = np.abs(np.linalg.norm(canonical[:, :2], axis=1) - 1.0)
    elif spec.kind == "sphere":
        res = np.abs(np.linalg.norm(canonical[:, :3], axis=1) - 1.0)
    else:
        x = canonical[:, 0]
        y = canonical[:, 1] + _SWISS_HEIGHT / 2.0
        z = canonical[:, 2]
        r = np.hypot(x, z)
        res = np.hypot(x / r - np.cos(r), z / r - np.sin(r))
        res = np.maximum(res, np.maximum(0.0 - y, y - _SWISS_HEIGHT))
    return np.maximum(res, tail_res)


def normalize(points) -> Dataset:
    """Map raw vectors into [0, 1 - ulp]^D by one scale plus a translation.

    Data already inside the cube with diameter at most 1 passes through
    unchanged (identity map, up to the margin clamp); zero-diameter input
    maps to the cube center.  Distance ratios are preserved exactly up to
    the clamp.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, dim) array")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    dim = pts.shape[1]
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    diag = float(np.linalg.norm(maxs - mins))
    if diag == 0.0:
        nm = NormalizationMap(1.0, 0.5 - mins)
    elif diag <= 1.0 and np.all(mins >= 0.0) and np.all(maxs < 1.0):
        nm = NormalizationMap.identity(dim)
    else:
        scale = min(1.0, 1.0 / diag)
        nm = NormalizationMap(scale, -mins * scale)
    mapped = np.minimum(nm.apply(pts), np.nextafter(1.0, 0.0))
    return Dataset(mapped, nm)


def write_dataset(path, data: Dataset) -> None:
    """Binary dataset file: header then row-major little-endian float64."""
    nm = data.normalization
    if nm is None or not isinstance(nm, NormalizationMap):
        nm = NormalizationMap.identity(data.dim)
        flag = 0
    else:
        flag = 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, data.dim, data.n, flag))
        fh.write(struct.pack("<d", nm.scale))
        fh.write(nm.translation.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(data.points, dtype="<f8").tobytes())


def read_dataset(path) -> Dataset:
    """Read a :func:`write_dataset` file; a malformed one raises a ValueError naming it."""
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size)
        if head[:4] != _MAGIC:
            raise ValueError(f"{path} is not a dataset file")
        if len(head) < 4 + _HEADER.size:
            raise ValueError(f"{path}: dataset header truncated")
        version, dim, n, flag = _HEADER.unpack_from(head, 4)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported dataset version {version}")
        if dim < 1:
            raise ValueError(f"{path}: dataset dimension must be at least 1, got {dim}")
        size, expected = os.fstat(fh.fileno()).st_size, len(head) + 8 * (1 + dim + dim * n)
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, expected {expected} for n = {n}, dim = {dim}")
        (scale,) = struct.unpack("<d", fh.read(8))
        translation = np.frombuffer(fh.read(8 * dim), dtype="<f8").copy()
        points = np.frombuffer(fh.read(8 * dim * n), dtype="<f8").reshape(n, dim).copy()
    nm = NormalizationMap(scale, translation) if flag else None
    return Dataset(points, nm)


def read_points_csv(path, dtype=np.float64) -> np.ndarray:
    """Plain CSV of coordinates; a single non-numeric header row is skipped.

    A malformed or empty file, or a value that does not parse as
    ``dtype``, raises a ValueError naming it.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok]
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # An empty file is reported below, not by numpy's "input contained no data".
        warnings.simplefilter("ignore", UserWarning)
        try:
            pts = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, dtype=dtype)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if pts.size == 0:
        raise ValueError(f"{path}: no data rows")
    return pts


def write_points_csv(path, points: np.ndarray) -> None:
    pts = np.asarray(points, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{k}" for k in range(pts.shape[1])) + "\n")
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
