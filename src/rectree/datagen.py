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
diameter at most 1.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _integer, naming
from .stats import Dataset

KINDS = ("uniform_cube", "density_cube", "circle", "sphere", "swiss_roll")
_INTRINSIC = {"uniform_cube": None, "density_cube": None, "circle": 1, "sphere": 2, "swiss_roll": 2}
_EDGE = 1.0 - 2.0**-20  # keeps embedded manifolds strictly inside the cube

_MAGIC = b"RTDS"
_VERSION = 2
_HEADER = struct.Struct("<IIQ")  # version, dim, n

_SWISS_T0 = 1.5 * math.pi
_SWISS_T1 = 4.5 * math.pi
_SWISS_HEIGHT = 21.0


@dataclass(frozen=True)
class GeneratorSpec:
    """What to sample: kind, ambient dimension, seed, and density bounds.

    ``seed`` fixes the distribution itself, including the embedding
    rotation of manifold kinds; ``stream`` selects an independent draw
    stream from that same distribution (fresh trials, holdout sets).
    ``ambient_dim``, ``seed`` and ``stream`` must be integers (numpy's
    included, a bool not), or the spec is a TypeError naming the field.
    """

    kind: str
    ambient_dim: int
    seed: int = 0
    density_bounds: tuple[float, float] | None = None
    stream: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; choose from {KINDS}")
        for name in ("ambient_dim", "seed", "stream"):
            _integer(f"{name} takes an integer", getattr(self, name))
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
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
    """Draw n points; deterministic given the spec.  TypeError unless n is an integer."""
    _integer("n takes an integer", n)
    if n < 1:
        raise ValueError("n must be positive")
    d = spec.ambient_dim
    g = _rng(spec.seed, 1, spec.stream)

    if spec.kind == "uniform_cube":
        return Dataset(g.random((n, d)))

    if spec.kind == "density_cube":
        p1, p2 = spec.density_bounds
        rows = []
        remaining = n
        while remaining > 0:
            proposal = g.random((remaining, d))
            accept = g.random(remaining) * p2 <= p1 + (p2 - p1) * proposal[:, 0]
            rows.append(proposal[accept])
            remaining -= int(accept.sum())
        return Dataset(np.concatenate(rows))

    canonical, center, diam = _canonical_manifold(spec, n, g)
    padded = np.zeros((n, d))
    padded[:, : canonical.shape[1]] = canonical - center
    rotation = embedding_rotation(spec)
    return Dataset((padded @ rotation.T) * (_EDGE / diam) + 0.5)


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
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    diag = float(np.linalg.norm(maxs - mins))
    if diag == 0.0:
        scale, translation = 1.0, 0.5 - mins
    elif diag <= 1.0 and np.all(mins >= 0.0) and np.all(maxs < 1.0):
        scale, translation = 1.0, 0.0  # the identity; adding 0.0 turns -0.0 into 0.0
    else:
        scale = min(1.0, 1.0 / diag)
        translation = -mins * scale
    return Dataset(np.minimum(pts * scale + translation, np.nextafter(1.0, 0.0)))


def write_dataset(path, data: Dataset) -> None:
    """Binary dataset file, version 2: magic, header, then row-major little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, data.dim, data.n))
        fh.write(np.ascontiguousarray(data.points, dtype="<f8").tobytes())


def read_dataset(path) -> Dataset:
    """Read a :func:`write_dataset` file; a malformed one raises a ValueError naming it.

    Only version 2 is read; an older file is refused as unsupported.  A
    point outside the cube is a DomainError naming the file.
    """
    with naming(path), open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size)
        if head[:4] != _MAGIC:
            raise ValueError("not a dataset file")
        if len(head) < 4 + _HEADER.size:
            raise ValueError("dataset header truncated")
        version, dim, n = _HEADER.unpack_from(head, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        if dim < 1:
            raise ValueError(f"dataset dimension must be at least 1, got {dim}")
        size, expected = os.fstat(fh.fileno()).st_size, len(head) + 8 * dim * n
        if size != expected:
            raise ValueError(f"{size} bytes, expected {expected} for n = {n}, dim = {dim}")
        points = np.frombuffer(fh.read(8 * dim * n), dtype="<f8").reshape(n, dim).copy()
        return Dataset(points)


def read_points_csv(path, dtype=np.float64) -> np.ndarray:
    """Plain CSV of coordinates; a UTF-8 byte-order mark and a single non-numeric
    header row are skipped.

    A malformed, empty or non-UTF-8 file, or a value that does not parse as
    ``dtype``, raises a ValueError naming it.
    """
    with naming(path):
        with open(path, encoding="utf-8-sig") as fh:
            first = fh.readline()
        skip = 0
        try:
            [float(tok) for tok in first.strip().split(",") if tok]
        except ValueError:
            skip = 1
        with warnings.catch_warnings():
            # An empty file is reported below, not by numpy's "input contained no data".
            warnings.simplefilter("ignore", UserWarning)
            pts = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, dtype=dtype,
                             encoding="utf-8-sig")
        if pts.size == 0:
            raise ValueError("no data rows")
    return pts


def write_csv(path, header: list[str], rows) -> None:
    """The one CSV writer: a header line, then each row's ``repr`` values, LF endings.

    Values must be Python ints and floats, as ``ndarray.tolist()`` gives, so
    a float is written as its shortest round-trip form whatever the numpy
    version.  A first row holding anything else (an ``np.float64``, whose
    ``repr`` differs across numpy versions) raises a TypeError.
    """
    rows = list(rows)
    if rows and not all(type(v) in (int, float) for v in rows[0]):
        raise TypeError(f"CSV rows must hold Python ints and floats, not {rows[0]!r}")
    template = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % tuple(row) for row in rows)
