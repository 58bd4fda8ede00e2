"""Spans around rectree's public functions, for the traced benchmark run.

The tracer wraps the import bindings the package itself calls through:
``rectree.kernels.*`` (which ``stats``, ``reconstruction`` and
``baselines`` look up as module attributes), the names
``rectree.reconstruction`` imported from ``stats`` and ``tree``, the
``Quantizer`` methods, and the ``baselines`` and ``datagen`` entry
points.  Nothing under ``src/`` changes, and an untraced run executes
none of this code.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from rectree import baselines, datagen, kernels, reconstruction


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    work: dict = field(default_factory=dict)


def _group_moments_work(a, result):
    counts, means, scatters = result
    moved = a["points"].nbytes + a["starts"].nbytes + counts.nbytes + means.nbytes + scatters.nbytes
    return {"rows": a["points"].shape[0], "bytes": moved}


def _nearest_centers_work(a, result):
    labels, sqd = result
    points, centers = a["points"], a["centers"]
    moved = points.nbytes + centers.nbytes + labels.nbytes + sqd.nbytes
    return {"pairs": points.shape[0] * centers.shape[0], "bytes": moved}


def _kmeans_work(a, model):
    return {"iters": model.iterations_run}


# (owner, attribute, span name, work counter or None).  Span names are
# "<layer>.<function>"; the layer is the rectree module that owns the code.
BINDINGS = (
    (kernels, "morton_encode", "kernels.morton_encode", None),
    (kernels, "morton_decode", "kernels.morton_decode", None),
    (kernels, "group_moments", "kernels.group_moments", _group_moments_work),
    (kernels, "nearest_centers", "kernels.nearest_centers", _nearest_centers_work),
    (reconstruction, "build_stats", "stats.build_stats", None),
    (reconstruction, "outer_leaves", "tree.outer_leaves", None),
    (reconstruction, "smallest_subtree", "tree.smallest_subtree", None),
    (reconstruction, "threshold_subtree", "reconstruction.threshold_subtree", None),
    (reconstruction, "quantizer_from_stats", "reconstruction.quantizer_from_stats", None),
    (reconstruction, "fit", "reconstruction.fit", None),
    (reconstruction, "sweep", "reconstruction.sweep", None),
    (reconstruction, "empirical_distortion", "reconstruction.empirical_distortion", None),
    (reconstruction, "save_codebook", "reconstruction.save_codebook", None),
    (reconstruction, "load_codebook", "reconstruction.load_codebook", None),
    (reconstruction.Quantizer, "tables", "reconstruction.tables", None),
    (reconstruction.Quantizer, "assign", "reconstruction.assign", None),
    (baselines, "kmeans_fit", "baselines.kmeans_fit", _kmeans_work),
    (baselines, "kmeans_distortion", "baselines.kmeans_distortion", None),
    (datagen, "sample", "datagen.sample", None),
)


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, work):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.spans[idx].work = work(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, work in BINDINGS:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, work))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def summary(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        row = out[s.name]
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own
    return {name: tuple(row) for name, row in out.items()}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's prefix)."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s.name.split(".")[0]] += own
    return dict(out)


def job_metrics(spans: list[Span]) -> dict[str, float | int]:
    """The per-layer metrics of one traced job.

    ``_s`` metrics are self times, except ``stats.build_stats_s`` and the
    ``baselines.kmeans_*_s`` entry points, which are inclusive.  Integer
    values are work counts and must repeat exactly from job to job.
    """
    rows = summary(spans)
    layers = layer_self_times(spans)
    work: Counter = Counter()
    for s in spans:
        for key, value in s.work.items():
            work[f"{s.name}.{key}"] += value

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return rows.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return rows.get(name, (0, 0.0, 0.0))[2]

    assign_depths = sum(
        1
        for s in spans
        if s.name == "kernels.morton_encode"
        and s.parent >= 0
        and spans[s.parent].name == "reconstruction.assign"
    )
    iters = work["baselines.kmeans_fit.iters"]
    kmeans_fit_s = total("baselines.kmeans_fit")
    return {
        "kernels.morton_encode_s": own("kernels.morton_encode"),
        "kernels.morton_encode_calls": calls("kernels.morton_encode"),
        "kernels.group_moments_s": own("kernels.group_moments"),
        "kernels.group_moments_rows": work["kernels.group_moments.rows"],
        "kernels.group_moments_bytes": work["kernels.group_moments.bytes"],
        "kernels.nearest_centers_s": own("kernels.nearest_centers"),
        "kernels.nearest_centers_pairs": work["kernels.nearest_centers.pairs"],
        "kernels.nearest_centers_bytes": work["kernels.nearest_centers.bytes"],
        "kernels.self_s": layers.get("kernels", 0.0),
        "stats.build_stats_s": total("stats.build_stats"),
        "stats.build_stats_self_s": own("stats.build_stats"),
        "tree.outer_leaves_s": own("tree.outer_leaves"),
        "tree.smallest_subtree_s": own("tree.smallest_subtree"),
        "tree.self_s": layers.get("tree", 0.0),
        "reconstruction.threshold_subtree_s": own("reconstruction.threshold_subtree"),
        "reconstruction.codebook_s": own("reconstruction.quantizer_from_stats"),
        "reconstruction.tables_s": own("reconstruction.tables"),
        "reconstruction.assign_s": own("reconstruction.assign"),
        "reconstruction.assign_depths": assign_depths,
        "reconstruction.save_codebook_s": own("reconstruction.save_codebook"),
        "reconstruction.load_codebook_s": own("reconstruction.load_codebook"),
        "reconstruction.self_s": layers.get("reconstruction", 0.0),
        "baselines.kmeans_fit_s": kmeans_fit_s,
        "baselines.kmeans_iters": iters,
        "baselines.kmeans_s_per_iter": kmeans_fit_s / iters if iters else 0.0,
        "baselines.kmeans_distortion_s": total("baselines.kmeans_distortion"),
        "baselines.self_s": layers.get("baselines", 0.0),
    }
