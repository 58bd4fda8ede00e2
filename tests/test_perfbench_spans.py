"""The benchmark tracer (``perfbench/spans.py``) against the package it wraps.

The tracer replaces functions by name, so a rename in ``src/`` breaks a
traced benchmark run without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from rectree import reconstruction
from rectree.stats import Dataset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    if "perfbench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        # Registered before it runs: its dataclasses look their module up by name.
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_spans"]


def test_every_binding_resolves():
    spans = load_spans()
    missing = [(owner.__name__, attr) for owner, attr, *_ in spans.BINDINGS
               if not hasattr(owner, attr)]
    assert missing == []


def test_fit_records_the_tree_spans():
    spans = load_spans()
    tracer = spans.Tracer()
    data = Dataset(np.random.default_rng(0).random((2000, 2)))
    with tracer.installed():
        reconstruction.fit(data, 0.02, reconstruction.RateSchedule(branching=4))
    recorded = tracer.take()
    names = {span.name for span in recorded}
    assert {"tree.outer_leaves", "tree.smallest_subtree"} <= names
    metrics = spans.job_metrics(recorded)
    assert metrics["tree.outer_leaves_s"] > 0 and metrics["tree.smallest_subtree_s"] > 0
