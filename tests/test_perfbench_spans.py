"""The benchmark's tracer and workloads (``perfbench/``) against the package they run.

The tracer replaces functions by name, so a rename in ``src/`` breaks a
traced benchmark run without failing any other test.  Each workload's
``check`` pass re-derives the between-within and telescoping identities,
the leaf-count bound and the codebook round trip from what its job built,
so a change that breaks one of them fails here on small inputs too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rectree import reconstruction
from rectree.stats import Dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``."""
    module = f"perfbench_{name}"
    if module not in sys.modules:
        spec = importlib.util.spec_from_file_location(module, PERFBENCH / f"{name}.py")
        # Registered before it runs: its dataclasses look their module up by name.
        sys.modules[module] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[module])
    return sys.modules[module]


def test_every_binding_resolves():
    spans = load("spans")
    missing = [(owner.__name__, attr) for owner, attr, *_ in spans.BINDINGS
               if not hasattr(owner, attr)]
    assert missing == []


def test_fit_records_the_tree_spans():
    spans = load("spans")
    tracer = spans.Tracer()
    data = Dataset(np.random.default_rng(0).random((2000, 2)))
    with tracer.installed():
        reconstruction.fit(data, 0.02, reconstruction.RateSchedule(branching=4))
    recorded = tracer.take()
    names = {span.name for span in recorded}
    assert {"tree.outer_leaves", "tree.smallest_subtree"} <= names
    metrics = spans.job_metrics(recorded)
    assert metrics["tree.outer_leaves_s"] > 0 and metrics["tree.smallest_subtree_s"] > 0


W = load("workloads")


@pytest.mark.parametrize(
    "workload",
    [
        W.FitWorkload("uniform_cube", (1, 3), 1 << 11),
        W.SweepWorkload("swiss_roll", 3, 1 << 10, 1 << 10, W._halving_ladder),
        W.SweepWorkload("swiss_roll", 3, 1 << 9, 1 << 10, W._fixed_etas, kmeans_iters=5),
    ],
    ids=["fit", "sweep", "baseline-kmeans"],
)
def test_workload_job_passes_its_checks(tmp_path, workload):
    cases = workload.setup(seed=1)
    out = workload.job(cases, tmp_path)
    checks, counters, histogram = W.check(workload, cases, tmp_path, [out.digest])
    assert [name for name, passed in checks if not passed] == []
    assert len(checks) > 1 and counters["tree.leaves"] == sum(histogram.values())
