"""The radix sort gives the pipeline the bytes of the stable comparison sort.

``kernels.morton_argsort`` orders the Morton codes of the statistics
table, the oracle table and the quantizer's leaves.  Each test runs a
pipeline twice, the second time with ``np.argsort(codes, kind="stable")``
patched in for it, and compares the outputs byte for byte.  A caller that
passed too few bits would sort on the low digits only and fail here.
"""

import numpy as np
import pytest

from rectree import kernels
from rectree.cli import main
from rectree.datagen import GeneratorSpec, sample
from rectree.oracle import DiscreteDistribution, oracle_stats
from rectree.reconstruction import RateSchedule, fit
from rectree.stats import build_stats


def both_sorts(monkeypatch, run):
    """(run() with the radix sort, run() with the stable comparison sort)."""
    radix = run()
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "morton_argsort",
                        lambda codes, bits: np.argsort(codes, kind="stable"))
        stable = run()
    return radix, stable


def table_bytes(table):
    out = [table.depth_cap]
    for depth in range(table.depth_cap + 1):
        lv = table.level(depth)
        out += [lv.codes.tobytes(), lv.counts.tobytes(), lv.centers.tobytes(),
                lv.errors.tobytes(), None if lv.gains is None else lv.gains.tobytes()]
    return out


@pytest.mark.parametrize(
    "kind, dim, depth, eta",
    [
        ("uniform_cube", 1, 27, None),  # two 16-bit passes
        ("uniform_cube", 1, 27, 0.01),
        ("uniform_cube", 3, 9, None),
        ("swiss_roll", 3, 20, None),  # four passes
        ("sphere", 13, 4, None),
    ],
)
def test_statistics_table(monkeypatch, kind, dim, depth, eta):
    data = sample(GeneratorSpec(kind, dim, seed=4), 5000)
    radix, stable = both_sorts(monkeypatch, lambda: table_bytes(build_stats(data, depth, eta)))
    assert radix == stable


@pytest.mark.parametrize("kind, dim, eta", [("swiss_roll", 3, 0.0005), ("uniform_cube", 2, 3e-5)])
def test_quantizer(monkeypatch, kind, dim, eta):
    data = sample(GeneratorSpec(kind, dim, seed=2), 6000)

    def run():
        q = fit(data, eta, RateSchedule(1 << dim))
        return q.deepest * dim, q.starts.tobytes(), q.depths.tobytes(), q.vectors.tobytes()

    radix, stable = both_sorts(monkeypatch, run)
    assert radix[0] > 16 and radix == stable  # leaf starts take two passes


@pytest.mark.parametrize("dim, side", [(1, 4096), (2, 64), (3, 16)])
def test_oracle_table(monkeypatch, dim, side):
    # Atoms on a dyadic grid with duplicates (merged), plus jittered ones
    # that isolate deep, so levels hold ties and several sort passes.
    rng = np.random.default_rng(dim)
    grid = rng.integers(0, side, (300, dim)) / side
    jitter = np.clip(grid[:40] + rng.random((40, dim)) * 2.0**-14, 0.0, 0.999)
    points = np.vstack([grid, jitter])
    dist = DiscreteDistribution(points, np.full(points.shape[0], 1.0 / points.shape[0]))
    radix, stable = both_sorts(monkeypatch, lambda: table_bytes(oracle_stats(dist)))
    assert radix == stable


def test_cli_outputs(monkeypatch, tmp_path):
    def run():
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        data, codebook = out / "train.rtds", out / "codebook.json"
        commands = [
            ["sample", "--generator", "swiss_roll", "--dim", "3", "--n", "6000", "--seed", "2",
             "--output", data],
            # Leaves down to j_n = 6: 18-bit leaf codes, two passes in
            # Quantizer.from_tables and in load_codebook (encode).
            ["fit", "--data", data, "--eta", "0.0005", "--output", codebook],
            ["encode", "--codebook", codebook, "--data", data, "--output", out / "ids.csv"],
            ["sweep", "--data", data, "--etas", "0.1,0.01,0.0005", "--output", out / "sweep.csv"],
            ["sweep", "--generator", "circle", "--dim", "3", "--n", "3000", "--seed", "5",
             "--etas", "0.05,0.01", "--output", out / "sweep_g.csv"],
            ["approx-trend", "--uniform-atoms", "512", "--dim", "3", "--output", out / "trend.csv"],
        ]
        for argv in commands:
            assert main([str(a) for a in argv]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    radix, stable = both_sorts(monkeypatch, run)
    assert len(radix) == 6 and radix == stable
