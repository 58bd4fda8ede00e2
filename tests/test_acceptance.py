"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 6 and 8 sample and fit at full bench scale and
dominate the runtime (about half a minute total).
"""

import math
import time

import numpy as np

from rectree import kernels
from rectree.baselines import kmeans_fit
from rectree.cli import main as cli_main
from rectree.datagen import GeneratorSpec, sample
from rectree.experiment import run_approximation_trend, run_rate_experiment
from rectree.kernels import default_max_depth
from rectree.oracle import DiscreteDistribution, oracle_stats
from rectree.reconstruction import (
    Quantizer, RateSchedule, outer_leaves, quantizer_from_stats, threshold_subtree,
)
from rectree.stats import Dataset, build_stats

from reference_tree import closure_levels, isolation_depth, lookup, root_cell


def report(number, detail, started):
    print(f"[acceptance] criterion {number}: PASS - {detail} ({time.time() - started:.1f}s)")


def random_dataset(rng, dim, n_max=100_000):
    n = int(np.exp(rng.uniform(np.log(100), np.log(n_max))))
    return Dataset(rng.random((n, dim)))


def replicated_fixture(rng, dim, max_atoms=64):
    """Distribution with dyadic weights plus the dataset realizing it."""
    m = int(rng.integers(2, max_atoms + 1))
    atoms = rng.random((m, dim))
    counts = rng.integers(1, 9, size=m)
    total = int(counts.sum())
    pad = 1 << int(np.ceil(np.log2(total)))
    counts[0] += pad - total  # power-of-two n keeps the weights exact binary
    data = Dataset(np.repeat(atoms, counts, axis=0))
    dist = DiscreteDistribution(atoms, counts / pad)
    return dist, data


def test_criterion_01_between_within_identity():
    started = time.time()
    rng = np.random.default_rng(2024_01)
    caps = {1: 10, 2: 6, 3: 5, 8: 3}
    checked = 0
    for dim, cap in caps.items():
        for _ in range(25):
            data = random_dataset(rng, dim)
            table = build_stats(data, cap)
            for depth in range(cap):
                lv = table.level(depth)
                gap = np.abs(lv.gains**2 - table.gain_sq_by_difference(depth))
                bound = 1e-9 * np.maximum(lv.errors, 1e-300)
                assert np.all(gap <= bound), f"identity violated at dim={dim} depth={depth}"
                checked += lv.codes.shape[0]
    assert time.time() - started < 60
    report(1, f"{checked} cells over 100 datasets within 1e-9 relative", started)


def test_criterion_02_outer_leaf_partition():
    started = time.time()
    rng = np.random.default_rng(2024_02)
    from rectree.kernels import default_max_depth as dmax

    for trial in range(1000):
        dim = int(rng.integers(1, 4))
        target = int(rng.integers(1, 1001))
        # grow a random parent-closed subtree by expanding random outer leaves
        cells = {(0, 0)}
        frontier = [(1, t) for t in range(1 << dim)]
        while len(cells) < target and frontier:
            depth, code = frontier.pop(int(rng.integers(len(frontier))))
            cells.add((depth, code))
            if depth < dmax(dim):
                frontier.extend((depth + 1, (code << dim) | t) for t in range(1 << dim))
        leaves = [
            (d + 1, (c << dim) | t)
            for d, c in cells
            for t in range(1 << dim)
            if (d + 1, (c << dim) | t) not in cells
        ]
        a = 1 << dim
        assert len(leaves) <= (a - 1) * len(cells) + 1
        by_depth = {}
        for d, c in leaves:
            by_depth.setdefault(d, []).append(c)
        by_depth = {d: np.sort(np.asarray(codes, dtype=np.int64)) for d, codes in by_depth.items()}
        # The package's own closure and leaves give the same leaf list.
        depth_code = np.array(list(cells), dtype=np.int64)
        marked = {d: depth_code[depth_code[:, 0] == d, 1] for d in np.unique(depth_code[:, 0])}
        levels = closure_levels(marked, dim)
        found = outer_leaves(levels, dim)
        assert sorted(found) == sorted(by_depth), f"trial {trial}"
        assert all(np.array_equal(found[d], by_depth[d]) for d in by_depth), f"trial {trial}"
        points = rng.random((10_000, dim))
        # In Morton order every depth's point codes are sorted, which makes
        # each search below a merge-like walk; the checks are per point.
        points = points[np.argsort(kernels.morton_encode(points, max(by_depth)))]
        hits = np.zeros(10_000, dtype=np.int64)
        leaf_depth = np.full(10_000, -1, dtype=np.int64)
        leaf_code = np.full(10_000, -1, dtype=np.int64)
        for d, codes in by_depth.items():
            pt_codes = kernels.morton_encode(points, d)
            pos = np.searchsorted(codes, pt_codes)
            pos[pos == codes.shape[0]] = 0
            hit = codes[pos] == pt_codes
            hits += hit.astype(np.int64)
            leaf_depth[hit], leaf_code[hit] = d, pt_codes[hit]
        assert np.array_equal(hits, np.ones(10_000, dtype=np.int64)), f"trial {trial}"
        # One quantizer over the leaves locates every point in the same leaf.
        tables = {d: (codes, np.zeros((codes.shape[0], dim))) for d, codes in by_depth.items()}
        q = Quantizer.from_tables(dim, tables, 1.0, max(by_depth))
        rows = q.assign(points)
        assert np.array_equal(q.depths[rows], leaf_depth), f"trial {trial}"
        shift = dim * (q.deepest - leaf_depth)
        assert np.array_equal(q.starts[rows] >> shift, leaf_code), f"trial {trial}"
    assert time.time() - started < 60
    report(2, "1000 random subtrees tile the cube; cardinality bound exact; "
              "outer_leaves and Quantizer.assign agree", started)


def test_criterion_03_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(2024_03)
    for trial in range(50):
        dim = int(rng.integers(1, 3))
        dist, data = replicated_fixture(rng, dim)
        table_o = oracle_stats(dist)
        assert table_o.depth_cap == min(isolation_depth(dist) + 1, default_max_depth(dim))
        table = build_stats(data, table_o.depth_cap)
        for eta in np.exp(rng.uniform(np.log(1e-3), np.log(1.2), size=10)):
            sub_o = threshold_subtree(table_o, float(eta))
            sub_e = threshold_subtree(table, float(eta))
            assert sub_o == sub_e, f"trial {trial} eta={eta}"
            q_o = quantizer_from_stats(table_o, float(eta))
            q_e = quantizer_from_stats(table, float(eta))
            assert set(q_o.leaves) == set(q_e.leaves)
            for cell in q_o.leaves:
                assert np.max(np.abs(q_o.codebook[cell] - q_e.codebook[cell])) <= 1e-12
    assert time.time() - started < 60
    report(3, "50 distributions x 10 thresholds: subtrees equal, centers within 1e-12", started)


def test_criterion_04_telescoping_identity():
    started = time.time()
    rng = np.random.default_rng(2024_04)
    for trial in range(50):
        dim = int(rng.integers(1, 3))
        dist, _ = replicated_fixture(rng, dim, max_atoms=32)
        table = oracle_stats(dist)
        root_error = lookup(table, root_cell(dim)).error
        scale = max(root_error, 1e-300)
        for stop in range(table.depth_cap):
            total = math.fsum(
                float(g * g) for d in range(stop + 1) for g in table.level(d).gains
            )
            residual = math.fsum(float(e) for e in table.level(stop + 1).errors)
            assert abs(total + residual - root_error) <= 1e-12 * scale
    report(4, "exact to 1e-12 relative through every truncation level", started)


def test_criterion_05_degenerate_thresholds():
    started = time.time()
    rng = np.random.default_rng(2024_05)
    fixtures = 0
    for dim in (1, 2, 3):
        for _ in range(10):
            data = Dataset(rng.random((int(rng.integers(2, 3000)), dim)))
            table = build_stats(data, 4)
            for eta in (1.0, 1.7):
                assert threshold_subtree(table, eta) == {root_cell(dim)}
            fixtures += 1
    for _ in range(10):
        dim = int(rng.integers(1, 3))
        dist, _ = replicated_fixture(rng, dim, max_atoms=16)
        for eta in (1.0, 2.5):
            assert threshold_subtree(oracle_stats(dist), eta) == {root_cell(dim)}
        fixtures += 1
    report(5, f"eta >= 1 keeps the root-only subtree on {fixtures} fixtures", started)


def test_criterion_06_rate_trend():
    started = time.time()
    grid = tuple(2**k for k in range(8, 17))
    slopes = {}
    for dim, band in ((1, (0.45, 0.85)), (2, (0.30, 0.70))):
        _, slope = run_rate_experiment(
            generator=GeneratorSpec("uniform_cube", dim, seed=0),
            n_grid=grid,
            schedule=RateSchedule(1 << dim, gamma=1.5, beta=1.0),
            trials=5,
            seed=42,
        )
        slopes[dim] = slope
        assert band[0] <= slope <= band[1], (
            f"D={dim} slope {slope:.3f} outside {band}"
        )
    assert time.time() - started < 600
    report(
        6,
        f"slopes D=1: {slopes[1]:.3f} in [0.45,0.85], D=2: {slopes[2]:.3f} in [0.30,0.70]",
        started,
    )


def test_criterion_07_approximation_trend():
    started = time.time()
    m = 4096
    atoms = ((np.arange(m) + 0.5) / m)[:, None]
    dist = DiscreteDistribution(atoms, np.full(m, 1.0 / m))
    rows, slope = run_approximation_trend(dist, [2.0**-k for k in range(1, 9)])
    assert all(err > 0 for _, err, _ in rows)
    assert 1.0 <= slope <= 1.6, f"slope {slope:.3f} outside [1.0, 1.6]"
    assert time.time() - started < 60
    report(7, f"oracle decay slope {slope:.3f} in [1.0, 1.6] (target 4/3)", started)


def test_criterion_08_manifold_exponent():
    started = time.time()
    _, slope = run_rate_experiment(
        generator=GeneratorSpec("circle", 3, seed=0),
        n_grid=tuple(2**k for k in range(8, 17)),
        schedule=RateSchedule(1 << 3, gamma=1.5, beta=1.0),
        trials=5,
        seed=42,
    )
    assert 0.45 <= slope <= 0.85, (
        f"circle slope {slope:.3f} outside the D=1 band"
    )
    assert time.time() - started < 600
    report(
        8,
        f"circle in R^3 slope {slope:.3f} matches the intrinsic-dim band",
        started,
    )


def test_criterion_09_kmeans_parity_and_monotonicity():
    started = time.time()
    rng = np.random.default_rng(2024_09)
    for dim in (1, 2, 3, 8):
        for _ in range(3):
            data = Dataset(rng.random((int(rng.integers(50, 20_000)), dim)))
            model = kmeans_fit(data, 1, seed=int(rng.integers(1 << 30)))
            root_error = lookup(build_stats(data, 1), root_cell(dim)).error
            assert abs(model.final_objective - root_error) <= 1e-12 * root_error
    runs = 0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        data = Dataset(rng.random((int(rng.integers(30, 800)), dim)))
        k = int(rng.integers(1, 17))
        model = kmeans_fit(data, k, seed=int(rng.integers(1 << 30)))
        trace = model.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        runs += 1
    report(9, f"k=1 parity within 1e-12; {runs} Lloyd traces nonincreasing", started)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.time()
    train = tmp_path / "train.rtds"
    assert cli_main(["sample", "--generator", "uniform_cube", "--dim", "2", "--n", "600",
                     "--seed", "3", "--output", str(train)]) == 0
    codebook = tmp_path / "cb.json"
    assert cli_main(["fit", "--data", str(train), "--eta", "0.05",
                     "--output", str(codebook)]) == 0

    commands = {
        "sample": ["sample", "--generator", "circle", "--dim", "3", "--n", "200",
                   "--seed", "9", "--output", "{out}"],
        "fit": ["fit", "--data", str(train), "--eta", "0.05", "--output", "{out}"],
        "encode": ["encode", "--codebook", str(codebook), "--data", str(train),
                   "--output", "{out}"],
        "distortion": ["distortion", "--codebook", str(codebook), "--data", str(train),
                       "--output", "{out}"],
        "sweep": ["sweep", "--data", str(train), "--etas", "0.5,0.1,0.05",
                  "--output", "{out}"],
        "rate-experiment": ["rate-experiment", "--dim", "1", "--n-grid", "128,256,512",
                            "--trials", "2", "--holdout-n", "1000", "--seed", "4",
                            "--output", "{out}"],
        "approx-trend": ["approx-trend", "--uniform-atoms", "512", "--dim", "1",
                         "--etas", "0.5,0.125,0.03125,0.0078125", "--output", "{out}"],
        "baseline": ["baseline", "--dim", "1", "--n", "256", "--holdout-n", "600",
                     "--seed", "2", "--etas", "1.0,0.2,0.05", "--output", "{out}"],
    }
    ids_first = tmp_path / "encode.0.out"

    for name, template in commands.items():
        outputs = []
        for attempt in (0, 1):
            out = tmp_path / f"{name}.{attempt}.out"
            argv = [tok.replace("{out}", str(out)) for tok in template]
            assert cli_main(argv) == 0, f"{name} run {attempt} failed"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"

    # decode depends on encode's output file; run it twice against that
    outputs = []
    for attempt in (0, 1):
        out = tmp_path / f"decode.{attempt}.out"
        assert cli_main(["decode", "--codebook", str(codebook), "--ids", str(ids_first),
                         "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(10, "all 9 subcommands byte-identical across repeat runs", started)
