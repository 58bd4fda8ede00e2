import math
from dataclasses import replace

import numpy as np
import pytest

from rectree import experiment
from rectree.baselines import kmeans_distortion, kmeans_fit
from rectree.datagen import GeneratorSpec, sample, write_csv
from rectree.experiment import (
    RATE_COLUMNS,
    _child_seed,
    fit_loglog_slope,
    run_approximation_trend,
    run_baseline_comparison,
    run_eta_sweep_experiment,
    run_rate_experiment,
)
from rectree.oracle import DiscreteDistribution
from rectree.reconstruction import RateSchedule, empirical_distortion, fit, sweep


def small_run(**overrides):
    kwargs = dict(
        generator=GeneratorSpec("uniform_cube", 1, seed=0),
        n_grid=(128, 256, 512),
        trials=2,
        holdout_n=2000,
        seed=5,
    )
    kwargs.update(overrides)
    return run_rate_experiment(**kwargs)


class TestRateExperiment:
    def test_rows_match_schedule(self):
        rows, slope = small_run()
        schedule = RateSchedule(branching=2)
        assert [row[0] for row in rows] == [128, 256, 512]
        for n, eta_n, j_n, _, mean, std in rows:
            assert eta_n == pytest.approx(schedule.eta_n(n), rel=1e-15)
            assert j_n == schedule.depth_cap(n)
            assert mean > 0
            assert std >= 0
        assert np.isfinite(slope)

    def test_deterministic_csv(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            write_csv(path, RATE_COLUMNS, small_run()[0])
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_run(n_grid=(256, 128))
        with pytest.raises(ValueError):
            small_run(trials=0)
        with pytest.raises(ValueError, match="^n_grid entries must be at least 2$"):
            small_run(n_grid=(1, 4))
        with pytest.raises(ValueError, match="schedule branching 4 does not match dim 1"):
            small_run(schedule=RateSchedule(4))
        with pytest.raises(ValueError, match="^seed -1 must be non-negative$"):
            small_run(seed=-1)
        for holdout_n in (0, -5):
            with pytest.raises(ValueError, match=f"^holdout_n {holdout_n} must be positive$"):
                small_run(holdout_n=holdout_n)

    def test_config_holds_one_schedule(self):
        assert small_run() == small_run(schedule=RateSchedule(2))
        schedule = RateSchedule(2, gamma=1.2, beta=2.0, threshold_constant=0.7)
        rows, _ = small_run(schedule=schedule)
        for n, eta_n, j_n, *_ in rows:
            assert eta_n == schedule.eta_n(n) and j_n == schedule.depth_cap(n)

    @pytest.mark.parametrize("overrides, bad", [
        ({"n_grid": (128.5, 256.9)}, "128.5"),
        ({"n_grid": (128, 256.0)}, "256.0"),
        ({"n_grid": (True, 256)}, "True"),
        ({"trials": 2.5}, "2.5"),
        ({"trials": True}, "True"),
    ], ids=["fractions", "whole-float", "bool", "trials-fraction", "trials-bool"])
    def test_refuses_a_non_integer_before_sampling(self, monkeypatch, overrides, bad):
        monkeypatch.setattr(experiment, "sample", lambda *_: pytest.fail("sampled first"))
        with pytest.raises(TypeError, match=f"^n_grid and trials take integers, not {bad}$"):
            small_run(**overrides)

    def test_numpy_integers_give_python_rows(self):
        rows, slope = small_run(n_grid=np.array([128, 256, 512]), trials=np.int64(2))
        assert (rows, slope) == small_run()
        assert {type(v) for row in rows for v in row} == {int, float}

    @pytest.mark.parametrize("overrides, bad", [
        ({"seed": 1.5}, "seed takes an integer, not 1.5"),
        ({"seed": True}, "seed takes an integer, not True"),
        ({"holdout_n": 100.5}, "holdout_n takes an integer, not 100.5"),
        ({"holdout_n": True}, "holdout_n takes an integer, not True"),
    ], ids=["seed-fraction", "seed-bool", "holdout-fraction", "holdout-bool"])
    def test_refuses_a_non_integer_seed_or_holdout_before_sampling(self, monkeypatch, overrides,
                                                                  bad):
        monkeypatch.setattr(experiment, "sample", lambda *_: pytest.fail("sampled first"))
        with pytest.raises(TypeError, match=f"^{bad}$"):
            small_run(**overrides)

    def test_numpy_integer_seed_and_holdout(self):
        assert small_run(seed=np.int64(5), holdout_n=np.int64(2000)) == small_run()


class TestRowsAreTheFitsOfTheirStreams:
    """Each run's rows, recomputed from the streams it documents, compare with ==."""

    def test_rate_rows(self):
        gen, grid, seed, trials = GeneratorSpec("circle", 2, seed=4), (64, 200), 9, 3
        rows, slope = run_rate_experiment(gen, grid, trials=trials, seed=seed)
        schedule = RateSchedule(4)
        for i, n in enumerate(grid):
            eta, dists, leaves = schedule.eta_n(n), [], []
            for t in range(trials):
                quantizer = fit(sample(replace(gen, stream=_child_seed(seed, i, t, 0)), n), eta,
                                schedule)
                holdout = sample(replace(gen, stream=_child_seed(seed, i, t, 1)), 10 * grid[-1])
                dists.append(empirical_distortion(quantizer, holdout))
                leaves.append(len(quantizer.starts))
            assert rows[i] == (n, eta, schedule.depth_cap(n), float(np.mean(leaves)),
                               float(np.mean(dists)), float(np.std(dists, ddof=1)))
        assert slope == fit_loglog_slope([math.log(n) / n for n in grid], [r[4] for r in rows])

    def test_sweep_and_baseline_rows(self):
        gen, n, etas = GeneratorSpec("swiss_roll", 3, seed=6), 700, [0.2, 0.05, 0.01]
        train = sample(gen, n)
        holdout = sample(replace(gen, stream=_child_seed(gen.seed, n, 0, 1)), 10 * n)
        tree_rows = [(eta, leaves, train_dist, empirical_distortion(quantizer, holdout))
                     for eta, quantizer, leaves, train_dist in sweep(train, etas, RateSchedule(8))]
        assert run_eta_sweep_experiment(gen, n, etas) == tree_rows
        rows = run_baseline_comparison(gen, n, etas)
        for i, row in enumerate(rows):
            k = min(row[1], n)
            model = kmeans_fit(train, k, seed=_child_seed(gen.seed, n, i, 2))
            assert row == (*tree_rows[i], k, model.final_objective,
                           kmeans_distortion(model, holdout))


class TestHoldoutEstimator:
    def test_two_holdouts_agree_within_standard_error(self):
        train = sample(GeneratorSpec("uniform_cube", 2, seed=1), 2000)
        quantizer = fit(train, 0.05, RateSchedule(branching=4))
        values, ses = [], []
        for seed in (101, 202):
            holdout = sample(GeneratorSpec("uniform_cube", 2, seed=seed), 40000)
            errors = ((holdout.points - quantizer.reconstruct(holdout.points)) ** 2).sum(axis=1)
            values.append(errors.mean())
            ses.append(errors.std(ddof=1) / np.sqrt(errors.shape[0]))
        assert abs(values[0] - values[1]) <= 5 * np.hypot(ses[0], ses[1])


class TestEtaSweepExperiment:
    def test_monotone_and_degenerate_row(self):
        rows = run_eta_sweep_experiment(
            GeneratorSpec("uniform_cube", 2, seed=3), 2000, [1.5, 0.5, 0.1, 0.04], holdout_n=4000
        )
        assert rows[0][1] == 4  # eta >= 1 keeps the root: a leaves
        leaf_counts = [r[1] for r in rows]
        trains = [r[2] for r in rows]
        assert all(a <= b for a, b in zip(leaf_counts, leaf_counts[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(trains, trains[1:]))
        assert all(r[3] > 0 for r in rows)

    @pytest.mark.parametrize("holdout_n", [0, -5])
    def test_refuses_an_empty_holdout(self, holdout_n):
        spec = GeneratorSpec("uniform_cube", 1)
        for run in (run_eta_sweep_experiment, run_baseline_comparison):
            with pytest.raises(ValueError, match=f"^holdout_n {holdout_n} must be positive$"):
                run(spec, 64, [0.1], holdout_n=holdout_n)

    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize("holdout_n", [None, 10])
    def test_refuses_a_nonpositive_n_before_the_holdout(self, monkeypatch, n, holdout_n):
        monkeypatch.setattr(experiment, "sample", lambda *_: pytest.fail("sampled first"))
        spec = GeneratorSpec("uniform_cube", 1)
        for run in (run_eta_sweep_experiment, run_baseline_comparison):
            with pytest.raises(ValueError, match=f"^n {n} must be positive$"):
                run(spec, n, [0.1], holdout_n=holdout_n)

    @pytest.mark.parametrize("n, holdout_n, bad", [
        (64.7, None, "n takes an integer, not 64.7"),
        (64.0, None, "n takes an integer, not 64.0"),
        (True, None, "n takes an integer, not True"),
        (64, 100.5, "holdout_n takes an integer, not 100.5"),
        (64, True, "holdout_n takes an integer, not True"),
    ], ids=["n-fraction", "n-whole-float", "n-bool", "holdout-fraction", "holdout-bool"])
    def test_refuses_a_non_integer_before_sampling(self, monkeypatch, n, holdout_n, bad):
        monkeypatch.setattr(experiment, "sample", lambda *_: pytest.fail("sampled first"))
        spec = GeneratorSpec("uniform_cube", 1)
        for run in (run_eta_sweep_experiment, run_baseline_comparison):
            with pytest.raises(TypeError, match=f"^{bad}$"):
                run(spec, n, [0.1], holdout_n=holdout_n)

    def test_numpy_integers_give_the_same_rows(self):
        spec = GeneratorSpec("uniform_cube", 1, seed=9)
        for run in (run_eta_sweep_experiment, run_baseline_comparison):
            assert (run(spec, np.int64(300), [0.5, 0.1], holdout_n=np.int64(600))
                    == run(spec, 300, [0.5, 0.1], holdout_n=600))

    def test_csv_deterministic(self, tmp_path):
        args = (GeneratorSpec("uniform_cube", 1, seed=9), 500, [0.5, 0.1])
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        header = ["eta", "leaf_count", "train_distortion", "holdout_distortion"]
        write_csv(p1, header, run_eta_sweep_experiment(*args, holdout_n=1000))
        write_csv(p2, header, run_eta_sweep_experiment(*args, holdout_n=1000))
        assert p1.read_bytes() == p2.read_bytes()


class TestApproximationTrend:
    def grid_atoms(self, m=256):
        pts = ((np.arange(m) + 0.5) / m)[:, None]
        return DiscreteDistribution(pts, np.full(m, 1.0 / m))

    def test_degenerate_rows_constant(self):
        dist = self.grid_atoms()
        rows, _ = run_approximation_trend(dist, [4.0, 2.0, 1.0])
        errors = {r[1] for r in rows}
        assert len(errors) == 1

    def test_zero_rows_excluded_from_fit(self):
        dist = self.grid_atoms(16)  # isolates at depth 4
        rows, slope = run_approximation_trend(dist, [0.25, 0.06, 1e-8])
        assert rows[-1][1] <= 1e-25
        positive = [(r[0], r[1]) for r in rows if r[1] > 0]
        assert slope == pytest.approx(
            fit_loglog_slope([p[0] for p in positive], [p[1] for p in positive])
        )

    def test_leaf_counts_grow(self):
        rows, _ = run_approximation_trend(self.grid_atoms(), [0.5, 0.1, 0.02, 0.004])
        counts = [r[2] for r in rows]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_csv_deterministic(self, tmp_path):
        rows, _ = run_approximation_trend(self.grid_atoms(), [0.5, 0.1])
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_csv(p1, ["eta", "approx_error", "leaf_count"], rows)
        write_csv(p2, ["eta", "approx_error", "leaf_count"], rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestBaselineComparison:
    def test_matched_sizes_and_determinism(self, tmp_path):
        spec = GeneratorSpec("uniform_cube", 1, seed=2)
        rows = run_baseline_comparison(spec, 512, [1.0, 0.2, 0.05], holdout_n=1000)
        for eta, leaf_count, tree_train, tree_hold, k, km_train, km_hold in rows:
            assert k == leaf_count
            assert tree_train >= 0 and km_train >= 0
            assert tree_hold > 0 and km_hold > 0
        p1, p2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        header = ["eta", "leaf_count", "tree_train", "tree_holdout", "k", "km_train", "km_hold"]
        write_csv(p1, header, run_baseline_comparison(spec, 512, [1.0, 0.2], holdout_n=1000))
        write_csv(p2, header, run_baseline_comparison(spec, 512, [1.0, 0.2], holdout_n=1000))
        assert p1.read_bytes() == p2.read_bytes()


class TestSlopeFit:
    def test_recovers_exact_powerlaw(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**0.75
        assert fit_loglog_slope(x, y) == pytest.approx(0.75, rel=1e-12)

    def test_skips_nonpositive(self):
        assert np.isnan(fit_loglog_slope([1.0, 2.0], [0.0, 0.0]))

    @pytest.mark.parametrize("x, y", [
        ([0.5, 0.5], [1.0, 2.0]),
        ([0.5, 0.5, 0.5], [1.0, 2.0, 3.0]),
        ([0.5, 0.5, -1.0], [1.0, 2.0, 3.0]),
        ([], []),
    ], ids=["two-equal", "three-equal", "equal-after-skip", "empty"])
    def test_coinciding_x_gives_nan_without_a_warning(self, x, y):
        # pytest turns a RuntimeWarning (numpy's 0/0) into an error here.
        assert np.isnan(fit_loglog_slope(x, y))
