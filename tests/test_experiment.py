import dataclasses

import numpy as np
import pytest

from rectree.datagen import GeneratorSpec, sample, write_csv
from rectree.experiment import (
    RateExperimentConfig,
    RateRow,
    fit_loglog_slope,
    run_approximation_trend,
    run_baseline_comparison,
    run_eta_sweep_experiment,
    run_rate_experiment,
)
from rectree.oracle import DiscreteDistribution
from rectree.reconstruction import RateSchedule, fit


def small_config(**overrides):
    defaults = dict(
        generator=GeneratorSpec("uniform_cube", 1, seed=0),
        n_grid=(128, 256, 512),
        trials=2,
        holdout_n=2000,
        seed=5,
    )
    defaults.update(overrides)
    return RateExperimentConfig(**defaults)


class TestRateExperiment:
    def test_rows_match_schedule(self):
        cfg = small_config()
        result = run_rate_experiment(cfg)
        schedule = RateSchedule(branching=2)
        assert [r.n for r in result.rows] == [128, 256, 512]
        for row in result.rows:
            assert row.eta_n == pytest.approx(schedule.eta_n(row.n), rel=1e-15)
            assert row.j_n == schedule.depth_cap(row.n)
            assert row.holdout_distortion_mean > 0
            assert row.holdout_distortion_std >= 0
        assert np.isfinite(result.fitted_slope)

    def test_deterministic_csv(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        header = [field.name for field in dataclasses.fields(RateRow)]
        for path in (p1, p2):
            rows = [dataclasses.astuple(row) for row in run_rate_experiment(cfg).rows]
            write_csv(path, header, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(n_grid=(256, 128))
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError, match="^n_grid entries must be at least 2$"):
            small_config(n_grid=(1, 4))
        with pytest.raises(ValueError, match="schedule branching 4 does not match dim 1"):
            small_config(schedule=RateSchedule(4))
        with pytest.raises(ValueError, match="^seed -1 must be non-negative$"):
            small_config(seed=-1)
        for holdout_n in (0, -5):
            with pytest.raises(ValueError, match=f"^holdout_n {holdout_n} must be positive$"):
                small_config(holdout_n=holdout_n)

    def test_config_holds_one_schedule(self):
        assert small_config().schedule == RateSchedule(2)
        schedule = RateSchedule(2, gamma=1.2, beta=2.0, threshold_constant=0.7)
        result = run_rate_experiment(small_config(schedule=schedule))
        for row in result.rows:
            assert row.eta_n == schedule.eta_n(row.n) and row.j_n == schedule.depth_cap(row.n)


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
