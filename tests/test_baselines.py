import hashlib

import numpy as np
import pytest

from rectree.baselines import kmeans_distortion, kmeans_fit
from rectree.datagen import GeneratorSpec, sample
from rectree.stats import Dataset, build_stats

from reference_tree import lookup, root_cell


def uniform_data(seed, n, dim):
    return Dataset(np.random.default_rng(seed).random((n, dim)))


class TestKMeansFit:
    def test_k_equals_n_zero_objective(self):
        data = uniform_data(0, 30, 2)
        model = kmeans_fit(data, 30, seed=1)
        assert model.final_objective <= 1e-30

    def test_k_one_is_global_mean(self):
        data = uniform_data(1, 500, 3)
        model = kmeans_fit(data, 1, seed=0)
        np.testing.assert_allclose(model.centers[0], data.points.mean(axis=0), atol=1e-13)
        root_error = lookup(build_stats(data, 1), root_cell(3)).error
        assert abs(model.final_objective - root_error) <= 1e-12 * root_error

    def test_objective_nonincreasing(self):
        for seed in range(10):
            data = uniform_data(seed, 300, 2)
            model = kmeans_fit(data, 8, seed=seed)
            trace = model.objective_trace
            assert all(a >= b for a, b in zip(trace, trace[1:]))
            assert model.iterations_run == len(trace)
            assert model.final_objective == trace[-1]

    def test_deterministic_given_seed(self):
        data = uniform_data(3, 200, 2)
        m1 = kmeans_fit(data, 5, seed=77)
        m2 = kmeans_fit(data, 5, seed=77)
        assert np.array_equal(m1.centers, m2.centers)
        assert m1.objective_trace == m2.objective_trace

    def test_k_bounds(self):
        data = uniform_data(4, 10, 1)
        with pytest.raises(ValueError):
            kmeans_fit(data, 11)
        with pytest.raises(ValueError):
            kmeans_fit(data, 0)

    def test_duplicate_points_do_not_break(self):
        # fewer distinct values than centers exercises the re-seeding path
        pts = np.array([[0.1]] * 5 + [[0.9]] * 5)
        model = kmeans_fit(Dataset(pts), 3, seed=0)
        trace = model.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert model.final_objective <= 1e-30

    def test_golden_swiss_roll(self):
        # Centers and objective trace of the direct-search Lloyd iteration,
        # pinned to the bit.  The points are floored to a 2**-20 grid so that
        # last-place differences of sin/cos between platforms cannot move
        # them, then divided by 3 so that their sums round and the order of
        # every sum stays pinned too.
        points = sample(GeneratorSpec("swiss_roll", 3, seed=0), 1000).points
        model = kmeans_fit(Dataset(np.floor(points * 2.0**20) / (3 * 2.0**19)), 100, seed=0)
        digest = hashlib.sha256(model.centers.tobytes()).hexdigest()
        assert digest == "6aa6ee3d35f5148178a73556fc981e9125671018fb5a18b24efd2fb8a68b3307"
        assert tuple(v.hex() for v in model.objective_trace) == (
            "0x1.b7adeb39fea28p-11", "0x1.49bac040d2c44p-11", "0x1.30036d89a740cp-11",
            "0x1.26b42d922f9ccp-11", "0x1.22074948621ecp-11", "0x1.1fc38833669f2p-11",
            "0x1.1f2e2876786abp-11", "0x1.1e939e1a14c39p-11", "0x1.1e64dbf6f17e1p-11",
            "0x1.1e64dbf6f17e1p-11",
        )


class TestKMeansDistortion:
    def test_training_distortion_is_final_objective(self):
        data = uniform_data(5, 400, 2)
        model = kmeans_fit(data, 6, seed=9)
        assert kmeans_distortion(model, data) == pytest.approx(
            model.final_objective, rel=1e-12
        )

    def test_point_at_center_contributes_zero(self):
        data = uniform_data(6, 50, 2)
        model = kmeans_fit(data, 4, seed=2)
        at_centers = Dataset(model.centers.copy())
        assert kmeans_distortion(model, at_centers) == 0.0

    def test_heldout_k1_matches_uniform_variance(self):
        # Var of U[0,1)^2 is 2/12; Monte-Carlo tolerance on 200k points
        train = uniform_data(7, 2000, 2)
        model = kmeans_fit(train, 1, seed=0)
        holdout = uniform_data(8, 200_000, 2)
        assert kmeans_distortion(model, holdout) == pytest.approx(2 / 12, rel=0.02)
