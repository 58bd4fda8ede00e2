import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rectree import reconstruction
from rectree.errors import DepthCapError
from rectree.experiment import run_approximation_trend
from rectree.oracle import DiscreteDistribution, oracle_stats
from rectree.reconstruction import decode, quantizer_from_stats, threshold_subtree
from rectree.stats import Dataset, build_stats
from rectree.kernels import default_max_depth
from rectree.tree import CellId

import reference_tree
from reference_tree import (
    Subtree,
    ancestors,
    cell_diameter,
    cells,
    children,
    isolation_depth,
    leaf_count_bound_monitor,
    locate,
    lookup,
    outer_leaves,
    root_cell,
)

TWO_ATOM = DiscreteDistribution(np.array([[0.1], [0.9]]), np.array([0.5, 0.5]))


def oracle_subtree(dist, eta):
    return threshold_subtree(oracle_stats(dist), eta)


def random_distribution(seed, m=16, dim=2):
    rng = np.random.default_rng(seed)
    pts = rng.random((m, dim))
    w = rng.random(m) + 0.1
    return DiscreteDistribution(pts, w / math.fsum(w.tolist()))


def brute_force_population_subtree(dist, eta, search_depth):
    """Literal enumeration of the population subtree definition.

    Collects every nonempty cell to ``search_depth``, computes its gain
    from scratch, selects gains >= eta, and keeps every cell containing a
    selected cell ({root} when none is selected).
    """

    def members(cell):
        return [i for i in range(len(dist.points)) if locate(dist.points[i], cell.depth) == cell]

    def center_mass(cell):
        sel = members(cell)
        mass = math.fsum(float(dist.weights[i]) for i in sel)
        if mass == 0:
            return 0.0, None
        w, x = dist.weights, dist.points
        moments = [[float(w[i] * x[i, k]) for i in sel] for k in range(dist.dim)]
        return mass, np.array([math.fsum(terms) / mass for terms in moments])

    occupied = {locate(point, depth) for point in dist.points for depth in range(search_depth + 1)}
    selected = []
    for cell in occupied:
        if cell.depth >= search_depth:
            continue
        _, c_parent = center_mass(cell)
        gain_sq = 0.0
        for child in children(cell):
            mass, c_child = center_mass(child)
            if mass > 0:
                gain_sq += mass * float(((c_child - c_parent) ** 2).sum())
        if math.sqrt(gain_sq) >= eta:
            selected.append(cell)
    return {root_cell(dist.dim)}.union(*(ancestors(mark) for mark in selected))


class TestDistribution:
    def test_merges_duplicates(self):
        d = DiscreteDistribution(
            np.array([[0.2], [0.2], [0.8]]), np.array([0.25, 0.25, 0.5])
        )
        assert d.points.shape[0] == 2
        assert math.fsum(d.weights.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([[0.2]]), np.array([0.5]))

    @pytest.mark.parametrize("weights", [[1.0], [[0.5], [0.5]]], ids=["short", "2-d"])
    def test_rejects_weights_of_the_wrong_shape(self, weights):
        shape = np.shape(weights)
        with pytest.raises(ValueError) as exc:
            DiscreteDistribution(np.array([[0.2], [0.8]]), np.array(weights))
        assert str(exc.value) == f"2 atoms need one weight each, got shape {shape}"

    def test_isolation_depth(self):
        single = DiscreteDistribution(np.array([[0.4, 0.2]]), np.array([1.0]))
        assert isolation_depth(TWO_ATOM) == 1 and oracle_stats(TWO_ATOM).depth_cap == 2
        assert isolation_depth(single) == 0 and oracle_stats(single).depth_cap == 1


class TestOracleStats:
    def test_two_atom_fixture(self):
        table = oracle_stats(TWO_ATOM)
        root = lookup(table, root_cell(1))
        assert root.error == pytest.approx(0.16, rel=1e-12)
        assert root.gain == pytest.approx(0.4, rel=1e-12)

    def test_table_stops_one_level_past_isolation(self):
        d = DiscreteDistribution(np.array([[0.5], [0.5 + 2.0**-6]]), np.array([0.5, 0.5]))
        assert isolation_depth(d) == 6 and oracle_stats(d).depth_cap == 7
        # Atoms isolated only at the deepest storable depth stop the table there.
        d = DiscreteDistribution(np.array([[0.5], [0.5 + 2.0**-32]]), np.array([0.5, 0.5]))
        table = oracle_stats(d)
        assert isolation_depth(d) == table.depth_cap == default_max_depth(1)
        assert np.array_equal(table.level(table.depth_cap).gains, [0.0, 0.0])

    def test_refuses_a_dim_without_depth_one_cells(self):
        d = DiscreteDistribution(np.full((1, 63), 0.3), np.array([1.0]))
        with pytest.raises(DepthCapError, match="dim 63 has no depth-1 cells"):
            oracle_stats(d)

    def test_single_atom_all_zero_error(self):
        d = DiscreteDistribution(np.array([[0.3, 0.7]]), np.array([1.0]))
        table = oracle_stats(d)
        assert table.depth_cap == 1
        for depth in range(table.depth_cap + 1):
            for _, entry in cells(table, depth):
                assert entry.error <= 1e-30
                assert entry.gain == 0.0

    def test_matches_empirical_on_replicated_data(self):
        rng = np.random.default_rng(0)
        atoms = rng.random((8, 2))
        counts = rng.integers(1, 9, size=8)
        n = int(counts.sum())
        data = Dataset(np.repeat(atoms, counts, axis=0))
        dist = DiscreteDistribution(atoms, counts / n)
        table_o = oracle_stats(dist)
        cap = table_o.depth_cap
        assert cap == isolation_depth(dist) + 1
        table_e = build_stats(data, cap)
        for depth in range(cap + 1):
            lv_o, lv_e = table_o.level(depth), table_e.level(depth)
            assert np.array_equal(lv_o.codes, lv_e.codes)
            np.testing.assert_allclose(lv_o.counts, lv_e.counts / n, atol=1e-15)
            np.testing.assert_allclose(lv_o.centers, lv_e.centers, atol=1e-13)
            np.testing.assert_allclose(lv_o.errors, lv_e.errors, atol=1e-14)
            if depth < cap:
                np.testing.assert_allclose(lv_o.gains, lv_e.gains, atol=1e-13)

    def test_gain_weight_is_child_mass(self):
        # unequal child masses: only the child-mass weighting satisfies the
        # between-within identity E_I - sum_J E_J
        d = DiscreteDistribution(np.array([[0.1], [0.9]]), np.array([0.25, 0.75]))
        table = oracle_stats(d)
        root = lookup(table, root_cell(1))
        child_errors = sum(lookup(table, c).error for c in children(root_cell(1)))
        identity = root.error - child_errors
        assert root.gain**2 == pytest.approx(identity, rel=1e-12)
        c = 0.25 * 0.1 + 0.75 * 0.9
        wrong = 1.0 * ((0.1 - c) ** 2 + (0.9 - c) ** 2)  # parent-mass weighting
        assert abs(wrong - identity) > 0.1

    def test_gain_error_diam_chain(self):
        d = random_distribution(5, m=32, dim=2)
        table = oracle_stats(d)
        for depth in range(table.depth_cap + 1):
            for cell, entry in cells(table, depth):
                assert entry.gain <= math.sqrt(entry.error) + 1e-12
                bound = cell_diameter(cell) * math.sqrt(entry.mass)
                assert math.sqrt(entry.error) <= bound + 1e-12

    def test_telescoping(self):
        d = random_distribution(9, m=24, dim=1)
        table = oracle_stats(d)
        root_error = lookup(table, root_cell(1)).error
        for stop in range(table.depth_cap):
            total = math.fsum(
                float(g**2)
                for depth in range(stop + 1)
                for g in table.level(depth).gains
            )
            residual = math.fsum(float(e) for e in table.level(stop + 1).errors)
            assert total + residual == pytest.approx(root_error, rel=1e-12, abs=1e-15)


class TestOracleSubtree:
    def test_degenerate_eta(self):
        for seed in range(4):
            d = random_distribution(seed, m=20, dim=2)
            assert oracle_subtree(d, 1.0) == {root_cell(2)}

    def test_two_atom_examples(self):
        sub = oracle_subtree(TWO_ATOM, 0.3)
        assert sub == {root_cell(1)}
        assert outer_leaves(Subtree(sub, 1)).leaves == {CellId(1, (0,)), CellId(1, (1,))}

    def test_matches_bruteforce_enumeration(self):
        atoms = np.array([[0.05], [0.30], [0.62], [0.93]])
        d = DiscreteDistribution(atoms, np.full(4, 0.25))
        search = isolation_depth(d) + 2
        for eta in (0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.005):
            expected = brute_force_population_subtree(d, eta, search)
            assert oracle_subtree(d, eta) == expected

    def test_matches_bruteforce_random(self):
        for seed in (1, 2, 3):
            d = random_distribution(seed, m=6, dim=2)
            search = isolation_depth(d) + 2
            for eta in (0.4, 0.15, 0.05):
                expected = brute_force_population_subtree(d, eta, search)
                assert oracle_subtree(d, eta) == expected

    def test_rejects_nonfinite_or_nonpositive_eta(self):
        for eta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and positive"):
                oracle_subtree(TWO_ATOM, eta)


class TestApproximationError:
    def test_degenerate_eta_uses_leaf_partition(self):
        # eta >= 1 keeps {root}, whose outer leaves are the depth-1 cells,
        # so the error is E_root - gain_root^2 (not E_root itself)
        d = random_distribution(13, m=12, dim=1)
        table = oracle_stats(d)
        root = lookup(table, root_cell(1))
        expected = root.error - root.gain**2
        assert quantizer_from_stats(table, 1.5).train_distortion == pytest.approx(
            expected, rel=1e-12
        )

    def test_tiny_eta_isolates(self):
        d = random_distribution(17, m=10, dim=1)
        assert quantizer_from_stats(oracle_stats(d), 1e-9).train_distortion <= 1e-25

    def test_agrees_with_direct_projection(self):
        d = random_distribution(21, m=40, dim=2)
        table = oracle_stats(d)
        for eta in (0.5, 0.1, 0.02):
            q = quantizer_from_stats(table, eta)
            rec = q.reconstruct(d.points)
            direct = math.fsum(
                float(w * ((x - r) ** 2).sum())
                for w, x, r in zip(d.weights, d.points, rec)
            )
            assert quantizer_from_stats(table, eta).train_distortion == pytest.approx(
                direct, rel=1e-12, abs=1e-15
            )

    def test_quantizer_closes_the_subtree_once(self, monkeypatch):
        table = oracle_stats(random_distribution(23, m=64, dim=2))
        calls = []

        def counted(*args):
            calls.append(args[1])
            return subtree(*args)

        subtree = reconstruction.smallest_subtree
        monkeypatch.setattr(reconstruction, "smallest_subtree", counted)
        for eta in (0.3, 0.05, 0.01):
            quantizer_from_stats(table, eta)
        assert calls == [0.3, 0.05, 0.01]

    def test_monitor_rows(self):
        d = random_distribution(23, m=64, dim=1)
        rows = leaf_count_bound_monitor(d, [2.0, 0.2, 0.02, 0.002])
        assert rows[0][1:] == (1, 2)
        sizes = [r[1] for r in rows]
        leaves = [r[2] for r in rows]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert all(a <= b for a, b in zip(leaves, leaves[1:]))
        for _, t, lam in rows:
            assert lam <= t + 1  # (a-1)#T + 1 with a = 2


@st.composite
def grid_distributions(draw):
    """Atoms on a dyadic grid, so exact duplicates occur and are merged."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(1, 10))
    side = draw(st.sampled_from([2, 8, 64]))
    cells = draw(st.lists(st.integers(0, side - 1), min_size=m * dim, max_size=m * dim))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    counts = np.array(draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)), dtype=float)
    points = (np.array(cells, dtype=float).reshape(m, dim) + offset) / side
    return DiscreteDistribution(points, counts / counts.sum())


@st.composite
def separation_cases(draw):
    """Grid atoms (duplicates merged), some with a cluster closer than a grid cell, in any dim."""
    dim = draw(st.sampled_from([1, 2, 3, 31, 62, 63]))
    m = draw(st.integers(1, 8))
    side = draw(st.sampled_from([2, 8, 64, 2**20]))
    cells = draw(st.lists(st.integers(0, side - 1), min_size=m * dim, max_size=m * dim))
    points = (np.array(cells, dtype=float).reshape(m, dim) + 0.5) / side
    gaps = np.array(draw(st.lists(st.integers(10, 45), max_size=4)), dtype=float)
    if gaps.size:  # atoms 2**-gap from the first along one axis, toward the cube's middle
        axis = draw(st.integers(0, dim - 1))
        cluster = np.repeat(points[:1], gaps.size, axis=0)
        cluster[:, axis] += np.where(cluster[:, axis] < 0.5, 1.0, -1.0) * 2.0**-gaps
        points = np.vstack([points, cluster])
    counts = np.array(draw(st.lists(st.integers(1, 5), min_size=len(points),
                                    max_size=len(points))), dtype=float)
    return DiscreteDistribution(points, counts / counts.sum())


def trend_etas(table):
    """Root-only, every distinct positive gain (ties expand), and below the smallest."""
    gains = np.unique(np.concatenate([table.level(d).gains for d in range(table.depth_cap + 1)]))
    gains = gains[gains > 0]
    return [2.0] + gains[::-1].tolist() + ([gains[0] / 2] if gains.size else [])


class TestIsolationDepthFromTheSort:
    """The depth read off the one sort against the reference's loop over depths."""

    @given(separation_cases())
    @example(DiscreteDistribution(np.full((1, 63), 0.3), np.array([1.0])))  # no depth-1 cells
    @example(DiscreteDistribution(np.array([[0.5], [0.5 + 2.0**-32]]), np.array([0.5, 0.5])))
    @settings(max_examples=100, deadline=None)
    def test_cap_matches_the_reference_loop(self, dist):
        try:
            cap = min(isolation_depth(dist) + 1, default_max_depth(dist.dim))
        except DepthCapError as exc:
            with pytest.raises(DepthCapError) as got:
                oracle_stats(dist)
            assert str(got.value) == str(exc)
            return
        if cap < 1:
            with pytest.raises(DepthCapError, match=f"dim {dist.dim} has no depth-1 cells"):
                oracle_stats(dist)
        else:
            assert oracle_stats(dist).depth_cap == cap


class TestArrayLeafErrors:
    """The code-array error sum against one oracle lookup per per-cell leaf."""

    @given(grid_distributions())
    @settings(max_examples=60, deadline=None)
    def test_error_and_leaf_count_match_per_cell_reference(self, dist):
        table = oracle_stats(dist)
        etas = trend_etas(table)
        rows, _ = run_approximation_trend(dist, etas)
        for eta, (row_eta, error, leaf_count) in zip(etas, rows):
            expected = reference_tree.approximation_error_from_table(table, eta)
            assert quantizer_from_stats(table, eta).train_distortion == expected
            assert row_eta == eta and error == expected
            assert leaf_count == len(outer_leaves(Subtree(oracle_subtree(dist, eta), dist.dim)))

    def test_empty_leaves_add_nothing(self):
        # two atoms in one depth-1 quadrant: the other three quadrants are empty leaves
        dist = DiscreteDistribution(np.array([[0.1, 0.1], [0.3, 0.2]]), np.array([0.5, 0.5]))
        table = oracle_stats(dist)
        leaves = outer_leaves(Subtree(oracle_subtree(dist, 2.0), 2))
        assert sum(lookup(table, cell).mass == 0 for cell in leaves) == 3
        assert quantizer_from_stats(table, 2.0).train_distortion == (
            reference_tree.approximation_error_from_table(table, 2.0)
        )
        assert quantizer_from_stats(table, 2.0).train_distortion == (
            lookup(table, root_cell(2)).error
        )


class TestOracleEmpiricalEquivalence:
    def test_subtree_and_codebook_match(self):
        rng = np.random.default_rng(42)
        atoms = rng.random((12, 2))
        counts = rng.integers(1, 6, size=12)
        n = int(counts.sum())
        dist = DiscreteDistribution(atoms, counts / n)
        data = Dataset(np.repeat(atoms, counts, axis=0))
        table_o = oracle_stats(dist)
        table_e = build_stats(data, table_o.depth_cap)
        for eta in (0.7, 0.31, 0.11, 0.042, 0.013):
            sub_o = threshold_subtree(table_o, eta)
            sub_e = threshold_subtree(table_e, eta)
            assert sub_o == sub_e
            q_o = quantizer_from_stats(table_o, eta)
            q_e = quantizer_from_stats(table_e, eta)
            assert set(q_o.leaves) == set(q_e.leaves)
            for cell in q_o.leaves:
                np.testing.assert_allclose(
                    decode(q_o, [cell.depth], [cell.index])[0],
                    decode(q_e, [cell.depth], [cell.index])[0], atol=1e-12
                )


class TestRegularityLaws:
    """Diameter/volume regularity of the dyadic family on uniform mass."""

    def uniform_grid(self, m=256):
        pts = ((np.arange(m) + 0.5) / m)[:, None]
        return DiscreteDistribution(pts, np.full(m, 1.0 / m))

    def test_diameter_tracks_mass_power(self):
        # For uniform mass on dyadic cells, diam(I) = sqrt(D) * mass^(1/D):
        # the depth-free regularity with exponent s = 1/D.
        d1 = self.uniform_grid()
        table = oracle_stats(d1)
        for depth in range(7):
            for cell, entry in cells(table, depth):
                assert cell_diameter(cell) == pytest.approx(
                    entry.mass ** (1.0 / 1), rel=1e-12
                )
        atoms2 = (np.indices((16, 16)).reshape(2, -1).T + 0.5) / 16
        d2 = DiscreteDistribution(atoms2, np.full(256, 1.0 / 256))
        table2 = oracle_stats(d2)
        for depth in range(4):
            for cell, entry in cells(table2, depth):
                assert cell_diameter(cell) == pytest.approx(
                    math.sqrt(2) * entry.mass ** 0.5, rel=1e-12
                )

    def test_leaf_count_growth_slope(self):
        # #leaves ~ eta^(-2/(2s+1)) with s = 1: slope of log(#leaves) against
        # log(1/eta) near 2/3 at bench scale
        d = self.uniform_grid(4096)
        etas = [2.0**-k for k in range(1, 9)]
        rows = leaf_count_bound_monitor(d, etas)
        x = np.log([1.0 / r[0] for r in rows])
        y = np.log([r[2] for r in rows])
        slope = float(np.polyfit(x, y, 1)[0])
        assert 0.45 <= slope <= 0.9
