"""The array-native tree path against the per-cell reference.

The reference thresholds cell by cell, closes the marked set with
``smallest_subtree``, takes ``outer_leaves`` and looks every leaf up in the
statistics table; the fitted path does the same on sorted Morton-code
arrays.  Both must give the same leaves, the same code vectors and the
same train distortion bit for bit, on sample and oracle tables.  The
codebook file that ``save_codebook`` writes must hold the document a
per-leaf writer builds from the reference, and give them back bit for
bit.  The subtree that the table's envelope column gives must be the
``np.union1d`` closure of the marked codes, on sample and oracle tables.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rectree.oracle import DiscreteDistribution, oracle_stats
from rectree.reconstruction import (
    CODEBOOK_FORMAT,
    load_codebook,
    quantizer_from_stats,
    save_codebook,
    threshold_subtree,
)
from rectree.stats import Dataset, build_stats, smallest_subtree as envelope_subtree
from rectree.tree import cell_to_code, cells_from_codes

from reference_tree import (
    ancestors, closure_levels, cube_center, lookup, outer_leaves, quantizer_from_tables,
    smallest_subtree,
)


def reference_leaves(stats, eta, cap):
    """Per-cell path: the subtree, leaf -> code vector and the train distortion, cell by cell."""
    marked = []
    for depth in range(stats.depth_cap if cap is None else min(cap, stats.depth_cap)):
        lv = stats.level(depth)
        marked += cells_from_codes(depth, lv.codes[lv.gains >= eta], stats.dim)
    subtree = smallest_subtree(marked, dim=stats.dim)
    leaves = {cell: lookup(stats, cell) for cell in outer_leaves(subtree)}
    distortion = math.fsum(leaf.error for leaf in leaves.values())  # an empty leaf's E_J is 0
    return subtree, {cell: leaf.center for cell, leaf in leaves.items()}, distortion


def reference_tables(codebook):
    by_depth = {}
    for cell, vector in codebook.items():
        by_depth.setdefault(cell.depth, []).append((cell_to_code(cell), vector))
    tables = {}
    for depth in sorted(by_depth):
        rows = sorted(by_depth[depth], key=lambda row: row[0])
        tables[depth] = (
            np.array([code for code, _ in rows], dtype=np.int64),
            np.array([vector for _, vector in rows]),
        )
    return tables


def reference_codebook_doc(q, codebook) -> dict:
    """The v2 document written leaf by leaf: every strict ancestor of a leaf, and the leaves
    whose code vector is not bit for bit their cube center, each in (depth, index) order."""
    def ordered(cells):
        return sorted(cells, key=lambda c: (c.depth, c.index))

    subtree = ordered({above for cell in codebook for above in ancestors(cell)[1:]})
    listed = ordered(cell for cell, vector in codebook.items()
                     if np.asarray(vector, np.float64).tobytes() != cube_center(cell).tobytes())
    return {"format": CODEBOOK_FORMAT, "version": 2, "dim": q.dim, "eta": q.threshold,
            "gamma": q.gamma, "beta": q.beta, "depth_cap": q.depth_cap,
            "subtree": {"depth": [c.depth for c in subtree],
                        "index": [list(c.index) for c in subtree]},
            "leaves": {"depth": [c.depth for c in listed], "index": [list(c.index) for c in listed],
                       "code": [[float(v) for v in codebook[c]] for c in listed]}}


def assert_same_quantizer(stats, eta, cap):
    q = quantizer_from_stats(stats, eta)
    subtree, codebook, distortion = reference_leaves(stats, eta, cap)
    assert threshold_subtree(stats, eta, cap) == subtree.cells
    assert q.train_distortion == distortion
    assert len(q.starts) == len(codebook)
    got, want = q.tables(), reference_tables(codebook)
    assert list(got) == list(want)
    for depth in want:
        assert got[depth][0].dtype == want[depth][0].dtype
        assert got[depth][0].tobytes() == want[depth][0].tobytes()
        assert got[depth][1].tobytes() == want[depth][1].tobytes()
    return q, codebook


def assert_bit_identical(got, want):
    assert got.dim == want.dim
    for name in ("starts", "depths", "vectors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for name in ("threshold", "depth_cap", "gamma", "beta"):
        assert getattr(got, name) == getattr(want, name)


def assert_same_file(directory, q, codebook):
    """The saved file holds the per-leaf document, loads to ``q`` and saves again unchanged."""
    path, again = directory / "codebook.json", directory / "again.json"
    save_codebook(q, path)
    assert json.loads(path.read_text(encoding="utf-8")) == reference_codebook_doc(q, codebook)
    back = load_codebook(path)
    assert_bit_identical(back, q)
    save_codebook(back, again)
    assert again.read_bytes() == path.read_bytes()


def datasets(max_dim):
    """Points in [0, 1)^D, some on dyadic boundaries and some repeated."""

    @st.composite
    def build(draw):
        dim = draw(st.integers(1, max_dim))
        n = draw(st.integers(1, 120))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        pts = rng.random((n, dim))
        dyadic = rng.random(n) < draw(st.floats(0, 1))
        pts[dyadic] = np.floor(pts[dyadic] * 32) / 32
        pts[rng.random(n) < 0.1] = pts[0]
        return Dataset(pts)

    return build()


def oracle_tables(max_dim):
    """Exact tables of atoms in [0, 1)^D, some on dyadic boundaries and some coincident."""

    @st.composite
    def build(draw):
        data = draw(datasets(max_dim))
        weights = np.random.default_rng(data.n).random(data.n) + 0.1
        return oracle_stats(DiscreteDistribution(data.points, weights / weights.sum()))

    return build()


@given(st.one_of(st.builds(build_stats, datasets(4), st.integers(1, 6)), oracle_tables(3)),
       st.floats(0, 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_matches_per_cell_reference(stats, quantile, cap_from_table):
    # A cap passed explicitly is the table depth: one below it is refused.
    gains = np.concatenate([stats.level(d).gains for d in range(stats.depth_cap)])
    # Thresholds from root-only (above every gain) to full depth (the
    # smallest positive gain), through ties at the gains themselves.
    positive = gains[gains > 0]
    for eta in (1e9, float(np.quantile(gains, quantile, method="lower")) or 1e-300, 1e-300,
                float(positive.min()) if positive.size else 1.0):
        assert_same_quantizer(stats, eta, None if cap_from_table else stats.depth_cap)


@given(st.one_of(st.builds(build_stats, datasets(4), st.integers(1, 6)), oracle_tables(3)))
@settings(max_examples=150, deadline=None)
def test_envelope_subtree_is_the_closure_of_the_marked_cells(stats):
    dim, a = stats.dim, 1 << stats.dim
    levels = [stats.level(d) for d in range(stats.depth_cap + 1)]
    # The envelope is -inf at the table depth and never grows from a parent to a child.
    # Each cell's parent_envelope is its parent's envelope, +inf below the root.
    assert np.all(levels[-1].envelope == -np.inf)
    for depth, (parent, child) in enumerate(zip(levels, levels[1:])):
        assert np.all(parent.envelope >= parent.gains)
        above = parent.envelope[np.searchsorted(parent.codes, child.codes >> dim)]
        assert np.array_equal(child.parent_envelope, np.full_like(above, np.inf) if depth == 0
                              else above)
        assert np.all(child.envelope <= above)
    # Thresholds above every gain, at gains (ties expand) and just either side of them.
    gains = np.unique(np.concatenate([lv.gains for lv in levels[:-1]]))
    gains = gains[gains > 0]
    picked = gains[np.linspace(0, gains.size - 1, min(gains.size, 12)).astype(int)]
    etas = [1e9] + [float(x) for g in picked for x in (np.nextafter(g, 0), g, np.nextafter(g, 2))]
    for eta in etas:
        got = envelope_subtree(stats, eta)
        marked = {d: lv.codes[lv.gains >= eta] for d, lv in enumerate(levels[:-1])}
        want = closure_levels(marked, dim)
        assert len(got) == len(want)
        for mine, ref in zip(got, want):
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref)
        size = sum(codes.shape[0] for codes in got)
        assert len(quantizer_from_stats(stats, eta).starts) == (a - 1) * size + 1


def test_one_cell_subtree_in_13_dimensions(tmp_path):
    rng = np.random.default_rng(5)
    stats = build_stats(Dataset(rng.random((300, 13))), 1)
    q, codebook = assert_same_quantizer(stats, 1e9, 1)
    assert len(q.starts) == 1 << 13
    assert_same_file(tmp_path, q, codebook)


@given(datasets(3), st.floats(0.001, 0.5))
@settings(max_examples=40, deadline=None)
def test_codebook_file_matches_per_leaf_writer(tmp_path_factory, data, eta):
    q, codebook = assert_same_quantizer(build_stats(data, 5), eta, 5)
    assert_same_file(tmp_path_factory.mktemp("cb"), q, codebook)


@pytest.mark.parametrize("eta", [0.1, 5e-324, 1e300])
@pytest.mark.parametrize("gamma, beta", [(None, None), (0.8, 2.5)])
def test_codebook_file_matches_for_edge_values(tmp_path, eta, gamma, beta):
    # Codes need not lie in their cells for the writer: these probe the
    # float formatting (tiny, subnormal, inexact, above 2**53, negative zero).
    tables = {
        1: (np.array([1, 2, 3]), np.array([[1e-300, 5e-324], [1 / 3, 1e17], [-0.0, 0.75]])),
        2: (np.arange(4), np.array([[0.125, -0.0], [1e17, 1 / 3], [5e-324, 1e-300], [0.0, 1.0]])),
    }
    q = quantizer_from_tables(2, tables, eta, 7, gamma, beta)
    codebook = {cell: vector for depth, (codes, vectors) in tables.items()
                for cell, vector in zip(cells_from_codes(depth, codes, 2), vectors)}
    assert_same_file(tmp_path, q, codebook)


@given(datasets(4), st.integers(1, 6), st.floats(0, 1))
@example(Dataset(np.random.default_rng(5).random((300, 13))), 1, 0.5)  # 8192 leaves at eta 1e9
@settings(max_examples=100, deadline=None)
def test_saved_codebook_loads_bit_for_bit(tmp_path_factory, data, cap, quantile):
    # Dyadic and repeated points put some centers of mass on their cube
    # center, so some nonempty leaves are implied by the file too.
    stats = build_stats(data, cap)
    gains = np.concatenate([stats.level(d).gains for d in range(stats.depth_cap)])
    directory = tmp_path_factory.mktemp("cb")
    for eta in (1e9, float(np.quantile(gains, quantile, method="lower")) or 1e-300, 1e-300):
        q = quantizer_from_stats(stats, eta, 0.8, 2.5)
        save_codebook(q, directory / "codebook.json")
        assert_bit_identical(load_codebook(directory / "codebook.json"), q)


@given(datasets(4), st.integers(1, 6), st.floats(0, 1), st.data())
@settings(max_examples=60, deadline=None)
def test_saved_codebook_rows_load_in_any_order(tmp_path_factory, data, cap, quantile, draw):
    # The loader finds each listed leaf by lookup, so a file's row order is
    # free; a repeated leaves row is refused at the later of its two copies.
    stats = build_stats(data, cap)
    gains = np.concatenate([stats.level(d).gains for d in range(stats.depth_cap)])
    q = quantizer_from_stats(stats, float(np.quantile(gains, quantile, method="lower")) or 1e-300,
                             0.8, 2.5)
    path = tmp_path_factory.mktemp("cb") / "codebook.json"
    save_codebook(q, path)
    doc = json.loads(path.read_text())
    for block in ("subtree", "leaves"):
        order = draw.draw(st.permutations(range(len(doc[block]["depth"]))))
        doc[block] = {key: [values[i] for i in order] for key, values in doc[block].items()}
    path.write_text(json.dumps(doc))
    assert_bit_identical(load_codebook(path), q)
    leaves = doc["leaves"]
    if leaves["depth"]:
        i = draw.draw(st.integers(0, len(leaves["depth"]) - 1))
        j = draw.draw(st.integers(0, len(leaves["depth"])))
        for values in leaves.values():
            values.insert(j, values[i])
        later = max(j, i + (j <= i))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_codebook(path)
        assert str(exc.value) == (f"codebook {path}: leaves row {later}: depth "
                                  f"{leaves['depth'][j]} index {leaves['index'][j]} is listed twice")


@pytest.mark.parametrize("dim", [1, 13])
@pytest.mark.parametrize("code", [0.5, 0.3])
def test_single_root_leaf_round_trips(tmp_path, dim, code):
    q = quantizer_from_tables(dim, {0: (np.array([0]), np.full((1, dim), code))}, 0.1, 0)
    path = tmp_path / "codebook.json"
    save_codebook(q, path)
    doc = json.loads(path.read_text())
    assert doc["subtree"] == {"depth": [], "index": []}
    assert len(doc["leaves"]["depth"]) == (code != 0.5)
    assert_bit_identical(load_codebook(path), q)


GOLDEN_V2 = """\
{
  "format": "rectree-codebook",
  "version": 2,
  "dim": 2,
  "eta": 0.1,
  "gamma": 0.8,
  "beta": 2.5,
  "depth_cap": 7,
  "subtree": {"depth": [0, 1], "index": [[0, 0], [0, 0]]},
  "leaves": {"depth": [1, 1, 2, 2], "index": [[0, 1], [1, 1], [1, 0], [1, 1]], \
"code": [[0.3333333333333333, 1e+17], [-0.0, 0.75], [5e-324, 1e-300], [0.375, 0.4]]}
}
"""


def test_codebook_v2_golden_file(tmp_path):
    # Seven leaves under the root and the depth-1 cell at index [0, 0]; the
    # leaves at [1, 0] (depth 1), [0, 0] and [0, 1] (depth 2) hold their
    # cube centers, so the file does not list them.
    tables = {
        1: (np.array([1, 2, 3]), np.array([[0.75, 0.25], [1 / 3, 1e17], [-0.0, 0.75]])),
        2: (np.arange(4), np.array([[0.125, 0.125], [5e-324, 1e-300], [0.125, 0.375], [0.375, 0.4]])),
    }
    q = quantizer_from_tables(2, tables, 0.1, 7, 0.8, 2.5)
    path = tmp_path / "codebook.json"
    save_codebook(q, path)
    assert path.read_text(encoding="utf-8") == GOLDEN_V2
    assert_bit_identical(load_codebook(path), q)
