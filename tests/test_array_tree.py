"""The array-native tree path against the per-cell reference.

The reference thresholds cell by cell, closes the marked set with
``smallest_subtree``, takes ``outer_leaves`` and looks every leaf up in the
statistics table; the fitted path does the same on sorted Morton-code
arrays.  Both must give the same leaves, the same code vectors bit for
bit, and the same codebook file byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree.reconstruction import (
    CODEBOOK_FORMAT,
    CODEBOOK_VERSION,
    Quantizer,
    quantizer_from_stats,
    save_codebook,
    threshold_subtree,
)
from rectree.stats import Dataset, build_stats
from rectree.tree import cell_to_code, cells_from_codes

from reference_tree import lookup, outer_leaves, smallest_subtree


def reference_leaves(stats, eta, cap):
    """Per-cell path: leaf -> code vector, as the fit path computed it cell by cell."""
    marked = []
    for depth in range(stats.depth_cap if cap is None else min(cap, stats.depth_cap)):
        lv = stats.level(depth)
        marked += cells_from_codes(depth, lv.codes[lv.gains >= eta], stats.dim)
    subtree = smallest_subtree(marked, dim=stats.dim)
    return subtree, {cell: lookup(stats, cell).center for cell in outer_leaves(subtree)}


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


def reference_codebook_bytes(q, codebook) -> bytes:
    """The codebook writer as it was, one leaf at a time."""
    doc = {
        "format": CODEBOOK_FORMAT,
        "version": CODEBOOK_VERSION,
        "dim": q.dim,
        "eta": q.threshold,
        "gamma": q.gamma,
        "beta": q.beta,
        "depth_cap": q.depth_cap,
        "leaves": [
            {
                "depth": cell.depth,
                "index": list(cell.index),
                "code": [float(v) for v in codebook[cell]],
            }
            for cell in sorted(codebook, key=lambda c: (c.depth, c.index))
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def assert_same_quantizer(stats, eta, cap):
    q = quantizer_from_stats(stats, eta, depth_cap=cap)
    subtree, codebook = reference_leaves(stats, eta, cap)
    assert threshold_subtree(stats, eta, cap) == subtree.cells
    assert len(q.leaves) == len(codebook)
    got, want = q.tables(), reference_tables(codebook)
    assert list(got) == list(want)
    for depth in want:
        assert got[depth][0].dtype == want[depth][0].dtype
        assert got[depth][0].tobytes() == want[depth][0].tobytes()
        assert got[depth][1].tobytes() == want[depth][1].tobytes()
    return q, codebook


def assert_same_file(directory, q, codebook):
    path = directory / "codebook.json"
    save_codebook(q, path)
    assert path.read_bytes() == reference_codebook_bytes(q, codebook)


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


@given(datasets(4), st.integers(1, 6), st.floats(0, 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_matches_per_cell_reference(data, cap, quantile, cap_from_table):
    stats = build_stats(data, cap)
    gains = np.concatenate([stats.level(d).gains for d in range(stats.depth_cap)])
    # Thresholds from root-only (above every gain) to full depth (the
    # smallest positive gain), through ties at the gains themselves.
    positive = gains[gains > 0]
    for eta in (1e9, float(np.quantile(gains, quantile, method="lower")) or 1e-300, 1e-300,
                float(positive.min()) if positive.size else 1.0):
        assert_same_quantizer(stats, eta, None if cap_from_table else max(0, cap - 1))


def test_one_cell_subtree_in_13_dimensions(tmp_path):
    rng = np.random.default_rng(5)
    stats = build_stats(Dataset(rng.random((300, 13))), 1)
    q, codebook = assert_same_quantizer(stats, 1e9, 1)
    assert len(q.leaves) == 1 << 13
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
    q = Quantizer.from_tables(2, tables, eta, 7, gamma, beta)
    codebook = {cell: vector for depth, (codes, vectors) in tables.items()
                for cell, vector in zip(cells_from_codes(depth, codes, 2), vectors)}
    assert_same_file(tmp_path, q, codebook)
