"""Correctness of the hot kernels against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree import kernels

# Every test takes the kernel module as ``impl``; the one-value
# parametrisation keeps the ``[python]`` suffix of the test ids.
pytestmark = pytest.mark.parametrize("impl", [kernels], ids=[kernels.BACKEND])


def random_case(seed, n=500, dim=2):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    return rng, pts


@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 7), (2, 5), (3, 4), (8, 3)])
def test_morton_matches_floor_rule(impl, dim, depth):
    rng = np.random.default_rng(42)
    pts = rng.random((200, dim))
    codes = impl.morton_encode(pts, depth)
    idx = impl.morton_decode(codes, depth, dim)
    assert np.array_equal(idx, np.floor(pts * 2.0**depth).astype(np.int64))


def test_morton_prefix_nesting(impl):
    rng = np.random.default_rng(3)
    pts = rng.random((300, 2))
    deep = impl.morton_encode(pts, 10)
    for depth in range(10):
        assert np.array_equal(deep >> (2 * (10 - depth)), impl.morton_encode(pts, depth))


def _dyadic(k, j, below):
    """k / 2**j folded into [0, 1), or the largest double below the next such point."""
    point = (k % (1 << j)) / (1 << j)
    return float(np.nextafter(point + 2.0**-j, 0.0)) if below else point


COORDS = st.one_of(
    st.floats(0, 1, exclude_max=True),
    st.builds(_dyadic, st.integers(0, 2**20), st.integers(0, 20), st.booleans()),
)


@given(st.integers(1, 4), st.integers(0, 15), st.lists(COORDS, min_size=4, max_size=240))
@settings(max_examples=150, deadline=None)
def test_coarse_code_is_shifted_deep_code(impl, dim, deep, coords):
    # Quantizer.assign encodes once at the deepest leaf depth and shifts.
    pts = np.array(coords[: len(coords) // dim * dim]).reshape(-1, dim)
    deep_codes = impl.morton_encode(pts, deep)
    for depth in range(deep + 1):
        shifted = deep_codes >> (dim * (deep - depth))
        assert np.array_equal(impl.morton_encode(pts, depth), shifted)


def per_bit_morton_encode(points, depth):
    """The bit-by-bit interleave: bit b of coordinate k goes to bit b * dim + k."""
    idx = np.floor(points * 2.0**depth).astype(np.int64)
    codes = np.zeros(points.shape[0], dtype=np.int64)
    for b in range(depth):
        for k in range(points.shape[1]):
            codes |= ((idx[:, k] >> b) & 1) << (b * points.shape[1] + k)
    return codes


@given(st.integers(1, 13), st.data())
@settings(max_examples=200, deadline=None)
def test_morton_encode_matches_per_bit_oracle(impl, dim, data):
    depth = data.draw(st.integers(0, 62 // dim))
    coords = data.draw(st.lists(COORDS, min_size=dim, max_size=40 * dim))
    pts = np.array(coords[: len(coords) // dim * dim]).reshape(-1, dim)
    # The last double below 1 sets every index bit at every depth.
    pts = np.vstack([pts, np.full((1, dim), np.nextafter(1.0, 0.0)), np.zeros((1, dim))])
    codes = impl.morton_encode(pts, depth)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, per_bit_morton_encode(pts, depth))


def test_morton_overflow_guard(impl):
    with pytest.raises(ValueError):
        impl.morton_encode(np.zeros((1, 8)), 10)


def test_group_moments_against_bruteforce(impl):
    rng, pts = random_case(7, n=400, dim=3)
    starts = np.unique(rng.integers(1, 400, size=17))
    starts = np.concatenate([[0], starts]).astype(np.int64)
    counts, sums, scatters = impl.group_moments(pts, starts)
    assert np.array_equal(sums, np.add.reduceat(pts, starts, axis=0))
    ends = np.concatenate([starts[1:], [400]])
    for g, (lo, hi) in enumerate(zip(starts, ends)):
        assert counts[g] == hi - lo
        mean = pts[lo:hi].mean(axis=0)
        np.testing.assert_allclose(sums[g] / counts[g], mean, rtol=1e-13, atol=1e-15)
        ref = ((pts[lo:hi] - mean) ** 2).sum()
        np.testing.assert_allclose(scatters[g], ref, rtol=1e-11, atol=1e-15)


def test_group_moments_singletons(impl):
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    counts, sums, scatters = impl.group_moments(pts, np.array([0, 1]))
    assert np.array_equal(counts, [1, 1])
    assert np.array_equal(sums, pts)
    assert np.array_equal(scatters, [0.0, 0.0])


def test_nearest_centers_bruteforce_and_ties(impl):
    rng, pts = random_case(11, n=300, dim=2)
    centers = rng.random((7, 2))
    labels, sqd = impl.nearest_centers(pts, centers)
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, np.argmin(d2, axis=1))
    np.testing.assert_allclose(sqd, d2.min(axis=1), rtol=1e-12, atol=1e-300)
    # exact tie: duplicated center rows resolve to the lowest index
    dup = np.vstack([centers[2], centers])
    labels2, _ = impl.nearest_centers(pts, dup)
    assert not np.any(labels2 == 3)  # row 3 duplicates row 0
