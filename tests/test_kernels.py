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
    assert np.array_equal(sqd, d2.min(axis=1))
    # exact tie: duplicated center rows resolve to the lowest index
    dup = np.vstack([centers[2], centers])
    labels2, _ = impl.nearest_centers(pts, dup)
    assert not np.any(labels2 == 3)  # row 3 duplicates row 0


def broadcast_nearest_centers(points, centers):
    """The direct search: argmin of sum((x - c)**2) over one (block, k, dim) broadcast."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    sqd = np.empty(n, dtype=np.float64)
    block = max(1, min(n, 1 << 22) // max(1, centers.shape[0]))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        d2 = ((points[lo:hi, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels[lo:hi] = np.argmin(d2, axis=1)
        sqd[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
    return labels, sqd


def assert_same_as_broadcast(impl, points, centers):
    labels, sqd = impl.nearest_centers(points, centers)
    ref_labels, ref_sqd = broadcast_nearest_centers(points, centers)
    assert labels.dtype == np.int64 and sqd.dtype == np.float64
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(sqd, ref_sqd, equal_nan=True)


def tie_pair(rng, dim, scale):
    """A point x and a step v with x + v and x - v exact, so both are equally far from x."""
    x = 0.5 + 0.25 * rng.random(dim)  # [0.5, 0.75): multiples of 2**-53
    v = rng.integers(1, 1 << 30, size=dim) * 2.0**-53  # x +- v stays in [0.5 - 2**-23, 0.75)
    power = 2.0 ** np.floor(np.log2(scale))  # scaling by a power of two stays exact
    return x * power, v * power


@given(st.integers(1, 13), st.data())
@settings(max_examples=200, deadline=None)
def test_nearest_centers_matches_broadcast(impl, dim, data):
    # k beyond 2**16 / n spans several blocks of the score temporary.
    k = data.draw(st.one_of(st.integers(1, 40), st.integers(1000, 3000)), label="k")
    n = data.draw(st.integers(0, 100), label="n")
    scale = data.draw(st.sampled_from([1.0, 2.0**-30, 2.0**20, 1e-3, 7.0]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    centers = rng.random((k, dim)) * scale
    points = rng.random((n, dim)) * scale
    # k-means++ can pick the same point twice.
    for dst, src in data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=5)):
        centers[dst] = centers[src]
    if n:
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=5)):
            points[i] = centers[j]
    if n and k >= 2:
        tie = st.tuples(st.integers(0, n - 1), st.integers(0, k - 1), st.integers(0, k - 1))
        for i, a, b in data.draw(st.lists(tie, max_size=5)):
            if a != b:
                x, v = tie_pair(rng, dim, scale)
                points[i], centers[a], centers[b] = x, x + v, x - v
    assert_same_as_broadcast(impl, points, centers)


def test_nearest_centers_exact_ties_take_the_lowest_index(impl):
    # Centers 2i and 2i + 1 sit at x_i + v_i and x_i - v_i.  The direct sums
    # tie exactly; the matrix-product scores of the pair differ by rounding.
    rng = np.random.default_rng(8)
    for dim in (1, 3, 13):
        points = np.empty((400, dim))
        centers = np.empty((800, dim))
        for i in range(400):
            x, v = tie_pair(rng, dim, 1.0)
            points[i], centers[2 * i], centers[2 * i + 1] = x, x + v, x - v
        labels, _ = impl.nearest_centers(points, centers)
        assert np.mean(labels == 2 * np.arange(400)) > 0.9
        assert_same_as_broadcast(impl, points, centers)


def test_nearest_centers_more_centers_than_a_block(impl):
    rng = np.random.default_rng(9)
    centers = rng.random(((1 << 16) + 5, 2))
    points = np.vstack([rng.random((3, 2)), centers[-1], centers[0]])
    assert_same_as_broadcast(impl, points, centers)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nearest_centers_empty_and_non_finite(impl):
    centers = np.array([[0.25, 0.5], [0.75, 0.5], [0.25, 0.5]])
    labels, sqd = impl.nearest_centers(np.empty((0, 2)), centers)
    assert labels.shape == sqd.shape == (0,)
    points = np.array([[0.3, 0.5], [np.inf, 0.5], [np.nan, 0.1], [-np.inf, np.inf], [0.25, 0.5]])
    assert_same_as_broadcast(impl, points, centers)
    assert_same_as_broadcast(impl, points[[0, 4]], np.vstack([centers, [np.nan, 0.0]]))
    assert_same_as_broadcast(impl, points[[0, 4]], np.vstack([centers, [1e200, 0.0]]))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 13, 64, 1000])
@pytest.mark.parametrize("scale", [1.0, 2.0**-40, 3.0e5])
def test_tie_tolerance_covers_both_roundings(impl, dim, scale):
    # Worst-case rounding in any summation order (Higham, sections 3.1 and
    # 4.2) of the score |c|**2 - 2 x.c and of the direct sum of dim squared
    # differences, plus the rounding of ``min + tolerance``.
    u = 2.0**-53

    def gamma(m):
        return m * u / (1 - m * u)

    big = dim * scale**2
    score_err = 3 * gamma(dim) * big + u * 3 * big * (1 + gamma(dim))
    direct_err = gamma(dim + 2) * 4 * big
    tol = impl.tie_tolerance(dim, scale)
    assert tol * (1 - u) - u * 3 * big * (1 + gamma(dim)) > 2 * (score_err + direct_err)
