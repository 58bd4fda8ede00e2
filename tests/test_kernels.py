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


OUTSIDE = [-2.0**-40, -0.5, 1.0, 1.5, 2.0**40, np.nan, np.inf, -np.inf]


@given(st.integers(1, 13), st.data())
@settings(max_examples=100, deadline=None)
def test_morton_encode_outside_the_cube_is_minus_one(impl, dim, data):
    # The byte spread reads only an index's low bytes: without the range
    # test, x = 1.0 at a depth that is a multiple of 8 wrapped onto index 0.
    depth = data.draw(st.integers(0, 62 // dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((20, dim))
    bad = data.draw(st.lists(st.integers(0, 20 * dim - 1), min_size=1, max_size=5, unique=True))
    pts.reshape(-1)[bad] = [data.draw(st.sampled_from(OUTSIDE)) for _ in bad]
    outside = np.zeros(20 * dim, dtype=bool)
    outside[bad] = True
    outside = outside.reshape(20, dim).any(axis=1)
    codes = impl.morton_encode(pts, depth)
    assert np.all(codes[outside] == -1)
    assert np.array_equal(codes[~outside], per_bit_morton_encode(pts[~outside], depth))


def _stable(codes):
    return np.argsort(codes, kind="stable")


@given(st.integers(0, 62), st.data())
@settings(max_examples=200, deadline=None)
def test_morton_argsort_is_the_stable_sort(impl, bits, data):
    codes = np.array(data.draw(st.lists(st.integers(0, 2**bits - 1), max_size=64)), dtype=np.int64)
    assert np.array_equal(impl.morton_argsort(codes, bits), _stable(codes))


def tied_codes(rng, n, bits):
    """Codes below 2**bits whose every 16-bit digit is one of three values: heavy ties."""
    pools = np.stack([np.zeros(4, np.int64), np.full(4, 0xFFFF), rng.integers(0, 1 << 16, 4)])
    digits = pools[rng.integers(0, 3, (n, 4)), np.arange(4)] << np.arange(0, 64, 16)
    return np.bitwise_or.reduce(digits, axis=1) & ((1 << bits) - 1)


@given(st.integers(0, 62), st.integers(0, 4000), st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_morton_argsort_with_heavy_ties(impl, bits, n, distinct_bits, seed):
    # One to four 16-bit passes; few distinct codes, or codes equal in some digits only.
    rng = np.random.default_rng(seed)
    pool = np.append(rng.integers(0, 1 << bits, 1 << distinct_bits), [0, (1 << bits) - 1])
    for codes in (pool[rng.integers(0, pool.size, n)], tied_codes(rng, n, bits)):
        assert np.array_equal(impl.morton_argsort(codes, bits), _stable(codes))


@pytest.mark.parametrize("dim,depths", [(1, [0, 16, 27, 62]), (3, [0, 5, 9, 20]), (13, [1, 4])])
def test_morton_argsort_of_encoded_points(impl, dim, depths):
    # Repeated points tie at every depth.
    pts = np.random.default_rng(dim).random((3000, dim))
    pts = np.vstack([pts, pts[:500]])
    for depth in depths:
        codes = impl.morton_encode(pts, depth)
        assert np.array_equal(impl.morton_argsort(codes, dim * depth), _stable(codes))


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


def tie_rows(rng, dim, rows=400):
    """Point i with centers 2i and 2i + 1 at x_i + v_i and x_i - v_i.

    The direct sums of each pair tie exactly; the matrix-product scores of
    the pair differ by rounding.
    """
    points = np.empty((rows, dim))
    centers = np.empty((2 * rows, dim))
    for i in range(rows):
        x, v = tie_pair(rng, dim, 1.0)
        points[i], centers[2 * i], centers[2 * i + 1] = x, x + v, x - v
    return points, centers


def test_nearest_centers_exact_ties_take_the_lowest_index(impl):
    rng = np.random.default_rng(8)
    for dim in (1, 3, 13):
        points, centers = tie_rows(rng, dim)
        labels, _ = impl.nearest_centers(points, centers)
        assert np.mean(labels == 2 * np.arange(400)) > 0.9
        assert_same_as_broadcast(impl, points, centers)


def test_nearest_centers_nan_tolerance_certifies_no_row(impl):
    # One NaN point makes the scale, and so the tolerance, NaN.  Every row
    # must then go to the direct search, tie pairs included; a certificate
    # that passes on NaN keeps the product's rounding-chosen winners.
    rng = np.random.default_rng(8)
    for dim in (1, 3, 13):
        points, centers = tie_rows(rng, dim)
        points = np.vstack([points, np.full(dim, np.nan)])
        assert np.isnan(impl.tie_tolerance(dim, np.nan))
        assert_same_as_broadcast(impl, points, centers)


@pytest.mark.parametrize("k", [36, 148, 420])
def test_nearest_centers_at_the_benchmark_shapes(impl, k):
    # baseline_kmeans holds out 10 n = 20480 points in D = 3 at k of about
    # 36, 148 and 420: many blocks of the reused buffers, the last partial.
    rng = np.random.default_rng(k)
    points = rng.random((20480, 3))
    centers = points[rng.choice(20480, k, replace=False)].copy()
    centers[rng.integers(0, k, 8)] = centers[rng.integers(0, k, 8)]  # k-means++ repeats
    points[rng.integers(0, 20480, 200)] = centers[rng.integers(0, k, 200)]
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
    # 4.2) of the score 2 x.c - |c|**2, the (dim + 1)-term product of
    # [x, 1] and [2c, -|c|**2], and of the direct sum of dim squared
    # differences, plus the rounding of ``top - tolerance``.
    u = 2.0**-53

    def gamma(m):
        return m * u / (1 - m * u)

    big = dim * scale**2
    norm_err = gamma(dim) * big
    score_err = norm_err + gamma(dim + 1) * 3 * big * (1 + gamma(dim))
    direct_err = gamma(dim + 2) * 4 * big
    score_max = 3 * big * (1 + gamma(dim)) * (1 + gamma(dim + 1))  # bounds |r_hat|
    tol = impl.tie_tolerance(dim, scale)
    # A certified runner-up has second < fl(top - tol) <= top - tol + u (|top| + tol).
    assert tol * (1 - u) - u * score_max > 2 * (score_err + direct_err)
