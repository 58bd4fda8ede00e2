"""Backend agreement and correctness of the hot kernels.

Both backends are checked against brute-force references; when the
compiled extension is present the two backends are also cross-compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree.kernels import _numpy as knp

try:
    from rectree.kernels import _core as kc

    BACKENDS = [knp, kc]
except ImportError:
    kc = None
    BACKENDS = [knp]


def random_case(seed, n=500, dim=2):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    return rng, pts


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 7), (2, 5), (3, 4), (8, 3)])
def test_morton_matches_floor_rule(impl, dim, depth):
    rng = np.random.default_rng(42)
    pts = rng.random((200, dim))
    codes = impl.morton_encode(pts, depth)
    idx = impl.morton_decode(codes, depth, dim)
    assert np.array_equal(idx, np.floor(pts * 2.0**depth).astype(np.int64))


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
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


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
@given(st.integers(1, 4), st.integers(0, 15), st.lists(COORDS, min_size=4, max_size=240))
@settings(max_examples=150, deadline=None)
def test_coarse_code_is_shifted_deep_code(impl, dim, deep, coords):
    # Quantizer.assign encodes once at the deepest leaf depth and shifts.
    pts = np.array(coords[: len(coords) // dim * dim]).reshape(-1, dim)
    deep_codes = impl.morton_encode(pts, deep)
    for depth in range(deep + 1):
        shifted = deep_codes >> (dim * (deep - depth))
        assert np.array_equal(impl.morton_encode(pts, depth), shifted)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
def test_morton_overflow_guard(impl):
    with pytest.raises(ValueError):
        impl.morton_encode(np.zeros((1, 8)), 10)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
def test_group_moments_against_bruteforce(impl):
    rng, pts = random_case(7, n=400, dim=3)
    starts = np.unique(rng.integers(1, 400, size=17))
    starts = np.concatenate([[0], starts]).astype(np.int64)
    counts, means, scatters = impl.group_moments(pts, starts)
    ends = np.concatenate([starts[1:], [400]])
    for g, (lo, hi) in enumerate(zip(starts, ends)):
        assert counts[g] == hi - lo
        np.testing.assert_allclose(means[g], pts[lo:hi].mean(axis=0), rtol=1e-13, atol=1e-15)
        ref = ((pts[lo:hi] - pts[lo:hi].mean(axis=0)) ** 2).sum()
        np.testing.assert_allclose(scatters[g], ref, rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
def test_group_moments_singletons(impl):
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    counts, means, scatters = impl.group_moments(pts, np.array([0, 1]))
    assert np.array_equal(counts, [1, 1])
    assert np.array_equal(means, pts)
    assert np.array_equal(scatters, [0.0, 0.0])


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
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


@pytest.mark.skipif(kc is None, reason="compiled backend not built")
class TestBackendAgreement:
    def test_morton(self):
        rng = np.random.default_rng(0)
        for dim, depth in [(1, 12), (2, 9), (3, 6)]:
            pts = rng.random((1000, dim))
            assert np.array_equal(knp.morton_encode(pts, depth), kc.morton_encode(pts, depth))
            codes = kc.morton_encode(pts, depth)
            assert np.array_equal(
                knp.morton_decode(codes, depth, dim), kc.morton_decode(codes, depth, dim)
            )

    def test_group_moments(self):
        rng, pts = random_case(5, n=2000, dim=3)
        starts = np.concatenate([[0], np.unique(rng.integers(1, 2000, size=60))]).astype(np.int64)
        c1, m1, s1 = knp.group_moments(pts, starts)
        c2, m2, s2 = kc.group_moments(pts, starts)
        assert np.array_equal(c1, c2)
        np.testing.assert_allclose(m1, m2, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(s1, s2, rtol=1e-12, atol=1e-16)

    def test_nearest_centers(self):
        rng, pts = random_case(9, n=1500, dim=3)
        centers = rng.random((11, 3))
        l1, d1 = knp.nearest_centers(pts, centers)
        l2, d2 = kc.nearest_centers(pts, centers)
        assert np.array_equal(l1, l2)
        np.testing.assert_allclose(d1, d2, rtol=1e-12, atol=1e-16)
