"""The hot kernels: Morton codes, grouped moments and nearest centers.

Conventions:

* points are C-contiguous float64 arrays of shape (n, dim) with every
  coordinate in [0, 1);
* a cell at depth j is addressed by the bit-interleaved (Morton) code of
  its lattice index, which requires depth * dim <= 62 so codes fit in a
  signed 64-bit integer;
* the code of the enclosing cell at depth j - 1 is ``code >> dim``.
"""

import numpy as np

BACKEND = "python"


def morton_encode(points, depth):
    """Morton codes of the depth-``depth`` dyadic cells containing each point.

    Multiplying by 2**depth is exact in binary floating point, so the
    lattice index is exactly floor(x * 2**depth) with the half-open cell
    convention.  For dim 1 the code is the lattice index itself; otherwise
    each byte of an index is spread through a 256-entry table, one gather
    per coordinate and byte instead of one pass per coordinate and bit.
    Codes of points outside [0, 1)^dim are unspecified.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, dim = points.shape
    if depth * dim > 62:
        raise ValueError(f"depth {depth} with dim {dim} overflows 62-bit Morton codes")
    idx = np.floor(points * np.float64(2.0**depth)).astype("<i8")
    if dim == 1:
        return idx.reshape(n)
    codes = np.zeros(n, dtype=np.int64)
    spread = _spread_table(dim)
    index_bytes = idx.view(np.uint8).reshape(n, dim, 8)
    part = np.empty(n, dtype=np.int64)
    for i in range((depth + 7) // 8):
        for k in range(dim):
            np.take(spread << (8 * i * dim + k), index_bytes[:, k, i], out=part)
            codes |= part
    return codes


def _spread_table(dim):
    """Bit t of each byte value moved to bit t * dim (bits that cannot fit in 62 dropped)."""
    byte = np.arange(256, dtype=np.int64)
    table = np.zeros(256, dtype=np.int64)
    for t in range(min(8, 62 // dim + 1)):
        table |= ((byte >> t) & 1) << (t * dim)
    return table


def morton_decode(codes, depth, dim):
    """Inverse of :func:`morton_encode`: codes -> (m, dim) lattice indices."""
    codes = np.asarray(codes, dtype=np.int64)
    idx = np.zeros((codes.shape[0], dim), dtype=np.int64)
    for b in range(depth):
        for k in range(dim):
            idx[:, k] |= ((codes >> (b * dim + k)) & 1) << b
    return idx


def group_moments(points, starts):
    """Per-group count, point sum and scatter for contiguous groups of rows.

    ``starts`` holds the first row of each group; groups partition
    ``points`` (rows already ordered by group).  Scatter is the sum of
    squared distances to the group mean ``sums / counts[:, None]``,
    accumulated in a second pass so the result does not suffer the
    cancellation of a sum-of-squares update.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    n = points.shape[0]
    counts = np.diff(np.concatenate([starts, [n]]))
    sums = np.add.reduceat(points, starts, axis=0)
    sq = ((points - np.repeat(sums / counts[:, None], counts, axis=0)) ** 2).sum(axis=1)
    scatters = np.add.reduceat(sq, starts)
    return counts, sums, scatters


def nearest_centers(points, centers):
    """Index of the nearest center per point and the squared distance.

    Ties break toward the lowest center index (argmin semantics).  The
    result is bit-identical to the direct search: argmin over
    ``((x - c) ** 2).sum()`` for every center, with ``sqd`` that sum for
    the chosen one.

    Centers are ranked per block of points with one matrix product,
    s_j = |c_j|**2 - 2 x.c_j (|c|**2 once per call), in blocks of about
    2**16 scores.  A row is certified when every other center's s exceeds
    the row minimum by more than :func:`tie_tolerance`, which bounds the
    rounding of both the product form and the direct sum: its center is
    then the unique minimizer of the direct sums, whatever order the BLAS
    adds in.  Rows that are not certified (exact ties, duplicate centers,
    near-ties) are searched again over all k centers with the direct
    formula, and ``sqd`` is always the direct formula on the chosen
    center.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    n, dim = points.shape
    labels = np.empty(n, dtype=np.int64)
    scale = max(np.abs(points).max(initial=0.0), np.abs(centers).max(initial=0.0))
    tol = tie_tolerance(dim, scale)
    norms = (centers**2).sum(axis=1)
    # A (block, k) temporary of 2**16 doubles (512 KB): blocks of 2**14 and
    # 2**18 measured slower, and larger ones raise peak memory.
    block = max(1, (1 << 16) // max(1, centers.shape[0]))
    for lo in range(0, n, block):
        x = points[lo : lo + block]
        s = x @ centers.T
        s *= -2.0
        s += norms
        best = np.argmin(s, axis=1)
        near = s <= (s.min(axis=1) + tol)[:, None]
        ties = np.flatnonzero(np.count_nonzero(near, axis=1) != 1)
        if ties.size:
            d2 = ((x[ties, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            best[ties] = np.argmin(d2, axis=1)
        labels[lo : lo + x.shape[0]] = best
    sqd = ((points - centers[labels]) ** 2).sum(axis=1)
    return labels, sqd


def tie_tolerance(dim, scale):
    """A bound on how far rounding can move a difference of two center scores.

    With every |coordinate| of the points and centers at most ``scale``
    (M), u = 2**-53 and gamma_m = m u / (1 - m u), the standard bounds
    for sums and dot products in any order, with or without fused
    multiply-add (Higham, Accuracy and Stability of Numerical Algorithms,
    sections 3.1 and 4.2), give:

    * the product score s = |c|**2 - 2 x.c: |c|**2 and x.c are each off
      by at most gamma_dim * dim * M**2, doubling is exact, and the
      final subtraction of values below 3 dim M**2 adds about
      3 u dim M**2, so |s_hat - s| <= e_s ~ 3 (dim + 1) u dim M**2;
    * the direct sum d = sum (x_i - c_i)**2 <= 4 dim M**2: each of its
      nonnegative terms carries at most dim + 2 roundings, so
      |d_hat - d| <= gamma_(dim + 2) d <= e_d ~ 4 (dim + 2) u dim M**2.

    d_j - d_i = s_j - s_i exactly, so if s_hat_j exceeds s_hat_i by more
    than 2 (e_s + e_d) ~ 14 (dim + 2) u dim M**2, then d_hat_j > d_hat_i.
    The tolerance 16 (dim + 2) dim M**2 eps (eps = 2u) is 32 (dim + 2)
    u dim M**2: more than twice that, which also covers the second-order
    terms of gamma and the rounding of ``min + tolerance`` itself.  The
    smallest normal double is added for products that underflow, whose
    error is absolute.  A non-finite M gives a non-finite tolerance,
    under which no row of two or more centers is certified.
    """
    double = np.finfo(np.float64)
    return 16.0 * (dim + 2) * dim * scale * scale * double.eps + double.tiny
