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

    Ties break toward the lowest center index (argmin semantics).
    Works in blocks to bound the (block, k) temporary.
    """
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
