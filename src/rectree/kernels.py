"""The hot kernels: Morton codes and their sort, grouped moments and nearest centers.

Conventions:

* points are C-contiguous float64 arrays of shape (n, dim) with every
  coordinate in [0, 1);
* a cell at depth j is addressed by the bit-interleaved (Morton) code of
  its lattice index, which requires depth * dim <= MORTON_BITS = 62 so
  codes fit in a signed 64-bit integer; :func:`default_max_depth` is the
  deepest depth that rule allows in D dimensions (at most 32);
* the code of the enclosing cell at depth j - 1 is ``code >> dim``;
* codes are ordered by :func:`morton_argsort`, a radix sort whose
  permutation is exactly that of ``np.argsort(codes, kind="stable")``.
"""

import numpy as np

BACKEND = "python"
MORTON_BITS = 62


def default_max_depth(dim):
    """Default storage depth cap: 32 per coordinate, scaled down by D."""
    return min(32, MORTON_BITS // dim)


def morton_encode(points, depth):
    """Morton codes of the depth-``depth`` dyadic cells containing each point.

    Multiplying by 2**depth is exact in binary floating point, so the
    lattice index is exactly floor(x * 2**depth) with the half-open cell
    convention.  For dim 1 the code is the lattice index itself; otherwise
    each byte of an index is spread through a 256-entry table, one gather
    per coordinate and byte instead of one pass per coordinate and bit.
    A point outside [0, 1)^dim (NaN included) has a lattice index outside
    0..2**depth - 1 and gets code -1, which no cell has.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, dim = points.shape
    if depth * dim > MORTON_BITS:
        raise ValueError(f"depth {depth} with dim {dim} overflows {MORTON_BITS}-bit Morton codes")
    with np.errstate(invalid="ignore"):  # NaN casts to an index outside the range
        idx = np.floor(points * np.float64(2.0**depth)).astype("<i8")
    if dim == 1:
        codes = idx.reshape(n)
    else:
        codes = np.zeros(n, dtype=np.int64)
        spread = _spread_table(dim)
        index_bytes = idx.view(np.uint8).reshape(n, dim, 8)
        part = np.empty(n, dtype=np.int64)
        for i in range((depth + 7) // 8):
            for k in range(dim):
                np.take(spread << (8 * i * dim + k), index_bytes[:, k, i], out=part)
                codes |= part
    # The spread reads only the low bytes of an index, so an index outside
    # the range (negative, 2**depth or more, a NaN cast) could wrap onto a
    # valid code.  One OR over all indices shows whether any is outside.
    if np.bitwise_or.reduce(idx, axis=None) >> depth:
        codes[(idx >> depth != 0).any(axis=1)] = -1
    return codes


def _spread_table(dim):
    """Bit t of each byte value moved to bit t * dim (bits past MORTON_BITS dropped)."""
    byte = np.arange(256, dtype=np.int64)
    table = np.zeros(256, dtype=np.int64)
    for t in range(min(8, MORTON_BITS // dim + 1)):
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


def morton_argsort(codes, bits):
    """The stable sort of nonnegative codes below 2**bits: ``np.argsort(codes, kind="stable")``.

    A least-significant-digit radix sort (Knuth, TAOCP vol. 3, 5.2.5) in
    max(1, ceil(bits / 16)) passes, linear in n where the comparison sort
    is n log n.  Each pass sorts one 16-bit digit with numpy's stable sort,
    a radix sort for uint16 keys, and composes it onto the order so far.
    Every pass is stable, so codes equal in all digits keep their input
    order and the permutation is the stable sort's, element for element.
    """
    codes = np.asarray(codes, dtype=np.int64)
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    for shift in range(16, bits, 16):
        digit = (codes[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


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

    Centers are ranked per block of points with one matrix product of the
    augmented points [x, 1] and the augmented centers [2c, -|c|**2],
    r_j = 2 x.c_j - |c_j|**2 = |x|**2 - d_j, so the largest r marks the
    nearest center.  Blocks hold about 2**16 scores, and one score buffer
    and one augmented-point buffer serve every block.  A row keeps its
    argmax when the runner-up (the row maximum once the winner is set to
    -inf) lies below the winner by more than :func:`tie_tolerance`, which
    bounds the rounding of both the product form and the direct sum: its
    center is then the unique minimizer of the direct sums, whatever order
    the BLAS adds in.  Rows that are not certified (exact ties, duplicate
    centers, near-ties, a NaN score or tolerance) are searched again over
    all k centers with the direct formula, and ``sqd`` is always the
    direct formula on the chosen center.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    k, dim = centers.shape
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points must be (n, {dim}), got shape {points.shape}")
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    scale = max(np.abs(points).max(initial=0.0), np.abs(centers).max(initial=0.0))
    tol = tie_tolerance(dim, scale)
    weights = np.empty((dim + 1, k))
    np.multiply(centers.T, 2.0, out=weights[:dim])
    weights[dim] = -(centers**2).sum(axis=1)
    # A (block, k) buffer of 2**16 doubles (512 KB): blocks of 2**14 and
    # 2**18 measured slower, and larger ones raise peak memory.
    block = max(1, min(n, (1 << 16) // max(1, k)))
    augmented = np.empty((block, dim + 1))
    augmented[:, dim] = 1.0
    buffer = np.empty((block, k))
    for lo in range(0, n, block):
        m = min(block, n - lo)
        x, r = augmented[:m], buffer[:m]
        x[:, :dim] = points[lo : lo + m]
        np.matmul(x, weights, out=r)
        best = np.argmax(r, axis=1)
        rows = np.arange(m)
        top = r[rows, best]
        r[rows, best] = -np.inf
        # ~(a < b), not a >= b: a NaN score or tolerance sends the row to the direct search.
        ties = np.flatnonzero(~(r.max(axis=1) < top - tol))
        if ties.size:
            d2 = ((points[lo + ties, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            best[ties] = np.argmin(d2, axis=1)
        labels[lo : lo + m] = best
    sqd = ((points - centers[labels]) ** 2).sum(axis=1)
    return labels, sqd


def tie_tolerance(dim, scale):
    """A bound on how far rounding can move a difference of two center scores.

    With every |coordinate| of the points and centers at most ``scale``
    (M), u = 2**-53 and gamma_m = m u / (1 - m u), the standard bounds
    for sums and dot products in any order, with or without fused
    multiply-add (Higham, Accuracy and Stability of Numerical Algorithms,
    sections 3.1 and 4.2), give:

    * the product score r = 2 x.c - |c|**2, the (dim + 1)-term dot
      product of [x, 1] and [2c, -|c|**2]: |c|**2 is off by at most
      gamma_dim dim M**2, doubling is exact, and the product's terms are
      at most 3 dim M**2 (1 + gamma_dim) in absolute sum, so it adds at
      most gamma_(dim + 1) 3 dim M**2 (1 + gamma_dim), and
      |r_hat - r| <= e_r ~ (4 dim + 3) u dim M**2;
    * the direct sum d = sum (x_i - c_i)**2 <= 4 dim M**2: each of its
      nonnegative terms carries at most dim + 2 roundings, so
      |d_hat - d| <= gamma_(dim + 2) d <= e_d ~ 4 (dim + 2) u dim M**2.

    d_j - d_i = r_i - r_j exactly, so if r_hat_i exceeds r_hat_j by more
    than 2 (e_r + e_d) ~ (16 dim + 22) u dim M**2, then d_hat_j > d_hat_i.
    The tolerance 16 (dim + 2) dim M**2 eps (eps = 2u) is 32 (dim + 2)
    u dim M**2: more than that, which also covers the second-order terms
    of gamma and the rounding of ``top - tolerance`` (u 3 dim M**2 for
    |r| <= 3 dim M**2).  The smallest normal double is added for products
    that underflow, whose error is absolute.  A non-finite M gives a
    non-finite tolerance, under which no row is certified.
    """
    double = np.finfo(np.float64)
    return 16.0 * (dim + 2) * dim * scale * scale * double.eps + double.tiny
