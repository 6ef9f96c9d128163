"""Exact linear algebra over rationals and big integers.

Everything in this package that touches geometry goes through these
helpers; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]


def vec(xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def vec_sub(a, b) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a) -> Vector:
    return tuple(c * x for x in a)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def det(matrix) -> Fraction:
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    m = [list(row) for row in matrix]
    k = len(m)
    if k == 0:
        return Fraction(1)
    result = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, k):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, k):
                    m[r][c] -= factor * m[col][c]
    return result


def det_sign(matrix) -> int:
    d = det(matrix)
    return (d > 0) - (d < 0)


def rank(matrix) -> int:
    """Rank of a matrix (list of row tuples) of Fractions."""
    rows = [list(r) for r in matrix if not is_zero_vec(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                for c in range(col, ncols):
                    rows[i][c] -= factor * rows[r][c]
        r += 1
        if r == len(rows):
            break
    return r


def _bareiss(m, full=False) -> list[int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the pivot columns, one per pivot row 0, 1, ...  Every division
    is exact.  Rows below each pivot are cleared; with ``full`` the rows
    above are cleared too, which leaves every pivot entry equal to the last
    pivot (a fraction-free Gauss-Jordan form).
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
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
    return pivots


def bareiss_rank(matrix) -> int:
    """Rank of an integer matrix via fraction-free Bareiss elimination."""
    return len(_bareiss([list(map(int, row)) for row in matrix]))


def cross_product(vectors, k):
    """Integer vector orthogonal to k-1 integer vectors in Z^k, or None.

    It is the generalized cross product (the signed (k-1)-minors) up to a
    global sign, read off the fraction-free Gauss-Jordan form; None when
    the vectors are linearly dependent.
    """
    m = [list(v) for v in vectors]
    pivots = _bareiss(m, full=True)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    normal = [0] * k
    normal[free] = m[-1][pivots[-1]] if pivots else 1
    for row, c in zip(m, pivots):
        normal[c] = -row[free]
    return normal


def solve(matrix, rhs):
    """Solve A x = b exactly; returns a solution tuple or None if inconsistent.

    When underdetermined, free variables are set to zero.
    """
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    nrows = len(a)
    ncols = len(matrix[0]) if nrows else 0
    piv_cols = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        piv_cols.append(col)
        r += 1
    for i in range(r, nrows):
        if a[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(piv_cols):
        x[col] = a[i][ncols]
    return tuple(x)


def orthogonal_residual(v, basis):
    """Component of v orthogonal to the span of the given vectors."""
    residual = list(vec(v))
    ortho = []
    for b in basis:
        u = list(b)
        for g in ortho:
            coeff = dot(u, g) / dot(g, g)
            u = [x - coeff * y for x, y in zip(u, g)]
        if not is_zero_vec(u):
            ortho.append(u)
    for g in ortho:
        coeff = dot(residual, g) / dot(g, g)
        residual = [x - coeff * y for x, y in zip(residual, g)]
    return tuple(residual)


def affine_basis_indices(points) -> list[int]:
    """Indices of a maximal affinely independent subset, scanning in order.

    The first point is always taken; the result has affine_rank(points)
    entries.
    """
    if not points:
        return []
    chosen = [0]
    directions: list[Vector] = []
    for i in range(1, len(points)):
        d = vec_sub(points[i], points[chosen[0]])
        residual = orthogonal_residual(d, directions)
        if not is_zero_vec(residual):
            directions.append(d)
            chosen.append(i)
    return chosen


def affine_dim(points) -> int:
    return len(affine_basis_indices(points)) - 1 if points else -1


def basis_change_det_sign(basis_from, basis_to) -> int:
    """Sign of det C where columns(basis_from) = columns(basis_to) @ C.

    Both bases must span the same subspace; uses the Gram trick
    det(B^T A) = det(B^T B) det(C) with det(B^T B) > 0.
    """
    g = [[dot(b, a) for a in basis_from] for b in basis_to]
    return det_sign(g)
