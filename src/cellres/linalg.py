"""Exact linear algebra over rationals and big integers.

Everything in this package that touches geometry goes through these
helpers; no floating point anywhere.  Every elimination is the one
fraction-free routine ``_bareiss``: rational rows (for ``solve``, the
columns and the right-hand side) are first scaled to integers by the lcm
of their denominators, a positive scale that changes no rank and no
determinant sign, and changes a solution only by the known scales.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _common_denominator(xs):
    """(integers, d): the ints or Fractions xs times the lcm d of their
    denominators."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _integer_rows(matrix):
    """Rows of ints or Fractions scaled to integer rows; also returns the
    product of the (positive) row scales."""
    rows = []
    total = 1
    for row in matrix:
        scaled, d = _common_denominator(row)
        rows.append(scaled)
        total *= d
    return rows, total


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
    """Rank of a matrix (a list of rows) of ints or Fractions."""
    return len(_bareiss(_integer_rows(matrix)[0])[0])


def _scaled_det(matrix):
    """(d, s) with det(matrix) = d / s and s > 0, for a square matrix."""
    m, scale = _integer_rows(matrix)
    pivots, sign = _bareiss(m)
    if len(pivots) < len(m):
        return 0, scale
    return (sign * m[-1][-1] if m else 1), scale


def det(matrix) -> Fraction:
    """Determinant of a square matrix of ints or Fractions."""
    d, scale = _scaled_det(matrix)
    return Fraction(d, scale)


def det_sign(matrix) -> int:
    d = _scaled_det(matrix)[0]
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
    """Solve A x = b exactly; returns a solution tuple or None if inconsistent.

    Column c of A is scaled to integers by the lcm d_c of its denominators
    (the columns are the vectors of a basis or a simplex, each with its own
    denominator) and b as a whole by the lcm e of its own, so no pivot
    carries the denominators of b.  Read off the fraction-free Gauss-Jordan
    form of the scaled [A | b]: x_c is d_c / e times the b entry of the pivot
    row of column c over its pivot, free variables are zero, and the system
    is inconsistent when the b column holds a pivot.
    """
    columns = [_common_denominator(col) for col in zip(*matrix)]
    b, e = _common_denominator(rhs)
    m = [list(row) for row in zip(*(col for col, _ in columns), b)]
    ncols = len(columns)
    pivots = _bareiss(m, full=True)[0]
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[ncols] * columns[c][1], row[c] * e)
    return tuple(x)


def affine_basis_indices(points) -> list[int]:
    """Indices of a maximal affinely independent subset, scanning in order.

    The first point is always taken, then each point whose difference with
    it is independent of the differences taken before: the pivot columns of
    the differences, each scaled to integers, laid out as columns.  The
    result has affine_rank(points) entries.
    """
    if not points:
        return []
    origin = points[0]
    columns = [_common_denominator(vec_sub(p, origin))[0] for p in points[1:]]
    pivots = _bareiss([list(r) for r in zip(*columns)])[0]
    return [0] + [c + 1 for c in pivots]


def basis_change_det_sign(basis_from, basis_to) -> int:
    """Sign of det C where columns(basis_from) = columns(basis_to) @ C.

    Both bases must span the same subspace; uses the Gram trick
    det(B^T A) = det(B^T B) det(C) with det(B^T B) > 0.
    """
    g = [[dot(b, a) for a in basis_from] for b in basis_to]
    return det_sign(g)
