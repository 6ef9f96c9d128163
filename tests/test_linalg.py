"""The fraction-free kernel against the retired Fraction eliminations.

Every matrix routine of ``cellres.linalg`` reads its answer off one Bareiss
elimination of an integer matrix; the oracles in ``oracles.py`` are the
Gaussian eliminations over Fractions it replaced.  The drawn rational
matrices reach the kernel with each row scaled to integers, which changes
no rank and no solution and scales the determinant by the known factor;
rational points reach it as homogeneous vectors.  ``kernel_vector`` is
checked against the integer cross product it replaced, which reads the same
Gauss-Jordan form, and against the rational null space.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cellres import homogeneous, linalg
from oracles import (
    affine_basis_by_gram_schmidt,
    bareiss_cross_product,
    fraction_det,
    fraction_nullspace,
    fraction_rank,
    gram_orientation,
)

SMALL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 5]))
HUGE = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**12))
ENTRIES = st.one_of(st.just(0), st.integers(-4, 4), SMALL, HUGE)
COEFFS = st.one_of(st.integers(-3, 3), SMALL, HUGE)


def integer_rows(matrix):
    """Each row times the lcm of its denominators, and the product of those
    (positive) scales."""
    rows, scale = [], 1
    for row in matrix:
        *scaled, d = homogeneous([Fraction(x) for x in row])
        rows.append(scaled)
        scale *= d
    return rows, scale


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Half of them with zero rows and linear combinations of earlier rows
    mixed in, so singular and rank-deficient matrices are common."""
    if nrows is None:
        nrows = draw(st.integers(0, 5))
    if ncols is None:
        ncols = draw(st.integers(0, 5))
    kinds = ["free", "free", "zero", "combination"] if draw(st.booleans()) else ["free"]
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and i > 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(COEFFS), draw(COEFFS)
            rows.append([c * x + d * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append([draw(ENTRIES) for _ in range(ncols)])
    return rows


@st.composite
def square_matrices(draw):
    k = draw(st.integers(0, 5))
    return draw(matrices(nrows=k, ncols=k))


@st.composite
def kernel_problems(draw):
    """(rows, k): integer matrices with k >= 1 columns and of every rank,
    half of them with k - 1 rows, the others with 0 to 6."""
    k = draw(st.integers(1, 5))
    nrows = k - 1 if draw(st.booleans()) else draw(st.integers(0, 6))
    return integer_rows(draw(matrices(nrows=nrows, ncols=k)))[0], k


@st.composite
def point_sets(draw):
    """Points with repeats and affine combinations of earlier points."""
    dim = draw(st.integers(1, 4))
    points = []
    for i in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["free", "free", "repeat", "combination"]))
        if kind == "repeat" and i > 0:
            points.append(points[draw(st.integers(0, i - 1))])
        elif kind == "combination" and i > 1:
            p, q = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = Fraction(draw(COEFFS))
            points.append(tuple(c * x + (1 - c) * y for x, y in zip(points[p], points[q])))
        else:
            points.append(tuple(Fraction(draw(ENTRIES)) for _ in range(dim)))
    return points


@settings(max_examples=300)
@given(matrices())
def test_rank_matches_fraction_elimination(a):
    assert linalg.rank(integer_rows(a)[0]) == fraction_rank(a)


@settings(max_examples=300)
@given(square_matrices())
def test_det_and_sign_match_fraction_elimination(a):
    expected = fraction_det(a)
    m, scale = integer_rows(a)
    assert Fraction(linalg.det(m), scale) == expected
    # against the identity basis, the rows of m are their own coefficients
    identity = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    assert linalg.orientations(identity, [m]) == [(expected > 0) - (expected < 0)]


@settings(max_examples=300)
@given(kernel_problems())
def test_kernel_vector_matches_retired_readers(problem):
    rows, k = problem
    x = linalg.kernel_vector(rows, k)
    if len(rows) == k - 1:
        assert x == bareiss_cross_product(rows, k)
    # rank k - 1 is a one-dimensional null space, which x then spans
    if len(fraction_nullspace(rows, k)) != 1:
        assert x is None
    else:
        assert len(x) == k and all(isinstance(c, int) for c in x) and any(x)
        assert all(sum(a * c for a, c in zip(row, x)) == 0 for row in rows)


@settings(max_examples=300)
@given(point_sets())
def test_affine_basis_matches_gram_schmidt(points):
    chosen = linalg.affine_basis_indices([homogeneous(p) for p in points])
    assert chosen == affine_basis_by_gram_schmidt(points)


INTS = st.integers(-5, 5)


@st.composite
def spans(draw):
    """(basis, families): k independent integer rows in Z^d, k <= d, with
    or without a common factor of 10^15, and families of k integer
    combinations C . basis, some of them with a dependent C."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, d))
    scale = draw(st.sampled_from([1, 1, 10**15]))
    basis = draw(st.lists(st.lists(INTS.map(lambda x: scale * x), min_size=d, max_size=d),
                          min_size=k, max_size=k)
                 .filter(lambda rows: fraction_rank(rows) == k))
    families = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(matrices(nrows=k, ncols=k).map(
            lambda m: [[int(x) for x in row] for row in m]))
        families.append([[sum(c * b[j] for c, b in zip(row, basis)) for j in range(d)]
                         for row in coeffs])
    return basis, families


@settings(max_examples=300)
@given(spans())
def test_orientations_match_gram_rule(drawn):
    basis, families = drawn
    assert linalg.orientations(basis, families) == [
        gram_orientation(basis, vectors) for vectors in families
    ]


def test_orientations_of_dependent_vectors_are_zero():
    basis = [[1, 2, 0, 3], [0, 1, 1, -1], [2, 0, 5, 1]]
    twice = [2 * x for x in basis[0]]
    summed = [x + y for x, y in zip(basis[0], basis[1])]
    assert linalg.orientations(basis, [
        [basis[0], twice, basis[2]],        # two parallel rows
        [basis[0], basis[1], summed],       # a sum of two rows
        [basis[0], [0, 0, 0, 0], basis[2]],  # a zero row
        basis,
        [basis[1], basis[0], basis[2]],
    ]) == [0, 0, 0, 1, -1]
    # a dependent basis orients nothing
    assert linalg.orientations([basis[0], twice], [basis[:2]]) == [0]


def test_kernel_small_cases():
    assert linalg.det([]) == 1 and linalg.orientations([], [[], []]) == [1, 1]
    assert linalg.det([[0, 1], [1, 0]]) == -1
    m, scale = integer_rows([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
    assert Fraction(linalg.det(m), scale) == Fraction(1, 3)
    assert linalg.kernel_vector([], 1) == [1] and linalg.kernel_vector([], 2) is None
    assert linalg.kernel_vector([[0, 2, 4]], 3) is None
    assert linalg.kernel_vector([[0, 2, 4], [1, 0, 0]], 3) == [0, -4, 2]
    # the last pivot is read off the last pivot row, not the last row
    assert linalg.kernel_vector([[1, 1], [2, 2], [3, 3]], 2) == [-1, 1]
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    points = [(1, 1), (2, 2), (3, 3), (0, 1)]
    assert linalg.affine_basis_indices([homogeneous(p) for p in points]) == [0, 1, 3]
