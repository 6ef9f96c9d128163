"""The fraction-free kernel against the retired Fraction eliminations.

Every matrix routine of ``cellres.linalg`` reads its answer off one Bareiss
elimination of integer-scaled rows; the oracles in ``oracles.py`` are the
Gaussian eliminations over Fractions it replaced.  Both pick the
lexicographically first pivot columns and set free variables to zero, so
``solve`` must agree tuple for tuple, not only up to the solution space.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cellres import linalg
from oracles import (
    affine_basis_by_gram_schmidt,
    fraction_det,
    fraction_rank,
    fraction_solve,
)

SMALL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 5]))
HUGE = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**12))
ENTRIES = st.one_of(st.just(0), st.integers(-4, 4), SMALL, HUGE)
COEFFS = st.one_of(st.integers(-3, 3), SMALL, HUGE)


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
def systems(draw):
    """(A, b): b is either A x0 for a drawn x0 (consistent) or arbitrary."""
    a = draw(matrices())
    ncols = len(a[0]) if a else 0
    if draw(st.booleans()):
        x0 = [draw(COEFFS) for _ in range(ncols)]
        b = [sum((Fraction(x) * y for x, y in zip(row, x0)), Fraction(0)) for row in a]
    else:
        b = [draw(ENTRIES) for _ in a]
    return a, b


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
    assert linalg.rank(a) == fraction_rank(a)


@settings(max_examples=300)
@given(square_matrices())
def test_det_and_sign_match_fraction_elimination(a):
    expected = fraction_det(a)
    assert linalg.det(a) == expected
    assert linalg.det_sign(a) == (expected > 0) - (expected < 0)


@settings(max_examples=300)
@given(systems())
def test_solve_matches_fraction_elimination(system):
    a, b = system
    x = linalg.solve(a, b)
    assert x == fraction_solve(a, b)
    if x is not None:
        assert all(sum(Fraction(c) * v for c, v in zip(row, x)) == rhs
                   for row, rhs in zip(a, b))


@settings(max_examples=300)
@given(point_sets())
def test_affine_basis_matches_gram_schmidt(points):
    chosen = linalg.affine_basis_indices(points)
    assert chosen == affine_basis_by_gram_schmidt(points)


def test_kernel_small_cases():
    assert linalg.det([]) == 1 and linalg.det_sign([]) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None
    assert linalg.solve([[0, 2, 4]], [2]) == (0, 1, 0)
    assert linalg.solve([], []) == ()
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.affine_basis_indices([(1, 1), (2, 2), (3, 3), (0, 1)]) == [0, 1, 3]
