"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's computation paths: subset
enumeration instead of join closure, inclusion-exclusion and box scans
instead of slicing the staircase, a box scan instead of comparing minimal
generators for the duality witness, graded strand ranks with a local
elimination instead of subcomplex homology, and for the hull the facets of
conv(points) in its affine hull with a Fourier-Motzkin test per face
instead of integer facet enumeration of conv(points) + R_+^n with a
support-cover test, and for refinement and contained faces a containment
solve per pair of a face of X and a face of the simplex, with volumes in
the simplex face's orientation basis, instead of one set of barycentric
coordinates per vertex.  The enumerations the library retired live here
too: the integer Gauss-Jordan solve and cross product that one kernel
vector reader replaced, the lcm of every generator subset for the Scarf faces instead of a
depth-first search, candidate normals on every coordinate subset instead
of the n coordinate facets in closed form, a Gram-Schmidt pass and a scan
over the faces one dimension lower for the dimension, orientation basis
and facets of a face, an orientation basis per face (``oriented_basis``,
and given bases in a map beside the complex) instead of one flip per face
against its pivot basis, Gram matrices of dot products for
orientations and barycenter differences for incidence signs, one
orientation comparison per face of the corner simplex (``same_span_signs``)
instead of signs read off the barycentric coordinates, and for
exactness a subcomplex rebuilt at every lcm-lattice degree with its own
boundary matrices instead of the free complex's signs restricted to the
faces under the degree, and every degree ranked instead of only those
whose subcomplex does not collapse to a vertex, for the intersection rule
of a complex every pair of listed faces instead of the pairs of
non-simplices, for the fundamental
cycle a general algebra of wedge forms, each term sorted by a bubble sort,
instead of one polynomial row per set of used variables, and for d^2 = 0
and the comparison square a product of dense signed-monomial matrices as
polynomial matrices instead of integer sums of incidence signs, the
dense views themselves (``dense_matrix``, ``dense_map``) instead of the
entries the command line writes straight from the sign columns, and for
the residue current its closed form, each top face's label signed by a
Fraction determinant against the corner simplex, instead of the sign
column of the top comparison map, and for the embedded hull each T_i read
back off the lifted hull's corners, a Fraction projection of its vertices
and a comparison of the two face posets, instead of T_i = t^{b_i} - 1 and
one realization on the projected generators.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, lcm


def affine(point):
    """The point x / w of a homogeneous vector (x, w), as Fractions."""
    return tuple(Fraction(x, point[-1]) for x in point[:-1])


def _point(X, v):
    return affine(X.vertex_point(v))


def _face_points(X, fid):
    return [_point(X, v) for v in X.face(fid).vertices]


def subset_lcm_lattice(generators):
    """All joins of nonempty generator subsets, by explicit enumeration."""
    gens = [tuple(g) for g in generators]
    lattice = set()
    for size in range(1, len(gens) + 1):
        for combo in combinations(gens, size):
            lattice.add(tuple(max(col) for col in zip(*combo)))
    return lattice


def multiplicity_by_inclusion_exclusion(generators, box):
    """Volume of the staircase inside the box, via inclusion-exclusion over
    the upward cones of the generators."""
    gens = [tuple(g) for g in generators]
    total = 1
    for b in box:
        total *= b
    covered = 0
    for size in range(1, len(gens) + 1):
        for combo in combinations(gens, size):
            join = tuple(max(col) for col in zip(*combo))
            vol = 1
            for b, j in zip(box, join):
                vol *= max(b - j, 0)
            covered += (-1) ** (size + 1) * vol
    return total - covered


def staircase_lattice_points(generators, box):
    """Exponents in [0, box) whose monomials avoid the ideal, by scanning the
    box; their number is the multiplicity when box is the pure-power vector."""
    gens = [tuple(g) for g in generators]
    points = []
    for beta in product(*(range(b) for b in box)):
        if not any(all(g[i] <= beta[i] for i in range(len(beta))) for g in gens):
            points.append(beta)
    return points


def first_difference_by_box_scan(components, generators, box):
    """First exponent of [0, box], in lexicographic order, whose monomial lies
    in exactly one of the intersection of the ideals (z_1^{a_1}, ...,
    z_n^{a_n}) over the components and the ideal of the generators; None
    when they agree on the whole box."""
    gens = [tuple(g) for g in generators]
    for beta in product(*(range(b + 1) for b in box)):
        in_components = all(
            any(x >= a for x, a in zip(beta, alpha)) for alpha in components
        )
        in_ideal = any(all(g[i] <= beta[i] for i in range(len(beta))) for g in gens)
        if in_components != in_ideal:
            return beta
    return None


def fraction_rank(matrix):
    """Rank by Gaussian elimination over Fractions (the library's retired
    ``linalg.rank``)."""
    rows = [[Fraction(x) for x in r] for r in matrix if any(x != 0 for x in r)]
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


def fraction_det(matrix):
    """Determinant by Gaussian elimination over Fractions (the retired
    ``linalg.det``)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    k = len(m)
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


def fraction_solve(matrix, rhs):
    """A solution of A x = b with free variables 0, or None when
    inconsistent, by Gauss-Jordan over Fractions (the rational solve the
    integer ``bareiss_solve`` once replaced)."""
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
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
    if any(a[i][ncols] != 0 for i in range(r, nrows)):
        return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(piv_cols):
        x[col] = a[i][ncols]
    return tuple(x)


def _bareiss_gauss_jordan(m):
    """The pivot columns of the fraction-free Gauss-Jordan form of an
    integer matrix, made in place: every pivot entry ends equal to the
    last pivot (the retired ``linalg._bareiss(m, full=True)``)."""
    ncols = len(m[0]) if m else 0
    pivots, prev = [], 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top, p = m[r], m[r][col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots


def bareiss_cross_product(vectors, k):
    """Integer vector orthogonal to k-1 integer vectors in Z^k, or None when
    they are dependent, read off the last row of the Gauss-Jordan form (the
    retired ``linalg.cross_product``)."""
    m = [list(v) for v in vectors]
    pivots = _bareiss_gauss_jordan(m)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    normal = [0] * k
    normal[free] = m[-1][pivots[-1]] if pivots else 1
    for row, c in zip(m, pivots):
        normal[c] = -row[free]
    return normal


def bareiss_solve(matrix, rhs):
    """(numerators, d) with d > 0 and x = numerators / d solving A x = b,
    free variables zero, or None when inconsistent, read off the
    Gauss-Jordan form of [A | b] (the retired ``linalg.solve``)."""
    ncols = len(matrix[0]) if matrix else 0
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _bareiss_gauss_jordan(m)
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


def _orthogonal_residual(v, basis):
    """Component of v orthogonal to span(basis), by Gram-Schmidt."""
    residual = [Fraction(x) for x in v]
    ortho = []
    for b in basis:
        u = [Fraction(x) for x in b]
        for g in ortho:
            coeff = _dot(u, g) / _dot(g, g)
            u = [x - coeff * y for x, y in zip(u, g)]
        if any(x != 0 for x in u):
            ortho.append(u)
    for g in ortho:
        coeff = _dot(residual, g) / _dot(g, g)
        residual = [x - coeff * y for x, y in zip(residual, g)]
    return residual


def affine_basis_by_gram_schmidt(points):
    """Indices of a maximal affinely independent subset, scanning in order
    and testing each difference against a Gram-Schmidt basis of the ones
    taken (the retired ``linalg.affine_basis_indices``)."""
    if not points:
        return []
    chosen = [0]
    directions = []
    for i in range(1, len(points)):
        d = [x - y for x, y in zip(points[i], points[0])]
        if any(x != 0 for x in _orthogonal_residual(d, directions)):
            directions.append(d)
            chosen.append(i)
    return chosen


def gram_pivots(X, vertex_sets) -> dict:
    """{vertex set of X's points that is affinely dependent: the vertex ids
    a Gram-Schmidt pass picks in it}, the table of pivots ``make_complex``
    keeps for the faces that are no simplices."""
    picked = {vs: _gram_indices(tuple(X.vertex_point(v) for v in vs)) for vs in vertex_sets}
    return {vs: tuple(vs[i] for i in idx) for vs, idx in picked.items() if len(idx) < len(vs)}


def pivot_basis(X, fid) -> tuple:
    """The basis (q_0 - q_k, ..., q_{k-1} - q_k) of the face fid of X on
    the points q_0 < ... < q_k a Gram-Schmidt pass picks, each direction
    from q to p written w_q x_p - w_p x_q on the homogeneous points; the
    empty basis for the empty face.  It does not read the face's flip."""
    return _pivot_basis_on(tuple(X.vertex_point(v) for v in fid))


# the sign oracles ask for each face's basis once per incidence, and the
# pivot oracles for its pivots once per face, on the complex, its files and
# its reoriented copies, which share their points
@lru_cache(maxsize=1 << 14)
def _gram_indices(points) -> tuple:
    return tuple(affine_basis_by_gram_schmidt([affine(p) for p in points]))


@lru_cache(maxsize=1 << 14)
def _pivot_basis_on(points) -> tuple:
    q = [points[i] for i in _gram_indices(points)]
    return tuple(tuple(q[-1][-1] * a - p[-1] * b for a, b in zip(p[:-1], q[-1][:-1]))
                 for p in q[:-1])


def oriented_basis(X, fid) -> tuple:
    """The orientation basis the face fid of X kept before a face kept only
    its flip: its ``pivot_basis`` with the first vector negated when the
    flip is -1."""
    basis = pivot_basis(X, fid)
    if X.face(fid).flip < 0:
        return (tuple(-x for x in basis[0]),) + basis[1:]
    return basis


class SignedMonomial(namedtuple("SignedMonomial", "sign exp")):
    """An entry sign * z^exp of a dense view; sign 0 is a zero entry."""

    __slots__ = ()


def _dense_view(columns, rows, cols, row_labels, col_labels, n):
    zero = SignedMonomial(0, (0,) * n)
    matrix = [[zero] * len(cols) for _ in rows]
    for j, column in enumerate(columns):
        top = col_labels[cols[j]]
        for i, sign in column.items():
            exp = tuple(a - b for a, b in zip(top, row_labels[rows[i]]))
            matrix[i][j] = SignedMonomial(sign, exp)
    return tuple(tuple(row) for row in matrix)


def dense_matrix(F, k):
    """phi_k of a free complex as a dense matrix of SignedMonomials: entry
    (tau, sigma) is sign * z^{m_sigma - m_tau}, zero entries
    SignedMonomial(0, (0,) * n)."""
    return _dense_view(F.columns[k], F.basis(k - 1), F.basis(k),
                       F.labels, F.labels, F.n)


def dense_map(maps, k):
    """a_k of a chain map as a dense matrix of SignedMonomials, rows read
    off the target's labels and columns off the source's."""
    return _dense_view(maps.columns[k], maps.target.basis(k), maps.source.basis(k),
                       maps.target.labels, maps.source.labels, maps.target.n)


def graded_strand_inexact_degree(free_complex, box):
    """First degree in [0, box] whose graded strand is not exact, or None.

    The strand at beta keeps the basis elements whose label divides z^beta;
    the induced maps are the bare signs.  Exactness at level k >= 0 means
    rank d_k + rank d_{k+1} = dim C_k.
    """
    F = free_complex
    top = F.top
    for beta in product(*(range(b + 1) for b in box)):
        bases = {
            k: [i for i, fid in enumerate(F.basis(k))
                if all(x <= y for x, y in zip(F.labels[fid], beta))]
            for k in range(-1, top + 1)
        }
        ranks = {}
        for k in range(0, top + 1):
            rows = bases[k - 1]
            cols = bases[k]
            phi = dense_matrix(F, k)
            matrix = [[phi[i][j].sign for j in cols] for i in rows]
            ranks[k] = fraction_rank(matrix)
        ranks[top + 1] = 0
        for k in range(0, top + 1):
            if ranks[k] + ranks[k + 1] != len(bases[k]):
                return beta
    return None


def smith_diagonal(matrix):
    """Diagonal of an integer Smith-like form (no divisibility fixup)."""
    m = [list(map(int, row)) for row in matrix]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    diag = []
    r = c = 0
    while r < nrows and c < ncols:
        pivot = None
        best = None
        for i in range(r, nrows):
            for j in range(c, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        while True:
            reduced = False
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    for k in range(c, ncols):
                        m[i][k] -= q * m[r][k]
                    if m[i][c] != 0:
                        m[r], m[i] = m[i], m[r]
                        reduced = True
            for j in range(c + 1, ncols):
                if m[r][j] != 0:
                    q = m[r][j] // m[r][c]
                    for i in range(r, nrows):
                        m[i][j] -= q * m[i][c]
                    if m[r][j] != 0:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        reduced = True
            if not reduced:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return [d for d in diag if d != 0]


def fraction_nullspace(rows, ncols):
    """Basis of the right nullspace, by reduced row echelon form over Q."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        basis.append(v)
    return basis


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _fm_feasible(rows, nvars):
    """Whether some x satisfies every coeffs . x >= rhs, by Fourier-Motzkin."""
    system = [(tuple(Fraction(c) for c in cs), Fraction(rhs)) for cs, rhs in rows]
    for var in range(nvars):
        pos = [(c, r) for c, r in system if c[var] > 0]
        neg = [(c, r) for c, r in system if c[var] < 0]
        new = [(c, r) for c, r in system if c[var] == 0]
        for pc, pr in pos:
            for nc, nr in neg:
                a, b = pc[var], -nc[var]
                new.append((tuple(b * x + a * y for x, y in zip(pc, nc)), b * pr + a * nr))
        seen = {}
        for coeffs, rhs in new:
            scale = next((abs(c) for c in coeffs if c != 0), None)
            if scale is None:
                if rhs > 0:
                    return False
                continue
            key = tuple(c / scale for c in coeffs)
            seen[key] = max(seen.get(key, rhs / scale), rhs / scale)
        system = list(seen.items())
    return all(rhs <= 0 for _, rhs in system)


def _convex_facets(points):
    """{point-index set: inner normal} of the facets of conv(points) inside
    its affine hull."""
    basis = affine_basis_by_gram_schmidt(points)
    d = len(basis) - 1
    origin = points[basis[0]]
    hull_dirs = [[x - y for x, y in zip(points[i], origin)] for i in basis[1:]]
    facets = {}
    for combo in combinations(range(len(points)), d):
        if d == 0 or len(affine_basis_by_gram_schmidt([points[i] for i in combo])) != d:
            continue
        dirs = [[x - y for x, y in zip(points[i], points[combo[0]])] for i in combo[1:]]
        kernel = fraction_nullspace([[_dot(dv, hv) for hv in hull_dirs] for dv in dirs], d)
        if len(kernel) != 1:
            continue
        normal = [_dot(kernel[0], col) for col in zip(*hull_dirs)]
        values = [_dot(normal, p) for p in points]
        level = values[combo[0]]
        if not all(v >= level for v in values):
            if not all(v <= level for v in values):
                continue
            normal = [-x for x in normal]
            values = [-v for v in values]
            level = -level
        facets[frozenset(i for i, v in enumerate(values) if v == level)] = normal
    return facets


def _intersection_closure(sets):
    """The sets and all their nonempty pairwise intersections, repeated."""
    lattice = set(sets)
    frontier = set(lattice)
    while frontier:
        frontier = {a & b for a in frontier for b in lattice} - lattice - {frozenset()}
        lattice |= frontier
    return lattice


def hull_face_sets(generators, t):
    """Sorted point-index tuples of the bounded faces of conv{t^a} + R_+^n.

    A face of conv(points) is bounded when the cone of the inner normals of
    the facets containing it, plus the orthogonal complement of the affine
    hull, holds a strictly positive vector: a Fourier-Motzkin test.
    """
    points = [tuple(Fraction(t) ** a for a in g) for g in generators]
    ambient = len(points[0])
    if len(points) == 1:
        return {(0,)}
    facets = _convex_facets(points)
    basis = affine_basis_by_gram_schmidt(points)
    lineality = fraction_nullspace(
        [[x - y for x, y in zip(points[i], points[basis[0]])] for i in basis[1:]],
        ambient,
    )
    lattice = _intersection_closure({frozenset(range(len(points)))} | set(facets))
    bounded = set()
    for members in lattice:
        gens = [w for fac, w in facets.items() if members <= fac] + lineality
        nvars = len(gens)
        rows = [([g[c] for g in gens], 1) for c in range(ambient)]
        rows += [([int(i == j) for i in range(nvars)], 0)
                 for j in range(nvars - len(lineality))]
        if _fm_feasible(rows, nvars):
            bounded.add(tuple(sorted(members)))
    return bounded


def point_in_simplex(point, simplex_points):
    """Whether the point is a nonnegative affine combination of the simplex
    vertices, by one solve (the retired ``cellcomplex.point_in_simplex``)."""
    rows = [[p[c] for p in simplex_points] for c in range(len(point))]
    rows.append([1] * len(simplex_points))
    coords = fraction_solve(rows, list(point) + [1])
    return coords is not None and all(c >= 0 for c in coords)


def _face_in_simplex(X, fid, simplex_points):
    return all(
        point_in_simplex(_point(X, v), simplex_points)
        for v in X.face(fid).vertices
    )


def _triangulate(X, fid):
    """Simplices decomposing a face: cones from its first vertex over the
    simplices of the facets that miss it."""
    face = X.face(fid)
    if face.dim <= 0 or len(face.vertices) == face.dim + 1:
        return [face.vertices]
    apex = face.vertices[0]
    return [
        (apex,) + s
        for tau in X.facets(fid)
        if apex not in tau
        for s in _triangulate(X, tau)
    ]


def _coords_in_basis(v, basis):
    rows = [[b[c] for b in basis] for c in range(len(v))]
    coords = fraction_solve(rows, list(v))
    if coords is None:
        raise ValueError("vector outside the reference span")
    return coords


def face_volume_rel(X, fid, basis, origin):
    """k-dimensional volume of a face measured in the given reference basis,
    which must span the face's direction space (the retired
    ``cellcomplex.face_volume_rel``)."""
    k = X.face(fid).dim
    if k <= 0:
        return Fraction(1)
    total = Fraction(0)
    for simplex in _triangulate(X, fid):
        p0 = _point(X, simplex[0])
        edges = [
            _coords_in_basis([x - y for x, y in zip(_point(X, v), p0)], basis)
            for v in simplex[1:]
        ]
        total += abs(fraction_det(edges))
    return total / factorial(k)


def pairwise_is_refinement(X, Y):
    """Whether X refines the simplex complex Y, by a containment test per
    pair of a face of X and a face of Y (the retired
    ``cellcomplex.is_refinement``): every vertex inside the top simplex,
    the k-faces inside each k-face of Y filling its volume, and the label
    of every face inside a face of Y dividing that face's label."""
    top = max(Y.faces, key=len)
    top_points = _face_points(Y, top)
    if not all(point_in_simplex(_point(X, v), top_points) for v in X.vertices):
        return False
    for k in range(0, len(top)):
        for sid in Y.faces_of_dim(k):
            spts = _face_points(Y, sid)
            inside = [fid for fid in X.faces_of_dim(k) if _face_in_simplex(X, fid, spts)]
            if k == 0:
                if len(inside) != 1:
                    return False
                continue
            basis = oriented_basis(Y, sid)
            try:
                total = sum(
                    (face_volume_rel(X, fid, basis, spts[0]) for fid in inside),
                    Fraction(0),
                )
            except ValueError:
                return False
            if total != face_volume_rel(Y, sid, basis, spts[0]):
                return False
    for sid, sface in Y.faces.items():
        if sface.dim < 0:
            continue
        spts = _face_points(Y, sid)
        for fid, f in X.faces.items():
            if 0 <= f.dim <= sface.dim and _face_in_simplex(X, fid, spts):
                if any(a > b for a, b in zip(f.label, sface.label)):
                    return False
    return True


def pairwise_contained_faces(Y, sigma_id, X, k):
    """The k-faces of X inside the k-face sigma of the simplex complex Y,
    by a containment solve per face (the retired
    ``cellcomplex.contained_faces``); raises ValueError when that
    disagrees with the test that every vertex label is supported on the
    variables of sigma's pure powers."""
    allowed = {
        i for v in sigma_id for i, e in enumerate(Y.vertex_label(v)) if e > 0
    }
    spts = _face_points(Y, sigma_id)
    result = []
    for fid in X.faces_of_dim(k):
        support_ok = all(
            i in allowed
            for v in fid
            for i, e in enumerate(X.vertex_label(v))
            if e > 0
        )
        if support_ok != _face_in_simplex(X, fid, spts):
            raise ValueError(f"support and geometry disagree on {fid}")
        if support_ok:
            result.append(fid)
    return result


def cofaces(X, tau_id, k):
    """Faces of dimension k having the given (k-1)-face as a facet, by a scan
    over every k-face."""
    if X.face(tau_id).dim != k - 1:
        raise ValueError("coface query needs a face of dimension k-1")
    return [fid for fid in X.faces_of_dim(k) if tau_id in X.facets(fid)]


def _corner_points(X):
    """Per variable i, the point of the first vertex labeled by the smallest
    pure power z_i^{b_i} among the vertex labels."""
    points = []
    for i in range(X.n):
        powers = []
        for v in sorted(X.vertices):
            label = X.vertex_label(v)
            if label[i] == sum(label) > 0:
                powers.append((label[i], v))
        points.append(_point(X, min(powers)[1]))
    return points


def embed_in_simplex(H):
    """The embedding of a hull complex the library retired
    (``simplex.embed_in_simplex``): each T_i read back off H's corner
    z_i^{b_i}, which must lie at 1 + T_i e_i for a positive integer T_i;
    every vertex projected along the line through 1 onto the hyperplane
    sum_i (y_i - 1) / T_i = 1 in Fractions; the complex rebuilt on the
    projected points, which must keep H's face poset; and each top face
    flipped, with its filed incidence signs, whose basis disagrees, by the
    Gram rule, with the corner simplex's (q_0 - q_{n-1}, ...,
    q_{n-2} - q_{n-1}).  The rebuilt faces are unflipped, so a flipped top
    holds flip -1.  Raises ValueError where the library raised."""
    from cellres import LabeledCellComplex, make_complex

    steps = []
    for i, corner in enumerate(_corner_points(H)):
        step = corner[i] - 1
        if step < 1 or step.denominator != 1 or any(
                x != 1 for j, x in enumerate(corner) if j != i):
            raise ValueError(f"corner of z_{i} is not at 1 + T e_{i} for a positive integer T")
        steps.append(step)
    points = {}
    for v in H.vertices:
        x = _point(H, v)
        scale = 1 / sum((xi - 1) / step for xi, step in zip(x, steps))
        y = [1 + scale * (xi - 1) for xi in x]
        w = lcm(*(c.denominator for c in y))
        points[v] = tuple(int(c * w) for c in y) + (w,)
    labels = {v: H.vertex_label(v) for v in H.vertices}
    X = make_complex(H.n, points, labels, [fid for fid in H.faces if len(fid) >= 2])
    # a non-simplex's incidence signs depend on the points: only its facets
    # are the same
    if any(X.facets(fid) != H.facets(fid) for fid in H.faces):
        raise ValueError("projection changed the face poset")
    q = _corner_points(X)
    reference = [[a - b for a, b in zip(p, q[-1])] for p in q[:-1]]
    faces, facet_ids = dict(X.faces), dict(X.facet_ids)
    for fid in X.faces_of_dim(X.dim):
        face = X.face(fid)
        if face.dim >= 1 and gram_orientation(reference, pivot_basis(X, fid)) < 0:
            faces[fid] = face._replace(flip=-1)
            facet_ids[fid] = {tau: -s for tau, s in X.facet_ids[fid].items()}
    return LabeledCellComplex(X.n, X.vertices, faces, facet_ids, X.pivots)


def closed_form_current(X):
    """The residue current in closed form (the retired
    ``residue.residue_current``): {top face: (sign, label)}, the sign that
    of det C for the face's orientation basis written in the corner
    simplex's basis (q_0 - q_{n-1}, ..., q_{n-2} - q_{n-1}), q_i the corner
    points, by a Fraction solve per basis vector.  Raises ValueError for a
    label with a zero exponent."""
    q = _corner_points(X)
    reference = [[x - y for x, y in zip(p, q[-1])] for p in q[:-1]]
    entries = {}
    for fid in X.faces_of_dim(X.n - 1):
        face = X.face(fid)
        det = fraction_det([_coords_in_basis(b, reference) for b in oriented_basis(X, fid)])
        alpha = tuple(map(max, zip(*(X.vertex_label(v) for v in fid))))
        if det == 0 or min(alpha) < 1:
            raise ValueError(f"no closed-form entry for face {fid}")
        entries[fid] = (1 if det > 0 else -1, alpha)
    return entries


def ch_action(c, beta):
    """Action of a current entry on the monomial test coefficient z^beta, in
    units of (2 pi i)^n: the sign when beta is exactly alpha - 1, else zero."""
    beta = tuple(beta)
    if any(x < 0 for x in beta):
        raise ValueError("test exponents must be nonnegative")
    if c.sign == 0:
        return 0
    if beta == tuple(a - 1 for a in c.alpha):
        return c.sign
    return 0


def subset_scan_scarf_faces(generators):
    """Sorted index tuples of the nonempty generator subsets whose lcm no
    other subset shares, from the lcm of all 2^r subsets."""
    gens = [tuple(g) for g in generators]
    by_lcm = {}
    for size in range(1, len(gens) + 1):
        for combo in combinations(range(len(gens)), size):
            key = tuple(max(col) for col in zip(*(gens[i] for i in combo)))
            by_lcm.setdefault(key, []).append(combo)
    return {combos[0] for combos in by_lcm.values() if len(combos) == 1}


def all_k_facet_supports(points):
    """{point-index set: union of normal supports} of the facets of
    conv(points) + R_+^n, from a candidate normal for every coordinate set C
    and every |C| points, the kernel of their differences projected to C
    (the retired scan of ``hull._facet_supports``)."""
    npoints, ambient = len(points), len(points[0])
    facets = {}
    for k in range(1, ambient + 1):
        for coords in combinations(range(ambient), k):
            proj = [tuple(p[i] for i in coords) for p in points]
            for combo in combinations(range(npoints), k):
                base = proj[combo[0]]
                diffs = [[x - y for x, y in zip(proj[j], base)] for j in combo[1:]]
                kernel = fraction_nullspace(diffs, k)
                if len(kernel) != 1:
                    continue
                w = kernel[0]
                if any(x < 0 for x in w):
                    if any(x > 0 for x in w):
                        continue
                    w = [-x for x in w]
                level = _dot(w, base)
                values = [_dot(w, q) for q in proj]
                if min(values) < level:
                    continue
                members = frozenset(j for j, v in enumerate(values) if v == level)
                support = sum(1 << coords[i] for i, x in enumerate(w) if x)
                facets[members] = facets.get(members, 0) | support
    return facets


def bounded_faces_by_closure(facets, ambient):
    """The retired lattice step of ``hull._bounded_face_sets``: from
    {point-index set of a supporting set: bit mask of its normals' support}
    in R^ambient, the sets of the pairwise intersection closure for which
    the supports of the supporting sets containing them, found by a rescan
    of all of them, cover every coordinate."""
    everything = (1 << ambient) - 1
    bounded = set()
    for members in _intersection_closure(facets):
        cover = 0
        for fac, support in facets.items():
            if members <= fac:
                cover |= support
        if cover == everything:
            bounded.add(members)
    return bounded


def all_k_bounded_face_sets(points):
    """Point-index sets of the bounded faces of conv(points) + R_+^n: the
    intersections of the facets of ``all_k_facet_supports`` whose
    containing facets' supports cover every coordinate."""
    if len(points) == 1:
        return {frozenset({0})}
    return bounded_faces_by_closure(all_k_facet_supports(points), len(points[0]))


def _is_geometric_facet(points, sigma, tau):
    """Whether the face with vertex set tau is a facet of the face with
    vertex set sigma: sigma lies weakly on one side of tau's affine hull,
    inside sigma's, and touches it exactly in tau."""
    origin = points[tau[0]]
    tau_dirs = [[x - y for x, y in zip(points[v], origin)] for v in tau[1:]]
    inside = [Fraction(sum(c), len(sigma)) - o
              for c, o in zip(zip(*(points[v] for v in sigma)), origin)]
    normal = _orthogonal_residual(inside, tau_dirs)
    if all(x == 0 for x in normal):
        return False
    values = {v: _dot(normal, [x - y for x, y in zip(points[v], origin)]) for v in sigma}
    return (all(val >= 0 for val in values.values())
            and set(tau) == {v for v, val in values.items() if val == 0})


def scan_face_data(points, face_ids):
    """{face: (dim, orientation basis, facets)} by the rule ``make_complex``
    had: the dimension and the chosen points q_0 < ... < q_k from a
    Gram-Schmidt pass, the basis (q_0 - q_k, ..., q_{k-1} - q_k), and as
    facets the listed faces of one dimension less inside the face, kept
    for a face that is not a simplex when they pass the supporting-flat
    test."""
    dims, bases = {}, {}
    for fid in face_ids:
        pts = [points[v] for v in fid]
        chosen = [pts[i] for i in affine_basis_by_gram_schmidt(pts)]
        dims[fid] = len(chosen) - 1
        bases[fid] = tuple(
            tuple(Fraction(x) - y for x, y in zip(q, chosen[-1])) for q in chosen[:-1]
        )
    data = {}
    for fid in face_ids:
        dim = dims[fid]
        found = [t for t in face_ids if dims[t] == dim - 1 and set(t) < set(fid)]
        if dim == 0:
            found = [()]
        elif len(fid) > dim + 1:
            found = [t for t in found if _is_geometric_facet(points, fid, t)]
        data[fid] = (dim, bases[fid], tuple(sorted(found)))
    return data


def _integer_multiple(vector):
    """The positive multiple of a rational vector by its denominators' lcm."""
    scale = lcm(*(Fraction(x).denominator for x in vector))
    return tuple(int(x * scale) for x in vector)


def given_basis_face_data(points, face_ids, bases):
    """{face: (dim, orientation basis, {facet: incidence sign})} by the rule
    ``make_complex`` had when a complex file gave orientation bases: a face
    keeps its given basis, or else its default one from ``scan_face_data``
    scaled to integers; a simplex files the drop of its j-th vertex with
    (-1)^j eps_sigma eps_tau, eps the orientation of the basis a face keeps
    against its default one, and a face that is no simplex files each facet
    with the side of the facet's hull it lies on, read on the bases kept."""
    data = scan_face_data(points, face_ids)
    kept, eps = {}, {}
    for fid, (dim, default, _) in data.items():
        default = tuple(map(_integer_multiple, default))
        kept[fid] = tuple(map(tuple, bases.get(fid) or default))
        eps[fid] = gram_orientation(default, kept[fid]) if dim > 0 else 1
    result = {}
    for fid, (dim, _, facets) in data.items():
        signs = {}
        for tau in facets:
            if dim == 0:
                signs[tau] = 1
            elif len(fid) == dim + 1:
                j = next(j for j, v in enumerate(fid) if v not in tau)
                signs[tau] = (-1) ** j * eps[fid] * eps[tau]
            else:
                outside = next(v for v in fid if v not in tau)
                eta = [x - y for x, y in zip(points[outside], points[tau[0]])]
                signs[tau] = gram_orientation(kept[fid], [eta, *kept[tau]])
        result[fid] = (dim, kept[fid], signs)
    return result


def all_pairs_intersection_failure(vertex_ids, face_sets):
    """The first two listed faces, in sorted order, whose vertex sets meet in
    a set that is not a listed face, with that set, or None: the check
    ``make_complex`` ran on every pair of faces, simplices included.
    Singleton faces count as listed."""
    listed = sorted({tuple(sorted(f)) for f in face_sets if f} | {(v,) for v in vertex_ids})
    known = set(listed)
    for i, a in enumerate(listed):
        for b in listed[i + 1:]:
            inter = tuple(sorted(set(a) & set(b)))
            if inter and inter not in known:
                return a, b, inter
    return None


def gram_orientation(basis, vectors):
    """The sign of det C for vectors = C . basis, k vectors in the span of
    k independent rows, by the Gram rule ``sign_facet`` and
    ``sign_same_span`` had: det(basis . vectors^T) = det(basis . basis^T)
    det C^T, and the Gram determinant det(basis . basis^T) is positive."""
    det = fraction_det([[_dot(b, v) for v in vectors] for b in basis])
    return (det > 0) - (det < 0)


def gram_sign_facet(X, tau_id, sigma_id, bases=None):
    """Incidence sign of the facet tau of sigma by the Gram rule, with the
    inward direction from tau's first vertex to sigma's first vertex
    outside tau (the rule ``sign_facet`` had), on the bases ``bases`` maps
    the two faces to, by default their ``oriented_basis``."""
    sigma = X.face(sigma_id)
    if sigma.dim == 0:
        return 1
    sigma_basis, tau_basis = (oriented_basis(X, fid) if bases is None else bases[fid]
                              for fid in (sigma_id, tau_id))
    outside = next(v for v in sigma.vertices if v not in tau_id)
    eta = [x - y for x, y in zip(_point(X, outside), _point(X, tau_id[0]))]
    return gram_orientation(sigma_basis, [eta] + list(tau_basis))


def gram_sign_same_span(basis_a, basis_b):
    """Orientation of basis_a against basis_b by the Gram rule (the rule
    ``sign_same_span`` had); both span one subspace, and two empty bases
    agree."""
    return gram_orientation(basis_b, basis_a) if basis_a else 1


def same_span_signs(reference, bases) -> list:
    """Orientation of each basis against the reference basis, for bases
    spanning the reference's subspace: the sign of det C where
    basis = C · reference, all from one ``linalg.orientations`` call; a
    vertex has the empty basis, and sign 1.  The rule the library had
    (``simplex.same_span_signs``) before it read orientations off the
    barycentric coordinates, with its refusals, on bases a face kept."""
    from cellres import PreconditionError, linalg

    if any(len(basis) != len(reference) for basis in bases):
        raise PreconditionError("orientation comparison needs equal dimensions")
    rows = [*reference, *(v for basis in bases for v in basis)]
    if linalg.rank(rows) != len(reference):
        raise PreconditionError("orientation comparison needs equal spans")
    signs = linalg.orientations(reference, list(bases))
    if 0 in signs:
        raise PreconditionError("degenerate orientation basis")
    return signs


def orient_tops_by_same_span(X, bases):
    """X with its top faces flipped as the complex-file reader flipped them
    before orientations were read off the barycentric coordinates, and the
    bases of its faces after the flips: each top face's basis in ``bases``
    against the corner simplex's top face by ``same_span_signs``, the
    opposite ones flipped by ``reoriented`` and their first basis vector
    negated; X and ``bases`` themselves when the tops do not have the
    simplex's dimension or the comparison is refused.  ``bases`` may hold
    any bases, where the library reads a flip of the pivot one."""
    from cellres import InputError, PreconditionError, corner_simplex_complex, reoriented

    if X.dim != X.n - 1:
        return X, bases
    tops = X.faces_of_dim(X.dim)
    try:
        Y = corner_simplex_complex(X)
        reference = oriented_basis(Y, tuple(range(X.n)))
        signs = same_span_signs(reference, [bases[fid] for fid in tops])
    except (InputError, PreconditionError):
        return X, bases
    flipped = {fid for fid, sign in zip(tops, signs) if sign < 0}
    bases = {fid: ((tuple(-x for x in basis[0]),) + basis[1:] if fid in flipped else basis)
             for fid, basis in bases.items()}
    return reoriented(X, flipped), bases


def barycenter_sign_facet(X, tau_id, sigma_id):
    """Incidence sign of the facet tau of sigma with the inward direction
    from tau's barycenter to sigma's (the rule ``sign_facet`` had before
    that direction started at tau's first vertex), by the Gram rule."""
    sigma = X.face(sigma_id)
    if sigma.dim == 0:
        return 1

    def barycenter(fid):
        pts = _face_points(X, fid)
        return [Fraction(sum(c), len(pts)) for c in zip(*pts)]

    eta = [x - y for x, y in zip(barycenter(sigma_id), barycenter(tau_id))]
    return gram_orientation(oriented_basis(X, sigma_id), [eta] + list(oriented_basis(X, tau_id)))


def subcomplex_leq(X, beta):
    """Subcomplex of the faces whose label divides z^beta, rebuilt as a
    complex of X's own type (the retired ``cellcomplex.subcomplex_leq``)."""
    keep = {fid for fid, f in X.faces.items()
            if all(x <= y for x, y in zip(f.label, beta))}
    return type(X)(
        X.n,
        {fid[0]: X.vertices[fid[0]] for fid in keep if len(fid) == 1},
        {fid: X.faces[fid] for fid in keep},
        {fid: X.facet_ids[fid] for fid in keep},
        {fid: pivots for fid, pivots in X.pivots.items() if fid in keep},
    )


def subcomplex_homology_ranks(S):
    """Ranks of reduced rational homology of a complex in degrees -1 .. dim,
    from boundary matrices built for it with barycenter incidence signs."""
    top = max(f.dim for f in S.faces.values())
    levels = {k: sorted(fid for fid, f in S.faces.items() if f.dim == k)
              for k in range(-1, top + 1)}
    ranks = {-1: 0, top + 1: 0}
    for k in range(0, top + 1):
        ranks[k] = fraction_rank([
            [barycenter_sign_facet(S, tau, sigma) if tau in S.facet_ids[sigma] else 0
             for sigma in levels[k]]
            for tau in levels[k - 1]
        ])
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(-1, top + 1)]


def subcomplex_exactness_witness(X, generators):
    """First degree among zero and the joins of the generators, in sorted
    order, whose rebuilt subcomplex has a vertex and nonzero reduced
    homology, or None (the scan ``exactness_witness`` had)."""
    n = len(generators[0])
    for beta in sorted(subset_lcm_lattice(generators) | {(0,) * n}):
        S = subcomplex_leq(X, beta)
        if len(S.faces) > 1 and any(subcomplex_homology_ranks(S)):
            return beta
    return None


def rank_exactness_witness(X):
    """First join of X's vertex labels, in sorted order, where the free
    complex restricted to the faces under it has reduced homology, from the
    ranks of every degree (the scan ``exactness_witness`` had before it
    collapsed each subcomplex first)."""
    from cellres import cellular_complex, lcm_lattice, reduced_homology_ranks

    F = cellular_complex(X)
    for beta in sorted(lcm_lattice([X.vertex_label(v) for v in X.vertices])):
        if any(reduced_homology_ranks(F, beta)):
            return beta
    return None


def argparse_cli_parser():
    """The ``argparse`` parser the command line had (the retired
    ``cli._build_parser``)."""
    import argparse

    from cellres.cli import SUBCOMMANDS

    parser = argparse.ArgumentParser(
        prog="cellres",
        description="Cellular resolutions and residue currents of Artinian "
        "monomial ideals, in exact arithmetic.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--input", help="read the JSON job from a file instead of stdin")
    parser.add_argument(
        "--complex",
        default=None,
        help="complex source: hull, scarf, taylor, or file:<path> (default hull)",
    )
    parser.add_argument("--t", type=int, default=None, help="override the lift base")
    parser.add_argument("--beta", help="exponent vector for annihilator queries")
    parser.add_argument("--order", choices=("P", "Q"), help="partition order")
    parser.add_argument(
        "--permutations",
        help='permutation list for fundamental-cycle, e.g. "1,2;2,1"',
    )
    return parser


class FormMonomial(namedtuple("FormMonomial", "coeff exp dz")):
    """coeff * z^exp * dz_{i_1} ^ ... ^ dz_{i_k} with strictly increasing
    indices; reordering signs are absorbed into the coefficient."""

    __slots__ = ()


class FormMatrix(namedtuple("FormMatrix", "rows cols entries")):
    """A matrix whose entries are tuples of FormMonomials."""

    __slots__ = ()


def form_term(coeff, exp, dz):
    """Canonicalize a wedge term; None when it vanishes."""
    if coeff == 0:
        return None
    indices = list(dz)
    if len(set(indices)) != len(indices):
        return None
    sign = 1
    # bubble sort, counting swaps of the odd-degree factors
    for i in range(len(indices)):
        for j in range(len(indices) - 1 - i):
            if indices[j] > indices[j + 1]:
                indices[j], indices[j + 1] = indices[j + 1], indices[j]
                sign = -sign
    return FormMonomial(sign * coeff, tuple(exp), tuple(indices))


def _combine_forms(terms):
    acc = {}
    for t in terms:
        if t is None:
            continue
        key = (t.exp, t.dz)
        acc[key] = acc.get(key, 0) + t.coeff
    return tuple(
        FormMonomial(c, exp, dz) for (exp, dz), c in sorted(acc.items()) if c != 0
    )


def _form_differential(F, k, only):
    n = F.n
    entries = []
    for row in dense_matrix(F, k):
        out_row = []
        for cell in row:
            terms = []
            if cell.sign != 0:
                for i in range(n):
                    if only is not None and i != only:
                        continue
                    if cell.exp[i] > 0:
                        exp = tuple(e - (j == i) for j, e in enumerate(cell.exp))
                        terms.append(form_term(cell.sign * cell.exp[i], exp, (i,)))
            out_row.append(_combine_forms(terms))
        entries.append(tuple(out_row))
    return FormMatrix(len(entries), len(entries[0]) if entries else 0,
                      tuple(entries))


def differentiate(F, k):
    """Entrywise full differential of the boundary matrix phi_k of F."""
    return _form_differential(F, k, None)


def partial_only(F, k, i):
    """Only the derivative in variable i (0-based) of phi_k."""
    return _form_differential(F, k, i)


def compose(matrices):
    """Matrix product where entries multiply by wedge, left factors first."""
    matrices = list(matrices)
    result = matrices[0]
    for m in matrices[1:]:
        if result.cols != m.rows:
            raise ValueError("form matrix dimensions do not match")
        entries = []
        for i in range(result.rows):
            row = []
            for j in range(m.cols):
                terms = []
                for k in range(result.cols):
                    for a in result.entries[i][k]:
                        for b in m.entries[k][j]:
                            terms.append(form_term(
                                a.coeff * b.coeff,
                                tuple(x + y for x, y in zip(a.exp, b.exp)),
                                a.dz + b.dz,
                            ))
                row.append(_combine_forms(terms))
            entries.append(tuple(row))
        result = FormMatrix(result.rows, m.cols, tuple(entries))
    return result


def wedge_masses(F, R, s=None):
    """Point mass per top face of the composed differentials against the
    residue current R, by the wedge-form algebra (the retired
    ``cycle._contract``): every level differentiated fully when s is None,
    else level k only in z_{s[k]} (1-based).  The mass is the coefficient
    at alpha - 1 on dz_1 ^ ... ^ dz_n, times the entry's sign and (-1)^n."""
    n = F.n
    if s is None:
        factors = [differentiate(F, k) for k in range(n)]
    else:
        factors = [partial_only(F, k, s[k] - 1) for k in range(n)]
    composed = compose(factors)
    parity = -1 if n % 2 else 1
    per_face = {}
    for j, fid in enumerate(F.basis(n - 1)):
        entry = R.entries[fid]
        target = tuple(a - 1 for a in entry.alpha)
        coeff = 0
        for term in composed.entries[0][j]:
            if term.dz == tuple(range(n)) and term.exp == target:
                coeff = term.coeff
        per_face[fid] = parity * entry.sign * coeff
    return per_face


def poly_matmul(a, b):
    """Product of dense signed-monomial matrices (entries with .sign and
    .exp) as polynomial matrices: entries are dicts exponent -> integer
    coefficient with zero coefficients dropped."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    if a and len(a[0]) != inner:
        raise ValueError("matrix dimensions do not match")
    result = [[{} for _ in range(cols)] for _ in a]
    for i, row in enumerate(a):
        for j in range(cols):
            acc = result[i][j]
            for k in range(inner):
                x, y = row[k], b[k][j]
                if x.sign == 0 or y.sign == 0:
                    continue
                e = tuple(p + q for p, q in zip(x.exp, y.exp))
                c = acc.get(e, 0) + x.sign * y.sign
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
    return result


def boundary_squared_failure(F):
    """The first level k whose polynomial product phi_{k-1} phi_k over F's
    dense views is nonzero, or None."""
    for k in range(1, F.top + 1):
        square = poly_matmul(dense_matrix(F, k - 1), dense_matrix(F, k))
        if any(entry for row in square for entry in row):
            return k
    return None


def comparison_square_failure(phi, psi, maps, n):
    """The first (level, row face, column face), by level, row and column,
    where the polynomial products a_{k-1} psi_k and phi_k a_k over the
    dense views differ, or None."""
    for k in range(n):
        lhs = poly_matmul(dense_map(maps, k - 1), dense_matrix(psi, k))
        rhs = poly_matmul(dense_matrix(phi, k), dense_map(maps, k))
        for i, (left, right) in enumerate(zip(lhs, rhs)):
            for j, (x, y) in enumerate(zip(left, right)):
                if x != y:
                    return (k, phi.basis(k - 1)[i], psi.basis(k)[j])
    return None
