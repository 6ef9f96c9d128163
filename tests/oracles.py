"""Independent brute-force oracles for the test suite.

Each oracle reaches its answer another way than the library: subset
enumeration instead of join closure, box scans and inclusion-exclusion
instead of staircase slicing, Fraction elimination and Gram-Schmidt
instead of the integer Bareiss kernel, the facets of conv(points) with a
Fourier-Motzkin test instead of integer facet enumeration, containment
solves and volumes per pair of faces instead of barycentric supports,
rebuilt subcomplexes and every degree ranked instead of a collapse, and
wedge forms and dense polynomial matrices instead of sign columns.

``SignOracle`` is the one sign oracle: every facet incidence sign, flip,
orientation against the corner simplex and top flip of a complex, from
its vertex points, its face sets and bases it carries itself, by Gram
determinants.  An oracle imports from ``cellres`` only records and errors
(``LabeledCellComplex``, the error classes, ``cli.SUBCOMMANDS``), never
the code it checks; ``test_oracles`` holds it to that.
"""

from collections import namedtuple
from copy import copy
from fractions import Fraction
from functools import cached_property, lru_cache
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


# the sign oracle asks again for the pivots of a complex's faces on its
# files, its reoriented copies and their subcomplexes, which share points
@lru_cache(maxsize=1 << 14)
def _gram_indices(points) -> tuple:
    return tuple(affine_basis_by_gram_schmidt([affine(p) for p in points]))


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
    bases = sign_oracle(Y).bases
    for k in range(0, len(top)):
        for sid in Y.faces_of_dim(k):
            spts = _face_points(Y, sid)
            inside = [fid for fid in X.faces_of_dim(k) if _face_in_simplex(X, fid, spts)]
            if k == 0:
                if len(inside) != 1:
                    return False
                continue
            basis = bases[sid]
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


def _corner_vertices(n, labels):
    """Per variable i, the first vertex labeled by the smallest pure power
    z_i^{b_i} among the labels {vertex: label}, or None when a variable
    has no pure power."""
    corners = []
    for i in range(n):
        powers = [(label[i], v) for v, label in sorted(labels.items())
                  if label[i] == sum(label) > 0]
        if not powers:
            return None
        corners.append(min(powers)[1])
    return corners


Face = namedtuple("Face", "vertices dim label flip")


def embed_in_simplex(H):
    """The embedding of a hull complex the library retired
    (``simplex.embed_in_simplex``): each T_i read back off H's corner
    z_i^{b_i}, which must lie at 1 + T_i e_i for a positive integer T_i;
    every vertex projected along the line through 1 onto the hyperplane
    sum_i (y_i - 1) / T_i = 1 in Fractions; and the faces, pivots, flips
    and signs of the sign oracle on the projected points after its top
    flip, whose facets must be H's.  Raises ValueError where the library
    raised."""
    from cellres import LabeledCellComplex

    corners = _corner_vertices(H.n, {v: H.vertex_label(v) for v in H.vertices})
    if corners is None:
        raise ValueError("the vertex labels miss a pure power")
    steps = []
    for i, v in enumerate(corners):
        corner = _point(H, v)
        step = corner[i] - 1
        if step < 1 or step.denominator != 1 or any(
                x != 1 for j, x in enumerate(corner) if j != i):
            raise ValueError(f"corner of z_{i} is not at 1 + T e_{i} for a positive integer T")
        steps.append(step)
    vertices = {}
    for v in H.vertices:
        x = _point(H, v)
        scale = 1 / sum((xi - 1) / step for xi, step in zip(x, steps))
        y = [1 + scale * (xi - 1) for xi in x]
        w = lcm(*(c.denominator for c in y))
        vertices[v] = (tuple(int(c * w) for c in y) + (w,), H.vertex_label(v))
    O = SignOracle(H.n, vertices, H.faces)
    # a non-simplex's incidence signs depend on the points: only its facets
    # are the same
    if any(O.facets[fid] != H.facets(fid) for fid in H.faces):
        raise ValueError("projection changed the face poset")
    O = O.oriented_tops()
    flips = O.flips()
    faces = {fid: Face(fid, dim, tuple(map(max, zip(*(vertices[v][1] for v in fid)))) if fid
                       else (0,) * H.n, flips[fid])
             for fid, dim in O.dims.items()}
    return LabeledCellComplex(H.n, vertices, faces, O.facet_ids(), O.pivot_table())


def closed_form_current(X):
    """The residue current in closed form (the retired
    ``residue.residue_current``): {top face: (sign, label)}, the sign that
    of det C for the basis the face's flip names (``oriented_oracle``)
    written in the corner simplex's basis (q_0 - q_{n-1}, ...,
    q_{n-2} - q_{n-1}), q_i the corner points, by a Fraction solve per
    basis vector.  Raises ValueError for a label with a zero exponent."""
    O = oriented_oracle(X)
    q = [affine(p) for p in O.corners]
    reference = [[x - y for x, y in zip(p, q[-1])] for p in q[:-1]]
    entries = {}
    for fid in X.faces_of_dim(X.n - 1):
        det = fraction_det([_coords_in_basis(b, reference) for b in O.bases[fid]])
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


@lru_cache(maxsize=1 << 14)
def _is_geometric_facet(sigma, tau):
    """Whether the face on the points tau is a facet of the face on the
    points sigma, tuples of affine points: sigma lies weakly on one side of
    tau's affine hull, inside sigma's, and touches it exactly in tau."""
    origin = tau[0]
    tau_dirs = [[x - y for x, y in zip(p, origin)] for p in tau[1:]]
    inside = [Fraction(sum(c), len(sigma)) - o for c, o in zip(zip(*sigma), origin)]
    normal = _orthogonal_residual(inside, tau_dirs)
    if all(x == 0 for x in normal):
        return False
    values = {p: _dot(normal, [x - y for x, y in zip(p, origin)]) for p in sigma}
    return (all(val >= 0 for val in values.values())
            and set(tau) == {p for p, val in values.items() if val == 0})


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
    k independent rows, by the Gram rule: det(basis . vectors^T) =
    det(basis . basis^T) det C^T, and the Gram determinant
    det(basis . basis^T) is positive."""
    return _gram_sign(tuple(map(tuple, basis)), tuple(map(tuple, vectors)))


# the sign oracle asks again for most signs of a complex on its files, its
# reoriented copies and their subcomplexes, which share points and bases
@lru_cache(maxsize=1 << 16)
def _gram_sign(basis, vectors):
    det = fraction_det([[_dot(b, v) for v in vectors] for b in basis])
    return (det > 0) - (det < 0)


def same_span_orientation(reference, basis):
    """``gram_orientation`` of a basis against a reference basis of the same
    subspace; a ValueError when their sizes or spans differ or the basis is
    degenerate.  Two empty bases agree."""
    if len(basis) != len(reference):
        raise ValueError("orientation comparison needs equal dimensions")
    if fraction_rank([*reference, *basis]) != len(reference):
        raise ValueError("orientation comparison needs equal spans")
    sign = gram_orientation(reference, basis)
    if sign == 0:
        raise ValueError("degenerate orientation basis")
    return sign


def _direction(p, q):
    """w_q x_p - w_p x_q, a positive multiple of the direction from the
    homogeneous point q to p."""
    return tuple(q[-1] * a - p[-1] * b for a, b in zip(p[:-1], q[:-1]))


def _pivot_basis(points):
    """(q_0 - q_k, ..., q_{k-1} - q_k) on homogeneous points q_0, ..., q_k."""
    return tuple(_direction(p, points[-1]) for p in points[:-1])


class SignOracle:
    """Every sign of a complex from its vertex points, its face sets and
    bases it carries itself, by Gram determinants (``gram_orientation``);
    it reads no flip, pivot, facet or sign of the complex.

    A face's pivots q_0 < ... < q_k are the vertices a Gram-Schmidt pass
    picks in its points, and (q_0 - q_k, ..., q_{k-1} - q_k) is its pivot
    basis.  Its facets are its listed vertex-drops, or for a face that is
    no simplex the listed faces one dimension lower that pass the
    supporting-flat test.  A face carries its given basis or its pivot
    basis, and a flip negates the carried basis's first vector.  The
    corner simplex's vertices are, per variable, the first vertex labeled
    by its smallest pure power.  The signs, on carried bases:

    - a facet tau of sigma: (eta, tau's basis) against sigma's, eta the
      direction from tau's first vertex to sigma's first vertex outside
      tau; +1 on a vertex (``facet_ids``);
    - a face's flip: its basis against its pivot basis (``flips``);
    - a face against the face S of the corner simplex whose dimension it
      has and in which its vertices' barycentric coordinates, by a
      Fraction solve, are nonnegative and supported: its basis against S's
      pivot basis (``carried``);
    - the top flip: the tops opposite to the simplex's top face, when they
      have its dimension and lie in its affine hull (``top_flips``).
    """

    def __init__(self, n, vertices, face_ids, given=None):
        """``vertices`` maps vertex id to (homogeneous point, label) and
        ``given`` face to basis."""
        self.n = n
        self.points = {v: tuple(point) for v, (point, _) in vertices.items()}
        self.labels = {v: tuple(label) for v, (_, label) in vertices.items()}
        faces = sorted({tuple(sorted(f)) for f in face_ids} | {(v,) for v in self.points})
        self.pivots = {fid: tuple(fid[i] for i in _gram_indices(tuple(self.points[v] for v in fid)))
                       for fid in faces}
        self.dims = {fid: len(pivots) - 1 for fid, pivots in self.pivots.items()}
        rational = {v: affine(p) for v, p in self.points.items()}
        self.facets = {}
        for fid, dim in self.dims.items():
            if len(fid) == dim + 1:
                found = [fid[:j] + fid[j + 1:] for j in range(len(fid))]
            else:
                found = [t for t in faces if self.dims[t] == dim - 1 and set(t) < set(fid)
                         and _is_geometric_facet(*(tuple(rational[v] for v in f) for f in (fid, t)))]
            self.facets[fid] = tuple(sorted(t for t in found if t in self.dims))
        self.pivot_bases = {fid: _pivot_basis([self.points[v] for v in pivots])
                            for fid, pivots in self.pivots.items()}
        given = given or {}
        self.bases = {fid: tuple(map(tuple, given[fid])) if fid in given else basis
                      for fid, basis in self.pivot_bases.items()}

    def pivot_table(self):
        """{face that is no simplex: its pivots}, the table a complex keeps."""
        return {fid: pivots for fid, pivots in self.pivots.items() if len(pivots) < len(fid)}

    def flipped(self, fids):
        """A copy whose faces among fids of dimension 1 or more carry their
        basis with the first vector negated."""
        fids = set(fids)
        flipped = copy(self)
        flipped.bases = {fid: ((tuple(-x for x in b[0]),) + b[1:]
                               if fid in fids and self.dims[fid] >= 1 else b)
                         for fid, b in self.bases.items()}
        return flipped

    def flips(self):
        return {fid: gram_orientation(self.pivot_bases[fid], basis)
                for fid, basis in self.bases.items()}

    def incidence(self, tau, sigma):
        if self.dims[sigma] == 0:
            return 1
        outside = next(v for v in sigma if v not in tau)
        eta = _direction(self.points[outside], self.points[tau[0]])
        return gram_orientation(self.bases[sigma], [eta, *self.bases[tau]])

    def facet_ids(self):
        return {sigma: {tau: self.incidence(tau, sigma) for tau in facets}
                for sigma, facets in self.facets.items()}

    @cached_property
    def corners(self):
        """The corner simplex's points by variable, or None when a variable
        has no pure power among the labels or they are dependent."""
        ids = _corner_vertices(self.n, self.labels)
        if ids is None or len(_gram_indices(tuple(self.points[v] for v in ids))) < self.n:
            return None
        return [self.points[v] for v in ids]

    @cached_property
    def barycentrics(self):
        """{vertex: its barycentric coordinates against the corner simplex,
        None off its affine hull}, or None without a corner simplex."""
        if self.corners is None:
            return None
        return {v: _barycentric(tuple(self.corners), p) for v, p in self.points.items()}

    def simplex_basis(self, sid):
        return _pivot_basis([self.corners[y] for y in sid])

    def carried(self):
        """{nonempty face S of the corner simplex: {face carried by S: its
        orientation against S}}."""
        coords = self.barycentrics
        carried = {sid: {} for size in range(1, self.n + 1)
                   for sid in combinations(range(self.n), size)}
        for fid, dim in self.dims.items():
            if dim < 0 or any(coords[v] is None or min(coords[v]) < 0 for v in fid):
                continue
            support = tuple(sorted({y for v in fid for y, c in enumerate(coords[v]) if c}))
            if len(support) == dim + 1:
                carried[support][fid] = gram_orientation(self.simplex_basis(support),
                                                         self.bases[fid])
        return {sid: dict(sorted(faces.items())) for sid, faces in carried.items()}

    def top_flips(self):
        """The set of top faces the top flip reverses, or None where it
        refuses."""
        coords = self.barycentrics
        tops = [fid for fid, dim in self.dims.items() if dim == self.n - 1]
        if (coords is None or max(self.dims.values()) != self.n - 1
                or any(coords[v] is None for fid in tops for v in fid)):
            return None
        reference = self.simplex_basis(tuple(range(self.n)))
        return {fid for fid in tops if gram_orientation(reference, self.bases[fid]) < 0}

    def oriented_tops(self):
        """A copy with the top flip made where it does not refuse, as the
        embedded hull and the complex-file reader make it."""
        return self.flipped(self.top_flips() or ())


@lru_cache(maxsize=1 << 14)
def _barycentric(corners, point):
    rows = [list(row) for row in zip(*map(affine, corners))] + [[1] * len(corners)]
    return fraction_solve(rows, [*affine(point), 1])


def sign_oracle(X, given=None):
    """The sign oracle on X's vertices and face sets, each face carrying its
    given basis or its pivot basis."""
    return SignOracle(X.n, X.vertices, X.faces, given)


def oriented_oracle(X):
    """The sign oracle carrying the bases X's flips name: each face's pivot
    basis, reversed where the face has flip -1; for oracles that take an
    oriented complex as input."""
    return sign_oracle(X).flipped(fid for fid, face in X.faces.items() if face.flip < 0)


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
    from boundary matrices of the sign oracle's incidence signs."""
    O = sign_oracle(S)
    signs = O.facet_ids()
    top = max(O.dims.values())
    levels = {k: sorted(fid for fid, dim in O.dims.items() if dim == k)
              for k in range(-1, top + 1)}
    ranks = {-1: 0, top + 1: 0}
    for k in range(0, top + 1):
        ranks[k] = fraction_rank([[signs[sigma].get(tau, 0) for sigma in levels[k]]
                                  for tau in levels[k - 1]])
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
    """First join of X's vertex labels, in sorted order, where the faces
    whose label divides it have nonzero reduced homology, from the Fraction
    ranks of boundary matrices of the incidence signs X files, every
    degree ranked (the scan ``exactness_witness`` had before it collapsed
    each subcomplex first)."""
    top = X.dim
    for beta in sorted(subset_lcm_lattice([X.vertex_label(v) for v in X.vertices])):
        keep = {k: [fid for fid in X.faces_of_dim(k)
                    if all(x <= y for x, y in zip(X.face(fid).label, beta))]
                for k in range(-1, top + 1)}
        ranks = {-1: 0, top + 1: 0}
        for k in range(0, top + 1):
            ranks[k] = fraction_rank([[X.facet_ids[sigma].get(tau, 0) for sigma in keep[k]]
                                      for tau in keep[k - 1]])
        if any(len(keep[k]) - ranks[k] - ranks[k + 1] for k in range(-1, top + 1)):
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
