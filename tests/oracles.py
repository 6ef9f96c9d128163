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
too: the lcm of every generator subset for the Scarf faces instead of a
depth-first search, candidate normals on every coordinate subset instead
of the n coordinate facets in closed form, a Gram-Schmidt pass and a scan
over the faces one dimension lower for the dimension, orientation basis
and facets of a face, barycenter differences for incidence signs, and for
exactness a subcomplex rebuilt at every lcm-lattice degree with its own
boundary matrices instead of the free complex's signs restricted to the
faces under the degree.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial


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
    inconsistent, by Gauss-Jordan over Fractions (the retired
    ``linalg.solve``)."""
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
            matrix = [[F.matrix(k)[i][j].sign for j in cols] for i in rows]
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


def _nullspace(rows, ncols):
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
        kernel = _nullspace([[_dot(dv, hv) for hv in hull_dirs] for dv in dirs], d)
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
    lineality = _nullspace(
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
            basis = Y.face(sid).basis
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
                kernel = _nullspace(diffs, k)
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


def all_k_bounded_face_sets(points):
    """Point-index sets of the bounded faces of conv(points) + R_+^n: the
    intersections of the facets of ``all_k_facet_supports`` whose
    containing facets' supports cover every coordinate."""
    if len(points) == 1:
        return {frozenset({0})}
    facets = all_k_facet_supports(points)
    lattice = _intersection_closure(facets)
    everything = (1 << len(points[0])) - 1
    bounded = set()
    for members in lattice:
        cover = 0
        for fac, support in facets.items():
            if members <= fac:
                cover |= support
        if cover == everything:
            bounded.add(members)
    return bounded


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


def barycenter_sign_facet(X, tau_id, sigma_id):
    """Incidence sign of the facet tau of sigma with the inward direction
    from tau's barycenter to sigma's (the rule ``sign_facet`` had): the
    sign of det of the Gram matrix of sigma's basis against (inward
    direction, tau's basis)."""
    sigma = X.face(sigma_id)
    if sigma.dim == 0:
        return 1

    def barycenter(fid):
        pts = _face_points(X, fid)
        return [Fraction(sum(c), len(pts)) for c in zip(*pts)]

    eta = [x - y for x, y in zip(barycenter(sigma_id), barycenter(tau_id))]
    columns = [eta] + list(X.face(tau_id).basis)
    det = fraction_det([[_dot(b, c) for c in columns] for b in sigma.basis])
    return (det > 0) - (det < 0)


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
        lift_base=X.lift_base,
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
    parser.add_argument("--box", help="box override for the duality check")
    parser.add_argument("--order", choices=("P", "Q"), help="partition order")
    parser.add_argument(
        "--permutations",
        help='permutation list for fundamental-cycle, e.g. "1,2;2,1"',
    )
    return parser
