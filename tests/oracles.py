"""Independent brute-force oracles for the test suite.

Each oracle reaches its answer another way than the library: subset
enumeration instead of join closure, box scans and inclusion-exclusion
instead of staircase slicing, Fraction elimination and Gram-Schmidt
instead of the integer Bareiss kernel, the facets of conv(points) + R_+^n
by double description with a Fourier-Motzkin test instead of a scan over
point subsets, affine barycentric coordinates and volumes in Fractions
instead of integer homogeneous ones, every degree ranked instead of a
collapse, and wedge forms and dense polynomial matrices instead of sign
columns.

``hull_face_sets`` is the one hull oracle: the facets of the lifted
generators' polyhedron as the extreme rays of its cone of valid
inequalities (``hull_facets``), and its bounded faces among their
intersections.  ``SignOracle`` is the one sign and containment oracle:
every facet incidence sign, flip, orientation against the corner simplex
and top flip of a complex, by Gram determinants, and whether the complex
refines that simplex and which faces each face of it carries, by
barycentric coordinates, all from its vertex points and labels, its face
sets and bases it carries itself.  ``ExactnessOracle`` is the one
exactness oracle: the reduced homology of every X_{<=beta}, from a sign
oracle's signs and the vertex labels.  An oracle imports from ``cellres``
only records and errors (``LabeledCellComplex``, the error classes,
``cli.SUBCOMMANDS``), never the code it checks; ``test_oracles`` holds it
to that.
"""

from collections import namedtuple
from copy import copy
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import le


def affine(point):
    """The point x / w of a homogeneous vector (x, w), as Fractions."""
    return tuple(Fraction(x, point[-1]) for x in point[:-1])


def _point(X, v):
    return affine(X.vertex_point(v))


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
    # zero entries stay the integer 0, every other entry is a Fraction
    rows = [[Fraction(x) if x else 0 for x in r] for r in matrix if any(x != 0 for x in r)]
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
        support = [c for c in range(col, ncols) if rows[r][c] != 0]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                for c in support:
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
    library's retired integer ``linalg.solve`` once replaced)."""
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


def _intersection_closure(sets):
    """The sets and all their nonempty pairwise intersections, repeated."""
    lattice = set(sets)
    frontier = set(lattice)
    while frontier:
        frontier = {a & b for a in frontier for b in lattice} - lattice - {frozenset()}
        lattice |= frontier
    return lattice


def _primitive(v):
    divisor = gcd(*v)
    return tuple(x // divisor for x in v)


def hull_facets(points):
    """[(point-index set, inner normal)] of the facets of conv(points) +
    R_+^n, integer points, by double description (Motzkin, Raiffa,
    Thompson and Thrall 1953; Fukuda and Prodon 1996).

    The inequalities w.x >= c valid on the polyhedron are the cone of the
    (w, c) with w >= 0 and w.p >= c for every point p.  The cone holds no
    line, and the polyhedron has full dimension, so the cone's extreme rays
    are (0, -1) and the facets' (w, c), each once up to a positive factor.
    The cone of w >= 0 and the first point's inequality is simplicial, with
    the rays (e_i, p_i) and (0, -1); each further point's inequality keeps
    the rays on its side and joins each ray p above its hyperplane to each
    ray q below it into the primitive ray val(p) q - val(q) p on it, when
    p and q are adjacent: no third ray is tight at every inequality tight
    at both, and at least n - 1 are.  A ray's tight inequalities are a bit
    mask: bit i for w_i >= 0, bit n + j for point j.
    """
    n = len(points[0])
    first = points[0]
    orthant = (1 << n) - 1
    rays = {tuple(int(k == i) for k in range(n)) + (first[i],): orthant & ~(1 << i) | 1 << n
            for i in range(n)}
    rays[(0,) * n + (-1,)] = orthant
    for j, p in enumerate(points[1:], 1):
        bit = 1 << (n + j)
        values = {ray: _dot(ray, p) - ray[n] for ray in rays}  # w.p - c
        kept = {ray: tight | (bit if values[ray] == 0 else 0)
                for ray, tight in rays.items() if values[ray] >= 0}
        for a in (ray for ray in rays if values[ray] > 0):
            for b in (ray for ray in rays if values[ray] < 0):
                common = rays[a] & rays[b]
                if common.bit_count() < n - 1 or any(
                        common & tight == common for ray, tight in rays.items()
                        if ray != a and ray != b):
                    continue
                kept[_primitive([values[a] * y - values[b] * x for x, y in zip(a, b)])] = (
                    common | bit)
        rays = kept
    return [(frozenset(j for j, p in enumerate(points) if _dot(ray, p) == ray[n]), ray[:n])
            for ray in rays if any(ray[:n])]


def hull_face_sets(generators, t):
    """Sorted point-index tuples of the bounded faces of conv{t^a} + R_+^n.

    Every face is an intersection of facets (``hull_facets``), and its
    normal cone is spanned by the normals of the facets containing it; the
    face is bounded when that cone holds a strictly positive vector: a
    Fourier-Motzkin test on the intersection closure of the facets' point
    sets.
    """
    points = [tuple(t ** a for a in g) for g in generators]
    ambient = len(points[0])
    facets = hull_facets(points)
    bounded = set()
    for members in _intersection_closure({fac for fac, _ in facets}):
        normals = [w for fac, w in facets if members <= fac]
        nvars = len(normals)
        rows = [([w[c] for w in normals], 1) for c in range(ambient)]
        rows += [([int(i == j) for i in range(nvars)], 0) for j in range(nvars)]
        if _fm_feasible(rows, nvars):
            bounded.add(tuple(sorted(members)))
    return bounded


def _coords_in_basis(v, basis):
    rows = [[b[c] for b in basis] for c in range(len(v))]
    coords = fraction_solve(rows, list(v))
    if coords is None:
        raise ValueError("vector outside the reference span")
    return coords


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

    The same barycentric coordinates decide containment: a face's carrier,
    the union of its vertices' supports, and its volume relative to the
    carrier (``volume``) give whether the complex refines the corner
    simplex (``refinement_failure``), and the carriers and labels whether
    support and geometry agree (``disagreement``).
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

    def simplex_faces(self):
        """The nonempty faces of the corner simplex, by size, then sorted."""
        return [sid for size in range(1, self.n + 1) for sid in combinations(range(self.n), size)]

    def label(self, fid):
        """A face's label, the lcm of its vertices' labels."""
        return tuple(map(max, zip(*(self.labels[v] for v in fid)))) if fid else (0,) * self.n

    def carrier(self, fid):
        """The union of the barycentric supports of a face's vertices, which
        must all have coordinates."""
        return tuple(sorted({y for v in fid for y, c in enumerate(self.barycentrics[v]) if c}))

    def simplices(self, fid):
        """Simplices triangulating a face: cones from its first vertex over
        those of its facets that miss it."""
        if len(fid) == self.dims[fid] + 1:
            return [fid]
        return [(fid[0],) + s for t in self.facets[fid] if fid[0] not in t
                for s in self.simplices(t)]

    def volume(self, fid):
        """A face's volume relative to its carrier S, which must have the
        face's dimension: the sum over the simplices triangulating it of
        |det| of their vertices' barycentric coordinates restricted to S."""
        span = self.carrier(fid)
        return sum(abs(fraction_det([[self.barycentrics[v][y] for y in span] for v in s]))
                   for s in self.simplices(fid))

    def refinement_failure(self):
        """Why the complex does not refine its corner simplex, which it must
        have, or None, in the library's words: the first vertex with no
        barycentric coordinates or a negative one; else the first face whose
        label does not divide the label of its carrier S, z_i^{b_i} over i
        in S; else the first face S of the simplex, in sorted order, where
        the volumes of the faces with carrier S and dimension |S| - 1 do not
        sum to 1."""
        coords = self.barycentrics
        for v in sorted(coords):
            if coords[v] is None or min(coords[v]) < 0:
                return f"vertex {v} lies outside the simplex"
        b = [self.labels[v][i] for i, v in enumerate(_corner_vertices(self.n, self.labels))]
        faces = [fid for fid, dim in self.dims.items() if dim >= 0]
        for fid in faces:
            span = self.carrier(fid)
            if any(e > (b[i] if i in span else 0) for i, e in enumerate(self.label(fid))):
                return f"label of face {fid} does not divide the label of {span}"
        covered = dict.fromkeys(self.simplex_faces(), 0)
        for fid in faces:
            if len(self.carrier(fid)) == self.dims[fid] + 1:
                covered[self.carrier(fid)] += self.volume(fid)
        for sid, volume in sorted(covered.items()):
            if volume != 1:
                return f"face {sid} is covered with volume {volume}"
        return None

    def disagreement(self):
        """The face where support and geometry disagree, or None: at the
        first face S of the corner simplex, by size, then sorted, where the
        faces of dimension |S| - 1 with carrier in S are not those with
        label supported in S, the least face in only one of the two."""
        for sid in self.simplex_faces():
            level = [fid for fid, dim in self.dims.items() if dim == len(sid) - 1]
            inside = {fid for fid in level if set(self.carrier(fid)) <= set(sid)}
            labeled = {fid for fid in level
                       if not any(e for i, e in enumerate(self.label(fid)) if i not in sid)}
            if inside != labeled:
                return min(inside ^ labeled)
        return None

    def carried(self):
        """{nonempty face S of the corner simplex: {face carried by S: its
        orientation against S}}."""
        coords = self.barycentrics
        carried = {sid: {} for sid in self.simplex_faces()}
        for fid, dim in self.dims.items():
            if dim < 0 or any(coords[v] is None or min(coords[v]) < 0 for v in fid):
                continue
            span = self.carrier(fid)
            if len(span) == dim + 1:
                carried[span][fid] = gram_orientation(self.simplex_basis(span), self.bases[fid])
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


class ExactnessOracle:
    """Reduced rational homology of the subcomplexes X_{<=beta} of a complex,
    the faces whose label divides z^beta, from the dimensions and incidence
    signs of its sign oracle and face labels it takes as the lcms of its
    vertex labels; every degree is ranked by ``fraction_rank``, with no
    collapse."""

    def __init__(self, O):
        self.signs = O.facet_ids()
        self.top = max(O.dims.values())
        self.labels = {fid: O.label(fid) for fid in O.dims}
        self.levels = {k: sorted(fid for fid, dim in O.dims.items() if dim == k)
                       for k in range(-1, self.top + 1)}
        self._boundary_ranks = {}

    def under(self, beta):
        """{level k in -1 .. dim: the k-faces whose label divides z^beta}."""
        return {k: tuple(fid for fid in level if all(map(le, self.labels[fid], beta)))
                for k, level in self.levels.items()}

    def boundary(self, under, k):
        """The incidence signs from the k-faces to the (k-1)-faces among the
        faces ``under`` some degree, rows the latter."""
        return [[self.signs[sigma].get(tau, 0) for sigma in under[k]] for tau in under[k - 1]]

    def ranks(self, beta):
        """The ranks of reduced homology of X_{<=beta} in degrees -1 .. dim."""
        return self._ranks(self.under(beta))

    def _ranks(self, under):
        rank = {-1: 0, self.top + 1: 0}
        for k in range(self.top + 1):
            key = k, under[k - 1], under[k]
            if key not in self._boundary_ranks:
                self._boundary_ranks[key] = fraction_rank(self.boundary(under, k))
            rank[k] = self._boundary_ranks[key]
        return [len(under[k]) - rank[k] - rank[k + 1] for k in range(-1, self.top + 1)]

    def witness(self, degrees):
        """The first degree, in sorted order, with a vertex under it and
        nonzero ranks, or None."""
        for beta in sorted(degrees):
            under = self.under(beta)
            if under[0] and any(self._ranks(under)):
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
