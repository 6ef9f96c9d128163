"""Hull, Scarf, and Taylor complexes of Artinian monomial ideals.

The hull complex is built from the lifted generator points t^alpha, which
are integer vectors: the facets of conv(points) + R_+^n are enumerated from
integer cross products of point differences, and a face is bounded exactly
when the supports of the (nonnegative) normals of the facets containing it
cover every coordinate.  Everything is checked for stability by
recomputing at t+1.  Points handed to ``make_complex`` are homogeneous
integer vectors, the lifted points with weight 1 and their projections onto
the corner simplex in lowest terms.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

from . import linalg
from .cellcomplex import (
    LabeledCellComplex,
    _corner_vertex_ids,
    make_complex,
    orient_tops_to,
    reference_simplex_face,
)
from .errors import CellresError, InputError, PreconditionError
from .monomial import (
    MonomialIdeal,
    divides,
    is_artinian,
    is_int,
    lcm,
    pure_power_exponents,
)


def default_lift_base(n: int) -> int:
    return math.factorial(n + 1) + 1


def _check_lift_base(n: int, t) -> int:
    if t is None:
        return default_lift_base(n)
    if not is_int(t):
        raise InputError(f"lift base must be an integer, not {t!r}")
    if t < default_lift_base(n):
        raise InputError(f"lift base must be at least {default_lift_base(n)} for n={n}")
    return t


def _lifted_points(M: MonomialIdeal, t: int):
    return [tuple(t**a for a in g) for g in M.generators]


def _closure_under_intersection(face_sets):
    faces = set(face_sets)
    frontier = set(face_sets)
    while frontier:
        new = set()
        for a in frontier:
            for b in faces:
                c = a & b
                if c and c not in faces and c not in new:
                    new.add(c)
        faces |= new
        frontier = new
    return faces


def _facet_supports(points):
    """Point-index sets of the facets of conv(points) + R_+^n, each mapped
    to the union of the supports of its inner normals, as a bit mask.

    The points must be lifted from an Artinian ideal.  Every inner normal
    is >= 0.  One that misses a coordinate j is e_i for some i: z_j^{b_j}
    projects to (1,...,1) on the other coordinates, where the polyhedron
    projects to the orthant at (1,...,1).  Facet x_i = 1 holds the
    generators with a_i = 0.  A normal w supported on every coordinate is
    the cross product of the differences of n points on its facet.
    Candidates that support a lower-dimensional face are kept too: their
    normals lie in that face's normal cone, which changes no union of
    supports.
    """
    ambient = len(points[0])
    facets = {}
    for i in range(ambient):
        members = frozenset(j for j, p in enumerate(points) if p[i] == 1)
        facets[members] = facets.get(members, 0) | 1 << i
    for combo in combinations(range(len(points)), ambient):
        base = points[combo[0]]
        diffs = [[x - y for x, y in zip(points[j], base)] for j in combo[1:]]
        w = linalg.cross_product(diffs, ambient)
        if w is None:
            continue
        if any(x < 0 for x in w):
            if any(x > 0 for x in w):
                continue
            w = [-x for x in w]
        level = sum(map(mul, w, base))
        members = []
        for j, q in enumerate(points):
            value = sum(map(mul, w, q))
            if value < level:
                break
            if value == level:
                members.append(j)
        else:
            members = frozenset(members)
            support = sum(1 << i for i, x in enumerate(w) if x)
            facets[members] = facets.get(members, 0) | support
    return facets


def _bounded_face_sets(points):
    """Point-index sets of the bounded faces of conv(points) + R_+^n.

    The face with point set S is bounded exactly when its normal cone holds
    a strictly positive vector; as the cone is spanned by the nonnegative
    normals of the facets containing S, that is when their supports cover
    all coordinates.
    """
    npoints = len(points)
    if npoints == 1:
        return [frozenset({0})]
    facets = _facet_supports(points)
    everything = (1 << len(points[0])) - 1
    bounded = []
    for members in _closure_under_intersection(facets):
        cover = 0
        for fac, support in facets.items():
            if members <= fac:
                cover |= support
        if cover == everything:
            bounded.append(members)
    for i in range(npoints):
        if frozenset({i}) not in bounded:
            raise CellresError(
                "a generator point is not a vertex of the bounded hull; "
                "the lift base is too small"
            )
    return bounded


def hull_complex(M: MonomialIdeal, t=None, check_stability=True) -> LabeledCellComplex:
    """Bounded faces of conv{t^alpha} + R_+^n with lcm labels.

    Vertices are the minimal generators in descending lexicographic order;
    with ``check_stability`` the face poset is recomputed at t+1 and must
    agree.
    """
    if not is_artinian(M):
        raise PreconditionError("hull complex requires an Artinian ideal")
    t = _check_lift_base(M.n, t)

    def face_sets(base):
        points = _lifted_points(M, base)
        return {tuple(sorted(fs)) for fs in _bounded_face_sets(points)}

    sets_t = face_sets(t)
    if check_stability and face_sets(t + 1) != sets_t:
        raise CellresError("hull face poset differs between t and t+1")
    points = {i: p + (1,) for i, p in enumerate(_lifted_points(M, t))}
    labels = dict(enumerate(M.generators))
    return make_complex(M.n, points, labels, sets_t, lift_base=t)


def _projection_to_simplex(point, b, t):
    """Intersection of the line through (1,...,1) and the homogeneous point
    (x, w) with the hyperplane sum_i (y_i - 1) / T_i = 1 spanned by the
    corner points (1,..,t^{b_i},..,1), T_i = t^{b_i} - 1, in lowest terms.

    With L = lcm(T) and N = sum_i (x_i - w) L / T_i, the point
    y = 1 + (x / w - 1) w L / N is (N + (x_i - w) L, ..., N) / N.
    """
    *x, w = point
    steps = [t**bi - 1 for bi in b]
    common = math.lcm(*steps)
    denom = sum((xi - w) * (common // s) for xi, s in zip(x, steps))
    if denom == 0:
        raise PreconditionError("cannot project the all-ones point")
    if denom < 0:
        denom, common = -denom, -common
    y = [denom + (xi - w) * common for xi in x] + [denom]
    g = math.gcd(*y)
    return tuple(c // g for c in y)


def _subsets(r):
    """The nonempty subsets of range(r) as sorted tuples, in bit-mask order."""
    return [tuple(i for i in range(r) if mask >> i & 1) for mask in range(1, 1 << r)]


def _pure_power_labels(b):
    """Vertex i of the corner simplex is labeled z_i^{b_i}."""
    n = len(b)
    return {i: tuple(b[i] if j == i else 0 for j in range(n)) for i in range(n)}


def corner_simplex_complex(X: LabeledCellComplex, b) -> LabeledCellComplex:
    """The simplex complex on X's corner vertices, labeled by the pure powers.

    Vertex ids are the variable indices, so faces are subsets of 0..n-1.
    """
    corners = _corner_vertex_ids(X, b)
    n = X.n
    points = {i: X.vertex_point(corners[i]) for i in range(n)}
    return make_complex(n, points, _pure_power_labels(b), _subsets(n),
                        simplicial=True, lift_base=X.lift_base)


def delta_complex(b, t=None) -> LabeledCellComplex:
    """Simplex complex of the complete intersection (z_1^{b_1},...,z_n^{b_n})."""
    b = tuple(b)
    n = len(b)
    if any(bi < 1 for bi in b):
        raise InputError("pure-power exponents must be positive")
    t = _check_lift_base(n, t)
    points = {
        i: tuple(t ** b[i] if j == i else 1 for j in range(n)) + (1,)
        for i in range(n)
    }
    return make_complex(n, points, _pure_power_labels(b), _subsets(n),
                        simplicial=True, lift_base=t)


def embed_in_simplex(H: LabeledCellComplex, b) -> LabeledCellComplex:
    """Project a hull complex onto the corner simplex along lines through 1.

    Labels and the face poset are unchanged; top faces are flipped to agree
    with the simplex orientation.
    """
    b = tuple(b)
    t = H.lift_base
    if t is None:
        raise PreconditionError("complex carries no lift base; cannot embed")
    _corner_vertex_ids(H, b)
    points = {
        v: _projection_to_simplex(H.vertex_point(v), b, t) for v in H.vertices
    }
    labels = {v: H.vertex_label(v) for v in H.vertices}
    face_sets = [fid for fid in H.faces if len(fid) >= 2]
    embedded = make_complex(H.n, points, labels, face_sets, lift_base=t)
    if embedded.facet_ids != H.facet_ids:
        raise CellresError("projection changed the face poset")
    return orient_tops_to(embedded, reference_simplex_face(embedded, b))


def _scarf_faces(generators):
    """Generator-index tuples of the subsets with a unique lcm.

    The Scarf complex is closed under subsets, so a depth-first search that
    extends a face only by an index above its last one reaches every face.
    A face with lcm m is extended by j when, for the members S and the lcm
    m' of S + {j}, (a) no generator outside S + {j} divides m' and (b) no
    member divides the lcm of the others, that is, each member is the only
    one to reach m' in some coordinate.
    """
    r = len(generators)
    faces = []
    stack = [((i,), g) for i, g in enumerate(generators)]
    while stack:
        face, m = stack.pop()
        faces.append(face)
        for j in range(face[-1] + 1, r):
            members = face + (j,)
            joined = lcm(m, generators[j])
            reach = [[i for i in members if generators[i][c] == top]
                     for c, top in enumerate(joined)]
            owners = {at[0] for at in reach if len(at) == 1}
            if len(owners) == len(members) and not any(
                divides(generators[k], joined) for k in range(r) if k not in members
            ):
                stack.append((members, joined))
    return faces


def scarf_complex(M: MonomialIdeal, t=None, max_generators=22) -> LabeledCellComplex:
    """Simplicial complex of generator subsets with a unique lcm.

    M must be Artinian.  The faces come from a depth-first search (see
    _scarf_faces) and are realized on the embedded hull vertex coordinates,
    with simplex orientations from the sorted vertex order.
    """
    r = len(M.generators)
    if r > max_generators:
        raise PreconditionError(
            f"{r} generators exceed the subset-enumeration bound {max_generators}"
        )
    if not is_artinian(M):
        raise PreconditionError("the embedded realization requires an Artinian ideal")
    b = pure_power_exponents(M)
    t = _check_lift_base(M.n, t)
    points = {
        i: _projection_to_simplex(
            tuple(t**a for a in M.generators[i]) + (1,), b, t
        )
        for i in range(r)
    }
    labels = dict(enumerate(M.generators))
    return make_complex(M.n, points, labels, _scarf_faces(M.generators),
                        simplicial=True, lift_base=t)


def taylor_complex(M: MonomialIdeal) -> LabeledCellComplex:
    """Full simplex on the generators, realized on a standard simplex.

    The geometry only matters for boundary-sign consistency; labels carry
    all the algebra.
    """
    r = len(M.generators)
    dim = max(r - 1, 1)
    points = {}
    for i in range(r):
        coords = [0] * dim + [1]
        if i < r - 1:
            coords[i] = 1
        points[i] = tuple(coords)
    labels = dict(enumerate(M.generators))
    return make_complex(M.n, points, labels, _subsets(r), simplicial=True)
