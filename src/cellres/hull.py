"""Hull, Scarf, and Taylor complexes of Artinian monomial ideals.

The hull complex is built from the lifted generator points t^alpha, which
are integer vectors: the facets of conv(points) + R_+^n are enumerated from
integer cross products of point differences, and a face is bounded exactly
when the supports of the (nonnegative) normals of the facets containing it
cover every coordinate.  Everything is checked for stability by
recomputing at t+1.  Points handed to ``make_complex`` are homogeneous
integer vectors: ``hull_complex`` places the generators at their lifted
points with weight 1, and ``embedded_hull`` and ``scarf_complex`` at their
projections onto the corner simplex in lowest terms.
"""

import math
import sys
from itertools import combinations
from operator import mul

from . import linalg
from .cellcomplex import LabeledCellComplex, _lowest_terms, _subsets, make_complex
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


def _check_lift_digits(M: MonomialIdeal, base: int):
    """Refuse, before any power is taken, a lift whose largest coordinate
    base^a, a the largest exponent of M, has more decimal digits than the
    interpreter's int-string limit, which also caps the JSON read and
    written.

    base^16 has L = floor(16 log2(base)) + 1 bits, so base^a has at least
    a (L - 1) log10(2) / 16 + 1 digits; with 0.30102 < log10(2) the integer
    estimate stays such a lower bound, within a few percent of the count,
    so every lift refused is past the limit.
    """
    a = max(map(max, M.generators))
    digits = a * ((base**16).bit_length() - 1) * 30102 // 1_600_000 + 1
    if 0 < (limit := sys.get_int_max_str_digits()) < digits:
        raise PreconditionError(
            f"lifted coordinate {base}^{a} has at least {digits} digits, more than {limit}"
        )


def _lifted_points(M: MonomialIdeal, t: int):
    return [tuple(t**a for a in g) for g in M.generators]


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
        w = linalg.kernel_vector(diffs, ambient)
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
    all coordinates.  Every face is the intersection of the facets that
    contain it, so closing the supporting sets under intersection with them
    reaches every face, and a face, while in the frontier, meets each
    supporting set once and ORs in the support of every one containing it.
    """
    supports = _facet_supports(points)
    covers = dict(supports)
    frontier = list(supports)
    while frontier:
        new = []
        for face in frontier:
            for members, support in supports.items():
                meet = face & members
                if meet == face:
                    covers[face] |= support
                elif meet and meet not in covers:
                    covers[meet] = 0
                    new.append(meet)
        frontier = new
    everything = (1 << len(points[0])) - 1
    if any(covers.get(frozenset({i})) != everything for i in range(len(points))):
        raise CellresError(
            "a generator point is not a vertex of the bounded hull; "
            "the lift base is too small"
        )
    return [face for face, cover in covers.items() if cover == everything]


def _hull_face_sets(M: MonomialIdeal, t):
    """The checked lift base and the point-index sets of the bounded faces
    of conv{t^alpha} + R_+^n, recomputed at t+1, where they must agree."""
    if not is_artinian(M):
        raise PreconditionError("hull complex requires an Artinian ideal")
    t = _check_lift_base(M.n, t)
    _check_lift_digits(M, t + 1)  # the recheck's lift is the larger

    def face_sets(base):
        points = _lifted_points(M, base)
        return {tuple(sorted(fs)) for fs in _bounded_face_sets(points)}

    sets_t = face_sets(t)
    if face_sets(t + 1) != sets_t:
        raise CellresError("hull face poset differs between t and t+1")
    return t, sets_t


def hull_complex(M: MonomialIdeal, t=None) -> LabeledCellComplex:
    """Bounded faces of conv{t^alpha} + R_+^n with lcm labels.

    Vertices are the minimal generators in descending lexicographic order;
    the face poset is recomputed at t+1 and must agree.
    """
    t, face_sets = _hull_face_sets(M, t)
    points = {i: p + (1,) for i, p in enumerate(_lifted_points(M, t))}
    labels = dict(enumerate(M.generators))
    return make_complex(M.n, points, labels, face_sets)


def embedded_hull(M: MonomialIdeal, t=None) -> LabeledCellComplex:
    """The hull complex realized on its corner simplex: the face sets of
    ``hull_complex``, each generator at its lifted point projected along
    the line through 1 onto the simplex (``_simplex_points``), and the top
    faces flipped to agree with the simplex orientation.

    The complex is built once, on the projected points.  A realization on
    the lifted points would give each face the same facets, though a
    non-simplex's incidence signs depend on the points: ``make_complex``
    accepts a family of face sets only when each face's facets cover its
    boundary and every listed face inside it lies in one of them, so the
    facets of a face are exactly its maximal listed proper subsets, and any
    two realizations of one family that both pass agree on them.
    """
    # imported here, so that a hull or Scarf job loads no corner-simplex code
    from .simplex import orient_tops

    t, face_sets = _hull_face_sets(M, t)
    labels = dict(enumerate(M.generators))
    return orient_tops(make_complex(M.n, _simplex_points(M, t), labels, face_sets))


def _simplex_points(M: MonomialIdeal, t: int) -> dict:
    """{generator index: its lifted point x = t^alpha projected along the
    line through (1,...,1) onto the corner simplex}, homogeneous vectors in
    lowest terms.

    The simplex lies in the hyperplane sum_i (y_i - 1) / T_i = 1 through
    the lifted pure powers 1 + T_i e_i, T_i = t^{b_i} - 1.  With
    L = lcm(T) and N = sum_i (x_i - 1) L / T_i, positive as x >= 1 and
    x != 1, the point y = 1 + (x - 1) L / N is (N + (x_i - 1) L, ..., N) / N;
    x = 1 is the generator 1, which no minimal Artinian ideal has.
    """
    steps = [t**b - 1 for b in pure_power_exponents(M)]
    common = math.lcm(*steps)
    scales = [common // s for s in steps]
    points = {}
    for i, x in enumerate(_lifted_points(M, t)):
        denom = sum((xi - 1) * scale for xi, scale in zip(x, scales))
        points[i] = _lowest_terms([denom + (xi - 1) * common for xi in x] + [denom])
    return points


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


# the largest generator count scarf_complex accepts
SCARF_MAX_GENERATORS = 22


def scarf_complex(M: MonomialIdeal, t=None) -> LabeledCellComplex:
    """Simplicial complex of generator subsets with a unique lcm.

    M must be Artinian.  The faces come from a depth-first search (see
    _scarf_faces) and are realized on the points of the embedded hull
    (_simplex_points), with simplex orientations from the sorted vertex order.
    """
    r = len(M.generators)
    if r > SCARF_MAX_GENERATORS:
        raise PreconditionError(
            f"{r} generators exceed the subset-enumeration bound {SCARF_MAX_GENERATORS}"
        )
    if not is_artinian(M):
        raise PreconditionError("the embedded realization requires an Artinian ideal")
    t = _check_lift_base(M.n, t)
    _check_lift_digits(M, t)
    labels = dict(enumerate(M.generators))
    return make_complex(M.n, _simplex_points(M, t), labels, _scarf_faces(M.generators))


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
    return make_complex(M.n, points, labels, _subsets(r))
