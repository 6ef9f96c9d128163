"""Oriented polyhedral cell complexes with monomial vertex labels.

A point x in Q^d is stored as the homogeneous integer vector
(x_1 w, ..., x_d w, w) with w > 0; ``homogeneous`` gives the one in lowest
terms.  Every question asked of the geometry (dimensions, facets and
orientations here, containment and volumes in ``simplex``) is invariant
under a positive scale of each vertex, so the whole module computes on
integers.  Each face carries its orientation as one sign, its flip
against its pivot basis, which only ``_pivot_basis`` builds, and only
where a basis is read; a face's label is the componentwise maximum of its
vertices' labels.  A face's pivots and its facets' incidence signs are
decided once, when the complex is built.  The empty face (dimension -1,
label the zero vector) is always part of a complex.
"""

import sys
from collections import Counter, namedtuple
from functools import wraps
from math import gcd, lcm

from . import linalg
from .errors import CellresError, InputError
from .monomial import is_int, minimize

EMPTY = ()


class Face(namedtuple("Face", "vertices dim label flip")):
    """Vertex ids, dimension, label and orientation of one face: flip +1
    for its pivot basis, -1 for the reverse."""

    __slots__ = ()


def homogeneous(point) -> tuple:
    """The homogeneous integer vector (x_1 w, ..., x_d w, w) of a point with
    integer or ``Fraction`` coordinates, w the lcm of their denominators:
    w > 0 and the vector is in lowest terms."""
    # the JSON loader calls _homogeneous: the benchmark's tracer times every
    # public function, and one span per vertex would cost more than the call
    return _homogeneous(point)


def _homogeneous(point) -> tuple:
    w = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (w // x.denominator) for x in point) + (w,)


def _lowest_terms(p) -> tuple:
    g = gcd(*p)
    return tuple(x // g for x in p)


def _direction(p, q):
    """w_q x_p - w_p x_q, a positive multiple of the direction from the
    point q to the point p."""
    wp, wq = p[-1], q[-1]
    return tuple(wq * a - wp * b for a, b in zip(p[:-1], q[:-1]))


class LabeledCellComplex:
    """Immutable cell complex; all queries are pure.

    ``vertices`` maps vertex id to (homogeneous point, label); ``faces`` maps the face
    id (the sorted tuple of its vertex ids) to its Face; ``facet_ids`` maps
    each face to {facet: incidence sign +1 or -1}, its codimension-one faces
    in sorted order; ``pivots`` maps each face that is no simplex to its
    pivot vertex ids (a simplex's are its vertices).  ``_derived`` holds
    the objects built from the complex by ``derived`` functions.
    """

    def __init__(self, n, vertices, faces, facet_ids, pivots):
        self.n = n
        self.vertices = vertices
        self.faces = faces
        self.facet_ids = facet_ids
        self.pivots = pivots
        self._derived = {}

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces.values())

    def face(self, fid) -> Face:
        return self.faces[fid]

    def vertex_point(self, vid):
        return self.vertices[vid][0]

    def vertex_label(self, vid):
        return self.vertices[vid][1]

    def faces_of_dim(self, k) -> list:
        return sorted(fid for fid, f in self.faces.items() if f.dim == k)

    def facets(self, fid) -> tuple:
        return tuple(self.facet_ids[fid])


def derived(build):
    """Build ``build(X)`` once per complex and share the result.

    The result is stored on X under the function's name.  X is immutable,
    so the result stays valid; a caller that changes a result copies it
    first.  A call that raises stores nothing.
    """
    name = build.__name__

    @wraps(build)
    def memo(X):
        if name not in X._derived:
            X._derived[name] = build(X)
        return X._derived[name]

    return memo


@derived
def vertex_ideal(X: LabeledCellComplex):
    """The ideal of X's vertex labels, by its minimal generators; its
    pure powers are the exponents b of the corner simplex."""
    return minimize([X.vertex_label(v) for v in X.vertices])


def _pivot_basis(points) -> tuple:
    """The basis (q_0 - q_k, ..., q_{k-1} - q_k) a face with flip +1 is
    oriented by: q_0 < ... < q_k are the ``points`` of its pivot vertices,
    all of a simplex's, and each direction is scaled to integers by
    ``_direction``."""
    return tuple(_direction(p, points[-1]) for p in points[:-1])


def _facet_sides(points_by_vertex, pivots, sigma: Face, candidates) -> list:
    """Per candidate face tau, the side of tau's affine hull on which sigma
    lies: +1 or -1 when tau is a facet of sigma, 0 when it is not.

    ``candidates`` are faces inside sigma, one dimension lower; ``pivots``
    holds the pivot vertex ids of the faces that are no simplices.  A
    candidate tau is a facet when sigma lies weakly on one side of tau's
    affine hull and touches it exactly in tau's vertices.  A vertex v of
    sigma is on the side given by the orientation of (direction from tau's
    first vertex to v, tau's pivot basis) against sigma's, 0 on the hull;
    tau's own vertices lie on it, so tau is a facet when every other vertex
    gives the same nonzero sign, the incidence sign of tau in sigma when
    neither is flipped.  One ``linalg.orientations`` call reads them all.
    """
    def basis(face):
        fid = face.vertices
        return _pivot_basis([points_by_vertex[v] for v in pivots.get(fid, fid)])

    outside = [[v for v in sigma.vertices if v not in tau.vertices] for tau in candidates]
    signs = iter(linalg.orientations(basis(sigma), [
        (_direction(points_by_vertex[v], points_by_vertex[tau.vertices[0]]),) + tau_basis
        for tau, tau_basis, vs in zip(candidates, map(basis, candidates), outside) for v in vs
    ]))
    sides = [{next(signs) for _ in vs} for vs in outside]
    return [side.pop() if side in ({1}, {-1}) else 0 for side in sides]


def make_complex(n, vertex_points, vertex_labels, face_sets):
    """Assemble a labeled complex from vertex data and face vertex sets.

    Points are homogeneous integer vectors with a positive last entry, any
    positive multiple naming the same point.  Singleton faces and the empty
    face are added automatically.  Taken by decreasing size, a face inside
    a listed face found affinely independent is a simplex; one elimination
    of any other gives its dimension and pivot vertices.  Faces are built
    with flip +1 (their pivot basis), which ``simplex.reoriented`` reverses.

    A face's facets, each filed with its incidence sign, are its listed
    faces of one dimension less: for a simplex its vertex-drops, otherwise
    those with a nonzero side (``_facet_sides``), the side being the sign.
    They must cover the boundary: there are at least dim + 1, and in a face
    that is no simplex each facet of a facet lies in exactly two of them
    (the diamond property, which a simplex's vertex-drops have by
    construction).  Every listed face inside a face must be one of its
    faces.  So a face's facets are its maximal listed proper subsets, and a
    family closed under subsets that holds an affinely dependent vertex set
    is refused: the smallest such set has a vertex-drop of its own
    dimension, which lies in none of its facets.

    The drop tau of the j-th vertex q_j of a simplex sigma = (q_0, ..., q_k)
    has the sign (-1)^j, the side: modulo tau's span the direction to q_j
    is q_j - q_k, j places from the front of sigma's basis (q_0 - q_k, ...,
    q_{k-1} - q_k), or if j = k, -(q_{k-1} - q_k), k - 1 places from its end.
    """
    ids = sorted(vertex_points)
    if not ids:
        raise InputError("a complex needs at least one vertex")
    if sorted(vertex_labels) != ids:
        raise InputError("vertex points and labels must share the same ids")
    points = {v: tuple(vertex_points[v]) for v in ids}
    ambient = {len(p) for p in points.values()}
    if len(ambient) != 1:
        raise InputError("vertex coordinates must share one ambient dimension")
    for v, p in points.items():
        if not (p and all(map(is_int, p)) and p[-1] > 0):
            raise InputError(
                f"vertex {v}: point must be a homogeneous integer vector "
                "with a positive last entry"
            )
    if len({_lowest_terms(p) for p in points.values()}) != len(ids):
        raise InputError("vertex coordinates must be pairwise distinct")
    for v in ids:
        if len(vertex_labels[v]) != n or any(e < 0 for e in vertex_labels[v]):
            raise InputError(f"vertex {v}: label must be a nonnegative vector of length {n}")

    face_ids = {tuple(sorted(fs)) for fs in face_sets}
    face_ids |= {(v,) for v in ids}
    face_ids.discard(EMPTY)
    for fid in face_ids:
        if len(set(fid)) < len(fid):
            raise InputError(f"face {fid} lists a vertex twice")
        for v in fid:
            if v not in points:
                raise InputError(f"face {fid} references unknown vertex {v}")

    pivots = {}  # the pivot vertex ids of each face that is no simplex
    independent = set()  # the vertex-drops of the simplices taken so far
    for fid in sorted(face_ids, key=len, reverse=True):
        if fid not in independent:
            idx = linalg.affine_basis_indices([points[v] for v in fid])
            if len(idx) < len(fid):
                pivots[fid] = tuple(fid[i] for i in idx)
                continue
        independent.update(fid[:j] + fid[j + 1:] for j in range(len(fid)))
    faces = {EMPTY: Face(EMPTY, -1, (0,) * n, 1)}
    for fid in sorted(face_ids):
        label = tuple(max(c) for c in zip(*(vertex_labels[v] for v in fid)))
        faces[fid] = Face(fid, len(pivots.get(fid, fid)) - 1, label, 1)

    # closure under vertex-set intersections (faces of a complex intersect
    # in common faces), checked between non-simplices only: the facet rule
    # below lists every vertex-drop of a listed simplex, so the listed
    # simplices are closed under subsets and a simplex meets any face in one
    listed = sorted(pivots)
    for i in range(len(listed)):
        for j in range(i + 1, len(listed)):
            inter = tuple(sorted(set(listed[i]) & set(listed[j])))
            if inter and inter not in faces:
                raise InputError(
                    f"faces {listed[i]} and {listed[j]} meet in {inter}, "
                    "which is not a face of the complex"
                )

    facet_ids = {EMPTY: {}}
    # by size, so that the facets of a face's facets are filed before it
    for fid in sorted(face_ids, key=lambda t: (len(t), t)):
        f = faces[fid]
        if fid not in pivots:
            drops = ((fid[:j] + fid[j + 1:], (-1) ** j) for j in range(len(fid)))
            found = {tau: sign for tau, sign in drops if tau in faces}
            inside, ridges = (), Counter()
        else:
            members = set(fid)
            inside = [t for t in face_ids if set(t) < members]
            candidates = [faces[t] for t in inside if faces[t].dim == f.dim - 1]
            found = {tau.vertices: side for tau, side in
                     zip(candidates, _facet_sides(points, pivots, f, candidates)) if side}
            # the diamond property: each facet of a facet lies in two facets
            ridges = Counter(rho for tau in found for rho in facet_ids[tau])
        if len(found) < f.dim + 1 or set(ridges.values()) - {2}:
            raise InputError(f"face {fid}: boundary is not covered by listed faces")
        # a face inside a facet tau is checked against tau's facets in turn
        for t in inside:
            if not any(set(t) <= set(tau) for tau in found):
                raise InputError(f"face {t} lies in face {fid} but is not one of its faces")
        facet_ids[fid] = dict(sorted(found.items()))

    vertices = {v: (points[v], tuple(vertex_labels[v])) for v in ids}
    return LabeledCellComplex(n, vertices, faces, facet_ids, pivots)


def _subsets(r):
    """The nonempty subsets of range(r) as sorted tuples, in bit-mask order."""
    return [tuple(i for i in range(r) if mask >> i & 1) for mask in range(1, 1 << r)]


def _fraction_str(a, b) -> str:
    g = gcd(a, b)
    try:
        return f"{a // g}/{b // g}"
    except ValueError as exc:  # past the interpreter's int-string limit
        raise CellresError("result has an integer longer than "
                           f"{sys.get_int_max_str_digits()} digits") from exc


def complex_to_json(X: LabeledCellComplex) -> dict:
    vertices = [
        {
            "id": v,
            "coords": [_fraction_str(x, X.vertex_point(v)[-1])
                       for x in X.vertex_point(v)[:-1]],
            "label": list(X.vertex_label(v)),
        }
        for v in sorted(X.vertices)
    ]
    faces = [
        {
            "vertices": list(fid),
            "dim": X.face(fid).dim,
            "label": list(X.face(fid).label),
        }
        for fid in sorted(X.faces, key=lambda f: (X.face(f).dim, f))
        if len(fid) >= 2
    ]
    return {"n": X.n, "vertices": vertices, "faces": faces}


