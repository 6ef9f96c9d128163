"""Oriented polyhedral cell complexes with monomial vertex labels.

A point x in Q^d is stored as the homogeneous integer vector
(x_1 w, ..., x_d w, w) with w > 0; ``homogeneous`` gives the one in lowest
terms.  Every question asked of the geometry (dimensions, facets,
orientations, containment, volumes) is invariant under a positive scale of
each vertex, so the whole module computes on integers.  Each face carries
an orientation as an ordered spanning basis of its direction space, a
tuple of integer vectors; a face's label is the componentwise maximum of
its vertices' labels.  The empty face (dimension -1, label the zero vector)
is always part of a complex.
"""

import sys
from collections import namedtuple
from functools import wraps
from math import gcd, lcm, prod

from . import linalg
from .errors import CellresError, InputError, PreconditionError
from .monomial import divides, is_int, lcm_many, minimize, pure_power_exponents

EMPTY = ()


class Face(namedtuple("Face", "vertices dim label basis")):
    """Vertex ids, dimension, label and orientation basis (integer vectors)
    of one face."""

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


def _is_int_vector(v) -> bool:
    # no bool: JSON true decodes to True
    return all(type(x) is int for x in v)


def _direction(p, q):
    """w_q x_p - w_p x_q, a positive multiple of the direction from the
    point q to the point p."""
    wp, wq = p[-1], q[-1]
    return tuple(wq * a - wp * b for a, b in zip(p[:-1], q[:-1]))


class LabeledCellComplex:
    """Immutable cell complex; all queries are pure.

    ``vertices`` maps vertex id to (homogeneous point, label); ``faces`` maps the face
    id (the sorted tuple of its vertex ids) to its Face; ``facet_ids`` maps
    each face to its codimension-one faces.  ``_derived`` holds the objects
    built from the complex by ``derived`` functions.
    """

    def __init__(self, n, vertices, faces, facet_ids):
        self.n = n
        self.vertices = vertices
        self.faces = faces
        self.facet_ids = facet_ids
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
        return self.facet_ids[fid]


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


def _pivot_basis(points, idx):
    """Orientation basis (q_0 - q_k, ..., q_{k-1} - q_k) of the points
    q_0 < ... < q_k at the indices ``linalg.affine_basis_indices`` chose,
    each direction scaled to integers by ``_direction``."""
    if len(idx) <= 1:
        return ()
    last = points[idx[-1]]
    return tuple(_direction(points[i], last) for i in idx[:-1])


def _validate_basis(basis, dirs, dim, fid):
    if len(basis) != max(dim, 0):
        raise InputError(f"face {fid}: orientation basis must have {dim} vectors")
    if dim <= 0:
        return
    if any(len(b) != len(dirs[0]) or not _is_int_vector(b) for b in basis):
        raise InputError(
            f"face {fid}: basis vectors must be integer vectors of the ambient dimension"
        )
    if linalg.rank(basis) != dim:
        raise InputError(f"face {fid}: degenerate orientation basis")
    if linalg.rank(list(dirs) + list(basis)) != dim:
        raise InputError(f"face {fid}: basis vector outside the face's span")


def _facet_sides(points_by_vertex, sigma: Face, candidates) -> list:
    """Per candidate face tau, the side of tau's affine hull on which sigma
    lies: +1 or -1 when tau is a facet of sigma, 0 when it is not.

    ``candidates`` are faces inside sigma, one dimension lower; a candidate
    tau is a facet when sigma lies weakly on one side of tau's affine hull
    and touches it exactly in tau's vertices.  A vertex v of sigma is on
    the side given by the orientation of (direction from tau's first vertex
    to v, tau's basis) against sigma's basis, 0 on the hull; tau's own
    vertices lie on it, so tau is a facet when every other vertex gives the
    same nonzero sign, and that sign is the incidence sign of tau in sigma.
    One ``linalg.orientations`` call reads them all.
    """
    outside = [[v for v in sigma.vertices if v not in tau.vertices] for tau in candidates]
    signs = iter(linalg.orientations(sigma.basis, [
        (_direction(points_by_vertex[v], points_by_vertex[tau.vertices[0]]),) + tau.basis
        for tau, vs in zip(candidates, outside) for v in vs
    ]))
    sides = [{next(signs) for _ in vs} for vs in outside]
    return [side.pop() if side in ({1}, {-1}) else 0 for side in sides]


def make_complex(n, vertex_points, vertex_labels, face_sets, bases=None,
                 simplicial=False):
    """Assemble a labeled complex from vertex data and face vertex sets.

    Points are homogeneous integer vectors with a positive last entry, any
    positive multiple naming the same point; bases are integer vectors.
    Singleton faces and the empty face are added automatically.  A face's
    facets are its listed faces of one dimension less: all of them for a
    simplex, where each is the simplex minus one vertex, and otherwise those
    with a nonzero side (``_facet_sides``); they must cover the boundary, and every
    listed face inside a face must be one of its faces.  With
    ``simplicial`` every face must be a non-degenerate simplex.  One
    elimination per face gives its dimension and its default orientation
    basis; only the bases in ``bases`` are validated.
    """
    bases = dict(bases or {})
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
        if not (p and _is_int_vector(p) and p[-1] > 0):
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

    faces = {}
    zero_label = (0,) * n
    faces[EMPTY] = Face(EMPTY, -1, zero_label, ())
    for fid in sorted(face_ids):
        pts = [points[v] for v in fid]
        idx = linalg.affine_basis_indices(pts)
        dim = len(idx) - 1
        if simplicial and dim != len(fid) - 1:
            raise InputError(f"face {fid}: degenerate simplex realization")
        label = lcm_many([tuple(vertex_labels[v]) for v in fid])
        basis = bases.get(fid)
        if basis is None:
            basis = _pivot_basis(pts, idx)
        else:
            basis = tuple(tuple(b) for b in basis)
            _validate_basis(basis, [_direction(p, pts[0]) for p in pts[1:]], dim, fid)
        faces[fid] = Face(fid, dim, label, basis)

    # closure under vertex-set intersections (faces of a complex intersect
    # in common faces), checked between non-simplices only: the facet rule
    # below lists every vertex-drop of a listed simplex, so the listed
    # simplices are closed under subsets and a simplex meets any face in one
    listed = [fid for fid in sorted(face_ids) if len(fid) > faces[fid].dim + 1]
    for i in range(len(listed)):
        for j in range(i + 1, len(listed)):
            inter = tuple(sorted(set(listed[i]) & set(listed[j])))
            if inter and inter not in faces:
                raise InputError(
                    f"faces {listed[i]} and {listed[j]} meet in {inter}, "
                    "which is not a face of the complex"
                )

    facet_ids = {EMPTY: ()}
    for fid in sorted(face_ids):
        f = faces[fid]
        if f.dim == 0:
            facet_ids[fid] = (EMPTY,)
            continue
        if len(fid) == f.dim + 1:
            drops = (fid[:i] + fid[i + 1:] for i in range(len(fid)))
            found = [sub for sub in drops if sub in faces]
            inside = ()
        else:
            members = set(fid)
            inside = [t for t in face_ids if set(t) < members]
            candidates = [faces[t] for t in inside if faces[t].dim == f.dim - 1]
            found = [tau.vertices for tau, side in
                     zip(candidates, _facet_sides(points, f, candidates)) if side]
        if len(found) < f.dim + 1:
            raise InputError(f"face {fid}: boundary is not covered by listed faces")
        # a face inside a facet tau is checked against tau's facets in turn
        for t in inside:
            if not any(set(t) <= set(tau) for tau in found):
                raise InputError(f"face {t} lies in face {fid} but is not one of its faces")
        facet_ids[fid] = tuple(sorted(found))

    vertices = {v: (points[v], tuple(vertex_labels[v])) for v in ids}
    return LabeledCellComplex(n, vertices, faces, facet_ids)


def facet_signs(X: LabeledCellComplex, sigma_id) -> dict:
    """{facet tau of sigma: incidence sign}, in ``X.facets(sigma_id)`` order:
    the side of tau's hull on which sigma lies, from one ``_facet_sides`` call."""
    sigma, facets = X.face(sigma_id), X.facets(sigma_id)
    if sigma.dim <= 0:
        return dict.fromkeys(facets, 1)
    points = {v: X.vertex_point(v) for v in sigma_id}
    sides = _facet_sides(points, sigma, [X.face(tau) for tau in facets])
    for tau, side in zip(facets, sides):
        if side == 0:
            raise PreconditionError(f"degenerate orientation data for {tau} in {sigma_id}")
    return dict(zip(facets, sides))


def same_span_signs(reference: Face, faces) -> list:
    """Orientation of each face's basis against the reference's, for faces
    spanning the reference's subspace: the sign of det C where
    basis = C · reference basis, all from one ``linalg.orientations``
    call; a vertex has the empty basis, and sign 1."""
    if any(face.dim != reference.dim for face in faces):
        raise PreconditionError("orientation comparison needs equal dimensions")
    rows = [*reference.basis, *(v for face in faces for v in face.basis)]
    if linalg.rank(rows) != len(reference.basis):
        raise PreconditionError("orientation comparison needs equal spans")
    signs = linalg.orientations(reference.basis, [face.basis for face in faces])
    if 0 in signs:
        raise PreconditionError("degenerate orientation basis")
    return signs


def reoriented(X: LabeledCellComplex, flip_ids) -> LabeledCellComplex:
    """Copy of X with the orientation of the given faces reversed.

    The copy starts with X's stored vertex ideal and corner simplex, which
    depend only on the vertex points and labels.
    """
    faces = {}
    for fid, f in X.faces.items():
        if fid in flip_ids and f.dim >= 1:
            basis = (tuple(-x for x in f.basis[0]),) + f.basis[1:]
            faces[fid] = Face(f.vertices, f.dim, f.label, basis)
        else:
            faces[fid] = f
    copy = LabeledCellComplex(X.n, X.vertices, faces, X.facet_ids)
    copy._derived.update((name, X._derived[name])
                         for name in ("vertex_ideal", "corner_simplex_complex")
                         if name in X._derived)
    return copy


def _triangulate(X: LabeledCellComplex, fid):
    """Simplices (as vertex-id tuples) decomposing a face: cones from its
    first vertex over the simplices of the facets that miss it."""
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


@derived
def _vertex_barycentrics(X: LabeledCellComplex):
    """Homogeneous barycentric coordinates of every vertex of X against the
    corner simplex Y, and the carrier of every nonempty face whose vertices
    all have them: ({vertex: {variable: mu}}, d, {face: carrier}), with
    None for a vertex outside aff |Y|, from one solve per vertex with Y's
    vertices y_j as the columns: sum_j (mu_j / d) y_j is the vertex's
    homogeneous point.

    d > 0 depends only on Y, and lambda_j = mu_j w_j / (d w), w the vertex's
    weight and w_j the j-th corner's, has the signs and support of mu.  Y's
    vertices are affinely independent, so mu is unique and a point lies in
    the face S of Y exactly when its mu is nonnegative and supported in S.
    """
    Y = corner_simplex_complex(X)
    columns = list(zip(*(Y.vertex_point(y) for y in range(X.n))))
    solved = {v: linalg.solve(columns, X.vertex_point(v)) for v in X.vertices}
    d = next((s[1] for s in solved.values() if s), 1)
    coords = {v: s and dict(enumerate(s[0])) for v, s in solved.items()}
    carriers = {fid: _carrier(coords, fid) for fid in X.faces
                if fid and all(coords[v] is not None for v in fid)}
    return coords, d, carriers


def _carrier(coords, fid) -> tuple:
    """The union of the barycentric supports of a face's vertices: the
    smallest face of the corner simplex holding the face, once every
    vertex lies in the simplex."""
    return tuple(sorted({y for v in fid for y, c in coords[v].items() if c}))


def _mu_volume(X: LabeledCellComplex, fid, coords, span):
    """Sum over the simplices s of a face of X of |det mu_s| / prod of the
    weights of s, as (numerator, denominator); mu_s has a row of mu,
    restricted to the face ``span`` of Y containing the face, per vertex
    of s.  See refinement_failure."""
    total = (0, 1)
    for simplex in _triangulate(X, fid):
        volume = abs(linalg.det([[coords[v][y] for y in span] for v in simplex]))
        weight = prod(X.vertex_point(v)[-1] for v in simplex)
        total = _add_ratio(total, (volume, weight))
    return total


def _add_ratio(x, y):
    """The sum of the ratios (a, b) and (c, e), over lcm(b, e)."""
    (a, b), (c, e) = x, y
    common = lcm(b, e)
    return a * (common // b) + c * (common // e), common


@derived
def refinement_failure(X: LabeledCellComplex):
    """Why X does not refine its corner simplex Y, or None if it does.

    Reads the barycentric coordinates of X's vertices and the carriers of
    its faces once.  For a face f, the carrier U(f), the union of its
    vertices' supports, is the smallest face of Y containing f.  X refines
    Y when every vertex lies in |Y|, each label of f divides the label of
    U(f), and the faces f with |U(f)| = dim f + 1 cover each face of Y with
    relative volume exactly 1.

    That volume is the sum, over the k-simplices s triangulating those
    faces, of |det lambda_s|, the rows the barycentric coordinates of the
    vertices of s restricted to the k + 1 vertices of U(f).  With
    lambda_j = mu_j w_j / (d w_v) it is 1 exactly when
    sum_s |det mu_s| / prod_{v in s} w_v = d^(k+1) / prod_{y in U(f)} w_y,
    an integer identity after cross-multiplication.
    """
    Y = corner_simplex_complex(X)
    coords, d, carriers = _vertex_barycentrics(X)
    for v in sorted(X.vertices):
        if coords[v] is None or min(coords[v].values()) < 0:
            return f"vertex {v} lies outside the simplex"
    covered = {}
    for fid in sorted(X.faces):
        f = X.face(fid)
        if f.dim < 0:
            continue
        span = carriers[fid]
        if not divides(f.label, Y.face(span).label):
            return f"label of face {fid} does not divide the label of {span}"
        if len(span) == f.dim + 1:
            covered[span] = _add_ratio(
                covered.get(span, (0, 1)), _mu_volume(X, fid, coords, span)
            )
    for sid in sorted(Y.faces):
        if not sid:
            continue
        total, den = covered.get(sid, (0, 1))
        corner_weight = prod(Y.vertex_point(y)[-1] for y in sid)
        scale = d ** len(sid)
        if total * corner_weight != scale * den:
            volume = _fraction_str(total * corner_weight, scale * den)
            return f"face {sid} is covered with volume {volume.removesuffix('/1')}"
    return None


@derived
def carried_faces(X: LabeledCellComplex) -> dict:
    """{face S of the corner simplex Y: the faces of X of S's dimension
    inside S}; X must refine Y.

    One pass over X's faces takes each face's carrier, the smallest face of
    Y holding it, and its label support.  A face lies in S when its carrier
    does, and on a genuine refinement when its label support does; the
    first face (by dimension, face of Y, face of X) where the two disagree
    is refused.
    """
    failure = refinement_failure(X)
    if failure is not None:
        raise PreconditionError(f"complex does not refine the corner simplex: {failure}")
    levels = {}
    for fid, carrier in _vertex_barycentrics(X)[2].items():
        face = X.face(fid)
        support = {i for i, e in enumerate(face.label) if e}
        levels.setdefault(face.dim, []).append((fid, set(carrier), support))
    carried = {}
    for sid in sorted(corner_simplex_complex(X).faces, key=lambda s: (len(s), s))[1:]:
        members = set(sid)
        level = levels.get(len(sid) - 1, ())
        inside = {fid for fid, carrier, _ in level if carrier <= members}
        labeled = {fid for fid, _, support in level if support <= members}
        if inside != labeled:
            raise PreconditionError(
                f"support and geometry disagree on {min(inside ^ labeled)}: "
                "X does not refine the simplex"
            )
        carried[sid] = sorted(inside)
    return carried


def _corner_vertex_ids(X: LabeledCellComplex) -> tuple:
    """Per variable i, the first vertex labeled z_i^{b_i}, a pure power of
    X's ideal; every minimal generator is a vertex label."""
    b = pure_power_exponents(vertex_ideal(X))
    powers = [tuple(bi if j == i else 0 for j in range(X.n)) for i, bi in enumerate(b)]
    return tuple(min(v for v in X.vertices if X.vertex_label(v) == p) for p in powers)


def _subsets(r):
    """The nonempty subsets of range(r) as sorted tuples, in bit-mask order."""
    return [tuple(i for i in range(r) if mask >> i & 1) for mask in range(1, 1 << r)]


@derived
def corner_simplex_complex(X: LabeledCellComplex) -> LabeledCellComplex:
    """The simplex complex on X's corner vertices, labeled by the pure powers
    of X's ideal.

    Vertex ids are the variable indices, so faces are subsets of 0..n-1.
    """
    corners = _corner_vertex_ids(X)
    points = {i: X.vertex_point(v) for i, v in enumerate(corners)}
    labels = {i: X.vertex_label(v) for i, v in enumerate(corners)}
    return make_complex(X.n, points, labels, _subsets(X.n), simplicial=True)


def orient_tops_to(X: LabeledCellComplex, reference: Face) -> LabeledCellComplex:
    """Flip top-dimensional faces so each agrees with the reference orientation."""
    tops = X.faces_of_dim(X.dim)
    signs = same_span_signs(reference, [X.face(fid) for fid in tops])
    flips = {fid for fid, sign in zip(tops, signs) if sign < 0}
    return reoriented(X, flips) if flips else X


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


def _json_objects(value, what):
    if not (isinstance(value, list) and all(isinstance(e, dict) for e in value)):
        raise InputError(f"complex {what} must be a list of objects")
    return value


def _json_ints(value, what):
    if not (isinstance(value, list) and all(is_int(x) for x in value)):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def _json_rational(x):
    if is_int(x):
        return x
    if isinstance(x, str):
        from fractions import Fraction
        try:
            # Fraction("1e10000000") computes 10**10000000: the mantissa's
            # digits and the exponent bound the digits of the exact value,
            # refused past the int-string limit that caps JSON integers too
            mantissa, _, exponent = x.lower().partition("e")
            size = sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0))
            if 0 < (limit := sys.get_int_max_str_digits()) < size:
                raise InputError(f"coordinate {x!r} needs more than {limit} digits")
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"coordinate {x!r} is neither an integer nor a rational string")


def _json_point(value, what) -> tuple:
    """The homogeneous vector of a list of JSON coordinates."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of coordinates")
    return _homogeneous([_json_rational(c) for c in value])


def complex_from_json(obj) -> LabeledCellComplex:
    """Load a complex from its JSON form; see complex_to_json for the shape.

    Coordinates are integers or exact rational strings, ids are integers and
    labels are lists of n nonnegative integers.  Faces with omitted bases get
    the deterministic orientation rule; if the labels carry a full set of
    pure powers and the top faces span the corresponding simplex, top faces
    are flipped to agree with it.
    """
    if not isinstance(obj, dict) or not {"vertices", "faces"} <= set(obj):
        raise InputError('complex JSON needs "vertices" and "faces"')
    extra = set(obj) - {"vertices", "faces", "n", "schema"}
    if extra:
        raise InputError(f"complex JSON has unknown keys: {sorted(extra)}")
    points, labels = {}, {}
    for entry in _json_objects(obj["vertices"], "vertices"):
        if set(entry) != {"id", "coords", "label"}:
            raise InputError('complex vertices need exactly "id", "coords", "label"')
        vid = entry["id"]
        if not is_int(vid):
            raise InputError(f"vertex id {vid!r} is not an integer")
        if vid in points:
            raise InputError(f"duplicate vertex id {vid}")
        points[vid] = _json_point(entry["coords"], f"vertex {vid}: coords")
        labels[vid] = _json_ints(entry["label"], f"vertex {vid}: label")
    n = obj.get("n", len(next(iter(labels.values()))) if labels else 0)
    if not is_int(n):
        raise InputError(f"complex n must be an integer, got {n!r}")
    face_sets = []
    bases = {}
    for entry in _json_objects(obj["faces"], "faces"):
        unknown = set(entry) - {"vertices", "orientation_basis", "dim", "label"}
        if unknown:
            raise InputError(f"complex face has unknown keys: {sorted(unknown)}")
        if "vertices" not in entry:
            raise InputError('complex faces need "vertices"')
        fid = tuple(sorted(_json_ints(entry["vertices"], "face vertices")))
        face_sets.append(fid)
        if "orientation_basis" in entry:
            rows = entry["orientation_basis"]
            if not isinstance(rows, list):
                raise InputError(f"face {fid}: orientation basis must be a list")
            # a positive scale of a basis vector keeps the orientation
            bases[fid] = [_json_point(row, f"face {fid}: basis vector")[:-1]
                          for row in rows]
    X = make_complex(n, points, labels, face_sets, bases=bases)
    for entry in obj["faces"]:
        fid = tuple(sorted(entry["vertices"]))
        if "label" in entry:
            stated = _json_ints(entry["label"], f"face {fid}: label")
            if stated != X.face(fid).label:
                raise InputError(f"face {fid}: stated label disagrees with the vertex lcm")
        if "dim" in entry and not is_int(entry["dim"]):
            raise InputError(f"face {fid}: dim must be an integer, got {entry['dim']!r}")
        if "dim" in entry and entry["dim"] != X.face(fid).dim:
            raise InputError(f"face {fid}: stated dimension disagrees with the geometry")
    return _orient_tops_by_pure_powers(X)


def _orient_tops_by_pure_powers(X: LabeledCellComplex) -> LabeledCellComplex:
    """Apply the canonical top orientation when the corner simplex is visible:
    the one of the top face of ``corner_simplex_complex``, oriented by
    ascending variable order."""
    if X.dim != X.n - 1:
        return X
    try:
        return orient_tops_to(X, corner_simplex_complex(X).face(tuple(range(X.n))))
    except (InputError, PreconditionError):  # no pure powers, or dependent corners
        return X
