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

from __future__ import annotations

from collections import namedtuple
from functools import wraps
from math import gcd, lcm, prod

from . import linalg
from .errors import InputError, PreconditionError
from .monomial import divides, is_int, lcm_many

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

    def __init__(self, n, vertices, faces, facet_ids, lift_base=None):
        self.n = n
        self.vertices = vertices
        self.faces = faces
        self.facet_ids = facet_ids
        self.lift_base = lift_base
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

    def face_points(self, fid):
        return [self.vertex_point(v) for v in self.faces[fid].vertices]


def derived(build):
    """Build ``build(X, *args)`` once per complex and share the result.

    List arguments are turned into tuples, and the result is stored on X
    under the function's name and the arguments.  X is immutable, so the
    result stays valid; a caller that changes a result copies it first.  A
    call that raises stores nothing.
    """
    name = build.__name__

    @wraps(build)
    def memo(X, *args):
        args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
        key = (name, *args)
        if key not in X._derived:
            X._derived[key] = build(X, *args)
        return X._derived[key]

    return memo


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


def _face_dirs(points):
    return [_direction(p, points[0]) for p in points[1:]]


def _orthogonal_residual(v, dirs):
    """A positive multiple of the component of v orthogonal to span(dirs),
    from one solve of the Gram system (dirs^T dirs) c = dirs^T v."""
    gram = [[linalg.dot(a, b) for b in dirs] for a in dirs]
    coeffs, d = linalg.solve(gram, [linalg.dot(a, v) for a in dirs])
    return tuple(
        d * x - sum(c * e[i] for c, e in zip(coeffs, dirs) if c)
        for i, x in enumerate(v)
    )


def _geometric_facets(points_by_vertex, sigma_ids, candidates):
    """Facet candidates of a face, by exact supporting-flat tests.

    ``candidates`` are vertex-id tuples inside the face, one dimension
    lower; a candidate is a facet when the face lies weakly on one side of
    its affine hull and touches it exactly in the candidate's vertices.
    The side is the one of (sum of x, sum of w), the homogeneous sum of
    the face's vertices, which is a point of its relative interior.
    """
    inner = tuple(map(sum, zip(*(points_by_vertex[v] for v in sigma_ids))))
    facets = []
    for tau in candidates:
        tau_pts = [points_by_vertex[v] for v in tau]
        normal = _orthogonal_residual(
            _direction(inner, tau_pts[0]), _face_dirs(tau_pts)
        )
        if not any(normal):
            continue
        values = {
            v: linalg.dot(normal, _direction(points_by_vertex[v], tau_pts[0]))
            for v in sigma_ids
        }
        if all(val >= 0 for val in values.values()) and set(tau) == {
            v for v, val in values.items() if val == 0
        }:
            facets.append(tau)
    return facets


def make_complex(
    n,
    vertex_points,
    vertex_labels,
    face_sets,
    bases=None,
    lift_base=None,
    simplicial=False,
):
    """Assemble a labeled complex from vertex data and face vertex sets.

    Points are homogeneous integer vectors with a positive last entry, any
    positive multiple naming the same point; bases are integer vectors.
    Singleton faces and the empty face are added automatically.  A face's
    facets are its listed faces of one dimension less: all of them for a
    simplex, where each is the simplex minus one vertex, and otherwise those
    passing ``_geometric_facets``; they must cover the boundary.  With
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
            _validate_basis(basis, _face_dirs(pts), dim, fid)
        faces[fid] = Face(fid, dim, label, basis)

    # closure under vertex-set intersections (faces of a complex intersect
    # in common faces)
    listed = sorted(face_ids)
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
        else:
            members = set(fid)
            found = [t for t, g in faces.items() if g.dim == f.dim - 1 and set(t) < members]
            found = _geometric_facets(points, fid, found)
        if len(found) < f.dim + 1:
            raise InputError(f"face {fid}: boundary is not covered by listed faces")
        facet_ids[fid] = tuple(sorted(found))

    vertices = {v: (points[v], tuple(vertex_labels[v])) for v in ids}
    return LabeledCellComplex(n, vertices, faces, facet_ids, lift_base=lift_base)


def sign_facet(X: LabeledCellComplex, tau_id, sigma_id) -> int:
    """Incidence sign of a facet: orientation of (inward normal, facet basis)
    against the face's orientation."""
    sigma = X.face(sigma_id)
    if tau_id not in X.facets(sigma_id):
        raise PreconditionError(f"{tau_id} is not a facet of {sigma_id}")
    if sigma.dim == 0:
        return 1
    # The inward direction is from tau's first vertex to the first vertex of
    # sigma outside tau, which lies strictly on sigma's side of tau.  It
    # need not be projected off tau's span: adding a combination of tau's
    # basis to it leaves the determinant unchanged, and neither does a
    # positive scale.
    outside = next(v for v in sigma.vertices if v not in tau_id)
    eta = _direction(X.vertex_point(outside), X.vertex_point(tau_id[0]))
    columns = (eta,) + X.face(tau_id).basis
    sign = linalg.det_sign([[linalg.dot(b, c) for c in columns] for b in sigma.basis])
    if sign == 0:
        raise PreconditionError(f"degenerate orientation data for {tau_id} in {sigma_id}")
    return sign


def sign_same_span(face_a: Face, face_b: Face) -> int:
    """Orientation comparison of two faces spanning the same subspace."""
    if face_a.dim != face_b.dim:
        raise PreconditionError("orientation comparison needs equal dimensions")
    if face_a.dim <= 0:
        return 1
    if linalg.rank(face_a.basis + face_b.basis) != face_a.dim:
        raise PreconditionError("orientation comparison needs equal spans")
    sign = linalg.basis_change_det_sign(face_a.basis, face_b.basis)
    if sign == 0:
        raise PreconditionError("degenerate orientation basis")
    return sign


def reoriented(X: LabeledCellComplex, flip_ids) -> LabeledCellComplex:
    """Copy of X with the orientation of the given faces reversed."""
    faces = {}
    for fid, f in X.faces.items():
        if fid in flip_ids and f.dim >= 1:
            basis = (tuple(-x for x in f.basis[0]),) + f.basis[1:]
            faces[fid] = Face(f.vertices, f.dim, f.label, basis)
        else:
            faces[fid] = f
    return LabeledCellComplex(X.n, X.vertices, faces, X.facet_ids,
                              lift_base=X.lift_base)


def barycentric_coordinates(point, simplex_points):
    """One homogeneous solve of point against the simplex vertices:
    (mu, d) with d > 0, or None when the point is outside their affine
    hull.

    The simplex vertices y_j are the columns, so sum_j (mu_j / d) y_j is
    the homogeneous point; the barycentric coordinates are
    lambda_j = mu_j w_j / (d w), with w the point's weight and w_j the
    j-th vertex's, and have the signs and the support of mu.  d depends
    only on the simplex.
    """
    return linalg.solve(list(zip(*simplex_points)), point)


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


def _check_simplex_complex(Y: LabeledCellComplex):
    ids = sorted(Y.vertices)
    m = len(ids)
    if len(linalg.affine_basis_indices([Y.vertex_point(v) for v in ids])) != m:
        raise PreconditionError("reference complex vertices are affinely dependent")
    expected = 2 ** m
    if len(Y.faces) != expected or tuple(ids) not in Y.faces:
        raise PreconditionError("reference complex is not the face set of one simplex")


@derived
def _vertex_barycentrics(X: LabeledCellComplex, Y: LabeledCellComplex):
    """Homogeneous barycentric coordinates of every vertex of X against the
    simplex complex Y: ({vertex: {vertex id of Y: mu}}, d), with None for a
    vertex outside aff |Y|; see barycentric_coordinates.

    One solve per vertex.  Y's vertices are affinely independent, so mu is
    unique and a point lies in the face S of Y exactly when its mu is
    nonnegative and supported in S.
    """
    _check_simplex_complex(Y)
    ids = sorted(Y.vertices)
    points = [Y.vertex_point(y) for y in ids]
    solved = {v: barycentric_coordinates(X.vertex_point(v), points) for v in X.vertices}
    d = next((s[1] for s in solved.values() if s), 1)
    return {v: s and dict(zip(ids, s[0])) for v, s in solved.items()}, d


def _in_face(mu, members) -> bool:
    return (
        mu is not None
        and all(c >= 0 for c in mu.values())
        and all(y in members for y, c in mu.items() if c)
    )


def _mu_volume(X: LabeledCellComplex, fid, coords, span):
    """Sum over the simplices s of a face of X of |det mu_s| / prod of the
    weights of s, as (numerator, denominator); mu_s has a row of mu,
    restricted to the face ``span`` of Y containing the face, per vertex
    of s.  See _refinement_failure."""
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


def _refinement_failure(X: LabeledCellComplex, Y: LabeledCellComplex):
    """Why X does not refine the simplex complex Y, or None if it does.

    Reads the barycentric coordinates of X's vertices once.  For a face f,
    the union U(f) of its vertices' supports is the smallest face of Y
    containing f.  X refines Y when every vertex lies in |Y|, each label of
    f divides the label of U(f), and the faces f with |U(f)| = dim f + 1
    cover each face of Y with relative volume exactly 1.

    That volume is the sum, over the k-simplices s triangulating those
    faces, of |det lambda_s|, the rows the barycentric coordinates of the
    vertices of s restricted to the k + 1 vertices of U(f).  With
    lambda_j = mu_j w_j / (d w_v) it is 1 exactly when
    sum_s |det mu_s| / prod_{v in s} w_v = d^(k+1) / prod_{y in U(f)} w_y,
    an integer identity after cross-multiplication.
    """
    coords, d = _vertex_barycentrics(X, Y)
    for v in sorted(X.vertices):
        if not _in_face(coords[v], Y.vertices):
            return f"vertex {v} lies outside the simplex"
    covered = {}
    for fid in sorted(X.faces):
        f = X.face(fid)
        if f.dim < 0:
            continue
        span = tuple(sorted({y for v in fid for y, c in coords[v].items() if c}))
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


def is_refinement(X: LabeledCellComplex, Y: LabeledCellComplex) -> bool:
    """Whether X subdivides the simplex complex Y compatibly with labels.

    Checks that X covers |Y| exactly (vertices inside, volumes adding up
    facewise) and that geometric containment implies label divisibility;
    see _refinement_failure.
    """
    return _refinement_failure(X, Y) is None


def _simplex_variable(Y: LabeledCellComplex, vid) -> int:
    label = Y.vertex_label(vid)
    support = [i for i, e in enumerate(label) if e > 0]
    if len(support) != 1:
        raise PreconditionError("reference vertex labels must be pure powers")
    return support[0]


def contained_faces(Y: LabeledCellComplex, sigma_id, X: LabeledCellComplex, k) -> list:
    """Faces of X of dimension k inside a k-face of the reference simplex.

    Combines the label-support test with barycentric containment, a support
    test on the vertices' barycentric coordinates; the two agree on genuine
    refinements.
    """
    sigma = Y.face(sigma_id)
    if sigma.dim != k:
        raise PreconditionError("contained-face query needs a face of dimension k")
    allowed = {_simplex_variable(Y, v) for v in sigma.vertices}
    coords = _vertex_barycentrics(X, Y)[0]
    result = []
    for fid in X.faces_of_dim(k):
        support_ok = all(
            i in allowed
            for v in fid
            for i, e in enumerate(X.vertex_label(v))
            if e > 0
        )
        geometric_ok = all(_in_face(coords[v], sigma.vertices) for v in fid)
        if support_ok != geometric_ok:
            raise PreconditionError(
                f"support and geometry disagree on {fid}: X does not refine the simplex"
            )
        if support_ok:
            result.append(fid)
    return result


def _corner_vertex_ids(X: LabeledCellComplex, b):
    corners = {}
    for v in sorted(X.vertices):
        label = X.vertex_label(v)
        support = [i for i, e in enumerate(label) if e > 0]
        if len(support) == 1 and label[support[0]] == b[support[0]]:
            corners.setdefault(support[0], v)
    missing = [i for i in range(X.n) if i not in corners]
    if missing:
        raise PreconditionError(
            f"pure powers for variables {missing} are not among the vertex labels"
        )
    return corners


def reference_simplex_face(X: LabeledCellComplex, b) -> Face:
    """Top face of the corner simplex, oriented by ascending variable order."""
    corners = _corner_vertex_ids(X, b)
    pts = [X.vertex_point(corners[i]) for i in range(X.n)]
    idx = linalg.affine_basis_indices(pts)
    if len(idx) != X.n:
        raise PreconditionError("corner points are affinely dependent")
    return Face(
        tuple(corners[i] for i in range(X.n)),
        X.n - 1,
        tuple(b),
        _pivot_basis(pts, idx),
    )


def orient_tops_to(X: LabeledCellComplex, reference: Face) -> LabeledCellComplex:
    """Flip top-dimensional faces so each agrees with the reference orientation."""
    flips = {
        fid
        for fid in X.faces_of_dim(X.dim)
        if sign_same_span(X.face(fid), reference) < 0
    }
    return reoriented(X, flips) if flips else X


def _fraction_str(a, b) -> str:
    g = gcd(a, b)
    return f"{a // g}/{b // g}"


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
    b is read off the first single-support vertex label of each variable."""
    if X.dim != X.n - 1:
        return X
    b = [0] * X.n
    for v in sorted(X.vertices):
        support = [i for i, e in enumerate(X.vertex_label(v)) if e > 0]
        if len(support) == 1 and not b[support[0]]:
            b[support[0]] = X.vertex_label(v)[support[0]]
    try:
        return orient_tops_to(X, reference_simplex_face(X, b))
    except PreconditionError:
        return X
