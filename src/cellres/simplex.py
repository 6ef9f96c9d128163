"""A complex against its corner simplex.

The corner simplex Y of a complex X is the simplex on X's vertices labeled
by the pure powers z_i^{b_i} of its ideal.  This module builds Y and reads
X against it once, by the barycentric coordinates of X's vertices: each
face's carrier, and the relative volume and orientation of each face that
spans its carrier.  So it tests whether X refines Y, files X's faces under
the faces of Y that carry them, each with its orientation, and flips a
complex's top faces to the simplex orientation.  The comparison maps of
``residue`` read everything here, and the embedded hull and the complex-file
reader read the flip; building a hull, Scarf or Taylor complex needs none.
"""

from math import lcm, prod

from . import linalg
from .cellcomplex import (
    LabeledCellComplex,
    _fraction_str,
    _subsets,
    derived,
    make_complex,
    vertex_ideal,
)
from .errors import InputError, PreconditionError
from .monomial import divides, pure_power_exponents


def _corner_vertex_ids(X: LabeledCellComplex) -> tuple:
    """Per variable i, the first vertex labeled z_i^{b_i}, a pure power of
    X's ideal; every minimal generator is a vertex label."""
    b = pure_power_exponents(vertex_ideal(X))
    powers = [tuple(bi if j == i else 0 for j in range(X.n)) for i, bi in enumerate(b)]
    return tuple(min(v for v in X.vertices if X.vertex_label(v) == p) for p in powers)


@derived
def corner_simplex_complex(X: LabeledCellComplex) -> LabeledCellComplex:
    """The simplex complex on X's corner vertices, labeled by the pure powers
    of X's ideal.

    Vertex ids are the variable indices, so faces are subsets of 0..n-1;
    a refusal names the corners by X's vertex ids.
    """
    corners = _corner_vertex_ids(X)
    points = {i: X.vertex_point(v) for i, v in enumerate(corners)}
    labels = {i: X.vertex_label(v) for i, v in enumerate(corners)}
    try:
        return make_complex(X.n, points, labels, _subsets(X.n))
    except InputError as exc:
        raise InputError(f"the pure-power corners (vertex ids {', '.join(map(str, corners))}) "
                         "span no simplex") from exc


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
    corner simplex Y: ({vertex: mu}, d), mu a tuple indexed by variable and
    None for a vertex outside aff |Y|, such that sum_j (mu_j / d) y_j is
    the vertex's homogeneous point, y_j the vertices of Y.

    Each vertex v takes one ``linalg.kernel_vector`` of the matrix with
    columns y_0, ..., y_{n-1}, v.  Y's vertices are independent, so they
    are the pivot columns and v's entry is the last pivot P, which depends
    on Y only: d = |P| > 0, and mu is minus the other entries, taken with
    the sign of P.  Rank n + 1, no kernel vector, puts v off aff |Y|.

    lambda_j = mu_j w_j / (d w), w the vertex's weight and w_j the j-th
    corner's, has the signs and support of mu.  Y's vertices are affinely
    independent, so mu is unique and a point lies in the face S of Y
    exactly when its mu is nonnegative and supported in S.
    """
    Y = corner_simplex_complex(X)
    corners = [Y.vertex_point(y) for y in range(X.n)]
    kernels = {v: linalg.kernel_vector(list(zip(*corners, X.vertex_point(v))), X.n + 1)
               for v in X.vertices}
    d = next(abs(x[-1]) for x in kernels.values() if x)
    coords = {v: x and tuple(-c if x[-1] > 0 else c for c in x[:-1])
              for v, x in kernels.items()}
    return coords, d


def _carrier(coords, fid) -> tuple:
    """The union of the barycentric supports of a face's vertices: the
    smallest face of the corner simplex holding the face, once every
    vertex lies in the simplex."""
    return tuple(sorted({y for v in fid for y, c in enumerate(coords[v]) if c}))


def _orientation(X: LabeledCellComplex, fid, coords, span, det=None) -> int:
    """The orientation, +1 or -1, of a face against the face ``span`` of
    Y, which holds the face and has its dimension: its flip times the sign
    of its pivot basis against span's.

    The pivot basis is (q_0 - q_k, ..., q_{k-1} - q_k) = C . B up to
    positive scales, q_i the pivot vertices X keeps and B span's pivot basis.
    det C, the determinant of the q_i's barycentric coordinates on span,
    has the sign of det mu over the q_i: ``det`` for a simplex, if given.
    """
    face, pivots = X.face(fid), X.pivots.get(fid)
    if pivots or det is None:
        det = linalg.det([[coords[v][y] for y in span] for v in pivots or fid])
    return -face.flip if det < 0 else face.flip


def _add_ratio(x, y):
    """The sum of the ratios (a, b) and (c, e), over lcm(b, e)."""
    (a, b), (c, e) = x, y
    common = lcm(b, e)
    return a * (common // b) + c * (common // e), common


@derived
def _covering(X: LabeledCellComplex):
    """({nonempty face of X: its carrier}, {face S of Y: the sum over the faces
    f of X with carrier S and dim f + 1 = |S|, and over the simplices s
    triangulating them, of |det mu_s| / prod of the weights of s, as
    (numerator, denominator)}, {each such f: its orientation against S}), mu_s
    with a row of mu, restricted to S, per vertex of s; every vertex must have
    coordinates.  See refinement_failure."""
    coords = _vertex_barycentrics(X)[0]
    carriers, covered, orientations = {}, {}, {}
    for fid in filter(None, X.faces):
        span = carriers[fid] = _carrier(coords, fid)
        if len(span) == X.face(fid).dim + 1:
            for simplex in _triangulate(X, fid):
                det = linalg.det([[coords[v][y] for y in span] for v in simplex])
                weight = prod(X.vertex_point(v)[-1] for v in simplex)
                covered[span] = _add_ratio(covered.get(span, (0, 1)), (abs(det), weight))
            orientations[fid] = _orientation(X, fid, coords, span, det)
    return carriers, covered, orientations


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
    coords, d = _vertex_barycentrics(X)
    for v in sorted(X.vertices):
        if coords[v] is None or min(coords[v]) < 0:
            return f"vertex {v} lies outside the simplex"
    carriers, covered, _ = _covering(X)
    for fid in sorted(carriers):
        if not divides(X.face(fid).label, Y.face(carriers[fid]).label):
            return f"label of face {fid} does not divide the label of {carriers[fid]}"
    for sid in sorted(Y.faces)[1:]:  # the empty face sorts first
        total, den = covered.get(sid, (0, 1))
        corner_weight = prod(Y.vertex_point(y)[-1] for y in sid)
        scale = d ** len(sid)
        if total * corner_weight != scale * den:
            volume = _fraction_str(total * corner_weight, scale * den)
            return f"face {sid} is covered with volume {volume.removesuffix('/1')}"
    return None


@derived
def carried_faces(X: LabeledCellComplex) -> dict:
    """{face S of the corner simplex Y: {face of X of S's dimension inside
    S: its orientation against S}}; X must refine Y.

    One pass over X's faces takes each face's carrier, the smallest face of
    Y holding it, and its label support.  A face lies in S when its carrier
    does, and on a genuine refinement when its label support does; the
    first face (by dimension, face of Y, face of X) where the two disagree
    is refused.  Each face's orientation was read with its volume.
    """
    failure = refinement_failure(X)
    if failure is not None:
        raise PreconditionError(f"complex does not refine the corner simplex: {failure}")
    carriers, _, orientations = _covering(X)
    levels = {}
    for fid, carrier in carriers.items():
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
        carried[sid] = {fid: orientations[fid] for fid in sorted(inside)}
    return carried


def reoriented(X: LabeledCellComplex, flip_ids) -> LabeledCellComplex:
    """Copy of X with the orientation of the given faces reversed, or X
    itself when no face of dimension 1 or more is among them.

    A flip negates the face's ``flip``.  A filed incidence sign changes
    where exactly one of the face and its facet is flipped.  The copy
    shares X's pivot table and starts with X's stored vertex ideal, corner
    simplex and barycentric coordinates, which depend only on the vertex
    points, labels and face sets, and not with any orientation.
    """
    flipped = {fid for fid, f in X.faces.items() if fid in flip_ids and f.dim >= 1}
    if not flipped:
        return X
    faces = {fid: f._replace(flip=-f.flip) if fid in flipped else f
             for fid, f in X.faces.items()}
    facet_ids = {sigma: {tau: -s if (sigma in flipped) != (tau in flipped) else s
                         for tau, s in signs.items()}
                 for sigma, signs in X.facet_ids.items()}
    copy = LabeledCellComplex(X.n, X.vertices, faces, facet_ids, X.pivots)
    copy._derived.update((name, X._derived[name]) for name in (
        "vertex_ideal", "corner_simplex_complex", "_vertex_barycentrics") if name in X._derived)
    return copy


def orient_tops(X: LabeledCellComplex) -> LabeledCellComplex:
    """Flip top-dimensional faces so each agrees with the top face of X's
    corner simplex, oriented by ascending variable order (``_orientation``);
    the tops must have its dimension and lie in its affine hull."""
    coords = _vertex_barycentrics(X)[0]
    tops = X.faces_of_dim(X.dim)
    if X.dim != X.n - 1 or any(coords[v] is None for fid in tops for v in fid):
        raise PreconditionError("the top faces do not lie in the corner simplex's affine hull")
    return reoriented(X, {fid for fid in tops if _orientation(X, fid, coords, range(X.n)) < 0})
