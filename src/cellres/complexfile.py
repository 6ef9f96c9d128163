"""The complex-file reader: a labeled complex from its JSON form.

``cellcomplex.complex_to_json`` writes the form; ``--complex file:`` jobs
read it.
"""

import sys

from . import linalg
from .cellcomplex import LabeledCellComplex, _homogeneous, _pivot_basis, make_complex
from .errors import InputError, PreconditionError
from .monomial import is_int
from .simplex import orient_tops, reoriented


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


def _basis_sign(X: LabeledCellComplex, fid, basis) -> int:
    """The orientation of a given basis against the pivot basis of the
    unflipped face fid of X, on the pivots X keeps: +1 or -1, or an
    ``InputError`` naming the fault.  The vectors are integers (``_json_point``);
    the empty face, like a vertex, takes only the empty basis."""
    dim = max(X.face(fid).dim, 0)
    if len(basis) != dim:
        raise InputError(f"face {fid}: orientation basis must have {dim} vectors")
    if dim == 0:
        return 1
    pivot = _pivot_basis([X.vertex_point(v) for v in X.pivots.get(fid, fid)])
    if any(len(b) != len(pivot[0]) for b in basis):
        raise InputError(
            f"face {fid}: basis vectors must be integer vectors of the ambient dimension"
        )
    if linalg.rank(basis) != dim:
        raise InputError(f"face {fid}: degenerate orientation basis")
    if linalg.rank(pivot + basis) != dim:
        raise InputError(f"face {fid}: basis vector outside the face's span")
    return linalg.orientations(pivot, [basis])[0]


def complex_from_json(obj) -> LabeledCellComplex:
    """Load a complex from its JSON form; see complex_to_json for the shape.

    Coordinates are integers or exact rational strings, ids are integers and
    labels are lists of n nonnegative integers.  Every face is built
    unflipped, on its pivot basis (``make_complex``); a face's
    ``orientation_basis``, which must span the face, sets only its
    orientation against that basis, and the faces where the two disagree
    are flipped (``reoriented``).  A face listed twice is refused.  If the
    labels carry a full set of pure powers and the top faces lie in the
    corresponding simplex's affine hull, top faces are then flipped to
    agree with it.
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
    face_sets = set()
    bases = {}
    for entry in _json_objects(obj["faces"], "faces"):
        unknown = set(entry) - {"vertices", "orientation_basis", "dim", "label"}
        if unknown:
            raise InputError(f"complex face has unknown keys: {sorted(unknown)}")
        if "vertices" not in entry:
            raise InputError('complex faces need "vertices"')
        fid = tuple(sorted(_json_ints(entry["vertices"], "face vertices")))
        if fid in face_sets:
            raise InputError(f"face {fid} is listed twice")
        face_sets.add(fid)
        if "orientation_basis" in entry:
            rows = entry["orientation_basis"]
            if not isinstance(rows, list):
                raise InputError(f"face {fid}: orientation basis must be a list")
            # a positive scale of a basis vector keeps the orientation
            bases[fid] = tuple(_json_point(row, f"face {fid}: basis vector")[:-1]
                               for row in rows)
    X = make_complex(n, points, labels, face_sets)
    X = reoriented(X, {fid for fid in sorted(bases) if _basis_sign(X, fid, bases[fid]) < 0})
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
    try:
        return orient_tops(X)
    except (InputError, PreconditionError):  # no corner simplex, or tops off its hull
        return X
