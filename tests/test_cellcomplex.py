from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from cellres import (
    InputError,
    PreconditionError,
    carried_faces,
    complex_from_json,
    complex_to_json,
    corner_simplex_complex,
    homogeneous,
    hull_complex,
    lcm,
    linalg,
    make_complex,
    minimize,
    refinement_failure,
    residue_current,
    reoriented,
    scarf_complex,
    simplex,
    taylor_complex,
    vertex_ideal,
)
from cellres.cellcomplex import (
    Face,
    _facet_sides,
    _subsets,
)
from cellres.simplex import _vertex_barycentrics
from conftest import (
    DUPLICATE_CORNER_JSON,
    EX61_GENERATORS,
    FIXED_CORPUS,
    artinian_ideals,
    artinian_ideals_2_to_4,
    embedded_hull,
    maximal_ideal_power,
    random_complete_intersection,
    random_generic_ideal_3,
    random_staircase_ideal,
    sign_corpus,
    without_face,
)
from oracles import (
    _face_points,
    _is_geometric_facet,
    affine,
    all_pairs_intersection_failure,
    bareiss_solve,
    cofaces,
    face_volume_rel,
    fraction_solve,
    gram_pivots,
    oriented_oracle,
    pairwise_contained_faces,
    pairwise_is_refinement,
    point_in_simplex,
    same_span_orientation,
    sign_oracle,
    subcomplex_leq,
)


def homogeneous_points(points):
    return {v: homogeneous(p) for v, p in points.items()}


TRIANGLE_POINTS = {0: (0, 0), 1: (1, 0), 2: (0, 1)}
TRIANGLE_LABELS = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
TRIANGLE_FACES = [(0, 1, 2), (0, 1), (0, 2), (1, 2)]


def triangle_complex():
    return make_complex(3, homogeneous_points(TRIANGLE_POINTS), TRIANGLE_LABELS,
                        TRIANGLE_FACES)


def triangle_file(bases):
    """The triangle complex read from its complex file, with the given
    orientation bases."""
    return complex_from_json({
        "vertices": [{"id": v, "coords": list(p), "label": list(TRIANGLE_LABELS[v])}
                     for v, p in TRIANGLE_POINTS.items()],
        "faces": [{"vertices": list(fid), **({"orientation_basis": bases[fid]}
                                             if fid in bases else {})}
                  for fid in TRIANGLE_FACES],
    })


def test_simplex_facet_signs_match_vertex_removal():
    X = triangle_complex()
    assert X.facet_ids[0, 1, 2] == {
        (0, 1): 1,
        (0, 2): -1,  # removing the second vertex
        (1, 2): 1,   # removing the first
    }
    assert X.facets((0, 1, 2)) == ((0, 1), (0, 2), (1, 2))


def test_edge_facet_signs():
    X = triangle_complex()
    assert X.facet_ids[0, 1] == {(0,): -1, (1,): 1}
    assert X.facet_ids[0,] == {(): 1}
    assert X.facet_ids[()] == {}


def test_sign_same_span():
    X = triangle_complex()
    basis = sign_oracle(X).bases
    top = basis[0, 1, 2]
    assert same_span_orientation(top, top) == 1
    swapped = top[::-1]
    flipped = oriented_oracle(reoriented(X, {(0, 1, 2)})).bases[0, 1, 2]
    assert [same_span_orientation(top, b) for b in (swapped, flipped, top)] == [-1, -1, 1]
    assert [same_span_orientation(basis[1,], basis[v,]) for v in (0, 2)] == [1, 1]


def test_sign_same_span_subtriangle_det_oracle():
    # a small counterclockwise triangle inside a counterclockwise one
    inner_pts = homogeneous_points({0: (Fraction(1, 4), Fraction(1, 4)),
                                    1: (Fraction(1, 2), Fraction(1, 4)),
                                    2: (Fraction(1, 4), Fraction(1, 2))})
    labels = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    inner = make_complex(3, inner_pts, labels,
                         [(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    outer = triangle_complex()
    a = oriented_oracle(inner).bases[0, 1, 2]
    b = oriented_oracle(outer).bases[0, 1, 2]
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]
    expected = 1 if det(*a) * det(*b) > 0 else -1
    assert same_span_orientation(b, a) == expected


def test_sign_same_span_errors():
    basis = sign_oracle(triangle_complex()).bases
    with pytest.raises(ValueError, match="orientation comparison needs equal dimensions"):
        same_span_orientation(basis[0, 1, 2], basis[0, 1])
    with pytest.raises(ValueError, match="orientation comparison needs equal spans"):
        same_span_orientation(basis[1, 2], basis[0, 1])
    # the sizes are compared before the spans
    with pytest.raises(ValueError, match="needs equal dimensions"):
        same_span_orientation(basis[1, 2], basis[0, 1, 2])
    with pytest.raises(ValueError, match="degenerate orientation basis"):
        same_span_orientation(basis[1, 2], ((0, 0),))


def test_make_complex_refuses_a_zero_orientation(monkeypatch):
    # a non-simplex's facets are the candidates with a nonzero side, so a
    # square whose sides all read 0 has none; a simplex's signs need no
    # orientation at all
    points = homogeneous_points({0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)})
    labels = {i: (1, 1) for i in range(4)}
    calls = []
    monkeypatch.setattr(linalg, "orientations",
                        lambda basis, families: calls.append(1) or [0] * len(families))
    with pytest.raises(InputError) as exc:
        make_complex(2, points, labels, [(0, 1, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3)])
    assert str(exc.value) == "face (0, 1, 2, 3): boundary is not covered by listed faces"
    calls.clear()
    assert triangle_complex().facet_ids[0, 1, 2] == {(0, 1): 1, (0, 2): -1, (1, 2): 1}
    assert calls == []


def test_signs_invariant_under_positive_basis_change():
    # the file's top agrees with the corner simplex whatever basis it is
    # given, so the edge (0, 1) shows whether a given basis flips a face
    X = triangle_complex()
    top, edge = oriented_oracle(X).bases[0, 1, 2], oriented_oracle(X).bases[0, 1]
    b1, b2 = top
    sheared = triangle_file({
        (0, 1, 2): [[2 * x + y for x, y in zip(b1, b2)], list(b2)],
        (0, 1): [[3 * x for x in edge[0]]],
    })
    assert sheared.facet_ids == X.facet_ids
    assert same_span_orientation(top, oriented_oracle(sheared).bases[0, 1, 2]) == 1
    assert same_span_orientation(edge, oriented_oracle(sheared).bases[0, 1]) == 1
    negated = triangle_file({(0, 1): [[-3 * x for x in edge[0]]]})
    assert negated.facet_ids == reoriented(X, {(0, 1)}).facet_ids
    assert same_span_orientation(edge, oriented_oracle(negated).bases[0, 1]) == -1


def test_reorientation_flips_signs():
    X = triangle_complex()
    flipped = reoriented(X, {(0, 1, 2)})
    signs = X.facet_ids[0, 1, 2]
    assert flipped.facet_ids[0, 1, 2] == {tau: -s for tau, s in signs.items()}
    # an edge's own signs stay; flipping it and the triangle keeps their sign
    assert flipped.facet_ids[0, 1] == X.facet_ids[0, 1]
    both = reoriented(X, {(0, 1, 2), (0, 1)})
    assert both.facet_ids[0, 1, 2] == {**signs, (0, 2): 1, (1, 2): -1}
    assert both.facet_ids[0, 1] == {(0,): 1, (1,): -1}


def _delta(ex61_embedded):
    return corner_simplex_complex(ex61_embedded)


def test_cofaces_counts(ex61_embedded):
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    boundary_simplices = [_face_points(Y, fid) for fid in Y.faces_of_dim(1)]
    for edge in X.faces_of_dim(1):
        pts = _face_points(X, edge)
        on_boundary = any(
            all(point_in_simplex(p, spts) for p in pts)
            for spts in boundary_simplices
        )
        count = len(cofaces(X, edge, 2))
        assert count == (1 if on_boundary else 2)
    top = X.faces_of_dim(2)[0]
    assert cofaces(X, top, 3) == []


def test_refinement_identity_and_ex61(ex61_embedded):
    Y = _delta(ex61_embedded)
    assert corner_simplex_complex(Y).faces == Y.faces
    assert refinement_failure(Y) is None
    assert refinement_failure(ex61_embedded) is None


def test_refinement_rejects_label_bump(ex61_embedded):
    obj = complex_to_json(ex61_embedded)
    for v in obj["vertices"]:
        if v["label"] == [1, 1, 0]:
            v["label"] = [1, 1, 1]
    for f in obj["faces"]:
        del f["label"]
    bumped = complex_from_json(obj)
    assert refinement_failure(bumped) == (
        "label of face (0, 1) does not divide the label of (0, 1)"
    )


def test_bumped_corner_relabels_the_corner_simplex(ex61_embedded):
    # z1^2 -> z1^3 is the pure power of the new ideal, so the simplex moves
    # with X; z1^2 -> z1^2 z2 leaves X's ideal without a pure power of z1
    raised = _bumped(ex61_embedded, 0, 0)
    assert corner_simplex_complex(raised).vertex_label(0) == (3, 0, 0)
    assert refinement_failure(raised) is None
    with pytest.raises(PreconditionError, match="not Artinian"):
        refinement_failure(_bumped(ex61_embedded, 0, 1))


def test_contained_faces_top_and_vertices(ex61_embedded):
    X = ex61_embedded
    assert list(carried_faces(X)[(0, 1, 2)]) == X.faces_of_dim(2)
    for i, vid in enumerate([0, 3, 5]):
        assert carried_faces(X)[(i,)] == {(vid,): 1}


def test_contained_faces_edge(ex61_embedded):
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    inside = list(carried_faces(X)[(0, 1)])
    assert inside == [(0, 1), (1, 3)]
    assert {X.face(f).label for f in inside} == {(2, 1, 0), (1, 2, 0)}
    # barycentric containment oracle
    segment = _face_points(Y, (0, 1))
    for fid in X.faces_of_dim(1):
        contained = all(
            point_in_simplex(affine(X.vertex_point(v)), segment) for v in fid
        )
        assert contained == (fid in inside)


def test_contained_faces_partition_volumes(ex61_embedded):
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    for k in (1, 2):
        for sid in Y.faces_of_dim(k):
            basis = sign_oracle(Y).bases[sid]
            origin = _face_points(Y, sid)[0]
            total = sum(
                face_volume_rel(X, fid, basis, origin)
                for fid in carried_faces(X)[sid]
            )
            assert total == face_volume_rel(Y, sid, basis, origin)


def test_subcomplex_leq(ex61_embedded, ex61_ideal):
    X = ex61_embedded
    full = subcomplex_leq(X, (2, 2, 2))
    assert set(full.faces) == set(X.faces)
    trivial = subcomplex_leq(X, (0, 0, 0))
    assert set(trivial.faces) == {()}
    inner = subcomplex_leq(X, (1, 1, 1))
    assert set(inner.faces) == {
        (), (1,), (2,), (4,), (1, 2), (1, 4), (2, 4), (1, 2, 4),
    }


def test_refinement_sign_identity(ex61_embedded):
    # for every quadruple sigma' in sigma, tau' in tau with tau, tau' facets:
    # sign(sigma',sigma) sign(tau',sigma') = sign(tau,sigma) sign(tau',tau)
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    carried = oriented_oracle(X).carried()
    checked = 0
    for k in (1, 2):
        for sid in Y.faces_of_dim(k):
            for sprime in carried_faces(X)[sid]:
                for tau in Y.facets(sid):
                    if Y.face(tau).dim < 0:
                        continue
                    tau_pts = _face_points(Y, tau)
                    for tprime in X.facets(sprime):
                        if X.face(tprime).dim < 0:
                            continue
                        if not all(
                            point_in_simplex(affine(X.vertex_point(v)), tau_pts)
                            for v in tprime
                        ):
                            continue
                        lhs = carried[sid][sprime] * X.facet_ids[sprime][tprime]
                        rhs = Y.facet_ids[sid][tau] * carried[tau][tprime]
                        assert lhs == rhs
                        checked += 1
    assert checked > 0


def test_interior_facet_cancellation(ex61_embedded):
    # subdividing an oriented polytope: the two cofaces of an interior facet
    # contribute opposite signed incidences
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    carried = oriented_oracle(X).carried()
    checked = 0
    for k in (1, 2):
        for sid in Y.faces_of_dim(k):
            spts = _face_points(Y, sid)
            inside_k = carried_faces(X)[sid]
            inside_km1 = [
                fid
                for fid in X.faces_of_dim(k - 1)
                if all(point_in_simplex(affine(X.vertex_point(v)), spts) for v in fid)
            ]
            for tau in inside_km1:
                cof = [s for s in inside_k if tau in X.facets(s)]
                if len(cof) != 2:
                    continue
                s1, s2 = cof
                c1, c2 = carried[sid][s1], carried[sid][s2]
                total = c1 * X.facet_ids[s1][tau] + c2 * X.facet_ids[s2][tau]
                assert total == 0
                checked += 1
    assert checked > 0


def test_labels_are_vertex_lcms(ex61_embedded):
    X = ex61_embedded
    for fid, face in X.faces.items():
        if face.dim < 0:
            continue
        acc = X.vertex_label(fid[0])
        for v in fid[1:]:
            acc = lcm(acc, X.vertex_label(v))
        assert face.label == acc
        for tau in X.facets(fid):
            assert all(
                x <= y for x, y in zip(X.face(tau).label, face.label)
            )


def test_json_roundtrip(ex61_embedded):
    obj = complex_to_json(ex61_embedded)
    assert all(
        "/" in c for v in obj["vertices"] for c in v["coords"]
    )
    loaded = complex_from_json(obj)
    assert set(loaded.faces) == set(ex61_embedded.faces)
    for fid in loaded.faces:
        assert loaded.face(fid).label == ex61_embedded.face(fid).label
        assert loaded.face(fid).dim == ex61_embedded.face(fid).dim
    assert loaded.facet_ids == ex61_embedded.facet_ids


def test_vertex_ideal_is_the_ideal(ex61_ideal, ex61_hull, ex61_embedded,
                                   ex61_minimal_fixture):
    for X in (ex61_hull, ex61_embedded, scarf_complex(ex61_ideal),
              taylor_complex(ex61_ideal), complex_from_json(ex61_minimal_fixture)):
        assert vertex_ideal(X) == ex61_ideal


def test_loader_orients_tops_by_the_minimal_pure_powers():
    # z1^3 (vertex 0) is listed before z1^2 (vertex 1) but is no minimal
    # generator: the corner simplex runs from vertex 1 to the z2^2 corner
    # (vertex 2), in the negative direction, not from vertex 0
    X = complex_from_json({
        "vertices": [{"id": v, "coords": [x], "label": g}
                     for v, x, g in ((0, 3, [3, 0]), (1, 0, [2, 0]), (2, 1, [0, 2]))],
        "faces": [{"vertices": [1, 2]}, {"vertices": [0, 2]}],
    })
    assert vertex_ideal(X) == minimize([(2, 0), (0, 2)])
    Y = corner_simplex_complex(X)
    assert [Y.vertex_point(i) for i in Y.vertices] == [X.vertex_point(1),
                                                        X.vertex_point(2)]
    assert X.faces_of_dim(1) == [(0, 2), (1, 2)]
    assert all(oriented_oracle(X).bases[fid][0][0] < 0 for fid in X.faces_of_dim(1))


def test_loader_leaves_tops_alone_when_the_corners_are_dependent():
    # the pure powers of z1, z2, z3 sit on one line, so they span no simplex
    # to orient by; the top faces keep the orientations they were given or got
    points = {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (1, 1)}
    labels = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1), 3: (1, 1, 1)}
    faces = [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (0, 1, 3), (1, 2, 3)]
    obj = {
        "n": 3,
        "vertices": [{"id": v, "coords": list(p), "label": list(labels[v])}
                     for v, p in points.items()],
        "faces": [{"vertices": list(fid)} for fid in faces],
    }
    obj["faces"][-1]["orientation_basis"] = [[0, 1], [1, 0]]
    X = complex_from_json(obj)
    # the given basis is opposite to the default ((0, -1), (1, -1))
    unflipped = reoriented(make_complex(3, {v: homogeneous(p) for v, p in points.items()},
                                        labels, faces), {(1, 2, 3)})
    assert X.dim == X.n - 1
    assert X.faces == unflipped.faces
    assert X.facet_ids == unflipped.facet_ids
    given = ((0, 1), (1, 0))
    assert same_span_orientation(given, oriented_oracle(X).bases[1, 2, 3]) == 1
    with pytest.raises(InputError, match=r"^the pure-power corners \(vertex ids 0, 1, 2\) "
                                         "span no simplex$"):
        corner_simplex_complex(X)


def test_subset_closed_family_is_refused_at_a_dependent_vertex_set():
    # every subset listed, so a dependent vertex set has a vertex-drop of
    # its own dimension, which lies in none of its facets
    collinear = homogeneous_points({0: (0, 0), 1: (1, 1), 2: (2, 2)})
    with pytest.raises(InputError, match=r"lies in face \(0, 1, 2\) but is not one of its faces"):
        make_complex(2, collinear, dict.fromkeys(range(3), (1, 1)), _subsets(3))
    coplanar = homogeneous_points({0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 0)})
    with pytest.raises(InputError,
                       match=r"lies in face \(0, 1, 2, 3\) but is not one of its faces"):
        make_complex(3, coplanar, dict.fromkeys(range(4), (1, 1, 1)), _subsets(4))


def test_json_loader_honors_explicit_bases(ex61_embedded):
    obj = complex_to_json(ex61_embedded)

    # flip one interior edge by reversing its basis vector
    target = [1, 4]
    basis = oriented_oracle(ex61_embedded).bases[1, 4]
    for f in obj["faces"]:
        if f["vertices"] == target:
            f["orientation_basis"] = [[str(-c) for c in basis[0]]]
        del f["label"], f["dim"]
    loaded = complex_from_json(obj)
    assert same_span_orientation(basis, oriented_oracle(loaded).bases[1, 4]) == -1
    # top faces still canonical (the loader reflips only top dimension)
    for fid in loaded.faces_of_dim(2):
        assert same_span_orientation(oriented_oracle(ex61_embedded).bases[fid],
                                     oriented_oracle(loaded).bases[fid]) == 1


def test_json_loader_rejects_garbage(ex61_embedded):
    obj = complex_to_json(ex61_embedded)
    obj["faces"][0]["labels"] = [1]
    with pytest.raises(InputError):
        complex_from_json(obj)
    obj = complex_to_json(ex61_embedded)
    obj["faces"][-1]["label"] = [9, 9, 9]
    with pytest.raises(InputError):
        complex_from_json(obj)
    with pytest.raises(InputError):
        complex_from_json({"vertices": []})
    # wrong types exit 2 like any bad input, never truncated or crashing
    for corrupt in (
        lambda o: o["vertices"][0].update(label=[2.7, 0, 0]),
        lambda o: o["vertices"][0].update(label=[True, 0, 0]),
        lambda o: o["vertices"][0].update(label=5),
        lambda o: o["vertices"][0].update(coords=[1.5, 1, 1]),
        lambda o: o["vertices"][0].update(coords=["x", "1", "1"]),
        lambda o: o["vertices"][0].update(coords=["1/0", "1", "1"]),
        lambda o: o["vertices"][0].update(coords="1,1,1"),
        lambda o: o["vertices"][0].update(id=[0]),
        lambda o: o["vertices"][0].update(id="0"),
        lambda o: o.update(vertices=5),
        lambda o: o.update(faces=5),
        lambda o: o.update(faces=[5]),
        lambda o: o.update(n="3"),
        lambda o: o["faces"][0].update(vertices=5),
        lambda o: o["faces"][0].update(vertices=[[0]]),
        lambda o: o["faces"][0].pop("vertices"),
        lambda o: o["faces"][0].update(label=5),
        lambda o: o["faces"][-1].update(orientation_basis=5),
        lambda o: o["faces"][-1].update(orientation_basis=[[0.5, 1, 1], [1, 1, 1]]),
        lambda o: o["faces"][-1].update(orientation_basis=[[1, 1], [1, 0]]),
        lambda o: o["faces"][0].update(dim=True),
        lambda o: o["faces"][0].update(dim=1.0),
    ):
        obj = complex_to_json(ex61_embedded)
        corrupt(obj)
        with pytest.raises(InputError):
            complex_from_json(obj)


def test_json_loader_names_the_fault_of_a_given_basis(ex61_embedded):
    # the last face listed is the triangle (2, 4, 5), in the plane of the
    # first two coordinate directions' differences
    obj = complex_to_json(ex61_embedded)
    top = obj["faces"][-1]
    assert top["vertices"] == [2, 4, 5]
    b = [list(v) for v in oriented_oracle(ex61_embedded).bases[2, 4, 5]]
    for basis, message in (
        ([b[0]], "face (2, 4, 5): orientation basis must have 2 vectors"),
        ([[1, 1], [1, 0]],
         "face (2, 4, 5): basis vectors must be integer vectors of the ambient dimension"),
        ([[0.5, 1, 1], [1, 1, 1]], "coordinate 0.5 is neither an integer nor a rational string"),
        ([[True, 0, 0], b[1]], "coordinate True is neither an integer nor a rational string"),
        ([b[0], b[0]], "face (2, 4, 5): degenerate orientation basis"),
        ([[1, 0, 0], [0, 1, 0]], "face (2, 4, 5): basis vector outside the face's span"),
    ):
        top["orientation_basis"] = basis
        with pytest.raises(InputError) as exc:
            complex_from_json(obj)
        assert str(exc.value) == message


def test_json_loader_takes_only_the_empty_basis_on_the_empty_face(ex61_embedded):
    obj = complex_to_json(ex61_embedded)
    plain = complex_from_json(obj)
    obj["faces"].append({"vertices": [], "orientation_basis": []})
    loaded = complex_from_json(obj)
    assert loaded.faces == plain.faces
    assert loaded.facet_ids == plain.facet_ids
    # any other basis gets the refusal of a vertex's basis of the wrong size
    for vertices, message in (([], "face (): orientation basis must have 0 vectors"),
                              ([0], "face (0,): orientation basis must have 0 vectors")):
        obj["faces"][-1] = {"vertices": vertices, "orientation_basis": [[1, 2, 3], [4]]}
        with pytest.raises(InputError) as exc:
            complex_from_json(obj)
        assert str(exc.value) == message


def test_json_loader_refuses_a_face_listed_twice():
    # without a full set of pure powers no top flip hides which of two
    # conflicting bases the edge would take
    segment = {
        "vertices": [{"id": 0, "coords": [0], "label": [1, 1]},
                     {"id": 1, "coords": [1], "label": [0, 1]}],
        "faces": [{"vertices": [0, 1], "orientation_basis": [[1]]},
                  {"vertices": [1, 0], "orientation_basis": [[-1]]}],
    }
    for faces in (segment["faces"], segment["faces"][::-1], segment["faces"][:1] * 2):
        with pytest.raises(InputError) as exc:
            complex_from_json(dict(segment, faces=faces))
        assert str(exc.value) == "face (0, 1) is listed twice"
    once = complex_from_json(dict(segment, faces=segment["faces"][1:]))
    assert oriented_oracle(once).bases[0, 1] == ((-1,),)


def test_make_complex_rejects_missing_intersection_face():
    points = homogeneous_points({0: (0, 0), 1: (2, 0), 2: (1, 1), 3: (1, -1)})
    labels = {i: (1, 1) for i in range(4)}
    with pytest.raises(InputError):
        make_complex(
            2, points, labels,
            [(0, 1, 2), (0, 1, 3), (0, 2), (1, 2), (0, 3), (1, 3)],
        )
    # listing the shared edge fixes it
    X = make_complex(
        2, points, labels,
        [(0, 1, 2), (0, 1, 3), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3)],
    )
    assert len(cofaces(X, (0, 1), 2)) == 2


def test_make_complex_rejects_a_face_that_lists_a_vertex_twice():
    points = {0: (5, 1, 1), 1: (3, 3, 1), 2: (1, 5, 1)}
    labels = {0: (2, 0), 1: (1, 1), 2: (0, 2)}
    with pytest.raises(InputError, match=r"^face \(0, 1, 1\) lists a vertex twice$"):
        make_complex(2, points, labels, [(0, 1), (1, 0, 1), (1, 2)])
    with pytest.raises(InputError, match=r"^face \(0, 0, 1\) lists a vertex twice$"):
        make_complex(2, points, labels, [(0, 0, 1)])


# Two squares, one in the plane z = 0 and one in the plane x = y, that share
# only the diagonal pair of vertices (0, 0, 0), (2, 2, 0): their vertex sets
# meet in (0, 2), which is no face, and only the intersection rule sees it.
TWO_SQUARES = (
    3,
    homogeneous_points({0: (0, 0, 0), 1: (2, 0, 0), 2: (2, 2, 0), 3: (0, 2, 0),
                        4: (1, 1, 1), 5: (1, 1, -1)}),
    dict.fromkeys(range(6), (1, 1, 1)),
    [(0, 1, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3),
     (0, 2, 4, 5), (0, 4), (2, 4), (2, 5), (0, 5)],
)


def test_make_complex_rejects_squares_meeting_in_a_diagonal():
    with pytest.raises(InputError) as exc:
        make_complex(*TWO_SQUARES)
    assert str(exc.value) == (
        "faces (0, 1, 2, 3) and (0, 2, 4, 5) meet in (0, 2), "
        "which is not a face of the complex"
    )


def _complex_data(X):
    return (X.n, {v: X.vertex_point(v) for v in X.vertices},
            {v: X.vertex_label(v) for v in X.vertices},
            [fid for fid in X.faces if len(fid) >= 2])


@st.composite
def complex_inputs(draw):
    """make_complex inputs: those of a hull, embedded hull, Scarf or Taylor
    complex of an Artinian ideal, of the minimal Example 6.1 complex or of
    the two squares, as they are or with one listed face dropped or one
    vertex set of two or more added."""
    source = draw(st.sampled_from(
        ("hull", "embedded", "scarf", "taylor", "ex61-minimal", "two-squares")))
    if source == "two-squares":
        n, points, labels, faces = TWO_SQUARES
    elif source == "ex61-minimal":
        from conftest import minimal_ex61_json
        n, points, labels, faces = _complex_data(complex_from_json(
            minimal_ex61_json(embedded_hull(minimize(EX61_GENERATORS)))))
    else:
        M = draw(artinian_ideals(max_side=3))
        if source == "taylor" and len(M.generators) > 7:
            source = "scarf"
        build = {"hull": hull_complex, "embedded": embedded_hull,
                 "scarf": scarf_complex, "taylor": taylor_complex}[source]
        n, points, labels, faces = _complex_data(build(M))
    change = draw(st.sampled_from(("none", "drop", "add")))
    if change == "drop" and faces:
        faces = [f for f in faces if f != draw(st.sampled_from(sorted(faces)))]
    elif change == "add" and len(points) >= 2:
        faces = faces + [tuple(draw(st.lists(st.sampled_from(sorted(points)),
                                             min_size=2, unique=True)))]
    return n, points, labels, faces


@settings(max_examples=60)
@given(complex_inputs())
@example(TWO_SQUARES)
def test_intersection_rule_matches_all_pairs_oracle(inputs):
    # make_complex checks the intersection rule between non-simplices only:
    # whatever the check on every pair rejects, it must reject too, and on
    # the rest it runs the same checks as before, each an InputError
    if all_pairs_intersection_failure(inputs[1], inputs[3]) is not None:
        with pytest.raises(InputError):
            make_complex(*inputs)
    else:
        try:
            make_complex(*inputs)
        except InputError:
            pass


def _assert_facets_are_geometric(X):
    """Every face's facets equal the supporting-flat test on the same
    candidates, the listed faces of one dimension less inside it, and the
    complex keeps the pivots the oracle picks."""
    points = {v: X.vertex_point(v) for v in X.vertices}
    pivots = gram_pivots(X, X.faces)
    assert X.pivots == pivots
    for fid, face in X.faces.items():
        if face.dim <= 0:
            continue
        candidates = [X.face(t)._replace(flip=1)
                      for t in X.faces_of_dim(face.dim - 1) if set(t) < set(fid)]
        sides = _facet_sides(points, pivots, face._replace(flip=1), candidates)
        assert X.facets(fid) == tuple(sorted(t.vertices for t, s in zip(candidates, sides) if s))


def _assert_all_complexes_geometric(M):
    _assert_facets_are_geometric(hull_complex(M))
    _assert_facets_are_geometric(embedded_hull(M))
    _assert_facets_are_geometric(scarf_complex(M))
    # the Taylor complex has 2^r faces
    if len(M.generators) <= 8:
        _assert_facets_are_geometric(taylor_complex(M))


def test_facets_match_geometry_on_fixed_ideals():
    for M in (
        minimize(EX61_GENERATORS),
        maximal_ideal_power(3, 4),
        maximal_ideal_power(3, 5),
        maximal_ideal_power(4, 2),
    ):
        _assert_all_complexes_geometric(M)


def test_facets_match_geometry_on_seeded_ideals(rng):
    for _ in range(5):
        _assert_all_complexes_geometric(random_staircase_ideal(rng))
        _assert_all_complexes_geometric(random_generic_ideal_3(rng))
        for n in (2, 3, 4):
            _assert_all_complexes_geometric(random_complete_intersection(rng, n))


@settings(max_examples=40)
@given(artinian_ideals())
def test_facets_match_geometry_on_random_ideals(M):
    _assert_all_complexes_geometric(M)


def test_listed_diagonal_inside_a_face_is_rejected():
    # a listed diagonal lies inside the square but is not a face of it;
    # only a face with more vertices than a simplex can tell them apart
    points = homogeneous_points({0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)})
    labels = {i: (1, 1) for i in range(4)}
    square = [(0, 1, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3)]
    X = make_complex(2, points, labels, square)
    assert X.facets((0, 1, 2, 3)) == ((0, 1), (0, 3), (1, 2), (2, 3))
    with pytest.raises(InputError, match=r"face \(0, 2\) lies in face \(0, 1, 2, 3\)"):
        make_complex(2, points, labels, square + [(0, 2)])


# the unit cube with its squares and edges; vertex v is at the bits of v
CUBE = (
    3,
    homogeneous_points({v: (v & 1, v >> 1 & 1, v >> 2) for v in range(8)}),
    dict.fromkeys(range(8), (1, 1, 1)),
    [tuple(range(8))]
    + [tuple(v for v in range(8) if v >> bit & 1 == side)
       for bit in range(3) for side in (0, 1)]
    + [(v, v | 1 << bit) for v in range(8) for bit in range(3) if not v >> bit & 1],
)


def test_listed_space_diagonal_of_a_cube_is_rejected():
    # the space diagonal lies in the cube and in none of its squares
    _, points, labels, cube = CUBE
    X = make_complex(*CUBE)
    assert len(X.facets(tuple(range(8)))) == 6
    with pytest.raises(InputError, match=r"face \(0, 7\) lies in face \(0, 1, 2, 3, 4, 5, 6, 7\)"):
        make_complex(3, points, labels, cube + [(0, 7)])


def _non_simplex_inputs():
    """make_complex inputs with faces that are not simplices: the hulls and
    embedded hulls of m^2 and m^3 in 4 variables, the minimal complex of
    Example 6.1 as its file loads, each of the two squares alone and the
    cube."""
    from conftest import minimal_ex61_json

    inputs = [_complex_data(build(maximal_ideal_power(4, d)))
              for d in (2, 3) for build in (hull_complex, embedded_hull)]
    inputs.append(_complex_data(complex_from_json(
        minimal_ex61_json(embedded_hull(minimize(EX61_GENERATORS))))))
    n, points, labels, faces = TWO_SQUARES
    for square in faces[0], faces[5]:
        inputs.append((n, points, labels, [f for f in faces if len(f) == 2 or f == square]))
    return inputs + [CUBE]


def test_facets_match_the_geometric_oracle_on_non_simplices():
    # every vertex set of a non-simplex one dimension lower is a candidate,
    # listed or not, so the test also meets diagonals and inner planes
    for inputs in _non_simplex_inputs():
        X = make_complex(*inputs)
        points = inputs[1]
        rational = {v: affine(p) for v, p in points.items()}
        non_simplices = [f for f in X.faces.values() if len(f.vertices) > f.dim + 1]
        assert non_simplices
        for sigma in non_simplices:
            subsets = [vs for size in range(sigma.dim, len(sigma.vertices))
                       for vs in combinations(sigma.vertices, size)]
            pivots = gram_pivots(X, subsets + [sigma.vertices])
            candidates = []
            for vs in subsets:
                dim = len(pivots.get(vs, vs)) - 1
                if dim == sigma.dim - 1:
                    candidates.append(Face(vs, dim, None, 1))
            expected = [tau.vertices for tau in candidates
                        if _is_geometric_facet(*(tuple(rational[v] for v in f)
                                                 for f in (sigma.vertices, tau.vertices)))]
            sides = _facet_sides(points, pivots, sigma, candidates)
            assert [tau.vertices for tau, side in zip(candidates, sides) if side] == expected
            assert X.facets(sigma.vertices) == tuple(sorted(t for t in expected if t in X.faces))


def _assert_facets_are_maximal_listed_subsets(X):
    """Every face's facets are its maximal listed proper subsets, whatever
    the points: the boundary-cover and containment checks leave no choice,
    so two realizations of one family that both pass share their facets."""
    for fid in X.faces:
        inside = [t for t in X.faces if set(t) < set(fid)]
        maximal = [t for t in inside if not any(set(t) < set(u) for u in inside)]
        assert X.facets(fid) == tuple(sorted(maximal)), fid


@settings(max_examples=40)
@given(artinian_ideals_2_to_4())
def test_facets_are_the_maximal_listed_proper_subsets(M):
    built = [hull_complex(M), embedded_hull(M), scarf_complex(M)]
    if len(M.generators) <= 7:  # the Taylor complex has 2^r faces
        built.append(taylor_complex(M))
    # a complex file of the lifted hull, read back
    built.append(complex_from_json(complex_to_json(built[0])))
    for X in built:
        _assert_facets_are_maximal_listed_subsets(X)


def test_facets_are_the_maximal_listed_proper_subsets_of_non_simplices():
    for inputs in _non_simplex_inputs():
        _assert_facets_are_maximal_listed_subsets(make_complex(*inputs))


def _bumped(X, vid, var):
    """X with one exponent of one vertex label raised by one."""
    obj = complex_to_json(X)
    for v in obj["vertices"]:
        if v["id"] == vid:
            v["label"][var] += 1
    for f in obj["faces"]:
        del f["label"]
    return complex_from_json(obj)


def _moved(X, vid, target):
    """X with one vertex moved to the target point."""
    obj = complex_to_json(X)
    for v in obj["vertices"]:
        if v["id"] == vid:
            v["coords"] = [f"{c.numerator}/{c.denominator}" for c in target]
    for f in obj["faces"]:
        del f["dim"]
    return complex_from_json(obj)


def test_refinement_witness_names_the_failure(ex61_embedded):
    X = ex61_embedded
    assert refinement_failure(X) is None
    # vertex 1 (z1 z2) lies on the edge of z1^2 and z2^2; the corners are
    # left alone, as a bumped or moved corner moves the simplex with it
    with pytest.raises(
        PreconditionError,
        match=r"corner simplex: label of face \(0, 1\) does not divide the label of \(0, 1\)$",
    ):
        residue_current(_bumped(X, 1, 2))
    # vertex 4 (z2 z3) lies on the edge of z2^2 and z3^2: reflect it
    # through the corner z1^2, out of the simplex
    outside = tuple(
        2 * c - p for c, p in zip(affine(X.vertex_point(0)), affine(X.vertex_point(4)))
    )
    with pytest.raises(PreconditionError, match=r"corner simplex: vertex 4 lies outside"):
        residue_current(_moved(X, 4, outside))
    with pytest.raises(
        PreconditionError,
        match=r"corner simplex: face \(0, 1, 2\) is covered with volume 3/4$",
    ):
        residue_current(without_face(X, (0, 1, 2)))
    with pytest.raises(
        PreconditionError,
        match=r"corner simplex: face \(0, 1, 2\) is covered with volume 0$",
    ):
        residue_current(scarf_complex(minimize(EX61_GENERATORS)))


def _library_containment(X):
    """False when X does not refine its corner simplex, else the faces of X
    carried by each face of the simplex, in (dimension, face) order, or the
    first face where support and geometry disagree."""
    if refinement_failure(X) is not None:
        with pytest.raises(PreconditionError, match="does not refine the corner simplex"):
            carried_faces(X)
        return False
    try:
        return [(sid, list(faces)) for sid, faces in carried_faces(X).items()]
    except PreconditionError as exc:
        return str(exc).split(":")[0]


def _oracle_containment(X, Y):
    """_library_containment by the pairwise oracles, handed the simplex Y."""
    if not pairwise_is_refinement(X, Y):
        return False
    carried = []
    for sid in sorted(Y.faces, key=lambda s: (len(s), s))[1:]:
        try:
            carried.append((sid, pairwise_contained_faces(Y, sid, X, len(sid) - 1)))
        except ValueError as exc:
            return str(exc)
    return carried


def _assert_containment_matches_oracle(X):
    """The library against the pairwise oracles, which are handed X's own
    corner simplex; a complex whose labels miss a pure power has none."""
    try:
        Y = corner_simplex_complex(X)
    except PreconditionError:
        with pytest.raises(PreconditionError, match="not Artinian"):
            refinement_failure(X)
        return
    assert _library_containment(X) == _oracle_containment(X, Y)


def _perturbations(X):
    """Complexes next to X, most of which do not refine its corner simplex:
    every vertex label bumped in every variable, every top face dropped,
    and every inner vertex moved towards or away from each corner or off
    the affine hull of the simplex (moves that leave no complex are
    skipped).  A bumped corner relabels the simplex with it."""
    for v in sorted(X.vertices):
        for var in range(X.n):
            yield _bumped(X, v, var)
    for fid in X.faces_of_dim(X.dim):
        yield without_face(X, fid)
    Y = corner_simplex_complex(X)
    corners = [affine(Y.vertex_point(y)) for y in sorted(Y.vertices)]
    for v in sorted(X.vertices):
        p = affine(X.vertex_point(v))
        if p in corners:
            continue
        targets = [
            tuple(x + s * (c - x) for x, c in zip(p, corner))
            for corner in corners
            for s in (Fraction(-1, 2), Fraction(1, 3), Fraction(2))
        ]
        for target in targets + [tuple(2 * x for x in p)]:
            try:
                yield _moved(X, v, target)
            except InputError:
                pass


def _containment_cases(M):
    yield embedded_hull(M)
    if len(M.generators) <= 15:
        yield scarf_complex(M)


@settings(max_examples=40)
@given(artinian_ideals())
def test_containment_matches_pairwise_oracle(M):
    for X in _containment_cases(M):
        _assert_containment_matches_oracle(X)
    assert refinement_failure(next(_containment_cases(M))) is None


@settings(max_examples=40)
@given(artinian_ideals(), st.data())
def test_containment_matches_pairwise_oracle_on_perturbed_complexes(M, data):
    X = next(_containment_cases(M))
    _assert_containment_matches_oracle(
        data.draw(st.sampled_from(list(_perturbations(X))))
    )


def test_containment_matches_pairwise_oracle_on_seeded_ideals(rng):
    # fixed and seeded families beside the random draws above; Scarf
    # complexes of non-generic ideals among them do not refine the simplex
    ideals = [minimize(EX61_GENERATORS), maximal_ideal_power(3, 3)]
    for _ in range(3):
        ideals += [random_staircase_ideal(rng), random_generic_ideal_3(rng)]
    verdicts = []
    for M in ideals:
        for X in _containment_cases(M):
            _assert_containment_matches_oracle(X)
            verdicts.append(refinement_failure(X) is None)
    assert True in verdicts and False in verdicts


def test_containment_matches_pairwise_oracle_on_perturbed_ex61(ex61_embedded):
    failures = []
    for perturbed in _perturbations(ex61_embedded):
        _assert_containment_matches_oracle(perturbed)
        try:
            failures.append(refinement_failure(perturbed))
        except PreconditionError:  # a corner bumped off its pure power
            pass
    assert failures.count(None) < len(failures) / 2
    # every kind of failure is among them
    for kind in ("lies outside the simplex", "does not divide", "is covered with volume"):
        assert any(kind in (f or "") for f in failures), kind


def test_containment_disagreement_matches_pairwise_oracle():
    X = complex_from_json(DUPLICATE_CORNER_JSON)
    assert refinement_failure(X) is None
    assert _library_containment(X) == "support and geometry disagree on (1,)"
    _assert_containment_matches_oracle(X)


@settings(max_examples=20)
@given(artinian_ideals())
def test_barycentric_coordinates_solved_once_per_vertex(M):
    # the reader's top flip solves them, and the flipped copy, the
    # refinement check and the containment pass read them
    obj = complex_to_json(embedded_hull(M))
    with mock.patch.object(linalg, "kernel_vector",
                           side_effect=linalg.kernel_vector) as kernel_vector:
        X = complex_from_json(obj)
        assert kernel_vector.call_count == len(X.vertices)
        assert refinement_failure(X) is None
        assert kernel_vector.call_count == len(X.vertices)
        carried_faces(X)
        assert kernel_vector.call_count == len(X.vertices)


def _assert_barycentrics_match_the_solves(X):
    """Each vertex's mu / d solves for its point against the corner simplex
    over Fractions, (mu, d) is what the retired integer solve gave, with one
    d > 0 for all vertices, and the carrier of each face whose vertices all
    have them is the union of the supports of its vertices' Fraction
    solutions, as the refinement pass files it when every vertex has them."""
    try:
        Y = corner_simplex_complex(X)
    except PreconditionError:  # a bumped corner left no pure power
        return
    columns = list(zip(*(Y.vertex_point(y) for y in range(X.n))))
    coords, d = _vertex_barycentrics(X)
    solved = {v: fraction_solve(columns, X.vertex_point(v)) for v in X.vertices}
    for v, mu in coords.items():
        assert (mu and tuple(Fraction(c, d) for c in mu)) == solved[v]
        assert (mu and (mu, d)) == bareiss_solve(columns, X.vertex_point(v))
    expected = {
        fid: tuple(sorted({y for v in fid for y, c in enumerate(solved[v]) if c}))
        for fid in X.faces if fid and all(solved[v] is not None for v in fid)
    }
    assert {fid: simplex._carrier(coords, fid) for fid in expected} == expected
    if None not in coords.values():
        assert simplex._covering(X)[0] == expected


def _mirrored(X):
    """X reloaded with the first two coordinates of every vertex swapped: a
    reflection, which keeps the barycentric coordinates and puts the last
    pivot of the corner simplex's columns below 0."""
    obj = complex_to_json(X)
    for v in obj["vertices"]:
        v["coords"][:2] = v["coords"][1::-1]
    return complex_from_json(obj)


@settings(max_examples=30)
@given(artinian_ideals(), st.data())
def test_barycentrics_match_the_retired_solves(M, data):
    # the lifted hull's inner vertices lie off the simplex's affine hull;
    # the perturbed files move inner vertices out of the simplex or off it
    X = embedded_hull(M)
    mirror = _mirrored(X)
    assert refinement_failure(mirror) is None
    cases = [hull_complex(M), X, mirror,
             _mirrored(data.draw(st.sampled_from(list(_perturbations(X)))))]
    if len(M.generators) <= 15:
        cases.append(scarf_complex(M))
    for Z in cases:
        _assert_barycentrics_match_the_solves(Z)


def test_each_carrier_is_worked_out_once():
    # the reader's top flip reads only vertex coordinates; the refinement
    # check works out one carrier per nonempty face, 19 on the embedded
    # hull of Example 6.1, and the containment pass reads them
    obj = complex_to_json(embedded_hull(minimize(EX61_GENERATORS)))
    with mock.patch.object(simplex, "_carrier", side_effect=simplex._carrier) as carrier:
        X = complex_from_json(obj)
        assert carrier.call_count == 0
        residue_current(X)
    assert carrier.call_count == len(X.faces) - 1 == 19


def _assert_pivots_match_the_oracle(Z, O):
    """Each face's dimension and the pivots Z keeps."""
    assert {fid: face.dim for fid, face in Z.faces.items()} == O.dims
    assert Z.pivots == O.pivot_table()


def _assert_facets_match_the_oracle(Z, O):
    """Z's facets with their incidence signs."""
    assert Z.facet_ids == O.facet_ids()


def _assert_flips_match_the_oracle(Z, O):
    """Each face's flip."""
    assert {fid: face.flip for fid, face in Z.faces.items()} == O.flips()


def _assert_orientations_match_the_oracle(Z, O):
    """When Z refines its corner simplex, the faces carried by each face of
    the simplex with their orientations; and the faces ``orient_tops``
    flips, or its refusal where the oracle's top flip refuses.  Returns the
    number of faces that are no simplex among those checked against the
    simplex."""
    checked = []
    if refinement_failure(Z) is None:
        carried = carried_faces(Z)
        assert carried == O.carried()
        checked += [fid for faces in carried.values() for fid in faces]
    tops = O.top_flips()
    if tops is None:
        with pytest.raises(PreconditionError, match="affine hull"):
            simplex.orient_tops(Z)
    else:
        oriented = simplex.orient_tops(Z)
        top_faces = Z.faces_of_dim(Z.dim)
        assert {fid for fid in top_faces if oriented.face(fid).flip != Z.face(fid).flip} == tops
        checked += top_faces
    return sum(len(fid) > O.dims[fid] + 1 for fid in checked)


def _assert_signs_match_the_oracle(Z, O):
    """Every sign fact of Z against its sign oracle O: each face's dimension,
    the pivots Z keeps, its facets with their incidence signs, its flips, the
    orientations of the faces it carries into the corner simplex and its top
    flips.  Returns the number of faces that are no simplex among those
    checked against the simplex."""
    _assert_pivots_match_the_oracle(Z, O)
    _assert_facets_match_the_oracle(Z, O)
    _assert_flips_match_the_oracle(Z, O)
    return _assert_orientations_match_the_oracle(Z, O)


def _with_reoriented_copies(corpus):
    """Yields (complex, its oracle, filed, reoriented): each complex of a
    sign corpus, then its copy after its drawn ``reoriented`` calls, made
    only when the caller is done with the complex, so after the complex has
    read its own orientations."""
    for Z, O, calls, filed in corpus:
        yield Z, O, filed, False
        for flips in calls:
            Z, O = reoriented(Z, flips), O.flipped(flips)
        yield Z, O, filed, True


def _check_the_drawn_corpus(assert_facts):
    """Runs assert_facts on the complexes of each drawn sign corpus and
    their reoriented copies (``_with_reoriented_copies``, to be read in
    order), 30 examples.  The drawn sign tests each pass their facts
    through this one function, so hypothesis, derandomized, seeds them
    alike and they read the same corpora, whose oracle answers are cached."""
    @settings(max_examples=30)
    @given(sign_corpus("drawn"))
    def check(corpus):
        assert_facts(_with_reoriented_copies(corpus))

    check()


def test_stored_pivots_match_the_gram_oracle():
    # every drawn complex, file and reoriented copy keeps the Gram-Schmidt
    # pivots the oracle picks; a face missing from the table is a simplex
    def facts(pairs):
        for Z, O, _, _ in pairs:
            _assert_pivots_match_the_oracle(Z, O)

    _check_the_drawn_corpus(facts)


def test_face_data_and_signs_match_retired_rules():
    # the facets and incidence signs of the hull, embedded hull, Scarf and
    # Taylor (r <= 8) complexes, and of their reoriented copies
    def facts(pairs):
        for Z, O, filed, _ in pairs:
            if not filed:
                _assert_facets_match_the_oracle(Z, O)

    _check_the_drawn_corpus(facts)


def test_filed_signs_match_the_gram_rule():
    # the incidence signs of the drawn-bases files, read back, and of their
    # reoriented copies, against the oracle carrying the given bases
    def facts(pairs):
        for Z, O, filed, _ in pairs:
            if filed:
                _assert_facets_match_the_oracle(Z, O)

    _check_the_drawn_corpus(facts)


def test_given_bases_match_the_retired_rule():
    # a file's bases, read as flips of the pivot ones, then the reader's
    # top flip
    def facts(pairs):
        for Z, O, filed, copy in pairs:
            if filed and not copy:
                _assert_flips_match_the_oracle(Z, O)

    _check_the_drawn_corpus(facts)


def test_flips_match_the_oracle_bases():
    # the flips of the builds, the embedded hull's top flip among them, and
    # of every complex after 2 to 4 reoriented calls flipping one face twice
    def facts(pairs):
        for Z, O, filed, copy in pairs:
            if copy or not filed:
                _assert_flips_match_the_oracle(Z, O)

    _check_the_drawn_corpus(facts)


def test_orientations_match_the_gram_rule():
    # the lifted hull's inner vertices, and every Taylor complex of more
    # generators than variables, leave the top flip nothing to read
    def facts(pairs):
        non_simplices = sum(_assert_orientations_match_the_oracle(Z, O) for Z, O, _, _ in pairs)
        event(f"a checked face is no simplex: {non_simplices > 0}")

    _check_the_drawn_corpus(facts)


@pytest.mark.parametrize("source", FIXED_CORPUS)
def test_signs_match_the_sign_oracle(source):
    # every fixed entry carries faces that are no simplex but m^4 in 3
    # variables, whose complexes are simplicial; each draws its files' bases
    # and its reorientations 10 times
    @settings(max_examples=10)
    @given(sign_corpus(source))
    def check(corpus):
        non_simplices = sum(_assert_signs_match_the_oracle(Z, O)
                            for Z, O, _, _ in _with_reoriented_copies(corpus))
        assert (non_simplices > 0) == (source != "m4-n3")

    check()


def test_make_complex_rejects_nonpositive_weights_and_repeated_points():
    labels = {0: (1, 0), 1: (0, 1)}
    for bad in ((1, 0), (1, -1), (-2, -1), (Fraction(1, 2), 1), (1.0, 1)):
        with pytest.raises(InputError, match="positive last entry"):
            make_complex(2, {0: (0, 1), 1: bad}, labels, [(0, 1)])
    # (2, 2) is (1, 1) scaled: the same point
    with pytest.raises(InputError, match="pairwise distinct"):
        make_complex(2, {0: (1, 1), 1: (2, 2)}, labels, [(0, 1)])
    assert homogeneous((Fraction(-3, 4), 2, Fraction(5, 6))) == (-9, 24, 10, 12)


def _scaled(X, scales):
    """X rebuilt from its face sets, with each homogeneous vertex v times
    scales[v]."""
    return make_complex(
        X.n,
        {v: tuple(scales[v] * x for x in X.vertex_point(v)) for v in X.vertices},
        {v: X.vertex_label(v) for v in X.vertices},
        [fid for fid in X.faces if len(fid) >= 2],
    )


def _geometry(X):
    """What the geometry decides: dimensions, facets with their incidence
    signs, the signs of the barycentric coordinates against the corner
    simplex, the refinement verdict and the faces of X inside each face of
    the simplex."""
    coords = _vertex_barycentrics(X)[0]
    supports = {v: mu and tuple((c > 0) - (c < 0) for c in mu)
                for v, mu in coords.items()}
    return ({fid: f.dim for fid, f in X.faces.items()}, X.facet_ids, supports,
            refinement_failure(X), _library_containment(X))


@settings(max_examples=30)
@given(artinian_ideals(), st.data())
def test_positive_vertex_scales_change_no_geometry(M, data):
    X = embedded_hull(M)
    complexes = [X, scarf_complex(M)]
    if X.dim >= 1:
        complexes.append(without_face(X, data.draw(st.sampled_from(X.faces_of_dim(X.dim)))))
    scale = st.integers(1, 10**6)
    for Z in complexes:
        # the corner simplex takes the scales of Z's corners
        Zs = _scaled(Z, {v: data.draw(scale) for v in Z.vertices})
        Z1 = _scaled(Z, dict.fromkeys(Z.vertices, 1))
        assert _geometry(Zs) == _geometry(Z1)
        # the pivots and flips name the orientation bases, up to positive scales
        assert (Zs.faces, Zs.pivots) == (Z1.faces, Z1.pivots)
