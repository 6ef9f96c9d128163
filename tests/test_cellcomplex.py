from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cellres import (
    InputError,
    PreconditionError,
    complex_from_json,
    complex_to_json,
    contained_faces,
    corner_simplex_complex,
    homogeneous,
    hull_complex,
    is_refinement,
    lcm,
    linalg,
    make_complex,
    minimize,
    pure_power_exponents,
    residue_current,
    reoriented,
    scarf_complex,
    sign_facet,
    sign_same_span,
    taylor_complex,
)
from cellres.cellcomplex import (
    _geometric_facets,
    _refinement_failure,
    _vertex_barycentrics,
)
from conftest import (
    EX61_GENERATORS,
    artinian_ideals,
    artinian_ideals_2_to_4,
    embedded_hull,
    maximal_ideal_power,
    random_complete_intersection,
    random_generic_ideal_3,
    random_staircase_ideal,
    without_face,
)
from oracles import (
    affine,
    barycenter_sign_facet,
    cofaces,
    face_volume_rel,
    pairwise_contained_faces,
    pairwise_is_refinement,
    point_in_simplex,
    scan_face_data,
    subcomplex_leq,
)


def homogeneous_points(points):
    return {v: homogeneous(p) for v, p in points.items()}


def triangle_complex(bases=None):
    points = homogeneous_points({0: (0, 0), 1: (1, 0), 2: (0, 1)})
    labels = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    return make_complex(3, points, labels, [(0, 1, 2), (0, 1), (0, 2), (1, 2)],
                        bases=bases)


def test_simplex_facet_signs_match_vertex_removal():
    X = triangle_complex()
    top = (0, 1, 2)
    assert sign_facet(X, (1, 2), top) == 1   # removing the first vertex
    assert sign_facet(X, (0, 2), top) == -1  # removing the second
    assert sign_facet(X, (0, 1), top) == 1


def test_edge_facet_signs():
    X = triangle_complex()
    assert sign_facet(X, (1,), (0, 1)) == 1
    assert sign_facet(X, (0,), (0, 1)) == -1
    assert sign_facet(X, (), (0,)) == 1


def test_sign_facet_requires_facet():
    X = triangle_complex()
    with pytest.raises(PreconditionError):
        sign_facet(X, (0,), (0, 1, 2))


def test_sign_same_span():
    X = triangle_complex()
    top = X.face((0, 1, 2))
    assert sign_same_span(top, top) == 1
    swapped = make_complex(
        3,
        homogeneous_points({0: (0, 0), 1: (1, 0), 2: (0, 1)}),
        {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)},
        [(0, 1, 2), (0, 1), (0, 2), (1, 2)],
        bases={(0, 1, 2): [top.basis[1], top.basis[0]]},
    )
    assert sign_same_span(swapped.face((0, 1, 2)), top) == -1
    assert sign_same_span(X.face((0,)), X.face((1,))) == 1


def test_sign_same_span_subtriangle_det_oracle():
    # a small counterclockwise triangle inside a counterclockwise one
    inner_pts = homogeneous_points({0: (Fraction(1, 4), Fraction(1, 4)),
                                    1: (Fraction(1, 2), Fraction(1, 4)),
                                    2: (Fraction(1, 4), Fraction(1, 2))})
    labels = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    inner = make_complex(3, inner_pts, labels,
                         [(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    outer = triangle_complex()
    a = inner.face((0, 1, 2))
    b = outer.face((0, 1, 2))
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]
    expected = 1 if det(*a.basis) * det(*b.basis) > 0 else -1
    assert sign_same_span(a, b) == expected


def test_sign_same_span_errors():
    X = triangle_complex()
    with pytest.raises(PreconditionError):
        sign_same_span(X.face((0, 1)), X.face((0, 1, 2)))
    with pytest.raises(PreconditionError):
        sign_same_span(X.face((0, 1)), X.face((1, 2)))


def test_signs_invariant_under_positive_basis_change():
    X = triangle_complex()
    top = X.face((0, 1, 2))
    b1, b2 = top.basis
    sheared = triangle_complex(bases={
        (0, 1, 2): [tuple(2 * x + y for x, y in zip(b1, b2)), b2],
    })
    for tau in X.facets((0, 1, 2)):
        assert sign_facet(sheared, tau, (0, 1, 2)) == sign_facet(X, tau, (0, 1, 2))
    assert sign_same_span(sheared.face((0, 1, 2)), top) == 1


def test_reorientation_flips_signs():
    X = triangle_complex()
    flipped = reoriented(X, {(0, 1, 2)})
    for tau in X.facets((0, 1, 2)):
        assert sign_facet(flipped, tau, (0, 1, 2)) == -sign_facet(X, tau, (0, 1, 2))


def _delta(ex61_embedded):
    return corner_simplex_complex(ex61_embedded, (2, 2, 2))


def test_cofaces_counts(ex61_embedded):
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    boundary_simplices = [
        [affine(p) for p in Y.face_points(fid)] for fid in Y.faces_of_dim(1)
    ]
    for edge in X.faces_of_dim(1):
        pts = [affine(p) for p in X.face_points(edge)]
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
    assert is_refinement(Y, Y)
    assert is_refinement(ex61_embedded, Y)


def test_refinement_rejects_label_bump(ex61_embedded):
    Y = _delta(ex61_embedded)
    obj = complex_to_json(ex61_embedded)
    for v in obj["vertices"]:
        if v["label"] == [2, 0, 0]:
            v["label"] = [3, 0, 0]
    for f in obj["faces"]:
        del f["label"]
    bumped = complex_from_json(obj)
    assert not is_refinement(bumped, Y)


def test_refinement_rejects_non_simplex_reference(ex61_embedded):
    with pytest.raises(PreconditionError):
        is_refinement(ex61_embedded, ex61_embedded)


def test_contained_faces_top_and_vertices(ex61_embedded):
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    assert contained_faces(Y, (0, 1, 2), X, 2) == X.faces_of_dim(2)
    for i, vid in enumerate([0, 3, 5]):
        assert contained_faces(Y, (i,), X, 0) == [(vid,)]


def test_contained_faces_edge(ex61_embedded):
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    inside = contained_faces(Y, (0, 1), X, 1)
    assert inside == [(0, 1), (1, 3)]
    assert {X.face(f).label for f in inside} == {(2, 1, 0), (1, 2, 0)}
    # barycentric containment oracle
    segment = [affine(p) for p in Y.face_points((0, 1))]
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
            basis = Y.face(sid).basis
            origin = Y.face_points(sid)[0]
            total = sum(
                face_volume_rel(X, fid, basis, origin)
                for fid in contained_faces(Y, sid, X, k)
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
    checked = 0
    for k in (1, 2):
        for sid in Y.faces_of_dim(k):
            for sprime in contained_faces(Y, sid, X, k):
                for tau in Y.facets(sid):
                    if Y.face(tau).dim < 0:
                        continue
                    tau_pts = [affine(p) for p in Y.face_points(tau)]
                    for tprime in X.facets(sprime):
                        if X.face(tprime).dim < 0:
                            continue
                        if not all(
                            point_in_simplex(affine(X.vertex_point(v)), tau_pts)
                            for v in tprime
                        ):
                            continue
                        lhs = sign_same_span(X.face(sprime), Y.face(sid)) * sign_facet(
                            X, tprime, sprime
                        )
                        rhs = sign_facet(Y, tau, sid) * sign_same_span(
                            X.face(tprime), Y.face(tau)
                        )
                        assert lhs == rhs
                        checked += 1
    assert checked > 0


def test_interior_facet_cancellation(ex61_embedded):
    # subdividing an oriented polytope: the two cofaces of an interior facet
    # contribute opposite signed incidences
    X = ex61_embedded
    Y = _delta(ex61_embedded)
    checked = 0
    for k in (1, 2):
        for sid in Y.faces_of_dim(k):
            spts = [affine(p) for p in Y.face_points(sid)]
            inside_k = contained_faces(Y, sid, X, k)
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
                total = sign_same_span(X.face(s1), Y.face(sid)) * sign_facet(
                    X, tau, s1
                ) + sign_same_span(X.face(s2), Y.face(sid)) * sign_facet(X, tau, s2)
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


def test_json_loader_honors_explicit_bases(ex61_embedded):
    obj = complex_to_json(ex61_embedded)

    # flip one interior edge by reversing its basis vector
    target = [1, 4]
    basis = ex61_embedded.face((1, 4)).basis
    for f in obj["faces"]:
        if f["vertices"] == target:
            f["orientation_basis"] = [[str(-c) for c in basis[0]]]
        del f["label"], f["dim"]
    loaded = complex_from_json(obj)
    assert sign_same_span(loaded.face((1, 4)), ex61_embedded.face((1, 4))) == -1
    # top faces still canonical (the loader reflips only top dimension)
    for fid in loaded.faces_of_dim(2):
        assert sign_same_span(loaded.face(fid), ex61_embedded.face(fid)) == 1


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


def _assert_facets_are_geometric(X):
    """Every face's facets equal the supporting-flat test on the same
    candidates: the listed faces of one dimension less inside it."""
    points = {v: X.vertex_point(v) for v in X.vertices}
    for fid, face in X.faces.items():
        if face.dim <= 0:
            continue
        candidates = [t for t in X.faces_of_dim(face.dim - 1) if set(t) < set(fid)]
        assert X.facets(fid) == tuple(sorted(_geometric_facets(points, fid, candidates)))


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


def test_quadrilateral_facets_skip_listed_diagonal():
    # a listed diagonal lies inside the square but is not a facet of it;
    # only a face with more vertices than a simplex can tell them apart
    points = homogeneous_points({0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)})
    labels = {i: (1, 1) for i in range(4)}
    X = make_complex(
        2, points, labels,
        [(0, 1, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )
    assert X.facets((0, 1, 2, 3)) == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert X.facets((0, 2)) == ((0,), (2,))


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
    Y = _delta(X)
    assert _refinement_failure(X, Y) is None
    assert _refinement_failure(_bumped(X, 0, 0), Y) == (
        "label of face (0,) does not divide the label of (0,)"
    )
    # vertex 4 (z2 z3) lies on the edge of z2^2 and z3^2: reflect it
    # through the corner z1^2, out of the simplex
    outside = tuple(
        2 * c - p for c, p in zip(affine(X.vertex_point(0)), affine(X.vertex_point(4)))
    )
    with pytest.raises(PreconditionError, match=r"corner simplex: vertex 4 lies outside"):
        residue_current(_moved(X, 4, outside), (2, 2, 2))
    with pytest.raises(
        PreconditionError,
        match=r"corner simplex: face \(0, 1, 2\) is covered with volume 3/4$",
    ):
        residue_current(without_face(X, (0, 1, 2)), (2, 2, 2))
    with pytest.raises(
        PreconditionError,
        match=r"corner simplex: face \(0, 1, 2\) is covered with volume 0$",
    ):
        residue_current(scarf_complex(minimize(EX61_GENERATORS)), (2, 2, 2))


def _containment(X, Y, refines, contained):
    """The refinement verdict and the faces of X inside each face of Y; a
    disagreement of support and geometry counts as an outcome."""
    outcomes = [refines(X, Y)]
    for sid in sorted(Y.faces):
        if not sid:
            continue
        try:
            outcomes.append(contained(Y, sid, X, len(sid) - 1))
        except (PreconditionError, ValueError) as exc:
            outcomes.append(str(exc).split(":")[0])
    return outcomes


def _assert_containment_matches_oracle(X, Y):
    assert _containment(X, Y, is_refinement, contained_faces) == _containment(
        X, Y, pairwise_is_refinement, pairwise_contained_faces
    )


def _perturbations(X, Y):
    """Complexes next to X, most of which do not refine Y: every vertex
    label bumped in every variable, every top face dropped, and every inner
    vertex moved towards or away from each corner of Y or off the affine
    hull of Y (moves that leave no complex are skipped)."""
    for v in sorted(X.vertices):
        for var in range(X.n):
            yield _bumped(X, v, var)
    for fid in X.faces_of_dim(X.dim):
        yield without_face(X, fid)
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
    X = embedded_hull(M)
    Y = corner_simplex_complex(X, pure_power_exponents(M))
    yield X, Y
    if len(M.generators) <= 15:
        yield scarf_complex(M), Y


@settings(max_examples=40)
@given(artinian_ideals())
def test_containment_matches_pairwise_oracle(M):
    for X, Y in _containment_cases(M):
        _assert_containment_matches_oracle(X, Y)
    assert is_refinement(*next(_containment_cases(M)))


@settings(max_examples=40)
@given(artinian_ideals(), st.data())
def test_containment_matches_pairwise_oracle_on_perturbed_complexes(M, data):
    X, Y = next(_containment_cases(M))
    _assert_containment_matches_oracle(
        data.draw(st.sampled_from(list(_perturbations(X, Y)))), Y
    )


def test_containment_matches_pairwise_oracle_on_seeded_ideals(rng):
    # fixed and seeded families beside the random draws above; Scarf
    # complexes of non-generic ideals among them do not refine the simplex
    ideals = [minimize(EX61_GENERATORS), maximal_ideal_power(3, 3)]
    for _ in range(3):
        ideals += [random_staircase_ideal(rng), random_generic_ideal_3(rng)]
    verdicts = []
    for M in ideals:
        for X, Y in _containment_cases(M):
            _assert_containment_matches_oracle(X, Y)
            verdicts.append(is_refinement(X, Y))
    assert True in verdicts and False in verdicts


def test_containment_matches_pairwise_oracle_on_perturbed_ex61(ex61_embedded):
    X = ex61_embedded
    Y = _delta(X)
    verdicts = []
    for perturbed in _perturbations(X, Y):
        _assert_containment_matches_oracle(perturbed, Y)
        verdicts.append(is_refinement(perturbed, Y))
    assert verdicts.count(True) < verdicts.count(False)


@settings(max_examples=20)
@given(artinian_ideals())
def test_barycentric_coordinates_solved_once_per_vertex(M):
    X = embedded_hull(M)
    Y = corner_simplex_complex(X, pure_power_exponents(M))
    with mock.patch.object(linalg, "solve", side_effect=linalg.solve) as solve:
        assert is_refinement(X, Y)
        assert solve.call_count == len(X.vertices)
        for sid in Y.faces:
            if sid:
                contained_faces(Y, sid, X, len(sid) - 1)
        assert solve.call_count == len(X.vertices)


def _assert_face_data_matches_scan(X, tops_may_flip=False):
    """Dimensions, orientation bases and facets agree with the rule
    make_complex had, each basis vector up to a positive scale; tops that
    orient_tops_to may have flipped can carry the first basis vector
    negated."""
    points = {v: affine(X.vertex_point(v)) for v in X.vertices}
    expected = scan_face_data(points, [fid for fid in X.faces if fid])
    for fid, (dim, basis, facets) in expected.items():
        face = X.face(fid)
        allowed = [basis]
        if tops_may_flip and dim == X.dim and basis:
            allowed.append((tuple(-x for x in basis[0]),) + basis[1:])
        assert (face.dim, X.facets(fid)) == (dim, facets), fid
        assert any(
            len(face.basis) == len(vectors)
            and all(map(_positive_multiple, face.basis, vectors))
            for vectors in allowed
        ), fid


def _positive_multiple(b, e):
    k = next(i for i, x in enumerate(e) if x)
    c = Fraction(b[k]) / e[k]
    return c > 0 and all(x == c * y for x, y in zip(b, e))


def _assert_signs_match_barycenter_rule(X):
    for sigma, face in X.faces.items():
        if face.dim >= 1:
            for tau in X.facets(sigma):
                assert sign_facet(X, tau, sigma) == barycenter_sign_facet(X, tau, sigma)


def _assert_retired_rules_hold(M):
    """On the hull, the embedded hull, the Scarf and (for r <= 6) the
    Taylor complex of M, and on the embedded hull with every other face
    reoriented."""
    X = embedded_hull(M)
    found = [(hull_complex(M), False), (X, True), (scarf_complex(M), False)]
    if len(M.generators) <= 6:
        found.append((taylor_complex(M), False))
    for Y, tops_may_flip in found:
        _assert_face_data_matches_scan(Y, tops_may_flip)
        _assert_signs_match_barycenter_rule(Y)
    _assert_signs_match_barycenter_rule(reoriented(X, set(sorted(X.faces)[::2])))


@settings(max_examples=25)
@given(artinian_ideals_2_to_4())
def test_face_data_and_signs_match_retired_rules(M):
    _assert_retired_rules_hold(M)


def test_face_data_and_signs_match_retired_rules_on_fixed_complexes(
        ex61_ideal, ex61_minimal_fixture):
    loaded = complex_from_json(ex61_minimal_fixture)
    assert (0, 1, 2, 4) in loaded.faces
    _assert_face_data_matches_scan(loaded, tops_may_flip=True)
    _assert_signs_match_barycenter_rule(loaded)
    for M in (ex61_ideal, maximal_ideal_power(3, 4), maximal_ideal_power(4, 2)):
        _assert_retired_rules_hold(M)


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
        lift_base=X.lift_base,
    )


def _geometry(X, Y):
    """What the geometry decides: dimensions, facets, incidence signs, the
    signs of the barycentric coordinates against Y, the refinement verdict
    and the faces of X inside each face of Y."""
    signs = {(tau, sigma): sign_facet(X, tau, sigma)
             for sigma in X.faces for tau in X.facets(sigma)}
    coords = _vertex_barycentrics(X, Y)[0]
    supports = {v: mu and {y: (c > 0) - (c < 0) for y, c in mu.items()}
                for v, mu in coords.items()}
    return ({fid: f.dim for fid, f in X.faces.items()}, X.facet_ids, signs, supports,
            _refinement_failure(X, Y),
            _containment(X, Y, is_refinement, contained_faces))


@settings(max_examples=30)
@given(artinian_ideals(), st.data())
def test_positive_vertex_scales_change_no_geometry(M, data):
    X = embedded_hull(M)
    Y = corner_simplex_complex(X, pure_power_exponents(M))
    complexes = [X, scarf_complex(M)]
    if X.dim >= 1:
        complexes.append(without_face(X, data.draw(st.sampled_from(X.faces_of_dim(X.dim)))))
    scale = st.integers(1, 10**6)
    Ys = _scaled(Y, {y: data.draw(scale) for y in Y.vertices})
    for Z in complexes:
        Zs = _scaled(Z, {v: data.draw(scale) for v in Z.vertices})
        Z1 = _scaled(Z, dict.fromkeys(Z.vertices, 1))
        assert _geometry(Zs, Ys) == _geometry(Z1, Y)
        for fid, face in Zs.faces.items():
            assert all(map(_positive_multiple, face.basis, Z1.face(fid).basis))
