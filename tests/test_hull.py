from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from cellres import (
    InputError,
    PreconditionError,
    corner_simplex_complex,
    default_lift_base,
    delta_complex,
    embed_in_simplex,
    exactness_witness,
    hull_complex,
    is_exact,
    is_refinement,
    minimize,
    scarf_complex,
    taylor_complex,
)
from cellres import hull, linalg, monomial
from conftest import (
    artinian_ideals,
    artinian_ideals_2_to_4,
    embedded_hull,
    maximal_ideal_power,
    random_generic_ideal,
    random_generic_ideal_3,
    random_staircase_ideal,
)
from oracles import (
    affine,
    all_k_bounded_face_sets,
    face_volume_rel,
    hull_face_sets,
    subset_scan_scarf_faces,
)


def test_complete_intersection_hull_is_simplex():
    M = minimize([(3, 0, 0), (0, 2, 0), (0, 0, 4)])
    H = hull_complex(M)
    assert len(H.faces) == 2 ** 3
    assert H.faces_of_dim(2) == [(0, 1, 2)]
    assert H.face((0, 1, 2)).label == (3, 2, 4)
    # descending-lex vertex order puts variable i at id i
    assert [H.vertex_label(v) for v in range(3)] == [(3, 0, 0), (0, 2, 0), (0, 0, 4)]


def test_ex61_hull_counts_and_labels(ex61_hull):
    assert len(ex61_hull.faces_of_dim(0)) == 6
    assert len(ex61_hull.faces_of_dim(1)) == 9
    tops = ex61_hull.faces_of_dim(2)
    assert len(tops) == 4
    assert sorted(ex61_hull.face(f).label for f in tops) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]


def test_staircase_path_hull():
    M = minimize([(2, 0), (1, 1), (0, 2)])
    H = hull_complex(M)
    assert H.faces_of_dim(1) == [(0, 1), (1, 2)]
    assert H.face((0, 1)).label == (2, 1)
    assert H.face((1, 2)).label == (1, 2)


def test_hull_stability_between_lift_bases(ex61_ideal):
    t = default_lift_base(3)
    fa = set(hull_complex(ex61_ideal, t, check_stability=False).faces)
    fb = set(hull_complex(ex61_ideal, t + 1, check_stability=False).faces)
    assert fa == fb


def test_hull_rejects_small_lift_base(ex61_ideal):
    for t in (3, 30.0, "x", True):
        with pytest.raises(InputError):
            hull_complex(ex61_ideal, t)


def test_hull_requires_artinian():
    with pytest.raises(PreconditionError):
        hull_complex(minimize([(1, 1)]))


def test_embedding_fixes_corner_vertices(ex61_hull, ex61_embedded):
    for vid in (0, 3, 5):
        assert ex61_embedded.vertex_point(vid) == ex61_hull.vertex_point(vid)


def test_embedding_of_mixed_vertex(ex61_hull, ex61_embedded):
    # vertex 1 carries z1 z2 at (t, t, 1); its image solves the one linear
    # equation for the line through (1,1,1) meeting the corner hyperplane
    t = Fraction(ex61_hull.lift_base)
    p = affine(ex61_hull.vertex_point(1))
    assert p == (t, t, 1)
    weights = [1 / (t**2 - 1)] * 3
    s = 1 / sum(w * (x - 1) for w, x in zip(weights, p))
    expected = tuple(1 + s * (x - 1) for x in p)
    assert affine(ex61_embedded.vertex_point(1)) == expected


def test_embedded_hull_refines_corner_simplex(ex61_embedded):
    Y = corner_simplex_complex(ex61_embedded, (2, 2, 2))
    assert is_refinement(ex61_embedded, Y)


def test_embedded_top_volumes_fill_simplex(ex61_embedded):
    Y = corner_simplex_complex(ex61_embedded, (2, 2, 2))
    top = Y.faces_of_dim(2)[0]
    basis = Y.face(top).basis
    origin = Y.face_points(top)[0]
    total = sum(
        face_volume_rel(ex61_embedded, fid, basis, origin)
        for fid in ex61_embedded.faces_of_dim(2)
    )
    assert total == face_volume_rel(Y, top, basis, origin)


def test_delta_complex_is_embedded_ci_hull():
    b = (2, 3)
    M = minimize([(2, 0), (0, 3)])
    H = embed_in_simplex(hull_complex(M), b)
    D = delta_complex(b)
    assert set(H.faces) == set(D.faces)
    for v in H.vertices:
        assert H.vertex_point(v) == D.vertex_point(v)


def test_scarf_equals_hull_for_generic(rng):
    for _ in range(5):
        M = random_generic_ideal_3(rng)
        X = embedded_hull(M)
        S = scarf_complex(M)
        assert set(S.faces) == set(X.faces)
        for fid in S.faces:
            assert S.face(fid).label == X.face(fid).label
        labels = [f.label for fid, f in X.faces.items() if f.dim >= 0]
        assert len(labels) == len(set(labels))


def test_scarf_ex61_drops_inner_triangle(ex61_ideal):
    S = scarf_complex(ex61_ideal)
    assert (1, 2, 4) not in S.faces
    # brute-force uniqueness oracle over all 2^6 subsets
    gens = ex61_ideal.generators
    lcms = {}
    for size in range(1, 7):
        for combo in combinations(range(6), size):
            key = tuple(max(col) for col in zip(*(gens[i] for i in combo)))
            lcms.setdefault(key, []).append(combo)
    expected = {
        combos[0]
        for combos in lcms.values()
        if len(combos) == 1
    }
    actual = {fid for fid in S.faces if len(fid) >= 1}
    assert actual == expected
    assert (1, 2) in lcms[(1, 1, 1)][0] or len(lcms[(1, 1, 1)]) > 1


def test_scarf_single_generator():
    S = scarf_complex(minimize([(2,)]))
    assert set(S.faces) == {(), (0,)}


def test_scarf_bound():
    with pytest.raises(PreconditionError):
        scarf_complex(minimize([(2, 0), (0, 2)]), max_generators=1)


def test_taylor_small_counts():
    M2 = minimize([(2, 0), (0, 2)])
    T2 = taylor_complex(M2)
    assert len(T2.faces_of_dim(0)) == 2 and len(T2.faces_of_dim(1)) == 1
    M3 = minimize([(2, 0), (1, 1), (0, 2)])
    T3 = taylor_complex(M3)
    assert len(T3.faces_of_dim(1)) == 3 and len(T3.faces_of_dim(2)) == 1


def test_taylor_always_exact(ex61_ideal, rng):
    for M in [
        minimize([(2, 0), (1, 1), (0, 2)]),
        minimize([(3, 0), (2, 2), (1, 3), (0, 4)]),
        ex61_ideal,
    ]:
        T = taylor_complex(M)
        assert is_exact(T, M)


def test_face_labels_divide_generator_join(ex61_embedded):
    join = (2, 2, 2)
    for fid, face in ex61_embedded.faces.items():
        assert all(x <= y for x, y in zip(face.label, join))


def test_hull_n1():
    M = minimize([(4,)])
    H = hull_complex(M)
    assert set(H.faces) == {(), (0,)}
    X = embed_in_simplex(H, (4,))
    assert X.vertex_point(0) == H.vertex_point(0)
    assert exactness_witness(X, M) is None


def assert_hull_matches_oracle(M):
    t = default_lift_base(M.n)
    for base in (t, t + 1):
        faces = set(hull_complex(M, base, check_stability=False).faces) - {()}
        assert faces == hull_face_sets(M.generators, base)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_hull_matches_oracle_on_maximal_ideal_powers(n, d):
    assert_hull_matches_oracle(maximal_ideal_power(n, d))


def test_hull_matches_oracle_on_seeded_ideals(ex61_ideal, rng):
    assert_hull_matches_oracle(ex61_ideal)
    for _ in range(5):
        assert_hull_matches_oracle(random_generic_ideal_3(rng))
        assert_hull_matches_oracle(random_staircase_ideal(rng))


@settings(max_examples=40)
@given(artinian_ideals())
def test_hull_matches_oracle_on_random_ideals(M):
    assert_hull_matches_oracle(M)


def seeded_generic_ideals(rng):
    return [random_generic_ideal(rng, n, r)
            for n, r in ((2, 9), (3, 8), (3, 12), (3, 16), (4, 10))]


def assert_scarf_matches_subset_scan(M):
    S = scarf_complex(M)
    assert set(S.faces) - {()} == subset_scan_scarf_faces(M.generators)


def assert_bounded_faces_match_all_k_scan(M):
    t = default_lift_base(M.n)
    for base in (t, t + 1):
        points = [tuple(base ** a for a in g) for g in M.generators]
        assert set(hull._bounded_face_sets(points)) == all_k_bounded_face_sets(points)


@settings(max_examples=40)
@given(artinian_ideals_2_to_4())
def test_scarf_and_bounded_faces_match_retired_scans(M):
    assert_scarf_matches_subset_scan(M)
    assert_bounded_faces_match_all_k_scan(M)


def test_scarf_and_bounded_faces_match_retired_scans_on_generic_ideals(rng):
    for M in seeded_generic_ideals(rng):
        assert_scarf_matches_subset_scan(M)
        assert_bounded_faces_match_all_k_scan(M)


def test_scarf_search_matches_subset_scan_on_maximal_ideal_powers():
    for n, d in ((2, 4), (3, 2), (3, 3), (4, 2)):
        assert_scarf_matches_subset_scan(maximal_ideal_power(n, d))


def counting(monkeypatch, targets):
    """Wrap each (module, name) so that its calls are counted; returns the
    list holding the count."""
    count = [0]
    for module, name in targets:
        original = getattr(module, name)

        def wrapper(*args, _original=original):
            count[0] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)
    return count


@pytest.mark.parametrize("n,d", [(2, 5), (3, 4), (4, 2)])
def test_facet_supports_makes_one_cross_product_per_n_subset(monkeypatch, n, d):
    M = maximal_ideal_power(n, d)
    points = [tuple(default_lift_base(n) ** a for a in g) for g in M.generators]
    calls = counting(monkeypatch, [(linalg, "cross_product")])
    hull._facet_supports(points)
    assert calls[0] == comb(len(points), n)


def test_scarf_search_is_output_sensitive(monkeypatch, rng):
    """On 16 generic generators in 3 variables the search makes at most
    r^2 lcm and divisibility tests per face, far below the 2^16 lcms of a
    scan over all subsets."""
    M = random_generic_ideal(rng, 3, 16)
    r = len(M.generators)
    calls = counting(monkeypatch, [(hull, "lcm"), (hull, "divides"),
                                   (monomial, "lcm"), (monomial, "divides")])
    S = scarf_complex(M)
    faces = len(S.faces) - 1
    assert calls[0] <= faces * r * r
    assert calls[0] < 2 ** r // 8
    assert set(S.faces) - {()} == subset_scan_scarf_faces(M.generators)
