import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cellres import (
    CellresError,
    InputError,
    PreconditionError,
    chain_maps,
    corner_simplex_complex,
    cellular_complex,
    exactness_witness,
    homogeneous,
    hull_complex,
    linalg,
    make_complex,
    minimality_witness,
    minimize,
    reduced_homology_ranks,
    reoriented,
    scarf_complex,
    staircase_corners_2d,
    taylor_complex,
    verify_chain_maps,
)
from cellres.cellcomplex import LabeledCellComplex
from cellres.residue import _verify_square
from cellres.resolution import _face_masks
from conftest import (
    artinian_ideals_2_to_4,
    complete_intersection,
    drawn_builds,
    embedded_hull,
    flip_sign,
    maximal_ideal_power,
    random_staircase_ideal,
    sign_corpus,
    with_reoriented_copies,
    without_face,
)
from oracles import (
    ExactnessOracle,
    SignedMonomial,
    boundary_squared_failure,
    comparison_square_failure,
    dense_matrix,
    sign_oracle,
    smith_diagonal,
    subset_lcm_lattice,
)


def koszul_matrices(b):
    """Independent Koszul complex by the standard contraction formula."""
    n = len(b)
    levels = {
        k: sorted(combinations(range(n), k + 1)) for k in range(0, n)
    }
    levels[-1] = [()]
    matrices = {}
    for k in range(0, n):
        rows = levels[k - 1]
        cols = levels[k]
        row_index = {f: i for i, f in enumerate(rows)}
        matrix = [[SignedMonomial(0, (0,) * n) for _ in cols] for _ in rows]
        for j, col in enumerate(cols):
            for pos, var in enumerate(col):
                row = col[:pos] + col[pos + 1 :]
                exp = tuple(b[var] if i == var else 0 for i in range(n))
                matrix[row_index[row]][j] = SignedMonomial((-1) ** pos, exp)
        matrices[k] = matrix
    return levels, matrices


@pytest.mark.parametrize("b", [(2, 3), (2, 3, 4), (1, 2, 1, 3)])
def test_delta_cellular_complex_is_koszul(b):
    F = cellular_complex(embedded_hull(complete_intersection(b)))
    levels, matrices = koszul_matrices(b)
    for k in range(0, len(b)):
        assert list(F.basis(k)) == levels[k]
        phi = dense_matrix(F, k)
        for i, row in enumerate(matrices[k]):
            for j, expected in enumerate(row):
                assert phi[i][j] == expected


def test_staircase_mapping_shape():
    M = minimize([(3, 0), (1, 2), (0, 4)])
    X = embedded_hull(M)
    F = cellular_complex(X)
    corners = staircase_corners_2d(M)
    for i in range(len(corners) - 1):
        a_i, b_i = corners[i]
        a_next, b_next = corners[i + 1]
        col = F.basis(1).index((i, i + 1))
        phi1 = dense_matrix(F, 1)
        entries = {
            F.basis(0)[row]: phi1[row][col]
            for row in range(len(F.basis(0)))
            if phi1[row][col].sign != 0
        }
        assert entries == {
            (i + 1,): SignedMonomial(1, (a_i - a_next, 0)),
            (i,): SignedMonomial(-1, (0, b_next - b_i)),
        }


def test_single_vertex_complex():
    X = make_complex(2, {0: homogeneous((0, 0))}, {0: (1, 2)}, [])
    F = cellular_complex(X)
    assert F.basis(0) == ((0,),)
    assert dense_matrix(F, 0) == ((SignedMonomial(1, (1, 2)),),)


def test_boundary_squared_zero_everywhere(ex61_embedded, rng):
    cellular_complex(ex61_embedded)
    for _ in range(3):
        cellular_complex(embedded_hull(random_staircase_ideal(rng)))
    cellular_complex(taylor_complex(minimize([(2, 0), (1, 1), (0, 2)])))


def test_broken_boundary_is_rejected():
    # make_complex refuses a square with an edge left out; filed by hand, the
    # open boundary fails d^2 = 0
    points = {v: homogeneous(p) for v, p in
              {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}.items()}
    labels = {i: (1, 1) for i in range(4)}
    edges = [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(InputError, match="boundary is not covered"):
        make_complex(2, points, labels, [(0, 1, 2, 3), *edges])
    X = make_complex(2, points, labels, [(0, 1, 2, 3), (0, 3), *edges])
    faces = {fid: f for fid, f in X.faces.items() if fid != (0, 3)}
    facet_ids = {fid: {tau: s for tau, s in X.facet_ids[fid].items() if tau != (0, 3)}
                 for fid in faces}
    with pytest.raises(CellresError, match="between levels 2 and 0"):
        cellular_complex(LabeledCellComplex(X.n, X.vertices, faces, facet_ids, X.pivots))


def test_edge_with_equal_vertex_signs_is_rejected():
    # both ends of one edge enter its boundary with +1, so edge -> vertices
    # -> empty face sums to 2: only the level-1 product sees it first
    X = taylor_complex(minimize([(2, 0), (1, 1), (0, 2)]))
    edge = X.faces_of_dim(1)[0]
    bad = LabeledCellComplex(X.n, X.vertices, X.faces,
                             {**X.facet_ids, edge: dict.fromkeys(X.facets(edge), 1)}, X.pivots)
    with pytest.raises(CellresError, match="between levels 1 and -1"):
        cellular_complex(bad)


def test_is_exact_taylor_and_hull(ex61_ideal, ex61_embedded):
    T = taylor_complex(ex61_ideal)
    assert exactness_witness(T) is None
    assert exactness_witness(ex61_embedded) is None


def test_face_deleted_ex61_is_inexact(ex61_embedded):
    X = without_face(ex61_embedded, (1, 2, 4))
    assert exactness_witness(X) == (1, 1, 1)
    # the offending subcomplex is a hollow triangle: one 1-cycle survives
    assert reduced_homology_ranks(cellular_complex(X), (1, 1, 1)) == [0, 0, 1, 0]
    # the same rank via a Smith-form oracle on the edge boundary the
    # exactness oracle reads
    E = ExactnessOracle(sign_oracle(X))
    under = E.under((1, 1, 1))
    assert [len(under[k]) for k in range(3)] == [3, 3, 0]
    rank = len(smith_diagonal(E.boundary(under, 1)))
    assert len(under[1]) - rank == 1  # one-dimensional cycle space survives


def test_homology_rank_examples(ex61_ideal):
    T = taylor_complex(minimize([(2, 0), (1, 1), (0, 2)]))
    assert reduced_homology_ranks(cellular_complex(T), (2, 2)) == [0, 0, 0, 0]

    points = {v: homogeneous(p) for v, p in {0: (0, 0), 1: (1, 0), 2: (0, 1)}.items()}
    labels = {i: (1, 1) for i in range(3)}
    hollow = cellular_complex(make_complex(2, points, labels, [(0, 1), (0, 2), (1, 2)]))
    assert reduced_homology_ranks(hollow, (1, 1)) == [0, 0, 1]
    # under beta = 0 only the empty face is left: reduced H_{-1} is Q
    assert reduced_homology_ranks(hollow, (0, 0)) == [1, 0, 0]

    two_points = cellular_complex(
        make_complex(1, {0: homogeneous((0,)), 1: homogeneous((1,))},
                     {0: (1,), 1: (2,)}, [])
    )
    assert reduced_homology_ranks(two_points, (2,)) == [0, 1]
    assert reduced_homology_ranks(two_points, (1,)) == [0, 0]


def test_homology_ranks_match_rebuilt_subcomplexes(ex61_ideal, ex61_embedded):
    # at every degree of the box, joins or not
    for X in (ex61_embedded, without_face(ex61_embedded, (1, 2, 4)),
              taylor_complex(ex61_ideal)):
        F = cellular_complex(X)
        E = ExactnessOracle(sign_oracle(X))
        for beta in product(range(3), repeat=3):
            assert reduced_homology_ranks(F, beta) == E.ranks(beta), beta


def test_minimality(ex61_ideal, ex61_embedded, rng):
    F = cellular_complex(ex61_embedded)
    assert minimality_witness(F) == ((1, 2), (1, 2, 4))
    from conftest import random_generic_ideal_3

    M = random_generic_ideal_3(rng)
    S = scarf_complex(M)
    assert minimality_witness(cellular_complex(S)) is None
    K = embedded_hull(complete_intersection((2, 3, 4)))
    assert minimality_witness(cellular_complex(K)) is None


def _assert_witnesses_agree(X, O=None):
    """The library scan and the exactness oracle, on the sign oracle O of X
    or a new one, over the joins of the vertex labels and over the box up to
    their lcm, name the same first inexact degree, or all None."""
    E = ExactnessOracle(O or sign_oracle(X))
    labels = [X.vertex_label(v) for v in X.vertices]
    witness = exactness_witness(X)
    assert witness == E.witness(subset_lcm_lattice(labels))
    assert witness == E.witness(product(*(range(b + 1) for b in map(max, zip(*labels)))))
    return witness


def test_exactness_agrees_with_graded_strand_oracle(ex61_ideal, ex61_embedded, rng):
    # Example 6.1: hull, Taylor and Scarf (not a resolution: the ideal is not
    # generic), and the hull with each of its triangles left out
    X = ex61_embedded
    complexes = [X, taylor_complex(ex61_ideal), scarf_complex(ex61_ideal)]
    complexes += [without_face(X, fid) for fid in X.faces_of_dim(2)]
    witnesses = [_assert_witnesses_agree(Z) for Z in complexes]
    assert witnesses[:2] == [None, None] and None not in witnesses[2:]
    assert witnesses[3 + X.faces_of_dim(2).index((1, 2, 4))] == (1, 1, 1)
    for _ in range(3):
        M = random_staircase_ideal(rng, max_corners=4, max_step=2)
        assert _assert_witnesses_agree(embedded_hull(M)) is None


def with_vertex(X, label, v, joined=False):
    """X and one more vertex with the given label, beyond X in the first
    coordinate from the vertex v, and joined to v by an edge when
    ``joined``."""
    far = 1 + max(abs(x) for w in X.vertices for x in X.vertex_point(w))
    point = list(X.vertex_point(v))
    point[0] += far * point[-1]
    new = max(X.vertices) + 1
    points = {w: X.vertex_point(w) for w in X.vertices}
    labels = {w: X.vertex_label(w) for w in X.vertices}
    return make_complex(
        X.n, {**points, new: tuple(point)}, {**labels, new: tuple(label)},
        [fid for fid in X.faces if len(fid) >= 2] + ([(v, new)] if joined else []),
    )


def with_whisker(X, u, i, v):
    """X and one more vertex, joined by an edge to the vertex v, with the
    label of the vertex u times z_i: not a minimal generator, so the vertex
    labels still generate X's ideal."""
    label = list(X.vertex_label(u))
    label[i] += 1
    return with_vertex(X, label, v, joined=True)


def test_whisker_with_a_non_minimal_label_can_break_exactness(ex61_embedded):
    # z1^2 z2 hangs off z2^2: under (2, 1, 0) it is a point apart from z1^2
    X = with_whisker(ex61_embedded, 0, 1, 3)
    assert _assert_witnesses_agree(X) == (2, 1, 0)
    assert _assert_witnesses_agree(with_whisker(ex61_embedded, 0, 1, 0)) is None


@settings(max_examples=40)
@given(sign_corpus("drawn"))
def test_collapse_scan_matches_rank_only_scan(corpus):
    # the hull, embedded hull, Scarf (inexact when the ideal is not generic)
    # and Taylor complexes, their files and reoriented copies; the Taylor
    # complex, every vertex set a face, only up to 6 generators
    for Z, O, _, _ in with_reoriented_copies(corpus):
        if len(Z.vertices) <= 6 or len(Z.faces) < 1 << len(Z.vertices):
            _assert_witnesses_agree(Z, O)


@settings(max_examples=30)
@given(drawn_builds())
def test_face_masks_select_the_faces_under_each_join(builds):
    # the scan's live set at a degree, the AND of one table entry per
    # coordinate, is the nonempty faces whose label divides it, whether or
    # not the collapse then settles the degree; on the builds of the drawn
    # corpus, whose files have the same faces and labels
    for Z, O in builds:
        F = cellular_complex(Z)
        faces = [fid for k in range(F.top + 1) for fid in F.basis(k)]
        tables = _face_masks(F)[2]
        E = ExactnessOracle(O)
        for beta in subset_lcm_lattice([Z.vertex_label(v) for v in Z.vertices]):
            live = -1
            for table, b in zip(tables, beta):
                live &= table[b]
            under = E.under(beta)
            assert {fid for i, fid in enumerate(faces) if live >> i & 1} == {
                fid for k in range(F.top + 1) for fid in under[k]}


@settings(max_examples=40)
@given(sign_corpus("drawn"), st.data())
def test_exactness_witness_matches_rebuilt_subcomplex_oracle(corpus, data):
    # the oracle rebuilds each subcomplex X_{<=beta} from the face labels;
    # here on complexes made from the drawn embedded hull X, a resolution,
    # that are none: X with a drawn top face tau left out fails first at
    # tau's label, also beside a lone vertex of that label (a collapse that
    # took a face with two live cofaces as free could empty the rest and
    # leave that vertex, a false "acyclic"), and X with a drawn whisker
    X = corpus[1][0]
    tau = data.draw(st.sampled_from(X.faces_of_dim(X.dim)))
    holed = without_face(X, tau)
    lone = with_vertex(holed, X.face(tau).label, min(X.vertices))
    assert _assert_witnesses_agree(holed) == _assert_witnesses_agree(lone) == X.face(tau).label
    vertices = sorted(X.vertices)
    _assert_witnesses_agree(with_whisker(X, data.draw(st.sampled_from(vertices)),
                                         data.draw(st.integers(0, X.n - 1)),
                                         data.draw(st.sampled_from(vertices))))


def test_collapse_scan_matches_rank_only_scan_on_inexact_scarf_complexes():
    # m^4 in 3 and m^2 in 4 variables are not generic, and their Scarf
    # complexes fail where the collapse gets stuck
    for n, d in ((3, 4), (4, 2), (3, 2)):
        assert _assert_witnesses_agree(scarf_complex(maximal_ideal_power(n, d))) is not None


def _rank_calls(monkeypatch, X):
    """exactness_witness(X) and the number of linalg.rank calls its scan
    makes; F is built first."""
    cellular_complex(X)
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda matrix: calls.append(1) or rank(matrix))
    return exactness_witness(X), len(calls)


def test_a_stuck_collapse_leaves_the_verdict_to_rank(monkeypatch):
    # a hollow triangle under one label: every vertex has two cofaces, so
    # no pair is free, and the ranks at levels 0 and 1 find the 1-cycle
    points = {v: homogeneous(p) for v, p in enumerate([(0, 0), (1, 0), (0, 1)])}
    hollow = make_complex(2, points, dict.fromkeys(range(3), (1, 1)), [(0, 1), (0, 2), (1, 2)])
    assert _rank_calls(monkeypatch, hollow) == ((1, 1), 2)
    # beside a lone vertex: a collapse that took a face with two cofaces as
    # free would remove the triangle and leave that vertex, a false "acyclic"
    apart = with_vertex(hollow, (1, 1), 0)
    assert _rank_calls(monkeypatch, apart) == ((1, 1), 2)
    assert _assert_witnesses_agree(apart) == (1, 1)


def test_exactness_invariant_under_reorientation(ex61_embedded, rng):
    flippable = [
        fid for fid, f in ex61_embedded.faces.items() if f.dim >= 1
    ]
    flips = {fid for fid in flippable if rng.random() < 0.5}
    X = reoriented(ex61_embedded, flips)
    assert exactness_witness(X) is None


def _sign_cases(M, data):
    """Hull, embedded hull, Scarf, Taylor for few generators, and the
    embedded hull with a drawn set of faces reoriented."""
    X = embedded_hull(M)
    yield hull_complex(M)
    yield X
    if len(M.generators) <= 12:
        yield scarf_complex(M)
    if len(M.generators) <= 6:
        yield taylor_complex(M)
    yield reoriented(X, data.draw(st.sets(st.sampled_from(sorted(X.faces)))))


def _draw_flip(record, data):
    """A level of the record's sign columns and the index of one of its
    nonzero entries."""
    k = data.draw(st.sampled_from(sorted(record.columns)))
    count = sum(len(column) for column in record.columns[k])
    return k, data.draw(st.integers(0, count - 1))


def _d_squared_verdict(X, G):
    """The first level cellular_complex reports d^2 != 0 at, or None, when
    it builds a fresh copy of X with the incidence signs of G filed."""
    copy = LabeledCellComplex(X.n, X.vertices, X.faces, {**X.facet_ids, **{
        sigma: {G.basis(k - 1)[i]: sign for i, sign in column.items()}
        for k, level in G.columns.items()
        for sigma, column in zip(G.basis(k), level)
    }}, X.pivots)
    try:
        cellular_complex(copy)
    except CellresError as exc:
        return int(re.search(r"between levels (\d+) and", str(exc)).group(1))
    return None


@settings(max_examples=25)
@given(artinian_ideals_2_to_4(), st.data())
def test_sign_sums_match_polynomial_oracle(M, data):
    """d^2 = 0 and the comparison square decided on integer sums of signs
    agree with the polynomial products of the dense views, on the complexes
    as built and with one drawn sign negated."""
    for X in _sign_cases(M, data):
        F = cellular_complex(X)
        assert boundary_squared_failure(F) is None
        G = flip_sign(F, *_draw_flip(F, data))
        assert _d_squared_verdict(X, G) == boundary_squared_failure(G)
        try:
            maps = chain_maps(X)
        except PreconditionError:  # X does not refine the corner simplex
            continue
        phi, psi = F, cellular_complex(corner_simplex_complex(X))
        assert verify_chain_maps(X) is None
        assert comparison_square_failure(phi, psi, maps, X.n) is None
        corrupted = flip_sign(maps, *_draw_flip(maps, data))
        expected = comparison_square_failure(phi, psi, corrupted, X.n)
        assert _verify_square(corrupted) == expected
