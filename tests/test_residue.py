import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cellres import (
    CHProduct,
    PreconditionError,
    annihilator_contains,
    ch_product,
    chain_maps,
    complex_from_json,
    contains,
    corner_simplex_complex,
    duality_counterexample,
    exactness_witness,
    first_difference,
    fundamental_cycle_check,
    irreducible_intersection,
    minimize,
    pure_power_exponents,
    refinement_failure,
    reoriented,
    residue_current,
    verify_chain_maps,
)
from cellres.residue import ResidueCurrent, _verify_square
from conftest import (
    EX61_GENERATORS,
    artinian_ideals,
    complete_intersection,
    embedded_hull,
    flip_sign,
    random_generic_ideal_3,
    random_staircase_ideal,
)
from itertools import product
from oracles import (
    SignedMonomial,
    ch_action,
    closed_form_current,
    dense_map,
    first_difference_by_box_scan,
    oriented_oracle,
)


def test_complete_intersection_residue():
    b = (2, 3, 4)
    D = embedded_hull(complete_intersection(b))
    R = residue_current(D)
    assert R.entries == {(0, 1, 2): CHProduct(1, b)}


def test_ex61_residue_entries(ex61_embedded):
    R = residue_current(ex61_embedded)
    assert len(R.entries) == 4
    assert all(c.sign == 1 for c in R.entries.values())
    assert R.entries[(1, 2, 4)] == CHProduct(1, (1, 1, 1))
    by_alpha = sorted(c.alpha for c in R.entries.values())
    assert by_alpha == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_fixture_minimal_complex_residue(ex61_ideal, ex61_minimal_fixture):
    X = complex_from_json(ex61_minimal_fixture)
    R = residue_current(X)
    assert sorted(c.alpha for c in R.entries.values()) == [
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]
    assert all(c.sign == 1 for c in R.entries.values())
    assert duality_counterexample(R, ex61_ideal) is None


def test_residue_rejects_inexact_complex(ex61_embedded, ex61_ideal):
    from cellres import complex_to_json

    obj = complex_to_json(ex61_embedded)
    faces = [
        {"vertices": f["vertices"]} for f in obj["faces"] if f["vertices"] != [1, 2, 4]
    ]
    X = complex_from_json({"vertices": obj["vertices"], "faces": faces})
    with pytest.raises(PreconditionError):
        residue_current(X)


def test_refining_complex_that_is_no_resolution_names_its_degree(tmp_path, monkeypatch):
    """A tree on the generators of m^3 in 2 variables that covers the corner
    segment but leaves z1z2^2 (vertex 2) and z2^3 (vertex 3) apart at
    degree (1, 3): the refinement check passes, so the current is refused
    by the exactness check, with its witness."""
    from cellres import cli

    generators = [[3, 0], [2, 1], [1, 2], [0, 3]]
    tree = {
        "vertices": [{"id": i, "coords": [x, 0], "label": g}
                     for i, (x, g) in enumerate(zip((0, 2, 1, 3), generators))],
        "faces": [{"vertices": [0, 2]}, {"vertices": [1, 2]}, {"vertices": [1, 3]}],
    }
    X = complex_from_json(tree)
    assert refinement_failure(X) is None
    assert exactness_witness(X) == (1, 3)
    message = "complex is not a resolution; fails at degree (1, 3)"
    with pytest.raises(PreconditionError) as err:
        residue_current(X)
    assert str(err.value) == message
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    for subcommand, code, payload in (
        ("residue", 2, {"error": message, "schema": "cellres/1"}),
        ("check-exact", 1, {"ok": False, "schema": "cellres/1", "witness": [1, 3]}),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
            {"n": 2, "generators": generators})))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.run([subcommand, "--complex", f"file:{path}"]) == code
        assert json.loads(sys.stdout.getvalue()) == payload


def test_ch_action():
    assert ch_action(ch_product(1, (2, 1)), (1, 0)) == 1
    assert ch_action(ch_product(1, (2, 1)), (2, 0)) == 0
    assert ch_action(ch_product(-1, (1, 1, 1)), (0, 0, 0)) == -1
    assert ch_action(CHProduct(0, (0, 0)), (0, 0)) == 0


def test_chain_maps_identity_on_delta():
    D = embedded_hull(complete_intersection((3, 2)))
    maps = chain_maps(D)
    for k in range(-1, 2):
        matrix = dense_map(maps, k)
        assert maps.target.basis(k) == maps.source.basis(k)
        for i, row in enumerate(matrix):
            for j, cell in enumerate(row):
                if i == j:
                    assert cell == SignedMonomial(1, (0, 0))
                else:
                    assert cell.sign == 0


def test_chain_maps_ex61(ex61_embedded):
    maps = chain_maps(ex61_embedded)
    top = dense_map(maps, 2)
    rows = maps.target.basis(2)
    entries = {rows[i]: top[i][0] for i in range(len(rows))}
    assert entries[(0, 1, 2)] == SignedMonomial(1, (0, 1, 1))  # z2 z3
    assert entries[(1, 2, 4)] == SignedMonomial(1, (1, 1, 1))
    # vertex level: each corner maps to the coinciding vertex with unit
    a0 = dense_map(maps, 0)
    rows0 = maps.target.basis(0)
    for j, corner in enumerate(maps.source.basis(0)):
        column = [a0[i][j] for i in range(len(rows0))]
        nonzero = [(rows0[i], c) for i, c in enumerate(column) if c.sign != 0]
        assert len(nonzero) == 1
        fid, cell = nonzero[0]
        assert cell == SignedMonomial(1, (0, 0, 0))
        Y = corner_simplex_complex(ex61_embedded)
        assert ex61_embedded.vertex_point(fid[0]) == Y.vertex_point(j)


def test_verify_chain_maps(ex61_embedded):
    assert verify_chain_maps(ex61_embedded) is None


# flipping one sign of a_k breaks the square first at level k
CORRUPTED_SQUARES = [
    (0, (0, (), (0,))),
    (1, (1, (0,), (0, 1))),
    (2, (2, (0, 1), (0, 1, 2))),
]


def test_corrupted_chain_map_fails_with_witness(ex61_embedded):
    maps = chain_maps(ex61_embedded)
    for k, witness in CORRUPTED_SQUARES:
        corrupted = flip_sign(maps, k)
        assert _verify_square(corrupted) == witness


def _with_corrupted_maps(X, k):
    """X with its stored chain maps replaced by a copy with one sign of a_k
    flipped, before any current is built."""
    X._derived["chain_maps"] = flip_sign(chain_maps(X), k)
    return X


@pytest.mark.parametrize("k, witness", CORRUPTED_SQUARES)
def test_current_needs_a_commuting_square(k, witness):
    X = _with_corrupted_maps(embedded_hull(minimize(EX61_GENERATORS)), k)
    with pytest.raises(PreconditionError) as err:
        residue_current(X)
    assert str(err.value) == f"comparison square does not commute at {witness}"


def _run_with_corrupted_maps(monkeypatch, subcommand, k):
    """(exit code, payload) of a CLI job on Example 6.1 whose complex has
    corrupted chain maps at level k."""
    from cellres import cli

    build = cli._build_complex
    monkeypatch.setattr(cli, "_build_complex",
                        lambda M, args: _with_corrupted_maps(build(M, args), k))
    job = {"n": 3, "generators": [list(g) for g in EX61_GENERATORS]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    code = cli.run([subcommand])
    return code, json.loads(sys.stdout.getvalue())


@pytest.mark.parametrize("k, witness", CORRUPTED_SQUARES)
def test_cli_residue_exits_2_when_the_square_fails(monkeypatch, k, witness):
    assert _run_with_corrupted_maps(monkeypatch, "residue", k) == (2, {
        "error": f"comparison square does not commute at {witness}",
        "schema": "cellres/1",
    })


def test_cli_compare_reports_the_failing_square(monkeypatch):
    code, payload = _run_with_corrupted_maps(monkeypatch, "compare", 1)
    assert (code, payload["ok"], payload["witness"]) == (1, False, [1, [0], [0, 1]])


def test_route_equality_small(ex61_embedded):
    assert residue_current(ex61_embedded).entries == closed_form_current(ex61_embedded)


def test_route_equality_random(rng):
    for _ in range(8):
        M = random_staircase_ideal(rng)
        X = embedded_hull(M)
        assert residue_current(X).entries == closed_form_current(X)
    for _ in range(2):
        M = random_generic_ideal_3(rng)
        X = embedded_hull(M)
        assert residue_current(X).entries == closed_form_current(X)


def test_residue_entry_invariants(rng):
    for _ in range(5):
        M = random_staircase_ideal(rng)
        b = pure_power_exponents(M)
        X = embedded_hull(M)
        R = residue_current(X)
        tops = X.faces_of_dim(X.n - 1)
        assert set(R.entries) == set(tops)
        carried = oriented_oracle(X).carried()[tuple(range(X.n))]
        for fid in tops:
            c = R.entries[fid]
            assert c.alpha == X.face(fid).label
            assert all(x <= y for x, y in zip(c.alpha, b))
            assert ch_action(c, tuple(a - 1 for a in c.alpha)) == carried[fid]
            bumped = (c.alpha[0],) + tuple(c.alpha[1:])
            assert ch_action(c, bumped) == 0


def test_annihilator_and_duality(ex61_embedded, ex61_ideal):
    R = residue_current(ex61_embedded)
    assert annihilator_contains(R, (1, 1, 0))
    assert not annihilator_contains(R, (1, 0, 0))
    assert duality_counterexample(R, ex61_ideal) is None
    for beta in product(range(3), repeat=3):
        assert annihilator_contains(R, beta) == contains(ex61_ideal, beta)


def test_duality_random(rng):
    for _ in range(5):
        M = random_staircase_ideal(rng)
        X = embedded_hull(M)
        assert duality_counterexample(residue_current(X), M) is None


def _perturbed(R, kind, fid, alpha):
    """R with one entry dropped, one exponent of an entry bumped, or an extra
    component alpha."""
    entries = dict(R.entries)
    if kind == "drop":
        del entries[fid]
    elif kind == "bump":
        c = entries[fid]
        entries[fid] = CHProduct(c.sign, (c.alpha[0] + 1,) + c.alpha[1:])
    elif kind == "extra":
        entries["extra"] = CHProduct(1, tuple(alpha))
    return ResidueCurrent(R.n, entries)


def test_duality_counterexample_hand_cases(ex61_embedded, ex61_ideal):
    R = residue_current(ex61_embedded)
    by_alpha = {c.alpha: fid for fid, c in R.entries.items()}
    M = minimize([(2, 0), (1, 1), (0, 2)])
    R2 = residue_current(embedded_hull(M))
    bumped2 = _perturbed(R2, "bump", next(iter(R2.entries)), None)
    assert sorted(c.alpha for c in bumped2.entries.values()) == [(1, 2), (3, 1)]
    extra = _perturbed(R, "extra", None, (1, 1, 3))
    cases = [
        # without (2,1,1), x annihilates the current
        (_perturbed(R, "drop", by_alpha[(2, 1, 1)], None), ex61_ideal, (1, 0, 0)),
        (_perturbed(R, "drop", by_alpha[(1, 1, 1)], None), ex61_ideal, None),
        # with (3,1,1) for (2,1,1), x^2 no longer annihilates
        (_perturbed(R, "bump", by_alpha[(2, 1, 1)], None), ex61_ideal, (2, 0, 0)),
        (extra, ex61_ideal, (0, 0, 2)),
        (bumped2, M, (2, 0)),
    ]
    for current, ideal, expected in cases:
        assert duality_counterexample(current, ideal) == expected
        alphas = [c.alpha for c in current.entries.values()]
        b = pure_power_exponents(ideal)
        # the box b, and one that dominates every alpha too
        for box in (b, tuple(x + 2 for x in b)):
            assert first_difference_by_box_scan(alphas, ideal.generators, box) == expected


@st.composite
def small_artinian_ideals(draw):
    n = draw(st.integers(2, 3))
    powers = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    extras = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=3
    ))
    gens = [tuple(p if j == i else 0 for j in range(n)) for i, p in enumerate(powers)]
    return minimize(gens + [tuple(g) for g in extras if any(g)])


@settings(max_examples=30)
@given(small_artinian_ideals(), st.sampled_from([None, "drop", "bump", "extra"]),
       st.data())
def test_duality_against_box_scan(M, kind, data):
    n = M.n
    b = pure_power_exponents(M)
    R = residue_current(embedded_hull(M))
    fid = data.draw(st.sampled_from(sorted(R.entries)))
    alpha = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    R = _perturbed(R, kind, fid, alpha)
    alphas = [c.alpha for c in R.entries.values()]
    # the box-free witness is the scan's over b and over any drawn box that
    # dominates both ideals' pure powers
    top = [max([x] + [a[i] for a in alphas]) for i, x in enumerate(b)]
    box = tuple(x + data.draw(st.integers(0, 2)) for x in top)
    expected = first_difference_by_box_scan(alphas, M.generators, box)
    assert first_difference_by_box_scan(alphas, M.generators, b) == expected
    assert duality_counterexample(R, M) == expected
    assert (first_difference(irreducible_intersection(alphas, n), M) is None) == (
        expected is None
    )
    if kind is None:
        assert expected is None


def test_residue_invariant_under_lower_reorientation(ex61_embedded, rng):
    X = ex61_embedded
    lower = [fid for fid, f in X.faces.items() if 1 <= f.dim < X.dim]
    flips = {fid for fid in lower if rng.random() < 0.5}
    Xr = reoriented(X, flips)
    assert (
        residue_current(Xr).entries
        == residue_current(X).entries
    )
    assert closed_form_current(Xr) == residue_current(X).entries


@settings(max_examples=40)
@given(artinian_ideals())
def test_routes_agree_and_fundamental_cycle_on_random_ideals(M):
    X = embedded_hull(M)
    R = residue_current(X)
    assert closed_form_current(X) == R.entries
    assert fundamental_cycle_check(X)["ok"]
