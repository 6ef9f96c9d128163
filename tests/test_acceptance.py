"""Acceptance suite: every criterion exactly, zero tolerance throughout.

Each test prints one pass/fail line (visible with pytest -s or in failure
reports).
"""

import random
from contextlib import contextmanager
from itertools import permutations, product
from math import factorial, prod

import pytest

from cellres import (
    CHProduct,
    cellular_complex,
    chain_maps,
    complex_from_json,
    complex_to_json,
    contains,
    corner_simplex_complex,
    duality_counterexample,
    exactness_witness,
    fundamental_cycle_check,
    hull_complex,
    minimality_witness,
    minimize,
    multiplicity,
    permutation_cycle_check,
    pure_power_exponents,
    reoriented,
    residue_current,
    staircase_corners_2d,
    staircase_partition_2d,
    taylor_complex,
    verify_chain_maps,
)
from cellres.hull import default_lift_base
from cellres.residue import _verify_square
from conftest import (
    EX61_GENERATORS,
    embedded_hull,
    flip_sign,
    minimal_ex61_json,
    random_generic_ideal_3,
    random_staircase_ideal,
)
from oracles import (
    closed_form_current,
    graded_strand_inexact_degree,
    staircase_lattice_points,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def staircase_pool():
    rng = random.Random(61)
    pool = []
    for _ in range(50):
        M = random_staircase_ideal(rng)
        pool.append((M, embedded_hull(M)))
    return pool


@pytest.fixture(scope="module")
def generic3_pool():
    rng = random.Random(62)
    pool = []
    for _ in range(10):
        M = random_generic_ideal_3(rng)
        pool.append((M, embedded_hull(M)))
    return pool


@pytest.fixture(scope="module")
def ex61():
    M = minimize(EX61_GENERATORS)
    return M, embedded_hull(M)


def test_criterion_1_example_61_end_to_end(ex61):
    with criterion(1, "square of the maximal ideal, end to end"):
        M, X = ex61
        assert len(X.faces_of_dim(0)) == 6
        assert len(X.faces_of_dim(1)) == 9
        tops = X.faces_of_dim(2)
        assert len(tops) == 4
        assert sorted(X.face(f).label for f in tops) == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
        ]
        F = cellular_complex(X)
        assert exactness_witness(X) is None
        assert minimality_witness(F) is not None
        R = residue_current(X)
        assert len(R.entries) == 4
        assert all(c.sign == 1 for c in R.entries.values())
        assert sorted(c.alpha for c in R.entries.values()) == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
        ]
        checked = 0
        for beta in product(range(3), repeat=3):
            killed = all(
                any(beta[i] >= c.alpha[i] for i in range(3))
                for c in R.entries.values()
            )
            assert killed == contains(M, beta)
            checked += 1
        assert checked == 27


def test_criterion_2_complete_intersections():
    with criterion(2, "random complete intersections, n = 2, 3, 4"):
        rng = random.Random(63)
        for n in (2, 3, 4):
            for _ in range(5):
                b = tuple(rng.randint(1, 5) for _ in range(n))
                gens = [
                    tuple(b[i] if j == i else 0 for j in range(n)) for i in range(n)
                ]
                M = minimize(gens)
                X = embedded_hull(M)
                assert set(X.faces) == set(corner_simplex_complex(X).faces)
                R = residue_current(X)
                assert R.entries == {tuple(range(n)): CHProduct(1, b)}
                assert multiplicity(M) == prod(b)
                result = fundamental_cycle_check(X)
                assert result["ok"] and result["lhs"] == factorial(n) * prod(b)


def test_criterion_3_route_equivalence(staircase_pool, generic3_pool):
    with criterion(3, "chain-map transport vs closed form on 50 + 10 ideals"):
        assert len(staircase_pool) >= 50 and len(generic3_pool) >= 10
        for _, X in staircase_pool + generic3_pool:
            assert residue_current(X).entries == closed_form_current(X)


def test_criterion_4_commuting_diagram(staircase_pool, generic3_pool, ex61):
    with criterion(4, "comparison squares commute; corrupted sign fails"):
        instances = staircase_pool + generic3_pool + [ex61]
        for _, X in instances:
            assert verify_chain_maps(X) is None
        X = ex61[1]
        corrupted = flip_sign(chain_maps(X), 1)
        assert _verify_square(corrupted) == (1, (0,), (0, 1))


def test_criterion_5_exactness_oracle_agreement(ex61):
    with criterion(5, "lattice acyclicity route agrees with the graded oracle"):
        M61, X61 = ex61
        cases = [(M61, X61), (M61, taylor_complex(M61))]
        obj = complex_to_json(X61)
        deleted = complex_from_json({
            "vertices": obj["vertices"],
            "faces": [
                {"vertices": f["vertices"]}
                for f in obj["faces"]
                if f["vertices"] != [1, 2, 4]
            ],
        })
        rng = random.Random(64)
        small = []
        while len(small) < 8:
            M = random_staircase_ideal(rng, max_corners=3, max_step=2)
            if all(x <= 5 for x in pure_power_exponents(M)):
                small.append((M, embedded_hull(M)))
        for _ in range(3):
            M = random_generic_ideal_3(rng)
            small.append((M, embedded_hull(M)))
        for M, X in cases + small:
            F = cellular_complex(X)
            box = pure_power_exponents(M)
            assert all(x <= 5 for x in box)
            lattice_route = exactness_witness(X)
            strand_route = graded_strand_inexact_degree(F, box)
            assert (lattice_route is None) == (strand_route is None)
        F = cellular_complex(deleted)
        assert exactness_witness(deleted) == (1, 1, 1)
        assert graded_strand_inexact_degree(F, (2, 2, 2)) is not None


def test_criterion_6_fundamental_cycle(staircase_pool, generic3_pool, ex61):
    with criterion(6, "point-mass factorization, full and per permutation"):
        X61 = ex61[1]
        result = fundamental_cycle_check(X61)
        assert result["ok"] and result["lhs"] == 24
        for M, X in staircase_pool:
            m = multiplicity(M)
            assert fundamental_cycle_check(X)["ok"]
            corners = staircase_corners_2d(M)
            volumes = [
                corners[i][0] * (corners[i + 1][1] - corners[i][1])
                for i in range(len(corners) - 1)
            ]
            assert sum(volumes) == m
            tops = X.faces_of_dim(1)
            for s, order in (((1, 2), "P"), ((2, 1), "Q")):
                sub = permutation_cycle_check(X, s)
                assert sub["ok"] and sub["lhs"] == -m  # two-variable constant -1
                areas = [r.area for r in staircase_partition_2d(M, order)]
                assert [-sub["per_face"][f] for f in tops] == areas
                if order == "P":
                    assert areas == volumes
        for M, X in generic3_pool:
            m = multiplicity(M)
            assert fundamental_cycle_check(X)["ok"]
            for s in permutations((1, 2, 3)):
                sub = permutation_cycle_check(X, s)
                assert sub["ok"] and sub["lhs"] == m  # three-variable constant +1


def test_criterion_7_partition_properties(staircase_pool):
    with criterion(7, "staircase partitions: disjoint, covering, full area"):
        for M, _ in staircase_pool:
            box = pure_power_exponents(M)
            points = staircase_lattice_points(M.generators, box)
            m = multiplicity(M)
            assert len(points) == m
            for order in ("P", "Q"):
                rects = staircase_partition_2d(M, order)
                assert sum(r.area for r in rects) == m
                for x, y in points:
                    assert sum(1 for r in rects if r.contains(x, y)) == 1
                outside = [
                    (x, y)
                    for x in range(box[0] + 1)
                    for y in range(box[1] + 1)
                    if (x, y) not in set(points)
                ]
                for x, y in outside:
                    assert not any(r.contains(x, y) for r in rects)


def test_criterion_8_orientation_robustness(staircase_pool, generic3_pool, ex61):
    with criterion(8, "lower-face re-orientation changes nothing observable"):
        rng = random.Random(65)
        instances = [ex61] + staircase_pool[:5] + generic3_pool[:2]
        for _, X in instances:
            lower = [fid for fid, f in X.faces.items() if 1 <= f.dim < X.dim]
            flips = {fid for fid in lower if rng.random() < 0.5}
            Xr = reoriented(X, flips)
            baseline = residue_current(X)
            assert residue_current(Xr).entries == baseline.entries
            assert closed_form_current(Xr) == baseline.entries
            assert exactness_witness(Xr) == exactness_witness(X)
            assert (
                fundamental_cycle_check(Xr)["lhs"]
                == fundamental_cycle_check(X)["lhs"]
            )


def test_criterion_9_hull_stability(staircase_pool, generic3_pool, ex61):
    with criterion(9, "hull face posets agree at the lift base and its successor"):
        ideals = [M for M, _ in staircase_pool + generic3_pool] + [ex61[0]]
        for M in ideals:
            t = default_lift_base(M.n)
            fa = hull_complex(M, t)
            fb = hull_complex(M, t + 1)
            assert set(fa.faces) == set(fb.faces)
            assert fa.facet_ids == fb.facet_ids


def test_duality_on_the_pools(staircase_pool, generic3_pool):
    # cross-module closure: annihilators match ideals on the pure-power box
    for M, X in staircase_pool[:10] + generic3_pool[:3]:
        R = residue_current(X)
        assert duality_counterexample(R, M) is None


def test_minimal_fixture_round_trip(ex61):
    # the user-supplied minimal complex stays supported end to end
    X = ex61[1]
    fixture = minimal_ex61_json(X)
    loaded = complex_from_json(fixture)
    F = cellular_complex(loaded)
    assert exactness_witness(loaded) is None and minimality_witness(F) is None
    R = residue_current(loaded)
    assert sorted(c.alpha for c in R.entries.values()) == [
        (1, 1, 2), (1, 2, 1), (2, 1, 1),
    ]
    assert fundamental_cycle_check(loaded)["ok"]
