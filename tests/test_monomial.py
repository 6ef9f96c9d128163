import pytest
from hypothesis import given, settings, strategies as st

from cellres import (
    InputError,
    PreconditionError,
    contains,
    first_difference,
    ideal_from_json,
    irreducible_intersection,
    is_artinian,
    is_generic,
    lcm,
    lcm_lattice,
    minimize,
    multiplicity,
    pure_power_exponents,
    staircase_corners_2d,
)
from conftest import EX61_GENERATORS, artinian_ideals, random_staircase_ideal
from oracles import (
    first_difference_by_box_scan,
    multiplicity_by_inclusion_exclusion,
    staircase_lattice_points,
    subset_lcm_lattice,
)


# Staircase-drawn ideals in one to four variables.  A side of at most 3 keeps
# the generator count, the exponent of the inclusion-exclusion oracle, at 18
# or less over the drawn examples; side 4 reaches 26.
IDEALS = artinian_ideals(min_n=1, max_n=4, max_side=3)


def test_minimize_drops_divisible():
    M = minimize([(2, 0), (1, 1), (0, 2), (2, 1)])
    assert set(M.generators) == {(2, 0), (1, 1), (0, 2)}


def test_minimize_keeps_minimal():
    M = minimize([(1, 0), (0, 1)])
    assert set(M.generators) == {(1, 0), (0, 1)}


def test_minimize_against_pairwise_scan_oracle():
    gens = EX61_GENERATORS + [(2, 2, 0)]
    expected = [
        g
        for g in gens
        if not any(
            h != g and all(x <= y for x, y in zip(h, g)) for h in gens
        )
    ]
    M = minimize(gens)
    assert set(M.generators) == set(expected) == set(EX61_GENERATORS)


def test_minimize_idempotent_and_order_independent(rng):
    for _ in range(20):
        gens = [
            tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(1, 8))
        ]
        if all(all(x == 0 for x in g) for g in gens):
            continue
        M = minimize(gens)
        rng.shuffle(gens)
        assert minimize(gens) == M
        assert minimize(M.generators) == M


def test_minimize_errors():
    with pytest.raises(InputError):
        minimize([])
    with pytest.raises(InputError):
        minimize([(1, 0), (1, 0, 0)])
    with pytest.raises(InputError):
        minimize([(1, -1)])


def test_contains(ex61_ideal):
    assert contains(ex61_ideal, (1, 1, 0))
    assert not contains(ex61_ideal, (1, 0, 0))
    assert contains(ex61_ideal, (0, 0, 2))
    with pytest.raises(InputError):
        contains(ex61_ideal, (1, 0))


def test_contains_monotone(rng):
    M = minimize([(2, 0, 1), (0, 3, 0), (1, 1, 1), (3, 0, 0), (0, 0, 2)])
    for _ in range(50):
        beta = tuple(rng.randint(0, 3) for _ in range(3))
        bigger = tuple(b + rng.randint(0, 2) for b in beta)
        if contains(M, beta):
            assert contains(M, bigger)


def test_is_artinian():
    assert is_artinian(minimize([(2, 0), (1, 1), (0, 3)]))
    assert not is_artinian(minimize([(1, 1)]))
    assert is_artinian(minimize(EX61_GENERATORS))


def test_pure_power_exponents(ex61_ideal):
    assert pure_power_exponents(ex61_ideal) == (2, 2, 2)
    assert pure_power_exponents(minimize([(2, 0), (1, 1), (0, 3)])) == (2, 3)
    assert pure_power_exponents(minimize([(3, 0, 0), (0, 1, 0), (0, 0, 7)])) == (3, 1, 7)
    with pytest.raises(PreconditionError):
        pure_power_exponents(minimize([(1, 1)]))


def test_lcm():
    assert lcm((2, 1, 0), (1, 1, 2)) == (2, 1, 2)
    assert lcm((3, 1), (0, 0)) == (3, 1)
    acc = (1, 1, 0)
    for v in [(1, 0, 1), (0, 1, 1)]:
        acc = lcm(acc, v)
    assert acc == (1, 1, 1)
    with pytest.raises(InputError):
        lcm((1, 0), (1, 0, 0))


def test_lcm_semilattice_laws(rng):
    for _ in range(30):
        a, b, c = (
            tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(3)
        )
        assert lcm(a, b) == lcm(b, a)
        assert lcm(a, a) == a
        assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))


def test_lcm_lattice_small_cases():
    assert lcm_lattice(minimize([(2, 0), (0, 2)])) == {(2, 0), (0, 2), (2, 2)}
    assert lcm_lattice(minimize([(3, 1)])) == {(3, 1)}
    M = minimize([(2, 0), (1, 1), (0, 2)])
    assert lcm_lattice(M) == {(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}


def test_lcm_lattice_against_subset_oracle(rng):
    for _ in range(10):
        gens = {
            tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(1, 7))
        }
        gens = {g for g in gens if any(g)}
        if not gens:
            continue
        M = minimize(list(gens))
        assert lcm_lattice(M) == subset_lcm_lattice(M.generators)


def test_lcm_lattice_closed_under_lcm(ex61_ideal):
    lattice = lcm_lattice(ex61_ideal)
    for a in lattice:
        for b in lattice:
            assert lcm(a, b) in lattice


def test_multiplicity(ex61_ideal):
    assert multiplicity(ex61_ideal) == 4
    assert multiplicity(minimize([(2, 0, 0), (0, 3, 0), (0, 0, 4)])) == 24
    assert multiplicity(minimize([(2, 0), (1, 1), (0, 2)])) == 3


def test_multiplicity_example61_staircase_points(ex61_ideal):
    outside = [
        beta
        for beta in [
            (i, j, k) for i in range(3) for j in range(3) for k in range(3)
        ]
        if not contains(ex61_ideal, beta)
    ]
    assert sorted(outside) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_multiplicity_against_inclusion_exclusion(rng):
    for _ in range(15):
        M = random_staircase_ideal(rng)
        box = pure_power_exponents(M)
        assert multiplicity(M) == multiplicity_by_inclusion_exclusion(
            M.generators, box
        )
    M = minimize(EX61_GENERATORS)
    assert multiplicity(M) == multiplicity_by_inclusion_exclusion(
        M.generators, (2, 2, 2)
    )


@settings(max_examples=80)
@given(IDEALS)
def test_multiplicity_against_box_scan_and_inclusion_exclusion(M):
    b = pure_power_exponents(M)
    m = multiplicity(M)
    assert m == len(staircase_lattice_points(M.generators, b))
    assert m == multiplicity_by_inclusion_exclusion(M.generators, b)


def test_multiplicity_large_exponents():
    assert multiplicity(minimize([(1000, 0, 0), (0, 1000, 0), (0, 0, 1000)])) == 10**9
    gens = [(1000, 0, 0), (0, 1000, 0), (0, 0, 1000), (400, 300, 200), (100, 600, 500)]
    M = minimize(gens)
    assert multiplicity(M) == multiplicity_by_inclusion_exclusion(
        M.generators, (1000, 1000, 1000)
    )
    assert multiplicity(minimize([(7,), (9,)])) == 7
    with pytest.raises(PreconditionError):
        multiplicity(minimize([(1000, 0), (1, 1)]))


def test_is_generic(ex61_ideal, rng):
    assert not is_generic(ex61_ideal)
    for _ in range(10):
        assert is_generic(random_staircase_ideal(rng))
    assert is_generic(minimize([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)]))


def _difference(components, M):
    """The first difference of the irreducible intersection with M."""
    return first_difference(irreducible_intersection(components, M.n), M)


def test_irreducible_intersection(ex61_ideal):
    components = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    assert _difference(components, ex61_ideal) is None
    assert _difference(components + [(1, 1, 1)], ex61_ideal) is None
    ci = minimize([(3, 0), (0, 2)])
    assert _difference([(3, 2)], ci) is None
    assert contains(irreducible_intersection(components, 3), (1, 1, 0))
    assert not contains(irreducible_intersection(components, 3), (1, 0, 0))
    with pytest.raises(InputError):
        irreducible_intersection([(1, 1)], 3)


def test_irreducible_intersection_generators(ex61_ideal):
    components = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    assert irreducible_intersection(components, 3) == ex61_ideal
    assert irreducible_intersection([(2, 1), (1, 2)], 2) == minimize(
        [(2, 0), (1, 1), (0, 2)]
    )
    assert irreducible_intersection([(3, 2)], 2).generators == ((3, 0), (0, 2))
    assert irreducible_intersection([], 2).generators == ((0, 0),)
    assert irreducible_intersection([(0, 5), (2, 3)], 2).generators == ((2, 0), (0, 3))


def test_first_difference_hand_cases(ex61_ideal):
    M = minimize([(2, 0), (1, 1), (0, 2)])
    bumped = irreducible_intersection([(3, 1), (1, 2)], 2)  # (x^3, xy, y^2)
    assert first_difference(M, bumped) == (2, 0)
    assert first_difference(bumped, M) == (2, 0)
    assert first_difference(M, M) is None
    # no box: the ideals need not be Artinian
    assert first_difference(minimize([(1, 0)]), minimize([(1, 0), (0, 3)])) == (0, 3)
    # Dropping the component (2,1,1) of Example 6.1 lets x into the intersection.
    loose = irreducible_intersection([(1, 1, 1), (1, 1, 2), (1, 2, 1)], 3)
    assert first_difference(ex61_ideal, loose) == (1, 0, 0)


def test_equals_ideal_false_verdicts(ex61_ideal):
    M = minimize([(2, 0), (1, 1), (0, 2)])
    assert _difference([(2, 1), (1, 2)], M) is None
    assert _difference([(3, 1), (1, 2)], M) == (2, 0)
    assert _difference([(2, 1)], M) == (0, 1)
    assert _difference([(2, 1), (1, 2), (1, 1)], M) is None
    assert _difference([(2, 1), (1, 2), (1, 3)], M) == (0, 2)
    assert _difference([(1, 1, 2), (1, 2, 1), (1, 1, 1)], ex61_ideal) == (1, 0, 0)


@settings(max_examples=80)
@given(IDEALS, st.data())
def test_equals_ideal_against_box_scan(M, data):
    """The box-free witness is the scan's over the pure-power box b and over
    any drawn box that dominates both ideals' pure powers."""
    n = M.n
    b = pure_power_exponents(M)
    components = data.draw(st.lists(
        st.lists(st.integers(1, 6), min_size=n, max_size=n), max_size=5
    ))
    top = [max([x] + [a[i] for a in components]) for i, x in enumerate(b)]
    box = tuple(x + data.draw(st.integers(0, 2)) for x in top)
    witness = first_difference_by_box_scan(components, M.generators, box)
    assert first_difference_by_box_scan(components, M.generators, b) == witness
    assert first_difference(irreducible_intersection(components, n), M) == witness


def test_staircase_corners():
    assert staircase_corners_2d(minimize([(2, 0), (1, 1), (0, 2)])) == [
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert staircase_corners_2d(minimize([(0, 2), (2, 0), (1, 1)])) == [
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert staircase_corners_2d(minimize([(3, 0), (1, 2), (0, 4)])) == [
        (3, 0),
        (1, 2),
        (0, 4),
    ]
    with pytest.raises(PreconditionError):
        staircase_corners_2d(minimize([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_ideal_from_json():
    M = ideal_from_json({"n": 2, "generators": [[2, 0], [1, 1], [0, 2], [2, 1]]})
    assert set(M.generators) == {(2, 0), (1, 1), (0, 2)}
    with pytest.raises(InputError):
        ideal_from_json({"n": 2, "generators": [[2, 0]], "extra": 1})
    with pytest.raises(InputError):
        ideal_from_json({"n": 0, "generators": [[1]]})
    with pytest.raises(InputError):
        ideal_from_json({"n": True, "generators": [[3]]})
    with pytest.raises(InputError):
        ideal_from_json({"n": 2, "generators": []})
