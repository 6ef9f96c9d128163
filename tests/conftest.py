import os
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

# Property tests draw the same examples on every run and have no deadline:
# exact arithmetic on a large draw may take long.
settings.register_profile("cellres", derandomize=True, deadline=None)
settings.load_profile("cellres")

sys.path.insert(0, str(Path(__file__).parent))
# pytest puts src/ on sys.path (pyproject.toml); the CLI subprocess tests
# need it on PYTHONPATH too, so an uninstalled checkout runs the suite.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

from cellres import (
    embed_in_simplex,
    hull_complex,
    is_artinian,
    is_generic,
    minimize,
    pure_power_exponents,
)

EX61_GENERATORS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def random_staircase_ideal(rng, max_corners=5, max_step=3):
    """Artinian ideal in two variables with a random staircase."""
    r = rng.randint(2, max_corners)
    a_steps = [rng.randint(1, max_step) for _ in range(r - 1)]
    b_steps = [rng.randint(1, max_step) for _ in range(r - 1)]
    a = [sum(a_steps[i:]) for i in range(r - 1)] + [0]
    b = [0] + [sum(b_steps[: i + 1]) for i in range(r - 1)]
    return minimize(list(zip(a, b)))


def random_generic_ideal_3(rng, max_extra=3):
    """Artinian generic ideal in three variables.

    Positive exponents are drawn distinct per variable, so no two
    generators share a positive degree; the genericity predicate is still
    applied as a filter.
    """
    while True:
        powers = [rng.randint(2, 5) for _ in range(3)]
        extras = rng.randint(1, max_extra)
        columns = []
        if any(len(range(1, p)) < extras for p in powers):
            continue
        for p in powers:
            pool = list(range(1, p))
            rng.shuffle(pool)
            columns.append(pool[:extras])
        gens = [
            tuple(powers[i] if j == i else 0 for j in range(3)) for i in range(3)
        ]
        gens += [tuple(columns[i][k] for i in range(3)) for k in range(extras)]
        M = minimize(gens)
        if is_artinian(M) and is_generic(M):
            return M


def maximal_ideal_power(n, d):
    """m^d: all monomials of degree d in n variables."""
    return minimize([e for e in product(range(d + 1), repeat=n) if sum(e) == d])


def random_complete_intersection(rng, n):
    powers = [rng.randint(1, 5) for _ in range(n)]
    gens = [tuple(powers[i] if j == i else 0 for j in range(n)) for i in range(n)]
    return minimize(gens)


@st.composite
def artinian_ideals(draw):
    """Artinian ideals in two or three variables, drawn by their staircase.

    The staircase, the monomials outside the ideal, is a partition (n = 2)
    or a plane partition (n = 3) inside a box of side at most 4: heights in
    0..side over the cells of the (n-1)-dimensional base, sorted to be
    weakly decreasing along every axis, and at least 1 at the origin.  The
    ideal is minimally generated by the monomials outside the staircase
    whose every predecessor z^e / z_i lies inside it.
    """
    n = draw(st.integers(2, 3))
    side = draw(st.integers(2, 4))
    raw = draw(st.lists(st.integers(0, side), min_size=side ** (n - 1),
                        max_size=side ** (n - 1)))
    # sorting the rows, then the columns, keeps the rows sorted; one row
    # when n = 2, and heights[j][i] is the height over the cell (i, j)
    rows = [sorted(raw[i:i + side], reverse=True) for i in range(0, len(raw), side)]
    heights = [sorted(column, reverse=True) for column in zip(*rows)]
    heights[0][0] = max(heights[0][0], 1)

    def inside(e):
        i, j = ((0,) + e[:-1])[-2:]
        return i < len(rows) and j < side and e[-1] < heights[j][i]

    return minimize([
        e for e in product(range(side + 1), repeat=n)
        if not inside(e) and all(
            inside(e[:i] + (e[i] - 1,) + e[i + 1:]) for i in range(n) if e[i]
        )
    ])


def embedded_hull(M):
    return embed_in_simplex(hull_complex(M), pure_power_exponents(M))


@pytest.fixture(scope="session")
def ex61_ideal():
    return minimize(EX61_GENERATORS)


@pytest.fixture(scope="session")
def ex61_hull(ex61_ideal):
    return hull_complex(ex61_ideal)


@pytest.fixture(scope="session")
def ex61_embedded(ex61_ideal, ex61_hull):
    return embed_in_simplex(ex61_hull, pure_power_exponents(ex61_ideal))


def minimal_ex61_json(ex61_embedded):
    """The minimal-resolution fixture: inner edge removed, quad face added.

    Vertex ids (descending lex): 0 z1^2, 1 z1z2, 2 z1z3, 3 z2^2, 4 z2z3,
    5 z3^2.
    """
    from cellres import complex_to_json

    obj = complex_to_json(ex61_embedded)
    dropped = ([1, 2], [0, 1, 2], [1, 2, 4])
    faces = [
        {"vertices": f["vertices"]}
        for f in obj["faces"]
        if f["vertices"] not in dropped
    ]
    faces.append({"vertices": [0, 1, 2, 4]})
    return {"vertices": obj["vertices"], "faces": faces}


@pytest.fixture(scope="session")
def ex61_minimal_fixture(ex61_embedded):
    return minimal_ex61_json(ex61_embedded)


@pytest.fixture()
def rng():
    return random.Random(20250809)
