import functools
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
    embedded_hull,
    hull_complex,
    is_artinian,
    is_generic,
    minimize,
    reoriented,
    scarf_complex,
    taylor_complex,
)

EX61_GENERATORS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

# z1^2 at 0, a second z1^2 at 1 and z2^2 at 2: the path refines the segment
# from z1^2 to z2^2, but its middle vertex lies inside the segment while its
# label is supported on z1 alone, so support and geometry disagree there
DUPLICATE_CORNER_JSON = {
    "n": 2,
    "vertices": [
        {"id": 0, "coords": [0], "label": [2, 0]},
        {"id": 1, "coords": [1], "label": [2, 0]},
        {"id": 2, "coords": [2], "label": [0, 2]},
    ],
    "faces": [{"vertices": [0, 1]}, {"vertices": [1, 2]}],
}


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


def random_generic_ideal(rng, n, r):
    """Artinian generic ideal in n variables with exactly r generators.

    The r - n mixed generators share one total degree S, so none divides
    another, and have positive exponents pairwise distinct per variable;
    the pure powers are z_i^S.
    """
    S = 3 * r
    mixed = []
    while len(mixed) < r - n:
        head = [rng.randint(1, S // n) for _ in range(n - 1)]
        g = tuple(head) + (S - sum(head),)
        if all(g[i] != h[i] for h in mixed for i in range(n)):
            mixed.append(g)
    pure = [tuple(S if j == i else 0 for j in range(n)) for i in range(n)]
    M = minimize(pure + mixed)
    assert len(M.generators) == r and is_generic(M)
    return M


def maximal_ideal_power(n, d):
    """m^d: all monomials of degree d in n variables."""
    return minimize([e for e in product(range(d + 1), repeat=n) if sum(e) == d])


def complete_intersection(b):
    """The ideal (z_1^{b_1}, ..., z_n^{b_n}); its embedded hull is the simplex
    on its corners."""
    n = len(b)
    return minimize([tuple(bi if j == i else 0 for j in range(n))
                     for i, bi in enumerate(b)])


def random_complete_intersection(rng, n):
    return complete_intersection([rng.randint(1, 5) for _ in range(n)])


@st.composite
def artinian_ideals(draw, min_n=2, max_n=3, max_side=4):
    """Artinian ideals in min_n..max_n variables, drawn by their staircase.

    The staircase, the monomials outside the ideal, is given by heights in
    0..side over the cells of the (n-1)-dimensional base [0, side)^(n-1),
    side at most max_side, sorted to be weakly decreasing along every axis
    and at least 1 at the origin: a partition for n = 2, a plane partition
    for n = 3.  The ideal is minimally generated by the monomials outside
    the staircase whose every predecessor z^e / z_i lies inside it.
    """
    n = draw(st.integers(min_n, max_n))
    side = draw(st.integers(2, max_side))
    cells = list(product(range(side), repeat=n - 1))
    raw = draw(st.lists(st.integers(0, side), min_size=len(cells),
                        max_size=len(cells)))
    height = dict(zip(cells, raw))
    # sorting the lines along one axis keeps the lines along the axes sorted
    # before it sorted, so one pass per axis, the last axis first, leaves
    # heights decreasing along every axis
    for axis in reversed(range(n - 1)):
        for start in cells:
            if start[axis] == 0:
                line = [start[:axis] + (i,) + start[axis + 1:] for i in range(side)]
                for cell, h in zip(line, sorted((height[c] for c in line), reverse=True)):
                    height[cell] = h
    origin = (0,) * (n - 1)
    height[origin] = max(height[origin], 1)

    def inside(e):
        return e[-1] < height.get(e[:-1], 0)

    return minimize([
        e for e in product(range(side + 1), repeat=n)
        if not inside(e) and all(
            inside(e[:i] + (e[i] - 1,) + e[i + 1:]) for i in range(n) if e[i]
        )
    ])


def artinian_ideals_2_to_4():
    """Artinian ideals in 2 to 4 variables; in 4 variables on the base
    [0, 2)^3, so that brute-force oracles stay short."""
    return st.one_of(artinian_ideals(max_n=3),
                     artinian_ideals(min_n=4, max_n=4, max_side=2))


def flip_sign(record, k, nth=0):
    """A copy of a free complex or chain map whose nth nonzero entry at level
    k, in row-major order, has the opposite sign; the stored sign columns
    are left alone."""
    level = [dict(column) for column in record.columns[k]]
    i, j = sorted((i, j) for j, column in enumerate(level) for i in column)[nth]
    level[j][i] = -level[j][i]
    return record._replace(columns={**record.columns, k: tuple(level)})


def drawn_bases_file(X, draw):
    """X's complex file with drawn faces of dimension >= 1 given the basis
    C · (the basis the face's flip names, ``oracles.oriented_oracle``), C a
    swap of two vectors, a negated vector or an integer shear
    b_i -> a b_i + c b_(i+1), a of either sign: the file and
    {face: given basis}.  ``draw`` draws a value from a strategy."""
    from cellres import complex_to_json
    from oracles import oriented_oracle

    obj = complex_to_json(X)
    bases = oriented_oracle(X).bases
    given = {}
    for face in obj["faces"]:
        fid = tuple(face["vertices"])
        basis = [list(b) for b in bases[fid]]
        if not draw(st.booleans()):
            continue
        i = draw(st.integers(0, len(basis) - 1))
        other = basis[(i + 1) % len(basis)] if len(basis) > 1 else [0] * len(basis[i])
        move = draw(st.sampled_from(("swap", "negate", "shear")[len(basis) == 1:]))
        if move == "swap":
            basis[i], basis[(i + 1) % len(basis)] = other, basis[i]
        elif move == "negate":
            basis[i] = [-x for x in basis[i]]
        else:
            a = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
            c = draw(st.integers(-3, 3))
            basis[i] = [a * x + c * y for x, y in zip(basis[i], other)]
        face["orientation_basis"] = basis
        given[fid] = tuple(map(tuple, basis))
    return obj, given


def without_face(X, fid):
    """X with the face fid left out, reloaded from its JSON form as a file
    complex is."""
    from cellres import complex_from_json, complex_to_json

    obj = complex_to_json(X)
    obj["faces"] = [f for f in obj["faces"] if tuple(f["vertices"]) != fid]
    return complex_from_json(obj)


@pytest.fixture(scope="session")
def ex61_ideal():
    return minimize(EX61_GENERATORS)


@pytest.fixture(scope="session")
def ex61_hull(ex61_ideal):
    return hull_complex(ex61_ideal)


@pytest.fixture(scope="session")
def ex61_embedded(ex61_ideal):
    return embedded_hull(ex61_ideal)


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


_FIXED_IDEALS = {
    "m4-n3": maximal_ideal_power(3, 4),
    "m2-n4": maximal_ideal_power(4, 2),
    "m2-n5": maximal_ideal_power(5, 2),
    # the first four vertices of its face (1, 2, 3, 4, 5) are affinely
    # dependent, so that face's pivot vertices skip one
    "skipped-pivot": minimize([(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0),
                               (0, 0, 2, 0), (0, 0, 0, 1)]),
}
FIXED_CORPUS = sorted(_FIXED_IDEALS) + ["ex61-minimal"]


@functools.cache
def _builds(M):
    """[(complex, its sign oracle)] for the hull, embedded hull, Scarf and
    (r <= 8) Taylor complexes of M, made once per ideal; the embedded
    hull's oracle makes the top flip, as ``embedded_hull`` does."""
    from oracles import sign_oracle

    built = [(hull_complex(M), False), (embedded_hull(M), True), (scarf_complex(M), False)]
    if len(M.generators) <= 8:  # the Taylor complex has 2^r faces
        built.append((taylor_complex(M), False))
    return [(Z, sign_oracle(Z).oriented_tops() if tops else sign_oracle(Z)) for Z, tops in built]


@functools.cache
def _fixed_builds(name):
    """The builds of a fixed ideal, made once; "ex61-minimal" has those of
    Example 6.1 and its minimal resolution's file, whose square is no
    simplex."""
    from cellres import complex_from_json
    from oracles import sign_oracle

    if name != "ex61-minimal":
        return _builds(_FIXED_IDEALS[name])
    builds = _builds(minimize(EX61_GENERATORS))
    minimal = complex_from_json(minimal_ex61_json(builds[1][0]))
    return builds + [(minimal, sign_oracle(minimal).oriented_tops())]


def drawn_builds():
    """The builds (``_builds``) of an ideal drawn by
    ``artinian_ideals_2_to_4``: the drawn part of ``sign_corpus`` without
    its files and reorientations."""
    return artinian_ideals_2_to_4().map(_builds)


@st.composite
def sign_corpus(draw, source="drawn"):
    """The complexes the sign oracle checks, each drawn once:
    [(complex, its sign oracle, reorientations, whether it was read from a
    drawn-bases file)].

    The builds (``_builds``) of an ideal drawn by ``artinian_ideals_2_to_4``,
    or of the ``FIXED_CORPUS`` entry ``source``, and the drawn-bases file
    (``drawn_bases_file``) of each, read back, whose oracle carries the
    given bases and makes the reader's top flip.  The reorientations of a
    complex are 2 to 4 drawn sets of its faces for successive ``reoriented``
    calls, a face of dimension 1 or more, where there is one, in the first
    and the last, so flipped twice.
    """
    from cellres import complex_from_json
    from oracles import sign_oracle

    if source == "drawn":
        builds = draw(drawn_builds())
    else:
        builds = _fixed_builds(source)
    corpus = list(builds)
    for Z, _ in builds:
        obj, given = drawn_bases_file(Z, draw)
        F = complex_from_json(obj)
        corpus.append((F, sign_oracle(F, given).oriented_tops()))
    entries = []
    for i, (Z, O) in enumerate(corpus):
        calls = draw(st.lists(st.sets(st.sampled_from(sorted(Z.faces))), min_size=2, max_size=4))
        edges = [fid for fid, dim in sorted(O.dims.items()) if dim >= 1]
        if edges:
            twice = draw(st.sampled_from(edges))
            calls[0].add(twice)
            calls[-1].add(twice)
        entries.append((Z, O, calls, i >= len(builds)))
    return entries


def with_reoriented_copies(corpus):
    """Yields (complex, its oracle, filed, reoriented): each complex of a
    sign corpus, then its copy after its drawn ``reoriented`` calls, made
    only when the caller is done with the complex, so after the complex has
    read its own orientations."""
    for Z, O, calls, filed in corpus:
        yield Z, O, filed, False
        for flips in calls:
            Z, O = reoriented(Z, flips), O.flipped(flips)
        yield Z, O, filed, True


@pytest.fixture(scope="session")
def ex61_minimal_fixture(ex61_embedded):
    return minimal_ex61_json(ex61_embedded)


@pytest.fixture()
def rng():
    return random.Random(20250809)
