"""Seeded Artinian monomial ideals for the benchmark workloads.

Every generator is built from a ``random.Random`` the caller seeds, so the
same seed always gives the same ideals.  Nothing here imports ``cellres``:
the program under test only ever sees the finished JSON jobs.
"""

from __future__ import annotations

from itertools import product
from math import prod


def power_of_maximal_ideal(n, d):
    """Generators of m^d in n variables, in descending lex order."""
    return sorted(
        (c for c in product(range(d + 1), repeat=n) if sum(c) == d), reverse=True
    )


EXAMPLE_61 = power_of_maximal_ideal(3, 2)


def _antichain_ranks(rng, n, k):
    """k points of {0..k-1}^n, each coordinate a permutation, no point below
    another.

    The first n-1 coordinates are random permutations.  The last is a random
    linear extension of the reverse dominance order on the others: whenever
    p lies below q in the first n-1 coordinates, p gets the larger last rank,
    so no pair is comparable in all n.
    """
    head = []
    for _ in range(n - 1):
        ranks = list(range(k))
        rng.shuffle(ranks)
        head.append(ranks)
    points = list(zip(*head))
    below = {
        j: {i for i in range(k) if i != j and all(a <= b for a, b in zip(points[i], points[j]))}
        for j in range(k)
    }
    # Kahn's algorithm from the top: a point may take the next-lowest last
    # rank once every point it lies below has taken a lower one.
    waiting = {i: {j for j in range(k) if i in below[j]} for i in range(k)}
    last = [None] * k
    for rank in range(k):
        ready = sorted(i for i in range(k) if last[i] is None and not waiting[i])
        pick = ready[rng.randrange(len(ready))]
        last[pick] = rank
        for i in range(k):
            waiting[i].discard(pick)
    return [p + (z,) for p, z in zip(points, last)]


def generic_ideal(rng, n, r):
    """An Artinian ideal with exactly r minimal generators in n variables,
    no two of which share a positive exponent in any variable.

    The r - n mixed generators have all exponents positive and pairwise
    distinct per variable; each pure power sits one above the largest mixed
    exponent of its variable.
    """
    k = r - n
    mixed = [tuple(x + 1 for x in p) for p in _antichain_ranks(rng, n, k)]
    pure = [tuple(k + 1 if j == i else 0 for j in range(n)) for i in range(n)]
    return sorted(pure + mixed, reverse=True)


def staircase_2d(rng, corners, a_max, b_max):
    """A plane staircase with ``corners`` generators and a fixed box.

    The generators run from (a_max, 0) to (0, b_max); the exponents between
    are distinct random cut points, so the box a_max x b_max is the same for
    every seed.
    """
    a = [a_max] + sorted(rng.sample(range(1, a_max), corners - 2), reverse=True) + [0]
    b = [0] + sorted(rng.sample(range(1, b_max), corners - 2)) + [b_max]
    return sorted(zip(a, b), reverse=True)


def scaled_generic_ideal(rng, n, r, size):
    """A generic ideal whose pure powers are z_i^size.

    The ranks of ``generic_ideal`` are spread over 1..size-1 with random
    gaps, keeping every exponent distinct per variable, so the staircase is
    deep while the generator count stays small.
    """
    k = r - n
    ranks = _antichain_ranks(rng, n, k)
    columns = []
    for _ in range(n):
        values = sorted(rng.sample(range(1, size), k))
        columns.append(values)
    mixed = [tuple(columns[i][p[i]] for i in range(n)) for p in ranks]
    pure = [tuple(size if j == i else 0 for j in range(n)) for i in range(n)]
    return sorted(pure + mixed, reverse=True)


def colength(gens):
    """Lattice points under the staircase, one column at a time: over each
    point of the box in the first n-1 variables, the column is as high as
    the lowest last exponent among the generators below that point."""
    b = [max(g[i] for g in gens) for i in range(len(gens[0]))]
    total = 0
    for head in product(*(range(x) for x in b[:-1])):
        total += min(g[-1] for g in gens if all(x <= y for x, y in zip(g, head)))
    return total


def with_colength(draw, share, tolerance=0.01):
    """Call ``draw()`` until the ideal's colength is within ``tolerance`` of
    ``share`` times its box.

    Box scans test membership point by point and stop at the first
    generator that divides, so their cost depends on how much of the box
    lies under the staircase; fixing that share fixes the cost across
    seeds.
    """
    while True:
        gens = draw()
        box = prod(max(g[i] for g in gens) for i in range(len(gens[0])))
        if abs(colength(gens) - share * box) <= tolerance * share * box:
            return gens
