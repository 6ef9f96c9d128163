"""Monomial ideals as sets of exponent vectors.

Monomials are exponent tuples of arbitrary-precision nonnegative integers;
an ideal is stored by its divisibility-minimal generators.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InputError, PreconditionError

ExponentVector = tuple[int, ...]


def is_int(x) -> bool:
    """An ``int`` that is not a ``bool``; JSON ``true`` decodes to ``True``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_vector(v, n=None) -> ExponentVector:
    t = tuple(v)
    if n is not None and len(t) != n:
        raise InputError(f"exponent vector {t} has length {len(t)}, expected {n}")
    for x in t:
        if not is_int(x) or x < 0:
            raise InputError(f"exponent vector entries must be nonnegative integers: {t}")
    return t


def divides(a: ExponentVector, b: ExponentVector) -> bool:
    """Componentwise a <= b, i.e. z^a divides z^b."""
    return all(x <= y for x, y in zip(a, b))


def lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    """Componentwise maximum (least common multiple of the monomials)."""
    if len(a) != len(b):
        raise InputError("lcm of exponent vectors of different lengths")
    return tuple(max(x, y) for x, y in zip(a, b))


def lcm_many(vectors) -> ExponentVector:
    vectors = list(vectors)
    result = vectors[0]
    for v in vectors[1:]:
        result = lcm(result, v)
    return result


class MonomialIdeal(namedtuple("MonomialIdeal", "n generators")):
    """A monomial ideal given by its minimal monomial generators.

    Generators are kept sorted in descending lexicographic order, which for
    staircase ideals in two variables lists them by decreasing first
    exponent.
    """

    __slots__ = ()

    def __new__(cls, n: int, generators: tuple[ExponentVector, ...]):
        if n < 1:
            raise InputError("ambient dimension must be >= 1")
        if not generators:
            raise InputError("a monomial ideal needs at least one generator")
        return super().__new__(cls, n, generators)

    # namedtuple's _make, and _replace through it, would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def minimize(generators) -> MonomialIdeal:
    """Build an ideal from any generating set, discarding divisible ones."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise InputError("empty generator list")
    n = len(gens[0])
    gens = [_check_vector(g, n) for g in gens]
    unique = sorted(set(gens))
    minimal = [
        g
        for g in unique
        if not any(h != g and divides(h, g) for h in unique)
    ]
    minimal.sort(reverse=True)
    return MonomialIdeal(n, tuple(minimal))


def ideal_from_json(obj) -> MonomialIdeal:
    """Accepts {"n": int, "generators": [[int, ...], ...]}; minimizes."""
    if not isinstance(obj, dict) or set(obj) != {"n", "generators"}:
        raise InputError('ideal JSON must be {"n": ..., "generators": [...]}')
    n = obj["n"]
    if not is_int(n) or n < 1:
        raise InputError("ideal JSON: n must be a positive integer")
    gens = obj["generators"]
    if not isinstance(gens, list) or not gens:
        raise InputError("ideal JSON: generators must be a nonempty list")
    ideal = minimize([_check_vector(g, n) for g in gens])
    return ideal


def contains(M: MonomialIdeal, beta) -> bool:
    """Whether z^beta lies in the ideal."""
    beta = _check_vector(beta, M.n)
    return any(divides(g, beta) for g in M.generators)


def is_artinian(M: MonomialIdeal) -> bool:
    """True when every variable appears as a pure power among the generators."""
    pure = set()
    for g in M.generators:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) == 1:
            pure.add(support[0])
    return len(pure) == M.n


def pure_power_exponents(M: MonomialIdeal) -> ExponentVector:
    """The exponents (b_1, ..., b_n) of the pure-power generators z_i^{b_i}."""
    powers = [0] * M.n
    for g in M.generators:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) == 1:
            powers[support[0]] = g[support[0]]
    if any(b == 0 for b in powers):
        raise PreconditionError("ideal is not Artinian: missing pure powers")
    return tuple(powers)


def lcm_lattice(M: MonomialIdeal) -> frozenset[ExponentVector]:
    """All joins of nonempty generator subsets, by closure under pairwise lcm."""
    lattice = set(M.generators)
    frontier = set(M.generators)
    while frontier:
        new = set()
        for a in frontier:
            for b in M.generators:
                j = lcm(a, b)
                if j not in lattice:
                    new.add(j)
        lattice |= new
        frontier = new
    return frozenset(lattice)


def _colength(gens) -> int:
    """Colength of the ideal generated by gens, which must hold a pure power
    of every variable: a sum over slices at the distinct last exponents."""
    if len(gens[0]) == 1:
        return min(g[0] for g in gens)
    levels = sorted({g[-1] for g in gens})
    return sum(
        (hi - lo) * _colength([g[:-1] for g in gens if g[-1] <= lo])
        for lo, hi in zip(levels, levels[1:])
    )


def multiplicity(M: MonomialIdeal) -> int:
    """Colength of an Artinian ideal: lattice points under the staircase.

    With 0 = c_0 < ... < c_k = b_n the distinct last exponents of the
    generators, the points at heights [c_j, c_{j+1}) are those outside the
    slice ideal generated by g[:-1] over the generators with g_n <= c_j, so
    colength(M) = sum_j (c_{j+1} - c_j) * colength(slice_j), and for n = 1
    the colength is the least generator.  Every slice keeps the pure powers
    of the other variables, so it is Artinian.  At most r^(n-1) slices of
    O(r) work each, and never more than prod_{i>=2} b_i of them: the cost
    does not grow with the exponents.
    """
    pure_power_exponents(M)
    return _colength(M.generators)


def is_generic(M: MonomialIdeal) -> bool:
    """No two generators share a positive exponent without a strict divisor.

    Two generators sharing the same positive degree in some variable must
    admit a third generator dividing the lcm lowered by one in every
    variable where it is positive.
    """
    gens = M.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            shared = any(
                gens[i][k] == gens[j][k] > 0 for k in range(M.n)
            )
            if not shared:
                continue
            joint = lcm(gens[i], gens[j])
            lowered = tuple(max(e - 1, 0) for e in joint)
            if not any(
                k != i and k != j and divides(gens[k], lowered)
                for k in range(len(gens))
            ):
                return False
    return True


def irreducible_intersection(components, n: int) -> MonomialIdeal:
    """Minimal generators of the intersection of the ideals
    (z_1^{a_1}, ..., z_n^{a_n}), one per component; none gives the unit ideal.

    Intersects one component at a time: the lcm of each current generator
    with each a_i e_i, minimized.  A step costs O((g n)^2 n) for g current
    generators, whatever the size of the exponents.
    """
    gens = [(0,) * n]
    for alpha in components:
        alpha = _check_vector(alpha, n)
        gens = minimize(
            g[:i] + (max(g[i], a),) + g[i + 1:]
            for g in gens
            for i, a in enumerate(alpha)
        ).generators
    return MonomialIdeal(n, tuple(gens))


def first_difference(I: MonomialIdeal, J: MonomialIdeal, box):
    """Lex-first exponent in [0, box] lying in exactly one of I and J, or None.

    Every point of I outside J lies above a generator of I outside J, which
    precedes it componentwise and hence lexicographically (and the same with
    I and J swapped), so the answer is the lex-least generator of either
    ideal that divides z^box and lies outside the other: O(r_I r_J n) work,
    independent of the box.
    """
    box = _check_vector(box, I.n)
    candidates = [
        g
        for A, B in ((I, J), (J, I))
        for g in A.generators
        if divides(g, box) and not contains(B, g)
    ]
    return min(candidates, default=None)


def equals_ideal(components, M: MonomialIdeal, box=None) -> bool:
    """Whether an irreducible intersection agrees with M on [0, box].

    Builds the minimal generators of the intersection
    (irreducible_intersection) and compares them with M's
    (first_difference), so the cost depends on the numbers of components
    and generators but not on the box, which must dominate the pure-power
    exponents b (default b).
    """
    if box is None:
        box = pure_power_exponents(M)
    box = _check_vector(box, M.n)
    if not divides(pure_power_exponents(M), box):
        raise PreconditionError("box must dominate the pure-power exponents")
    return first_difference(irreducible_intersection(components, M.n), M, box) is None


def staircase_corners_2d(M: MonomialIdeal) -> list[tuple[int, int]]:
    """Generators of a plane ideal sorted as staircase inner corners.

    Returns [(a_1,b_1), ..., (a_r,b_r)] with a_1 > ... > a_r = 0 and
    0 = b_1 < ... < b_r.
    """
    if M.n != 2:
        raise PreconditionError("staircase corners are defined for n = 2 only")
    if not is_artinian(M):
        raise PreconditionError("staircase corners require an Artinian ideal")
    corners = sorted(M.generators, key=lambda g: -g[0])
    a_seq = [c[0] for c in corners]
    b_seq = [c[1] for c in corners]
    ok = (
        all(x > y for x, y in zip(a_seq, a_seq[1:]))
        and all(x < y for x, y in zip(b_seq, b_seq[1:]))
        and a_seq[-1] == 0
        and b_seq[0] == 0
    )
    if not ok:
        raise PreconditionError("generators do not form a strict staircase")
    return corners


class Rectangle2D(namedtuple("Rectangle2D", "x_lo x_hi y_lo y_hi")):
    """Half-open axis-aligned rectangle [x_lo, x_hi) x [y_lo, y_hi)."""

    __slots__ = ()

    def __new__(cls, x_lo: int, x_hi: int, y_lo: int, y_hi: int):
        if not (0 <= x_lo < x_hi and 0 <= y_lo < y_hi):
            raise PreconditionError("rectangle bounds must be nonnegative and ordered")
        return super().__new__(cls, x_lo, x_hi, y_lo, y_hi)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def area(self) -> int:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

    def contains(self, x, y) -> bool:
        return self.x_lo <= x < self.x_hi and self.y_lo <= y < self.y_hi


def staircase_partition_2d(M: MonomialIdeal, order: str) -> list[Rectangle2D]:
    """Partition of the plane staircase into rectangles, one per outer corner.

    Order "P" slices horizontally ([0,a_i) x [b_i,b_{i+1})), order "Q"
    vertically ([a_{i+1},a_i) x [0,b_{i+1})).
    """
    if order not in ("P", "Q"):
        raise PreconditionError('partition order must be "P" or "Q"')
    corners = staircase_corners_2d(M)
    rectangles = []
    for i in range(len(corners) - 1):
        a_i, b_i = corners[i]
        a_next, b_next = corners[i + 1]
        if order == "P":
            rectangles.append(Rectangle2D(0, a_i, b_i, b_next))
        else:
            rectangles.append(Rectangle2D(a_next, a_i, 0, b_next))
    return rectangles
