"""Residue currents of cellular resolutions, by the comparison formula.

A current entry is a signed product of antiholomorphic derivatives of
principal values of coordinate powers, kept in the fixed descending
variable order; its action on monomial test coefficients is exact
coefficient extraction, so every identity here is an integer identity.
"""

from collections import namedtuple

from .cellcomplex import LabeledCellComplex, derived
from .errors import PreconditionError
from .monomial import MonomialIdeal, first_difference, irreducible_intersection
from .resolution import _compose, cellular_complex, exactness_witness
from .simplex import carried_faces, corner_simplex_complex


class CHProduct(namedtuple("CHProduct", "sign alpha")):
    """sign * dbar[1/z_n^{a_n}] ^ ... ^ dbar[1/z_1^{a_1}]."""

    __slots__ = ()


def ch_product(sign: int, alpha) -> CHProduct:
    alpha = tuple(alpha)
    if sign not in (-1, 1) or any(a < 1 for a in alpha):
        raise PreconditionError("a nonzero product needs sign +-1 and exponents >= 1")
    return CHProduct(sign, alpha)


class ResidueCurrent(namedtuple("ResidueCurrent", "n entries")):
    __slots__ = ()


class ChainMap(namedtuple("ChainMap", "source target columns")):
    """Maps a_k from ``source``, the free complex of the corner simplex Y,
    into ``target``, the free complex of a complex X refining it, as one
    {row index: sign} dict per basis element of level k of the source;
    entry (tau, sigma) is sign z^{m_sigma - m_tau}, m_tau from the target's
    labels and m_sigma from the source's."""

    __slots__ = ()


@derived
def chain_maps(X: LabeledCellComplex) -> ChainMap:
    """Comparison maps from the corner-simplex complex into X.

    a_k sends a simplex face to the signed label quotients of the X-faces
    it carries, each signed by the orientation ``carried_faces`` filed it
    with; a_{-1} is the identity.
    """
    carried = carried_faces(X)
    source, target = cellular_complex(corner_simplex_complex(X)), cellular_complex(X)
    columns = {-1: ({0: 1},)}
    for k in range(0, X.n):
        row_index = {fid: i for i, fid in enumerate(target.basis(k))}
        columns[k] = tuple({row_index[fid]: sign for fid, sign in carried[sid].items()}
                           for sid in source.basis(k))
    return ChainMap(source, target, columns)


def verify_chain_maps(X: LabeledCellComplex):
    """The first level, row face and column face where the comparison
    square of the chain maps fails, or None."""
    return _verify_square(chain_maps(X))


def _verify_square(maps: ChainMap):
    """The first failure (level, row face, column face) of
    a_{k-1} psi_k = phi_k a_k at levels 0 .. n - 1, or None; psi is the
    boundary of the source and phi that of the target.

    Entry (rho, sigma) of both sides is the same monomial
    z^{m_sigma - m_rho} times an integer sum of signs, so the square
    commutes when the two sums agree.
    """
    phi, psi = maps.target, maps.source
    for k in range(0, phi.n):
        lhs = _compose(maps.columns[k - 1], psi.columns[k])
        rhs = _compose(phi.columns[k], maps.columns[k])
        failures = [
            (i, j)
            for j, (left, right) in enumerate(zip(lhs, rhs))
            for i in left.keys() | right.keys()
            if left.get(i) != right.get(i)
        ]
        if failures:
            i, j = min(failures)
            return k, phi.basis(k - 1)[i], psi.basis(k)[j]
    return None


@derived
def residue_current(X: LabeledCellComplex) -> ResidueCurrent:
    """The comparison formula: the Koszul current of the corner simplex
    carried to X through the top comparison map.

    The complex must refine the simplex, support an exact complex and have
    a commuting comparison square, checked in that order: the chain maps
    come first, as they file X's faces under their carriers, which refuses
    a complex that does not refine the simplex.  Once it refines, every top
    face is carried by the whole simplex, so it gets the sign of its entry
    in the single column of a_{n-1}, and its label as the exponents.
    """
    maps = chain_maps(X)
    witness = exactness_witness(X)
    if witness is not None:
        raise PreconditionError(f"complex is not a resolution; fails at degree {witness}")
    witness = verify_chain_maps(X)
    if witness is not None:
        raise PreconditionError(f"comparison square does not commute at {witness}")
    column, F = maps.columns[X.n - 1][0], maps.target
    entries = {fid: ch_product(column[i], F.labels[fid])
               for i, fid in enumerate(F.basis(X.n - 1))}
    return ResidueCurrent(X.n, entries)


def annihilator_contains(R: ResidueCurrent, beta) -> bool:
    """Whether z^beta kills every entry: some exponent reaches alpha in each."""
    return all(any(x >= a for x, a in zip(beta, c.alpha)) for c in R.entries.values())


def duality_counterexample(R: ResidueCurrent, M: MonomialIdeal):
    """First exponent (lexicographic order) where annihilation of R and
    membership in M differ, or None.

    ann R is the intersection of the irreducible ideals
    (z_1^{a_1}, ..., z_n^{a_n}) over the entries, so the witness is
    the first difference of its minimal generators with M's
    (monomial.irreducible_intersection, monomial.first_difference): the
    cost depends on the numbers of entries and generators but not on the
    exponents.  For an Artinian M with pure powers b the witness lies in
    [0, b]: every generator of M divides z^b, and a generator of ann R
    with some exponent a_i >= b_i lies in M.
    """
    alphas = [c.alpha for c in R.entries.values()]
    return first_difference(M, irreducible_intersection(alphas, M.n))
