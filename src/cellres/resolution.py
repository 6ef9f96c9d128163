"""Free complexes supported on labeled cell complexes.

Matrix entries are signed monomials; boundary-squared and all exactness
checks are exact polynomial identities over the integers/rationals.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .cellcomplex import LabeledCellComplex, derived, sign_facet
from .errors import CellresError, PreconditionError
from .monomial import MonomialIdeal, divides, lcm_lattice, minimize


class SignedMonomial(namedtuple("SignedMonomial", "sign exp")):
    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


def zero_entry(n: int) -> SignedMonomial:
    return SignedMonomial(0, (0,) * n)


class FreeComplex(namedtuple("FreeComplex", "n levels labels matrices")):
    """Graded free complex: bases of face ids per level and the boundary
    matrices phi_k: A_k -> A_{k-1} as signed-monomial matrices."""

    __slots__ = ()

    @property
    def top(self) -> int:
        return max(self.levels)

    def basis(self, k) -> tuple:
        return self.levels.get(k, ())

    def matrix(self, k):
        return self.matrices[k]


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def poly_matmul(a, b, n):
    """Product of signed-monomial matrices as polynomial matrices.

    Entries of the result are dicts exponent -> integer coefficient with
    zero coefficients dropped.
    """
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    if a and len(a[0]) != inner:
        raise CellresError("matrix dimensions do not match")
    result = [[{} for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = result[i][j]
            for k in range(inner):
                x, y = a[i][k], b[k][j]
                if x.sign == 0 or y.sign == 0:
                    continue
                e = tuple(p + q for p, q in zip(x.exp, y.exp))
                c = acc.get(e, 0) + x.sign * y.sign
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
    return result


def poly_matrix_is_zero(p) -> bool:
    return all(not entry for row in p for entry in row)


@derived
def cellular_complex(X: LabeledCellComplex) -> FreeComplex:
    """Boundary matrices with entries sign(tau,sigma) z^{m_sigma - m_tau}.

    Verifies that consecutive matrices compose to zero.
    """
    n = X.n
    top = X.dim
    levels = {k: tuple(X.faces_of_dim(k)) for k in range(-1, top + 1)}
    labels = {fid: X.face(fid).label for fid in X.faces}
    matrices = {}
    for k in range(0, top + 1):
        rows = levels[k - 1]
        cols = levels[k]
        row_index = {fid: i for i, fid in enumerate(rows)}
        matrix = [[zero_entry(n) for _ in cols] for _ in rows]
        for j, sigma in enumerate(cols):
            for tau in X.facets(sigma):
                i = row_index[tau]
                matrix[i][j] = SignedMonomial(
                    sign_facet(X, tau, sigma), _exp_sub(labels[sigma], labels[tau])
                )
        matrices[k] = tuple(tuple(row) for row in matrix)
    for k in range(1, top + 1):
        if not poly_matrix_is_zero(poly_matmul(matrices[k - 1], matrices[k], n)):
            raise CellresError(
                f"boundary squared is nonzero between levels {k} and {k-2}; "
                "orientation data is inconsistent"
            )
    return FreeComplex(n, levels, labels, matrices)


def reduced_homology_ranks(F: FreeComplex, beta) -> list[int]:
    """Ranks of reduced rational homology of X_{<=beta} in degrees -1 .. top.

    X_{<=beta} is the subcomplex of the faces whose label divides z^beta.
    Its augmented chain complex (the empty face included) is F with the
    basis elements of those faces kept and the incidence signs of F's
    matrices between them; the ranks come from fraction-free elimination.
    """
    top = F.top
    keep = {
        k: [i for i, fid in enumerate(F.basis(k)) if divides(F.labels[fid], beta)]
        for k in range(-1, top + 1)
    }
    boundary_rank = {-1: 0, top + 1: 0}
    for k in range(0, top + 1):
        matrix = F.matrix(k)
        boundary_rank[k] = linalg.rank(
            [[matrix[i][j].sign for j in keep[k]] for i in keep[k - 1]]
        )
    return [
        len(keep[k]) - boundary_rank[k] - boundary_rank[k + 1]
        for k in range(-1, top + 1)
    ]


@derived
def exactness_witness(X: LabeledCellComplex, M: MonomialIdeal):
    """First degree in the lcm lattice where the free complex F of X fails to
    be acyclic, or None; F is built, with its d^2 = 0 check, and scanned.

    F is exact when every X_{<=beta} is acyclic (Bayer-Sturmfels), and the
    scan over the lattice joins is sufficient because the subcomplex of
    faces dividing a degree only changes at joins.
    """
    F = cellular_complex(X)
    vertex_ideal = minimize([X.vertex_label(v) for v in X.vertices])
    if vertex_ideal.generators != M.generators:
        raise PreconditionError("vertex labels do not generate the given ideal")
    for beta in sorted(lcm_lattice(M)):
        if any(reduced_homology_ranks(F, beta)):
            return beta
    return None


def is_exact(X: LabeledCellComplex, M: MonomialIdeal) -> bool:
    return exactness_witness(X, M) is None


def minimality_witness(F: FreeComplex):
    """A facet pair with equal labels (a unit matrix entry), or None."""
    for k in sorted(F.matrices):
        rows = F.basis(k - 1)
        cols = F.basis(k)
        matrix = F.matrix(k)
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                entry = matrix[i][j]
                if entry.sign != 0 and all(e == 0 for e in entry.exp):
                    return (row, col)
    return None


def is_minimal(F: FreeComplex) -> bool:
    return minimality_witness(F) is None
