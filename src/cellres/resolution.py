"""Free complexes supported on labeled cell complexes.

Entry (tau, sigma) of a boundary map is sign(tau, sigma) z^{m_sigma - m_tau},
so only the incidence signs are stored and the exponents are read off the
labels.  An entry of a product of two such maps is one monomial times an
integer sum of signs, because the exponents add up to the same label
difference along every path; boundary-squared and the comparison square
are therefore integer sums of incidence signs.
"""

from collections import namedtuple

from . import linalg
from .cellcomplex import LabeledCellComplex, derived
from .errors import CellresError
from .monomial import divides, lcm_lattice


class FreeComplex(namedtuple("FreeComplex", "n levels labels columns")):
    """Graded free complex: bases of face ids per level, the face labels,
    and the boundary phi_k: A_k -> A_{k-1} as one {row index: sign} dict per
    basis element of level k; entry (tau, sigma) is sign z^{m_sigma - m_tau},
    its exponent read off ``labels``."""

    __slots__ = ()

    @property
    def top(self) -> int:
        return max(self.levels)

    def basis(self, k) -> tuple:
        return self.levels.get(k, ())


def _compose(a, b) -> list:
    """Sign columns of a after b: column j is {i: sum_t a[t][i] b[j][t]},
    zero sums dropped."""
    product = []
    for column in b:
        acc = {}
        for t, s in column.items():
            for i, r in a[t].items():
                acc[i] = acc.get(i, 0) + r * s
        product.append({i: c for i, c in acc.items() if c})
    return product


@derived
def cellular_complex(X: LabeledCellComplex) -> FreeComplex:
    """Boundary maps with entries sign(tau,sigma) z^{m_sigma - m_tau}, the
    incidence signs X files.

    Verifies that consecutive maps compose to zero.
    """
    top = X.dim
    levels = {k: tuple(X.faces_of_dim(k)) for k in range(-1, top + 1)}
    labels = {fid: X.face(fid).label for fid in X.faces}
    columns = {}
    for k in range(0, top + 1):
        row_index = {fid: i for i, fid in enumerate(levels[k - 1])}
        columns[k] = tuple(
            {row_index[tau]: sign for tau, sign in X.facet_ids[sigma].items()}
            for sigma in levels[k]
        )
    for k in range(1, top + 1):
        if any(_compose(columns[k - 1], columns[k])):
            raise CellresError(
                f"boundary squared is nonzero between levels {k} and {k-2}; "
                "orientation data is inconsistent"
            )
    return FreeComplex(X.n, levels, labels, columns)


def reduced_homology_ranks(F: FreeComplex, beta) -> list[int]:
    """Ranks of reduced rational homology of X_{<=beta} in degrees -1 .. top.

    X_{<=beta} is the subcomplex of the faces whose label divides z^beta.
    Its augmented chain complex (the empty face included) is F with the
    basis elements of those faces kept and F's incidence signs between
    them; the ranks come from fraction-free elimination.
    """
    top = F.top
    keep = {
        k: [i for i, fid in enumerate(F.basis(k)) if divides(F.labels[fid], beta)]
        for k in range(-1, top + 1)
    }
    boundary_rank = {-1: 0, top + 1: 0}
    for k in range(0, top + 1):
        position = {i: r for r, i in enumerate(keep[k - 1])}
        matrix = [[0] * len(keep[k]) for _ in position]
        for c, j in enumerate(keep[k]):
            for i, sign in F.columns[k][j].items():
                matrix[position[i]][c] = sign
        boundary_rank[k] = linalg.rank(matrix)
    return [
        len(keep[k]) - boundary_rank[k] - boundary_rank[k + 1]
        for k in range(-1, top + 1)
    ]


def _face_masks(F: FreeComplex):
    """F's basis elements of levels 0 .. top, the nonempty faces of its
    complex, as bits: face i of ``F.basis(0)``, ``F.basis(1)``, ... in turn
    is bit i.  Returns per face its facets' bits and the mask of its
    cofaces, and per coordinate c a {value: mask of the faces whose label
    has c-th exponent <= value} table, so that the faces whose label
    divides z^beta are the AND of one entry per coordinate."""
    start, faces = {}, []
    for k in range(0, F.top + 1):
        start[k] = len(faces)
        faces += F.basis(k)
    facets = [[start[k - 1] + i for i in column] if k else []
              for k in range(0, F.top + 1) for column in F.columns[k]]
    cofaces = [0] * len(faces)
    for sigma, below in enumerate(facets):
        for tau in below:
            cofaces[tau] |= 1 << sigma
    tables = []
    for c in range(F.n):
        at = {}
        for i, fid in enumerate(faces):
            value = F.labels[fid][c]
            at[value] = at.get(value, 0) | 1 << i
        table, below = {}, 0
        for value in sorted(at):
            below = table[value] = below | at[value]
        tables.append(table)
    return facets, cofaces, tables


def _collapses_to_a_vertex(live, facets, cofaces) -> bool:
    """Whether the subcomplex of the faces in the bit mask ``live`` collapses
    to one vertex by removing free pairs greedily, highest faces first.

    A free pair is a face tau with exactly one live coface sigma.  The live
    faces form a subcomplex: at the start because a face's label is the lcm
    of its vertices' labels, so the faces of a face under z^beta are under
    it too.  Then sigma has no live coface rho, for by the diamond property
    of a polyhedral complex the faces between tau and rho are sigma and a
    second one, which would be live and a second coface of tau.  So
    removing the pair is an elementary collapse and leaves a subcomplex, a
    complex that ends as one vertex is contractible and has no reduced
    homology, and one where the removals get stuck proves nothing.
    """
    stack = []
    rest = live
    while rest:
        low = rest & -rest
        stack.append(low.bit_length() - 1)
        rest ^= low
    while stack:
        tau = stack.pop()
        above = cofaces[tau] & live
        if live >> tau & 1 and above and not above & (above - 1):
            sigma = above.bit_length() - 1
            live ^= 1 << tau | 1 << sigma
            stack += facets[sigma]
            stack += facets[tau]
    return live.bit_count() == 1


@derived
def exactness_witness(X: LabeledCellComplex):
    """First degree among the joins of X's vertex labels where the free
    complex F of X fails to be acyclic, or None; F is built, with its
    d^2 = 0 check, and scanned.

    F is exact when every X_{<=beta} is acyclic (Bayer-Sturmfels), and the
    scan over the joins is sufficient because the subcomplex of faces
    dividing a degree only changes at joins of face labels, which are
    joins of vertex labels.  A vertex label need not be a minimal
    generator of X's ideal, so these joins can be more than its lcm
    lattice.  A degree whose subcomplex collapses to one vertex
    (``_collapses_to_a_vertex``) is acyclic; only the others are ranked
    (``reduced_homology_ranks``), so the witness is the one ranking every
    degree gives.
    """
    F = cellular_complex(X)
    facets, cofaces, tables = _face_masks(F)
    for beta in sorted(lcm_lattice([X.vertex_label(v) for v in X.vertices])):
        live = -1
        for table, b in zip(tables, beta):
            live &= table[b]
        if not _collapses_to_a_vertex(live, facets, cofaces) and any(
                reduced_homology_ranks(F, beta)):
            return beta
    return None


def minimality_witness(F: FreeComplex):
    """The first facet pair with equal labels (a unit matrix entry), by
    level, row and column, or None."""
    for k in sorted(F.columns):
        rows = F.basis(k - 1)
        cols = F.basis(k)
        units = [
            (i, j)
            for j, column in enumerate(F.columns[k])
            for i in column
            if F.labels[rows[i]] == F.labels[cols[j]]
        ]
        if units:
            i, j = min(units)
            return (rows[i], cols[j])
    return None
