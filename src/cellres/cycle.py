"""Fundamental-cycle factorization checks, exactly.

Each differential dphi_k is the matrix of holomorphic 1-forms
sum_i (d phi_k / dz_i) dz_i.  A product dphi_0 ^ ... ^ dphi_{n-1} that uses
a variable twice vanishes, and one that uses every variable once is a
polynomial matrix times +-dz_1 ^ ... ^ dz_n.  Each entry of the product of
the first levels, for the set U of variables used so far and a face sigma,
is one monomial c z^{m_sigma - 1_U}: a level multiplies the entry of tau by
z^{m_sigma - m_tau} and differentiates once in a new variable i, which
scales it by (m_sigma - m_tau)_i and lowers the exponent of z_i by one.  So
the product is composed as one integer c per face and set of used
variables, and pairing the full row against the residue current reads off
c, with the unit (2 pi i)^n factored out symbolically.
"""

from math import factorial

from .errors import PreconditionError
from .monomial import multiplicity
from .residue import residue_current
from .resolution import cellular_complex
from .cellcomplex import LabeledCellComplex, derived, vertex_ideal


def cycle_constant(n: int) -> int:
    """The permutation-route constant: (-1)^{n^2} (-1)^{n(n-1)/2}."""
    return -1 if (n + n * (n - 1) // 2) % 2 else 1


def _top_row(F, choices) -> list:
    """The row of dphi_0 ^ ... ^ dphi_{n-1} on dz_1 ^ ... ^ dz_n, one integer c
    per top face sigma standing for c z^{m_sigma - 1}, with level k
    differentiated only in the variables choices[k] (0-based).

    ``rows`` maps the bit mask of the variables used so far to the row of
    their product.  Each dphi_k is sum_i (d phi_k / dz_i) dz_i, and wedging
    dz_used with dz_i costs the sign of moving dz_i past the used variables
    above i; a variable used twice gives zero.  Every level adds one
    variable, so after n levels only the full mask is left.
    """
    n = F.n
    rows = {0: [1]}
    for k, variables in enumerate(choices):
        lower, upper = F.basis(k - 1), F.basis(k)
        composed = {}
        for used, row in rows.items():
            for i in variables:
                if used >> i & 1:
                    continue
                sign = -1 if (used >> (i + 1)).bit_count() & 1 else 1
                out = composed.setdefault(used | 1 << i, [0] * len(upper))
                for c, sigma in enumerate(upper):
                    out[c] += sign * sum(
                        cell_sign * (F.labels[sigma][i] - F.labels[lower[r]][i]) * row[r]
                        for r, cell_sign in F.columns[k][c].items()
                    )
        rows = composed
    return rows[(1 << n) - 1]


def _masses(F, R, choices) -> dict:
    """Point mass per top face of the top row against the current R, in
    units of (2 pi i)^n: the entry c z^{m_sigma - 1} paired with
    dbar[1/z^alpha] gives c when alpha = m_sigma, times the entry's sign and
    (-1)^n for moving the n-form block left past the (0, n) current block.
    ``residue_current`` sets every alpha to its face's label, so the
    coefficient is c itself."""
    parity = -1 if F.n % 2 else 1
    return {
        fid: parity * R.entries[fid].sign * c
        for fid, c in zip(F.basis(F.n - 1), _top_row(F, choices))
    }


@derived
def _prepare(X: LabeledCellComplex):
    """The free complex, the residue current and the multiplicity of X's
    ideal."""
    R = residue_current(X)
    return cellular_complex(X), R, multiplicity(vertex_ideal(X))


def fundamental_cycle_check(X: LabeledCellComplex) -> dict:
    """Pair the composed full differentials with the current; the point-mass
    coefficient must be n! times the multiplicity."""
    F, R, m = _prepare(X)
    n = F.n
    mass = sum(_masses(F, R, [range(n)] * n).values())
    lhs = cycle_constant(n) * mass
    rhs = factorial(n) * m
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def permutation_cycle_check(X: LabeledCellComplex, s) -> dict:
    """Single-variable-per-level route: level k differentiates in z_{s_{k+1}}.

    The point mass equals the cycle constant times the multiplicity.  The
    identity is claimed for generic ideals only; it is evaluated for any
    ideal, and whether it is claimed is left to the caller.
    """
    s = tuple(s)
    n = X.n
    if sorted(s) != list(range(1, n + 1)):
        raise PreconditionError(f"{s} is not a permutation of 1..{n}")
    F, R, m = _prepare(X)
    per_face = _masses(F, R, [(x - 1,) for x in s])
    lhs = sum(per_face.values())
    expected = cycle_constant(n) * m
    return {"lhs": lhs, "expected": expected, "ok": lhs == expected,
            "per_face": per_face}
