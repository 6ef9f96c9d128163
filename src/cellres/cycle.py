"""Fundamental-cycle factorization checks, exactly.

The differentials of the resolution matrices are matrices of
polynomial-coefficient holomorphic forms; composing them and pairing
against the residue current reduces to integer coefficient extraction,
with the unit (2 pi i)^n factored out symbolically.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial

from .errors import PreconditionError
from .monomial import (
    MonomialIdeal,
    is_generic,
    multiplicity,
    pure_power_exponents,
)
from .residue import ResidueCurrent, residue_current
from .resolution import FreeComplex, _exp_sub, cellular_complex
from .cellcomplex import LabeledCellComplex, derived


class FormMonomial(namedtuple("FormMonomial", "coeff exp dz")):
    """coeff * z^exp * dz_{i_1} ^ ... ^ dz_{i_k} with strictly increasing
    indices; reordering signs are absorbed into the coefficient."""

    __slots__ = ()


def form_term(coeff, exp, dz):
    """Canonicalize a wedge term; None when it vanishes."""
    if coeff == 0:
        return None
    indices = list(dz)
    if len(set(indices)) != len(indices):
        return None
    sign = 1
    # bubble sort, counting swaps of the odd-degree factors
    for i in range(len(indices)):
        for j in range(len(indices) - 1 - i):
            if indices[j] > indices[j + 1]:
                indices[j], indices[j + 1] = indices[j + 1], indices[j]
                sign = -sign
    return FormMonomial(sign * coeff, tuple(exp), tuple(indices))


def _combine(terms):
    acc = {}
    for t in terms:
        if t is None:
            continue
        key = (t.exp, t.dz)
        acc[key] = acc.get(key, 0) + t.coeff
    return tuple(
        FormMonomial(c, exp, dz) for (exp, dz), c in sorted(acc.items()) if c != 0
    )


class FormMatrix(namedtuple("FormMatrix", "rows cols entries")):
    __slots__ = ()


def _unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def differentiate(F: FreeComplex, k) -> FormMatrix:
    """Entrywise full differential of a boundary matrix."""
    return _differential(F, k, None)


def partial_only(F: FreeComplex, k, i) -> FormMatrix:
    """Only the derivative in variable i (0-based) of a boundary matrix."""
    if not 0 <= i < F.n:
        raise PreconditionError("variable index out of range")
    return _differential(F, k, i)


def _differential(F: FreeComplex, k, only) -> FormMatrix:
    if k not in F.matrices:
        raise PreconditionError(f"no boundary matrix at level {k}")
    matrix = F.matrix(k)
    n = F.n
    entries = []
    for row in matrix:
        out_row = []
        for cell in row:
            terms = []
            if cell.sign != 0:
                for i in range(n):
                    if only is not None and i != only:
                        continue
                    if cell.exp[i] > 0:
                        terms.append(
                            form_term(
                                cell.sign * cell.exp[i],
                                _exp_sub(cell.exp, _unit(i, n)),
                                (i,),
                            )
                        )
            out_row.append(_combine(terms))
        entries.append(tuple(out_row))
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return FormMatrix(rows, cols, tuple(entries))


def compose(matrices) -> FormMatrix:
    """Matrix product where entries multiply by wedge, left factors first."""
    matrices = list(matrices)
    result = matrices[0]
    for m in matrices[1:]:
        if result.cols != m.rows:
            raise PreconditionError("form matrix dimensions do not match")
        entries = []
        for i in range(result.rows):
            row = []
            for j in range(m.cols):
                terms = []
                for k in range(result.cols):
                    for a in result.entries[i][k]:
                        for b in m.entries[k][j]:
                            terms.append(
                                form_term(
                                    a.coeff * b.coeff,
                                    tuple(x + y for x, y in zip(a.exp, b.exp)),
                                    a.dz + b.dz,
                                )
                            )
                row.append(_combine(terms))
            entries.append(tuple(row))
        result = FormMatrix(result.rows, m.cols, tuple(entries))
    return result


def cycle_constant(n: int) -> int:
    """The permutation-route constant: (-1)^{n^2} (-1)^{n(n-1)/2}."""
    return -1 if (n + n * (n - 1) // 2) % 2 else 1


def _orientation_parity(n: int) -> int:
    # moving the holomorphic n-form block left past the (0,n) current block
    return -1 if n % 2 else 1


def _contract(composed: FormMatrix, top_basis, R: ResidueCurrent):
    """Per-face mass of the composed form row against the current.

    For each top face, extract the coefficient at exponent alpha - 1 on the
    full coordinate volume form, then apply the entry's sign and the block
    reordering parity; the total is the coefficient of the point mass in
    units of (2 pi i)^n.
    """
    n = R.n
    full_dz = tuple(range(n))
    parity = _orientation_parity(n)
    per_face = {}
    for j, fid in enumerate(top_basis):
        entry = R.entries[fid]
        target = tuple(a - 1 for a in entry.alpha)
        coeff = 0
        for term in composed.entries[0][j]:
            if term.dz == full_dz and term.exp == target:
                coeff = term.coeff
                break
        per_face[fid] = parity * entry.sign * coeff
    return per_face


@derived
def _prepare(X: LabeledCellComplex, M: MonomialIdeal):
    """The free complex, the residue current and the multiplicity."""
    R = residue_current(X, pure_power_exponents(M))
    return cellular_complex(X), R, multiplicity(M)


def fundamental_cycle_check(X: LabeledCellComplex, M: MonomialIdeal) -> dict:
    """Pair the composed full differentials with the current; the point-mass
    coefficient must be n! times the multiplicity."""
    F, R, m = _prepare(X, M)
    n = F.n
    composed = compose([differentiate(F, k) for k in range(n)])
    per_face = _contract(composed, F.basis(n - 1), R)
    mass = sum(per_face.values())
    lhs = cycle_constant(n) * mass
    rhs = factorial(n) * m
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def permutation_cycle_check(
    X: LabeledCellComplex, M: MonomialIdeal, s, allow_nongeneric=False
) -> dict:
    """Single-variable-per-level route: level k differentiates in z_{s_{k+1}}.

    The point mass equals the cycle constant times the multiplicity; the
    claim is only asserted for generic ideals unless overridden.
    """
    s = tuple(s)
    n = X.n
    if sorted(s) != list(range(1, n + 1)):
        raise PreconditionError(f"{s} is not a permutation of 1..{n}")
    if not is_generic(M) and not allow_nongeneric:
        raise PreconditionError(
            "the per-permutation identity is only claimed for generic ideals; "
            "pass allow_nongeneric=True to evaluate anyway"
        )
    F, R, m = _prepare(X, M)
    composed = compose([partial_only(F, k, s[k] - 1) for k in range(n)])
    per_face = _contract(composed, F.basis(n - 1), R)
    lhs = sum(per_face.values())
    expected = cycle_constant(n) * m
    return {"lhs": lhs, "expected": expected, "ok": lhs == expected,
            "per_face": per_face}
