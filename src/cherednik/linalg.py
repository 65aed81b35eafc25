"""Small exact linear algebra toolkit over Scalar coefficients.

Elimination is exact and works on sparse rows, dicts {column: nonzero
Scalar}; an echelon basis is a dict {pivot: row} whose rows hold ONE at
their pivot and no entry at any other pivot.  `extend_echelon` is the one
Gauss-Jordan step and `reduce_against` the one row reduction, each one
`_accumulate` pass; `kernel`, and the dense `rref`, `rank` and `nullspace`,
are built on them.
"""

from __future__ import annotations

from .scalars import ZERO, ONE, _accumulate, _settle


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector, by column."""
    return {j: x for j, x in enumerate(vec) if x is not ZERO and x}


def dense(row: dict, ncols: int) -> list:
    out = [ZERO] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def mat_mul(a, b) -> tuple:
    """Product as a tuple of row tuples, so it can serve as a dict key."""
    cols = len(b[0]) if b else 0
    out = []
    for arow in a:
        orow = [ZERO] * cols
        for aik, brow in zip(arow, b):
            if aik:
                for j, y in enumerate(brow):
                    if y:
                        orow[j] = orow[j] + aik * y
        out.append(tuple(orow))
    return tuple(out)


def identity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def reduce_against(vec: dict, basis: dict) -> dict:
    """vec minus the basis rows' combination that makes it vanish on every
    pivot (vec itself when it does already).  Rows vanish on the other
    pivots, so the factors are vec's own entries at the pivots."""
    factors = [(p, -x) for p, x in vec.items() if p in basis]
    if not factors:
        return vec
    out = dict(vec)
    for p, f in factors:
        for j, y in basis[p].items():
            _accumulate(out, j, f * y)
    return _settle(out)


def extend_echelon(basis: dict, vec: dict) -> bool:
    """Add vec to an echelon basis in place; returns True if it was new."""
    red = reduce_against(vec, basis)
    if not red:
        return False
    lead = min(red)
    inv = red[lead].inverse()
    red = {j: x * inv for j, x in red.items()}
    for p, row in basis.items():
        if lead in row:
            basis[p] = reduce_against(row, {lead: red})
    basis[lead] = red
    return True


def kernel(rows, ncols: int) -> dict:
    """Canonical kernel basis of the sparse rows, as an echelon basis."""
    basis: dict = {}
    for row in rows:
        extend_echelon(basis, row)
    out: dict = {}
    for f in range(ncols):
        if f not in basis:
            vec = {p: -row[f] for p, row in basis.items() if f in row}
            vec[f] = ONE
            extend_echelon(out, vec)
    return out


def rref(rows) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    It depends only on the row space, not on the order of the rows."""
    basis: dict = {}
    for row in rows:
        extend_echelon(basis, sparse(row))
    pivots = sorted(basis)
    return [dense(basis[p], len(rows[0])) for p in pivots], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows) -> list:
    """Canonical kernel basis (itself in reduced echelon form)."""
    if not rows:
        return []
    ncols = len(rows[0])
    basis = kernel([sparse(row) for row in rows], ncols)
    return [dense(basis[p], ncols) for p in sorted(basis)]
