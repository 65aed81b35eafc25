"""Small exact linear algebra toolkit over Scalar coefficients.

Matrices are sequences of rows; everything is computed over the exact
coefficient field, so ranks, kernels and echelon forms are literal.
`extend_echelon` is the one Gauss-Jordan step; `rref`, `rank` and
`nullspace` are built on it.
"""

from __future__ import annotations

from bisect import bisect

from .scalars import ZERO, ONE

Vector = list
Matrix = list


def axpy(vec: Vector, f, row: Vector) -> None:
    """vec += f * row in place, touching only the nonzero entries of row."""
    for j, y in enumerate(row):
        if y:
            vec[j] = vec[j] + f * y


def mat_mul(a: Matrix, b: Matrix) -> tuple:
    """Product as a tuple of row tuples, so it can serve as a dict key."""
    cols = len(b[0]) if b else 0
    out = []
    for arow in a:
        orow = [ZERO] * cols
        for aik, brow in zip(arow, b):
            if aik:
                axpy(orow, aik, brow)
        out.append(tuple(orow))
    return tuple(out)


def identity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    It depends only on the row space, not on the order of the rows."""
    out: Matrix = []
    pivots: list[int] = []
    for row in rows:
        extend_echelon(out, pivots, row)
    return out, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Matrix) -> Matrix:
    """Canonical kernel basis (itself in reduced echelon form)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, p in zip(red, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return rref(basis)[0] if basis else []


def reduce_against(vec: Vector, rows: Matrix, pivots: list[int]) -> Vector:
    """Subtract multiples of reduced echelon rows so vec vanishes on pivots."""
    vec = list(vec)
    for row, p in zip(rows, pivots):
        if vec[p]:
            axpy(vec, -vec[p], row)
    return vec


def extend_echelon(rows: Matrix, pivots: list[int], vec: Vector) -> bool:
    """Add vec to a reduced echelon basis in place; returns True if it was new."""
    red = reduce_against(vec, rows, pivots)
    lead = next((j for j, x in enumerate(red) if x), None)
    if lead is None:
        return False
    inv = red[lead].inverse()
    red = [x * inv if x else x for x in red]
    for row in rows:
        if row[lead]:
            axpy(row, -row[lead], red)
    at = bisect(pivots, lead)
    rows.insert(at, red)
    pivots.insert(at, lead)
    return True
