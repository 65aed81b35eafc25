"""Small exact linear algebra toolkit over Scalar coefficients.

Matrices are lists of row lists; everything is computed over the exact
coefficient field, so ranks, kernels and echelon forms are literal.
"""

from __future__ import annotations

from .scalars import ZERO, ONE

Vector = list
Matrix = list


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        orow[j] = orow[j] + aik * brow[j]
    return out


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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
            f = vec[p]
            vec = [x - f * y for x, y in zip(vec, row)]
    return vec


def extend_echelon(rows: Matrix, pivots: list[int], vec: Vector) -> bool:
    """Add vec to a reduced echelon basis in place; returns True if it was new."""
    red = reduce_against(vec, rows, pivots)
    lead = next((j for j, x in enumerate(red) if x), None)
    if lead is None:
        return False
    inv = red[lead].inverse()
    red = [x * inv for x in red]
    for row in rows:
        if row[lead]:
            f = row[lead]
            row[:] = [x - f * y for x, y in zip(row, red)]
    at = next((k for k, p in enumerate(pivots) if p > lead), len(pivots))
    rows.insert(at, red)
    pivots.insert(at, lead)
    return True
