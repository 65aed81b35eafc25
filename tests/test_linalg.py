"""The exact elimination kernel: rref, rank and nullspace against sympy over
Q, their defining properties over Q(zeta_5), the incremental echelon step
and the matrix product."""

import random
from fractions import Fraction

import pytest
import sympy

from cherednik import linalg
from cherednik.scalars import Scalar, ZERO, ONE


def _rational_matrix(rng, nrows, ncols, rank=None, density=0.6):
    """Seeded random matrix of Fractions, of the given rank when one is asked
    for (a product of an nrows x rank and a rank x ncols factor)."""

    def entry():
        if rng.random() > density:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)]
        for i in range(nrows)
    ]


def _q_cases():
    rng = random.Random(20261018)
    cases = [
        [[Fraction(0)] * 4] * 3,  # zero rows only
        [[Fraction(0), Fraction(2), Fraction(0), Fraction(-1)]],  # a 1 x n row
        [[Fraction(0), Fraction(1), Fraction(3)], [Fraction(0), Fraction(2), Fraction(6)]],
    ]
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(_rational_matrix(rng, nrows, ncols))
    for _ in range(15):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        cases.append(_rational_matrix(rng, nrows, ncols, rank=rng.randint(1, min(nrows, ncols) - 1)))
    for _ in range(5):
        mat = _rational_matrix(rng, rng.randint(2, 6), rng.randint(3, 6))
        zero_col = rng.randrange(len(mat[0]))
        for row in mat:
            row[zero_col] = Fraction(0)
        mat.insert(rng.randrange(len(mat) + 1), [Fraction(0)] * len(mat[0]))
        cases.append(mat)
    return cases


def _to_scalars(mat):
    return [[Scalar.rational(x) for x in row] for row in mat]


def _to_fractions(mat):
    return [[x.as_fraction() for x in row] for row in mat]


def _sympy_rows(mat):
    return [[Fraction(int(x.p), int(x.q)) for x in mat.row(i)] for i in range(mat.rows)]


@pytest.mark.parametrize("mat", _q_cases())
def test_rational_rref_rank_nullspace_match_sympy(mat):
    ref, ref_pivots = sympy.Matrix(mat).rref()
    ref_rows = _sympy_rows(ref)[: len(ref_pivots)]
    rows, pivots = linalg.rref(_to_scalars(mat))
    assert _to_fractions(rows) == ref_rows
    assert pivots == list(ref_pivots)
    assert linalg.rank(_to_scalars(mat)) == sympy.Matrix(mat).rank()

    ref_kernel = sympy.Matrix(mat).nullspace()
    if ref_kernel:
        kernel_rref, _ = sympy.Matrix.hstack(*ref_kernel).T.rref()
        expected = _sympy_rows(kernel_rref)
    else:
        expected = []
    assert _to_fractions(linalg.nullspace(_to_scalars(mat))) == expected


def test_empty_matrix():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([]) == []


def test_rref_accepts_tuple_rows():
    mat = _to_scalars([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]])
    assert linalg.rref(tuple(tuple(row) for row in mat)) == linalg.rref(mat)


def _z5_matrix(rng, nrows, ncols, rank=None):
    def entry():
        if rng.random() < 0.35:
            return ZERO
        return Scalar.from_coords(5, [rng.randint(-3, 3) for _ in range(4)], rng.randint(1, 3))

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [list(row) for row in linalg.mat_mul(left, right)]


def _z5_cases():
    rng = random.Random(5)
    cases = [_z5_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(10)]
    for _ in range(8):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        cases.append(_z5_matrix(rng, nrows, ncols, rank=rng.randint(1, min(nrows, ncols) - 1)))
    return cases


@pytest.mark.parametrize("mat", _z5_cases())
def test_cyclotomic_elimination_properties(mat):
    ncols = len(mat[0])
    rows, pivots = linalg.rref(mat)
    assert pivots == sorted(set(pivots))
    for row, p in zip(rows, pivots):
        assert row[p] == ONE
        assert all(not x for x in row[:p])
        assert all(other[p] == (ONE if other is row else ZERO) for other in rows)
    # the echelon rows span the row space of the input
    for row in mat:
        assert not any(linalg.reduce_against(row, rows, pivots))
    assert linalg.rank(mat) == len(rows)

    kernel = linalg.nullspace(mat)
    assert len(kernel) == ncols - len(rows)
    for vec in kernel:
        for row in mat:
            assert sum((a * b for a, b in zip(row, vec)), ZERO) == ZERO

    rng = random.Random(len(mat) * 31 + ncols)
    shuffled = list(mat)
    rng.shuffle(shuffled)
    assert linalg.rref(shuffled) == (rows, pivots)


def test_extend_echelon_rejects_dependent_vectors_and_keeps_pivots_sorted():
    z = Scalar.zeta(5)
    basis, pivots = [], []
    assert linalg.extend_echelon(basis, pivots, [ZERO, ZERO, z, ONE])
    assert linalg.extend_echelon(basis, pivots, [ONE, z, ZERO, ZERO])
    assert pivots == [0, 2]
    dependent = [z * 3, z * z * 3, z, ONE]
    assert not linalg.extend_echelon(basis, pivots, dependent)
    assert not linalg.extend_echelon(basis, pivots, [ZERO] * 4)
    assert linalg.extend_echelon(basis, pivots, [ZERO, ONE, ZERO, ZERO])
    assert pivots == [0, 1, 2]
    assert basis == linalg.rref(basis)[0]


def test_reduce_against_and_rref_leave_inputs_alone():
    rng = random.Random(7)
    mat = _z5_matrix(rng, 4, 5)
    snapshot = [list(row) for row in mat]
    rows, pivots = linalg.rref(mat)
    assert mat == snapshot
    rows_snapshot = [list(row) for row in rows]
    vec = _z5_matrix(rng, 1, 5)[0]
    vec_snapshot = list(vec)
    linalg.reduce_against(vec, rows, pivots)
    assert vec == vec_snapshot
    assert rows == rows_snapshot


def test_axpy_updates_in_place():
    vec = [ONE, ZERO, Scalar.rational(2)]
    linalg.axpy(vec, Scalar.rational(-2), (ZERO, ONE, ONE))
    assert vec == [ONE, Scalar.rational(-2), ZERO]


def test_mat_mul_identity_is_hashable():
    rng = random.Random(11)
    a = linalg.mat_mul(_z5_matrix(rng, 3, 3), linalg.identity(3))
    assert linalg.mat_mul(a, linalg.identity(3)) == a
    assert linalg.mat_mul(linalg.identity(3), a) == a
    assert {a: 1}[linalg.mat_mul(a, linalg.identity(3))] == 1
    assert isinstance(hash(linalg.identity(2)), int)
