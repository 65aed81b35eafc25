"""The exact elimination kernel: rref, rank and nullspace against sympy over
Q, their defining properties over Q(zeta_5), the sparse echelon step, row
reduction and kernel against sympy over Q and Q(zeta_5), and the matrix
product."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

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
    basis = {p: linalg.sparse(row) for row, p in zip(rows, pivots)}
    for row in mat:
        assert linalg.reduce_against(linalg.sparse(row), basis) == {}
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
    basis = {}
    assert linalg.extend_echelon(basis, linalg.sparse([ZERO, ZERO, z, ONE]))
    assert linalg.extend_echelon(basis, linalg.sparse([ONE, z, ZERO, ZERO]))
    assert sorted(basis) == [0, 2]
    dependent = linalg.sparse([z * 3, z * z * 3, z, ONE])
    assert not linalg.extend_echelon(basis, dependent)
    assert not linalg.extend_echelon(basis, {})
    assert linalg.extend_echelon(basis, {1: ONE})
    assert sorted(basis) == [0, 1, 2]
    rows = [linalg.dense(basis[p], 4) for p in sorted(basis)]
    assert rows == linalg.rref(rows)[0]


def test_reduce_against_and_rref_leave_inputs_alone():
    rng = random.Random(7)
    mat = _z5_matrix(rng, 4, 5)
    snapshot = [list(row) for row in mat]
    rows, pivots = linalg.rref(mat)
    assert mat == snapshot
    basis = {p: linalg.sparse(row) for row, p in zip(rows, pivots)}
    basis_snapshot = {p: dict(row) for p, row in basis.items()}
    vec = linalg.sparse(_z5_matrix(rng, 1, 5)[0])
    vec_snapshot = dict(vec)
    linalg.reduce_against(vec, basis)
    assert vec == vec_snapshot
    assert basis == basis_snapshot


def test_extend_echelon_back_substitutes_in_place():
    # a new pivot is cleared from the stored rows, which are replaced in the
    # same dict; the inserted rows themselves are never stored
    basis = {}
    first = {0: ONE, 2: Scalar.rational(2)}
    linalg.extend_echelon(basis, first)
    second = {1: Scalar.rational(3), 2: ONE}
    linalg.extend_echelon(basis, second)
    third = {2: Scalar.rational(-2)}
    linalg.extend_echelon(basis, third)
    assert basis == {0: {0: ONE}, 1: {1: ONE}, 2: {2: ONE}}
    assert first == {0: ONE, 2: Scalar.rational(2)}
    assert second == {1: Scalar.rational(3), 2: ONE}
    assert third == {2: Scalar.rational(-2)}


def test_mat_mul_identity_is_hashable():
    rng = random.Random(11)
    a = linalg.mat_mul(_z5_matrix(rng, 3, 3), linalg.identity(3))
    assert linalg.mat_mul(a, linalg.identity(3)) == a
    assert linalg.mat_mul(linalg.identity(3), a) == a
    assert {a: 1}[linalg.mat_mul(a, linalg.identity(3))] == 1
    assert isinstance(hash(linalg.identity(2)), int)


# -- the sparse kernel against sympy -----------------------------------------

_Z5_FIELD = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / 5))


def _to_domain(x, ell):
    """A Scalar as an element of sympy's QQ or QQ<zeta_5> (whose power basis
    is the Scalar's, listed highest power first there)."""
    if ell == 1:
        return sympy.QQ(x.coeffs[0], x.den)
    coeffs = list(x.coeffs) + [0] * (4 - len(x.coeffs))
    return _Z5_FIELD.new([sympy.QQ(c, x.den) for c in reversed(coeffs)])


def _from_domain(a, ell):
    coeffs = [a] if ell == 1 else list(reversed(a.to_list()))
    return sum(
        (
            Scalar.rational(Fraction(int(c.numerator), int(c.denominator))) * Scalar.zeta(ell, k)
            for k, c in enumerate(coeffs)
        ),
        ZERO,
    )


def _sympy_echelon(mat, ell):
    """(rref rows, pivots, canonical kernel rows) of a dense Scalar matrix,
    computed by sympy's DomainMatrix."""
    domain = sympy.QQ if ell == 1 else _Z5_FIELD
    dm = DomainMatrix(
        [[_to_domain(x, ell) for x in row] for row in mat], (len(mat), len(mat[0])), domain
    )
    ref, pivots = dm.rref()
    rows = [[_from_domain(a, ell) for a in row] for row in ref.to_list()[: len(pivots)]]
    kernel = dm.nullspace()
    kernel_rows = []
    if kernel.shape[0]:
        kref, kpivots = kernel.rref()
        kernel_rows = [[_from_domain(a, ell) for a in row] for row in kref.to_list()[: len(kpivots)]]
    return rows, list(pivots), kernel_rows


def _sparse_matrix(rng, ell, density):
    """A seeded matrix whose entries are nonzero with the given probability,
    with up to two rows that are combinations of two others."""

    def entry():
        if rng.random() >= density:
            return ZERO
        if ell == 1:
            return Scalar.rational(Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 4)))
        return Scalar.from_coords(5, [rng.randint(-3, 3) for _ in range(4)], rng.randint(1, 3)) or ONE

    ncols = rng.randint(6, 16)
    mat = [[entry() for _ in range(ncols)] for _ in range(rng.randint(3, 10))]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(mat, 2)
        c = Scalar.rational(rng.randint(-2, 2))
        mat.insert(rng.randrange(len(mat) + 1), [x + c * y for x, y in zip(a, b)])
    return mat


SPARSE_CASES = [
    pytest.param(ell, density, seed, id=f"{'q' if ell == 1 else 'z5'}-{density}-{seed}")
    for ell in (1, 5)
    for density in (0.05, 0.15, 0.3, 0.5)
    for seed in range(3)
]


@pytest.mark.parametrize("ell,density,seed", SPARSE_CASES)
def test_sparse_kernel_matches_sympy_and_dense(ell, density, seed):
    rng = random.Random(1000 * ell + int(100 * density) + seed)
    mat = _sparse_matrix(rng, ell, density)
    ncols = len(mat[0])
    rows = [linalg.sparse(row) for row in mat]
    basis = {}
    added = [linalg.extend_echelon(basis, row) for row in rows]
    pivots = sorted(basis)
    dense_rows = [linalg.dense(basis[p], ncols) for p in pivots]
    ref_rows, ref_pivots, ref_kernel = _sympy_echelon(mat, ell)
    assert (dense_rows, pivots) == (ref_rows, ref_pivots)
    assert (dense_rows, pivots) == linalg.rref(mat)
    assert added.count(True) == len(basis)
    # the invariant: ONE at the pivot, nothing before it or at another pivot
    for p, row in basis.items():
        assert row[p] == ONE and min(row) == p
        assert all(x for x in row.values())
        assert set(row) & set(basis) == {p}
    # the input rows reduce to zero; a free unit vector reduces to a vector
    # that vanishes on every pivot and keeps its own coordinate
    for row in rows:
        assert linalg.reduce_against(row, basis) == {}
    for f in range(ncols):
        if f not in basis:
            reduced = linalg.reduce_against({f: ONE}, basis)
            assert reduced == {f: ONE}
    kernel = linalg.kernel(rows, ncols)
    kernel_rows = [linalg.dense(kernel[p], ncols) for p in sorted(kernel)]
    assert kernel_rows == ref_kernel == linalg.nullspace(mat)
    # the echelon basis depends only on the row space
    shuffled = list(rows)
    rng.shuffle(shuffled)
    other = {}
    for row in shuffled:
        linalg.extend_echelon(other, row)
    assert other == basis
