"""Kernel probes: single layers timed in isolation on fixed seeded inputs.

The inputs depend on a fixed probe seed, not on the workload seed, so the
probes read the same on every workload.  Each probe reports the median of
several repeats.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from cherednik import category_o, linalg
from cherednik.scalars import ZERO, Scalar

import workloads

PROBE_SEED = 20250423
REPEATS = 5


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rationals(rng, count):
    return [Scalar.rational(Fraction(rng.randint(-1000, 1000) or 1, rng.randint(1, 1000)))
            for _ in range(count)]


def _z5s(rng, count):
    return [Scalar.from_coords(5, [rng.randint(-50, 50) for _ in range(4)], rng.randint(1, 50))
            for _ in range(count)]


def scalar_probes(rng) -> dict:
    """Nanoseconds per Scalar operation."""
    count = 2000
    qa, qb = _rationals(rng, count), _rationals(rng, count)
    za, zb = _z5s(rng, count), _z5s(rng, count)
    za = [z for z in za if z] or za
    zeros = [ZERO] * count

    def per_op(fn, xs, ys=None):
        if ys is None:
            return _median_time(lambda: [fn(x) for x in xs]) / len(xs) * 1e9
        return _median_time(lambda: [fn(x, y) for x, y in zip(xs, ys)]) / len(xs) * 1e9

    return {
        "scalars.add_q_ns": per_op(lambda x, y: x + y, qa, qb),
        "scalars.sub_q_ns": per_op(lambda x, y: x - y, qa, qb),
        "scalars.mul_q_ns": per_op(lambda x, y: x * y, qa, qb),
        "scalars.inv_q_ns": per_op(lambda x: x.inverse(), qa),
        "scalars.add_zero_ns": per_op(lambda x, y: x + y, zeros, zeros),
        "scalars.mul_z5_ns": per_op(lambda x, y: x * y, za, zb),
        "scalars.inv_z5_ns": per_op(lambda x: x.inverse(), za[:400]),
    }


def _matrix(rng, rows, cols, rank, make):
    """A rows x cols matrix of rank <= `rank`: random combinations of `rank` rows."""
    base = [[make(rng) for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coefs = [Scalar.rational(rng.randint(-3, 3)) for _ in range(rank)]
        row = [ZERO] * cols
        for c, b in zip(coefs, base):
            if c:
                row = [x + c * y for x, y in zip(row, b)]
        out.append(row)
    return out


def linalg_probes(rng) -> dict:
    """Milliseconds per rref / nullspace at fixed shapes."""
    q = _matrix(rng, 24, 32, 20, lambda r: Scalar.rational(Fraction(r.randint(-9, 9), r.randint(1, 4))))
    z = _matrix(rng, 12, 16, 10, lambda r: Scalar.from_coords(5, [r.randint(-3, 3) for _ in range(4)]))
    return {
        "linalg.rref_q_ms": _median_time(lambda: linalg.rref(q), 3) * 1e3,
        "linalg.nullspace_q_ms": _median_time(lambda: linalg.nullspace(q), 3) * 1e3,
        "linalg.rref_z5_ms": _median_time(lambda: linalg.rref(z), 3) * 1e3,
        "linalg.nullspace_z5_ms": _median_time(lambda: linalg.nullspace(z), 3) * 1e3,
    }


def pbw_probes(rng) -> dict:
    """Straightening cold and warm, and warm PBW multiply, on S3 with c = 1/2."""
    words = [((j1, j2), (i1, i2)) for j1 in range(3) for j2 in range(3 - j1)
             for i1 in range(5) for i2 in range(5 - i1)]

    def straighten_all(alg):
        for jdeg, ideg in words:
            alg._straighten_ji(jdeg, ideg)

    cold = []
    for _ in range(3):
        alg = workloads.build_algebra("s3", 1, Fraction(1, 2))
        t0 = time.perf_counter()
        straighten_all(alg)
        cold.append(time.perf_counter() - t0)
    warm = _median_time(lambda: straighten_all(alg)) / len(words)
    pairs = [(workloads.random_element(alg, rng), workloads.random_element(alg, rng)) for _ in range(10)]
    for a, b in pairs:
        alg.multiply(a, b)
    mult = _median_time(lambda: [alg.multiply(a, b) for a, b in pairs], 3) / len(pairs)
    return {
        "pbw.straighten_cold_ms": statistics.median(cold) * 1e3,
        "pbw.straighten_warm_us": warm * 1e6,
        "pbw.multiply_ms": mult * 1e3,
    }


def category_o_probes() -> dict:
    """The x/y/g images of every basis vector of one fixed slice (cold
    algebra each repeat), and one graded character."""
    def operators():
        alg = workloads.build_algebra("s3", 1, Fraction(1, 2))
        slice_ = category_o.VermaSlice(alg, alg.irreps[2], 6)
        for n in range(slice_.cutoff + 1):
            dim = slice_.full_dim(n)
            for j in range(dim):
                unit = [ZERO] * dim
                unit[j] = Scalar.rational(1)
                for i in range(alg.dim):
                    if n < slice_.cutoff:
                        slice_.apply_x_full(i, n, unit)
                    slice_.apply_y_full(i, n, unit)
                for g in range(len(alg.group)):
                    slice_.apply_g_full(g, n, unit)

    alg = workloads.build_algebra("dihedral:5", 5, Fraction(1, 5))
    return {
        "category_o.operators_ms": _median_time(operators, 3) * 1e3,
        "category_o.graded_character_ms": _median_time(
            lambda: category_o.VermaSlice(alg, alg.irreps[2], 12).graded_character(), 3
        ) * 1e3,
    }


def run_all() -> dict:
    rng = random.Random(PROBE_SEED)
    out = {}
    out.update(scalar_probes(rng))
    out.update(linalg_probes(rng))
    out.update(pbw_probes(rng))
    out.update(category_o_probes())
    return out
