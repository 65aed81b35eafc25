"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact; there are no tolerances to tune.  Randomized
checks use fixed seeds so the suite is reproducible byte for byte.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from cherednik.banach import (
    BanachElement,
    TailDominated,
    analytic_verma_slice,
    coadmissible_check,
    gauss_norm,
    lattice_check,
    level_tower,
    weight_decompose_banach,
)
from cherednik.category_o import (
    VermaSlice,
    decomposition_matrix,
    dunkl_action,
    highest_weight_order,
    mv_eq,
    mv_scale,
    singular_vectors,
    verma_action,
)
from cherednik.pbw import monomials
from cherednik.scalars import PadicContext, Scalar
from helpers import brute_force_singular_dims, make_algebra, random_banach


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL")
        raise
    print(f"criterion {number:2d} ({title}): PASS")


def random_element(alg, rng, max_degree, terms):
    out = alg.zero()
    for _ in range(terms):
        total = rng.randint(0, max_degree)
        isum = rng.randint(0, total)
        ideg = [0] * alg.dim
        for _ in range(isum):
            ideg[rng.randrange(alg.dim)] += 1
        jdeg = [0] * alg.dim
        for _ in range(total - isum):
            jdeg[rng.randrange(alg.dim)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        out = out + alg.monomial(
            tuple(ideg), rng.randrange(len(alg.group)), tuple(jdeg), coeff
        )
    return out


TEST_ALGEBRAS = (
    ("cyclic:2", 1, [Fraction(1, 2)]),
    ("s3", 1, [Fraction(1, 3)]),
)


def test_criterion_01_straightening_confluence():
    with criterion(1, "straightening confluence"):
        for spec, ell, cs in TEST_ALGEBRAS:
            alg = make_algebra(spec, ell, cs)
            rng = random.Random(101)
            for _ in range(200):
                a = random_element(alg, rng, max_degree=4, terms=2)
                b = random_element(alg, rng, max_degree=4, terms=2)
                c = random_element(alg, rng, max_degree=4, terms=2)
                assert (a * b) * c == a * (b * c)


def test_criterion_02_inner_grading():
    with criterion(2, "inner grading"):
        for spec, ell, cs in TEST_ALGEBRAS:
            alg = make_algebra(spec, ell, cs)
            for total in range(6):
                for isum in range(total + 1):
                    for ideg in monomials(alg.dim, isum):
                        for jdeg in monomials(alg.dim, total - isum):
                            for g in range(len(alg.group)):
                                mono = alg.monomial(ideg, g, jdeg)
                                assert alg.ad_euler(mono) == mono * (isum - (total - isum))


RELATION_ALGEBRAS = (
    ("cyclic:1", 1, [0]),
    ("cyclic:2", 1, [Fraction(1, 2)]),
    ("cyclic:3", 3, [Fraction(1, 2), Fraction(1, 3)]),
    ("cyclic:4", 4, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]),
    ("s3", 1, [Fraction(1, 3)]),
)


def test_criterion_03_relation_vanishing_on_modules():
    with criterion(3, "relation vanishing on Verma slices"):
        for spec, ell, cs in RELATION_ALGEBRAS:
            alg = make_algebra(spec, ell, cs)
            d = alg.dim
            relations = []
            for a in range(1, d + 1):
                for b in range(1, d + 1):
                    rel = alg.y(a) * alg.x(b) - alg.x(b) * alg.y(a)
                    if a == b:
                        rel = rel - alg.one()
                    for r in alg.reflections:
                        coef = alg.c(r.index) * r.covector[a - 1] * r.vector[b - 1]
                        rel = rel + alg.g(r.index) * coef
                    relations.append(rel)
                    if a < b:
                        relations.append(alg.x(a) * alg.x(b) - alg.x(b) * alg.x(a))
                        relations.append(alg.y(a) * alg.y(b) - alg.y(b) * alg.y(a))
            cutoff = 20
            for w in alg.irreps:
                slice_ = VermaSlice(alg, w, cutoff)
                for n in range(cutoff):
                    for j in range(slice_.dim(n)):
                        vec = slice_.basis_vector(n, j)
                        for rel in relations:
                            assert verma_action(slice_, rel, vec) == {}


DUNKL_INSTANCES = (
    ("cyclic:2", 1, [Fraction(1, 2)]),
    ("cyclic:3", 3, [Fraction(1, 2), Fraction(1, 3)]),
    ("s3", 1, [Fraction(1, 3)]),
)


def test_criterion_04_dunkl_oracle():
    with criterion(4, "Dunkl oracle agreement"):
        for spec, ell, cs in DUNKL_INSTANCES:
            alg = make_algebra(spec, ell, cs)
            rng = random.Random(104)
            for w in alg.irreps:
                slice_ = VermaSlice(alg, w, 10)
                for _ in range(100):
                    n = rng.randint(1, 10)
                    vec = {
                        n: [
                            Scalar.rational(
                                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            )
                            for _ in range(slice_.dim(n))
                        ]
                    }
                    for i in range(1, alg.dim + 1):
                        assert dunkl_action(slice_, i, vec) == verma_action(
                            slice_, alg.y(i), vec
                        )


def test_criterion_05_rank_one_singular_law():
    with criterion(5, "rank-one singular law"):
        for k in (1, 3, 5):
            alg = make_algebra("cyclic:2", 1, [Fraction(k, 2)])
            triv = alg.irreps[0]
            oracle = brute_force_singular_dims(alg, triv, 20)
            expected = {n: (1 if n == k else 0) for n in range(1, 21)}
            assert oracle == expected
            slice_ = VermaSlice(alg, triv, 20)
            for n in range(1, 21):
                assert singular_vectors(slice_, n).dimension == expected[n]
        for gamma in (Fraction(1, 3), Fraction(2, 5)):
            alg = make_algebra("cyclic:2", 1, [gamma])
            triv = alg.irreps[0]
            assert all(
                v == 0 for v in brute_force_singular_dims(alg, triv, 20).values()
            )
            slice_ = VermaSlice(alg, triv, 20)
            for n in range(1, 21):
                assert singular_vectors(slice_, n).dimension == 0


BUILTIN_FAMILIES = (
    [(f"cyclic:{l}", l) for l in range(1, 13)]
    + [(f"dihedral:{l}", l) for l in range(3, 9)]
    + [("s3", 1), ("s4", 1)]
)


def test_criterion_06_weight_space_dimensions():
    with criterion(6, "weight-space dimensions"):
        for spec, ell in BUILTIN_FAMILIES:
            alg = make_algebra(spec, ell, [Fraction(1, 3)])
            euler = alg.euler_element()
            d = alg.dim
            for w in alg.irreps:
                slice_ = VermaSlice(alg, w, 15)
                for n in range(16):
                    assert slice_.dim(n) == math.comb(n + d - 1, d - 1) * w.dim
                    for j in range(slice_.dim(n)):
                        vec = slice_.basis_vector(n, j)
                        out = verma_action(slice_, euler, vec)
                        assert mv_eq(out, mv_scale(vec, slice_.c_value + n))


def test_criterion_07_decomposition_matrix():
    with criterion(7, "decomposition matrix"):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        matrix = decomposition_matrix(alg, 20)
        assert matrix["triv"] == {"triv": 1, "sgn": 1}
        assert matrix["sgn"] == {"triv": 0, "sgn": 1}
        edges = set(highest_weight_order(alg).edges)
        for w in matrix:
            assert matrix[w][w] == 1
            for e, mult in matrix[w].items():
                if mult and e != w:
                    assert (w, e) in edges
        generic = make_algebra("cyclic:2", 1, [Fraction(1, 3)])
        matrix = decomposition_matrix(generic, 20)
        for w in ("triv", "sgn"):
            for e in ("triv", "sgn"):
                assert matrix[w][e] == (1 if w == e else 0)


CTX5 = PadicContext(5, 64)


def test_criterion_08_gauss_norm_submultiplicativity():
    with criterion(8, "Gauss norm submultiplicativity"):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 2)
        rng = random.Random(108)
        for params in tower:
            for _ in range(500):
                a = random_banach(alg, params, rng)
                b = random_banach(alg, params, rng)
                try:
                    na, nb = gauss_norm(a), gauss_norm(b)
                except TailDominated:
                    continue
                prod = a * b
                try:
                    assert gauss_norm(prod) >= na + nb
                except TailDominated:
                    # the product vanished or fell into the tail; its norm is
                    # certified >= tau, which still dominates the bound
                    assert prod.tau >= na + nb


def test_criterion_09_weight_component_norm_bound():
    with criterion(9, "weight-component norm bound"):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 1)
        rng = random.Random(109)
        checked = 0
        for _ in range(220):
            el = random_banach(alg, tower[1], rng)
            if not el.terms:
                continue
            whole = gauss_norm(el)
            decomposition = weight_decompose_banach(el)
            for component in decomposition.values():
                assert gauss_norm(component) >= whole
            resummed = {}
            for component in decomposition.values():
                resummed.update(component.terms)
            assert resummed == el.terms
            checked += 1
        assert checked >= 200


def test_criterion_10_lattice_soundness():
    with criterion(10, "lattice soundness"):
        for cs in ([0], [Fraction(1, 2)], [Fraction(1, 5)]):
            alg = make_algebra("cyclic:2", 1, cs)
            for params in level_tower(alg, CTX5, 2):
                report = lattice_check(alg, CTX5, params.level, params.r)
                assert report.passed, (cs, params)
        # deliberately under-chosen weight: drop both the positivity seed and
        # the valuation defect at level zero
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 5)])
        report = lattice_check(alg, CTX5, 0, 0)
        assert not report.passed
        offender, exponent = report.violations[0]
        assert exponent < 0 and "y1" in offender


def test_criterion_11_analytic_verma_recovery():
    with criterion(11, "analytic Verma recovery"):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        for w in alg.irreps:
            algebraic = VermaSlice(alg, w, 10)
            for m in (0, 1):
                analytic = analytic_verma_slice(alg, w, CTX5, m, 10)
                assert analytic.ws_recovered
                assert all(v >= 0 for v in analytic.generator_norms.values())
                assert [analytic.slice.dim(n) for n in range(11)] == [
                    algebraic.dim(n) for n in range(11)
                ]
        s3 = make_algebra("s3", 1, [Fraction(1, 3)])
        ctx7 = PadicContext(7, 64)
        for w in s3.irreps:
            analytic = analytic_verma_slice(s3, w, ctx7, 0, 5)
            assert analytic.ws_recovered
            assert all(v >= 0 for v in analytic.generator_norms.values())
            assert [analytic.slice.dim(n) for n in range(6)] == [
                math.comb(n + 1, 1) * w.dim for n in range(6)
            ]


def test_criterion_12_coadmissible_compatibility():
    with criterion(12, "co-admissible compatibility"):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 4)
        poly = alg.parse_element("x1^2*y1 + 3*g1 - 1/2")
        for base in (poly, alg.euler_element()):
            family = [BanachElement.from_pbw(base, p) for p in tower]
            assert coadmissible_check(family) is None
        family = [BanachElement.from_pbw(poly, p) for p in tower]
        family[2] = BanachElement.from_pbw(poly + alg.one() * 25, tower[2])
        assert coadmissible_check(family) == 2
