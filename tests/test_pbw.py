"""PBW straightening, the deformed Euler element, the inner grading, and
the textual element syntax.

The zero-parameter algebra is cross-checked against an independent
implementation of the skew group ring over the Weyl algebra, which reorders
generators with the closed binomial formula instead of rewriting.
"""

import contextlib
import functools
import gc
import math
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cherednik.category_o import VermaSlice, _exterior_traces
from cherednik.cli import main
from cherednik.groups import (
    ReflectionFunction,
    PseudoReflection,
    builtin_group,
    find_reflections,
)
from cherednik.pbw import (
    AlgebraMismatch,
    MAX_POWER_PAIRS,
    CherednikAlgebra,
    PBWElement,
    PowerTooLarge,
    _add_deg,
    _chain,
    monomials,
)
from cherednik.scalars import Scalar, ZERO, ONE, ExprError, FieldMismatch, euler_phi
from cherednik.scalars import MAX_COEFF_BITS, CoefficientBlowup
from cherednik.scalars import _accumulate, _settle
from helpers import ad_euler, cli_job, make_algebra, python_job


def random_element(alg, rng, max_degree=4, terms=3):
    out = alg.zero()
    n = alg.dim
    for _ in range(terms):
        total = rng.randint(0, max_degree)
        isum = rng.randint(0, total)
        ideg = _random_multideg(rng, n, isum)
        jdeg = _random_multideg(rng, n, total - isum)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        out = out + alg.monomial(ideg, rng.randrange(len(alg.group)), jdeg, coeff)
    return out


@contextlib.contextmanager
def gc_disabled():
    """Run the block with the cyclic garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def shift_parts(a):
    """Shift |I| - |J| -> the element made of a's terms of that shift, read
    off its split (`PBWElement.degree_split`)."""
    return {shift: a.algebra.element(dict(pairs)) for shift, _, pairs in a.degree_split()}


def _random_multideg(rng, n, total):
    deg = [0] * n
    for _ in range(total):
        deg[rng.randrange(n)] += 1
    return tuple(deg)


class TestMultiplication:
    def test_lowering_past_raising_order_two(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        product = alg.y(1) * alg.x(1)
        expected = alg.x(1) * alg.y(1) + alg.one() - alg.g(1)
        assert product == expected

    def test_group_past_raising_order_two(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        assert alg.g(1) * alg.x(1) == -(alg.x(1) * alg.g(1))

    def test_unit_law_random(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        rng = random.Random(0)
        for _ in range(10):
            a = random_element(alg, rng)
            assert alg.one() * a == a
            assert a * alg.one() == a

    def test_algebra_mismatch(self):
        a1 = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        a2 = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        with pytest.raises(AlgebraMismatch):
            a1.one() * a2.one()

    def test_reflection_function_on_another_group(self):
        group, irreps = builtin_group("cyclic:2")
        other, _ = builtin_group("cyclic:2")
        c = ReflectionFunction(other, find_reflections(other), [Fraction(1, 2)])
        with pytest.raises(ValueError, match="another group"):
            CherednikAlgebra(group, c, irreps=irreps)

    def test_blowup_guard(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        # 2^999999 has MAX_COEFF_BITS bits, 2^1000001 two more
        assert MAX_COEFF_BITS == 1_000_000
        assert alg.scalar(2) * alg.scalar(2**999998) == alg.scalar(2**999999)
        with pytest.raises(CoefficientBlowup, match="MAX_COEFF_BITS = 1000000"):
            alg.scalar(2) * alg.scalar(2**1000000)
        with pytest.raises(CoefficientBlowup):
            alg.scalar(Fraction(1, 2**1000000)) * alg.x(1)
        # a power checks the guard at every product
        assert alg.scalar(2) ** 999999 == alg.scalar(2**999999)
        with pytest.raises(CoefficientBlowup):
            alg.scalar(2) ** 1000001

    def test_blowup_guard_from_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("group = cyclic:2\nc = 1/2\nprime = 3\nlevel = 0\nelement = 2^1000001*x1\n")
        assert main(["norm", "--config", str(cfg)]) == 3
        assert "MAX_COEFF_BITS" in capsys.readouterr().err

    def test_a_huge_scalar_power_stops_at_the_guard(self, tmp_path):
        # 2^(10^10) would need 1.25 GB; squaring stops at the guard after
        # about 20 products.  A fresh process, stopped after 10 s.
        config = "group = cyclic:2\nc = 1/2\nprime = 3\nlevel = 0\nelement = 2^10000000000*x1\n"
        done = cli_job(tmp_path, "norm", config)
        assert done.returncode == 3
        assert "MAX_COEFF_BITS" in done.stderr

    def test_a_long_power_stops_at_the_pair_bound(self, tmp_path):
        # (x1 + g1)^k multiplies about 0.75 k^2 term pairs, so k = 100000
        # would run for hours; the count passes MAX_POWER_PAIRS near k = 365
        # and the job exits 3.  A fresh process, stopped after 2 s.
        assert MAX_POWER_PAIRS == 100_000
        config = "group = cyclic:2\nc = 1/2\nprime = 3\nlevel = 0\nelement = (x1 + g1)^100000\n"
        done = cli_job(tmp_path, "norm", config, timeout=2)
        assert done.returncode == 3
        assert "MAX_POWER_PAIRS = 100000" in done.stderr

    def test_the_pair_bound_counts_every_product(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        base = alg.x(1) + alg.g(1)
        pairs, power = 0, alg.one()
        for k in range(1, 400):
            pairs += len(power.terms) * len(base.terms)
            if pairs > MAX_POWER_PAIRS:
                break
            power = power * base
        with pytest.raises(PowerTooLarge):
            base**k
        assert base ** (k - 1) == power

    def test_a_negative_power_is_refused(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        with pytest.raises(ValueError, match="negative powers"):
            alg.x(1) ** -1

    def test_y_free_left_term_stores_no_straightening(self):
        # x^I g * x^I2 g2 y^J2 needs no straightening, so the product leaves
        # no (0, I) entry in the y^J x^I cache
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        assert alg.x(1) * alg.g(1) == alg.monomial((1, 0), 1, (0, 0))
        assert [key for key in alg._ji_cache if not any(key[0])] == []


    @pytest.mark.parametrize(
        "spec, ell, c",
        [("s3", 1, [Fraction(1, 3)]), ("dihedral:5", 5, [Fraction(1, 5)])],
    )
    def test_powers_are_left_nested_products(self, spec, ell, c):
        alg = make_algebra(spec, ell, c)
        rng = random.Random(5)
        # one-term bases are squared, x1 g1 and x1 y1 into longer elements
        one_term = (alg.scalar(Fraction(-2, 3)), alg.x(1), alg.g(1), alg.x(1) * alg.g(1), alg.x(1) * alg.y(1))
        for a in one_term + (alg.y(2) + alg.g(1), random_element(alg, rng, 2, 2)):
            assert a**0 == alg.one()
            assert a**1 == a
            nested = a
            for k in range(2, 8 if len(a.terms) == 1 else 5):
                nested = nested * a
                assert a**k == nested

    @pytest.mark.parametrize("name", ["s3", "dihedral:5"])
    def test_powers_multiply_on_the_side_with_fewer_swaps(self, name):
        # x1 + x2 + x1*y1 has |I| 3 to |J| 1 summed over its terms, so each
        # factor goes in on the left and straightens y-words of at most one
        # letter; y1 + y2 + x1 goes in on the right, past x-words of at most
        # one letter.  A _ji_cache key is (J, I) of a straightened y^J x^I
        for text, side in (("x1 + x2 + x1*y1", 0), ("y1 + y2 + x1", 1)):
            alg = make_algebra(*PROPERTY_ALGEBRAS[name])
            alg.parse_element(text) ** 5
            assert alg._ji_cache
            assert max(sum(key[side]) for key in alg._ji_cache) <= 1, text


RELATION_GROUPS = (
    [(f"cyclic:{n}", n) for n in range(2, 7)]
    + [("s3", 1), ("s4", 1)]
    + [(f"dihedral:{n}", n) for n in range(3, 9)]
)


class TestTermChecks:
    """Every PBW term built from outside holds dim non-negative ints in I
    and J and a group element in 0..|G|-1."""

    def test_a_negative_exponent_is_rejected_in_a_fresh_process(self):
        # lowering the first nonzero exponent of (-1, 0) never reaches degree
        # zero, so the product used to straighten forever with its caches
        # growing without bound.  A fresh process, stopped after 2 s.
        code = (
            "from fractions import Fraction\n"
            "from helpers import make_algebra\n"
            "alg = make_algebra('s3', 1, [Fraction(1, 2)])\n"
            "try:\n"
            "    alg.y(1) * alg.monomial((-1, 0), 0, (0, 0))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        done = python_job(["-c", code], timeout=2)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "multidegrees (-1, 0) and (0, 0) are not 2 non-negative ints each\n"

    BAD_TERMS = [
        (((-1, 0), 0, (0, 0)), r"multidegrees \(-1, 0\) and \(0, 0\) are not 2"),
        (((0, 0), 0, (0, -1)), r"multidegrees \(0, 0\) and \(0, -1\) are not 2"),
        (((1,), 0, (0, 0)), r"multidegrees \(1,\) and \(0, 0\) are not 2"),
        (((0, 0), 0, (0, 0, 1)), r"multidegrees \(0, 0\) and \(0, 0, 1\) are not 2"),
        (((1.0, 0), 0, (0, 0)), r"multidegrees \(1.0, 0\) and \(0, 0\) are not 2"),
        (((0, 0), -1, (0, 0)), "group element -1 is outside 0..5"),
        (((0, 0), 6, (0, 0)), "group element 6 is outside 0..5"),
    ]

    def test_monomial_checks_its_term(self):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        for term, message in self.BAD_TERMS:
            with pytest.raises(ValueError, match=message):
                alg.monomial(*term)
            # a zero coefficient is checked too
            with pytest.raises(ValueError, match=message):
                alg.monomial(*term, 0)
        for g in (0, 5):
            assert str(alg.monomial([2, 0], g, [0, 1])) == ("x1^2*y2" if g == 0 else "x1^2*g5*y2")

    def test_element_checks_every_term(self):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        for term, message in self.BAD_TERMS:
            with pytest.raises(ValueError, match=message):
                alg.element({((0, 0), 0, (0, 0)): 1, term: 2})
        assert str(alg.element({((0, 1), 5, (1, 0)): 2, ((0, 0), 0, (0, 0)): 1})) == "1 + 2*x2*g5*y1"

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_generator_indices_run_from_one_to_dim(self, name):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        make = getattr(alg, name)
        for i in (0, 3):
            with pytest.raises(ValueError, match=f"{name} index {i} is outside 1..2"):
                make(i)
        with pytest.raises(ValueError, match="multidegrees"):
            make(1, -1)
        assert [str(make(i, 2)) for i in (1, 2)] == [f"{name}1^2", f"{name}2^2"]

    def test_a_negative_exponent_in_a_monomial_action_in_a_fresh_process(self):
        # act_on_x_monomial(0, (-1, 0)) used to walk _chain down forever
        code = (
            "from fractions import Fraction\n"
            "from helpers import make_algebra\n"
            "alg = make_algebra('s3', 1, [Fraction(1, 2)])\n"
            "for act in (alg.act_on_x_monomial, alg.act_on_y_monomial):\n"
            "    try:\n"
            "        act(0, (-1, 0))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        done = python_job(["-c", code], timeout=2)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "multidegree (-1, 0) is not 2 non-negative ints\n" * 2

    BAD_ACTIONS = [
        (-1, (1, 0), "group element -1 is outside 0..5"),
        (6, (1, 0), "group element 6 is outside 0..5"),
        (0, (1,), r"multidegree \(1,\) is not 2 non-negative ints"),
        (0, (1, 0, 0), r"multidegree \(1, 0, 0\) is not 2"),
        (0, (1.0, 0), r"multidegree \(1.0, 0\) is not 2"),
        (0, (0, -2), r"multidegree \(0, -2\) is not 2"),
    ]

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_monomial_actions_check_a_missed_key(self, side, monkeypatch):
        # g = -1 used to act as g5 and be cached under -1, and (1,) to
        # return garbage; the check runs only when the key misses the cache
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        act = getattr(alg, f"act_on_{side}_monomial")
        cache = alg._act_a_cache if side == "x" else alg._act_b_cache
        for g, deg, message in self.BAD_ACTIONS:
            with pytest.raises(ValueError, match=message):
                act(g, deg)
            assert (g, deg) not in cache
        group = alg.group
        matrix = group.matrices[group.inv(5) if side == "x" else 5]
        column = [row[0] for row in matrix]
        expected = {(1, 0): matrix[0][0], (0, 1): matrix[0][1]} if side == "x" else {
            (1, 0): column[0], (0, 1): column[1]
        }
        assert act(5, (1, 0)) == {m: v for m, v in expected.items() if v}
        assert act(0, (2, 1)) == {(2, 1): ONE}
        checked = []
        monkeypatch.setattr(alg, "_check_action", lambda g, deg: checked.append((g, deg)))
        act(5, (1, 0))
        act(0, (2, 1))
        assert checked == []
        act(1, (1, 1))
        assert checked == [(1, (1, 1))]

    def test_group_elements_run_from_zero_to_the_order_less_one(self):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        for g in (-1, 6):
            with pytest.raises(ValueError, match=f"group element {g} is outside 0..5"):
                alg.g(g)
        assert [str(alg.g(g)) for g in (0, 5)] == ["1", "g5"]


@pytest.mark.parametrize("spec, ell", RELATION_GROUPS, ids=[g[0] for g in RELATION_GROUPS])
def test_y_past_x_is_the_relation_table(spec, ell):
    """y_i x_j = x_j y_i + delta_ij - sum_s c(s) alpha_s[i] alpha_s^v[j] s,
    alpha_s = s.covector and alpha_s^v = s.vector, at one c-value and at one
    value per reflection class; `relation[i - 1, j - 1]` holds the nonzero
    reflection terms in reflection order."""
    group, _ = builtin_group(spec, ell)
    classes = len(ReflectionFunction(group, find_reflections(group), [0]).classes)
    for values in ([Fraction(1, 3)], [Fraction(k + 1, k + 3) for k in range(classes)]):
        alg = make_algebra(spec, ell, values)
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                terms = [
                    (s.index, alg.c(s.index) * s.covector[i - 1] * s.vector[j - 1])
                    for s in alg.reflections
                ]
                assert alg.relation[i - 1, j - 1] == [(s, k) for s, k in terms if k]
                expected = alg.x(j) * alg.y(i) + (1 if i == j else 0)
                for s, k in alg.relation[i - 1, j - 1]:
                    expected = expected - alg.g(s) * k
                assert alg.y(i) * alg.x(j) == expected, (values, i, j)


def _mixed_scalar(rng, ell):
    """A seeded value of Q(zeta_ell): zero, a rational, or (ell > 1) a
    cyclotomic value, each with one of several denominators."""
    kind = rng.random()
    if kind < 0.1:
        return ZERO
    if ell == 1 or kind < 0.45:
        return Scalar.rational(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 9])))
    coords = [rng.randint(-3, 3) for _ in range(euler_phi(ell))]
    return Scalar.from_coords(ell, coords, rng.choice([1, 2, 3, 5, 10, 12]))


def _is_canonical(v):
    phi = euler_phi(v.ell) if v.ell > 1 else 1
    return (
        v.den > 0
        and math.gcd(v.den, *v.coeffs) == 1
        and len(v.coeffs) == phi
        and (v.ell == 1 or any(v.coeffs[1:]))
    )


class TestLazyAccumulate:
    @pytest.mark.parametrize("ell", [1, 5, 8])
    def test_settled_sums_equal_scalar_sums(self, ell):
        rng = random.Random(ell)
        for _ in range(60):
            terms, expected = {}, {}
            for _ in range(rng.randint(1, 14)):
                key = rng.randrange(4)
                value = _mixed_scalar(rng, ell)
                _accumulate(terms, key, value)
                expected[key] = expected.get(key, ZERO) + value
            settled = _settle(terms)
            assert settled == {k: v for k, v in expected.items() if v}
            for v in settled.values():
                assert type(v) is Scalar and _is_canonical(v)

    @pytest.mark.parametrize("ell", [1, 5, 8])
    def test_exact_cancellation_drops_the_key(self, ell):
        rng = random.Random(100 + ell)
        for _ in range(30):
            values = [_mixed_scalar(rng, ell) for _ in range(rng.randint(1, 6))]
            signed = values + [-v for v in values]
            rng.shuffle(signed)
            terms = {"kept": ONE}
            for v in signed:
                _accumulate(terms, "gone", v)
            assert _settle(terms) == {"kept": ONE}

    def test_cyclotomic_part_cancelling_to_a_rational_collapses(self):
        z = Scalar.zeta(5)
        terms = {}
        for v in (z / 3, Scalar.rational(Fraction(1, 2)), -z / 3):
            _accumulate(terms, 0, v)
        (value,) = _settle(terms).values()
        assert value.ell == 1 and value == Scalar.rational(Fraction(1, 2))

    @pytest.mark.parametrize("lead", [[], [Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])
    def test_mixed_cyclotomic_fields_raise(self, lead):
        terms = {}
        for v in [*map(Scalar.rational, lead), Scalar.zeta(5)]:
            _accumulate(terms, 0, v)
        with pytest.raises(FieldMismatch):
            _accumulate(terms, 0, Scalar.zeta(8))


class TestEulerElement:
    def test_order_two_euler(self):
        gamma = Fraction(2, 3)
        alg = make_algebra("cyclic:2", 1, [gamma])
        expected = (
            alg.monomial((1,), 0, (1,))
            + alg.scalar(Fraction(1, 2))
            - alg.g(1) * gamma
        )
        assert alg.euler_element() == expected

    def test_s3_constant_parameter(self):
        gamma = Fraction(1, 5)
        alg = make_algebra("s3", 1, [gamma])
        refl_part = alg.zero()
        for r in alg.reflections:
            refl_part = refl_part + alg.g(r.index)
        expected = (
            alg.monomial((1, 0), 0, (1, 0))
            + alg.monomial((0, 1), 0, (0, 1))
            + alg.one()
            - refl_part * gamma
        )
        assert alg.euler_element() == expected

    def test_zero_parameter_euler(self):
        alg = make_algebra("s4", 1, [0])
        expected = alg.scalar(Fraction(3, 2))
        for i in range(1, 4):
            expected = expected + alg.x(i) * alg.y(i)
        assert alg.euler_element() == expected

    def test_central_part_is_built_once(self):
        # the terms are kept; each call hands out a fresh element over them
        alg = make_algebra("s4", 1, [Fraction(1, 2)])
        first, second = alg.euler_central_part(), alg.euler_central_part()
        assert first.terms is second.terms and first is not second
        assert alg.euler_element().terms is alg.euler_element().terms

    @pytest.mark.parametrize("build", ["euler_element", "euler_central_part"])
    def test_the_euler_element_leaves_its_algebra_free(self, build):
        # with the cyclic collector off, only reference counts free an
        # algebra: nothing the Euler element leaves on it may point back
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        element = getattr(alg, build)()
        assert element.degree_split()
        ref = weakref.ref(alg)
        with gc_disabled():
            del alg, element
            assert ref() is None


class TestInnerGrading:
    def test_ad_euler_on_generators(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        assert ad_euler(alg, alg.x(1)) == alg.x(1)
        assert ad_euler(alg, alg.y(1)) == -alg.y(1)
        for g in range(2):
            assert ad_euler(alg, alg.g(g)) == alg.zero()

    def test_ad_euler_on_mixed_monomial(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        mono = alg.monomial((2,), 0, (1,))
        assert ad_euler(alg, mono) == mono

    def test_ad_euler_eigenvalues_cyclotomic(self):
        alg = make_algebra("cyclic:4", 4, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        for i in range(4):
            for j in range(4):
                for g in range(4):
                    mono = alg.monomial((i,), g, (j,))
                    assert ad_euler(alg, mono) == mono * (i - j)

    def test_derivation_property(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        rng = random.Random(1)
        for _ in range(10):
            a, b = random_element(alg, rng), random_element(alg, rng)
            lhs = ad_euler(alg, a * b)
            rhs = ad_euler(alg, a) * b + a * ad_euler(alg, b)
            assert lhs == rhs

    def test_degree_split_examples(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        parts = shift_parts(alg.x(1) + alg.y(1))
        assert set(parts) == {-1, 1}
        assert parts[1] == alg.x(1) and parts[-1] == alg.y(1)
        assert shift_parts(alg.g(1)) == {0: alg.g(1)}
        mixed = alg.monomial((1,), 0, (1,)) + alg.g(1) * alg.y(1) ** 2
        assert sorted(entry[:2] for entry in mixed.degree_split()) == [(-2, 2), (0, 1)]
        assert shift_parts(alg.zero()) == {}

    def test_components_resum_and_are_eigenvectors(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        rng = random.Random(2)
        for _ in range(8):
            a = random_element(alg, rng)
            parts = shift_parts(a)
            total = alg.zero()
            for n, comp in parts.items():
                assert ad_euler(alg, comp) == comp * n
                total = total + comp
            assert total == a

    def test_grading_is_multiplicative(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        rng = random.Random(3)
        for _ in range(8):
            a, b = random_element(alg, rng, 3), random_element(alg, rng, 3)
            pa, pb = shift_parts(a), shift_parts(b)
            prod_parts = shift_parts(a * b)
            for n, comp in prod_parts.items():
                expect = alg.zero()
                for da, ca in pa.items():
                    for db, cb in pb.items():
                        if da + db == n:
                            expect = expect + ca * cb
                assert comp == expect


class TestNormalizationInvariance:
    def test_rescaled_reflection_data_gives_same_products(self):
        group, irreps = builtin_group("s3")
        refl = find_reflections(group)
        c = ReflectionFunction(group, refl, [Fraction(1, 3)])
        standard = CherednikAlgebra(group, c, irreps=irreps)
        scales = [Fraction(3), Fraction(-1, 2), Fraction(5, 7)]
        rescaled_refl = [
            PseudoReflection(
                r.index,
                r.eigenvalue,
                tuple(x * Scalar.rational(u) for x in r.covector),
                tuple(x / Scalar.rational(u) for x in r.vector),
            )
            for r, u in zip(refl, scales)
        ]
        rescaled_c = ReflectionFunction(group, rescaled_refl, [Fraction(1, 3)])
        rescaled = CherednikAlgebra(group, rescaled_c, irreps=irreps)
        rng = random.Random(4)
        for _ in range(10):
            a = random_element(standard, rng)
            b = random_element(standard, rng)
            a2 = rescaled.element(dict(a.terms))
            b2 = rescaled.element(dict(b.terms))
            assert sorted((a * b).terms.items(), key=str) == sorted(
                (a2 * b2).terms.items(), key=str
            )


# ---------------------------------------------------------------------------
# independent oracle: skew group ring over the Weyl algebra (c = 0)
# ---------------------------------------------------------------------------


def weyl_smash_multiply(group, a_terms, b_terms, n):
    """Multiply in the smash product of the group with the Weyl algebra,
    using the closed reordering formula y^a x^b = sum_k k! C(a,k) C(b,k)
    x^(b-k) y^(a-k) variable by variable."""

    def act_on_poly(g, deg, dual):
        # expand the linear substitution on a monomial
        gm = group.matrices[group.inv(g)] if dual else group.matrices[g]
        poly = {tuple([0] * n): ONE}
        for b, e in enumerate(deg):
            for _ in range(e):
                nxt = {}
                for mono, coef in poly.items():
                    for i in range(n):
                        entry = gm[b][i] if dual else gm[i][b]
                        if entry:
                            up = list(mono)
                            up[i] += 1
                            key = tuple(up)
                            nxt[key] = nxt.get(key, ZERO) + coef * entry
                poly = nxt
        return poly

    out = {}
    for (i1, g1, j1), c1 in a_terms.items():
        for (i2, g2, j2), c2 in b_terms.items():
            # g1 past x^i2, then g1 g2, then y^j1 g1-moved needs care: work
            # left to right: x^i1 g1 y^j1 x^i2 g2 y^j2
            # first move g1 past nothing; commute y^j1 with x^i2 via Weyl
            for xdeg, ydeg, weight in _weyl_reorder(j1, i2, n):
                # now x^i1 g1 x^xdeg (weight) ... y^ydeg g2 y^j2
                for xm, cx in act_on_poly(g1, xdeg, dual=True).items():
                    for ym, cy in act_on_poly(group.inv(g2), ydeg, dual=False).items():
                        key = (
                            tuple(p + q for p, q in zip(i1, xm)),
                            group.mul(g1, g2),
                            tuple(p + q for p, q in zip(ym, j2)),
                        )
                        coef = c1 * c2 * weight * cx * cy
                        tot = out.get(key, ZERO) + coef
                        if tot:
                            out[key] = tot
                        else:
                            out.pop(key, None)
    return out


def _weyl_reorder(ydeg, xdeg, n):
    """All terms of y^ydeg x^xdeg in normal order, as (xdeg, ydeg, weight)."""
    terms = [((), (), Scalar.rational(1))]
    for v in range(n):
        a, b = ydeg[v], xdeg[v]
        expanded = []
        for xs, ys, w in terms:
            for k in range(min(a, b) + 1):
                coef = Scalar.rational(
                    math.factorial(k) * math.comb(a, k) * math.comb(b, k)
                )
                expanded.append((xs + (b - k,), ys + (a - k,), w * coef))
        terms = expanded
    return terms


class TestWeylSmashOracle:
    @pytest.mark.parametrize("spec,ell", [("cyclic:2", 1), ("s3", 1)])
    def test_zero_parameter_product_matches_smash_product(self, spec, ell):
        alg = make_algebra(spec, ell, [0])
        rng = random.Random(11)
        for _ in range(25):
            a = random_element(alg, rng, max_degree=3, terms=2)
            b = random_element(alg, rng, max_degree=3, terms=2)
            ours = (a * b).terms
            oracle = weyl_smash_multiply(alg.group, a.terms, b.terms, alg.dim)
            assert ours == oracle


class TestElementSyntax:
    def test_documented_example(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        el = alg.parse_element("3/2*x1^2*g2*y1 + x2")
        assert el.terms[((2, 0), 2, (1, 0))] == Scalar.rational(Fraction(3, 2))

    def test_non_canonical_words_straighten(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        assert alg.parse_element("y1*x1") == alg.y(1) * alg.x(1)
        assert alg.parse_element("g1*x1") == -(alg.x(1) * alg.g(1))

    @pytest.mark.parametrize(
        "text, same",
        [
            ("x1*-x2^2", "-(x1*x2^2)"),
            ("-x1^2", "-(x1^2)"),
            ("y1*-2^2", "-4*y1"),
            ("x1/-2^2", "-1/4*x1"),
            ("g1*-y1^2*x2", "-(g1*y1^2*x2)"),
            ("x1*--x2", "x1*x2"),
            ("(-x1)^2", "x1^2"),
        ],
    )
    def test_sign_binds_looser_than_power(self, text, same):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        assert alg.parse_element(text) == alg.parse_element(same)

    def test_round_trip_random(self):
        rng = random.Random(8)
        for spec, ell, cs in (
            ("cyclic:2", 1, [Fraction(1, 2)]),
            ("s3", 1, [Fraction(1, 3)]),
        ):
            alg = make_algebra(spec, ell, cs)
            for _ in range(25):
                el = random_element(alg, rng)
                assert alg.parse_element(str(el)) == el

    def test_round_trip_cyclotomic_coefficients(self):
        alg = make_algebra("cyclic:4", 4, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        z = Scalar.zeta(4)
        el = (
            alg.x(1) * (z + 1)
            + alg.g(1) * Scalar.from_coords(4, [1, -2], 3)
            + alg.monomial((2,), 3, (1,), z)
        )
        assert alg.parse_element(str(el)) == el

    def test_zero_formats_and_parses(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        assert str(alg.zero()) == "0"
        assert alg.parse_element("0") == alg.zero()

    def test_rejects_bad_input(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        for text in ("x9", "g7", "x1^", "w2", "x1/x1"):
            with pytest.raises(ExprError):
                alg.parse_element(text)
        for text in ("1 +", "x1 +"):
            with pytest.raises(ExprError, match="element expression ended where an operand"):
                alg.parse_element(text)


PROPERTY_ALGEBRAS = {
    "s3": ("s3", 1, [Fraction(1, 3)]),
    "dihedral:5": ("dihedral:5", 5, [Scalar.from_coords(5, [1, 1], 3)]),
    # the field and parameter of the `norm` job
    "dihedral:8": ("dihedral:8", 8, [Fraction(1, 8)]),
}


@functools.lru_cache(maxsize=None)
def property_algebra(name):
    return make_algebra(*PROPERTY_ALGEBRAS[name])


@st.composite
def pbw_elements(draw, alg, max_exponent, max_terms):
    """A sum of 1 to max_terms PBW monomials with small exponents and nonzero
    coefficients in the algebra's field; over Q(zeta_l) rational and
    cyclotomic coefficients mix, with denominators 1 to 4 and 1 to 3."""
    ell = alg.field_ell
    exponents = st.tuples(*[st.integers(0, max_exponent)] * alg.dim)
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
    if ell > 1:
        d = euler_phi(ell)
        coeffs |= st.builds(
            Scalar.from_coords,
            st.just(ell),
            st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any),
            st.integers(1, 3),
        )
    terms = st.tuples(exponents, st.integers(0, len(alg.group) - 1), exponents, coeffs)
    out = alg.zero()
    for i, g, j, coeff in draw(st.lists(terms, min_size=1, max_size=max_terms)):
        out = out + alg.monomial(i, g, j, coeff)
    return out


class TestProperties:
    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_multiplication_is_associative(self, name, data):
        alg = property_algebra(name)
        a, b, c = (data.draw(pbw_elements(alg, 1, 2)) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(data=st.data())
    def test_powers_are_left_and_right_nested_products(self, name, data):
        # a power picks a side per factor; both nestings give the same terms
        alg = property_algebra(name)
        a = data.draw(pbw_elements(alg, 1, 3).filter(lambda el: len(el.terms) > 1))
        k = data.draw(st.integers(2, 5))
        left = right = a
        for _ in range(k - 1):
            left, right = left * a, a * right
        assert (a**k).terms == left.terms == right.terms

    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_format_then_parse_is_identity(self, name, data):
        alg = property_algebra(name)
        a = data.draw(pbw_elements(alg, 2, 3))
        assert alg.parse_element(alg.format_element(a)) == a


def test_monomials_enumeration():
    degs = list(monomials(3, 2))
    assert len(degs) == 6
    assert all(sum(d) == 2 for d in degs)
    assert len(set(degs)) == 6


def _y_free_part_by_terms(alg, content, mono):
    """Oracle: {(M, h): coef} for the B = 0 terms x^M h of
    sum coef * x^I g y^J * x^mono over the (term, coef) pairs of content,
    multiplied by the term loop `_multiply_by_terms`."""
    element = PBWElement(alg, dict(content))
    product = _multiply_by_terms(alg, element, alg.monomial(mono, 0, alg._zero_deg))
    return {(A, h): coef for (A, h, B), coef in product.terms.items() if not any(B)}


def _cancelling_contents(oracle, terms, rng, mono, count):
    """Two-term contents {(t1, c1), (t2, c2)} of one degree shift whose
    images on x^mono meet at an entry, with c2 chosen so that entry cancels;
    returns (content, cancelled (M, h)) pairs."""
    def shift(term):
        return sum(term[0]) - sum(term[2])

    out = []
    for t1 in terms:
        for t2 in terms:
            if len(out) == count or t1 >= t2 or shift(t1) != shift(t2):
                continue
            one = _y_free_part_by_terms(oracle, {(t1, ONE)}, mono)
            two = _y_free_part_by_terms(oracle, {(t2, ONE)}, mono)
            common = sorted(set(one) & set(two))
            if common:
                c1 = Scalar.rational(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
                key = common[0]
                c2 = -c1 * one[key] / two[key]
                out.append((frozenset({(t1, c1), (t2, c2)}), key))
    return out


@pytest.mark.parametrize(
    "spec,ell,c", [("s3", 1, Fraction(1, 2)), ("dihedral:5", 5, Fraction(1, 5))]
)
def test_verma_monomial_action_is_the_y_free_part_of_the_product(spec, ell, c):
    # x^I g y^J acts on x^mono (x) w by the B = 0 terms of x^I g y^J * x^mono;
    # the tables are read on a cold algebra and the oracle multiplies on
    # another one by the term loop, with no pair image
    alg, oracle = make_algebra(spec, ell, [c]), make_algebra(spec, ell, [c])
    rng = random.Random(13)
    terms = list(oracle.euler_element().terms)
    for _ in range(8):
        ideg = _random_multideg(rng, alg.dim, rng.randint(0, 2))
        jdeg = _random_multideg(rng, alg.dim, rng.randint(0, 2))
        terms.append((ideg, rng.randrange(1, len(alg.group)), jdeg))
    for degree in range(8):
        assert alg.monomial_table(degree)[0] == list(monomials(alg.dim, degree))
    cancelling = _cancelling_contents(oracle, terms, rng, (1, 1), 6)
    assert len(cancelling) == 6
    contents = [frozenset({(term, ONE)}) for term in terms]
    contents += [content for content, _ in cancelling]
    for content in contents:
        (ideg, _, jdeg), _ = next(iter(content))
        image_of = alg.act_on_verma_terms(content)
        for degree in range(6):
            target = degree + sum(ideg) - sum(jdeg)
            level = list(monomials(alg.dim, target)) if target >= 0 else []
            for mono in monomials(alg.dim, degree):
                image = image_of(mono)
                got = {}
                for t in range(0, len(image), 3):
                    pos, h, coef = image[t : t + 3]
                    assert coef and (level[pos], h) not in got
                    got[(level[pos], h)] = coef
                assert got == _y_free_part_by_terms(oracle, content, mono), (content, mono)
                assert image_of(mono) is image
    for content, key in cancelling:
        image = alg.act_on_verma_terms(content)((1, 1))
        level = alg.monomial_table(2)[0]
        assert key not in {(level[image[t]], image[t + 1]) for t in range(0, len(image), 3)}
    assert alg._pair_cache == {}


def test_lowering_past_the_degree_gives_the_empty_image():
    # y^J kills x^mono (x) w when |J| > |mono|, so the image is read off
    # before any straightening or pair image
    alg = make_algebra("s3", 1, [Fraction(1, 2)])
    image_of = alg.act_on_verma_terms(frozenset({(((1, 0), 2, (2, 1)), ONE)}))
    for degree in range(3):
        for mono in monomials(alg.dim, degree):
            assert image_of(mono) == ()
    assert alg._ji_cache == {} and alg._pair_cache == {}


def monomial_trace(alg, g, degree):
    """Oracle: the trace of g on the degree slice of A, monomial by monomial,
    as the diagonal coefficient of g . x^m for each monomial m."""
    return sum(
        (alg.act_on_x_monomial(g, m).get(m, ZERO) for m in monomials(alg.dim, degree)),
        ZERO,
    )


BUILTIN_FAMILIES = (
    [(f"cyclic:{ell}", ell) for ell in range(1, 13)]
    + [(f"dihedral:{ell}", ell) for ell in range(3, 9)]
    + [("s3", 1), ("s4", 1)]
)


@pytest.mark.parametrize("spec,ell", BUILTIN_FAMILIES)
def test_molien_coefficients_match_monomial_traces(spec, ell):
    # the trace of g on degree n of a Verma slice is chi(g) times the Molien
    # coefficient h_n(g), the trace of g on the degree-n monomials
    alg = make_algebra(spec, ell, [Fraction(1, 3)])
    molien = [[monomial_trace(alg, g, n) for n in range(7)] for g in range(len(alg.group))]
    for irr in alg.irreps:
        slice_ = VermaSlice(alg, irr, 6)
        for g, h in enumerate(molien):
            assert [slice_.trace(g, n) for n in range(7)] == [
                irr.character[g] * hn for hn in h
            ], (irr.label, g)


@pytest.mark.parametrize("spec,ell", BUILTIN_FAMILIES)
def test_exterior_traces_invert_the_monomial_traces(spec, ell):
    # det(1 - t g|h*) = sum_k (-1)^k e_k t^k times the Molien series is 1,
    # and e_1 is the trace of g on h*
    alg = make_algebra(spec, ell, [Fraction(1, 3)])
    for g in range(len(alg.group)):
        e = _exterior_traces(alg.group, g)
        h = [monomial_trace(alg, g, n) for n in range(7)]
        assert len(e) == alg.dim + 1 and e[0] == 1 and e[1] == h[1]
        for n in range(1, 7):
            terms = (e[k] * h[n - k] * (-1) ** k for k in range(min(n, alg.dim) + 1))
            assert sum(terms, ZERO) == 0, (g, n)


@contextlib.contextmanager
def recursion_limit_near_current_depth(headroom=100):
    """Lower the recursion limit to the current stack depth plus headroom, so
    anything that recurses once per degree fails at a few hundred degrees."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestDeepDegrees:
    """The straightening tables are filled by a loop over degree, so elements
    of very high degree need no stack depth (the completions hold such
    elements).  For even n the reflection terms cancel on cyclic:2:
    y x^n = x^n y + n x^(n-1) and y^n x = x y^n + n y^(n-1)."""

    def test_lowering_past_a_deep_power(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        with recursion_limit_near_current_depth():
            product = alg.y(1) * alg.x(1, 1500)
        assert product == alg.element({((1499,), 0, (0,)): 1500, ((1500,), 0, (1,)): 1})

    def test_deep_power_past_raising(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        with recursion_limit_near_current_depth():
            product = alg.y(1, 1200) * alg.x(1)
        assert product == alg.element({((0,), 0, (1199,)): 1200, ((1,), 0, (1200,)): 1})

    def test_group_action_on_a_deep_monomial(self):
        # on cyclic:7, g acts on x by M(g^-1) and on y by M(g)
        alg = make_algebra("cyclic:7", 7, [Fraction(1, 7)])
        g = 1
        with recursion_limit_near_current_depth():
            on_x = alg.act_on_x_monomial(g, (1500,))
            on_y = alg.act_on_y_monomial(g, (1500,))
        ex, ey = ONE, ONE
        for _ in range(1500):
            ex = ex * alg.group.matrices[alg.group.inv(g)][0][0]
            ey = ey * alg.group.matrices[g][0][0]
        assert ex != ONE
        assert on_x == {(1500,): ex} and on_y == {(1500,): ey}

    def test_deep_ws_decompose_job(self, tmp_path, capsys):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(
            "group = cyclic:2\nc = 1/2\nprime = 3\nlevel = 0\nelement = y1*x1^1500\n"
        )
        with recursion_limit_near_current_depth():
            code = main(["ws-decompose", "--config", str(cfg)])
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert code == 0
        assert rows == ["weight\texponent\tcomponent", "1499\t-1\t1500*x1^1499 + x1^1500*y1"]


def _all_multidegrees(n, top):
    return [d for k in range(top + 1) for d in monomials(n, k)]


@pytest.mark.parametrize(
    "spec,ell,c", [("s3", 1, Fraction(1, 2)), ("dihedral:5", 5, Fraction(1, 5))]
)
def test_straightening_cache_does_not_depend_on_fill_order(spec, ell, c):
    # every (J, I) with |J|, |I| <= 3, filled upward on one fresh algebra and
    # downward on another; each value is also the left-nested product
    # y_c1 * (y_c2 * (... * x^I)) of single generators
    up, down = make_algebra(spec, ell, [c]), make_algebra(spec, ell, [c])
    degs = _all_multidegrees(up.dim, 3)
    pairs = [(j, i) for j in degs for i in degs]  # increasing (|J|, |I|)
    filled = {p: up._straighten_ji(*p) for p in pairs}
    for p in reversed(pairs):
        down._straighten_ji(*p)
    zero = up._zero_deg
    for (jdeg, ideg), value in filled.items():
        assert down._straighten_ji(jdeg, ideg) == value, (jdeg, ideg)
        nested = up.monomial(ideg, 0, zero)
        for c_idx in reversed([k for k, e in enumerate(jdeg) for _ in range(e)]):
            nested = up.y(c_idx + 1) * nested
        assert up.element(value) == nested, (jdeg, ideg)


def _multiply_by_terms(alg, a, b):
    """Oracle: the product by the triple loop, for every term pair, over the
    terms of y^J1 x^I2, the action of g1 on x^A and of g2^-1 on y^B, with no
    pair image."""
    table = alg.group.mult_table
    out = {}
    for (i1, g1, j1), c1 in a.terms.items():
        for (i2, g2, j2), c2 in b.terms.items():
            base = c1 * c2
            g2inv = alg.group.inv(g2)
            for (A, h, B), coef in alg._straighten_ji(j1, i2).items():
                mid = base * coef
                for A2, ca in alg.act_on_x_monomial(g1, A).items():
                    gh = table[g1][h]
                    lead = mid * ca
                    for B2, cb in alg.act_on_y_monomial(g2inv, B).items():
                        key = (_add_deg(i1, A2), table[gh][g2], _add_deg(B2, j2))
                        _accumulate(out, key, lead * cb)
    return PBWElement(alg, _settle(out))


def _norm_job_algebra():
    return make_algebra("dihedral:8", 8, [Fraction(1, 8)])


def _norm_job_base(alg, coefficient="-1"):
    return alg.parse_element(f"({coefficient})*x1 + y2 + x2 + g5")


def _decoded_image(flat) -> dict:
    """{(A, k, B): Scalar} of a stored pair image (ell, E, A, k, B, n, ...):
    each numerator n over E turned back into a Scalar."""
    ell, den = flat[:2]
    return {
        tuple(flat[t : t + 3]): Scalar.from_coords(ell, (n,) if type(n) is int else n, den)
        for t, n in zip(range(2, len(flat), 4), flat[5::4])
    }


def _assert_canonical(el):
    # every coefficient is nonzero and survives Scalar._make unchanged, so a
    # rational one carries ell = 1
    for coef in el.terms.values():
        made = Scalar._make(coef.ell, list(coef.coeffs), coef.den)
        assert coef and type(coef.coeffs) is tuple
        assert (coef.ell, coef.coeffs, coef.den) == (made.ell, made.coeffs, made.den)


class TestPairImages:
    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_product_equals_the_term_loop(self, name, data):
        alg = property_algebra(name)
        a, b = data.draw(pbw_elements(alg, 2, 3)), data.draw(pbw_elements(alg, 2, 3))
        product = alg.multiply(a, b)
        assert product == _multiply_by_terms(alg, a, b)
        _assert_canonical(product)

    def test_norm_job_powers_equal_the_term_loop(self):
        # the coefficient z puts an irrational numerator on the base of
        # every term pair whose left factor carries x1
        alg = _norm_job_algebra()
        for coefficient in ("-1", "z"):
            base = _norm_job_base(alg, coefficient)
            power = alg.one()
            for k in range(1, 5):
                expected = _multiply_by_terms(alg, power, base)
                power = alg.multiply(power, base)
                assert power == expected, (coefficient, k)
                assert power == base**k, (coefficient, k)

    def test_warm_order_does_not_change_products(self):
        # one algebra multiplies a list of pairs in order on cold caches, the
        # other has already multiplied the same list in reverse
        fresh, warmed = _norm_job_algebra(), _norm_job_algebra()
        rng = random.Random(21)
        base = _norm_job_base(fresh)
        pairs = [(random_element(fresh, rng, 3, 3), random_element(fresh, rng, 3, 3)) for _ in range(8)]
        pairs += [(base**k, base) for k in range(1, 4)]
        moved = [(warmed.element(dict(a.terms)), warmed.element(dict(b.terms))) for a, b in pairs]
        for a, b in reversed(moved):
            warmed.multiply(a, b)
        for (a, b), (a2, b2) in zip(pairs, moved):
            assert fresh.multiply(a, b).terms == warmed.multiply(a2, b2).terms

    def test_repeated_product_adds_no_pair_image(self):
        alg = _norm_job_algebra()
        base = _norm_job_base(alg)
        a = base**3
        first = alg.multiply(a, base)
        entries = dict(alg._pair_cache)
        assert entries
        assert alg.multiply(a, base) == first
        assert alg._pair_cache.keys() == entries.keys()
        assert all(alg._pair_cache[k] is v for k, v in entries.items())
        zero = alg._zero_deg
        for (g1, j1, i2, g2), flat in entries.items():
            expected = _multiply_by_terms(alg, alg.monomial(zero, g1, j1), alg.monomial(i2, g2, zero))
            assert _decoded_image(flat) == expected.terms

    def test_pair_image_is_the_merged_product(self):
        # g1 * y^J1 * x^I2 * g2 as one entry per (A, k, B), none of them zero,
        # each an int numerator (a tuple of phi(l) ints for an irrational
        # value) over the lcm E of the coefficients' denominators
        for name, last in (("s3", (5, 2)), ("dihedral:5", (7, 2))):
            alg = property_algebra(name)
            zero = alg._zero_deg
            cases = [(g1, g2, j1, i2) for g1, g2 in ((0, 0), (1, 3), last)
                     for j1, i2 in (((0, 0), (1, 2)), ((2, 1), (1, 1)), ((1, 0), (0, 0)))]
            for g1, g2, j1, i2 in cases:
                flat = alg._pair_image(g1, j1, i2, g2)
                ell, den = flat[:2]
                assert len(flat) % 4 == 2
                keys = [flat[t : t + 3] for t in range(2, len(flat), 4)]
                assert len(set(keys)) == len(keys)
                for n in flat[5::4]:
                    assert type(n) is int or (ell > 1 and len(n) == euler_phi(ell))
                decoded = _decoded_image(flat)
                assert all(decoded.values())
                assert den == math.lcm(*(c.den for c in decoded.values()))
                assert ell == max((c.ell for c in decoded.values()), default=1)
                expected = _multiply_by_terms(
                    alg, alg.monomial(zero, g1, j1), alg.monomial(i2, g2, zero)
                )
                assert decoded == expected.terms


class TestMultiplyKernel:
    """`multiply` sums int numerators over one common denominator and makes
    one canonical Scalar per output term."""

    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    def test_products_that_cancel_to_zero(self, name):
        # s^2 = 1 for a reflection s, so (u + u s)(1 - s) = 0, and
        # (x1 + x1 s) u (y1 - s y1) = 0 cancels at keys shifted by I1 and J2
        alg = property_algebra(name)
        one, s = alg.one(), alg.g(alg.reflections[0].index)
        u = Scalar.zeta(alg.field_ell) / 3 if alg.field_ell > 1 else Scalar.rational(Fraction(2, 3))
        assert alg.multiply((one + s) * u, one - s) == alg.zero()
        x1s = alg.x(1) + alg.multiply(alg.x(1), s)
        y1s = alg.y(1) - alg.multiply(s, alg.y(1))
        assert alg.multiply(x1s * u, y1s) == alg.zero() == _multiply_by_terms(alg, x1s * u, y1s)

    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    def test_zero_and_scalar_factors(self, name):
        alg = property_algebra(name)
        a = random_element(alg, random.Random(5), 2, 4)
        assert alg.multiply(alg.zero(), a) == alg.zero() == alg.multiply(a, alg.zero())
        assert alg.multiply(alg.zero(), alg.zero()) == alg.zero()
        values = [Fraction(-3, 4), 5]
        if alg.field_ell > 1:
            values.append(Scalar.from_coords(alg.field_ell, [1, -2], 3))
        for value in values:
            coef = Scalar.rational(value)
            scaled = PBWElement(alg, {k: v * coef for k, v in a.terms.items()})
            for product in (alg.multiply(alg.scalar(1) * coef, a), alg.multiply(a, alg.scalar(1) * coef)):
                assert product == scaled
                _assert_canonical(product)

    def test_a_rational_sum_of_irrational_summands_is_rational(self):
        # z * s + (-z) * s meets at one key; (z + 1) * 1 - z leaves 1 over Q
        alg = property_algebra("dihedral:8")
        z = Scalar.zeta(8)
        a = alg.one() * z + alg.g(3)
        product = alg.multiply(a, alg.one() - alg.one() * (z * Scalar.zeta(8, 7)) + alg.g(3))
        expected = _multiply_by_terms(alg, a, alg.one() - alg.one() * (z * Scalar.zeta(8, 7)) + alg.g(3))
        assert product == expected
        _assert_canonical(product)
        product = alg.multiply(alg.one() * (z + 1), alg.one()) - alg.one() * z
        assert product == alg.one() and product.terms[(alg._zero_deg, 0, alg._zero_deg)].ell == 1

    def test_two_cyclotomic_fields_raise(self):
        # the entry points refuse a Q(zeta_5) coefficient on this algebra
        # (TestCoefficientField), so the operand is built from its terms to
        # reach multiply's own check
        alg = property_algebra("dihedral:8")
        zero, x1 = alg._zero_deg, (1, 0)
        z5 = PBWElement(alg, {(zero, 0, zero): Scalar.zeta(5)})
        # a Q(zeta_5) coefficient against the Q(zeta_8) image of g * x1
        g = next(g for g in range(len(alg.group)) if alg._pair_image(g, zero, x1, 0)[0] == 8)
        with pytest.raises(FieldMismatch):
            alg.multiply(z5 * alg.g(g), alg.x(1))
        # and against a Q(zeta_8) coefficient, over a rational image
        with pytest.raises(FieldMismatch):
            alg.multiply(z5, alg.one() * Scalar.zeta(8))

    @pytest.mark.parametrize("ell", [1, 8])
    def test_a_repeated_coefficient_is_made_once(self, ell):
        # x^I * g = x^I g with nothing to straighten, so every output term of
        # (sum of x^I) * (sum of g) carries the one coefficient u * v
        alg = property_algebra("s3" if ell == 1 else "dihedral:8")
        u = Scalar.zeta(ell) / 3 if ell > 1 else Scalar.rational(Fraction(2, 3))
        v = Scalar.rational(Fraction(-3, 4))
        xs = sum((alg.monomial(i, 0, alg._zero_deg) for i in monomials(alg.dim, 2)), alg.x(1))
        gs = sum((alg.g(g) for g in range(1, len(alg.group))), alg.zero())
        a, b = xs * u, gs * v
        product = alg.multiply(a, b)
        assert product == _multiply_by_terms(alg, a, b)
        _assert_canonical(product)
        coefs = list(product.terms.values())
        assert len(coefs) == len(a.terms) * len(b.terms) > 10
        assert coefs[0] == u * v and all(c is coefs[0] for c in coefs)
        # a second, cancelling summand gives two distinct values and a zero
        mixed = alg.multiply(a + alg.x(1) * (u - ONE), b - alg.g(1) * v)
        assert mixed == _multiply_by_terms(alg, a + alg.x(1) * (u - ONE), b - alg.g(1) * v)
        _assert_canonical(mixed)
        assert len({id(c) for c in mixed.terms.values()}) == 2

    @pytest.mark.parametrize("ell", [1, 8])
    def test_a_repeated_coefficient_at_the_bit_limit(self, ell):
        # every output term shares one denominator of exactly MAX_COEFF_BITS
        # bits, which passes; one more bit raises, and so at a numerator
        alg = property_algebra("s3" if ell == 1 else "dihedral:8")
        u = Scalar.zeta(ell) if ell > 1 else ONE
        half = MAX_COEFF_BITS // 2
        xs = alg.x(1) + alg.x(2) + alg.x(1, 2)
        gs = sum((alg.g(g) for g in range(1, len(alg.group))), alg.zero())
        a = xs * (u * Fraction(1, 2**half))
        fine = gs * Fraction(1, 2 ** (MAX_COEFF_BITS - 1 - half))
        product = alg.multiply(a, fine)
        assert len(product.terms) == 3 * (len(alg.group) - 1)
        assert {c.den.bit_length() for c in product.terms.values()} == {MAX_COEFF_BITS}
        with pytest.raises(CoefficientBlowup, match="MAX_COEFF_BITS = 1000000"):
            alg.multiply(a, fine * Fraction(1, 2))
        # the first distinct coefficient, from the leading 1, is far inside
        # the limit; every later one is checked too
        assert len({id(c) for c in alg.multiply(alg.one() + a, fine).terms.values()}) == 2
        with pytest.raises(CoefficientBlowup):
            alg.multiply(alg.one() + a, fine * Fraction(1, 2))
        big = gs * 2 ** (MAX_COEFF_BITS - 1 - half)
        product = alg.multiply(xs * (u * 2**half), big)
        assert {max(c.bit_length() for c in coef.coeffs) for coef in product.terms.values()} == {
            MAX_COEFF_BITS
        }
        with pytest.raises(CoefficientBlowup):
            alg.multiply(xs * (u * 2**half), big * 2)

    @pytest.mark.parametrize("ell", [1, 8])
    def test_guard_at_the_bit_limit(self, ell):
        # a denominator of exactly MAX_COEFF_BITS bits passes, one more bit
        # raises; the two factors' denominators multiply into it
        alg = property_algebra("s3" if ell == 1 else "dihedral:8")
        u = Scalar.zeta(ell) if ell > 1 else ONE
        half = MAX_COEFF_BITS // 2
        a = alg.one() * (u * Fraction(1, 2**half))
        fine = alg.x(1) * Fraction(1, 2 ** (MAX_COEFF_BITS - 1 - half))
        product = alg.multiply(a, fine)
        ((_, coef),) = product.terms.items()
        assert coef.den.bit_length() == MAX_COEFF_BITS
        with pytest.raises(CoefficientBlowup, match="MAX_COEFF_BITS = 1000000"):
            alg.multiply(a, fine * Fraction(1, 2))
        # and the same at a numerator
        big = alg.x(1) * 2 ** (MAX_COEFF_BITS - 1 - half)
        ((_, coef),) = alg.multiply(alg.one() * (u * 2**half), big).terms.items()
        assert max(c.bit_length() for c in coef.coeffs) == MAX_COEFF_BITS
        with pytest.raises(CoefficientBlowup):
            alg.multiply(alg.one() * (u * 2**half), big * 2)


class TestCoefficientField:
    """A coefficient enters an element only over Q or the algebra's own
    Q(zeta_field_ell); each entry point raises FieldMismatch for another
    cyclotomic field, before any product meets it."""

    ENTRY_POINTS = {
        "element": lambda alg, u: alg.element({(alg._zero_deg, 1, alg._zero_deg): u}),
        "monomial": lambda alg, u: alg.monomial(alg._zero_deg, 1, alg._zero_deg, u),
        "add": lambda alg, u: alg.g(1) + u,
        "radd": lambda alg, u: u + alg.g(1),
        "sub": lambda alg, u: alg.g(1) - u,
        "rsub": lambda alg, u: u - alg.g(1),
        "mul": lambda alg, u: alg.g(1) * u,
        "rmul": lambda alg, u: u * alg.g(1),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "name,foreign", [("dihedral:8", 5), ("dihedral:8", 3), ("dihedral:5", 8), ("s3", 5)]
    )
    def test_another_cyclotomic_field_is_refused(self, entry, name, foreign):
        alg = property_algebra(name)
        field = f"Q(zeta_{alg.field_ell})" if alg.field_ell > 1 else "Q"
        message = f"a Q(zeta_{foreign}) coefficient in an algebra over {field}"
        with pytest.raises(FieldMismatch, match=re.escape(message)):
            self.ENTRY_POINTS[entry](alg, Scalar.zeta(foreign))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("name", sorted(PROPERTY_ALGEBRAS))
    def test_the_algebras_field_and_q_are_taken(self, entry, name):
        alg = property_algebra(name)
        zero = alg._zero_deg
        values = [Scalar.rational(Fraction(3, 2)), Scalar.zeta(2)]
        if alg.field_ell > 1:
            values.append(Scalar.zeta(alg.field_ell, 3) / 7)
        for u in values:
            out = self.ENTRY_POINTS[entry](alg, u)
            if entry in ("add", "radd", "sub", "rsub"):
                sign = -1 if entry == "sub" else 1
                g_sign = -1 if entry == "rsub" else 1
                expected = {(zero, 0, zero): u * sign, (zero, 1, zero): ONE * g_sign}
            else:
                expected = {(zero, 1, zero): u}
            assert out.terms == expected

    def test_a_mixed_sum_no_longer_builds(self):
        # the sum used to print z + z*g3, two fields under one z
        alg = property_algebra("dihedral:8")
        with pytest.raises(FieldMismatch):
            alg.one() * Scalar.zeta(5) + alg.g(3) * Scalar.zeta(8)
        assert str(alg.one() * Scalar.zeta(8) + alg.g(3) * Scalar.zeta(8)) == "z + z*g3"


def test_chain_keys_each_degree_once_and_starts_only_at_zero():
    keys, starts = [], []

    def key(deg):
        keys.append(deg)
        return deg

    def start():
        starts.append(1)
        return 0

    def step(prev, b, below):
        return prev + 1

    cache = {}
    # (2, 1) -> (1, 1) -> (0, 1) -> (0, 0): the value is the total degree
    assert _chain(cache, key, (2, 1), start, step) == 3
    assert keys == [(2, 1), (1, 1), (0, 1), (0, 0)] and starts == [1]
    assert cache == {(2, 1): 3, (1, 1): 2, (0, 1): 1, (0, 0): 0}
    # (3, 1) stops at the cached (2, 1) and never builds the start value
    keys.clear()
    assert _chain(cache, key, (3, 1), start, step) == 4
    assert keys == [(3, 1), (2, 1)] and starts == [1]
