"""Exact scalar arithmetic, cyclotomic reduction, and p-adic valuations."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from cherednik.scalars import (
    DivisionByZero,
    ExprError,
    FieldMismatch,
    INF,
    PadicContext,
    Scalar,
    SplittingError,
    cyclotomic_polynomial,
    euler_phi,
    hensel_embed,
    parse_scalar,
    val,
)


def brute_roots(ell, p, N):
    """Independent oracle: exhaustive search for cyclotomic roots mod p**N."""
    phi = cyclotomic_polynomial(ell)
    mod = p**N
    return [
        r
        for r in range(mod)
        if sum(c * pow(r, i, mod) for i, c in enumerate(phi)) % mod == 0
    ]


class TestHenselEmbed:
    def test_square_root_of_one_mod_125(self):
        # -1 is the only primitive square root of 1
        assert hensel_embed(2, 5, 3) == 124

    def test_fourth_root_mod_25_matches_exhaustive_search(self):
        roots = brute_roots(4, 5, 2)
        r = hensel_embed(4, 5, 2)
        assert r in roots
        assert r == 7  # lift of the smallest root mod 5
        assert (r * r + 1) % 25 == 0

    def test_cube_root_mod_7_matches_exhaustive_search(self):
        roots = brute_roots(3, 7, 1)
        r = hensel_embed(3, 7, 1)
        assert r in roots
        assert r == min(roots) == 2

    def test_lift_is_consistent_across_precisions(self):
        # the lift at precision N reduces to the lift at lower precision
        low = hensel_embed(12, 13, 2)
        high = hensel_embed(12, 13, 8)
        assert high % 13**2 == low

    def test_splitting_condition_enforced(self):
        with pytest.raises(SplittingError):
            hensel_embed(4, 7, 3)
        with pytest.raises(SplittingError):
            hensel_embed(2, 2, 1)

    @pytest.mark.parametrize(
        "ell,p", [(2, 5), (3, 7), (4, 5), (6, 7), (8, 17), (12, 13)]
    )
    def test_hensel_consistency(self, ell, p):
        # the embedded image of the cyclotomic polynomial vanishes mod p**N
        N = 16
        r = hensel_embed(ell, p, N)
        phi = cyclotomic_polynomial(ell)
        assert sum(c * pow(r, i, p**N) for i, c in enumerate(phi)) % p**N == 0


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize("ell", list(range(1, 17)))
    def test_matches_sympy(self, ell):
        ours = cyclotomic_polynomial(ell)
        x = sympy.Symbol("x")
        theirs = sympy.Poly(sympy.cyclotomic_poly(ell, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]

    def test_degree_is_euler_phi(self):
        assert euler_phi(12) == 4
        assert euler_phi(8) == 4
        assert euler_phi(5) == 4


class TestFieldArithmetic:
    def test_rational_addition(self):
        assert Scalar.rational(Fraction(1, 2)) + Scalar.rational(Fraction(1, 3)) == Scalar.rational(Fraction(5, 6))

    def test_root_of_unity_order(self):
        z3 = Scalar.zeta(3)
        assert z3 * z3**2 == Scalar.rational(1)

    def test_inverse_of_zeta4(self):
        z4 = Scalar.zeta(4)
        assert z4.inverse() == -z4

    def test_inverse_of_zero_raises(self):
        with pytest.raises(DivisionByZero):
            Scalar.rational(0).inverse()

    def test_mixed_field_coercion(self):
        z4 = Scalar.zeta(4)
        assert (z4 + 1) - z4 == Scalar.rational(1)
        with pytest.raises(FieldMismatch):
            Scalar.zeta(3) + Scalar.zeta(4)

    def test_rational_values_demote(self):
        # zeta_4 squared is -1, a rational: the descriptor follows the value
        z4 = Scalar.zeta(4)
        sq = z4 * z4
        assert sq.is_rational and sq.as_fraction() == -1

    def test_field_axioms_on_random_sample(self):
        rng = random.Random(11)

        def rand(ell):
            d = euler_phi(ell)
            return Scalar.from_coords(
                ell,
                [rng.randint(-9, 9) for _ in range(d)],
                rng.randint(1, 9),
            )

        for ell in (1, 4, 5, 8):
            for _ in range(60):
                a, b, c = rand(ell), rand(ell), rand(ell)
                assert a * (b + c) == a * b + a * c
                assert (a + b) + c == a + (b + c)
                assert a * b == b * a
                if a:
                    assert a * a.inverse() == Scalar.rational(1)

    def test_cyclotomic_products_match_sympy(self):
        rng = random.Random(23)
        for ell in (3, 4, 5, 8):
            d = euler_phi(ell)
            x = sympy.Symbol("x")
            phi = sympy.Poly(sympy.cyclotomic_poly(ell, x), x)
            for _ in range(20):
                ac = [rng.randint(-6, 6) for _ in range(d)]
                bc = [rng.randint(-6, 6) for _ in range(d)]
                ours = Scalar.from_coords(ell, ac) * Scalar.from_coords(ell, bc)
                prod = (sympy.Poly(ac[::-1], x) * sympy.Poly(bc[::-1], x)) % phi
                coeffs = [int(c) for c in prod.all_coeffs()[::-1]]
                coeffs += [0] * (d - len(coeffs))
                assert ours == Scalar.from_coords(ell, coeffs)


class TestCanonicalForm:
    def test_canonicalization_is_idempotent(self):
        rng = random.Random(5)
        for ell in (1, 3, 8):
            d = euler_phi(ell)
            for _ in range(100):
                x = Scalar.from_coords(
                    ell,
                    [rng.randint(-20, 20) * rng.choice((1, 2, 6)) for _ in range(d)],
                    rng.randint(1, 40),
                )
                again = Scalar.from_coords(x.ell, list(x.coeffs), x.den)
                assert again == x
                assert again.den == x.den and again.coeffs == x.coeffs

    def test_reduced_form(self):
        x = Scalar.from_coords(1, [4], 6)
        assert x.coeffs == (2,) and x.den == 3
        y = Scalar.from_coords(1, [3], -6)
        assert y.coeffs == (-1,) and y.den == 2
        assert math.gcd(*(abs(c) for c in y.coeffs), y.den) == 1

    def test_equality_is_canonical_form_equality(self):
        assert Scalar.from_coords(1, [2], 4) == Scalar.rational(Fraction(1, 2))
        assert hash(Scalar.from_coords(1, [2], 4)) == hash(Scalar.rational(Fraction(1, 2)))
        for plain in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
            x = Scalar.rational(plain)
            assert x == plain and hash(x) == hash(plain)
            assert {x: "v"}.get(plain) == "v"


class TestValuation:
    def test_val_of_zero_is_infinite(self):
        ctx = PadicContext(5, 8)
        v = val(Scalar.rational(0), ctx)
        assert v.value == INF and v.exact

    def test_val_of_prime_power_ratio(self):
        ctx = PadicContext(7, 8)
        v = val(Scalar.rational(Fraction(7**3, 2)), ctx)
        assert v.value == 3 and v.exact

    def test_val_of_zeta4_minus_two(self):
        ctx = PadicContext(5, 2, ell=4)
        assert ctx.root == 7
        v = val(Scalar.zeta(4) - 2, ctx)
        assert v.value == 1 and v.exact

    def test_precision_exhaustion_is_flagged(self):
        # zeta_4 - 7 maps to 0 mod 25: the valuation is only a lower bound
        ctx = PadicContext(5, 2, ell=4)
        v = val(Scalar.zeta(4) - 7, ctx)
        assert not v.exact
        assert v.value == 2

    def test_ultrametric_inequality_random(self):
        rng = random.Random(97)
        ctx_q = PadicContext(5, 32)
        ctx_z4 = PadicContext(5, 32, ell=4)

        def rand_rational():
            return Scalar.rational(
                Fraction(rng.randint(-50, 50) * 5 ** rng.randint(0, 3), rng.randint(1, 50))
            )

        def rand_cyclo():
            return Scalar.from_coords(
                4,
                [rng.randint(-20, 20) * 5 ** rng.randint(0, 2) for _ in range(2)],
                rng.randint(1, 20),
            )

        checked = 0
        for ctx, rand in ((ctx_q, rand_rational), (ctx_z4, rand_cyclo)):
            for _ in range(500):
                x, y = rand(), rand()
                vx, vy, vs = val(x, ctx), val(y, ctx), val(x + y, ctx)
                if not (vx.exact and vy.exact and vs.exact):
                    continue
                assert vs.value >= min(vx.value, vy.value)
                if vx.value != vy.value:
                    assert vs.value == min(vx.value, vy.value)
                checked += 1
        assert checked >= 900

    def test_multiplicativity_when_exact(self):
        rng = random.Random(13)
        ctx = PadicContext(5, 32, ell=4)
        for _ in range(300):
            x = Scalar.from_coords(4, [rng.randint(-9, 9), rng.randint(-9, 9)], rng.randint(1, 9))
            y = Scalar.from_coords(4, [rng.randint(-9, 9), rng.randint(-9, 9)], rng.randint(1, 9))
            if not (x and y):
                continue
            vx, vy, vp = val(x, ctx), val(y, ctx), val(x * y, ctx)
            if vx.exact and vy.exact and vp.exact:
                assert vp.value == vx.value + vy.value

    def test_context_validates_inputs(self):
        with pytest.raises(ValueError):
            PadicContext(6, 4)
        with pytest.raises(ValueError):
            PadicContext(5, 0)
        with pytest.raises(SplittingError):
            PadicContext(7, 4, ell=4)


class TestScalarExpressions:
    def test_parse_rationals(self):
        assert parse_scalar("-3/2") == Scalar.rational(Fraction(-3, 2))
        assert parse_scalar("7") == Scalar.rational(7)

    def test_parse_cyclotomic(self):
        assert parse_scalar("(1 + 2*z^2)/5", 8) == Scalar.from_coords(8, [1, 0, 2, 0], 5)
        assert parse_scalar("z^-1", 4) == -Scalar.zeta(4)

    def test_str_round_trip(self):
        rng = random.Random(3)
        for ell in (1, 4, 8):
            d = euler_phi(ell)
            for _ in range(50):
                x = Scalar.from_coords(
                    ell, [rng.randint(-9, 9) for _ in range(d)], rng.randint(1, 9)
                )
                assert parse_scalar(str(x), ell) == x

    def test_rejects_garbage(self):
        with pytest.raises(ExprError):
            parse_scalar("z", 1)
        for text in ("1 +", "2*", "-", "1/"):
            with pytest.raises(ExprError, match="scalar expression ended where an operand"):
                parse_scalar(text, 1)
        with pytest.raises(ExprError):
            parse_scalar("q3", 1)
        with pytest.raises(ExprError):
            parse_scalar("", 1)
