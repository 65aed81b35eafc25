"""Exact scalar arithmetic, cyclotomic reduction, and p-adic valuations."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cherednik.scalars import (
    MAX_COEFF_BITS,
    MAX_MODULUS_BITS,
    CoefficientBlowup,
    DivisionByZero,
    ExprError,
    FieldMismatch,
    INF,
    MAX_NESTING,
    ModulusTooLarge,
    ONE,
    PadicContext,
    PrimalityUncertified,
    Scalar,
    ZERO,
    SplittingError,
    Valuation,
    check_coeff_bits,
    cyclotomic_polynomial,
    euler_phi,
    hensel_embed,
    is_prime,
    least_cyclotomic_root,
    parse_scalar,
    val,
)
from cherednik.scalars import _PSI_13 as PSI_13, _accumulate, _product_table, _settle
from helpers import cli_job


def brute_roots(ell, p, N):
    """Independent oracle: exhaustive search for cyclotomic roots mod p**N."""
    phi = cyclotomic_polynomial(ell)
    mod = p**N
    return [
        r
        for r in range(mod)
        if sum(c * pow(r, i, mod) for i, c in enumerate(phi)) % mod == 0
    ]


def poly_at(coeffs, r, mod):
    return sum(c * pow(r, i, mod) for i, c in enumerate(coeffs)) % mod


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

    def test_modulus_bound(self):
        # 2**65535 has MAX_MODULUS_BITS bits, 2**65536 one more; the refusal
        # comes before the lift, so a precision of 10^11 costs nothing
        assert MAX_MODULUS_BITS == 65_536
        assert hensel_embed(1, 2, 65_535) == 1
        for ell, p, precision in ((1, 2, 65_536), (5, 11, 100_000), (1, 3, 10**11)):
            with pytest.raises(ModulusTooLarge, match="MAX_MODULUS_BITS = 65536"):
                hensel_embed(ell, p, precision)
        # 11**18944 has 65536 bits, 11**18945 has 65539
        assert PadicContext(11, 18_944, 5).modulus.bit_length() == 65_536
        with pytest.raises(ModulusTooLarge):
            PadicContext(11, 18_945, 5)

    @pytest.mark.parametrize("precision", [100_000, 10**11])
    def test_a_huge_precision_exits_3_at_once(self, tmp_path, precision):
        # precision 10^5 over Q(zeta_5) took 14.7 s to lift, and 10^11 over
        # Q did not end; both are refused before the lift.  A fresh process,
        # stopped after 2 s.
        field = "field = cyclotomic:5\n" if precision == 100_000 else ""
        config = (
            f"group = cyclic:2\n{field}c = 1/2\nprime = 11\nprecision = {precision}\n"
            "level = 0\nelement = x1\n"
        )
        done = cli_job(tmp_path, "norm", config, timeout=2)
        assert done.returncode == 3
        assert "MAX_MODULUS_BITS = 65536" in done.stderr

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

    @pytest.mark.parametrize("ell", range(1, 17))
    def test_least_root_is_the_first_root_by_scan(self, ell):
        phi = cyclotomic_polynomial(ell)
        for p in range(2, 1000):
            if sympy.isprime(p) and (p - 1) % ell == 0:
                scan = next(r for r in range(p) if poly_at(phi, r, p) == 0)
                assert least_cyclotomic_root(ell, p) == scan

    @pytest.mark.parametrize(
        "ell,p", [(5, 10_000_121), (5, 1_000_000_021), (7, 1_000_000_009), (12, 1_000_000_009)]
    )
    def test_large_prime_gives_the_least_root(self, ell, p):
        # a scan of 0..p-1 for the least root would take minutes at these primes
        N = 8
        r = hensel_embed(ell, p, N)
        phi = cyclotomic_polynomial(ell)
        assert poly_at(phi, r, p**N) == 0
        # Phi_ell has at most phi(ell) roots mod p, so phi(ell) distinct
        # roots are all of them
        roots = {pow(r, k, p) for k in range(ell) if math.gcd(k, ell) == 1}
        assert len(roots) == euler_phi(ell)
        assert all(poly_at(phi, x, p) == 0 for x in roots)
        assert r % p == min(roots)


class TestIsPrime:
    """Miller-Rabin on the first 13 primes decides every n below psi_13;
    trial division is the oracle."""

    def test_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(200_000) if is_prime(n) != trial(n)] == []

    @pytest.mark.parametrize(
        # psi_1, psi_4, psi_9 (= psi_11) and psi_12: the least strong
        # pseudoprimes to the first 1, 4, 9 and 12 prime bases; the last
        # passes bases 2..37, so only base 41 rejects it.  The Carmichael
        # number 211*421*631 is accepted by a check that stops at the first
        # 1 it squares to; only a square root of 1 other than -1 rejects it
        "n", [2047, 3215031751, 3825123056546413051, 318665857834031151167461, 56052361]
    )
    def test_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_accepts_a_mersenne_prime(self):
        assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)

    def test_lattice_check_at_a_large_prime_finishes(self, tmp_path):
        # trial division up to sqrt(2^61 - 1) does not finish within the timeout
        done = lattice_check_job(tmp_path, 2**61 - 1)
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("2\t3\tpass\t\n")

    def test_no_answer_at_or_above_psi_13_is_a_guess(self):
        # psi_13 is a strong pseudoprime to all 13 bases, and 2^89 - 1 a
        # prime that passes them too: neither is certified
        for n in (PSI_13, 2**89 - 1):
            with pytest.raises(PrimalityUncertified, match="certifies no prime"):
                is_prime(n)
        # a witness still proves a composite above psi_13 composite
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    @pytest.mark.parametrize(
        # the next prime above psi_13 passes every base and is not certified
        # (exit 3); twice it is even, so base 2 rejects it (exit 2)
        "prime, code", [(3317044064679887385962123, 3), (6634088129359774771924246, 2)]
    )
    def test_lattice_check_above_psi_13_ends_at_once(self, tmp_path, prime, code):
        start = time.monotonic()
        done = lattice_check_job(tmp_path, prime)
        assert done.returncode == code, done.stderr
        assert time.monotonic() - start < 3
        assert "Traceback" not in done.stderr
        assert ("not prime" if code == 2 else "certifies no prime") in done.stderr


def lattice_check_job(tmp_path, prime):
    """`cherednik lattice-check` on s3 at the prime, in a fresh process."""
    return cli_job(tmp_path, "lattice-check", f"group = s3\nc = 1/2\nprime = {prime}\nlevels = 0..2\n")


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


FIELDS = (1, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def examples(n):
    """Derandomized hypothesis settings: the same n examples on every run."""
    return settings(derandomize=True, deadline=None, max_examples=n)


@st.composite
def operands(draw, ell, kinds=("int", "fraction", "rational", "field")):
    """An int, a Fraction, a rational Scalar or a Scalar over Q(zeta_ell)."""
    kind = draw(st.sampled_from(kinds))
    n, d = draw(st.integers(-9, 9)), draw(st.integers(1, 9))
    if kind == "int":
        return n
    if kind == "fraction":
        return Fraction(n, d)
    if kind == "rational" or ell == 1:
        return Scalar.rational(Fraction(n, d))
    dim = euler_phi(ell)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))
    return Scalar.from_coords(ell, coeffs, draw(st.integers(-9, 9).filter(bool)))


def scalars(ell):
    return operands(ell, ("rational", "field"))


def coords(value, ell):
    """Coordinates over the power basis of Q(zeta_ell) as Fractions."""
    d = euler_phi(ell)
    if not isinstance(value, Scalar):
        return [Fraction(value)] + [Fraction(0)] * (d - 1)
    out = [Fraction(c, value.den) for c in value.coeffs]
    return out + [Fraction(0)] * (d - len(out))


def schoolbook(a, b, ell):
    """Product of two coordinate lists: polynomial product, then long division by Phi_ell."""
    raw = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    phi = cyclotomic_polynomial(ell)
    d = len(phi) - 1
    for i in range(len(raw) - 1, d - 1, -1):
        c = raw[i]
        for j, p in enumerate(phi):
            raw[i - d + j] -= c * p
    return raw[:d]


def euclid_inverse(x):
    """Independent oracle: the inverse by extended Euclid in Q[z] against Phi_ell."""

    def divmod_q(num, den):
        num = list(num)
        while den and not den[-1]:
            den = den[:-1]
        dd = len(den) - 1
        quot = [Fraction(0)] * max(len(num) - dd, 0)
        for i in range(len(num) - 1, dd - 1, -1):
            if num[i]:
                q = num[i] / den[-1]
                quot[i - dd] = q
                for j in range(dd + 1):
                    num[i - dd + j] -= q * den[j]
        return quot, num[:dd] if dd > 0 else [Fraction(0)]

    def mul_q(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def sub_q(a, b):
        n = max(len(a), len(b))
        a = list(a) + [Fraction(0)] * (n - len(a))
        b = list(b) + [Fraction(0)] * (n - len(b))
        return [u - v for u, v in zip(a, b)]

    r0 = [Fraction(c) for c in cyclotomic_polynomial(x.ell)]
    r1 = [Fraction(c, x.den) for c in x.coeffs]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, rem = divmod_q(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub_q(s0, mul_q(q, s1))
    const = next(c for c in r0 if c)  # the gcd, a nonzero constant
    inv = [c / const for c in s0]
    den = math.lcm(*(c.denominator for c in inv))
    return Scalar.from_coords(x.ell, [int(c * den) for c in inv], den)


def assert_canonical(value, ell):
    assert type(value) is Scalar
    assert value.den > 0
    assert math.gcd(value.den, *value.coeffs) == 1
    rational = not any(coords(value, ell)[1:])
    assert (value.ell == 1) == rational
    assert len(value.coeffs) == (1 if rational else euler_phi(ell))


class TestDispatchProperties:
    @examples(60)
    @given(st.data())
    def test_field_axioms_with_mixed_operands(self, data):
        ell = data.draw(st.sampled_from(FIELDS))
        x = data.draw(scalars(ell))
        y, z = data.draw(operands(ell)), data.draw(operands(ell))
        results = [
            x + y, y + x, x - y, y - x, x * y, y * x,
            (x + y) + z, x + (y + z), (x * y) * z, x * (y * z),
            x * (y + z), x * y + x * z, (x - y) + y, -(x - y),
        ]
        for r in results:
            assert_canonical(r, ell)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x
        assert y - x == -(x - y)
        assert x - x == 0
        if x:
            assert x * x.inverse() == 1
            assert (y / x) * x == y
        if y:
            assert (x / y) * y == x

    @examples(60)
    @given(st.data())
    def test_results_match_coordinate_arithmetic(self, data):
        ell = data.draw(st.sampled_from(FIELDS))
        x, y = data.draw(scalars(ell)), data.draw(operands(ell))
        cx, cy = coords(x, ell), coords(y, ell)
        assert coords(x + y, ell) == [a + b for a, b in zip(cx, cy)]
        assert coords(y + x, ell) == [a + b for a, b in zip(cx, cy)]
        assert coords(x - y, ell) == [a - b for a, b in zip(cx, cy)]
        assert coords(y - x, ell) == [b - a for a, b in zip(cx, cy)]
        assert coords(x * y, ell) == schoolbook(cx, cy, ell)

    @examples(60)
    @given(st.data())
    def test_rational_times_cyclotomic_is_schoolbook_product(self, data):
        ell = data.draw(st.sampled_from(FIELDS[1:]))
        q = data.draw(operands(ell, ("int", "fraction", "rational")))
        z = data.draw(operands(ell, ("field",)))
        expected = schoolbook(coords(q, ell), coords(z, ell), ell)
        for product in (q * z, z * q):
            assert_canonical(product, ell)
            assert coords(product, ell) == expected

    @examples(40)
    @given(st.data())
    def test_one_and_zero_are_identities(self, data):
        ell = data.draw(st.sampled_from(FIELDS))
        x = data.draw(scalars(ell))
        for same in (x * 1, 1 * x, x * ONE, ONE * x, x + 0, 0 + x, x + ZERO, ZERO + x, x - 0):
            # when x is 0 or 1 itself, the other operand may come back
            assert same is x if x not in (0, 1) else same == x
        for zero in (x * 0, 0 * x, x * ZERO, ZERO * x, x - x):
            assert zero == 0 and zero.ell == 1
        assert 0 - x == -x
        assert x**0 == 1 and x**1 == x

    @examples(30)
    @given(scalars(3), scalars(4))
    def test_mixed_cyclotomic_fields_are_rejected(self, a, b):
        if a.is_rational or b.is_rational:
            return
        for op in (
            lambda u, v: u + v,
            lambda u, v: u - v,
            lambda u, v: u * v,
            lambda u, v: u / v,
        ):
            with pytest.raises(FieldMismatch):
                op(a, b)
            with pytest.raises(FieldMismatch):
                op(b, a)

    @examples(20)
    @given(st.sampled_from(FIELDS).flatmap(scalars), st.sampled_from((1.5, 0.0, "1", "z")))
    def test_other_operand_types_are_rejected(self, x, other):
        for op in (
            lambda u, v: u + v,
            lambda u, v: u - v,
            lambda u, v: u * v,
            lambda u, v: u / v,
        ):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


class TestKernels:
    @pytest.mark.parametrize("ell", FIELDS)
    def test_inverse_matches_euclid_oracle(self, ell):
        rng = random.Random(ell)
        d = euler_phi(ell)
        for _ in range(25):
            coeffs = [rng.randint(-50, 50) for _ in range(d)]
            if not any(coeffs):
                continue
            x = Scalar.from_coords(ell, coeffs, rng.randint(1, 50))
            inv = x.inverse()
            assert_canonical(inv, ell)
            assert inv == euclid_inverse(x)
            assert x * inv == ONE

    def test_rational_paths_match_fractions(self):
        rng = random.Random(41)
        pairs = [
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(-1, 2)),
            (Fraction(-7, 6), Fraction(-5, 6)),
            (Fraction(3, 4), Fraction(4, 3)),
            (Fraction(5), Fraction(-5)),
            (Fraction(0), Fraction(-2, 9)),
        ]
        for _ in range(300):
            dens = (rng.randint(1, 50), rng.choice((1, 2, 6, 12)))
            pairs.append(tuple(Fraction(rng.randint(-50, 50), rng.choice(dens)) for _ in range(2)))
        for a, b in pairs:
            x, y = Scalar.rational(a), Scalar.rational(b)
            for got, want in ((x * y, a * b), (x + y, a + b), (x - y, a - b), (y - x, b - a)):
                assert_canonical(got, 1)
                assert got.as_fraction() == want

    @pytest.mark.parametrize(
        "x",
        [Scalar.rational(Fraction(-3, 4)), Scalar.rational(7), Scalar.zeta(8),
         Scalar.from_coords(5, [1, -2, 0, 3], 7)],
        ids=str,
    )
    def test_identities_return_the_operand(self, x):
        for same in (x * 1, 1 * x, x * ONE, ONE * x, x + 0, 0 + x, x + ZERO, ZERO + x):
            assert same is x

    def test_product_table_sizes(self):
        assert len(_product_table(8)) == 16
        assert len(_product_table(5)) == 25

    @pytest.mark.parametrize("ell", list(range(1, 17)))
    def test_zeta_powers_are_powers_of_zeta(self, ell):
        z = Scalar.zeta(ell)
        for e in range(-2 * ell, 2 * ell + 1):
            assert Scalar.zeta(ell, e) == z**e, e

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 8, 9, 12])
    def test_from_coords_reduces_long_coefficient_lists(self, ell):
        rng = random.Random(ell)
        for length in (euler_phi(ell) + 1, 2 * ell + 3):
            cs = [rng.randint(-9, 9) for _ in range(length)]
            expected = sum((c * Scalar.zeta(ell, i) for i, c in enumerate(cs)), ZERO)
            assert Scalar.from_coords(ell, cs, 7) == expected / 7


M = sys.hash_info.modulus


class TestRationalHash:
    @examples(300)
    @given(
        st.integers(-(10**60), 10**60),
        st.one_of(
            st.integers(1, 10**60),
            st.integers(1, 10**6).map(lambda k: k * M),
            st.sampled_from([2, M - 1, M + 1, M**2, 3 * M**3]),
        ),
    )
    def test_hash_is_the_fraction_hash(self, n, den):
        x = Scalar.from_coords(1, [n], den)
        assert hash(x) == hash(Fraction(n, den))

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(1, M),
            Fraction(-1, M),
            Fraction(5, 7 * M),
            Fraction(-(M + 2), 2),
            Fraction(M + 2, 2),
        ],
        ids=["inf", "minus-inf", "inf-multiple", "minus-one-is-minus-two", "one"],
    )
    def test_edge_values(self, value):
        # the modulus dividing den hashes to sys.hash_info.inf; a hash of -1
        # is reported as -2, as for every Python number
        assert hash(Scalar.rational(value)) == hash(value)


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

    @examples(60)
    @given(st.data())
    def test_truth_is_a_nonzero_coordinate(self, data):
        # bool reads one comparison, which holds because the canonical form
        # gives every rational value ell = 1
        ell = data.draw(st.sampled_from((1, 5, 8)))
        x, y = data.draw(scalars(ell)), data.draw(scalars(ell))
        k = data.draw(st.integers(0, 2 * ell))
        raw = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=ell + 1))
        den = data.draw(st.integers(-9, 9).filter(bool))
        zeta = Scalar.zeta(ell, k)
        roots = sum((Scalar.zeta(ell, j) for j in range(ell)), ZERO)
        running = {}
        for v in (x, y, -x, -y):
            _accumulate(running, "cancelled", v)
        for v in (x, y, zeta):
            _accumulate(running, "kept", v)
        settled = _settle(running)
        assert "cancelled" not in settled
        values = [
            Scalar.rational(data.draw(st.fractions())), ZERO, ONE, zeta, -zeta,
            Scalar.from_coords(ell, raw, den), Scalar.from_coords(ell, [1] * ell),
            roots, zeta * zeta.inverse() - 1,
            x, -x, x + y, x - y, x - x, x + (-x), x * y, x * 0, y * zeta,
            *settled.values(),
        ]
        if x:
            values += [x.inverse(), y / x]
        for v in values:
            assert bool(v) == any(v.coeffs), v
        # the roots of unity of Q(zeta_5) and Q(zeta_8) sum to zero
        assert bool(roots) == (ell == 1)


class TestValuation:
    def test_val_of_zero_is_infinite(self):
        ctx = PadicContext(5, 8)
        v = val(Scalar.rational(0), ctx)
        assert v.value == INF and v.exact

    def test_val_of_prime_power_ratio(self):
        ctx = PadicContext(7, 8)
        v = val(Scalar.rational(Fraction(7**3, 2)), ctx)
        assert v.value == 3 and v.exact

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_rational_context_root_is_one(self, p):
        # Phi_1 = x - 1, so the Hensel root over Q is 1 at every precision
        for precision in (1, 2, 64):
            assert PadicContext(p, precision).root == 1

    def test_root_is_not_an_argument(self):
        # root is computed from the other fields
        with pytest.raises(TypeError):
            PadicContext(5, root=7)

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

    @pytest.mark.parametrize("ell, p", [(1, 5), (3, 7), (4, 5), (5, 11), (8, 17)])
    def test_shift_is_the_valuation_of_the_scaled_value(self, ell, p):
        # val(x, ctx).value + k, with val's exact flag, is the valuation of
        # p^k x at full precision when exact and a lower bound of it otherwise.
        # The denominators and the embedded numerators are made divisible
        # by p so that low precisions run out
        rng = random.Random(ell * 100 + p)
        dim = euler_phi(ell)
        full = PadicContext(p, 64, ell=ell)
        inexact = 0
        for precision in range(1, 9):
            ctx = PadicContext(p, precision, ell=ell)
            near_zero = Scalar.zeta(ell) - ctx.root if ell > 1 else Scalar.rational(p)
            for _ in range(12):
                x = Scalar.from_coords(
                    ell,
                    [rng.randint(-9, 9) * p ** rng.randint(0, 3) for _ in range(dim)],
                    rng.randint(1, 9) * p ** rng.randint(0, 4),
                )
                if rng.random() < 0.5:
                    x = x * near_zero ** rng.randint(1, 3)
                base = val(x, ctx)
                exact = base.exact
                for k in range(9):
                    got = Valuation(base.value + k, exact)
                    expected = val(x * Scalar.rational(p) ** k, full)
                    assert expected.exact, (x, k)
                    assert got.exact == exact, (x, precision, k)
                    if exact:
                        assert got == expected, (x, precision, k)
                    else:
                        assert got.value <= expected.value, (x, precision, k)
                        inexact += 1
        if ell > 1:
            assert inexact > 0

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

    @pytest.mark.parametrize(
        "text, value",
        [
            ("-2^2", -4),
            ("1*-2^2", -4),
            ("1/-2^2", Fraction(-1, 4)),
            ("(-2^2)", -4),
            ("2^-1", Fraction(1, 2)),
            ("--2", 2),
            ("1*+2", 2),
            ("+2^2", 4),
            ("1 - -2^2", 5),
            ("-2^2*3", -12),
            ("(-2)^2", 4),
        ],
    )
    def test_sign_binds_looser_than_power(self, text, value):
        assert parse_scalar(text) == value

    def test_sign_binds_looser_than_power_on_zeta(self):
        assert parse_scalar("(-z^2)", 5) == -Scalar.zeta(5, 2)
        assert parse_scalar("z*-z^2", 5) == -Scalar.zeta(5, 3)
        assert parse_scalar("1/-z^2", 5) == -Scalar.zeta(5, -2)

    def test_powers_check_the_blowup_guard(self):
        # 2^999999 has MAX_COEFF_BITS bits; every product of a power is checked
        assert MAX_COEFF_BITS == 1_000_000
        assert parse_scalar("2^999999") == 2**999999
        assert parse_scalar("2^-999999") == Fraction(1, 2**999999)
        for text in ("2^1000000", "2^-1000000", "3^10000000000"):
            with pytest.raises(CoefficientBlowup, match="MAX_COEFF_BITS = 1000000"):
                parse_scalar(text)
        # powers whose coefficients stay small run to any exponent
        assert parse_scalar("z^10000000001", 5) == Scalar.zeta(5)
        assert parse_scalar("(-1)^10000000001") == -1

    def test_a_rational_power_is_refused_before_its_last_product(self, monkeypatch):
        # powers of 3/2 multiply without cancelling, so the product that
        # would pass the guard is refused before it is built
        handed = []

        def recording(x):
            handed.append(max(x.den.bit_length(), *(c.bit_length() for c in x.coeffs)))
            return check_coeff_bits(x)

        monkeypatch.setattr("cherednik.scalars.check_coeff_bits", recording)
        for text in ("(3/2)^10000000000", "(3/2)^-10000000000", "3^10000000000"):
            handed.clear()
            with pytest.raises(CoefficientBlowup, match="MAX_COEFF_BITS = 1000000"):
                parse_scalar(text)
            assert handed and max(handed) <= MAX_COEFF_BITS, text
        assert parse_scalar("(-3/2)^3") == Fraction(-27, 8)

    @pytest.mark.parametrize("bits", [MAX_COEFF_BITS, MAX_COEFF_BITS + 1])
    def test_the_guard_boundary(self, bits):
        # a value with `bits` bits as the denominator, coordinate 0, a
        # non-leading Q(zeta_5) coordinate, and a negative coordinate (which
        # counts by its absolute value)
        big = 2 ** (bits - 1)
        assert big.bit_length() == (-big).bit_length() == bits
        values = [
            Scalar.from_coords(1, [1], big),
            Scalar.from_coords(5, [big, 1, 0, 0]),
            Scalar.from_coords(5, [1, 0, big, 0]),
            Scalar.from_coords(5, [1, 0, 0, -big]),
            Scalar.from_coords(1, [-big]),
        ]
        for x in values:
            if bits <= MAX_COEFF_BITS:
                assert check_coeff_bits(x) is x
            else:
                with pytest.raises(CoefficientBlowup, match="MAX_COEFF_BITS = 1000000"):
                    check_coeff_bits(x)

    @pytest.mark.parametrize("where", ["c", "group file", "rational c"])
    def test_a_huge_power_in_a_job_stops_at_the_guard(self, tmp_path, where):
        # 2^(10^10) would need 1.25 GB; squaring stops at the guard after
        # about 20 products, in c and in a matrix entry of a group file
        # alike, and (3/2)^(10^10) before a gcd on numbers past the guard
        huge = "2^10000000000"
        if where == "c":
            config = f"group = cyclic:2\nc = {huge}\n"
        elif where == "rational c":
            config = "group = cyclic:2\nc = (3/2)^10000000000\n"
        else:
            group_file = tmp_path / "group.txt"
            group_file.write_text(f"dimension = 1\nbegin generator\n{huge}\nend\n")
            config = f"group = file:{group_file}\nc = 0\n"
        done = cli_job(tmp_path, "euler", config)
        assert done.returncode == 3, done.stderr
        assert "MAX_COEFF_BITS = 1000000" in done.stderr and "Traceback" not in done.stderr

    def test_every_sign_counts_toward_nesting(self):
        # a leading sign counts as much as a sign inside a product
        assert parse_scalar("-" * MAX_NESTING + "2") == 2
        assert parse_scalar("(-" * (MAX_NESTING // 2) + "2" + ")" * (MAX_NESTING // 2)) == 2
        for text in ("-" * (MAX_NESTING + 1) + "2", "-(" + "+" * MAX_NESTING + "2)"):
            with pytest.raises(ExprError, match=f"nests deeper than {MAX_NESTING} levels"):
                parse_scalar(text)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("²", "unexpected character"),
            ("3^²", "unexpected character"),
            ("1" * 5000, "integer literal of 5000 digits is too long"),
            ("3^" + "1" * 5000, "integer literal of 5000 digits is too long"),
        ],
        ids=["superscript", "superscript-power", "5000-digits", "5000-digit-power"],
    )
    def test_integer_literals_are_what_int_reads(self, text, message):
        # "²".isdigit() holds but int() refuses it, as it refuses 5,000 digits
        with pytest.raises(ExprError, match=message):
            parse_scalar(text)

    @pytest.mark.parametrize(
        "nested",
        [lambda k: "(" * k + "2" + ")" * k, lambda k: "1*" + "-" * k + "2"],
        ids=["parentheses", "unary-minus"],
    )
    def test_nesting_is_bounded(self, nested):
        # a fixed bound, not the interpreter's recursion limit, which would
        # fall at a depth that depends on the caller's stack
        assert parse_scalar(nested(MAX_NESTING)) == Scalar.rational(2)
        with pytest.raises(ExprError, match=f"nests deeper than {MAX_NESTING} levels"):
            parse_scalar(nested(MAX_NESTING + 1))
