"""Exact arithmetic over Q and cyclotomic fields Q(zeta_ell), with p-adic
valuations computed through a Hensel-lifted embedding at finite precision.

A Scalar is an integer coordinate vector over the power basis
1, z, ..., z^(phi(ell)-1) of Q(zeta_ell), together with a positive common
denominator, kept in lowest terms.  Values that reduce to rationals are
demoted to the rational descriptor (ell = 1), so structural equality is
value equality even across declared fields.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

INF = math.inf
_M = sys.hash_info.modulus  # the prime modulus of numeric hashes

__all__ = [
    "Scalar",
    "PadicContext",
    "Valuation",
    "hensel_embed",
    "val",
    "parse_scalar",
    "parse_expression",
    "decimal_int",
    "cyclotomic_polynomial",
    "CherednikError",
    "InvalidInput",
    "ComputationLimit",
    "CoefficientBlowup",
    "MAX_COEFF_BITS",
    "ModulusTooLarge",
    "MAX_MODULUS_BITS",
    "SplittingError",
    "DivisionByZero",
    "FieldMismatch",
    "ExprError",
]


class CherednikError(Exception):
    """Root of the package's own exception classes."""


class InvalidInput(CherednikError, ValueError):
    """The job's input is unusable; the command line exits 2."""


class ComputationLimit(CherednikError, RuntimeError):
    """A named computational limit was reached; the command line exits 3."""


# the bit-size guard on exact coefficients: a PBW product or a scalar power
# with a larger numerator or denominator raises CoefficientBlowup
MAX_COEFF_BITS = 1_000_000


class CoefficientBlowup(ComputationLimit):
    """A coefficient exceeded MAX_COEFF_BITS."""


# the bit-size bound on the p-adic working modulus p**precision, checked
# before hensel_embed lifts a root to it
MAX_MODULUS_BITS = 65_536


class ModulusTooLarge(ComputationLimit):
    """p**precision has more than MAX_MODULUS_BITS bits."""


def check_coeff_bits(x: Scalar) -> Scalar:
    """x itself, or CoefficientBlowup if a numerator coordinate or the
    denominator of x has more than MAX_COEFF_BITS bits."""
    if (
        x.den.bit_length() > MAX_COEFF_BITS
        or max(map(int.bit_length, x.coeffs)) > MAX_COEFF_BITS
    ):
        raise _blowup()
    return x


def _blowup() -> CoefficientBlowup:
    return CoefficientBlowup(
        f"a coefficient exceeds the limit MAX_COEFF_BITS = {MAX_COEFF_BITS} bits"
    )


def _power_product(a: Scalar, b: Scalar) -> Scalar:
    """a * b for two powers of one scalar.  Rational powers of one scalar
    are powers of one rational in lowest terms, so their product is in
    lowest terms too: it is built without a gcd, and refused with
    CoefficientBlowup before it is built when its numerator or denominator,
    at least bits(a) + bits(b) - 1 bits long (2b - 1 for a square), must
    pass MAX_COEFF_BITS."""
    if a.ell != 1 or b.ell != 1:
        return a * b
    (m,), (n,) = a.coeffs, b.coeffs
    if (
        m.bit_length() + n.bit_length() > MAX_COEFF_BITS + 1
        or a.den.bit_length() + b.den.bit_length() > MAX_COEFF_BITS + 1
    ):
        raise _blowup()
    return Scalar(1, (m * n,), a.den * b.den)


class SplittingError(CherednikError, ValueError):
    """The prime does not split the requested cyclotomic field (p != 1 mod ell)."""


class DivisionByZero(CherednikError, ZeroDivisionError):
    """Inversion or division by the zero scalar."""


class FieldMismatch(CherednikError, ValueError):
    """Operands declared over incompatible coefficient fields."""


class ExprError(InvalidInput):
    """Malformed scalar or element expression."""


def _divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den over Z, low degree
    first; the remainder has exactly deg(den) coordinates."""
    d = len(den) - 1
    rem = list(num) + [0] * (d - len(num))
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quot[i - d] = c
            for j in range(d):
                rem[i - d + j] -= c * den[j]
    return quot, rem[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(ell: int) -> tuple[int, ...]:
    """Integer coefficients of the ell-th cyclotomic polynomial, low degree first."""
    if ell < 1:
        raise ValueError("cyclotomic index must be >= 1")
    poly = [-1] + [0] * (ell - 1) + [1]  # x^ell - 1
    for d in range(1, ell):
        if ell % d == 0:
            poly = _divmod_monic(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(ell: int) -> int:
    """Euler's totient, by trial division."""
    out, f = ell, 2
    while f * f <= ell:
        if ell % f == 0:
            out -= out // f
        while ell % f == 0:
            ell //= f
        f += 1
    return out - out // ell if ell > 1 else out


def _zeta_coords(ell: int, e: int) -> list[int]:
    """The power-basis coordinates of zeta_ell^e: z^(e mod ell) mod Phi_ell."""
    return _divmod_monic([0] * (e % ell) + [1], cyclotomic_polynomial(ell))[1]


def _power_images(ell: int, exponents) -> tuple[tuple[int, int, int], ...]:
    """The nonzero (i, k, r): coordinate k of zeta^exponents[i] mod Phi_ell is r."""
    out = []
    for i, e in enumerate(exponents):
        out += [(i, k, r) for k, r in enumerate(_zeta_coords(ell, e)) if r]
    return tuple(out)


@lru_cache(maxsize=None)
def _product_table(ell: int) -> tuple[tuple[int, int, int, int], ...]:
    """The nonzero (i, j, k, r): coordinate k of zeta^(i+j) reduced mod Phi_ell is r."""
    d = euler_phi(ell)
    pairs = [(i, j) for i in range(d) for j in range(d)]
    images = _power_images(ell, [i + j for i, j in pairs])
    return tuple(pairs[n] + (k, r) for n, k, r in images)


@lru_cache(maxsize=None)
def _galois_tables(ell: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each sigma_k: zeta -> zeta^k, k in (Z/ell)^x other than 1, the
    nonzero (i, j, r): coordinate j of sigma_k(zeta^i) is r."""
    d = euler_phi(ell)
    units = [k for k in range(2, ell) if math.gcd(k, ell) == 1]
    return tuple(_power_images(ell, [i * k for i in range(d)]) for k in units)


class Scalar:
    """Element of Q or Q(zeta_ell) in canonical reduced form.

    The gcd of all integer coordinates and the denominator is 1 and the
    denominator is positive.  Purely rational values always carry ell = 1.
    """

    __slots__ = ("ell", "coeffs", "den")

    def __init__(self, ell: int, coeffs: tuple[int, ...], den: int):
        # Raw constructor: use the classmethods or module helpers instead.
        self.ell = ell
        self.coeffs = coeffs
        self.den = den

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(ell: int, coeffs: list[int], den: int) -> "Scalar":
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den = -den
            coeffs = [-c for c in coeffs]
        g = den
        for c in coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            coeffs = [c // g for c in coeffs]
        if ell > 1 and not any(coeffs[1:]):
            return Scalar(1, (coeffs[0],), den)
        return Scalar(ell, tuple(coeffs), den)

    @classmethod
    def rational(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        out = _operand(value)
        if out is None:
            raise TypeError(f"cannot build a Scalar from {type(value).__name__}")
        return out

    @classmethod
    def zeta(cls, ell: int, power: int = 1) -> "Scalar":
        """The root of unity zeta_ell ** power."""
        if ell < 1:
            raise ValueError("cyclotomic index must be >= 1")
        return cls._make(ell, _zeta_coords(ell, power), 1)

    @classmethod
    def from_coords(cls, ell: int, coeffs, den: int = 1) -> "Scalar":
        if ell > 1:
            coeffs = _divmod_monic(coeffs, cyclotomic_polynomial(ell))[1]
        return cls._make(ell, list(coeffs), den)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        # a canonical value with ell > 1 has a nonzero irrational coordinate
        return self.ell != 1 or self.coeffs[0] != 0

    @property
    def is_rational(self) -> bool:
        return self.ell == 1

    def as_fraction(self) -> Fraction:
        if self.ell != 1:
            raise FieldMismatch("value is not rational")
        return Fraction(self.coeffs[0], self.den)

    def is_integer(self) -> bool:
        return self.ell == 1 and self.den == 1

    def as_int(self) -> int:
        if not self.is_integer():
            raise FieldMismatch("value is not a rational integer")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------
    #
    # A rational operand never leaves Q: it meets a cyclotomic one by scaling
    # its coordinates (products) or through coordinate 0 alone (sums), so only
    # a product of two cyclotomic values is reduced modulo Phi_ell.  Scalars
    # are immutable, so x + 0, x * 1 and x * 0 return an operand as it is.

    def _combine(self, other: "Scalar", sign: int) -> "Scalar":
        """self + sign * other for sign = 1 or -1."""
        a_ell, b_ell = self.ell, other.ell
        if b_ell == 1 and not other.coeffs[0]:
            return self
        if a_ell == 1 and not self.coeffs[0]:
            return other if sign > 0 else -other
        ad, bd = self.den, other.den
        if a_ell == b_ell == 1:
            m = other.coeffs[0] if sign > 0 else -other.coeffs[0]
            if ad == bd:
                num, den = self.coeffs[0] + m, ad
            else:
                num, den = self.coeffs[0] * bd + m * ad, ad * bd
            g = math.gcd(num, den)
            return Scalar(1, (num // g,), den // g)
        f = ad if sign > 0 else -ad  # the factor on other's coordinates
        if b_ell == 1:
            coeffs = [c * bd for c in self.coeffs]
            coeffs[0] += other.coeffs[0] * f
        elif a_ell == 1:
            coeffs = [c * f for c in other.coeffs]
            coeffs[0] += self.coeffs[0] * bd
            a_ell = b_ell
        elif a_ell == b_ell:
            coeffs = [x * bd + y * f for x, y in zip(self.coeffs, other.coeffs)]
        else:
            raise FieldMismatch(f"cannot mix Q(zeta_{b_ell}) and Q(zeta_{a_ell}) values")
        return Scalar._make(a_ell, coeffs, ad * bd)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ell, tuple(-c for c in self.coeffs), self.den)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a_ell, b_ell = self.ell, other.ell
        if b_ell == 1:
            a, b = self, other
        elif a_ell == 1:
            a, b = other, self
        elif a_ell == b_ell:
            out = _numerator_product(a_ell, self.coeffs, other.coeffs)
            return Scalar._make(a_ell, out, self.den * other.den)
        else:
            raise FieldMismatch(f"cannot mix Q(zeta_{b_ell}) and Q(zeta_{a_ell}) values")
        # b is rational and scales the coordinates of a
        n, d = b.coeffs[0], b.den
        if d == 1 and (n == 1 or not n):
            return a if n else b
        if a.ell == 1:
            m = a.coeffs[0]
            if m == 1 and a.den == 1:
                return b
            num, den = m * n, a.den * d
            g = math.gcd(num, den)
            return Scalar(1, (num // g,), den // g)
        return Scalar._make(a.ell, [c * n for c in a.coeffs], a.den * d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        if self.ell == 1:
            return Scalar._make(1, [self.den], self.coeffs[0])
        # x^-1 = prod_{sigma != 1} sigma(x) / N(x), and the norm N(x) is rational
        conj = ONE
        for table in _galois_tables(self.ell):
            image = [0] * len(self.coeffs)
            for i, j, r in table:
                image[j] += r * self.coeffs[i]
            conj = conj * Scalar._make(self.ell, image, self.den)
        norm = self * conj
        return conj * Scalar._make(1, [norm.den], norm.coeffs[0])

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        # every product passes the blow-up guard, so a huge exponent stops
        # once a coefficient outgrows MAX_COEFF_BITS
        out = ONE
        base = self
        while k:
            if k & 1:
                out = check_coeff_bits(_power_product(out, base))
            k >>= 1
            if k:
                base = check_coeff_bits(_power_product(base, base))
        return out

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return (
            self.ell == other.ell
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # rational values hash like the int or Fraction they equal: this is
        # CPython's numeric hash of n/den, without building the Fraction
        if self.ell == 1:
            n, den = self.coeffs[0], self.den
            if den == 1:
                return hash(n)
            h = hash(hash(abs(n)) * pow(den, -1, _M)) if den % _M else sys.hash_info.inf
            return -h if n < 0 else h  # and hash() turns -1 into -2, as Fraction does
        return hash((self.ell, self.coeffs, self.den))

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if self.ell == 1:
            num = digits(self.coeffs[0])
            return num if self.den == 1 else f"{num}/{digits(self.den)}"
        pieces = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            body = digits(abs(c))
            if i:
                zpow = "z" if i == 1 else f"z^{i}"
                body = zpow if abs(c) == 1 else f"{body}*{zpow}"
            pieces.append((c < 0, body))
        text = signed_sum(pieces)
        if self.den > 1:
            return f"({text})/{digits(self.den)}"
        if len(pieces) > 1:
            return f"({text})"
        return text

    def __repr__(self) -> str:
        return f"Scalar({self})"


def digits(n: int) -> str:
    """The decimal digits of n at any size: str(int) stops at the
    interpreter's limit on digits, and Decimal's conversion has none."""
    return str(decimal.Decimal(n))


def signed_sum(pieces) -> str:
    """Join (negative, text) pieces as a signed sum such as "-a + b - c"."""
    text = "".join((" - " if negative else " + ") + body for negative, body in pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _operand(value) -> Scalar | None:
    """The Scalar that an int or Fraction operand stands for; None for any
    other type.  Both keep their values in lowest terms already."""
    if isinstance(value, (int, Fraction)):
        return Scalar(1, (value.numerator,), value.denominator)
    return None


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)


class _Sum:
    """A running sum of Scalars in integer coordinates: the value is
    sum(coeffs[k] * z^k) / den over Q(zeta_ell), not reduced by any gcd."""

    __slots__ = ("ell", "den", "coeffs")

    def __init__(self, first: Scalar):
        self.ell, self.den, self.coeffs = first.ell, first.den, list(first.coeffs)

    def add(self, value: Scalar) -> None:
        ell, den, vc = value.ell, value.den, value.coeffs
        coeffs = self.coeffs
        if ell != self.ell and ell != 1:
            if self.ell != 1:
                raise FieldMismatch(
                    f"cannot mix Q(zeta_{ell}) and Q(zeta_{self.ell}) values"
                )
            coeffs.extend([0] * (len(vc) - 1))
            self.ell = ell
        if den != self.den:
            common = math.lcm(self.den, den)
            if common != self.den:
                f = common // self.den
                self.coeffs = coeffs = [c * f for c in coeffs]
                self.den = common
            f = common // den
            if f != 1:
                vc = [c * f for c in vc]
        if ell == 1:
            coeffs[0] += vc[0]
        else:
            for k, c in enumerate(vc):
                coeffs[k] += c


def _accumulate(terms: dict, key, value: Scalar) -> None:
    """Add value to terms[key].  The first value stays a Scalar; a second
    turns the entry into a _Sum, so `_settle` must run before terms is read."""
    cur = terms.get(key)
    if cur is None:
        terms[key] = value
    elif type(cur) is Scalar:
        cur = terms[key] = _Sum(cur)
        cur.add(value)
    else:
        cur.add(value)


def _settle(terms: dict) -> dict:
    """terms with every running sum made a canonical Scalar and the zero
    entries dropped."""
    out = {}
    for key, v in terms.items():
        if type(v) is not Scalar:
            if not any(v.coeffs):
                continue
            v = Scalar._make(v.ell, v.coeffs, v.den)
        elif not v:
            continue
        out[key] = v
    return out


# Numerators: a list of Scalars over one common denominator, for sums run in
# plain int arithmetic.  Over Q(zeta_ell) a rational value's numerator is an
# int and any other value's is a tuple of phi(ell) power-basis ints.


def _common_field(ells) -> int:
    """The one cyclotomic index above 1 among ells, or 1 if there is none;
    FieldMismatch if there are two."""
    out = 1
    for ell in ells:
        if ell != 1 and ell != out:
            if out != 1:
                raise FieldMismatch(f"cannot mix Q(zeta_{ell}) and Q(zeta_{out}) values")
            out = ell
    return out


def _numerators(values) -> tuple[int, int, list]:
    """(ell, den, nums) for the Scalars in values: ell their common field
    (`_common_field`), den the lcm of their denominators (1 for none) and
    nums their numerators over den, in order: an int for a rational value
    and a tuple of power-basis ints for any other."""
    values = list(values)
    ell = _common_field(v.ell for v in values)
    den = math.lcm(*(v.den for v in values))
    nums = []
    for v in values:
        f = den // v.den
        if v.ell == 1:
            nums.append(v.coeffs[0] * f)
        else:
            nums.append(v.coeffs if f == 1 else tuple(c * f for c in v.coeffs))
    return ell, den, nums


def _numerator_product(ell: int, x, y):
    """x * y for two numerators over Q(zeta_ell) (`_numerators`): an int
    when both are ints, else a list of phi(ell) power-basis ints, a product
    of two tuples reduced modulo Phi_ell through `_product_table`."""
    if type(x) is int:
        return x * y if type(y) is int else [x * c for c in y]
    if type(y) is int:
        return [c * y for c in x]
    out = [0] * len(x)
    for i, j, k, r in _product_table(ell):
        out[k] += r * x[i] * y[j]
    return out


def _from_numerator(ell: int, num, den: int) -> Scalar:
    """The canonical Scalar num / den for a nonzero numerator over
    Q(zeta_ell), an int or a list of phi(ell) ints, and a positive den: one
    gcd over Q, `Scalar._make` over Q(zeta_ell)."""
    if type(num) is not int:
        return Scalar._make(ell, num, den)
    g = math.gcd(num, den)
    return Scalar(1, (num // g,), den // g)


# ---------------------------------------------------------------------------
# p-adic embedding and valuations
# ---------------------------------------------------------------------------


# Miller-Rabin on the first 13 primes decides every n below psi_13
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


class PrimalityUncertified(ComputationLimit):
    """A number at or above psi_13 passes Miller-Rabin on every base of
    `_MR_BASES`, which does not prove it prime."""


def is_prime(n: int) -> bool:
    """Exact primality by Miller-Rabin on `_MR_BASES`: a witness proves n
    composite, and passing every base proves n prime below psi_13.  At or
    above psi_13 a number that passes raises PrimalityUncertified."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    if n >= _PSI_13:
        raise PrimalityUncertified(
            f"{n} passes Miller-Rabin on the first 13 primes, which certifies "
            f"no prime at or above {_PSI_13}"
        )
    return True


def horner(coeffs, r: int, mod: int) -> int:
    """sum(coeffs[i] * r**i) mod `mod`, for integer coefficients low degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % mod
    return acc


def least_cyclotomic_root(ell: int, p: int) -> int:
    """The least root of Phi_ell mod a prime p = 1 mod ell: a^((p-1)/ell) is
    one for a generator a of (Z/p)^*, and its powers coprime to ell are all."""
    phi = cyclotomic_polynomial(ell)
    roots = (pow(a, (p - 1) // ell, p) for a in range(1, p))
    root = next(r for r in roots if not horner(phi, r, p))
    return min(pow(root, k, p) for k in range(ell) if math.gcd(k, ell) == 1)


def hensel_embed(ell: int, p: int, precision: int) -> int:
    """Newton-lift the smallest root of the ell-th cyclotomic polynomial mod p
    to a root mod p**precision, refusing a modulus of more than
    MAX_MODULUS_BITS bits before the lift starts.  p**precision has more
    than precision * (p.bit_length() - 1) bits, and when that product is
    below the bound, fewer than twice the bound's bits: the exact test is
    cheap."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (p - 1) % ell != 0:
        raise SplittingError(f"p = {p} is not congruent to 1 mod {ell}")
    if (
        precision * (p.bit_length() - 1) >= MAX_MODULUS_BITS
        or (p**precision).bit_length() > MAX_MODULUS_BITS
    ):
        raise ModulusTooLarge(
            f"p**precision = {p}**{precision} has more than MAX_MODULUS_BITS = "
            f"{MAX_MODULUS_BITS} bits"
        )
    phi = cyclotomic_polynomial(ell)
    dphi = [i * c for i, c in enumerate(phi)][1:]
    root = least_cyclotomic_root(ell, p)
    prec = 1
    while prec < precision:
        prec = min(2 * prec, precision)
        mod = p**prec
        root = (root - horner(phi, root, mod) * pow(horner(dphi, root, mod), -1, mod)) % mod
    return root


@dataclass(frozen=True)
class Valuation:
    """A p-adic valuation: an integer or +infinity, with an exactness flag.

    ``exact`` is False when the computed value is only a lower bound because
    the working precision was exhausted.
    """

    value: float  # int-valued, or math.inf
    exact: bool = True


def _vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicContext:
    """Prime, working precision, and a Hensel root of the ell-th cyclotomic
    polynomial mod p**precision (1 for ell = 1), with that modulus."""

    prime: int
    precision: int = 64
    ell: int = 1
    root: int = field(default=0, init=False)
    modulus: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "root", hensel_embed(self.ell, self.prime, self.precision))
        object.__setattr__(self, "modulus", self.prime**self.precision)


def val(x: Scalar, ctx: PadicContext) -> Valuation:
    """p-adic valuation of x through the context's embedding.

    Rational values are exact.  A cyclotomic value is exact when its
    embedded numerator is nonzero modulo p**precision; otherwise the result
    is the lower bound precision - v_p(den) with the exact flag cleared.
    So p**k * x has the valuation value + k when the result is exact, and
    at least value + k otherwise: callers add a shift to the result, with
    the same flag, instead of forming the product.
    """
    if not x:
        return Valuation(INF)
    vden = _vp_int(x.den, ctx.prime)
    if x.ell == 1:
        return Valuation(_vp_int(x.coeffs[0], ctx.prime) - vden)
    if x.ell != ctx.ell:
        raise FieldMismatch(
            f"context is over Q(zeta_{ctx.ell}) but value lives in Q(zeta_{x.ell})"
        )
    acc = horner(x.coeffs, ctx.root, ctx.modulus)
    if not acc:
        return Valuation(ctx.precision - vden, False)
    return Valuation(_vp_int(acc, ctx.prime) - vden)


# ---------------------------------------------------------------------------
# scalar expression parsing
# ---------------------------------------------------------------------------


def decimal_int(text: str) -> int | None:
    """text as an int if it is all decimal digits (int() also reads signs,
    spaces and underscores) and int() converts it, else None."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:  # over the interpreter's limit on digits
        return None


def tokenize(text: str) -> list[tuple[str, str | int]]:
    """Split an expression into (kind, value) tokens: int (an int), name, op."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            value = decimal_int(text[i:j])
            if value is None:
                raise ExprError(f"integer literal of {j - i} digits is too long")
            tokens.append(("int", value))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            tokens.append(("op", ch))
            i += 1
        else:
            raise ExprError(f"unexpected character {ch!r} in expression")
    return tokens


MAX_NESTING = 100


class _ExprParser:
    """Recursive descent over the shared expression grammar:

        sum     := product {(+|-) product}
        product := signed {(*|/) signed}
        signed  := (-|+) signed | power
        power   := atom [^ [-] int]
        atom    := int | name | ( sum )

    So a sign binds looser than ``^`` wherever it stands: ``-2^2`` and
    ``1*-2^2`` are both -4.  The caller supplies ``atom(kind, value)``, which
    resolves an int or name token (None for an unknown name), ``invert``,
    used for ``/`` and negative powers, and the ``noun`` that error messages
    name.  At most MAX_NESTING parentheses and signs are open at once.
    """

    def __init__(self, tokens, atom, invert, noun: str):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.atom = atom
        self.invert = invert
        self.noun = noun

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def nested(self, parse):
        """parse() one level deeper: a parenthesis or a sign."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"{self.noun} expression nests deeper than {MAX_NESTING} levels")
        value = parse()
        self.depth -= 1
        return value

    def parse_sum(self):
        acc = self.parse_product()
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                acc = acc + self.parse_product()
            elif tok == ("op", "-"):
                self.take()
                acc = acc - self.parse_product()
            else:
                return acc

    def parse_product(self):
        acc = self.parse_signed()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                acc = acc * self.parse_signed()
            elif tok == ("op", "/"):
                self.take()
                acc = acc * self.invert(self.parse_signed())
            else:
                return acc

    def parse_signed(self):
        tok = self.peek()
        if tok not in (("op", "-"), ("op", "+")):
            return self.parse_power()
        self.take()
        value = self.nested(self.parse_signed)
        return -value if tok == ("op", "-") else value

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            negative = self.peek() == ("op", "-")
            if negative:
                self.take()
            kind, k = self.take()
            if kind != "int":
                raise ExprError("exponent must be an integer")
            if negative and k:
                base = self.invert(base)
            return base**k
        return base

    def parse_atom(self):
        kind, text = self.take()
        if kind in ("int", "name"):
            value = self.atom(kind, text)
            if value is None:
                raise ExprError(f"unknown symbol {text!r} in {self.noun} expression")
            return value
        if (kind, text) == ("op", "("):
            value = self.nested(self.parse_sum)
            if self.take() != ("op", ")"):
                raise ExprError("missing closing parenthesis")
            return value
        if kind is None:
            raise ExprError(f"{self.noun} expression ended where an operand was expected")
        raise ExprError(f"unexpected token {text!r} in {self.noun} expression")


def parse_expression(text: str, atom, invert, noun: str):
    """Parse a whole expression with the shared grammar (see _ExprParser)."""
    tokens = tokenize(text)
    if not tokens:
        raise ExprError(f"empty {noun} expression")
    parser = _ExprParser(tokens, atom, invert, noun)
    value = parser.parse_sum()
    if parser.pos != len(tokens):
        raise ExprError(f"trailing input in {noun} expression {text!r}")
    return value


def _invert_scalar(x: Scalar) -> Scalar:
    if not x:
        raise ExprError("division by zero in scalar expression")
    return x.inverse()


def parse_scalar(text: str, ell: int = 1) -> Scalar:
    """Parse an exact scalar expression such as ``-3/2`` or ``(1 + 2*z^2)/5``."""

    def atom(kind, value):
        if kind == "int":
            return Scalar.rational(value)
        if value == "z":
            if ell <= 1:
                raise ExprError("z requires a cyclotomic coefficient field")
            return Scalar.zeta(ell)
        return None

    return parse_expression(text, atom, _invert_scalar, "scalar")
