"""The rational Cherednik algebra as exact data: elements in the PBW basis
x^I * g * y^J (x = coordinate functions raising degree, y = vector fields
lowering degree), multiplication by straightening against the defining
relations, the deformed Euler element, and the inner Z-grading.

Straightening resolves one y-past-x inversion at a time:

    y_i * x_j = x_j * y_i + delta_ij - sum_s c(s) (y_i, alpha_s)(alpha_s^v, x_j) s

whose reflection terms are read from one table, `CherednikAlgebra.relation`,
and moves group elements through polynomials by the linear action on the
generators.  Each step strictly decreases the inversion count, so rewriting
terminates; associativity is covered by the test suite.

Products and module actions share one straighten-and-move step, `_moved`:
the terms of g1 y^J1 x^I2 with g1 moved past the x's.  A product
x^I1 g1 y^J1 * x^I2 g2 y^J2 reads one cached pair image, the PBW form of
g1 y^J1 x^I2 g2 kept per (g1, J1, I2, g2) as a flat tuple of int
numerators over one denominator; a product sums over one common
denominator, so an image entry costs one int product and addition.  A
power of a base with several terms multiplies one factor in at a time, on
the side where straightening moves fewer y's past x's: the factor and the
power so far commute, and a * b makes about (sum of |J| over a's terms) *
(sum of |I| over b's) such swaps.  On a standard module
Delta(lambda) = H_c (x) lambda, x^I g y^J acts on x^mono (x) w by the y-free
moved terms of g y^J x^mono, shifted by I.
"""

from __future__ import annotations

import math
from operator import add

from .groups import GroupAction, PseudoReflection, ReflectionFunction
from .scalars import (
    Scalar,
    ONE,
    CherednikError,
    ComputationLimit,
    ExprError,
    InvalidInput,
    _accumulate,
    _common_field,
    _from_numerator,
    _numerator_product,
    _numerators,
    _settle,
    check_coeff_bits,
    decimal_int,
    parse_expression,
    signed_sum,
)

Term = tuple  # (I, g, J): multidegree tuple, group index, multidegree tuple


class AlgebraMismatch(CherednikError, ValueError):
    """Operands belong to different algebra instances."""


class RepeatedIrrep(InvalidInput):
    """Two listed irreps share a label or a character."""


# the work bound on a power: a^k refuses to form the product that takes the
# running count of term pairs multiplied (len(power) * len(factor) per
# product) past it, about 0.3 s of products
MAX_POWER_PAIRS = 100_000


class PowerTooLarge(ComputationLimit):
    """A power would multiply more than MAX_POWER_PAIRS term pairs."""


def term_sort_key(term: Term):
    i, g, j = term
    return (sum(i), i, g, sum(j), j)


def format_term(term: Term, coef: Scalar) -> tuple[bool, str]:
    """(negative, text) of the nonzero term coef * x^I g y^J, the text
    without its sign: the piece of the element syntax that `signed_sum`
    joins."""
    i, g, j = term
    factors = [f"x{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(i) if e]
    if g != 0:
        factors.append(f"g{g}")
    factors += [f"y{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(j) if e]
    negative = coef.is_rational and coef.as_fraction() < 0
    mag = -coef if negative else coef
    body = "*".join(factors)
    if not factors:
        body = str(mag)
    elif mag != ONE:
        body = f"{mag}*{body}"
    return negative, body


def _add_deg(a, b):
    return tuple(map(add, a, b))


def _degree_sums(el: PBWElement) -> tuple[int, int]:
    """(sum of |I|, sum of |J|) over the terms x^I g y^J of el."""
    return sum(sum(i) for i, _, _ in el.terms), sum(sum(j) for _, _, j in el.terms)


def _naturals(values: tuple) -> bool:
    """Whether every value is a non-negative int (a bool is not)."""
    for e in values:
        if type(e) is not int or e < 0:
            return False
    return True


def _chain(cache: dict, key, deg: tuple, start, step) -> dict:
    """The value at deg of a table cached under key(degree), filled without
    recursion: walk down by lowering the first nonzero exponent b until a
    cached degree or degree zero (whose value is start()), then cache every
    degree on the way up as step(value below, b, degree below).  key runs
    once per degree on the walk, and start only when the walk reaches zero."""
    path = []
    here = key(deg)
    value = None
    while value is None and any(deg):
        b = next(k for k, e in enumerate(deg) if e)
        below = deg[:b] + (deg[b] - 1,) + deg[b + 1 :]
        path.append((here, b, below))
        here = key(below)
        value = cache.get(here)
        deg = below
    if value is None:
        value = cache[here] = start()
    for up, b, below in reversed(path):
        value = cache[up] = step(value, b, below)
    return value


class PBWElement:
    """Finitely supported map from PBW monomials to nonzero coefficients.

    An immutable value: `terms` is never changed after construction, so the
    split by degree shift (`degree_split`) is built on first use and kept."""

    __slots__ = ("algebra", "terms", "_split")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms
        self._split = None

    def degree_split(self) -> tuple:
        """(shift, least |J|, frozenset of (term, coef) pairs) per degree
        shift |I| - |J| of the terms, in first-seen order.  The frozenset
        keys the element's Verma image (`act_on_verma_terms`) and caches its
        own hash, so the split is built and hashed once per element."""
        if self._split is None:
            by_shift: dict[int, list] = {}
            for term, coef in self.terms.items():
                ideg, _, jdeg = term
                by_shift.setdefault(sum(ideg) - sum(jdeg), []).append((term, coef))
            self._split = tuple(
                (shift, min(sum(j) for (_, _, j), _ in pairs), frozenset(pairs))
                for shift, pairs in by_shift.items()
            )
        return self._split

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self.algebra._coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v)
        return PBWElement(self.algebra, _settle(out))

    __radd__ = __add__

    def __neg__(self):
        return PBWElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.algebra._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return self.algebra.multiply(self, other)
        coef = Scalar.rational(other)
        if not coef:
            return self.algebra.zero()
        return PBWElement(self.algebra, {k: v * coef for k, v in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; element-element products use __mul__
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in the algebra")
        # out * base^k stays the power; only powers self^m with m <= k are
        # formed, each through multiply and so through the blow-up guard.  A
        # one-term base is squared; a longer one is multiplied in a factor at
        # a time, since squaring it straightens long y-words past long x-words.
        # out and base are powers of self and commute, so a factor goes in on
        # the side with fewer y-past-x swaps: straightening a * b makes about
        # |J|(a) * |I|(b) of them, |J| and |I| summed over the terms.  A tie
        # keeps out * base.  Each such product first adds its term pairs to
        # the count that MAX_POWER_PAIRS bounds.
        out, base, pairs = self.algebra.one(), self, 0
        while k:
            if k & 1 or len(base.terms) > 1:
                pairs += len(out.terms) * len(base.terms)
                if pairs > MAX_POWER_PAIRS:
                    raise PowerTooLarge(
                        f"the power multiplies more than MAX_POWER_PAIRS = "
                        f"{MAX_POWER_PAIRS} term pairs"
                    )
                ox, oy = _degree_sums(out)
                bx, by = _degree_sums(base)
                out, k = (out * base if oy * bx <= by * ox else base * out), k - 1
            else:
                base, k = base * base, k >> 1
        return out

    def __str__(self):
        return self.algebra.format_element(self)

    def __repr__(self):
        return f"<PBW {self}>"


class CherednikAlgebra:
    """A rational Cherednik algebra instance: the group action, a reflection
    function on it with its pseudo-reflections, and straightening caches.

    Instances are immutable after construction and multiplication is pure;
    the internal caches only ever gain entries whose values are determined
    by their keys, so concurrent products over one instance stay safe."""

    def __init__(
        self,
        group: GroupAction,
        c: ReflectionFunction,
        irreps=(),
        field_ell: int | None = None,
    ):
        if c.group is not group:
            raise ValueError("the reflection function is defined on another group")
        self.group = group
        self.dim = group.dimension
        self.reflections = c.reflections
        self.c = c
        self.irreps = list(irreps)
        for i, irr in enumerate(self.irreps):
            for prior in self.irreps[:i]:
                if prior.label == irr.label or prior.character == irr.character:
                    what = "label" if prior.label == irr.label else "character"
                    raise RepeatedIrrep(
                        f"irreps {prior.label!r} and {irr.label!r} have the same {what}"
                    )
        self.field_ell = field_ell if field_ell is not None else _data_field(self)
        self._zero_deg = (0,) * self.dim
        # (a, b) -> the pairs (s, c(s) alpha_s[a] alpha_s^v[b]) with a nonzero
        # coefficient, alpha_s = s.covector and alpha_s^v = s.vector: the
        # reflection terms of y_a x_b = x_b y_a + delta_ab - sum_s coef * s
        self.relation = {(a, b): [] for a in range(self.dim) for b in range(self.dim)}
        for r in self.reflections:
            value = c(r.index)
            for (a, b), pairs in self.relation.items():
                coef = value * r.covector[a] * r.vector[b]
                if coef:
                    pairs.append((r.index, coef))
        # the Euler coefficient kappa_s = 2c(s)/(1 - lambda_s^-1) per reflection
        self._kappa = {
            r.index: 2 * self.c(r.index) / (ONE - r.eigenvalue.inverse())
            for r in self.reflections
        }
        # M(g)^T, whose rows give the action on the y generators
        self._transposed = [tuple(zip(*m)) for m in group.matrices]
        self._act_a_cache: dict = {}
        self._act_b_cache: dict = {}
        self._single_cache: dict = {}
        self._ji_cache: dict = {}
        # (g1, J1, I2, g2) -> flat PBW image of g1 y^J1 x^I2 g2, filled by multiply
        self._pair_cache: dict = {}
        # frozenset of (term, coef) pairs -> {monomial: merged Verma image}
        self._verma_element_cache: dict = {}
        # (content, irrep index) pairs that some slice has applied, and
        # (content, irrep index) -> {monomial: resolved columns} for those a
        # second slice on that irrep applied, filled by category_o
        self._verma_applied: set = set()
        self._verma_resolved: dict = {}
        # degree n -> (monomials(dim, n) as a list, monomial -> position)
        self._mono_table: dict = {}
        # irrep label -> c_E for the listed irreps, filled by category_o
        self._c_table: dict = {}
        # k - 1 -> the Koszul table of Lambda^k h*, filled by category_o
        self._koszul: list = []
        # the terms of the Euler element and of its central part
        self._euler = self._central = None

    # -- element constructors -------------------------------------------

    def element(self, terms: dict | None = None) -> PBWElement:
        out: dict = {}
        for k, v in (terms or {}).items():
            coef = Scalar.rational(v)
            if coef:
                out[self._term(*k)] = coef
        return PBWElement(self, out)

    def _term(self, i, g: int, j) -> Term:
        """(I, g, J) with I and J as tuples; ValueError unless I and J are
        dim non-negative ints and g is an int in 0..|G|-1."""
        i, j = tuple(i), tuple(j)
        if not (len(i) == len(j) == self.dim and _naturals(i + j)):
            raise ValueError(f"multidegrees {i} and {j} are not {self.dim} non-negative ints each")
        if type(g) is not int or not 0 <= g < len(self.group):
            raise ValueError(f"group element {g} is outside 0..{len(self.group) - 1}")
        return i, g, j

    def zero(self) -> PBWElement:
        return PBWElement(self, {})

    def one(self) -> PBWElement:
        return self.monomial(self._zero_deg, 0, self._zero_deg)

    def monomial(self, i, g: int, j, coeff=ONE) -> PBWElement:
        term = self._term(i, g, j)
        coef = Scalar.rational(coeff)
        if not coef:
            return self.zero()
        return PBWElement(self, {term: coef})

    def x(self, i: int, power: int = 1) -> PBWElement:
        """The degree-raising generator x_i (1-based index)."""
        return self.monomial(self._unit(i, power, "x"), 0, self._zero_deg)

    def y(self, i: int, power: int = 1) -> PBWElement:
        """The degree-lowering generator y_i (1-based index)."""
        return self.monomial(self._zero_deg, 0, self._unit(i, power, "y"))

    def _unit(self, i: int, power: int, name: str) -> tuple:
        """dim entries, power at the 1-based place i and 0 elsewhere (a unit
        multidegree or direction); ValueError for i outside 1..dim."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"{name} index {i} is outside 1..{self.dim}")
        return self._zero_deg[: i - 1] + (power,) + self._zero_deg[i:]

    def g(self, index: int) -> PBWElement:
        return self.monomial(self._zero_deg, index, self._zero_deg)

    def scalar(self, value) -> PBWElement:
        return self.one() * value

    def _coerce(self, other) -> PBWElement:
        if isinstance(other, PBWElement):
            if other.algebra is not self:
                raise AlgebraMismatch("elements belong to different algebras")
            return other
        return self.scalar(other)

    # -- linear action on polynomial generators ---------------------------

    def act_on_x_monomial(self, g: int, deg: tuple) -> dict:
        """Expansion of g acting on the A-monomial x^deg (dual action):
        g(x_b) = sum_i M(g^-1)[b][i] x_i.  ValueError (`_check_action`)
        unless g is in 0..|G|-1 and deg is dim non-negative ints."""
        cached = self._act_a_cache.get((g, deg))
        if cached is not None:
            return cached
        self._check_action(g, deg)
        rows = self.group.matrices[self.group.inv(g)]
        return self._act_on_monomial(self._act_a_cache, rows, g, deg)

    def act_on_y_monomial(self, g: int, deg: tuple) -> dict:
        """Expansion of g acting on the B-monomial y^deg (matrix action):
        g(y_b) = sum_i M(g)[i][b] y_i, checked as `act_on_x_monomial`."""
        cached = self._act_b_cache.get((g, deg))
        if cached is not None:
            return cached
        self._check_action(g, deg)
        return self._act_on_monomial(self._act_b_cache, self._transposed[g], g, deg)

    def _check_action(self, g: int, deg: tuple) -> None:
        """ValueError unless g is an int in 0..|G|-1 and deg is dim
        non-negative ints; run only on a cache miss, so nothing invalid is
        ever cached."""
        if type(g) is not int or not 0 <= g < len(self.group):
            raise ValueError(f"group element {g} is outside 0..{len(self.group) - 1}")
        if not (len(deg) == self.dim and _naturals(deg)):
            raise ValueError(f"multidegree {deg} is not {self.dim} non-negative ints")

    def _act_on_monomial(self, cache: dict, rows, g: int, deg: tuple) -> dict:
        """Expansion of a monomial under the linear substitution sending the
        b-th generator to sum_i rows[b][i] (i-th generator), cached by
        (g, deg); the callers look the key up first."""

        def step(prev, b, _):
            row = rows[b]
            result: dict = {}
            for mono, coef in prev.items():
                for idx, entry in enumerate(row):
                    if entry:
                        up = list(mono)
                        up[idx] += 1
                        _accumulate(result, tuple(up), coef * entry)
            return _settle(result)

        zero_deg = self._zero_deg
        return _chain(cache, lambda d: (g, d), deg, lambda: {zero_deg: ONE}, step)

    # -- straightening ---------------------------------------------------

    def _straighten_single(self, a: int, ideg: tuple) -> dict:
        """PBW expansion of y_a * x^ideg as {(A, h, B): coeff}."""
        cached = self._single_cache.get((a, ideg))
        if cached is not None:
            return cached
        zero_deg = self._zero_deg

        def step(prev, b, rest):
            result: dict = {}
            # x_b * (y_a * x^rest)
            for (A, h, B), coef in prev.items():
                up = list(A)
                up[b] += 1
                _accumulate(result, (tuple(up), h, B), coef)
            # + delta_ab * x^rest
            if a == b:
                _accumulate(result, (rest, 0, zero_deg), ONE)
            # - sum over reflections
            for s_idx, coef in self.relation[a, b]:
                for mono, sub_coef in self.act_on_x_monomial(s_idx, rest).items():
                    _accumulate(result, (mono, s_idx, zero_deg), -coef * sub_coef)
            return _settle(result)

        def start():
            return {(zero_deg, 0, zero_deg[:a] + (1,) + zero_deg[a + 1 :]): ONE}

        return _chain(self._single_cache, lambda d: (a, d), ideg, start, step)

    def _straighten_ji(self, jdeg: tuple, ideg: tuple) -> dict:
        """PBW expansion of y^jdeg * x^ideg, filled along jdeg with ideg fixed
        as y_c * (y^(jdeg - e_c) * x^ideg)."""
        cached = self._ji_cache.get((jdeg, ideg))
        if cached is not None:
            return cached
        table, inv = self.group.mult_table, self.group.inv

        def step(prev, c, _):
            result: dict = {}
            # y_c * x^A h y^B = sum x^A2 h2 y^B2 h y^B, y^B2 h = h (h^-1 . y^B2)
            for (A, h, B), coef in prev.items():
                hinv = inv(h)
                for (A2, h2, B2), coef2 in self._straighten_single(c, A).items():
                    lead, gh = coef * coef2, table[h2][h]
                    for B3, coef3 in self.act_on_y_monomial(hinv, B2).items():
                        _accumulate(result, (A2, gh, _add_deg(B3, B)), lead * coef3)
            return _settle(result)

        zero_deg = self._zero_deg
        return _chain(
            self._ji_cache, lambda d: (d, ideg), jdeg, lambda: {(ideg, 0, zero_deg): ONE}, step
        )

    def monomial_table(self, n: int) -> tuple:
        """The degree-n monomials in `monomials(dim, n)` order and the map from
        each to its position; one shared table per algebra."""
        cached = self._mono_table.get(n)
        if cached is None:
            level = list(monomials(self.dim, n))
            cached = self._mono_table.setdefault(
                n, (level, {m: p for p, m in enumerate(level)})
            )
        return cached

    def _moved(self, g1: int, j1: tuple, i2: tuple):
        """The terms (A, h, B, coef) of g1 * y^j1 * x^i2 = sum coef * x^A h y^B,
        not merged: each term x^A h y^B of y^j1 x^i2 becomes (g1 . x^A) g1 h y^B,
        since g1 * x^A = (g1 . x^A) * g1; a y-free word enters no straightening cache."""
        left = self.group.mult_table[g1]
        terms = self._straighten_ji(j1, i2) if any(j1) else {(i2, 0, self._zero_deg): ONE}
        for (A, h, B), coef in terms.items():
            k = left[h]
            for A2, ca in self.act_on_x_monomial(g1, A).items():
                yield A2, k, B, coef * ca

    def act_on_verma_terms(self, terms: frozenset):
        """The image of sum coef * x^I g y^J over the (term, coef) pairs of
        `terms`, which share one degree shift |I| - |J|, on x^mono (x) w in a
        standard module, as a function of mono.  The image is a flat tuple
        (pos, h, coef, pos, h, coef, ...) meaning sum coef * x^M (x) h w, M
        the monomial at pos in `monomial_table` of degree |mono| + |I| - |J|,
        with the entries at one (pos, h) added and the cancelled ones
        dropped.  It is the y-free part (B = 0) of the moved terms of
        g y^J x^mono, shifted by I, and does not depend on w; a term with
        |J| > |mono| acts by zero.  One table from monomial to image is kept
        per distinct content of `terms`."""
        table = self._verma_element_cache.get(terms)
        if table is None:
            table = self._verma_element_cache[terms] = {}

        def merged_image(mono: tuple) -> tuple:
            cached = table.get(mono)
            if cached is not None:
                return cached
            size = sum(mono)
            merged: dict = {}
            for (ideg, g, jdeg), coef in terms:
                jtot = sum(jdeg)
                if jtot > size:
                    continue
                index = self.monomial_table(size + sum(ideg) - jtot)[1]
                shift_x = any(ideg)
                for A, h, B, c in self._moved(g, jdeg, mono):
                    if not any(B):
                        pos = index[_add_deg(ideg, A) if shift_x else A]
                        _accumulate(merged, (pos, h), coef * c)
            cached = table[mono] = tuple(
                x for (pos, h), c in _settle(merged).items() for x in (pos, h, c)
            )
            return cached

        return merged_image

    def _pair_image(self, g1: int, j1: tuple, i2: tuple, g2: int) -> tuple:
        """PBW form of g1 * y^j1 * x^i2 * g2 as a flat tuple
        (ell, E, A, k, B, n, A, k, B, n, ...) meaning sum (n / E) * x^A k y^B
        over Q(zeta_ell): the entries at one (A, k, B) added, the cancelled
        ones dropped, and each coefficient kept as its numerator n over the
        one image denominator E (`scalars._numerators`).  Each moved term
        x^A h y^B of g1 y^j1 x^i2 becomes x^A h g2 (g2^-1 . y^B), since
        y^B * g2 = g2 * (g2^-1 . y^B); cached by (g1, j1, i2, g2)."""
        key = (g1, j1, i2, g2)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        table, g2inv = self.group.mult_table, self.group.inv(g2)
        merged: dict = {}
        for A, h, B, coef in self._moved(g1, j1, i2):
            k = table[h][g2]
            for B2, cb in self.act_on_y_monomial(g2inv, B).items():
                _accumulate(merged, (A, k, B2), coef * cb)
        merged = _settle(merged)
        ell, den, nums = _numerators(merged.values())
        cached = self._pair_cache[key] = (ell, den) + tuple(
            x for (A, k, B), n in zip(merged, nums) for x in (A, k, B, n)
        )
        return cached

    def multiply(self, a: PBWElement, b: PBWElement) -> PBWElement:
        """Straightened product in PBW form: x^I1 g1 y^J1 * x^I2 g2 y^J2 is
        x^I1 (the pair image of (g1, J1, I2, g2)) y^J2.  Every term pair's
        image is fetched first, to fix one common denominator
        D = lcm(dens of a) * lcm(dens of b) * lcm(image denominators); each
        image entry then adds base * n in ints at (I1 + A, k, B + J2), base
        the pair's numerator c1 * c2 over D / E, and every output term is
        made one canonical Scalar at the end."""
        a = self._coerce(a)
        b = self._coerce(b)
        image = self._pair_image
        images = [image(g1, j1, i2, g2) for _, g1, j1 in a.terms for i2, g2, _ in b.terms]
        ell_a, den_a, nums_a = _numerators(a.terms.values())
        ell_b, den_b, nums_b = _numerators(b.terms.values())
        ell = _common_field([ell_a, ell_b, *(flat[0] for flat in images)])
        den_e = math.lcm(*(flat[1] for flat in images))
        out: dict = {}
        get = out.get
        images = iter(images)
        for (i1, _, _), n1 in zip(a.terms, nums_a):
            shift_x = any(i1)
            for (_, _, j2), n2 in zip(b.terms, nums_b):
                flat = iter(next(images))
                next(flat)
                shift_y, scale = any(j2), den_e // next(flat)
                base = _numerator_product(ell, _numerator_product(ell, n1, n2), scale)
                int_base = type(base) is int
                # a zero I1 or J2 keeps the image's degree tuples as they are
                for A, k, B, n in zip(flat, flat, flat, flat):
                    if shift_x:
                        A = _add_deg(i1, A)
                    if shift_y:
                        B = _add_deg(B, j2)
                    key = (A, k, B)
                    # a sum stays an int until its first irrational summand
                    acc = get(key, 0)
                    if int_base and type(n) is int:
                        if type(acc) is int:
                            out[key] = acc + base * n
                        else:
                            acc[0] += base * n
                        continue
                    n = _numerator_product(ell, base, n)
                    if type(acc) is int:
                        n[0] += acc
                        out[key] = n
                    else:
                        for t, c in enumerate(n):
                            acc[t] += c
        den = den_a * den_b * den_e
        terms = {
            key: _from_numerator(ell, num, den)
            for key, num in out.items()
            if (num if type(num) is int else any(num))
        }
        for coef in terms.values():
            check_coeff_bits(coef)
        return PBWElement(self, terms)

    # -- grading ----------------------------------------------------------

    def euler_element(self) -> PBWElement:
        """The deformed Euler element sum_i x_i y_i + dim/2 - sum_s kappa_s s,
        a fresh element over terms computed once (an element kept on the
        algebra would refer back to it)."""
        if self._euler is None:
            xy = sum((self.x(i) * self.y(i) for i in range(1, self.dim + 1)), self.zero())
            self._euler = (self.euler_central_part() + xy).terms
        return PBWElement(self, self._euler)

    def euler_central_part(self) -> PBWElement:
        """The degree-zero central summand dim/2 - sum_s kappa_s s, where
        kappa_s = 2c(s)/(1 - lambda_s^-1) and lambda_s is the eigenvalue on
        the coroot.  Equivalently 2c(s)/(1 - lambda) for the conormal
        eigenvalue; the two readings agree for real reflections.  Kept as
        terms, like `euler_element`."""
        if self._central is None:
            out = self.scalar(Scalar.rational(self.dim) / 2)
            for r in self.reflections:
                out = out - self.g(r.index) * self.reflection_coefficient(r)
            self._central = out.terms
        return PBWElement(self, self._central)

    def reflection_coefficient(self, r: PseudoReflection) -> Scalar:
        """The Euler coefficient kappa_s = 2c(s)/(1 - lambda_s^-1)."""
        return self._kappa[r.index]

    # -- text form ---------------------------------------------------------

    def format_element(self, el: PBWElement) -> str:
        if not el.terms:
            return "0"
        return signed_sum([format_term(term, coef) for term, coef in el.items()])

    def parse_element(self, text: str) -> PBWElement:
        """Parse the textual element syntax, e.g. ``3/2*x1^2*g2*y1 + 1``.

        Factors may appear in any order; the expression is evaluated as a
        product in the algebra, so non-canonical words straighten themselves.
        """
        return parse_expression(text, self._parse_atom, _invert_scalar_element, "element")

    def _parse_atom(self, kind: str, text: str | int):
        """An int or a name (z, x1, y2, g3) of the element syntax; None if unknown."""
        if kind == "int":
            return self.scalar(text)
        if text == "z":
            if self.field_ell <= 1:
                raise ExprError("z requires a cyclotomic coefficient field")
            return self.scalar(Scalar.zeta(self.field_ell))
        head, idx = text[0], decimal_int(text[1:])
        if head not in "xyg" or idx is None:
            return None
        if head == "x":
            if not 1 <= idx <= self.dim:
                raise ExprError(f"x index out of range in {text!r}")
            return self.x(idx)
        if head == "y":
            if not 1 <= idx <= self.dim:
                raise ExprError(f"y index out of range in {text!r}")
            return self.y(idx)
        if not 0 <= idx < len(self.group):
            raise ExprError(f"group index out of range in {text!r}")
        return self.g(idx)


def _data_field(alg: CherednikAlgebra) -> int:
    """Largest cyclotomic index carried by the algebra's defining data."""
    ells = {1}
    for mat in alg.group.matrices:
        ells |= {x.ell for row in mat for x in row}
    ells |= {r.eigenvalue.ell for r in alg.reflections}
    ells |= {v.ell for v in alg.c.values()}
    return max(ells)


def _invert_scalar_element(el: PBWElement) -> PBWElement:
    alg = el.algebra
    zero_key = (alg._zero_deg, 0, alg._zero_deg)
    if set(el.terms) != {zero_key}:
        raise ExprError("division is only defined by nonzero scalars")
    return alg.scalar(el.terms[zero_key].inverse())


def monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographic order."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            yield (first,) + rest
