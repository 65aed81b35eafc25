"""The rational Cherednik algebra as exact data: elements in the PBW basis
x^I * g * y^J (x = coordinate functions raising degree, y = vector fields
lowering degree), multiplication by straightening against the defining
relations, the deformed Euler element, and the inner Z-grading.

Straightening resolves one y-past-x inversion at a time:

    y_i * x_j = x_j * y_i + delta_ij - sum_s c(s) (y_i, alpha_s)(alpha_s^v, x_j) s

and moves group elements through polynomials by the linear action on the
generators.  Each step strictly decreases the inversion count, so rewriting
terminates; associativity is covered by the test suite.

A product x^I1 g1 y^J1 * x^I2 g2 y^J2 reads one cached pair image: the
PBW form of g1 y^J1 x^I2 g2, kept per (g1, J1, I2, g2) as a flat tuple, so
straightening and the group actions run once per distinct pair and a term
pair costs one Scalar product per image entry.
"""

from __future__ import annotations

import math
from operator import add

from .groups import GroupAction, PseudoReflection, ReflectionFunction, find_reflections
from .scalars import (
    Scalar,
    ZERO,
    ONE,
    CherednikError,
    ComputationLimit,
    ExprError,
    FieldMismatch,
    parse_expression,
)

Term = tuple  # (I, g, J): multidegree tuple, group index, multidegree tuple


class AlgebraMismatch(CherednikError, ValueError):
    """Operands belong to different algebra instances."""


class CoefficientBlowup(ComputationLimit):
    """A coefficient exceeded the configured bit-size guard."""


def term_sort_key(term: Term):
    i, g, j = term
    return (sum(i), i, g, sum(j), j)


def _add_deg(a, b):
    return tuple(map(add, a, b))


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
    """Finitely supported map from PBW monomials to nonzero coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

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
        coef = Scalar.rational(other) if not isinstance(other, Scalar) else other
        if not coef:
            return self.algebra.zero()
        return PBWElement(self.algebra, {k: v * coef for k, v in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; element-element products use __mul__
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in the algebra")
        if k == 0:
            return self.algebra.one()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def grade_decompose(self) -> dict:
        """Split into components of fixed inner degree |I| - |J|."""
        out: dict[int, dict] = {}
        for (i, g, j), coef in self.terms.items():
            out.setdefault(sum(i) - sum(j), {})[(i, g, j)] = coef
        return {
            n: PBWElement(self.algebra, terms) for n, terms in sorted(out.items())
        }

    def __str__(self):
        return self.algebra.format_element(self)

    def __repr__(self):
        return f"<PBW {self}>"


class CherednikAlgebra:
    """A rational Cherednik algebra instance: the group action, its
    pseudo-reflections, a reflection function, and straightening caches.

    Instances are immutable after construction and multiplication is pure;
    the internal caches only ever gain entries whose values are determined
    by their keys, so concurrent products over one instance stay safe."""

    def __init__(
        self,
        group: GroupAction,
        c: ReflectionFunction,
        irreps=(),
        reflections=None,
        field_ell: int | None = None,
        max_coeff_bits: int = 1_000_000,
    ):
        self.group = group
        self.dim = group.dimension
        self.reflections = (
            list(reflections) if reflections is not None else find_reflections(group)
        )
        self.c = c
        self.irreps = list(irreps)
        self.field_ell = field_ell if field_ell is not None else _data_field(self)
        self.max_coeff_bits = max_coeff_bits
        self._zero_deg = (0,) * self.dim
        # per-reflection data used by the commutation rule
        self._refl_data = [
            (r.index, self.c(r.index), r.covector, r.vector) for r in self.reflections
        ]
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
        self._verma_cache: dict = {}
        # frozenset of (term, coef) pairs -> {monomial: merged Verma image}
        self._verma_element_cache: dict = {}
        # degree n -> (monomials(dim, n) as a list, monomial -> position)
        self._mono_table: dict = {}
        self._molien: dict = {}
        # irrep label -> c_E for the listed irreps, filled by category_o
        self._c_table: dict = {}
        # whether the listed irreps are all of the group's, set by category_o
        self._table_complete: bool | None = None
        # (i, j) -> terms of uv, vu, uv - vu for the lattice generators, set by banach
        self._lattice_products: dict | None = None
        # PadicContext -> (i, j) -> valuation profiles of those products, set by banach
        self._lattice_profiles: dict = {}
        self._euler = None

    # -- element constructors -------------------------------------------

    def element(self, terms: dict | None = None) -> PBWElement:
        out: dict = {}
        for k, v in (terms or {}).items():
            i, g, j = k
            coef = v if isinstance(v, Scalar) else Scalar.rational(v)
            if coef:
                out[(tuple(i), g, tuple(j))] = coef
        return PBWElement(self, out)

    def zero(self) -> PBWElement:
        return PBWElement(self, {})

    def one(self) -> PBWElement:
        return self.monomial(self._zero_deg, 0, self._zero_deg)

    def monomial(self, i, g: int, j, coeff=1) -> PBWElement:
        coef = coeff if isinstance(coeff, Scalar) else Scalar.rational(coeff)
        if not coef:
            return self.zero()
        return PBWElement(self, {(tuple(i), g, tuple(j)): coef})

    def x(self, i: int, power: int = 1) -> PBWElement:
        """The degree-raising generator x_i (1-based index)."""
        deg = [0] * self.dim
        deg[i - 1] = power
        return self.monomial(tuple(deg), 0, self._zero_deg)

    def y(self, i: int, power: int = 1) -> PBWElement:
        """The degree-lowering generator y_i (1-based index)."""
        deg = [0] * self.dim
        deg[i - 1] = power
        return self.monomial(self._zero_deg, 0, tuple(deg))

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
        g(x_b) = sum_i M(g^-1)[b][i] x_i."""
        rows = self.group.matrices[self.group.inv(g)]
        return self._act_on_monomial(self._act_a_cache, rows, g, deg)

    def act_on_y_monomial(self, g: int, deg: tuple) -> dict:
        """Expansion of g acting on the B-monomial y^deg (matrix action):
        g(y_b) = sum_i M(g)[i][b] y_i."""
        return self._act_on_monomial(self._act_b_cache, self._transposed[g], g, deg)

    def _act_on_monomial(self, cache: dict, rows, g: int, deg: tuple) -> dict:
        """Expansion of a monomial under the linear substitution sending the
        b-th generator to sum_i rows[b][i] (i-th generator); cached by (g, deg)."""
        cached = cache.get((g, deg))
        if cached is not None:
            return cached

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
            for s_idx, c_val, alpha, coroot in self._refl_data:
                coef = c_val * alpha[a] * coroot[b]
                if not coef:
                    continue
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

    def _straighten(self, jdeg: tuple, ideg: tuple) -> dict:
        """PBW expansion of y^jdeg * x^ideg; a y-free word is already in PBW
        form and stores nothing in the y^J x^I cache."""
        if any(jdeg):
            return self._straighten_ji(jdeg, ideg)
        return {(ideg, self.group.identity, self._zero_deg): ONE}

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

    def act_on_verma_monomial(self, term: Term, mono: tuple) -> tuple:
        """Image of the PBW monomial x^I g y^J on x^mono (x) w in a standard
        module, as a flat tuple (pos, h, coef, pos, h, coef, ...) meaning
        sum coef * x^M (x) h w, M the monomial at pos in `monomial_table` of
        degree |mono| + |I| - |J|.  It comes from the y-free terms of
        y^J x^mono moved past g, does not depend on w, and is cached by
        (term, mono).  Empty when |J| > |mono|."""
        key = (term, mono)
        cached = self._verma_cache.get(key)
        if cached is not None:
            return cached
        ideg, g, jdeg = term
        degree = sum(mono) + sum(ideg) - sum(jdeg)
        merged: dict = {}
        if sum(jdeg) <= sum(mono):
            table = self.group.mult_table[g]
            # x^I g y^J x^mono = sum x^I (g . x^A) gh over the terms x^A h
            for (A, h, B), scoef in self._straighten(jdeg, mono).items():
                if any(B):
                    continue
                for A2, ca in self.act_on_x_monomial(g, A).items():
                    _accumulate(merged, (_add_deg(ideg, A2), table[h]), scoef * ca)
            merged = _settle(merged)
        index = self.monomial_table(degree)[1] if merged else None
        result = tuple(
            x for (M, h), coef in merged.items() for x in (index[M], h, coef)
        )
        self._verma_cache[key] = result
        return result

    def act_on_verma_terms(self, terms: frozenset):
        """The image of sum coef * x^I g y^J over the (term, coef) pairs of
        `terms`, which share one degree shift |I| - |J|, as a function of
        the monomial x^mono.  It returns the flat tuple of
        `act_on_verma_monomial` with the coefficients folded in, the entries
        at one (pos, h) added and the cancelled ones dropped.  One table
        from monomial to image is kept per distinct content of `terms`."""
        table = self._verma_element_cache.get(terms)
        if table is None:
            table = self._verma_element_cache[terms] = {}
        image = self.act_on_verma_monomial

        def merged_image(mono: tuple) -> tuple:
            cached = table.get(mono)
            if cached is not None:
                return cached
            merged: dict = {}
            for term, coef in terms:
                flat = image(term, mono)
                for t in range(0, len(flat), 3):
                    _accumulate(merged, flat[t : t + 2], coef * flat[t + 2])
            cached = table[mono] = tuple(
                x for (pos, h), c in _settle(merged).items() for x in (pos, h, c)
            )
            return cached

        return merged_image

    def _pair_image(self, g1: int, j1: tuple, i2: tuple, g2: int) -> tuple:
        """PBW form of g1 * y^j1 * x^i2 * g2 as a flat tuple
        (A, k, B, coef, A, k, B, coef, ...) meaning sum coef * x^A k y^B, with
        the entries at one (A, k, B) added and the cancelled ones dropped.
        Each term x^A h y^B of y^j1 x^i2 becomes (g1 . x^A) g1 h g2
        (g2^-1 . y^B); cached by (g1, j1, i2, g2)."""
        key = (g1, j1, i2, g2)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        table = self.group.mult_table
        left, g2inv = table[g1], self.group.inv(g2)
        merged: dict = {}
        for (A, h, B), coef in self._straighten(j1, i2).items():
            k = table[left[h]][g2]
            on_y = self.act_on_y_monomial(g2inv, B).items()
            # g1 * x^A = (g1 . x^A) * g1 and y^B * g2 = g2 * (g2^-1 . y^B)
            for A2, ca in self.act_on_x_monomial(g1, A).items():
                lead = coef * ca
                for B2, cb in on_y:
                    _accumulate(merged, (A2, k, B2), lead * cb)
        cached = self._pair_cache[key] = tuple(
            x for (A, k, B), c in _settle(merged).items() for x in (A, k, B, c)
        )
        return cached

    def multiply(self, a: PBWElement, b: PBWElement) -> PBWElement:
        """Straightened product in PBW form: x^I1 g1 y^J1 * x^I2 g2 y^J2 is
        x^I1 (the pair image of (g1, J1, I2, g2)) y^J2."""
        a = self._coerce(a)
        b = self._coerce(b)
        image = self._pair_image
        out: dict = {}
        for (i1, g1, j1), c1 in a.terms.items():
            shift_x = any(i1)
            for (i2, g2, j2), c2 in b.terms.items():
                base, shift_y = c1 * c2, any(j2)
                flat = iter(image(g1, j1, i2, g2))
                # a zero I1 or J2 keeps the image's degree tuples as they are
                for A, k, B, coef in zip(flat, flat, flat, flat):
                    if shift_x:
                        A = _add_deg(i1, A)
                    if shift_y:
                        B = _add_deg(B, j2)
                    _accumulate(out, (A, k, B), base * coef)
        out = _settle(out)
        self._check_blowup(out)
        return PBWElement(self, out)

    def _check_blowup(self, terms: dict):
        limit = self.max_coeff_bits
        for coef in terms.values():
            if coef.den.bit_length() > limit or any(
                abs(c).bit_length() > limit for c in coef.coeffs
            ):
                raise CoefficientBlowup(
                    f"coefficient exceeds {limit} bits; raise max_coeff_bits"
                )

    # -- grading ----------------------------------------------------------

    def euler_element(self) -> PBWElement:
        """The deformed Euler element sum_i x_i y_i + dim/2 - sum_s kappa_s s."""
        if self._euler is None:
            self._euler = self.euler_central_part() + sum(
                (
                    self.monomial(
                        tuple(1 if k == i else 0 for k in range(self.dim)),
                        0,
                        tuple(1 if k == i else 0 for k in range(self.dim)),
                    )
                    for i in range(self.dim)
                ),
                self.zero(),
            )
        return self._euler

    def euler_central_part(self) -> PBWElement:
        """The degree-zero central summand dim/2 - sum_s kappa_s s, where
        kappa_s = 2c(s)/(1 - lambda_s^-1) and lambda_s is the eigenvalue on
        the coroot.  Equivalently 2c(s)/(1 - lambda) for the conormal
        eigenvalue; the two readings agree for real reflections."""
        out = self.scalar(Scalar.rational(self.dim) / 2)
        for r in self.reflections:
            out = out - self.g(r.index) * self.reflection_coefficient(r)
        return out

    def ad_euler(self, x: PBWElement) -> PBWElement:
        """Commutator with the Euler element; scales each PBW monomial by its degree."""
        e = self.euler_element()
        return self.multiply(e, x) - self.multiply(x, e)

    def reflection_coefficient(self, r: PseudoReflection) -> Scalar:
        """The Euler coefficient kappa_s = 2c(s)/(1 - lambda_s^-1)."""
        return self._kappa[r.index]

    def molien_coefficients(self, g: int, cutoff: int) -> list:
        """Traces h_0..h_cutoff of g on the degree slices of A, the Molien
        series 1/det(1 - t g|h*), by Newton's identity
        n h_n = sum_{k=1..n} tr(g^k|h*) h_{n-k}; g acts on the x's through
        M(g^-1), so tr(g^k|h*) = tr M(g^-k)."""
        h = self._molien.get(g, [])
        if len(h) <= cutoff:
            group, power, traces = self.group, self.group.identity, [None]
            for _ in range(cutoff):
                power = group.mul(power, group.inv(g))
                mat = group.matrices[power]
                traces.append(sum((mat[i][i] for i in range(self.dim)), ZERO))
            h = [ONE]
            for n in range(1, cutoff + 1):
                h.append(sum((traces[k] * h[n - k] for k in range(1, n + 1)), ZERO) / n)
            self._molien[g] = h
        return h[: cutoff + 1]

    # -- text form ---------------------------------------------------------

    def format_element(self, el: PBWElement) -> str:
        if not el.terms:
            return "0"
        chunks = []
        for (i, g, j), coef in el.items():
            factors = []
            for k, e in enumerate(i):
                if e:
                    factors.append(f"x{k + 1}" + (f"^{e}" if e > 1 else ""))
            if g != 0:
                factors.append(f"g{g}")
            for k, e in enumerate(j):
                if e:
                    factors.append(f"y{k + 1}" + (f"^{e}" if e > 1 else ""))
            negative = coef.is_rational and coef.as_fraction() < 0
            mag = -coef if negative else coef
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != ONE:
                body = f"{mag}*{body}"
            chunks.append((negative, body))
        neg, body = chunks[0]
        text = ("-" if neg else "") + body
        for neg, body in chunks[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def parse_element(self, text: str) -> PBWElement:
        """Parse the textual element syntax, e.g. ``3/2*x1^2*g2*y1 + 1``.

        Factors may appear in any order; the expression is evaluated as a
        product in the algebra, so non-canonical words straighten themselves.
        """
        return parse_expression(text, self._parse_atom, _invert_scalar_element, "element")

    def _parse_atom(self, kind: str, text: str):
        """An int or a name (z, x1, y2, g3) of the element syntax; None if unknown."""
        if kind == "int":
            return self.scalar(int(text))
        if text == "z":
            if self.field_ell <= 1:
                raise ExprError("z requires a cyclotomic coefficient field")
            return self.scalar(Scalar.zeta(self.field_ell))
        head, digits = text[0], text[1:]
        if head not in "xyg" or not digits.isdigit():
            return None
        idx = int(digits)
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
