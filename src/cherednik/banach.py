"""Level-m Banach completions of the algebra: weighted Gauss norms, the
lattice condition certifying the lowering weight r(m), weight-space
decompositions of norm-truncated elements, analytic Verma slices with
operator-norm certificates, and cross-level compatibility of families.

Norms are never materialized as real numbers; everything is an integer
exponent of the uniformizer, which is the prime itself (the coefficient
field is unramified for every supported group family).  The lattice check
is in closed form from the Cherednik relation for y_i x_j: no products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category_o import VermaSlice
from .groups import Irrep
from .pbw import CherednikAlgebra, PBWElement
from .scalars import INF, ONE, ComputationLimit, PadicContext, Scalar, Valuation, val


class TailDominated(ComputationLimit, ArithmeticError):
    """No exact stored weight is at or below every inexact bound and the
    tail bound; the norm is only known to lie in [bound, infinity).
    Increase the precision."""

    def __init__(self, bound):
        super().__init__(f"norm is tail-dominated: only >= {bound} is known")
        self.bound = bound


class PrecisionExhausted(ComputationLimit):
    """A result rests on valuations that exhausted the working precision, so
    it is undecided: rho_c, or a lattice check whose violations all do."""


class UnboundedGenerator(ComputationLimit):
    """A generator has negative operator-norm exponent on the unit lattice."""


# the highest level a tower is built to; the largest recorded job reaches 30
MAX_LEVEL = 10_000


class LevelTooHigh(ComputationLimit):
    """A level tower would be built past MAX_LEVEL."""


@dataclass(frozen=True)
class LevelParams:
    """One Banach level: the polynomial weight m, the derived lowering
    weight r (strictly increasing in m), and the p-adic context."""

    level: int
    r: int
    ctx: PadicContext

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.r < 1:
            raise ValueError("the lowering weight r must be a positive integer")


class BanachElement:
    """A norm-truncated element: exact stored PBW terms at one level, plus a
    tail bound tau meaning every omitted term has weighted valuation >= tau."""

    __slots__ = ("algebra", "params", "terms", "tau", "weighted")

    def __init__(self, algebra, params: LevelParams, terms: dict, tau: int, weighted: dict):
        self.algebra = algebra
        self.params = params
        self.terms = terms
        self.tau = tau
        # term -> (weighted valuation, exact) of every stored term
        self.weighted = weighted

    @classmethod
    def from_pbw(
        cls, element: PBWElement, params: LevelParams, tau: int | None = None
    ) -> "BanachElement":
        if tau is None:
            tau = params.ctx.precision
        if tau == INF:
            raise ValueError("the tail bound must be finite")
        m, r, ctx = params.level, params.r, params.ctx
        kept, weighted = {}, {}
        for term, coeff in element.terms.items():
            # v_p(coeff) - m|I| - r|J|, and whether that valuation is exact
            v = val(coeff, ctx)
            w = v.value - m * sum(term[0]) - r * sum(term[2])
            if w < tau:
                kept[term] = coeff
                weighted[term] = w, v.exact
        return cls(element.algebra, params, kept, tau, weighted)

    def to_pbw(self) -> PBWElement:
        return PBWElement(self.algebra, dict(self.terms))

    def min_weight(self) -> float:
        return min((w for w, _ in self.weighted.values()), default=INF)

    def __eq__(self, other):
        if not isinstance(other, BanachElement):
            return NotImplemented
        return (
            self.params == other.params
            and self.terms == other.terms
            and self.tau == other.tau
        )

    def __mul__(self, other):
        if not isinstance(other, BanachElement):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("operands live at different levels")
        prod = self.to_pbw() * other.to_pbw()
        # every omitted term of ab comes from a tail times a stored part or
        # a tail: tau(ab) = min(tau_a + minw(b), tau_b + minw(a), tau_a + tau_b)
        tau = min(
            self.tau + other.min_weight(), other.tau + self.min_weight(), self.tau + other.tau
        )
        return BanachElement.from_pbw(prod, self.params, int(tau))

    def __add__(self, other):
        if not isinstance(other, BanachElement):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("operands live at different levels")
        return BanachElement.from_pbw(
            self.to_pbw() + other.to_pbw(), self.params, min(self.tau, other.tau)
        )

    def __repr__(self):
        return f"<Banach level={self.params.level} tau={self.tau} {self.to_pbw()}>"


def _least(values) -> tuple:
    """(e, b) over a collection of (value, exact) pairs: e the least exact
    value and b the least inexact bound, each INF when there is none.  The
    least value is certified to be e exactly when e <= b."""
    exact = min((v for v, ex in values if ex), default=INF)
    bound = min((v for v, ex in values if not ex), default=INF)
    return exact, bound


def gauss_norm(x: BanachElement) -> int:
    """The norm exponent: the least weighted valuation of the element.
    With e the least exact stored weight and b the lesser of the least
    inexact stored bound and tau (`_least`), it is e when e <= b; otherwise
    only >= b is known and TailDominated(b) is raised (the remedy is to
    increase the precision)."""
    exact, bound = _least(x.weighted.values())
    bound = min(bound, x.tau)
    if exact > bound:
        raise TailDominated(int(bound))
    return int(exact)


def rho_c(algebra: CherednikAlgebra, ctx: PadicContext) -> int:
    """Valuation defect of the Euler reflection coefficients: the amount by
    which r(m) must exceed m so the weighted Dunkl data is integral.

    With e the least exact valuation of the coefficients and b the least
    inexact bound (`_least`), it is max(0, -e) when b >= min(e, 0);
    otherwise the precision decides nothing and PrecisionExhausted is
    raised."""
    vals = [val(algebra.reflection_coefficient(r), ctx) for r in algebra.reflections]
    exact, bound = _least([(v.value, v.exact) for v in vals])
    if bound < min(exact, 0):
        raise PrecisionExhausted(
            f"rho_c is undecided at precision {ctx.precision}: a reflection "
            f"coefficient has valuation >= {bound} only; raise the precision"
        )
    return 0 if exact >= 0 else -int(exact)


@dataclass
class LatticeReport:
    """The (product or commutator, norm exponent) pairs of one level that
    escape the unit ball."""

    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


class _Valuations(dict):
    """Scalar -> its valuation in one context; val is taken once per
    distinct value."""

    def __init__(self, ctx: PadicContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, x: Scalar):
        v = self[x] = val(x, self.ctx)
        return v


def lattice_check(algebra: CherednikAlgebra, ctx: PadicContext, m: int, r: int) -> LatticeReport:
    """Verify that all pairwise products and commutators of the weighted
    generators p^m x_j, g, p^r y_i stay in the unit ball, in closed form.

    A term coeff * x^I g y^J of (p^a u)(p^b v) has the weight
    v_p(coeff) + a + b - m|I| - r|J|.  Other than g x_j, y_i g and y_i x_j,
    a product of two generators is one PBW word with coefficient 1, of
    weight 0.  The coefficients of g x_j and y_i g are entries of the group
    matrices, algebraic integers (enumerate_group rejects non-integral
    generators), so their weights are >= 0; an inexact valuation is the
    bound precision >= 1.  The Cherednik relation
    y_i x_j = x_j y_i + delta_ij - sum_s c(s) alpha_s(y_i) alpha_s^v(x_j) s,
    whose reflection coefficients are the algebra's `relation` table, gives
    x_j y_i the weight 0 and delta_ij and each reflection term the weight
    m + r plus the valuation of its coefficient.  So a negative weight shows
    up in p^r y_i * p^m x_j, [p^m x_j, p^r y_i] and [p^r y_i, p^m x_j], with
    the same least weight and exact flags.  A violation whose negative
    weights all rest on inexact valuations is undecided; when no violation
    is certified, PrecisionExhausted is raised."""
    dim, vals = algebra.dim, _Valuations(ctx)
    x, y = f"p^{m}*x", f"p^{r}*y"
    # (j, i) -> (least weight, certified) where y_i x_j has a negative weight
    bad = {}
    for j in range(dim):
        for i in range(dim):
            vs = [vals[coef] for _, coef in algebra.relation[i, j]]
            vs += [Valuation(0)] if i == j else []
            neg = [(v.value + m + r, v.exact) for v in vs if v.value + m + r < 0]
            if neg:
                bad[j, i] = int(min(neg)[0]), any(exact for _, exact in neg)
    violations = [(f"[{x}{j + 1}, {y}{i + 1}]", w) for (j, i), (w, _) in bad.items()]
    for j, i in sorted(bad, key=lambda ji: ji[::-1]):
        w = bad[j, i][0]
        violations += [(f"{y}{i + 1} * {x}{j + 1}", w), (f"[{y}{i + 1}, {x}{j + 1}]", w)]
    if bad and not any(certified for _, certified in bad.values()):
        name, weight = violations[0]
        raise PrecisionExhausted(
            f"lattice check at level {m}, r = {r} is undecided at precision "
            f"{ctx.precision}: {name} has norm exponent >= {weight} only; "
            "raise the precision"
        )
    return LatticeReport(violations)


def level_tower(algebra: CherednikAlgebra, ctx: PadicContext, top: int) -> list:
    """LevelParams for levels 0..top, level m with r = m + max(1, rho_c).

    Write s - 1 = u beta^T, so <beta, u> = lambda_s - 1, and let q be the
    first nonzero coordinate of beta: alpha_s = beta / beta_q and
    alpha_s^v = 2 beta_q u / (lambda_s - 1), so each relation coefficient
    is c(s) alpha_s[a] alpha_s^v[b] = kappa_s (s - 1)[b][a] / lambda_s.
    The group matrices are integral and lambda_s is a root of unity, so its
    valuation v is >= v(kappa_s) >= -rho_c.  A lattice-check weight
    v + m + r = v + 2m + max(1, rho_c) is least at level 0, so the one
    check there certifies every level; its failing would contradict the
    identity, a bug (RuntimeError).  A top above MAX_LEVEL raises
    LevelTooHigh at once."""
    if top > MAX_LEVEL:
        raise LevelTooHigh(f"level {top} is above the limit MAX_LEVEL = {MAX_LEVEL}")
    r0 = max(1, rho_c(algebra, ctx))
    if top >= 0 and not lattice_check(algebra, ctx, 0, r0).passed:
        raise RuntimeError(f"the lattice check fails at level 0 with r = {r0} = max(1, rho_c)")
    return [LevelParams(m, m + r0, ctx) for m in range(top + 1)]


def weight_decompose_banach(x: BanachElement) -> dict:
    """Weight -> component, in increasing weight: the stored terms of each
    degree shift |I| - |J| (`PBWElement.degree_split`), with the level, tail
    bound and weights kept.  So a component's norm exponent is at least the
    element's, and the components, on disjoint terms, add up (`+`) to it."""
    return {
        shift: BanachElement(
            x.algebra, x.params, dict(pairs), x.tau, {t: x.weighted[t] for t, _ in pairs}
        )
        for shift, _, pairs in sorted(x.to_pbw().degree_split())
    }


def transition(x: BanachElement, target: LevelParams) -> BanachElement:
    """Identity on coefficients from level m+1 down to level m; the tail
    bound carries over because per-term weights only grow downward."""
    if target.ctx != x.params.ctx:
        raise ValueError("transition must stay within one p-adic context")
    if target.level != x.params.level - 1:
        raise ValueError(
            f"transition maps level {x.params.level} to {x.params.level - 1}, "
            f"not {target.level}"
        )
    if target.r > x.params.r:
        raise ValueError("the lowering weights must decrease with the level")
    return BanachElement.from_pbw(x.to_pbw(), target, x.tau)


def coadmissible_check(family) -> int | None:
    """The first level whose member does not match the one below it under
    the transition map, or None when consecutive members all match; the
    family then represents one element of the inverse-limit algebra."""
    members = sorted(family, key=lambda x: x.params.level)
    for low, high in zip(members, members[1:]):
        if high.params.level != low.params.level + 1:
            raise ValueError("family levels must be consecutive")
        if transition(high, low.params).terms != low.terms:
            return high.params.level
    return None


@dataclass
class AnalyticVermaSlice:
    """A Verma slice with level norms: per-degree unit lattices are spanned
    by p^(m n) times the monomial basis, generator operator-norm exponents
    are certified nonnegative, and the finite-weight vectors recover the
    algebraic slice."""

    slice: VermaSlice
    params: LevelParams
    generator_norms: dict
    ws_recovered: bool


def analytic_verma_slice(
    algebra: CherednikAlgebra, irrep: Irrep, ctx: PadicContext, level: int, cutoff: int
) -> AnalyticVermaSlice:
    """The Verma slice of the irrep at one level of the tower (`level_tower`,
    whose every entry has passed the lattice check), with the operator-norm
    exponent of each weighted generator on the unit lattice and whether the
    Euler element acts on degree n by c_lambda + n.  The x and g exponents
    have closed forms; only the y images and the Euler element are read."""
    params = level_tower(algebra, ctx, level)[level]
    slice_ = VermaSlice(algebra, irrep, cutoff)
    m, r = params.level, params.r
    vals = _Valuations(ctx)
    # x_i sends x^M (x) w to x^(M + e_i) (x) w with coefficient 1, so p^m x_i
    # has the exponent m - m * 1 = 0 whenever degree 1 is in range
    norms: dict[str, float] = {}
    if cutoff:
        norms.update((f"p^{m}*x{i + 1}", 0) for i in range(algebra.dim))
    # g sends 1 (x) w to 1 (x) rho(g) w, and x^M (x) w to a sum of
    # coef * x^A (x) rho(g) w with every coef an algebraic integer (the group
    # matrices are integral), whose valuation is >= 0; so the least
    # valuation of a nonzero entry of rho(g) is the exponent.  It is <= 0,
    # and 0 exactly when rho(g) is p-integral.
    for g, matrix in enumerate(irrep.matrices):
        norms[f"g{g}"] = min(vals[e].value for row in matrix for e in row if e)

    # the exponent of p^r y_i on the unit column col of degree n: the least
    # valuation of its image entries (each sums over group elements before it
    # is valued) plus r (the shift adds to a valuation), plus m for the
    # degree it lowers; each distinct entry value is valued once
    ys = [(f"p^{r}*y{i + 1}", y) for i, y in enumerate(slice_._ys)]
    euler = algebra.euler_element()
    recovered = True
    for n in range(cutoff + 1):
        # the Euler element acts on degree n by c_lambda + n
        weight = slice_.c_value + n
        for col in range(slice_.full_dim(n)):
            unit = {col: ONE}
            if n:
                for name, y in ys:
                    entries = slice_._apply(y, n, unit, {})[n - 1].values()
                    least = min((vals[v].value for v in entries), default=INF)
                    norms[name] = min(norms.get(name, INF), least + r + m)
            if slice_._apply(euler, n, unit, {})[n] != ({col: weight} if weight else {}):
                recovered = False

    offenders = {k: v for k, v in norms.items() if v < 0}
    if offenders:
        name, exp = sorted(offenders.items())[0]
        fault = "it sends a unit vector off the unit lattice"
        if name.startswith("g"):
            fault = f"rho({name}) has an entry of negative valuation"
        raise UnboundedGenerator(
            f"generator {name} has operator-norm exponent {exp}; "
            f"{fault} at p = {ctx.prime} in irrep {irrep.label!r}"
        )

    generator_norms = {k: (int(v) if v != INF else 0) for k, v in norms.items()}
    return AnalyticVermaSlice(slice_, params, generator_norms, recovered)
