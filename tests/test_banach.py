"""Weighted Gauss norms, lattice checks, weight decompositions, level
transitions, analytic Verma slices, and co-admissible families."""

import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from cherednik import banach, cli, linalg
from cherednik.banach import (
    MAX_LEVEL,
    BanachElement,
    LatticeReport,
    LevelParams,
    LevelTooHigh,
    PrecisionExhausted,
    TailDominated,
    UnboundedGenerator,
    analytic_verma_slice,
    coadmissible_check,
    gauss_norm,
    lattice_check,
    level_tower,
    rho_c,
    transition,
    weight_decompose_banach,
)
from cherednik.category_o import (
    VermaSlice,
    mv_eq,
    mv_scale,
    simple_quotient_slice,
    verma_action,
)
from cherednik.groups import irrep_from_generators
from cherednik.scalars import INF, ONE, PadicContext, Scalar, ZERO, val
from helpers import ad_euler, cli_job, make_algebra, random_banach


CTX5 = PadicContext(5, 64)
# one value per reflection class of cyclic:6 over Q(zeta_6), whose
# reflections are not real: their Euler coefficients kappa_s differ from c(s)
CYCLIC6_C = [
    Fraction(1, 7), Fraction(2, 343), Scalar.zeta(6) / 7, 1, (ONE - Scalar.zeta(6)) / 49
]


# every built-in group, each over the field of its order
BUILTIN_SPECS = (
    [(f"cyclic:{n}", n) for n in range(1, 13)]
    + [(f"dihedral:{n}", n) for n in range(3, 9)]
    + [("s3", 1), ("s4", 1)]
)


def params_for(alg, ctx, m):
    return level_tower(alg, ctx, m)[m]


def term_weight(coeff, term, m, r, ctx):
    """Oracle: the weighted valuation v_p(coeff) - m|I| - r|J| of one PBW
    term, read from `val` alone; a lower bound when the valuation exhausts
    the working precision."""
    return val(coeff, ctx).value - m * sum(term[0]) - r * sum(term[2])


class TestGaussNorm:
    def test_unit_norm(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = params_for(alg, CTX5, 0)
        assert gauss_norm(BanachElement.from_pbw(alg.one(), params)) == 0

    def test_raising_generator_at_level_one(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = params_for(alg, CTX5, 1)
        assert gauss_norm(BanachElement.from_pbw(alg.x(1), params)) == -1
        assert gauss_norm(BanachElement.from_pbw(alg.x(1) * 5, params)) == 0

    def test_tail_dominated(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = params_for(alg, CTX5, 0)
        with pytest.raises(TailDominated):
            gauss_norm(BanachElement.from_pbw(alg.zero(), params))
        tiny = BanachElement.from_pbw(alg.scalar(5**70), params)
        assert tiny.terms == {}
        with pytest.raises(TailDominated) as err:
            gauss_norm(tiny)
        assert err.value.bound == CTX5.precision

    @pytest.mark.parametrize(
        "element, shown",
        [
            ("(z - 3)*x1^2 + 121*(z-3)*y1", "tail-dominated (>= 0)"),
            ("11*x1 + 121*(z - 3)*y1", "0"),
        ],
    )
    def test_the_norm_job_prints_only_certified_exponents(self, tmp_path, element, shown):
        # z - 3 vanishes modulo 11^2, so at precision 2 both (z - 3) terms
        # weigh >= 0 only (precision 64 finds the x1^2 term at exactly 0):
        # an exact weight is the norm only when no inexact bound lies below
        # it, whichever term sorts first
        cfg, out = tmp_path / "norm.cfg", tmp_path / "norm.tsv"
        cfg.write_text(
            "group = dihedral:5\nfield = cyclotomic:5\nc = 1/5\nprime = 11\n"
            f"precision = 2\nlevel = 1\nelement = {element}\n"
        )
        assert cli.main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"# norm_exponent: {shown}\n" in out.read_text(encoding="utf-8")

    def test_a_product_of_two_tails_bounds_its_omitted_terms(self):
        # x1 weighs -1 at level 1, so with tau = -1 nothing is stored, yet
        # the omitted x1^2 of the product weighs -2
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        a = BanachElement.from_pbw(alg.x(1), params_for(alg, CTX5, 1), tau=-1)
        assert a.terms == {}
        assert (a * a).tau == -2

    def test_each_term_is_valued_once(self, monkeypatch):
        # the norm job reads weights, the least weight and the norm of one
        # element, and ws-decompose the norms of its components
        alg = make_algebra("dihedral:5", 5, [Fraction(1, 5)])
        ctx = PadicContext(11, 64, 5)
        params = params_for(alg, ctx, 1)
        element = (alg.x(1) + alg.y(2) * Scalar.zeta(5) + alg.g(2)) ** 3
        calls = []
        monkeypatch.setattr(banach, "val", lambda x, c: calls.append(x) or val(x, c))
        x = BanachElement.from_pbw(element, params)
        assert set(x.weighted) == set(x.terms)
        x.min_weight()
        norm = gauss_norm(x)
        for component in weight_decompose_banach(x).values():
            assert gauss_norm(component) >= norm
        assert len(calls) == len(element.terms)

    def test_submultiplicative_sample(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        rng = random.Random(1)
        for m in (0, 1, 2):
            params = params_for(alg, CTX5, m)
            for _ in range(60):
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
                    assert prod.tau >= na + nb

    def test_triangular_decomposition_isometry(self):
        # the norm equals the max over the three tensor legs, i.e. the
        # exponent is the min over terms of v(coeff) - m|I| - r|J|
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        rng = random.Random(2)
        params = params_for(alg, CTX5, 1)
        for _ in range(40):
            el = random_banach(alg, params, rng)
            if not el.terms:
                continue
            manual = min(
                val(coeff, CTX5).value
                - params.level * sum(term[0])
                - params.r * sum(term[2])
                for term, coeff in el.terms.items()
            )
            assert gauss_norm(el) == manual


class TestChooseR:
    def test_rho_values(self):
        alg_half = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        alg_fifth = make_algebra("cyclic:2", 1, [Fraction(1, 5)])
        alg_zero = make_algebra("cyclic:2", 1, [0])
        assert rho_c(alg_half, CTX5) == 0
        assert rho_c(alg_fifth, CTX5) == 1
        assert rho_c(alg_zero, CTX5) == 0
        deep = make_algebra("cyclic:2", 1, [Fraction(1, 25)])
        assert rho_c(deep, CTX5) == 2

    def test_sequence_is_strictly_increasing(self):
        for cs in ([Fraction(1, 2)], [Fraction(1, 5)], [0]):
            alg = make_algebra("cyclic:2", 1, cs)
            tower = level_tower(alg, CTX5, 4)
            rs = [p.r for p in tower]
            assert rs == sorted(set(rs))
            assert all(b > a for a, b in zip(rs, rs[1:]))
            assert rs[0] >= 1

    def test_documented_chain(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        assert [level_tower(alg, CTX5, m)[m].r for m in range(4)] == [1, 2, 3, 4]

    def test_deep_parameter_shifts_chain(self):
        deep = make_algebra("cyclic:2", 1, [Fraction(1, 25)])
        assert level_tower(deep, CTX5, 0)[0].r == 2

    def test_rational_tower_at_precision_one(self):
        # valuations over Q are exact at any precision
        s4 = make_algebra("s4", 1, [Fraction(1, 2)])
        tower = level_tower(s4, PadicContext(3, 1), 4)
        assert [p.r for p in tower] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "spec, ell, c, ctx, top, rs",
        [
            ("dihedral:5", 5, Fraction(1, 5), PadicContext(11, 2, 5), 3, [1, 2, 3, 4]),
            ("cyclic:3", 3, Fraction(1, 7**4), PadicContext(7, 2, 3), 0, [4]),
        ],
    )
    def test_low_precision_tower_matches_full_precision(self, spec, ell, c, ctx, top, rs):
        # v_p(p^r x) = r + v_p(x) stays exact whatever r is, so the
        # commutators [g1, p^r y1] are decided at precision 2 as at 64
        alg = make_algebra(spec, ell, [c])
        assert [p.r for p in level_tower(alg, ctx, top)] == rs
        full = PadicContext(ctx.prime, 64, ell)
        assert [p.r for p in level_tower(alg, full, top)] == rs

    @pytest.mark.parametrize("r", range(3))
    def test_undecided_check_raises_precision_exhausted(self, r):
        # z - 3 vanishes modulo 11 (3 is a root of the fifth cyclotomic
        # polynomial there), so at precision 1 the negative weights of
        # [p^0*x1, p^r*y1] are lower bounds only; at full precision r = 0
        # and 1 fail and r = 2 passes
        c = (Scalar.zeta(5) - 3) / 11**4
        alg = make_algebra("dihedral:5", 5, [c])
        with pytest.raises(PrecisionExhausted) as err:
            lattice_check(alg, PadicContext(11, 1, 5), 0, r)
        assert f"at level 0, r = {r} is undecided at precision 1" in str(err.value)
        assert lattice_check(alg, PadicContext(11, 64, 5), 0, r).passed == (r == 2)

    @pytest.mark.parametrize(
        "precision, rs", [(1, None), (2, None), (3, [2, 3, 4]), (64, [2, 3, 4])]
    )
    def test_rho_c_reads_the_exact_flag(self, precision, rs):
        # the reflection coefficients of c = (z - 3)/11^4 have exact
        # valuation -2 only from precision 3 on; below it an inexact bound
        # (-3 at precision 1, -2 at 2) would start the tower unnoticed
        c = (Scalar.zeta(5) - 3) / 11**4
        alg = make_algebra("dihedral:5", 5, [c])
        ctx = PadicContext(11, precision, 5)
        if rs is None:
            undecided = f"rho_c is undecided at precision {precision}"
            with pytest.raises(PrecisionExhausted, match=undecided):
                level_tower(alg, ctx, 2)
        else:
            assert rho_c(alg, ctx) == 2
            assert [p.r for p in level_tower(alg, ctx, 2)] == rs

    @pytest.mark.parametrize("spec, ell", BUILTIN_SPECS)
    def test_relation_coefficients_are_kappa_times_integral_entries(self, spec, ell):
        # c(s) alpha_s[a] alpha_s^v[b] = kappa_s (s - 1)[b][a] / lambda_s,
        # which bounds their valuations below by -rho_c
        alg = make_algebra(spec, ell, [Fraction(3, 7)])
        for (a, b), pairs in alg.relation.items():
            expected = []
            for r in alg.reflections:
                entry = alg.group.matrices[r.index][b][a] - int(a == b)
                coef = alg.reflection_coefficient(r) * entry / r.eigenvalue
                if coef:
                    expected.append((r.index, coef))
            assert pairs == expected

    @pytest.mark.parametrize(
        "spec, ell, c, ctx, rho",
        [
            ("cyclic:2", 1, [0], CTX5, 0),
            ("cyclic:2", 1, [Fraction(1, 2)], CTX5, 0),
            ("cyclic:2", 1, [Fraction(1, 5)], CTX5, 1),
            ("cyclic:2", 1, [Fraction(1, 25)], CTX5, 2),
            ("s3", 1, [Fraction(2, 81)], PadicContext(3, 64), 4),
            ("dihedral:5", 5, [Fraction(1, 5)], PadicContext(11, 2, 5), 0),
            ("dihedral:5", 5, [(Scalar.zeta(5) - 3) / 11**4], PadicContext(11, 3, 5), 2),
            ("cyclic:6", 6, CYCLIC6_C, PadicContext(7, 64, 6), 3),
        ],
    )
    def test_r_is_m_plus_max_one_rho_c(self, spec, ell, c, ctx, rho, monkeypatch):
        # one lattice check, at level 0, certifies the whole tower
        alg = make_algebra(spec, ell, c)
        assert rho_c(alg, ctx) == rho
        check, calls = banach.lattice_check, []
        monkeypatch.setattr(banach, "lattice_check", lambda *a: calls.append(a[2:]) or check(*a))
        tower = level_tower(alg, ctx, 6)
        assert calls == [(0, max(1, rho))]
        assert [p.r for p in tower] == [m + max(1, rho) for m in range(7)]
        assert all(check(alg, ctx, p.level, p.r).passed for p in tower)

    def test_a_failing_level_zero_check_is_a_bug(self, monkeypatch):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        failing = LatticeReport([("p^0*y1 * p^0*x1", -1)])
        monkeypatch.setattr(banach, "lattice_check", lambda *a: failing)
        with pytest.raises(RuntimeError, match="level 0 with r = 1"):
            level_tower(alg, CTX5, 2)
        # an empty tower runs no check
        assert level_tower(alg, CTX5, -1) == []

    def test_level_params_are_checked(self):
        with pytest.raises(ValueError, match="level must be >= 0"):
            LevelParams(-1, 1, CTX5)
        with pytest.raises(ValueError, match="r must be a positive integer"):
            LevelParams(0, 0, CTX5)

    def test_the_tower_stops_at_max_level(self):
        assert MAX_LEVEL == 10_000
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, MAX_LEVEL)
        assert [p.level for p in tower] == list(range(MAX_LEVEL + 1))
        with pytest.raises(LevelTooHigh, match="level 10001 is above the limit MAX_LEVEL = 10000"):
            level_tower(alg, CTX5, MAX_LEVEL + 1)

    @pytest.mark.parametrize(
        "command, levels",
        [
            ("lattice-check", "levels = 0..100000000000"),
            ("norm", "level = 100000000000\nelement = x1"),
        ],
    )
    def test_a_huge_level_exits_3_at_once(self, tmp_path, command, levels):
        # both jobs built levels until they were stopped after 10 s; the
        # tower is refused before its first level.  A fresh process, stopped
        # after 2 s.
        config = f"group = cyclic:2\nc = 1/2\nprime = 5\n{levels}\n"
        done = cli_job(tmp_path, command, config, timeout=2)
        assert done.returncode == 3
        assert "MAX_LEVEL = 10000" in done.stderr


class TestLatticeCheck:
    def test_documented_commutator(self):
        # [5y, x] = 5(1 - s) keeps nonnegative exponents at m = 0, r = 1
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        report = lattice_check(alg, CTX5, 0, 1)
        assert report.passed and not report.violations

    def test_zero_parameter_any_level(self):
        alg = make_algebra("cyclic:2", 1, [0])
        for m in range(3):
            assert lattice_check(alg, CTX5, m, m + 1).passed

    def test_under_chosen_weight_fails_with_located_violation(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 5)])
        report = lattice_check(alg, CTX5, 0, 0)
        assert not report.passed
        assert report.violations == [
            ("[p^0*x1, p^0*y1]", -1),
            ("p^0*y1 * p^0*x1", -1),
            ("[p^0*y1, p^0*x1]", -1),
        ]

    def test_chosen_weights_pass(self):
        for cs in ([0], [Fraction(1, 2)], [Fraction(1, 5)]):
            alg = make_algebra("cyclic:2", 1, cs)
            for params in level_tower(alg, CTX5, 2):
                assert lattice_check(alg, CTX5, params.level, params.r).passed
        s3 = make_algebra("s3", 1, [Fraction(1, 2)])
        ctx3 = PadicContext(3, 64)
        for params in level_tower(s3, ctx3, 2):
            assert lattice_check(s3, ctx3, params.level, params.r).passed


    @staticmethod
    def _scaled_route(alg, ctx, m, r):
        """The violations of the weighted generators p^m x_j, g, p^r y_i,
        multiplied again at this level."""
        p = Scalar.rational(ctx.prime)
        gens = [(f"p^{m}*x{i + 1}", alg.x(i + 1) * p**m) for i in range(alg.dim)]
        gens += [(f"g{g}", alg.g(g)) for g in range(len(alg.group))]
        gens += [(f"p^{r}*y{i + 1}", alg.y(i + 1) * p**r) for i in range(alg.dim)]

        def weight(el):
            return min(
                (term_weight(c, t, m, r, ctx) for t, c in el.terms.items()),
                default=float("inf"),
            )

        violations = []
        for name_a, a in gens:
            for name_b, b in gens:
                w = weight(a * b)
                if w < 0:
                    violations.append((f"{name_a} * {name_b}", int(w)))
                w = weight(a * b - b * a)
                if w < 0:
                    violations.append((f"[{name_a}, {name_b}]", int(w)))
        return violations

    @staticmethod
    def _shifted_route(alg, ctx, m, r):
        """(name, least weight, whether a term of exact valuation attains
        it, whether one has a negative weight) of each violation, from the
        unweighted generator products, each valuation shifted by adding the
        weight exponents to val's value."""
        gens = [(f"p^{m}*x{i + 1}", alg.x(i + 1), m) for i in range(alg.dim)]
        gens += [(f"g{g}", alg.g(g), 0) for g in range(len(alg.group))]
        gens += [(f"p^{r}*y{i + 1}", alg.y(i + 1), r) for i in range(alg.dim)]

        def weigh(el, shift):
            ws = []
            for t, c in el.terms.items():
                v = val(c, ctx)
                ws.append((v.value + shift - m * sum(t[0]) - r * sum(t[2]), v.exact))
            least = min((w for w, _ in ws), default=INF)
            return (
                least,
                any(e and w == least for w, e in ws),
                any(e and w < 0 for w, e in ws),
            )

        violations = []
        for name_a, a, ka in gens:
            for name_b, b, kb in gens:
                for name, el in (
                    (f"{name_a} * {name_b}", a * b),
                    (f"[{name_a}, {name_b}]", a * b - b * a),
                ):
                    least, attained, certified = weigh(el, ka + kb)
                    if least < 0:
                        violations.append((name, int(least), attained, certified))
        return violations

    @pytest.mark.parametrize(
        "spec, ell, c, ctx",
        [
            ("s3", 1, [Fraction(2, 81)], PadicContext(3, 64)),
            ("s4", 1, [Fraction(2, 81)], PadicContext(3, 64)),
            ("dihedral:5", 5, [Fraction(1, 11**4)], PadicContext(11, 64, 5)),
            ("dihedral:8", 8, [Fraction(1, 8)], PadicContext(17, 64, 8)),
            ("s4", 1, [Fraction(1, 2)], PadicContext(3, 64)),
            ("cyclic:3", 3, [Scalar.zeta(3) / 49], PadicContext(7, 64, 3)),
            ("cyclic:6", 6, CYCLIC6_C, PadicContext(7, 64, 6)),
            ("dihedral:4", 4, [Fraction(1, 5), Fraction(1, 125)], PadicContext(5, 64, 4)),
            ("dihedral:6", 6, [Fraction(1, 7), Fraction(3, 49)], PadicContext(7, 64, 6)),
            ("dihedral:5", 5, [(Scalar.zeta(5) - 3) / 11**4], PadicContext(11, 64, 5)),
        ],
    )
    def test_products_once_per_algebra_match_the_scaled_route(
        self, spec, ell, c, ctx, monkeypatch
    ):
        # the dihedral:8 row and the s4 row at c = 1/2 are the algebras of the
        # benchmark's lattice and norm jobs; their parameters are units, which
        # pass at every (m, r)
        alg = make_algebra(spec, ell, c)
        grid = [(m, r) for m in range(3) for r in range(5)]
        failing = []
        for m, r in grid:
            report = lattice_check(alg, ctx, m, r)
            assert report.violations == self._scaled_route(alg, ctx, m, r)
            if not report.passed:
                failing.append((m, r))
        # on these rows a check fails exactly when m + r < rho_c: with
        # rho_c = 4, at (0, 0) and (2, 1) among others
        rho = rho_c(alg, ctx)
        assert failing == [(m, r) for m, r in grid if m + r < rho]
        if rho:
            assert 0 < len(failing) < len(grid)

        calls = []
        multiply = alg.multiply
        monkeypatch.setattr(alg, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
        lattice_check(alg, ctx, 1, 3)
        assert calls == []

    def test_valuations_once_per_coefficient(self, monkeypatch):
        for alg, ctx in (
            (make_algebra("dihedral:5", 5, [Fraction(1, 11**4)]), PadicContext(11, 64, 5)),
            (make_algebra("cyclic:6", 6, CYCLIC6_C), PadicContext(7, 64, 6)),
        ):
            self._check_valuations_once(alg, ctx, monkeypatch)

    @staticmethod
    def _check_valuations_once(alg, ctx, monkeypatch):
        # the coefficients c(s) alpha_s(y_i) alpha_s^v(x_j) of the reflection
        # terms of y_i x_j, read off the products
        values = {
            -coeff
            for i in range(alg.dim)
            for j in range(alg.dim)
            for (_, g, _), coeff in (alg.y(i + 1) * alg.x(j + 1)).terms.items()
            if g != alg.group.identity
        }
        calls = []
        monkeypatch.setattr(banach, "val", lambda x, c: calls.append((x, c)) or val(x, c))
        lattice_check(alg, ctx, 2, 1)
        assert Counter(x for x, _ in calls) == Counter(values)

        # a tower values each reflection coefficient once more, in rho_c
        calls.clear()
        checks = []
        check = lattice_check
        monkeypatch.setattr(banach, "lattice_check", lambda *a: checks.append(1) or check(*a))
        level_tower(alg, ctx, 3)
        kappas = Counter(alg.reflection_coefficient(s) for s in alg.reflections)
        assert Counter(x for x, _ in calls) == kappas + Counter(
            {v: len(checks) for v in values}
        )
        calls.clear()
        low = PadicContext(ctx.prime, 2, ctx.ell)
        check(alg, low, 1, 3)
        assert len(calls) == len(values) and {c for _, c in calls} == {low}
        monkeypatch.undo()

    @pytest.mark.parametrize(
        "spec, ell",
        [("s3", 1), ("s4", 1), ("cyclic:2", 1), ("cyclic:6", 6)]
        + [(f"dihedral:{n}", n) for n in range(4, 9)],
    )
    def test_group_products_are_one_group_term(self, spec, ell):
        # why a product of two group elements has weight 0 at every level
        alg = make_algebra(spec, ell, [Fraction(1, 2)])
        zero, order = alg._zero_deg, len(alg.group)
        for a in range(order):
            for b in range(order):
                ab = alg.group.mul(a, b)
                assert alg.multiply(alg.g(a), alg.g(b)).terms == {(zero, ab, zero): ONE}

    @pytest.mark.parametrize(
        "c", [Fraction(1, 5), Fraction(1, 11**4), (Scalar.zeta(5) - 3) / 11**4]
    )
    def test_low_precision_matches_the_scaled_route(self, c):
        # at precision 2 the valuations of multiples of z - 3 are inexact
        # lower bounds.  Each low-precision weight is at most the
        # precision-64 route's, and equal to it when a term of exact
        # valuation attains it; a check raises only when none of its
        # violations is certified
        alg = make_algebra("dihedral:5", 5, [c])
        low, full = PadicContext(11, 2, 5), PadicContext(11, 64, 5)
        for m in range(2):
            for r in range(5):
                route = self._shifted_route(alg, low, m, r)
                expected = dict(self._scaled_route(alg, full, m, r))
                assert set(expected) <= {name for name, *_ in route}
                for name, w, attained, _ in route:
                    if attained:
                        assert expected[name] == w
                    else:
                        assert w <= expected.get(name, 0)
                if not route or any(certified for *_, certified in route):
                    report = lattice_check(alg, low, m, r)
                    assert report.violations == [(name, w) for name, w, *_ in route]
                else:
                    with pytest.raises(PrecisionExhausted):
                        lattice_check(alg, low, m, r)


def resum(decomposition: dict) -> BanachElement:
    """The components of a weight decomposition added back up with `+`."""
    return reduce(operator.add, decomposition.values())


class TestWeightDecomposition:
    def test_two_generators_split(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = params_for(alg, CTX5, 1)
        el = BanachElement.from_pbw(alg.x(1) + alg.y(1), params)
        decomposition = weight_decompose_banach(el)
        assert list(decomposition) == [-1, 1]
        assert decomposition[1].to_pbw() == alg.x(1)
        assert decomposition[-1].to_pbw() == alg.y(1)

    def test_homogeneous_input_is_fixed(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = params_for(alg, CTX5, 0)
        el = BanachElement.from_pbw(alg.x(1) * alg.g(1) * 3, params)
        decomposition = weight_decompose_banach(el)
        assert list(decomposition) == [1]
        assert decomposition[1] == el

    def test_component_norm_bound_and_resummation(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        rng = random.Random(3)
        params = params_for(alg, CTX5, 1)
        for _ in range(60):
            el = random_banach(alg, params, rng)
            if not el.terms:
                continue
            whole = gauss_norm(el)
            decomposition = weight_decompose_banach(el)
            assert list(decomposition) == sorted(decomposition)
            for component in decomposition.values():
                assert gauss_norm(component) >= whole
            assert resum(decomposition).terms == el.terms

    def test_resummed_keeps_the_parts_weights(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        rng = random.Random(5)
        params = params_for(alg, CTX5, 1)
        for _ in range(20):
            el = random_banach(alg, params, rng)
            if not el.terms:
                continue
            resummed = resum(weight_decompose_banach(el))
            assert resummed == el
            assert resummed.weighted == el.weighted
            assert resummed.weighted == BanachElement.from_pbw(el.to_pbw(), params, el.tau).weighted

    def test_decompose_resum_decompose_is_identity(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        rng = random.Random(4)
        params = params_for(alg, CTX5, 2)
        for _ in range(20):
            el = random_banach(alg, params, rng)
            if not el.terms:
                continue
            first = weight_decompose_banach(el)
            second = weight_decompose_banach(resum(first))
            assert list(first) == list(second)
            for w in first:
                assert first[w].terms == second[w].terms
                assert first[w].weighted == second[w].weighted

    def test_grading_norm_coherence(self):
        # ad(euler) scales a homogeneous element by its weight, so the norm
        # exponent moves by exactly v_p(weight) and never drops
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = params_for(alg, CTX5, 1)
        rng = random.Random(5)
        for _ in range(40):
            el = random_banach(alg, params, rng, terms=2)
            for weight, component in weight_decompose_banach(el).items():
                if weight == 0 or not component.terms:
                    continue
                moved = BanachElement.from_pbw(
                    ad_euler(alg, component.to_pbw()), params, component.tau
                )
                expected = gauss_norm(component) + val(
                    Scalar.rational(weight), CTX5
                ).value
                assert gauss_norm(moved) == expected
                assert gauss_norm(moved) >= gauss_norm(component)


class TestTransition:
    def test_norms_grow_downward(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 2)
        for m in (1, 2):
            el = BanachElement.from_pbw(alg.x(1), tower[m])
            assert gauss_norm(el) == -m
            moved = transition(el, tower[m - 1])
            assert gauss_norm(moved) == -(m - 1)
            assert gauss_norm(moved) >= gauss_norm(el)

    def test_scalar_constants_keep_their_norm(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 1)
        el = BanachElement.from_pbw(alg.scalar(Fraction(7, 3)), tower[1])
        moved = transition(el, tower[0])
        assert moved.terms == el.terms
        assert gauss_norm(moved) == gauss_norm(el) == 0

    def test_every_basis_monomial_is_hit_by_a_polynomial(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 1)
        for i, g, j in (((2,), 1, (1,)), ((0,), 0, (3,)), ((1,), 1, (0,))):
            mono = alg.monomial(i, g, j)
            el = BanachElement.from_pbw(mono, tower[1])
            assert transition(el, tower[0]).to_pbw() == mono

    def test_level_mismatch_rejected(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 2)
        el = BanachElement.from_pbw(alg.x(1), tower[2])
        with pytest.raises(ValueError):
            transition(el, tower[0])

    def test_context_mismatch_rejected(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        high = BanachElement.from_pbw(alg.x(1), level_tower(alg, CTX5, 1)[1])
        low = level_tower(alg, PadicContext(5, 32), 0)[0]
        with pytest.raises(ValueError, match="one p-adic context"):
            transition(high, low)


class TestCoadmissible:
    def test_constant_polynomial_family(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 4)
        el = alg.parse_element("x1^2*y1 + 3*g1")
        family = [BanachElement.from_pbw(el, p) for p in tower]
        assert coadmissible_check(family) is None

    def test_euler_family(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 4)
        family = [BanachElement.from_pbw(alg.euler_element(), p) for p in tower]
        assert coadmissible_check(family) is None

    def test_perturbed_family_fails_at_the_right_level(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 4)
        el = alg.euler_element()
        family = [BanachElement.from_pbw(el, p) for p in tower]
        family[2] = BanachElement.from_pbw(el + alg.one() * 5, tower[2])
        assert coadmissible_check(family) == 2

    def test_a_level_gap_is_rejected(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        tower = level_tower(alg, CTX5, 2)
        family = [BanachElement.from_pbw(alg.x(1), tower[m]) for m in (0, 2)]
        with pytest.raises(ValueError, match="consecutive"):
            coadmissible_check(family)


def dense_certificates(algebra, irrep, params, cutoff):
    """The certificates of `analytic_verma_slice` the slow way: each
    weighted generator acts on every unit vector of degrees 0..cutoff through
    `apply_x_full`, `apply_y_full` and `apply_g_full`, and the Euler element
    on every basis vector through `verma_action`.  Returns the pair
    (generator_norms, ws_recovered)."""
    slice_ = VermaSlice(algebra, irrep, cutoff)
    ctx, m = params.ctx, params.level
    x_scale = Scalar.rational(ctx.prime) ** m
    y_scale = Scalar.rational(ctx.prime) ** params.r
    norms = {}

    def record(name, img, target, n):
        # least valuation of the image, weighted by the degree change
        for x in img:
            if x:
                norms[name] = min(norms.get(name, INF), val(x, ctx).value - m * (target - n))
        norms.setdefault(name, INF)

    for n in range(cutoff + 1):
        dim_n = slice_.full_dim(n)
        for j in range(dim_n):
            unit = [ONE if t == j else ZERO for t in range(dim_n)]
            if n + 1 <= cutoff:
                for i in range(algebra.dim):
                    img = [x * x_scale for x in slice_.apply_x_full(i, n, unit)]
                    record(f"p^{m}*x{i + 1}", img, n + 1, n)
            if n > 0:
                for i in range(algebra.dim):
                    img = [x * y_scale for x in slice_.apply_y_full(i, n, unit)]
                    record(f"p^{params.r}*y{i + 1}", img, n - 1, n)
            for g in range(len(algebra.group)):
                record(f"g{g}", slice_.apply_g_full(g, n, unit), n, n)
    offenders = {k: v for k, v in norms.items() if v < 0}
    if offenders:
        name, exp = sorted(offenders.items())[0]
        if name.startswith("g"):
            fault = f"rho({name}) has an entry of negative valuation"
        else:
            fault = "it sends a unit vector off the unit lattice"
        raise UnboundedGenerator(
            f"generator {name} has operator-norm exponent {exp}; "
            f"{fault} at p = {ctx.prime} in irrep {irrep.label!r}"
        )
    euler = algebra.euler_element()
    recovered = True
    for n in range(cutoff + 1):
        for j in range(slice_.dim(n)):
            base = slice_.basis_vector(n, j)
            image = verma_action(slice_, euler, base)
            if not mv_eq(image, mv_scale(base, slice_.c_value + n)):
                recovered = False
    return {k: (int(v) if v != INF else 0) for k, v in norms.items()}, recovered


CTX7 = PadicContext(7, 64)
CTX2 = PadicContext(2, 64)


class TestAnalyticVermaOracle:
    """`analytic_verma_slice` against the dense computation it replaced,
    exact values and key sets included."""

    CASES = [
        pytest.param("s3", 1, Fraction(1, 3), CTX7, (0, 1), None, 5, id="s3-p7"),
        pytest.param(
            "s4", 1, Fraction(1, 2), PadicContext(3, 64), (1,), "standard", 6,
            id="s4-standard-p3",
        ),
        pytest.param(
            "dihedral:5", 5, Fraction(1, 5), PadicContext(11, 64, 5), (0, 1), None, 4,
            id="dihedral5-p11",
        ),
        # two group elements land on one position: the terms must be summed
        # before the valuation is taken
        pytest.param("cyclic:2", 1, Fraction(1, 2), CTX2, (0, 1, 2), None, 6, id="cyclic2-p2"),
        pytest.param("s3", 1, Fraction(1, 3), CTX7, (0, 1), None, 0, id="s3-cutoff0"),
        # at precision 2 the lattice check reads inexact shifted valuations
        # of the cyclotomic products; the slice's own weighted entries stay
        # exact, since its x- and y-images are rational
        pytest.param(
            "dihedral:5", 5, Fraction(1, 5), PadicContext(11, 2, 5), (0, 1), None, 4,
            id="dihedral5-p11-precision2",
        ),
    ]

    @pytest.mark.parametrize("spec, ell, c, ctx, levels, label, cutoff", CASES)
    def test_certificates_match_the_dense_route(self, spec, ell, c, ctx, levels, label, cutoff):
        alg = make_algebra(spec, ell, [c])
        tower = level_tower(alg, ctx, max(levels))
        irreps = [w for w in alg.irreps if label in (None, w.label)]
        for w in irreps:
            for m in levels:
                analytic = analytic_verma_slice(alg, w, ctx, m, cutoff)
                norms, recovered = dense_certificates(alg, w, tower[m], cutoff)
                assert analytic.generator_norms == norms, (w.label, m)
                assert analytic.ws_recovered is recovered is True
        if cutoff == 0:
            assert set(norms) == {f"g{g}" for g in range(len(alg.group))}

    def test_p2_needs_the_column_sum(self):
        # a per-h least valuation reads 1 here
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        params = level_tower(alg, CTX2, 0)[0]
        assert (params.level, params.r) == (0, 1)
        for w in alg.irreps:
            assert analytic_verma_slice(alg, w, CTX2, 0, 4).generator_norms["p^1*y1"] == 2

    def test_non_integral_irrep_has_a_negative_g_exponent(self):
        # s3 `standard` conjugated by diag(7, 1): rho(g)[1][0] gains a
        # factor 1/7, so the g exponent is the least valuation -1 of an
        # entry of rho(g), read from the degree-0 column
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        std = next(w for w in alg.irreps if w.label == "standard")
        seven = Scalar.rational(7)
        scale = {(0, 1): seven, (1, 0): ONE / seven}

        def conjugated(mat):
            return tuple(
                tuple(e * scale.get((i, k), ONE) for k, e in enumerate(row))
                for i, row in enumerate(mat)
            )

        gens = [conjugated(std.matrices[s]) for s in alg.group.generators]
        w = irrep_from_generators("standard7", gens, alg.group)
        assert w.matrices == tuple(map(conjugated, std.matrices))
        params = level_tower(alg, CTX7, 1)[1]
        with pytest.raises(UnboundedGenerator) as dense:
            dense_certificates(alg, w, params, 4)
        with pytest.raises(UnboundedGenerator) as analytic:
            analytic_verma_slice(alg, w, CTX7, 1, 4)
        assert str(analytic.value) == str(dense.value)
        assert str(dense.value).startswith("generator g2 has operator-norm exponent -1;")
        assert str(analytic.value) == (
            "generator g2 has operator-norm exponent -1; rho(g2) has an entry of "
            "negative valuation at p = 7 in irrep 'standard7'"
        )

    def test_only_y_and_euler_images_are_read(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        analytic_verma_slice(alg, alg.irreps[2], CTX7, 1, 5)
        zero, one = alg._zero_deg, alg.group.identity
        units = [tuple(int(t == i) for t in range(alg.dim)) for i in range(alg.dim)]
        contents = {frozenset({((zero, one, e), ONE)}) for e in units}
        contents.add(frozenset(alg.euler_element().terms.items()))
        assert set(alg._verma_element_cache) == contents

    def test_warm_caches_give_the_same_certificates(self):
        # caches filled by the simple quotient of another irrep
        ctx = PadicContext(3, 64)
        warm = make_algebra("s4", 1, [Fraction(1, 2)])
        simple_quotient_slice(warm, warm.irreps[4], 5)
        assert warm._verma_element_cache
        cold = make_algebra("s4", 1, [Fraction(1, 2)])
        a = analytic_verma_slice(warm, warm.irreps[2], ctx, 1, 5)
        b = analytic_verma_slice(cold, cold.irreps[2], ctx, 1, 5)
        assert a.generator_norms == b.generator_norms
        assert a.ws_recovered and b.ws_recovered

    def test_a_tower_on_one_algebra_matches_fresh_algebras(self):
        # every level's slice carries the same Delta(lambda): from level 1 on,
        # the y and Euler images read the columns resolved on the irrep
        ctx = PadicContext(3, 64)
        alg = make_algebra("s4", 1, [Fraction(1, 2)])
        tower = [analytic_verma_slice(alg, alg.irreps[2], ctx, m, 5) for m in range(4)]
        assert alg._verma_resolved
        for m, level in enumerate(tower):
            fresh = make_algebra("s4", 1, [Fraction(1, 2)])
            alone = analytic_verma_slice(fresh, fresh.irreps[2], ctx, m, 5)
            assert not fresh._verma_resolved
            assert level.generator_norms == alone.generator_norms
            assert level.ws_recovered == alone.ws_recovered is True


class TestAnalyticVerma:
    def test_degree_zero_norm_and_dimensions(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        for w in alg.irreps:
            for m in (0, 1):
                analytic = analytic_verma_slice(alg, w, CTX5, m, 8)
                assert analytic.ws_recovered
                assert all(v >= 0 for v in analytic.generator_norms.values())
                assert [analytic.slice.dim(n) for n in range(9)] == [w.dim] * 9

    def test_s3_generator_norms(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        ctx = PadicContext(7, 64)
        analytic = analytic_verma_slice(alg, alg.irreps[2], ctx, 0, 5)
        assert analytic.ws_recovered
        assert all(v >= 0 for v in analytic.generator_norms.values())

    def test_level_comes_from_the_tower(self):
        # at c = 1/25 the valuation defect rho_c is 2, so level 0 sits at
        # r = 2; a hand-made r = 1 failed the lattice check
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 25)])
        for w in alg.irreps:
            analytic = analytic_verma_slice(alg, w, CTX5, 0, 4)
            assert analytic.params == level_tower(alg, CTX5, 0)[0]
            assert analytic.params.r == 2
            assert all(v >= 0 for v in analytic.generator_norms.values())


class TestFiltrationCompatibility:
    def test_weight_spanned_subspaces_contain_their_components(self):
        # an Euler-invariant subspace spanned by weight vectors contains the
        # weight components of each of its members
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, alg.irreps[1], 8)
        rng = random.Random(6)
        spanning = []  # weight vectors: (degree, coordinates)
        for degree in (1, 3, 3, 5, 7):
            vec = [
                Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(slice_.dim(degree))
            ]
            if any(vec):
                spanning.append((degree, vec))
        offsets = {}
        at = 0
        for n in range(9):
            offsets[n] = at
            at += slice_.dim(n)
        total = at

        def embed(degree, vec):
            out = [ZERO] * total
            for i, x in enumerate(vec):
                out[offsets[degree] + i] = x
            return out

        span = {}
        for d, v in spanning:
            linalg.extend_echelon(span, linalg.sparse(embed(d, v)))
        for _ in range(10):
            per_degree: dict[int, list] = {}
            for degree, vec in spanning:
                coef = Scalar.rational(rng.randint(-3, 3))
                acc = per_degree.setdefault(degree, [ZERO] * slice_.dim(degree))
                per_degree[degree] = [a + coef * x for a, x in zip(acc, vec)]
            for degree, component in per_degree.items():
                reduced = linalg.reduce_against(linalg.sparse(embed(degree, component)), span)
                assert reduced == {}
