"""Verma slices, singular vectors, simple quotients, the linkage order,
blocks, and decomposition matrices, with brute-force kernel oracles."""

import copy
import math
import random
import weakref
from fractions import Fraction

import pytest

from cherednik import category_o, linalg
from cherednik.category_o import (
    MAX_SLICE_DIM,
    CutoffExceeded,
    InconsistentTruncation,
    NotScalarAction,
    SliceTooLarge,
    VermaSlice,
    blocks,
    c_scalar,
    decompose_verma_character,
    decomposition_matrix,
    dunkl_action,
    highest_weight_order,
    mv_eq,
    mv_scale,
    simple_quotient_slice,
    singular_vectors,
    verma_action,
)
from cherednik.groups import (
    Irrep,
    ReflectionFunction,
    builtin_group,
    find_reflections,
    load_group_file,
)
from cherednik.pbw import AlgebraMismatch, CherednikAlgebra, PBWElement
from cherednik.scalars import Scalar, ZERO, ONE
from helpers import all_candidates_radical, brute_force_singular_dims, cli_job, make_algebra
from test_pbw import gc_disabled, monomial_trace


def irrep_of(alg, label):
    return next(w for w in alg.irreps if w.label == label)


def random_vector(slice_, rng, degree):
    return {
        degree: [
            Scalar.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(slice_.dim(degree))
        ]
    }


BLOCK_GROUPS = (
    [(f"cyclic:{n}", n, n) for n in range(2, 7)]
    + [("s3", 1, 3), ("s4", 1, 4)]
    + [(f"dihedral:{n}", n, n) for n in range(3, 9)]
)


class TestCScalar:
    def test_zero_parameter_gives_half_dimension(self):
        for spec, ell, dim in (("cyclic:3", 3, 1), ("s3", 1, 2), ("s4", 1, 3)):
            alg = make_algebra(spec, ell, [0])
            for w in alg.irreps:
                assert c_scalar(alg, w) == Scalar.rational(Fraction(dim, 2))

    def test_order_two_values(self):
        gamma = Fraction(2, 7)
        alg = make_algebra("cyclic:2", 1, [gamma])
        assert c_scalar(alg, irrep_of(alg, "triv")) == Scalar.rational(
            Fraction(1, 2) - gamma
        )
        assert c_scalar(alg, irrep_of(alg, "sgn")) == Scalar.rational(
            Fraction(1, 2) + gamma
        )

    def test_s3_constant_parameter(self):
        gamma = Fraction(1, 3)
        alg = make_algebra("s3", 1, [gamma])
        assert c_scalar(alg, irrep_of(alg, "triv")) == Scalar.rational(1 - 3 * gamma)
        # the standard character vanishes on transpositions
        assert c_scalar(alg, irrep_of(alg, "standard")) == ONE
        assert c_scalar(alg, irrep_of(alg, "sgn")) == Scalar.rational(1 + 3 * gamma)

    def test_non_scalar_action_rejected(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        triv, sgn = alg.irreps
        mats = tuple(
            (
                (triv.matrices[g][0][0], ZERO),
                (ZERO, sgn.matrices[g][0][0]),
            )
            for g in range(2)
        )
        fake = Irrep("fake", mats)
        with pytest.raises(NotScalarAction):
            c_scalar(alg, fake)
        # a failed fill of the per-algebra c_E table leaves nothing behind
        listed = CherednikAlgebra(alg.group, alg.c, irreps=[triv, fake])
        for _ in range(2):
            with pytest.raises(NotScalarAction):
                highest_weight_order(listed)


def old_c_scalar(alg, irrep):
    """dim/2 I - sum_s kappa_s rho(s), which must be scalar: the c_E formula
    written out as a matrix."""
    d = irrep.dim
    half = Scalar.rational(alg.dim) / 2
    mat = [[half if i == j else ZERO for j in range(d)] for i in range(d)]
    for r in alg.reflections:
        rho = irrep.matrices[r.index]
        for i in range(d):
            for j in range(d):
                mat[i][j] = mat[i][j] - alg.reflection_coefficient(r) * rho[i][j]
    assert mat == [[mat[0][0] if i == j else ZERO for j in range(d)] for i in range(d)]
    return mat[0][0]


def c_value_lists(spec, ell):
    """One c-value for every class, and one value per reflection class."""
    group, _ = builtin_group(spec, ell)
    classes = len(ReflectionFunction(group, find_reflections(group), [0]).classes)
    return [[Fraction(1, 3)], [Fraction(k + 1, k + 3) for k in range(classes)]]


class TestCScalarAgainstTheMatrix:
    @pytest.mark.parametrize("spec, ell, n", BLOCK_GROUPS, ids=[g[0] for g in BLOCK_GROUPS])
    def test_every_builtin_irrep(self, spec, ell, n):
        for values in c_value_lists(spec, ell):
            alg = make_algebra(spec, ell, values)
            for w in alg.irreps:
                assert c_scalar(alg, w) == old_c_scalar(alg, w), (values, w.label)


class TestVermaAction:
    def test_lowering_kills_degree_one_at_half(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 10)
        out = verma_action(slice_, alg.y(1), slice_.basis_vector(1, 0))
        assert out == {}

    def test_lowering_kills_degree_zero_always(self):
        for spec, ell, cs in (("cyclic:2", 1, [Fraction(1, 2)]), ("s3", 1, [Fraction(1, 5)])):
            alg = make_algebra(spec, ell, cs)
            for w in alg.irreps:
                slice_ = VermaSlice(alg, w, 4)
                for k in range(w.dim):
                    for i in range(1, alg.dim + 1):
                        assert verma_action(slice_, alg.y(i), slice_.basis_vector(0, k)) == {}
                        # the named entry point maps degree 0 to the empty vector
                        assert slice_.apply_y_full(i - 1, 0, slice_.basis_vector(0, k)[0]) == []

    def test_euler_acts_by_weight(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 10)
        vec = slice_.basis_vector(2, 0)
        out = verma_action(slice_, alg.euler_element(), vec)
        assert mv_eq(out, mv_scale(vec, 2))  # c(triv) = 0 at gamma = 1/2

    def test_linearity(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 8)
        rng = random.Random(5)
        a = alg.y(1) * alg.x(2) + alg.g(3)
        u = random_vector(slice_, rng, 4)[4]
        v = random_vector(slice_, rng, 4)[4]
        s, t = Scalar.rational(2), Scalar.rational(Fraction(-1, 3))

        def image(vec):
            # a has inner degree 0, so the image stays in degree 4
            return verma_action(slice_, a, {4: vec}).get(4, [ZERO] * slice_.dim(4))

        combo = [s * x + t * y for x, y in zip(u, v)]
        assert image(combo) == [s * x + t * y for x, y in zip(image(u), image(v))]

    def test_cutoff_exceeded(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 3)
        with pytest.raises(CutoffExceeded):
            verma_action(slice_, alg.x(1), slice_.basis_vector(3, 0))
        with pytest.raises(CutoffExceeded):
            slice_.apply_x_full(0, 3, slice_.basis_vector(3, 0)[3])

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_dense_generator_indices_run_from_zero(self, name):
        # apply_x_full(-1, ...) used to fail naming x index 0, an index the
        # caller never gave
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 3)
        apply, vec = getattr(slice_, f"apply_{name}_full"), slice_.basis_vector(1, 0)[1]
        for i in (-1, 2):
            with pytest.raises(ValueError, match=f"{name} index {i} is outside 0..1"):
                apply(i, 1, vec)
        target = 2 if name == "x" else 0
        for i in (0, 1):
            image = verma_action(slice_, getattr(alg, name)(i + 1), {1: vec})
            assert apply(i, 1, vec) == image.get(target, [ZERO] * slice_.dim(target))

    def test_element_of_another_algebra_is_refused(self):
        # the same group and parameter, but another algebra instance
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        other = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 3)
        with pytest.raises(AlgebraMismatch, match="element belongs to a different algebra"):
            verma_action(slice_, other.x(1), slice_.basis_vector(0, 0))

    def test_basis_vector_indices_run_over_the_degree(self):
        # a negative index used to read a unit vector from the end
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 3)
        for index in (-1, 6):
            with pytest.raises(ValueError, match=f"index {index} is outside 0..5"):
                slice_.basis_vector(2, index)
        assert slice_.basis_vector(2, 0) == {2: [ONE] + [ZERO] * 5}
        assert slice_.basis_vector(2, 5) == {2: [ZERO] * 5 + [ONE]}


class TestSliceLimit:
    def test_the_bound_counts_every_basis_vector(self):
        # s4 acts on 3 variables: degrees 0..82 hold comb(85, 3) = 98,770
        # monomials, degrees 0..83 hold comb(86, 3) = 102,340
        assert MAX_SLICE_DIM == 100_000
        alg = make_algebra("s4", 1, [Fraction(1, 2)])
        triv, standard = irrep_of(alg, "triv"), irrep_of(alg, "standard")
        slice_ = VermaSlice(alg, triv, 82)
        assert sum(slice_.full_dim(n) for n in range(83)) == 98_770
        with pytest.raises(SliceTooLarge, match="102340 basis vectors"):
            VermaSlice(alg, triv, 83)
        # standard has dimension 3: comb(59, 3) * 3 = 97,527 vectors in
        # degrees 0..56, comb(60, 3) * 3 = 102,660 in degrees 0..57
        VermaSlice(alg, standard, 56)
        with pytest.raises(SliceTooLarge) as err:
            VermaSlice(alg, standard, 57)
        assert str(err.value) == "the slice has 102660 basis vectors, more than MAX_SLICE_DIM = 100000"

    def test_a_negative_cutoff_is_refused(self):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            VermaSlice(alg, irrep_of(alg, "triv"), -1)

    def test_a_huge_cutoff_exits_3_at_once(self, tmp_path):
        # verma-weights on s4 at cutoff 100000 built monomial tables until it
        # was stopped (1.9 GB in 10 s); it is refused before the first one.
        # A fresh process, stopped after 2 s.
        config = "group = s4\nc = 1/2\ncutoff = 100000\n"
        done = cli_job(tmp_path, "verma-weights", config, timeout=2)
        assert done.returncode == 3
        assert "MAX_SLICE_DIM = 100000" in done.stderr


# each irrep has a radical below the cutoff, so its simple quotient is a
# proper quotient with nonzero degrees above the radical's first degree
MODULE_ACTION_CASES = (
    ("s3", 1, Fraction(1, 2), "triv"),
    ("dihedral:5", 5, Fraction(1, 5), "rho1"),
)


def mixed_terms(alg, rng, count=5):
    """Seeded PBW terms x^I g y^J with |I|, |J| <= 1 and mixed group parts,
    as a plain dict that any algebra on the same group can take."""
    out = {}
    for _ in range(count):
        ideg, jdeg = [0] * alg.dim, [0] * alg.dim
        if rng.random() < 0.6:
            ideg[rng.randrange(alg.dim)] = 1
        if rng.random() < 0.6:
            jdeg[rng.randrange(alg.dim)] = 1
        g = rng.randrange(len(alg.group))
        out[(tuple(ideg), g, tuple(jdeg))] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return out


class TestModuleAction:
    CUTOFF = 6

    def make_slice(self, alg, label, quotient):
        w = irrep_of(alg, label)
        if not quotient:
            return VermaSlice(alg, w, self.CUTOFF)
        slice_, _ = simple_quotient_slice(alg, w, self.CUTOFF)
        assert slice_.quotiented
        return slice_

    @pytest.mark.parametrize("quotient", [False, True])
    @pytest.mark.parametrize("spec,ell,c,label", MODULE_ACTION_CASES)
    def test_product_acts_as_composition(self, spec, ell, c, label, quotient):
        alg = make_algebra(spec, ell, [c])
        slice_ = self.make_slice(alg, label, quotient)
        rng = random.Random(21)
        for _ in range(3):
            a = alg.element(mixed_terms(alg, rng))
            b = alg.element(mixed_terms(alg, rng))
            for degree in range(self.CUTOFF - 1):
                if not slice_.dim(degree):
                    continue
                v = random_vector(slice_, rng, degree)
                once = verma_action(slice_, a * b, v)
                twice = verma_action(slice_, a, verma_action(slice_, b, v))
                assert mv_eq(once, twice), (a, b, degree)

    @pytest.mark.parametrize("quotient", [False, True])
    @pytest.mark.parametrize("spec,ell,c,label", MODULE_ACTION_CASES)
    def test_results_do_not_depend_on_warm_caches(self, spec, ell, c, label, quotient):
        rng = random.Random(34)
        warm = make_algebra(spec, ell, [c])
        elements = [mixed_terms(warm, rng) for _ in range(3)]
        # warm the Verma image cache through another irrep's slice; PBW
        # elements, the x, y and g actions and the idempotents e_E of
        # singular_vectors all read that one cache
        other_irrep = next(w for w in warm.irreps if w.label != label)
        other = VermaSlice(warm, other_irrep, self.CUTOFF)
        generators = [warm.x(i) + warm.y(i) for i in range(1, warm.dim + 1)]
        for a in [warm.element(terms) for terms in elements] + generators:
            for n in range(self.CUTOFF):
                verma_action(other, a, {n: [ONE] * other.dim(n)})
        for n in range(self.CUTOFF + 1):
            singular_vectors(other, n)
        simple_quotient_slice(warm, other_irrep, self.CUTOFF)
        cold = make_algebra(spec, ell, [c])
        results = []
        for alg in (warm, cold):
            slice_ = self.make_slice(alg, label, quotient)
            verma = VermaSlice(alg, irrep_of(alg, label), self.CUTOFF)
            vec_rng = random.Random(55)
            results.append(
                (
                    [
                        verma_action(slice_, alg.element(terms), random_vector(slice_, vec_rng, n))
                        for terms in elements
                        for n in range(self.CUTOFF)
                    ],
                    simple_quotient_slice(alg, irrep_of(alg, label), self.CUTOFF)[0].killed,
                    [singular_vectors(verma, n).components for n in range(self.CUTOFF + 1)],
                )
            )
        assert results[0] == results[1]

    def test_y_free_terms_store_no_straightening(self):
        # x^I g y^0 x^mono needs no straightening, so x and g images on a
        # fresh algebra leave no (0, mono) entries in the y^J x^I cache
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 4)
        zero = alg._zero_deg
        # built from its terms, since products straighten through that cache
        a = alg.element({((1, 0), 1, zero): 1, ((1, 1), 0, zero): 2, (zero, 2, zero): 3})
        for n in range(3):
            vec = [ONE] * slice_.dim(n)
            slice_.apply_x_full(0, n, vec)
            slice_.apply_g_full(1, n, vec)
            verma_action(slice_, a, {n: vec})
        assert alg._verma_element_cache and all(alg._verma_element_cache.values())
        assert [key for key in alg._ji_cache if not any(key[0])] == []

    @pytest.mark.parametrize("quotient", [False, True])
    def test_raising_term_exceeds_cutoff(self, quotient):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = self.make_slice(alg, "triv", quotient)
        # the raising term comes after terms that stay inside the truncation
        a = alg.y(1) + alg.g(1) + 3 + alg.x(2) * alg.g(2)
        with pytest.raises(CutoffExceeded):
            verma_action(slice_, a, slice_.basis_vector(self.CUTOFF, 0))


def termwise_action(slice_, a, mv):
    """The module action term by term: apply_term_full for every term of a,
    each dense image added into one accumulator per target degree."""
    acc = {}
    for n, freevec in mv.items():
        vec = linalg.dense(slice_.lift(n, freevec), slice_.full_dim(n))
        for term, coef in a.terms.items():
            target, img = slice_.apply_term_full(term, coef, n, vec)
            if img is not None:
                prev = acc.get(target)
                acc[target] = img if prev is None else [x + y for x, y in zip(prev, img)]
    acc = {n: slice_.to_free(n, linalg.sparse(v)) for n, v in acc.items()}
    return {n: v for n, v in acc.items() if any(v)}


def outcome(action, slice_, a, mv):
    """The result of an action, or the type and message of what it raised."""
    try:
        return action(slice_, a, mv)
    except CutoffExceeded as exc:
        return type(exc), str(exc)


def shifted_terms(alg, rng, count=6, top=2):
    """Seeded PBW terms x^I g y^J with |I|, |J| <= top: degree shifts from
    -top to top, and terms that kill the low degrees."""
    out = {}
    for _ in range(count):
        ideg, jdeg = [0] * alg.dim, [0] * alg.dim
        for _ in range(rng.randint(0, top)):
            ideg[rng.randrange(alg.dim)] += 1
        for _ in range(rng.randint(0, top)):
            jdeg[rng.randrange(alg.dim)] += 1
        g = rng.randrange(len(alg.group))
        out[(tuple(ideg), g, tuple(jdeg))] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    return out


# (group, field, c, irrep): each irrep has a radical below TestMergedAction's
# cutoff, so the quotient slices are proper quotients
MERGED_ACTION_CASES = (
    ("s3", 1, Fraction(1, 2), "triv"),
    ("s4", 1, Fraction(3, 4), "triv"),
    ("dihedral:5", 5, Fraction(1, 5), "rho1"),
)


class TestMergedAction:
    """verma_action acts by one merged image per degree shift; it must
    agree with the term-by-term action, CutoffExceeded included."""

    CUTOFF = 5

    def elements(self, alg, seed):
        rng = random.Random(seed)
        terms = [shifted_terms(alg, rng) for _ in range(3)]
        # the Euler element, whose images cancel on merging; that element
        # with a lowering and a raising term that kill degree 0; and one
        # with a term that kills degrees 0 and 1 but would raise degree 1
        # past the cutoff
        euler = alg.euler_element()
        rest = alg._zero_deg[1:]
        extra = {
            (alg._zero_deg, 1, (2,) + rest): Fraction(1, 3),
            ((1,) + rest, 0, (1, 1) + rest[1:]): -2,
        }
        beyond = {((self.CUTOFF + 2,) + rest, 0, (2,) + rest): 1}
        out = [euler, euler + alg.element(extra), euler + alg.element(beyond)]
        out += [alg.element(t) for t in terms]
        # every element but the Euler element mixes degree shifts
        assert all(len({sum(i) - sum(j) for i, _, j in a.terms}) > 1 for a in out[1:])
        return out

    def inputs(self, slice_, rng):
        """Single degrees, zero vectors included, and a mixed vector."""
        out = []
        for n in range(self.CUTOFF + 1):
            if slice_.dim(n):
                out.append(random_vector(slice_, rng, n))
                out.append({n: [ZERO] * slice_.dim(n)})
        mixed = {}
        for n in (3, 0, self.CUTOFF, 1):
            mixed.update(random_vector(slice_, rng, n))
        return out + [mixed]

    make_slice = TestModuleAction.make_slice

    @pytest.mark.parametrize("quotient", [False, True])
    @pytest.mark.parametrize("spec,ell,c,label", MERGED_ACTION_CASES)
    def test_matches_termwise_action(self, spec, ell, c, label, quotient):
        alg = make_algebra(spec, ell, [c])
        slice_ = self.make_slice(alg, label, quotient)
        rng = random.Random(8)
        raised = 0
        for a in self.elements(alg, 13):
            for mv in self.inputs(slice_, rng):
                merged = outcome(verma_action, slice_, a, mv)
                assert merged == outcome(termwise_action, slice_, a, mv), (a, mv)
                raised += isinstance(merged, tuple)
        assert raised  # some raising term leaves the truncation

    @pytest.mark.parametrize("quotient", [False, True])
    @pytest.mark.parametrize("spec,ell,c,label", MERGED_ACTION_CASES)
    def test_cold_algebra_and_equal_content(self, spec, ell, c, label, quotient):
        warm = make_algebra(spec, ell, [c])
        cold = make_algebra(spec, ell, [c])
        warm_slice = self.make_slice(warm, label, quotient)
        cold_slice = self.make_slice(cold, label, quotient)
        inputs = self.inputs(warm_slice, random.Random(3))
        contents = [dict(a.terms) for a in self.elements(warm, 21)]

        def run(alg, slice_):
            return [
                outcome(verma_action, slice_, alg.element(terms), mv)
                for terms in contents
                for mv in inputs
            ]

        def sizes():
            tables = warm._verma_element_cache.items()
            return len(warm._ji_cache), {key: len(table) for key, table in tables}

        first, filled = run(warm, warm_slice), sizes()
        # separately built elements with the same content add no entries
        assert run(warm, warm_slice) == first
        assert sizes() == filled
        assert run(cold, cold_slice) == first

    def test_zero_coefficient_keeps_the_degree_rule(self):
        # a zero monomial has no terms, yet the term still acts by the zero
        # vector where it reaches, kills the degrees below its |J| and
        # raises past the cutoff
        coef = 0
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), self.CUTOFF)
        zero = alg._zero_deg
        raising, lowering = ((1, 0), 1, zero), (zero, 2, (0, 2))
        vec = [ONE] * slice_.full_dim(2)
        assert slice_.apply_term_full(raising, coef, 2, vec) == (3, [ZERO] * slice_.full_dim(3))
        assert slice_.apply_term_full(lowering, coef, 2, vec) == (0, [ZERO] * slice_.full_dim(0))
        assert slice_.apply_term_full(lowering, coef, 1, vec[:slice_.full_dim(1)]) == (-1, None)
        top = [ONE] * slice_.full_dim(self.CUTOFF)
        with pytest.raises(CutoffExceeded, match="degree 5 beyond the truncation 5"):
            slice_.apply_term_full(raising, coef, self.CUTOFF, top)
        # a nonzero coefficient reaches the same degree with a nonzero image
        target, image = slice_.apply_term_full(raising, 2, 2, vec)
        assert target == 3 and any(image)

    def test_one_table_per_shift_and_content(self):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), self.CUTOFF)
        zero = alg._zero_deg
        # shifts 0, 1 and -1; the two shift-0 contents differ by a coefficient
        a = alg.euler_element() + alg.x(1) + alg.element({(zero, 2, (0, 1)): 1})
        b = alg.euler_element() + alg.g(1)
        for el in (a, b):
            verma_action(slice_, el, {2: [ONE] * slice_.dim(2)})
        assert len(alg._verma_element_cache) == 4
        x_table = alg._verma_element_cache[frozenset(alg.x(1).terms.items())]
        assert list(x_table) == list(slice_._monos[2])

    @pytest.mark.parametrize("spec,ell,c,label", MERGED_ACTION_CASES[1:])
    def test_the_split_is_built_once(self, spec, ell, c, label):
        warm, cold = make_algebra(spec, ell, [c]), make_algebra(spec, ell, [c])
        rest = warm._zero_deg[1:]
        a = warm.euler_element() + warm.element({
            ((2,) + rest, 1, (1,) + rest): 3,
            (warm._zero_deg, 2, (2,) + rest): Fraction(1, 2),
            ((1,) + rest, 0, (0, 2) + rest[1:]): -1,
        })
        split = a.degree_split()
        assert a.degree_split() is split
        # (shift, least |J|): the Euler element's central part has J = 0, and
        # the shift -1 term has |J| = 2
        assert sorted(entry[:2] for entry in split) == [(-2, 2), (-1, 2), (0, 0), (1, 1)]
        assert set().union(*(pairs for _, _, pairs in split)) == set(a.terms.items())
        assert all(
            sum(i) - sum(j) == shift for shift, _, pairs in split for (i, _, j), _ in pairs
        )
        # an equal element built separately, on a warm and a cold algebra
        warm_slice = VermaSlice(warm, irrep_of(warm, label), 3)
        mv = {n: [ONE] * warm_slice.dim(n) for n in (0, 1, 2)}
        first = verma_action(warm_slice, a, mv)
        again = warm.element(dict(a.terms))
        assert again.degree_split() is not split
        assert verma_action(warm_slice, again, mv) == first
        twin = cold.element(dict(a.terms))
        assert verma_action(VermaSlice(cold, irrep_of(cold, label), 3), twin, mv) == first
        for alg in (warm, cold):
            assert set(alg._verma_element_cache) == {pairs for _, _, pairs in split}

    def test_a_group_is_not_looked_up_below_its_least_j(self):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), self.CUTOFF)
        y1 = alg.y(1)
        assert verma_action(slice_, y1, {0: [ONE] * slice_.dim(0)}) == {}
        ((_, least_j, pairs),) = y1.degree_split()
        # nothing registers a table for the shift below its least |J|
        assert least_j == 1 and alg._verma_element_cache.get(pairs, {}) == {}
        verma_action(slice_, y1, {1: [ONE] * slice_.dim(1)})
        assert list(alg._verma_element_cache[pairs]) == list(slice_._monos[1])

    def test_each_generator_is_split_once_per_slice(self, monkeypatch):
        # a slice keeps its y_i and g with their splits: singular spaces at
        # two degrees and three radical steps build at most one split per
        # generator per slice (the idempotents e_E are still built and
        # split per call)
        split, built = PBWElement.degree_split, []

        def counted(el):
            if el._split is None:
                built.append(el.terms)
            return split(el)

        monkeypatch.setattr(PBWElement, "degree_split", counted)
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        triv = irrep_of(alg, "triv")
        slices = verma, quotient = VermaSlice(alg, triv, 3), VermaSlice(alg, triv, 3)
        assert singular_vectors(verma, 0).dimension == 1
        assert singular_vectors(verma, 1).dimension == 2
        for n in (1, 2, 3):
            quotient.kill_submodule(n)
        assert quotient.dim(3) == 0 and built
        generators = [alg.x(i).terms for i in (1, 2)] + [alg.y(i).terms for i in (1, 2)]
        generators += [alg.g(g).terms for g in range(len(alg.group))]
        assert any(terms in generators for terms in built)
        assert all(built.count(terms) <= len(slices) for terms in generators)

    def test_a_slice_leaves_its_algebra_free(self):
        # building a slice reads the central Euler part (c_scalar); nothing
        # that the slice and its actions leave on the algebra may point back
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 3)
        singular_vectors(slice_, 1)
        verma_action(slice_, alg.euler_element(), {2: [ONE] * slice_.dim(2)})
        ref = weakref.ref(alg)
        with gc_disabled():
            del alg, slice_
            assert ref() is None


class TestMvScale:
    def test_zero_entries_are_kept_and_entries_canonical(self):
        z5 = Scalar.zeta(5)
        vectors = [
            {0: [ZERO, ONE, ZERO], 2: [Scalar.rational(Fraction(-3, 4)), ZERO]},
            {1: [z5, ZERO, z5 * z5 + ONE, Scalar.rational(6)], 3: [ZERO, ZERO]},
        ]
        for mv in vectors:
            for s in (0, 2, Fraction(-2, 3), z5, z5 + Fraction(1, 2)):
                scalar = Scalar.rational(s)
                expected = {
                    n: [x * scalar for x in v]
                    for n, v in mv.items()
                    if any(x * scalar for x in v)
                }
                out = mv_scale(mv, s)
                assert out == expected
                for v in out.values():
                    for x in v:
                        canonical = Scalar._make(x.ell, list(x.coeffs), x.den)
                        assert (x.ell, x.coeffs, x.den) == (
                            canonical.ell, canonical.coeffs, canonical.den
                        )


class TestDunklOracle:
    def test_degree_one_vanishing(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 10)
        assert dunkl_action(slice_, 1, slice_.basis_vector(1, 0)) == {}

    def test_degree_zero(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        for w in alg.irreps:
            slice_ = VermaSlice(alg, w, 4)
            for k in range(w.dim):
                assert dunkl_action(slice_, 1, slice_.basis_vector(0, k)) == {}

    @pytest.mark.parametrize(
        "spec,ell,cs",
        [
            ("cyclic:2", 1, [Fraction(1, 2)]),
            ("cyclic:3", 3, [Fraction(1, 2), Fraction(1, 3)]),
            ("s3", 1, [Fraction(1, 3)]),
        ],
    )
    def test_agreement_with_straightening(self, spec, ell, cs):
        alg = make_algebra(spec, ell, cs)
        rng = random.Random(7)
        for w in alg.irreps:
            slice_ = VermaSlice(alg, w, 10)
            # the edge degrees 0 and cutoff, then random ones
            for n in [0, slice_.cutoff] + [rng.randint(1, 10) for _ in range(25)]:
                vec = random_vector(slice_, rng, n)
                for i in range(1, alg.dim + 1):
                    lowered = dunkl_action(slice_, i, vec)
                    assert lowered == verma_action(slice_, alg.y(i), vec)
                    # the named dense entry points give the same vectors, or
                    # raise the same CutoffExceeded with the same message
                    assert dense_agrees(slice_, alg.y(i), vec, n - 1,
                                        lambda v: slice_.apply_y_full(i - 1, n, v))
                    assert dense_agrees(slice_, alg.x(i), vec, n + 1,
                                        lambda v: slice_.apply_x_full(i - 1, n, v))
                    if n == 0:
                        assert slice_.apply_y_full(i - 1, 0, vec[0]) == []
                for k in range(len(alg.group)):
                    assert dense_agrees(slice_, alg.g(k), vec, n,
                                        lambda v: slice_.apply_g_full(k, n, v))

    def test_general_direction_vector(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 6)
        rng = random.Random(9)
        vec = random_vector(slice_, rng, 5)
        direction = [Scalar.rational(2), Scalar.rational(Fraction(-1, 3))]
        combo = alg.y(1) * direction[0] + alg.y(2) * direction[1]
        assert dunkl_action(slice_, direction, vec) == verma_action(slice_, combo, vec)

    def test_rejects_quotients(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        quotient, _ = simple_quotient_slice(alg, irrep_of(alg, "triv"), 6)
        with pytest.raises(ValueError):
            dunkl_action(quotient, 1, quotient.basis_vector(0, 0))

    def test_directions_are_checked(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 3)
        vec = slice_.basis_vector(2, 0)
        for i in (0, 3):
            with pytest.raises(ValueError, match=f"direction index {i} is outside 1..2"):
                dunkl_action(slice_, i, vec)
        for coords in ([ONE], [ONE, ZERO, ZERO]):
            message = f"direction has {len(coords)} coordinates, not 2"
            with pytest.raises(ValueError, match=message):
                dunkl_action(slice_, coords, vec)
        for i in (1, 2):
            assert dunkl_action(slice_, i, vec) == verma_action(slice_, alg.y(i), vec)

    @pytest.mark.parametrize("route", ["verma_action", "dunkl_action"])
    @pytest.mark.parametrize(
        "mv, message",
        [
            ({4: [ONE]}, "degree 4 is outside 0..3"),
            ({-1: [ONE]}, "degree -1 is outside 0..3"),
            ({1: [ONE]}, "degree 1 has 2 coordinates, not 1"),
            ({1: [ONE, ZERO, ONE]}, "degree 1 has 2 coordinates, not 3"),
        ],
        ids=["above-cutoff", "negative", "short", "long"],
    )
    def test_malformed_vectors_rejected(self, route, mv, message):
        # both public routes share one check, made before any coordinate is read
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 3)
        with pytest.raises(ValueError, match=message):
            if route == "verma_action":
                verma_action(slice_, alg.y(1), mv)
            else:
                dunkl_action(slice_, 1, mv)


def dense_agrees(slice_, a, mv, target, entry):
    """Whether verma_action of a on the one-degree vector mv matches the
    dense entry point `entry` (a function of the dense vector) put at the
    target degree: equal vectors, or CutoffExceeded of one message."""
    (vec,) = mv.values()
    expected = outcome(verma_action, slice_, a, mv)
    got = outcome(lambda *_: {target: entry(vec)}, slice_, a, mv)
    if isinstance(expected, dict) and isinstance(got, dict):
        return mv_eq(expected, got)
    return expected == got


def contravariant_form_dims(alg, w, cutoff):
    """Oracle: dim L(w)_n is the rank of v -> (y^a . v)_{|a| = n} in degree 0
    (Dunkl, de Jeu and Opdam 1994), with the commuting y's applied by the
    Dunkl route only, so neither straightening nor the quotient code is used."""
    slice_ = VermaSlice(alg, w, cutoff)
    zero = [ZERO] * w.dim
    dims = [w.dim]
    for n in range(1, cutoff + 1):
        rows = []
        for j in range(slice_.dim(n)):
            # (last y index applied, vector): each multi-index a once
            layer = [(0, slice_.basis_vector(n, j))]
            for _ in range(n):
                layer = [
                    (i, dunkl_action(slice_, i + 1, v))
                    for last, v in layer
                    for i in range(last, alg.dim)
                ]
            rows.append([x for _, v in layer for x in v.get(0, zero)])
        dims.append(linalg.rank(rows))
    return dims


class TestSingularVectors:
    def test_degree_zero_is_the_irrep(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        for w in alg.irreps:
            slice_ = VermaSlice(alg, w, 4)
            space = singular_vectors(slice_, 0)
            assert space.dimension == w.dim
            assert set(space.components) == {w.label}

    def test_order_two_degree_one_isotype(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 20)
        space = singular_vectors(slice_, 1)
        assert space.dimension == 1
        assert set(space.components) == {"sgn"}

    def test_sign_verma_has_no_positive_singular_vectors(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "sgn"), 20)
        for n in range(1, 21):
            assert singular_vectors(slice_, n).dimension == 0

    def test_matches_brute_force_dunkl_kernels(self):
        # The unfiltered Dunkl kernel vanishes off the degrees n = c_E - c_lambda;
        # at those degrees it is the singular space, and the projections onto
        # the allowed isotypes add up to all of it.
        for spec, ell, cs in (
            ("s3", 1, [Fraction(1, 3)]),
            ("s3", 1, [Fraction(1, 2)]),
            ("cyclic:2", 1, [Fraction(3, 2)]),
            ("cyclic:3", 3, [1, 1]),
            ("dihedral:5", 5, [Fraction(1, 5)]),
        ):
            alg = make_algebra(spec, ell, cs)
            for w in alg.irreps:
                oracle = brute_force_singular_dims(alg, w, 8)
                slice_ = VermaSlice(alg, w, 8)
                for n in range(1, 9):
                    if n not in slice_.singular_isotypes:
                        assert oracle[n] == 0, (spec, w.label, n)
                        continue
                    space = singular_vectors(slice_, n)
                    assert space.dimension == oracle[n], (spec, w.label, n)
                    assert sum(map(len, space.components.values())) == oracle[n]

    def test_without_irrep_table_every_degree_is_searched(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(3, 2)])
        bare = CherednikAlgebra(alg.group, alg.c)
        triv = irrep_of(alg, "triv")
        slice_, bare_slice = VermaSlice(alg, triv, 8), VermaSlice(bare, triv, 8)
        assert set(bare_slice.singular_isotypes) == set(range(9))
        for n in range(9):
            space = singular_vectors(bare_slice, n)
            assert space.components == {}
            assert space.vectors == singular_vectors(slice_, n).vectors

    def test_degrees_outside_the_slice_are_rejected(self):
        # dim(-1) would read the top degree's list entry
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        slice_ = VermaSlice(alg, irrep_of(alg, "standard"), 4)
        for n in (-1, -5):
            with pytest.raises(ValueError, match=f"degree {n} is negative"):
                singular_vectors(slice_, n)
        with pytest.raises(CutoffExceeded, match="degree 5 exceeds the cutoff 4"):
            singular_vectors(slice_, 5)
        assert singular_vectors(slice_, 4).dimension == 0

    def test_echelon_form_is_deterministic(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(3, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 10)
        space = singular_vectors(slice_, 3)
        again = singular_vectors(VermaSlice(alg, irrep_of(alg, "triv"), 10), 3)
        assert space.vectors == again.vectors
        assert space.dimension == 1
        assert space.vectors[0].get(0) == ONE


def triv_file_algebra(second=""):
    """cyclic:2 at c = 3/2 from a group file whose irrep table lists triv
    only, followed by `second` (more irrep blocks)."""
    text = "dimension = 1\nbegin generator\n-1\nend\n"
    text += "begin irrep triv dim=1\ngen\n1\nend\n" + second
    group, irreps = load_group_file(text)
    c = ReflectionFunction(group, find_reflections(group), [Fraction(3, 2)])
    return CherednikAlgebra(group, c, irreps=irreps)


def elementwise_character(slice_):
    """Oracle: the graded character from the trace of every group element,
    each read off the matrix of g on the quotient in free coordinates, with
    every column pushed through `apply_g_full`."""
    alg = slice_.algebra
    group = alg.group
    data = {}
    for n in range(slice_.cutoff + 1):
        traces = []
        for g in range(len(group)):
            trace = ZERO
            for i, unit in enumerate(linalg.identity(slice_.dim(n))):
                vec = linalg.dense(slice_.lift(n, unit), slice_.full_dim(n))
                image = slice_.apply_g_full(g, n, vec)
                trace = trace + slice_.to_free(n, linalg.sparse(image))[i]
            traces.append(trace)
        level = {}
        for irr in alg.irreps:
            total = sum(
                (irr.character[group.inv(g)] * t for g, t in enumerate(traces)), ZERO
            )
            mult = total / len(group)
            if mult:
                level[irr.label] = mult.as_int()
        data[n] = level
    return data


CHARACTER_CASES = [
    pytest.param(lambda: make_algebra("s3", 1, [Fraction(1, 2)]), 8, id="s3-half"),
    pytest.param(lambda: make_algebra("s4", 1, [Fraction(1, 2)]), 5, id="s4-half"),
    pytest.param(
        lambda: make_algebra("dihedral:5", 5, [Fraction(1, 5)]), 10, id="dihedral5"
    ),
    pytest.param(
        lambda: make_algebra("cyclic:6", 6, [Fraction(1, 6)]), 8, id="cyclic6"
    ),
    pytest.param(triv_file_algebra, 8, id="triv-only-file"),
]


class TestCharacters:
    """Characters from one trace per conjugacy class, with the Molien series
    for the Verma part and pivot coordinates for the killed part, against
    traces of every group element through the module action."""

    @pytest.mark.parametrize("build,cutoff", CHARACTER_CASES)
    def test_simple_characters_match_elementwise_traces(self, build, cutoff):
        alg = build()
        for w in alg.irreps:
            quotient, character = simple_quotient_slice(alg, w, cutoff)
            assert character == elementwise_character(quotient), w.label

    @pytest.mark.parametrize("build,cutoff", CHARACTER_CASES)
    def test_trace_is_a_class_function(self, build, cutoff):
        alg = build()
        for w in alg.irreps:
            quotient, _ = simple_quotient_slice(alg, w, cutoff)
            for n in range(cutoff + 1):
                for cls in alg.group.conjugacy_classes:
                    traces = {quotient.trace(g, n) for g in cls}
                    assert len(traces) == 1, (w.label, n, cls)

    def test_no_irrep_table_has_no_graded_character(self):
        # the slice is built from an irrep the algebra does not list
        group, irreps = builtin_group("s3")
        c = ReflectionFunction(group, find_reflections(group), [Fraction(1, 2)])
        slice_ = VermaSlice(CherednikAlgebra(group, c), irreps[0], 2)
        with pytest.raises(ValueError, match="no irrep table"):
            slice_.graded_character()

    def test_verma_character_matches_elementwise_traces(self):
        alg = make_algebra("dihedral:5", 5, [Fraction(1, 5)])
        for w in alg.irreps:
            expected = elementwise_character(VermaSlice(alg, w, 6))
            assert VermaSlice(alg, w, 6).graded_character() == expected


def class_trace_multiplicities(slice_, n):
    """Oracle: the multiplicities from one trace per conjugacy class,
    sum_C |C| chi_E(g_C^-1) tr(g_C) / |G|, with the traces of `trace`."""
    alg = slice_.algebra
    group = alg.group
    level = {}
    for irr in alg.irreps:
        total = sum(
            (
                len(cls) * irr.character[group.inv(cls[0])] * slice_.trace(cls[0], n)
                for cls in group.conjugacy_classes
            ),
            ZERO,
        )
        mult = total / len(group)
        if mult:
            level[irr.label] = mult.as_int()
    return level


def partial_quotient(alg, w, cutoff):
    """The radical of the Verma slice killed in degrees 1..cutoff // 2 only."""
    slice_ = VermaSlice(alg, w, cutoff)
    for n in range(1, cutoff // 2 + 1):
        slice_.kill_submodule(n)
    return slice_


KOSZUL_GROUPS = [("s3", 1), ("s4", 1), ("cyclic:6", 6)] + [
    (f"dihedral:{m}", m) for m in range(4, 9)
]

# (spec, ell, c, cutoff): c = 1/h leaves some simple quotient zero above
# degree 0, and c = 1/2 gives radicals in several degrees
ORACLE_CASES = [
    ("s3", 1, Fraction(1, 3), 6),
    ("s3", 1, Fraction(1, 2), 6),
    ("s4", 1, Fraction(1, 4), 4),
    ("s4", 1, Fraction(1, 2), 4),
    ("cyclic:6", 6, Fraction(1, 2), 8),
] + [
    (f"dihedral:{m}", m, c, 6)
    for m in range(4, 9)
    for c in (Fraction(1, m), Fraction(1, 2))
]


def without(alg, label):
    """The algebra of alg with the irrep `label` left out of its table."""
    return CherednikAlgebra(alg.group, alg.c, irreps=[w for w in alg.irreps if w.label != label])


class TestKoszulCharacters:
    """Verma multiplicities from the Koszul recurrence on a complete irrep
    table, against the class-trace route and the dimension counts."""

    @pytest.mark.parametrize("spec,ell,c,cutoff", ORACLE_CASES)
    def test_multiplicities_match_the_class_trace_route(self, spec, ell, c, cutoff):
        alg = make_algebra(spec, ell, [c])
        zero_degrees = 0
        for w in alg.irreps:
            simple, _ = simple_quotient_slice(alg, w, cutoff)
            for slice_ in (VermaSlice(alg, w, cutoff), partial_quotient(alg, w, cutoff), simple):
                for n in range(cutoff + 1):
                    expected = class_trace_multiplicities(slice_, n)
                    assert slice_.multiplicities(n) == expected, (w.label, n)
                    zero_degrees += slice_.dim(n) == 0
        if c != Fraction(1, 2):
            assert zero_degrees

    @pytest.mark.parametrize("spec,ell", KOSZUL_GROUPS)
    def test_koszul_tables_count_dimensions(self, spec, ell):
        # Lambda^k h* (x) F has dimension C(dim, k) dim F, and Lambda^dim h*
        # is one-dimensional, so T_dim permutes the irreps
        alg = make_algebra(spec, ell, [Fraction(1, 3)])
        tables = category_o._koszul_tables(alg)
        assert len(tables) == alg.dim
        dims = [w.dim for w in alg.irreps]
        for k, table in enumerate(tables, 1):
            for f, row in enumerate(table):
                assert sum(t * dims[e] for e, t in row) == math.comb(alg.dim, k) * dims[f]
        top = tables[-1]
        assert all(len(row) == 1 and row[0][1] == 1 for row in top)
        assert sorted(row[0][0] for row in top) == list(range(len(alg.irreps)))
        assert category_o._koszul_tables(alg) is tables

    @pytest.mark.parametrize("spec,ell", KOSZUL_GROUPS)
    def test_verma_levels_count_monomials(self, spec, ell):
        alg = make_algebra(spec, ell, [Fraction(1, 3)])
        dims = [w.dim for w in alg.irreps]
        for w in alg.irreps:
            levels = VermaSlice(alg, w, 10)._verma_levels
            assert len(levels) == 11
            for n, level in enumerate(levels):
                monomials = math.comb(n + alg.dim - 1, alg.dim - 1)
                assert sum(m * d for m, d in zip(level, dims)) == w.dim * monomials

    @pytest.mark.parametrize(
        "spec,ell,c,left_out,cutoff",
        [
            ("s3", 1, Fraction(1, 2), "standard", 6),
            ("s3", 1, Fraction(1, 3), "sgn", 6),
            ("s4", 1, Fraction(1, 2), "dim2", 6),
            ("dihedral:4", 4, Fraction(1, 4), "eps", 8),
            ("dihedral:5", 5, Fraction(1, 5), "rho2", 10),
        ],
    )
    def test_incomplete_table_agrees_with_the_complete_one(self, spec, ell, c, left_out, cutoff):
        # the class route of an incomplete table gives the listed labels'
        # part of the complete table's characters, and the radical does not
        # depend on which irreps are listed
        complete = make_algebra(spec, ell, [c])
        partial = without(complete, left_out)
        for w in partial.irreps:
            for verma in (VermaSlice(complete, w, cutoff), VermaSlice(partial, w, cutoff)):
                assert bool(verma._verma_levels) == (verma.algebra is complete)
            for build in (VermaSlice, lambda *args: simple_quotient_slice(*args)[0]):
                full = build(complete, w, cutoff).graded_character()
                part = build(partial, w, cutoff).graded_character()
                restricted = {
                    n: {label: m for label, m in level.items() if label != left_out}
                    for n, level in full.items()
                }
                assert part == restricted, w.label

    @pytest.mark.parametrize(
        "spec,ell,c,cutoff",
        [
            ("s3", 1, Fraction(1, 2), 6),
            ("s4", 1, Fraction(1, 2), 4),
            ("dihedral:5", 5, Fraction(1, 5), 8),
            ("cyclic:6", 6, Fraction(1, 2), 8),
        ],
    )
    def test_traces_do_not_read_the_irrep_table(self, spec, ell, c, cutoff):
        # the Verma part of a trace is the series on the class basis, so a
        # table missing its last irrep gives the complete table's traces
        complete = make_algebra(spec, ell, [c])
        partial = without(complete, complete.irreps[-1].label)
        for w in partial.irreps:
            for build in (VermaSlice, lambda *args: simple_quotient_slice(*args)[0]):
                full, part = build(complete, w, cutoff), build(partial, w, cutoff)
                for g in range(len(complete.group)):
                    for n in range(cutoff + 1):
                        assert part.trace(g, n) == full.trace(g, n), (w.label, g, n)

    def test_broken_killed_space_is_a_bug_not_a_cutoff(self):
        # a killed space that is not G-stable gives a multiplicity that no
        # cutoff can mend: a plain RuntimeError, not the ComputationLimit
        # InconsistentTruncation that asks for a larger cutoff
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        cases = [
            ("standard", {0: {0: ONE}}, "non-integral multiplicity 1/3 "),
            ("triv", {0: {0: ONE}}, "non-integral multiplicity 2/3 "),
            ("triv", {0: {0: ONE, 1: Scalar.rational(-2)}}, "negative multiplicity -1 "),
        ]
        for label, killed, message in cases:
            slice_ = VermaSlice(alg, irrep_of(alg, label), 3)
            slice_.killed[1] = killed
            with pytest.raises(RuntimeError, match=message) as info:
                slice_.multiplicities(1)
            assert type(info.value) is RuntimeError

    def test_group_elements_outside_the_group_are_rejected(self):
        # a negative index used to read an element from the end; the degree
        # is checked first
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 3)
        for g in (-1, 6):
            with pytest.raises(ValueError, match=f"group element {g} is outside 0..5"):
                slice_.trace(g, 2)
            with pytest.raises(ValueError, match="degree 4 is outside 0..3"):
                slice_.trace(g, 4)
        # g5 is a reflection: 1 / det(1 - t g5|h*) = 1 / (1 - t^2)
        assert [slice_.trace(5, n) for n in range(4)] == [1, 0, 1, 0]

    def test_a_koszul_entry_that_is_not_a_count_raises(self, monkeypatch):
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        traces = category_o._exterior_traces
        half = Scalar.rational(Fraction(1, 2))
        monkeypatch.setattr(
            category_o, "_exterior_traces", lambda *args: tuple(e * half for e in traces(*args))
        )
        slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 3)
        message = r"non-integral multiplicity 1/2 .* in Lambda\^1 h\*"
        with pytest.raises(RuntimeError, match=message):
            slice_.multiplicities(1)
        assert alg._koszul == []


class TestSimpleQuotients:
    def test_order_two_half_parameter(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        quotient, character = simple_quotient_slice(alg, irrep_of(alg, "triv"), 20)
        assert [quotient.dim(n) for n in range(21)] == [1] + [0] * 20
        assert character == {0: {"triv": 1}} | {n: {} for n in range(1, 21)}

    def test_order_two_generic_parameter(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 3)])
        quotient, _ = simple_quotient_slice(alg, irrep_of(alg, "triv"), 20)
        assert [quotient.dim(n) for n in range(21)] == [1] * 21

    def test_degree_zero_part_is_always_the_irrep(self):
        for spec, ell, cs in (
            ("cyclic:2", 1, [Fraction(1, 2)]),
            ("cyclic:3", 3, [Fraction(1, 2), Fraction(1, 3)]),
            ("s3", 1, [Fraction(1, 3)]),
        ):
            alg = make_algebra(spec, ell, cs)
            for w in alg.irreps:
                quotient, character = simple_quotient_slice(alg, w, 8)
                assert quotient.dim(0) == w.dim
                assert character[0] == {w.label: 1}

    def test_higher_singular_vector_kills_tail(self):
        # at c = 3/2 the first singular vector of the trivial Verma sits in
        # degree 3, so the simple quotient has dimensions 1, 1, 1, 0, ...
        # (cutoff 3 puts that degree at the edge of the truncation)
        alg = make_algebra("cyclic:2", 1, [Fraction(3, 2)])
        for cutoff in (3, 12):
            quotient, _ = simple_quotient_slice(alg, irrep_of(alg, "triv"), cutoff)
            dims = [quotient.dim(n) for n in range(cutoff + 1)]
            assert dims == [1, 1, 1] + [0] * (cutoff - 2)

    @pytest.mark.parametrize(
        "spec,ell,c,cutoff",
        [
            ("s3", 1, Fraction(1, 3), 6),
            ("s4", 1, Fraction(1, 2), 4),
            ("dihedral:5", 5, Fraction(1, 5), 6),
        ],
    )
    def test_killed_rows_are_reduced_sparse_rows(self, spec, ell, c, cutoff):
        alg = make_algebra(spec, ell, [c])
        stored = 0
        for w in alg.irreps:
            quotient, _ = simple_quotient_slice(alg, w, cutoff)
            for basis in quotient.killed:
                for p, row in basis.items():
                    assert all(x for x in row.values())
                    assert row[p] == ONE
                    assert set(row) & set(basis) == {p}
                stored += len(basis)
        assert stored

    def test_degrees_outside_the_slice_are_rejected(self):
        # a negative degree used to read the top degree's list entry, and
        # kill_submodule(0) to take degree-0 singular vectors
        alg = make_algebra("s3", 1, [Fraction(1, 2)])
        quotient, _ = simple_quotient_slice(alg, irrep_of(alg, "triv"), 4)
        for n in (-1, -5, 5):
            for call in (quotient.dim, quotient.multiplicities, lambda n: quotient.trace(0, n)):
                with pytest.raises(ValueError, match=f"degree {n} is outside 0..4"):
                    call(n)
        fresh = VermaSlice(alg, irrep_of(alg, "triv"), 4)
        for n in (-1, 0, 5):
            with pytest.raises(ValueError, match=f"degree {n} is outside 1..4"):
                fresh.kill_submodule(n)
        assert fresh.killed == [{}] * 5
        # the in-range values are those of the unchecked slice
        assert [quotient.dim(n) for n in range(5)] == [1, 2, 3, 3, 3]
        traces = [[quotient.trace(g, n) for g in range(6)] for n in range(5)]
        assert traces == [[1] * 6, [2, 0, 0, -1, -1, 0]] + [[3, 1, 1, 0, 0, 1]] * 3
        both = {"triv": 1, "standard": 1}
        assert [quotient.multiplicities(n) for n in range(5)] == (
            [{"triv": 1}, {"standard": 1}] + [both] * 3
        )

    def test_exactness_bookkeeping(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        for w in alg.irreps:
            quotient, _ = simple_quotient_slice(alg, w, 10)
            for n in range(11):
                killed = len(quotient.killed[n])
                assert quotient.full_dim(n) == killed + quotient.dim(n)

    def test_quotient_character_dimensions_match(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        for w in alg.irreps:
            quotient, character = simple_quotient_slice(alg, w, 10)
            for n in range(11):
                assert sum(m * irrep_of(alg, lbl).dim for lbl, m in character[n].items()) == (
                    quotient.dim(n)
                )

    @pytest.mark.parametrize("second", [""], ids=["triv-only"])
    def test_incomplete_irrep_table_searches_every_degree(self, second):
        # The table lists triv only.  At c = 3/2 the sgn-type singular
        # vector of Delta(triv) sits in degree 3, a degree no listed isotype
        # allows, and the quotient must still kill it.  (Listing triv twice
        # is rejected when the algebra is built; see tests/test_cli.py.)
        alg = triv_file_algebra(second)
        triv = alg.irreps[0]
        quotient, character = simple_quotient_slice(alg, triv, 8)
        assert [quotient.dim(n) for n in range(9)] == [1, 1, 1] + [0] * 6
        assert character[2] == {"triv": 1}
        space = singular_vectors(VermaSlice(alg, triv, 8), 3)
        assert space.dimension == 1 and space.components == {}
        assert singular_vectors(VermaSlice(alg, triv, 8), 0).components == {"triv": [{0: ONE}]}

    @pytest.mark.parametrize(
        "spec,ell,cs,cutoff",
        [
            ("s3", 1, [Fraction(1, 3)], 6),
            ("s3", 1, [Fraction(1, 2)], 6),
            ("dihedral:5", 5, [Fraction(1, 5)], 6),
            ("s4", 1, [Fraction(1, 2)], 3),
        ],
    )
    def test_dims_match_contravariant_form(self, spec, ell, cs, cutoff):
        alg = make_algebra(spec, ell, cs)
        for w in alg.irreps:
            quotient, _ = simple_quotient_slice(alg, w, cutoff)
            expected = contravariant_form_dims(alg, w, cutoff)
            assert [quotient.dim(n) for n in range(cutoff + 1)] == expected


def galois(x, r):
    """sigma_r: zeta_ell -> zeta_ell^r on a scalar of Q(zeta_ell)."""
    total = sum(
        (Scalar.zeta(x.ell, r * i) * Scalar.rational(c) for i, c in enumerate(x.coeffs)),
        ZERO,
    )
    return total / x.den


def beg_trace_series(alg, g, r, h, cutoff):
    """Oracle: det(1 - t^r sigma_r(g) | h*) / det(1 - t g | h*) up to t^cutoff
    (Berest, Etingof and Ginzburg 2003), with sigma_r the Galois automorphism
    zeta_h -> zeta_h^r.  The denominator is the series of monomial traces;
    the numerator's coefficients e_k(g) come from the traces of g^i on h* by
    Newton's identities."""
    group = alg.group
    power, p = group.identity, [ZERO]
    for _ in range(alg.dim):
        power = group.mult_table[power][g]
        p.append(monomial_trace(alg, power, 1))
    e = [ONE]
    for k in range(1, alg.dim + 1):
        acc = sum(((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)), ZERO)
        e.append(acc / k)
    numerator = [ZERO] * (cutoff + 1)
    for k, ek in enumerate(e):
        if r * k <= cutoff:
            assert h % ek.ell == 0
            numerator[r * k] = galois(ek, r) * (-1) ** k
    molien = [monomial_trace(alg, g, n) for n in range(cutoff + 1)]
    return [
        sum((numerator[k] * molien[n - k] for k in range(n + 1)), ZERO)
        for n in range(cutoff + 1)
    ]


def radical_state(slice_):
    """A deep copy of the radical and its Groebner bookkeeping."""
    return copy.deepcopy(
        (slice_.killed, slice_._radical_top, slice_._generators, slice_._pairs)
    )


class TestGroebnerRadical:
    """The radical's x step by Groebner bookkeeping (one candidate per new
    lead plus the degree's S-pairs) against the all-candidates oracle, and
    the order of the steps."""

    S4_LISTED = ("triv", "standard", "dim2")

    @pytest.mark.parametrize(
        "spec,ell,c,cutoff,listed",
        [
            ("s3", 1, Fraction(1, 2), 8, None),
            ("s4", 1, Fraction(1, 2), 8, None),
            ("s4", 1, Fraction(1, 3), 8, None),
            ("s4", 1, Fraction(3, 2), 8, None),
            # triv: a chain criterion that skips every pair whose lcm a third
            # lead divides drops S-pairs it needs here
            ("s4", 1, Fraction(3, 4), 8, None),
            ("dihedral:5", 5, Fraction(1, 5), 12, None),
            ("dihedral:5", 5, Fraction(2, 5), 12, None),
            ("s4", 1, Fraction(1, 2), 8, S4_LISTED),
        ],
    )
    def test_killed_rows_match_the_all_candidates_oracle(self, spec, ell, c, cutoff, listed):
        alg = make_algebra(spec, ell, [c])
        if listed:
            alg = CherednikAlgebra(
                alg.group, alg.c, irreps=[w for w in alg.irreps if w.label in listed]
            )
        for w in alg.irreps:
            oracle = all_candidates_radical(alg, w, cutoff)
            slice_ = VermaSlice(alg, w, cutoff)
            for n in range(1, cutoff + 1):
                slice_.kill_submodule(n)
                assert slice_.killed[n] == oracle[n], (w.label, n)
            assert slice_.killed == oracle

    def test_the_s_pairs_carry_new_leads(self):
        # s4 at c = 1/3, triv: without its S-pairs the radical misses rows,
        # and the killed space stops being G-stable at degree 4
        alg = make_algebra("s4", 1, [Fraction(1, 3)])
        triv = irrep_of(alg, "triv")
        slice_, _ = simple_quotient_slice(alg, triv, 12)
        assert slice_.killed == all_candidates_radical(alg, triv, 12)
        assert sum(len(pairs) for pairs in slice_._pairs.values()) > 0

    def test_steps_run_in_order(self):
        # kill_submodule(3) on a fresh slice used to read J_2 as zero and
        # build a wrong radical
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        triv = irrep_of(alg, "triv")
        slice_ = VermaSlice(alg, triv, 4)
        with pytest.raises(ValueError, match="built through degree 0, so the next step is 1, not 3"):
            slice_.kill_submodule(3)
        assert radical_state(slice_) == radical_state(VermaSlice(alg, triv, 4))
        slice_.kill_submodule(1)
        slice_.kill_submodule(2)
        state = radical_state(slice_)
        assert state[0][1] and state[2]
        for n in (1, 2, 4):
            with pytest.raises(ValueError, match=f"through degree 2, so the next step is 3, not {n}"):
                slice_.kill_submodule(n)
            assert radical_state(slice_) == state
        slice_.kill_submodule(3)
        slice_.kill_submodule(4)
        assert slice_.killed == all_candidates_radical(alg, triv, 4)
        assert [slice_.dim(n) for n in range(5)] == [1, 0, 0, 0, 0]

    def test_a_step_that_raises_leaves_the_slice_as_it_was(self, monkeypatch):
        alg = make_algebra("s4", 1, [Fraction(1, 3)])
        triv = irrep_of(alg, "triv")
        slice_ = VermaSlice(alg, triv, 6)
        for n in range(1, 4):
            slice_.kill_submodule(n)
        state = radical_state(slice_)

        def failing(slice_, n):
            raise RuntimeError("stopped")

        monkeypatch.setattr(category_o, "singular_vectors", failing)
        with pytest.raises(RuntimeError, match="stopped"):
            slice_.kill_submodule(4)
        assert radical_state(slice_) == state
        monkeypatch.undo()
        for n in range(4, 7):
            slice_.kill_submodule(n)
        assert slice_.killed == all_candidates_radical(alg, triv, 6)


class TestFiniteDimensionalTriv:
    """At c = r/h with gcd(r, h) = 1, L_c(triv) of a real reflection group
    with Coxeter number h is finite-dimensional, with top degree (r - 1) rank;
    its graded trace has a closed form."""

    @pytest.mark.parametrize(
        "spec,ell,r,h",
        [
            ("s3", 1, 4, 3),
            ("s4", 1, 3, 4),
            ("dihedral:4", 4, 3, 4),
            ("dihedral:5", 5, 2, 5),  # needs sigma_r
            ("cyclic:2", 1, 7, 2),
        ],
    )
    def test_graded_trace_matches_closed_form(self, spec, ell, r, h):
        alg = make_algebra(spec, ell, [Fraction(r, h)])
        cutoff = (r - 1) * alg.dim + 2
        quotient, _ = simple_quotient_slice(alg, irrep_of(alg, "triv"), cutoff)
        for g in range(len(alg.group)):
            expected = beg_trace_series(alg, g, r, h, cutoff)
            got = [quotient.trace(g, n) for n in range(cutoff + 1)]
            assert got == expected, (spec, g)
        dims = [quotient.dim(n) for n in range(cutoff + 1)]
        assert dims[-3:] == [1, 0, 0]


def stacked_kernel(slice_, n):
    """Oracle: the joint kernel of the y's on all of degree n, one stacked
    nullspace over the free unit vectors, taken where the Euler rule (or an
    incomplete table) allows singular vectors."""
    if n == 0:
        return [list(row) for row in linalg.identity(slice_.dim(0))]
    cols = slice_.dim(n)
    if cols == 0 or n not in slice_.singular_isotypes:
        return []
    stacked = []
    for i in range(slice_.algebra.dim):
        images = [
            slice_.to_free(
                n - 1,
                linalg.sparse(
                    slice_.apply_y_full(
                        i, n, linalg.dense(slice_.lift(n, unit), slice_.full_dim(n))
                    )
                ),
            )
            for unit in linalg.identity(cols)
        ]
        stacked.extend(list(row) for row in zip(*images))
    if not stacked:
        return [list(row) for row in linalg.identity(cols)]
    return linalg.nullspace(stacked)


def projected_components(slice_, n, kernel):
    """Oracle: the isotypic projector dim E / |G| sum_g chi_E(g^-1) g of each
    allowed listed isotype applied to the kernel vectors, in echelon form."""
    alg = slice_.algebra
    group, zero = alg.group, alg._zero_deg
    components = {}
    for irr in alg.irreps:
        if irr.label not in slice_.singular_isotypes.get(n, []):
            continue
        weight = Scalar.rational(irr.dim) / len(group)
        projector = alg.element(
            {
                (zero, g, zero): weight * irr.character[group.inv(g)]
                for g in range(len(group))
            }
        )
        images = [verma_action(slice_, projector, {n: v}).get(n) for v in kernel]
        basis = linalg.rref([v for v in images if v])[0]
        if basis:
            components[irr.label] = basis
    return components


def snapshot(slice_):
    """A copy of the slice with its killed rows as they are now."""
    copy = VermaSlice(slice_.algebra, slice_.irrep, slice_.cutoff)
    copy.killed = [{p: dict(row) for p, row in basis.items()} for basis in slice_.killed]
    return copy


ISOTYPIC_CASES = [
    ("s3", 1, Fraction(1, 3), 5),
    ("s3", 1, Fraction(1, 2), 5),
    ("s4", 1, Fraction(1, 2), 4),
    ("s4", 1, Fraction(1, 4), 4),
    ("dihedral:5", 5, Fraction(1, 5), 5),
    ("dihedral:5", 5, Fraction(2, 5), 5),
]


class TestIsotypicKernels:
    """The kernels on the isotypic blocks against the stacked kernel of the
    whole degree and the isotypic projectors."""

    @staticmethod
    def check(slice_, n):
        # the oracles work in free coordinates, the slice in sparse ambient
        # rows: lifting keeps reduced echelon form, as the killed pivots are
        # not free
        kernel = stacked_kernel(slice_, n)
        lifted = [slice_.lift(n, v) for v in kernel]
        space = singular_vectors(slice_, n)
        assert space.vectors == lifted, n
        components = {
            label: [slice_.lift(n, v) for v in basis]
            for label, basis in projected_components(slice_, n, kernel).items()
        }
        assert space.components == components, n

    @pytest.mark.parametrize("spec,ell,c,cutoff", ISOTYPIC_CASES)
    def test_plain_slices(self, spec, ell, c, cutoff):
        alg = make_algebra(spec, ell, [c])
        for w in alg.irreps:
            slice_ = VermaSlice(alg, w, cutoff)
            for n in range(cutoff + 1):
                self.check(slice_, n)

    @pytest.mark.parametrize("spec,ell,c,cutoff", ISOTYPIC_CASES)
    def test_partial_quotients(self, spec, ell, c, cutoff, monkeypatch):
        # the states kill_submodule takes kernels in: killed[n] holds
        # R_n = sum_i x_i J_(n-1) and the lower degrees hold the radical
        alg = make_algebra(spec, ell, [c])
        states = []
        real = category_o.singular_vectors

        def recording(slice_, n):
            states.append((snapshot(slice_), n))
            return real(slice_, n)

        monkeypatch.setattr(category_o, "singular_vectors", recording)
        for w in alg.irreps:
            simple_quotient_slice(alg, w, cutoff)
        monkeypatch.undo()
        assert any(state.killed[n] for state, n in states)
        for state, n in states:
            self.check(state, n)

    @pytest.mark.parametrize(
        "spec,ell,c,cutoff",
        [
            ("s3", 1, Fraction(1, 3), 5),
            ("s4", 1, Fraction(1, 2), 3),
            ("dihedral:5", 5, Fraction(2, 5), 5),
        ],
    )
    def test_truncated_irrep_list_takes_the_full_kernel(self, spec, ell, c, cutoff, monkeypatch):
        full = make_algebra(spec, ell, [c])
        alg = CherednikAlgebra(full.group, full.c, irreps=full.irreps[:-1])
        calls = []
        real = category_o._y_kernel

        def counting(slice_, n, block):
            calls.append(len(block) == slice_.dim(n))
            return real(slice_, n, block)

        monkeypatch.setattr(category_o, "_y_kernel", counting)
        for w in alg.irreps:
            slice_ = VermaSlice(alg, w, cutoff)
            quotient, _ = simple_quotient_slice(alg, w, cutoff)
            for n in range(cutoff + 1):
                self.check(slice_, n)
                self.check(quotient, n)
        # every degree >= 1 with room is searched on the whole degree
        assert calls.count(True) >= len(alg.irreps) * cutoff


class TestHomDim:
    """The truncated dim Hom(Delta(E), Delta(lambda)): the E-component of the
    singular vectors at the Euler degree c_E - c_lambda holds dim E times it,
    and no other degree has room for one."""

    def test_identity_map_always_present(self):
        for gamma in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            alg = make_algebra("cyclic:2", 1, [gamma])
            slice_ = VermaSlice(alg, irrep_of(alg, "triv"), 12)
            assert singular_vectors(slice_, 0).components == {"triv": [{0: ONE}]}

    def test_order_two_cross_homs(self):
        # c_sgn - c_triv = 1 at c = 1/2
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        triv, sgn = irrep_of(alg, "triv"), irrep_of(alg, "sgn")
        from_triv = VermaSlice(alg, triv, 12)
        assert from_triv.singular_isotypes == {0: ["triv"], 1: ["sgn"]}
        assert singular_vectors(from_triv, 1).components == {"sgn": [{0: ONE}]}
        assert VermaSlice(alg, sgn, 12).singular_isotypes == {0: ["sgn"]}


class TestOrderAndBlocks:
    def test_order_two_half(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        graph = highest_weight_order(alg)
        assert graph.edges == [("triv", "sgn")]
        assert blocks(alg) == [["triv", "sgn"]]

    def test_order_two_generic(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 3)])
        assert highest_weight_order(alg).edges == []
        assert blocks(alg) == [["triv"], ["sgn"]]

    def test_zero_parameter_all_singletons(self):
        alg = make_algebra("s4", 1, [0])
        assert highest_weight_order(alg).edges == []
        assert blocks(alg) == [[w.label] for w in alg.irreps]

    def test_no_self_edges(self):
        for spec, ell, cs in (
            ("cyclic:4", 4, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]),
            ("s3", 1, [Fraction(1, 2)]),
            ("s4", 1, [Fraction(1, 2)]),
        ):
            alg = make_algebra(spec, ell, cs)
            graph = highest_weight_order(alg)
            assert all(w != e for w, e in graph.edges)

    def test_c_values_computed_once_per_algebra(self, monkeypatch):
        alg = make_algebra("s4", 1, [Fraction(1, 2)])
        calls = []
        real = category_o.c_scalar

        def counting(algebra, irrep):
            calls.append(irrep.label)
            return real(algebra, irrep)

        monkeypatch.setattr(category_o, "c_scalar", counting)
        first = highest_weight_order(alg)
        first.c_values.clear()  # the graph holds a copy of the table
        blocks(alg)
        for w in alg.irreps:
            # c_value is the slice's one call; singular_isotypes reads the table
            assert VermaSlice(alg, w, 4).singular_isotypes
        assert calls == [w.label for w in alg.irreps] * 2
        assert highest_weight_order(alg).c_values == {
            w.label: real(alg, w) for w in alg.irreps
        }

    def test_blocks_refine_order_connectivity(self):
        alg = make_algebra("s3", 1, [Fraction(1, 3)])
        partition = blocks(alg)
        index = {}
        for i, blk in enumerate(partition):
            for lbl in blk:
                index[lbl] = i
        for w, e in highest_weight_order(alg).edges:
            assert index[w] == index[e]


def _bfs_components(graph) -> list:
    """Connected components of the undirected order graph by breadth-first
    search, ordered by first label, members in label order."""
    labels = list(graph.c_values)
    neighbours = {lbl: set() for lbl in labels}
    for w, e in graph.edges:
        neighbours[w].add(e)
        neighbours[e].add(w)
    seen, out = set(), []
    for start in labels:
        if start in seen:
            continue
        seen.add(start)
        component, queue = [], [start]
        while queue:
            x = queue.pop(0)
            component.append(x)
            for y in neighbours[x] - seen:
                seen.add(y)
                queue.append(y)
        out.append(sorted(component, key=labels.index))
    return out


class TestBlocksAgainstBFS:
    """`blocks` reads the components off the integer-linkage classes; a BFS
    over the order's edges is the independent oracle."""

    @pytest.mark.parametrize("spec, ell, n", BLOCK_GROUPS, ids=[g[0] for g in BLOCK_GROUPS])
    def test_blocks_are_the_order_components(self, spec, ell, n):
        group, _ = builtin_group(spec, ell)
        classes = len(ReflectionFunction(group, find_reflections(group), [0]).classes)
        choices = [[Fraction(0)], [Fraction(1, 2)], [Fraction(1, 3)], [Fraction(1, n)]]
        choices += [
            [Fraction(1, k + 2) for k in range(classes)],
            [Fraction(k + 1, 2) for k in range(classes)],
        ]
        for values in choices:
            alg = make_algebra(spec, ell, values)
            assert blocks(alg) == _bfs_components(highest_weight_order(alg)), values

    def test_one_c_value_joins_a_linked_class(self):
        # eps, epsdet and rho1 share c = 1 and link to triv (0) and det (2)
        alg = make_algebra("dihedral:4", 4, [Fraction(1, 4)])
        assert blocks(alg) == [["triv", "det", "eps", "epsdet", "rho1"]]
        assert blocks(alg) == _bfs_components(highest_weight_order(alg))

    def test_a_single_c_value_class_splits(self):
        # eps, epsdet and rho1 share c = 1 with no other label in their class
        alg = make_algebra("dihedral:4", 4, [Fraction(1, 3)])
        assert blocks(alg) == [["triv"], ["det"], ["eps"], ["epsdet"], ["rho1"]]
        assert blocks(alg) == _bfs_components(highest_weight_order(alg))


def brute_singular_isotypes(slice_):
    """Degree n -> the listed labels E with c_E = c_lambda + n, searched over
    n = 0..cutoff; every degree is a key when the table is incomplete."""
    alg = slice_.algebra
    out = {}
    for irr in alg.irreps:
        for n in range(slice_.cutoff + 1):
            if c_scalar(alg, irr) == slice_.c_value + n:
                out.setdefault(n, []).append(irr.label)
    if sum(irr.dim**2 for irr in alg.irreps) != len(alg.group):
        out = {n: out.get(n, []) for n in range(slice_.cutoff + 1)}
    return out


def brute_edges(alg):
    """(W, E) for every pair of listed labels with c_E = c_W + n, 0 < n < 100."""
    c = {irr.label: c_scalar(alg, irr) for irr in alg.irreps}
    return [(w, e) for w in c for e in c if any(c[e] == c[w] + n for n in range(1, 100))]


class TestLinkageAgainstBruteForce:
    """`singular_isotypes` and the order's edges read one Euler linkage; a
    search over the degrees and the listed labels is the oracle."""

    @staticmethod
    def check(alg, irreps, cutoff):
        assert highest_weight_order(alg).edges == brute_edges(alg)
        for w in irreps:
            slice_ = VermaSlice(alg, w, cutoff)
            got = slice_.singular_isotypes
            assert list(got.items()) == list(brute_singular_isotypes(slice_).items()), w.label

    @pytest.mark.parametrize("spec, ell, n", BLOCK_GROUPS, ids=[g[0] for g in BLOCK_GROUPS])
    def test_complete_tables(self, spec, ell, n):
        for values in c_value_lists(spec, ell) + [[Fraction(1, 2)], [Fraction(1, n)]]:
            alg = make_algebra(spec, ell, values)
            self.check(alg, alg.irreps, 6)

    @pytest.mark.parametrize("spec, ell, c", [("s3", 1, Fraction(1, 2)), ("dihedral:4", 4, Fraction(1, 4))])
    def test_incomplete_table_and_an_unlisted_irrep(self, spec, ell, c):
        full = make_algebra(spec, ell, [c])
        alg = CherednikAlgebra(full.group, full.c, irreps=full.irreps[:-1])
        # the last irrep is not listed, but its slice still has a c_lambda
        self.check(alg, full.irreps, 4)


class TestDecomposition:
    def test_order_two_half_matrix(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        matrix = decomposition_matrix(alg, 20)
        assert matrix["triv"] == {"triv": 1, "sgn": 1}
        assert matrix["sgn"] == {"triv": 0, "sgn": 1}

    def test_order_two_generic_is_identity(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 3)])
        matrix = decomposition_matrix(alg, 20)
        for w in ("triv", "sgn"):
            for e in ("triv", "sgn"):
                assert matrix[w][e] == (1 if w == e else 0)

    def test_diagonal_is_one_and_unitriangular(self):
        for spec, ell, cs in (
            ("cyclic:2", 1, [Fraction(1, 2)]),
            ("cyclic:3", 3, [Fraction(1, 3), Fraction(1, 3)]),
            ("s3", 1, [Fraction(1, 3)]),
        ):
            alg = make_algebra(spec, ell, cs)
            matrix = decomposition_matrix(alg, 12)
            graph = highest_weight_order(alg)
            edges = set(graph.edges)
            for w in matrix:
                assert matrix[w][w] == 1
                for e, mult in matrix[w].items():
                    if mult and e != w:
                        assert (w, e) in edges

    def test_verma_character_is_sum_of_simples(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        cutoff = 14
        simples = {
            w.label: simple_quotient_slice(alg, w, cutoff)[1] for w in alg.irreps
        }
        c_values = {w.label: c_scalar(alg, w) for w in alg.irreps}
        for w in alg.irreps:
            mults = decompose_verma_character(alg, w, cutoff, simples)
            total: dict[int, dict[str, int]] = {}
            for label, m in mults.items():
                if not m:
                    continue
                shift = (c_values[label] - c_values[w.label]).as_int()
                for n, level in simples[label].items():
                    if n + shift > cutoff:
                        continue
                    row = total.setdefault(n + shift, {})
                    for lbl2, mult2 in level.items():
                        row[lbl2] = row.get(lbl2, 0) + m * mult2
            expected = VermaSlice(alg, w, cutoff).graded_character()
            assert {n: total.get(n, {}) for n in range(cutoff + 1)} == expected

    def test_inconsistent_truncation_detected(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        # corrupt the simple character table: pretend L(sgn) is a single line
        wrong = {
            "triv": simple_quotient_slice(alg, irrep_of(alg, "triv"), 10)[1],
            "sgn": {0: {"sgn": 1}},
        }
        with pytest.raises(InconsistentTruncation):
            decompose_verma_character(alg, irrep_of(alg, "triv"), 10, wrong)


# the partition of each built-in S_n label
PARTITIONS = {
    "triv": lambda n: (n,),
    "sgn": lambda n: (1,) * n,
    "standard": lambda n: (n - 1, 1),
    "standard_sgn": lambda n: (2,) + (1,) * (n - 2),
    "dim2": lambda n: (2, 2),
}


def e_core(partition, e):
    """The e-core: on the beta-numbers part_i + k - i of the k parts, move
    each bead b to b - e while that place is empty (one rim e-hook each)."""
    k = len(partition)
    beads = {part + k - 1 - i for i, part in enumerate(partition)}
    while True:
        b = next((b for b in sorted(beads) if b >= e and b - e not in beads), None)
        if b is None:
            break
        beads.remove(b)
        beads.add(b - e)
    core = (b - (k - 1 - i) for i, b in enumerate(sorted(beads, reverse=True)))
    return tuple(part for part in core if part)


class TestWeightOneBlocks:
    """Rouquier (Moscow Math. J. 2008): for c not in 1/2 + Z with
    denominator e, the blocks of category O for S_n are the partitions with
    one e-core.  For s3 and s4 with e >= 3 every block has weight
    (n - |core|)/e at most one, and a weight-one block E_1, ..., E_k ordered
    by c_E is a chain: [M(E_i) : L(E_j)] is 1 for j in {i, i + 1} and 0
    otherwise, so ch L(E_i) = sum_{j >= i} (-1)^(j-i) t^(c_Ej - c_Ei) ch M(E_j).
    The expected values come from partitions and Verma characters only."""

    @pytest.mark.parametrize(
        "spec, c, cutoff",
        [
            pytest.param(spec, Fraction(c), cutoff, id=f"{spec}-c={c}")
            for spec, cs, cutoff in (
                ("s3", ("1/3", "2/3", "-1/3", "1/4"), 10),
                ("s4", ("1/3", "3/4", "-3/4", "5/4"), 10),
                ("s4", ("1/5",), 8),
            )
            for c in cs
        ],
    )
    def test_chains_match_the_e_cores(self, spec, c, cutoff):
        alg = make_algebra(spec, 1, [c])
        n = int(spec[1:])
        cores: dict = {}
        for w in alg.irreps:
            partition = PARTITIONS[w.label](n)
            core = e_core(partition, c.denominator)
            assert n - sum(core) in (0, c.denominator)
            cores.setdefault(core, []).append(w.label)
        assert {frozenset(b) for b in blocks(alg)} == {frozenset(b) for b in cores.values()}

        c_values = highest_weight_order(alg).c_values
        chains = [sorted(b, key=lambda lbl: c_values[lbl].as_fraction()) for b in cores.values()]
        matrix = decomposition_matrix(alg, cutoff)
        for chain in chains:
            for i, label in enumerate(chain):
                expected = {e: int(e in chain[i : i + 2]) for e in matrix}
                assert matrix[label] == expected

                # the alternating sum of shifted Verma characters
                data: dict = {}
                for j, other in enumerate(chain[i:]):
                    shift = (c_values[other] - c_values[label]).as_int()
                    verma = VermaSlice(alg, irrep_of(alg, other), cutoff).graded_character()
                    for d in range(cutoff + 1 - shift):
                        level = data.setdefault(d + shift, {})
                        for lbl, m in verma.get(d, {}).items():
                            level[lbl] = level.get(lbl, 0) + (-1) ** j * m
                _, character = simple_quotient_slice(alg, irrep_of(alg, label), cutoff)
                nonzero = {d: {lbl: m for lbl, m in lvl.items() if m} for d, lvl in data.items()}
                assert character == nonzero


class TestWeightSpaces:
    @pytest.mark.parametrize(
        "spec,ell,cs",
        [
            ("cyclic:2", 1, [Fraction(1, 2)]),
            ("cyclic:4", 4, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]),
            ("s3", 1, [Fraction(1, 3)]),
        ],
    )
    def test_euler_semisimple_with_binomial_dimensions(self, spec, ell, cs):
        alg = make_algebra(spec, ell, cs)
        euler = alg.euler_element()
        for w in alg.irreps:
            slice_ = VermaSlice(alg, w, 6)
            for n in range(7):
                expected_dim = math.comb(n + alg.dim - 1, alg.dim - 1) * w.dim
                assert slice_.dim(n) == expected_dim
                for j in range(slice_.dim(n)):
                    vec = slice_.basis_vector(n, j)
                    out = verma_action(slice_, euler, vec)
                    assert mv_eq(out, mv_scale(vec, slice_.c_value + n))

    def test_occurring_simples_sit_on_the_ladder(self):
        alg = make_algebra("cyclic:2", 1, [Fraction(1, 2)])
        c_values = {w.label: c_scalar(alg, w) for w in alg.irreps}
        matrix = decomposition_matrix(alg, 12)
        for w in matrix:
            for e, mult in matrix[w].items():
                if mult:
                    diff = c_values[e] - c_values[w]
                    assert diff.is_integer() and diff.as_int() >= 0


class TestRelationVanishing:
    def test_defining_relations_kill_slices_small(self):
        # the full exactness sweep to degree 20 lives in the acceptance suite
        for spec, ell, cs in (
            ("cyclic:2", 1, [Fraction(1, 2)]),
            ("s3", 1, [Fraction(1, 3)]),
        ):
            alg = make_algebra(spec, ell, cs)
            d = alg.dim
            for w in alg.irreps:
                slice_ = VermaSlice(alg, w, 6)
                for n in range(6):
                    for j in range(slice_.dim(n)):
                        vec = slice_.basis_vector(n, j)
                        for a in range(1, d + 1):
                            for b in range(1, d + 1):
                                rel = alg.y(a) * alg.x(b) - alg.x(b) * alg.y(a)
                                if a == b:
                                    rel = rel - alg.one()
                                for r in alg.reflections:
                                    coef = (
                                        alg.c(r.index)
                                        * r.covector[a - 1]
                                        * r.vector[b - 1]
                                    )
                                    rel = rel + alg.g(r.index) * coef
                                assert verma_action(slice_, rel, vec) == {}
