"""Group enumeration, pseudo-reflection extraction and irrep validation,
including the built-in families."""

import random
from fractions import Fraction

import pytest

from cherednik import groups, linalg
from cherednik.groups import (
    CapExceeded,
    GroupFileError,
    InfiniteOrder,
    Irrep,
    NonIntegralEntry,
    NotHomomorphism,
    NotIrreducible,
    ReflectionFunction,
    builtin_group,
    enumerate_group,
    find_reflections,
    irrep_from_generators,
    load_group_file,
)
from cherednik.scalars import Scalar, ZERO, ONE
from helpers import group_file_text

S3_GENS = [[[-1, 1], [0, 1]], [[1, 0], [1, -1]]]


def _is_associative(group):
    """Whether (ab)c = a(bc) for every triple of the multiplication table."""
    t = group.mult_table
    n = len(group)
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))


BUILTIN_GROUPS = (
    [("cyclic:%d" % l, l) for l in range(1, 13)]
    + [("dihedral:%d" % l, l) for l in range(3, 9)]
    + [("s3", 1), ("s4", 1)]
)


def _padded(block, n):
    """block in the top-left corner of the n x n identity"""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(block):
        mat[i][: len(row)] = row
    return mat


class TestEnumeration:
    def test_order_two(self):
        group = enumerate_group([[[-1]]])
        assert len(group) == 2
        assert group.mul(1, 1) == 0

    def test_s3_closure(self):
        group = enumerate_group(S3_GENS)
        assert len(group) == 6
        assert len(group.conjugacy_classes) == 3
        assert sorted(len(c) for c in group.conjugacy_classes) == [1, 2, 3]

    def test_trivial_group(self):
        group = enumerate_group([[[1]]])
        assert len(group) == 1

    def test_cap(self, monkeypatch):
        assert groups.MAX_GROUP_ORDER == 10_000
        monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 6)
        assert len(enumerate_group(S3_GENS)) == 6
        monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 5)
        with pytest.raises(CapExceeded, match="group closure exceeds MAX_GROUP_ORDER = 5"):
            enumerate_group(S3_GENS)

    @pytest.mark.parametrize(
        "generator",
        [[[2]], [[1, 0], [0, 3]], [[Scalar.zeta(5) + 1]], [[2 * Scalar.zeta(6) - 1]]],
        ids=["two", "three", "one-plus-zeta5", "sqrt-minus-three"],
    )
    def test_determinant_off_the_roots_of_unity_rejected(self, generator):
        # the closure never starts, so MAX_GROUP_ORDER is never approached
        with pytest.raises(InfiniteOrder, match="generator 2 of 2"):
            enumerate_group([linalg.identity(len(generator)), generator])

    @pytest.mark.parametrize(
        "generator",
        [
            pytest.param([[1, 1], [0, 1]], id="unipotent"),
            pytest.param([[2, 1], [1, 1]], id="hyperbolic"),
            pytest.param([[1, 1, 0], [0, 1, 1], [0, 0, 1]], id="unipotent-3x3"),
        ]
        + [
            pytest.param(_padded(block, n), id=f"{name}-dim{n}")
            for n in (16, 20)
            for name, block in [("two", [[2]]), ("hyperbolic", [[2, 1], [1, 1]]), ("unipotent", [[1, 1], [0, 1]])]
        ],
    )
    def test_infinite_order_rejected_before_the_closure(self, generator, monkeypatch):
        # det is a root of unity in each case, so only g^N = I tells; a closure
        # that started would fail on a MAX_GROUP_ORDER of 1 with another
        # message.  N is 24,504,480 at dimension 16 and 6,983,776,800 at 20:
        # the exact g^N of diag(2, 1, ...) would have about N bits, so the
        # check works mod p
        monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 1)
        with pytest.raises(InfiniteOrder, match="generator 1 of 1 has infinite order"):
            enumerate_group([generator])

    def test_cyclotomic_generators_reduce_through_a_root_of_unity(self, monkeypatch):
        # [[z, 1], [0, 1]] has distinct eigenvalues z and 1, so order 5;
        # [[z, 1], [0, z]] is a Jordan block with det z^2, of infinite order
        z = Scalar.zeta(5)
        assert len(enumerate_group([[[z, ONE], [ZERO, ONE]]])) == 5
        monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 1)
        with pytest.raises(InfiniteOrder, match="generator 1 of 1 has infinite order"):
            enumerate_group([[[z, ONE], [ZERO, z]]])

    def test_singular_generator_is_not_infinite_order(self):
        with pytest.raises(ValueError, match="invertible") as info:
            enumerate_group([[[1, 1], [1, 1]]])
        assert not isinstance(info.value, InfiniteOrder)

    @pytest.mark.parametrize(
        "n, ell, bound", [(2, 1, 12), (3, 1, 12), (2, 5, 60), (2, 8, 48), (4, 1, 120)]
    )
    def test_order_bound(self, n, ell, bound):
        assert groups._order_bound(n, ell)[0] == bound

    @pytest.mark.parametrize("spec,ell", BUILTIN_GROUPS)
    def test_builtin_generators_have_finite_order(self, spec, ell):
        group, _ = builtin_group(spec, ell)
        for s in group.generators:
            assert groups._has_finite_order(group.matrices[s])

    def test_non_integral_entries_rejected(self):
        with pytest.raises(NonIntegralEntry):
            enumerate_group([[[Scalar.rational(Fraction(1, 2))]]])

    def test_inverse_table(self):
        group = enumerate_group(S3_GENS)
        for g in range(len(group)):
            assert group.mul(g, group.inv(g)) == group.identity

    def test_associativity_spot_check(self):
        assert _is_associative(enumerate_group(S3_GENS))

    @pytest.mark.parametrize("spec,ell", BUILTIN_GROUPS)
    def test_builtin_tables_are_associative(self, spec, ell):
        # enumerate_group does not check the law at run time: the table comes
        # from exact matrix products
        assert _is_associative(builtin_group(spec, ell)[0])

    @pytest.mark.parametrize(
        "spec,ell", [("cyclic:6", 6), ("dihedral:5", 5), ("dihedral:8", 8), ("s3", 1), ("s4", 1)]
    )
    def test_tables_match_matrix_products(self, spec, ell):
        # the table is filled from the closure's steps; check it against the matrices
        group, _ = builtin_group(spec, ell)
        mats = group.matrices
        for a in range(len(group)):
            for b in range(len(group)):
                assert mats[group.mul(a, b)] == linalg.mat_mul(mats[a], mats[b])
            assert linalg.mat_mul(mats[a], mats[group.inv(a)]) == mats[group.identity]


class TestReflections:
    def test_order_two_reflection_data(self):
        group = enumerate_group([[[-1]]])
        (r,) = find_reflections(group)
        assert r.eigenvalue == Scalar.rational(-1)
        assert r.covector == (ONE,)
        assert r.vector == (Scalar.rational(2),)

    def test_s3_has_three_real_reflections(self):
        group = enumerate_group(S3_GENS)
        refl = find_reflections(group)
        assert len(refl) == 3
        assert all(r.eigenvalue == Scalar.rational(-1) for r in refl)

    def test_identity_never_returned(self):
        for spec, ell in (("cyclic:4", 4), ("dihedral:4", 4), ("s3", 1), ("s4", 1)):
            group, _ = builtin_group(spec, ell)
            assert all(r.index != group.identity for r in find_reflections(group))

    def test_reflection_set_closed_under_conjugation(self):
        for spec, ell in (("dihedral:5", 5), ("s4", 1), ("cyclic:6", 6)):
            group, _ = builtin_group(spec, ell)
            refl = {r.index: r for r in find_reflections(group)}
            for h in range(len(group)):
                for s, data in refl.items():
                    conj = group.mul(group.mul(h, s), group.inv(h))
                    assert conj in refl
                    assert refl[conj].eigenvalue == data.eigenvalue

    def test_eigen_equations(self):
        # g alpha-check = lambda alpha-check, g fixes ker(alpha), pairing = 2
        for spec, ell in (("cyclic:3", 3), ("dihedral:6", 6), ("s4", 1)):
            group, _ = builtin_group(spec, ell)
            for r in find_reflections(group):
                mat = group.matrices[r.index]
                n = group.dimension
                gu = [
                    sum((mat[i][j] * r.vector[j] for j in range(n)), ZERO)
                    for i in range(n)
                ]
                assert gu == [r.eigenvalue * v for v in r.vector]
                pairing = sum((a * b for a, b in zip(r.vector, r.covector)), ZERO)
                assert pairing == Scalar.rational(2)
                # a kernel vector of alpha is fixed pointwise
                kernel = linalg.nullspace([[x for x in r.covector]])
                for vec in kernel:
                    image = [
                        sum((mat[i][j] * vec[j] for j in range(n)), ZERO)
                        for i in range(n)
                    ]
                    assert image == list(vec)

    def test_first_nonzero_coordinate_normalization(self):
        for spec, ell in (("s3", 1), ("dihedral:4", 4)):
            group, _ = builtin_group(spec, ell)
            for r in find_reflections(group):
                lead = next(x for x in r.covector if x)
                assert lead == ONE


class TestReflectionFunction:
    def test_constant_broadcast_and_class_invariance(self):
        group, _ = builtin_group("s3")
        refl = find_reflections(group)
        c = ReflectionFunction(group, refl, [Fraction(1, 3)])
        for h in range(len(group)):
            for r in refl:
                conj = group.mul(group.mul(h, r.index), group.inv(h))
                assert c(conj) == c(r.index)

    def test_class_count_enforced(self):
        group, _ = builtin_group("dihedral:4", 4)
        refl = find_reflections(group)
        # even dihedral groups have two reflection classes
        assert len({group.class_of[r.index] for r in refl}) == 2
        with pytest.raises(ValueError):
            ReflectionFunction(group, refl, [1, 2, 3])
        c = ReflectionFunction(group, refl, [Fraction(1, 2), Fraction(1, 3)])
        assert sorted({str(c(r.index)) for r in refl}) == ["1/2", "1/3"]


class TestIrreps:
    def test_trivial_rep_is_valid(self):
        group, _ = builtin_group("s4")
        one = [[1]]
        irr = irrep_from_generators("triv", [one, one, one], group)
        assert irr.dim == 1

    def test_standard_s3_character_norm(self):
        group, irreps = builtin_group("s3")
        std = irreps[2]
        chars = sorted(str(std.character[g]) for g in range(6))
        assert chars == ["-1", "-1", "0", "0", "0", "2"]

    def test_reducible_candidate_rejected(self):
        group, irreps = builtin_group("cyclic:2")
        triv, sgn = irreps
        gens = [
            ((triv.matrices[s][0][0], ZERO), (ZERO, sgn.matrices[s][0][0]))
            for s in group.generators
        ]
        with pytest.raises(NotIrreducible):
            irrep_from_generators("triv+sgn", gens, group)

    def test_non_homomorphism_rejected(self):
        group, _ = builtin_group("cyclic:2")
        bad = [[[Scalar.rational(2)]]]
        with pytest.raises(NotHomomorphism):
            irrep_from_generators("bad", bad, group)

    @pytest.mark.parametrize("spec,ell", [("s3", 1), ("dihedral:5", 5), ("s4", 1)])
    def test_corrupted_non_generator_matrix_rejected(self, spec, ell):
        # a full matrix table is checked by building from its generators'
        # matrices: a corrupted non-generator matrix is not what the law gives
        group, irreps = builtin_group(spec, ell)
        std = next(w for w in irreps if w.dim > 1)
        for g in range(len(group)):
            if g == group.identity or g in group.generators:
                continue
            table = list(std.matrices)
            table[g] = tuple(tuple(-x for x in row) for row in table[g])
            rebuilt = irrep_from_generators(std.label, [table[s] for s in group.generators], group)
            assert rebuilt == std
            assert [m == t for m, t in zip(rebuilt.matrices, table)].count(False) == 1

    @pytest.mark.parametrize(
        "generators, given",
        [([[[1]]], [[[2]]]), ([[[-1]], [[-1]]], [[[1]], [[-1]]])],
        ids=["identity-generator", "repeated-generator"],
    )
    def test_every_given_matrix_meets_the_law(self, generators, given):
        # a generator that is the identity, or equals an earlier one, must
        # get the matrix the law gives it; no word ever read these matrices
        group = enumerate_group(generators)
        with pytest.raises(NotHomomorphism, match=r"violates the group law at \(0, "):
            irrep_from_generators("bad", given, group)

    @pytest.mark.parametrize("spec", ["s3", "s4"])
    def test_law_is_checked_at_every_generator(self, spec):
        # the generators are conjugate transpositions, so no character gives
        # one of them -1 and the others 1
        group, _ = builtin_group(spec)
        k = len(group.generators)
        for bad in range(k):
            gens = [[[-1]] if i == bad else [[1]] for i in range(k)]
            with pytest.raises(NotHomomorphism):
                irrep_from_generators("mixed", gens, group)

    @pytest.mark.parametrize("spec,ell", BUILTIN_GROUPS)
    def test_the_character_is_the_traces(self, spec, ell):
        # an irrep holds its matrices only: the dimension and the character
        # are read off them, so no other character can be given
        _, irreps = builtin_group(spec, ell)
        for w in irreps:
            traces = tuple(sum((m[i][i] for i in range(w.dim)), ZERO) for m in w.matrices)
            assert w.character == traces and w.dim == len(w.matrices[0])
            assert Irrep(w.label, w.matrices) == w

    @pytest.mark.parametrize(
        "spec,ell", [("s3", 1), ("s4", 1), ("dihedral:5", 5), ("dihedral:8", 8)]
    )
    def test_one_product_per_element_and_generator(self, spec, ell, monkeypatch):
        # each built-in irrep is built with |G| * |generators| matrix products,
        # on ints or on Scalars, and its generators act by the matrices it
        # was given
        products = []
        for module, name in ((linalg, "mat_mul"), (groups, "_int_mul")):
            mul = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, b, mul=mul: products.append(1) or mul(a, b))
        built = []
        make = groups.irrep_from_generators

        def record(label, gens, group):
            products.clear()
            irrep = make(label, gens, group)
            built.append((irrep, gens, len(products)))
            return irrep

        monkeypatch.setattr(groups, "irrep_from_generators", record)
        group, irreps = builtin_group(spec, ell)
        assert [irrep for irrep, _, _ in built] == irreps
        for irrep, gens, count in built:
            assert count == len(group) * len(group.generators), irrep.label
            assert [irrep.matrices[s] for s in group.generators] == [
                groups._freeze(m) for m in gens
            ]
        if spec == "s4":
            assert {count for _, _, count in built} == {72}

    @pytest.mark.parametrize("spec,ell", BUILTIN_GROUPS)
    def test_builtin_irreps_respect_every_pair(self, spec, ell):
        group, irreps = builtin_group(spec, ell)
        for w in irreps:
            for a in range(len(group)):
                for b in range(len(group)):
                    product = linalg.mat_mul(w.matrices[a], w.matrices[b])
                    assert product == w.matrices[group.mul(a, b)]

    @pytest.mark.parametrize("spec,ell,routed", [("s4", 1, 6), ("dihedral:6", 6, 4)])
    def test_int_products_give_canonical_scalars(self, spec, ell, routed, monkeypatch):
        # the int kernel builds s4 and its five irreps, and the four rational
        # irreps of dihedral:6; every entry it returns is a canonical integer
        # Scalar, and each table equals the linalg.mat_mul products
        thawed = []
        thaw = groups._thaw
        monkeypatch.setattr(groups, "_thaw", lambda mats: thawed.append(thaw(mats)) or thawed[-1])
        group, irreps = builtin_group(spec, ell)
        assert len(thawed) == routed
        for mats in thawed:
            assert mats[group.identity] == linalg.identity(len(mats[0]))
            for x in (x for m in mats for row in m for x in row):
                assert (x.ell, x.den, len(x.coeffs), type(x.coeffs[0])) == (1, 1, 1, int)
            for a in range(len(group)):
                for s in group.generators:
                    assert linalg.mat_mul(mats[a], mats[s]) == mats[group.mul(a, s)]

    @pytest.mark.parametrize(
        "given",
        [
            [[[1, 0, 0], [0, 1, 0]]] * 2,
            [[[-1, 1], [0, 1]], [[1]]],
            [[[1], [1]]] * 2,
        ],
        ids=["2x3", "2x2-and-1x1", "2x1"],
    )
    def test_malformed_shapes_rejected_before_any_product(self, given, monkeypatch):
        group, _ = builtin_group("s3")
        monkeypatch.setattr(linalg, "mat_mul", None)
        monkeypatch.setattr(groups, "_int_mul", None)
        with pytest.raises(ValueError, match="irrep 'bad' needs square generator matrices of one size"):
            irrep_from_generators("bad", given, group)

    @pytest.mark.parametrize("spec,ell", BUILTIN_GROUPS)
    def test_builtin_tables_complete(self, spec, ell):
        group, irreps = builtin_group(spec, ell)
        assert sum(w.dim**2 for w in irreps) == len(group)
        assert len({w.label for w in irreps}) == len(irreps)


GROUP_FILE = """
# order-two example with both irreps
dimension = 1

begin generator
-1
end

begin irrep triv dim=1
gen
1
end

begin irrep sgn dim=1
gen
-1
end
"""


# one generator of order two, lines 1-4
_GEN = "dimension = 1\nbegin generator\n-1\nend\n"
_UNKNOWN_GEN = "unknown symbol 'gen' in scalar expression"
_IRREP_HEADER = "expected: begin irrep NAME dim=D"

# (text, line, message) of malformed group files.  An unterminated block is
# reported at the file's last line, a wrong row count or matrix size at the
# block's end line and a wrong matrix count at the irrep's header line.
# dimension and dim=D are positive decimal integers that int() reads: "²"
# passes isdigit() but not int(), and int() refuses 5,000 digits
MALFORMED_GROUP_FILES = [
    pytest.param(*case[1:], id=case[0])
    for case in [
        ("unknown-directive", "dimension = 1\nfoo = bar\n", 2, "unknown directive 'foo = bar'"),
        ("end-outside-block", _GEN + "end\n", 5, "unknown directive 'end'"),
        ("gen-outside-block", _GEN + "\ngen\n", 6, "unknown directive 'gen'"),
        ("dimension-colon", "dimension: 1\n", 1, "malformed dimension directive"),
        ("dimension-word", "dimension = one\n", 1, "malformed dimension directive"),
        ("dimension-negative", "dimension = -1\n", 1, "malformed dimension directive"),
        ("dimensions-key", "dimensions = 1\n", 1, "malformed dimension directive"),
        ("dimension-zero", "\ndimension = 0\nbegin generator\nend\n", 2, "malformed dimension directive"),
        ("dimension-superscript", "# header\ndimension = ²\n", 2, "malformed dimension directive"),
        ("dimension-5000-digits", "dimension = " + "1" * 5000, 1, "malformed dimension directive"),
        ("generator-first", "begin generator\n-1\nend\n", 1, "dimension must come first"),
        ("no-generators", "dimension = 1\n", 1, "file must declare a dimension and generators"),
        ("empty-file", "", 0, "file must declare a dimension and generators"),
        ("comments-only", "# nothing\n\n", 2, "file must declare a dimension and generators"),
        (
            "irrep-without-generators",
            "dimension = 1\nbegin irrep a dim=1\ngen\n1\nend\n",
            5,
            "file must declare a dimension and generators",
        ),
        (
            "unterminated-generator",
            "dimension = 1\nbegin generator\n-1\n# no end\n\n",
            5,
            "unterminated generator block",
        ),
        ("generator-rows", "dimension = 2\nbegin generator\n1 0\nend\n", 4, "generator needs 2 rows"),
        ("empty-generator", "dimension = 1\nbegin generator\n\nend\n", 4, "generator needs 1 rows"),
        (
            "generator-row-width",
            "dimension = 2\nbegin generator\n1 0 0\n0 1\nend\n",
            3,
            "expected 2 entries, got 3",
        ),
        (
            "generator-gen-line",
            "dimension = 2\nbegin generator\n1 0\ngen\n0 1\nend\n",
            4,
            "expected 2 entries, got 1",
        ),
        ("generator-gen-scalar", "dimension = 1\nbegin generator\ngen\nend\n", 3, _UNKNOWN_GEN),
        (
            "generator-zero-divisor",
            "dimension = 1\nbegin generator\n# entry\n1/0 # comment\nend\n",
            4,
            "division by zero in scalar expression",
        ),
        ("irrep-no-dim", _GEN + "begin irrep a\n", 5, _IRREP_HEADER),
        ("irrep-no-name", _GEN + "begin irrep dim=1\n", 5, _IRREP_HEADER),
        ("irrep-extra-word", _GEN + "begin irrep a dim=1 b\n", 5, _IRREP_HEADER),
        ("irrep-dim-word", _GEN + "begin irrep a dim=x\ngen\n1\nend\n", 5, _IRREP_HEADER),
        ("irrep-dim-zero", _GEN + "begin irrep a dim=0\ngen\nend\n", 5, _IRREP_HEADER),
        ("irrep-dim-negative", _GEN + "begin irrep a dim=-1\ngen\n1\nend\n", 5, _IRREP_HEADER),
        (
            "unterminated-irrep",
            _GEN + "begin irrep a dim=1\ngen\n1\n",
            7,
            "unterminated irrep block",
        ),
        (
            "irrep-rows",
            _GEN + "begin irrep a dim=2\ngen\n1 0\nend\n",
            8,
            "irrep 'a' matrices must be 2x2",
        ),
        (
            "irrep-row-width",
            _GEN + "begin irrep a dim=1\ngen\n1 1\nend\n",
            7,
            "expected 1 entries, got 2",
        ),
        (
            "irrep-entry",
            _GEN + "begin irrep a dim=1\ngen\nz\nend\n",
            7,
            "z requires a cyclotomic coefficient field",
        ),
        (
            "irrep-two-matrices",
            _GEN + "begin irrep a dim=1\ngen\n1\ngen\n-1\nend\n",
            5,
            "irrep 'a' needs one matrix per generator",
        ),
        (
            "irrep-no-matrices",
            _GEN + "begin irrep a dim=1\ngen\n\ngen\nend\n",
            5,
            "irrep 'a' needs one matrix per generator",
        ),
        (
            "second-irrep-count",
            _GEN + "begin irrep a dim=1\n1\nend\n# next\nbegin irrep b dim=1\nend\n",
            9,
            "irrep 'b' needs one matrix per generator",
        ),
    ]
]


class TestGroupFile:
    def test_parse_round_trip(self):
        group, irreps = load_group_file(GROUP_FILE)
        assert len(group) == 2
        assert [w.label for w in irreps] == ["triv", "sgn"]

    def test_unknown_directive_rejected(self):
        from cherednik.groups import GroupFileError

        with pytest.raises(GroupFileError):
            load_group_file("dimension = 1\nfoo = bar\n")

    def test_cyclotomic_entries(self):
        text = "dimension = 1\nbegin generator\nz\nend\n"
        group, _ = load_group_file(text, field_ell=4)
        assert len(group) == 4

    def test_bad_row_width(self):
        from cherednik.groups import GroupFileError

        with pytest.raises(GroupFileError):
            load_group_file("dimension = 2\nbegin generator\n1 0 0\n0 1 0\nend\n")

    def test_irrep_matrix_count_reports_its_header_line(self):
        from cherednik.groups import GroupFileError

        # the second irrep (header on line 14) has two matrices for one generator
        text = GROUP_FILE.replace("gen\n-1\nend", "gen\n-1\ngen\n1\nend")
        with pytest.raises(GroupFileError, match="one matrix per generator") as err:
            load_group_file(text)
        assert err.value.line == 14

    @pytest.mark.parametrize("text, line, message", MALFORMED_GROUP_FILES)
    def test_malformed_file_reports_its_line(self, text, line, message):
        with pytest.raises(GroupFileError) as err:
            load_group_file(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    def test_dimension_zero_group_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            enumerate_group([[]])


def test_random_matrix_group_reflections_are_well_defined():
    # conjugated copies of S3 still expose exactly three reflections
    rng = random.Random(2)
    base = enumerate_group(S3_GENS)
    for _ in range(3):
        # integral conjugation with determinant 1 keeps entries integral
        a = rng.randint(0, 2)
        conj = [[1, a], [0, 1]]
        inv = [[1, -a], [0, 1]]

        def mul(x, y):
            return [
                [sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]

        gens = [
            mul(mul(conj, [[int(str(v)) for v in row] for row in mat]), inv)
            for mat in (base.matrices[g] for g in base.generators)
        ]
        group = enumerate_group(gens)
        assert len(group) == 6
        assert len(find_reflections(group)) == 3


REFLECTION_FAMILIES = (
    [(f"cyclic:{ell}", ell) for ell in range(1, 13)]
    + [(f"dihedral:{ell}", ell) for ell in range(3, 9)]
    + [("s3", 1), ("s4", 1)]
)


def _minus_identity(mat):
    n = len(mat)
    return [[mat[i][j] - (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("spec,ell", REFLECTION_FAMILIES)
def test_reflections_are_exactly_the_rank_one_elements(spec, ell):
    # the minor test in find_reflections against exact elimination
    group, _ = builtin_group(spec, ell)
    expected = [
        g
        for g, mat in enumerate(group.matrices)
        if g != group.identity and linalg.rank(_minus_identity(mat)) == 1
    ]
    assert [r.index for r in find_reflections(group)] == expected


def _scalar_kernel(mats):
    return linalg.mat_mul, mats, linalg.identity(len(mats[0])), tuple


@pytest.mark.parametrize(
    "source", [*(f"{spec}@{ell}" for spec, ell in REFLECTION_FAMILIES), "file:s4", "file:two"]
)
def test_int_rank_test_finds_the_scalar_route_reflections(source, monkeypatch):
    # find_reflections runs its rank test on ints for an integer group; the
    # list, eigen-data included, equals the one of the all-Scalar route
    if source.startswith("file:"):
        text = group_file_text("s4") if source == "file:s4" else GROUP_FILE
        group, _ = load_group_file(text)
    else:
        spec, ell = source.split("@")
        group, _ = builtin_group(spec, int(ell))
    found = find_reflections(group)
    monkeypatch.setattr(groups, "_kernel", _scalar_kernel)
    assert found == find_reflections(group)
    assert found or len(group) == 1


def test_int_rank_test_is_the_route_for_integer_groups(monkeypatch):
    # s4 tests its 23 non-identity elements on ints and forms Scalar
    # differences g - 1 only for its 6 reflections
    group, _ = builtin_group("s4")
    diffs = []
    minus = groups._minus
    monkeypatch.setattr(groups, "_minus", lambda a, b: diffs.append(type(a[0][0])) or minus(a, b))
    assert len(find_reflections(group)) == 6
    assert diffs.count(int) == 23 and diffs.count(Scalar) == 6


def test_rank_one_minor_test_matches_elimination():
    from cherednik.groups import _rank_one

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        # a sum of k outer products has rank <= k; k = 0..2 covers 0, 1, 2
        mat = [[ZERO] * n for _ in range(n)]
        for _ in range(rng.randint(0, 2)):
            u = [rng.randint(-2, 2) for _ in range(n)]
            v = [rng.randint(-2, 2) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    mat[i][j] = mat[i][j] + Scalar.rational(u[i] * v[j])
        assert _rank_one(mat) == (linalg.rank(mat) == 1), mat
