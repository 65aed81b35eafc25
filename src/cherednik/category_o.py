"""Degree-truncated category O: Verma modules with their module structure,
weight spaces, singular vectors, simple quotients, the highest-weight order,
blocks, and decomposition matrices.

A VermaSlice holds the degrees 0..N of A tensor W together with any
quotienting that has happened; quotients are tracked as echelon bases
(pivot -> sparse row) of the killed subspaces per degree, so module vectors
in a quotient are coordinates on the surviving (non-pivot) basis positions.
Every action that moves a degree reads one degree rule (`VermaSlice._apply`)
but the radical's x step, where x^E relabels columns (`VermaSlice._shift`)
and the killed rows are kept as a truncated Groebner basis
(`VermaSlice.kill_submodule`); every singular space, the radical's included,
comes from one routine (`singular_vectors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .groups import Irrep
from .pbw import AlgebraMismatch, CherednikAlgebra, PBWElement, _add_deg
from .scalars import Scalar, ZERO, ONE, ComputationLimit, InvalidInput, _accumulate, _settle


class CutoffExceeded(ComputationLimit):
    """A raising operator left the degree truncation."""


class NotScalarAction(InvalidInput):
    """The central Euler part does not act as a scalar on a candidate irrep."""


class InconsistentTruncation(ComputationLimit):
    """The character system is unsolvable at this cutoff; increase it."""


# the most basis vectors of a slice (the largest recorded job has 5,313)
MAX_SLICE_DIM = 100_000


class SliceTooLarge(ComputationLimit):
    """A Verma slice would hold more than MAX_SLICE_DIM basis vectors."""


# module vectors: {degree: dense coordinate list}


def mv_scale(a: dict, s) -> dict:
    """s times a module vector; zero entries are returned as they are."""
    s = Scalar.rational(s)
    return _mv_prune({n: [x * s if x else x for x in v] for n, v in a.items()})


def mv_eq(a: dict, b: dict) -> bool:
    """Equality of module vectors; a missing degree reads as zero.  Scalars
    are canonical, so equal values compare equal entry by entry."""
    return _mv_prune(a) == _mv_prune(b)


def _mv_prune(a: dict) -> dict:
    return {n: v for n, v in a.items() if any(v)}


def _slice_size(algebra: CherednikAlgebra, irrep: Irrep, cutoff: int) -> int:
    """The basis vectors of a slice in degrees 0..cutoff: the monomials of
    those degrees in dim variables, times dim W."""
    return math.comb(cutoff + algebra.dim, algebra.dim) * irrep.dim


def _check_slice_size(algebra: CherednikAlgebra, irrep: Irrep, cutoff: int):
    """Raise SliceTooLarge unless the slice fits in MAX_SLICE_DIM."""
    size = _slice_size(algebra, irrep, cutoff)
    if size > MAX_SLICE_DIM:
        raise SliceTooLarge(
            f"the slice has {size} basis vectors, more than MAX_SLICE_DIM = {MAX_SLICE_DIM}"
        )


class VermaSlice:
    """Degrees 0..cutoff of the standard module attached to an irrep, with
    stored generator actions and optional quotient bookkeeping."""

    def __init__(self, algebra: CherednikAlgebra, irrep: Irrep, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        _check_slice_size(algebra, irrep, cutoff)
        self.algebra = algebra
        self.irrep = irrep
        self.cutoff = cutoff
        # the irrep's position in the algebra's table, by identity: it keys
        # the resolved columns (`_content`); None for an irrep outside it
        self._irrep_index = next((i for i, w in enumerate(algebra.irreps) if w is irrep), None)
        self.c_value = (
            c_scalar(algebra, irrep)
            if self._irrep_index is None
            else _c_values(algebra)[irrep.label]
        )
        # content -> (its image function, its resolved columns or None)
        self._contents: dict = {}
        levels = [algebra.monomial_table(n) for n in range(cutoff + 1)]
        self._monos = [monos for monos, _ in levels]
        self._mono_index = [index for _, index in levels]
        # killed[n]: echelon basis of the quotiented-away subspace
        self.killed = [{} for _ in range(cutoff + 1)]
        # the radical's Groebner bookkeeping (`kill_submodule`): the last
        # degree built, the minimal lead generators (monomial, degree, pivot)
        # per component, their same-component pairs (component, a, b, lcm)
        # by lcm degree, and the column maps of x^E per (degree, E)
        self._radical_top = 0
        self._generators: dict[int, list] = {}
        self._pairs: dict[int, list] = {}
        self._shifts: dict = {}

    @cached_property
    def singular_isotypes(self) -> dict:
        """Degree n -> labels of the listed irreps E with c_E - c_lambda = n.

        The Euler element acts by c_lambda + n on degree n and by c_E on an
        E-singular vector, so singular vectors (in this slice or any graded
        quotient of it) of a listed isotype exist only at its degree here.
        When the irrep table is not known to be complete (an empty table
        included), an unlisted isotype may be singular in any degree, so
        every degree 0..cutoff is a key."""
        out: dict[int, list] = {}
        for label, n in _linkage(self.algebra, self.c_value).items():
            if 0 <= n <= self.cutoff:
                out.setdefault(n, []).append(label)
        if not _complete_table(self.algebra):
            out = {n: out.get(n, []) for n in range(self.cutoff + 1)}
        return out

    # -- bases -----------------------------------------------------------

    def full_dim(self, n: int) -> int:
        return len(self._monos[n]) * self.irrep.dim

    def dim(self, n: int) -> int:
        self._check_degree(n)
        return self.full_dim(n) - len(self.killed[n])

    @property
    def quotiented(self) -> bool:
        return any(self.killed)

    def free_positions(self, n: int):
        """The non-pivot positions of degree n (a range when none is killed)."""
        killed, full = self.killed[n], range(self.full_dim(n))
        return [p for p in full if p not in killed] if killed else full

    # -- coordinate plumbing (sparse ambient rows) --------------------------

    def to_free(self, n: int, vec: dict) -> list:
        if not self.killed[n]:
            return linalg.dense(vec, self.full_dim(n))
        reduced = linalg.reduce_against(vec, self.killed[n])
        return [reduced.get(p, ZERO) for p in self.free_positions(n)]

    def _check_degree(self, n: int, least: int = 0):
        """Raise ValueError unless least <= n <= cutoff."""
        if not least <= n <= self.cutoff:
            raise ValueError(f"degree {n} is outside {least}..{self.cutoff}")

    def _check_vector(self, n: int, freevec: list):
        """Raise ValueError unless freevec is a degree-n coordinate list:
        0 <= n <= cutoff and len(freevec) == dim(n)."""
        if len(freevec) != self.dim(n):
            raise ValueError(f"degree {n} has {self.dim(n)} coordinates, not {len(freevec)}")

    def lift(self, n: int, freevec: list) -> dict:
        free = self.free_positions(n)
        return {free[i]: x for i, x in linalg.sparse(freevec).items()}

    # -- the module action (ambient coordinates) ----------------------------

    def _act(self, pairs: frozenset, n: int, vec: dict, out=None) -> dict:
        """Apply the (term, coef) pairs of one degree shift to a sparse
        degree-n vector; returns the sparse image plus `out` (consumed) when
        it is given.  While the pairs are not resolved on this irrep
        (`_content`), each monomial's image goes through rho (`_scatter`);
        once they are, x^mono (x) w_k reads its stored column, a flat tuple
        (target, coefficient, ...) built by `_scatter` on the unit w_k, at
        one product per entry.  `_apply` is its one caller."""
        entry = self._contents.get(pairs)
        if entry is None:
            entry = self._contents[pairs] = self._content(pairs)
        image, resolved = entry
        d = self.irrep.dim
        acc = {} if out is None else out
        blocks: dict[int, list] = {}
        for p, v in vec.items():
            blocks.setdefault(p // d, []).append((p % d, v))
        monos = self._monos[n]
        for mi, block in blocks.items():
            if resolved is None:
                self._scatter(image(monos[mi]), block, acc)
                continue
            mono = monos[mi]
            columns = resolved.get(mono)
            if columns is None:
                flat = image(mono)
                units = (_settle(self._scatter(flat, ((k, ONE),), {})) for k in range(d))
                columns = resolved[mono] = tuple(
                    tuple(x for item in unit.items() for x in item) for unit in units
                )
            for k, v in block:
                column = iter(columns[k])
                for tgt, coef in zip(column, column):
                    _accumulate(acc, tgt, v * coef)
        return _settle(acc)

    def _scatter(self, flat: tuple, block, acc: dict) -> dict:
        """Add the image of x^mono (x) sum v w_k over the (k, v) of block to
        acc (unsettled), flat being x^mono's image (`act_on_verma_terms`): a
        flat tuple (pos, h, coefficient, ...) meaning coefficient *
        x^M (x) rho(h) w with M at position pos of the target-degree
        monomials.  Returns acc."""
        d, columns = self.irrep.dim, self._rho_columns
        for t in range(0, len(flat), 3):
            tgt, cols, coef = flat[t] * d, columns[flat[t + 1]], flat[t + 2]
            for k, v in block:
                vc = v * coef
                for k2, entry in cols[k]:
                    _accumulate(acc, tgt + k2, vc * entry)
        return acc

    def _content(self, pairs: frozenset) -> tuple:
        """The image function of the pairs (`act_on_verma_terms`) and their
        resolved columns on this irrep, {monomial: one column per component}
        kept on the algebra, or None while this slice scatters.  The first
        slice on an irrep to apply a content only registers it; the second
        and later ones resolve it, so a job that builds one slice per irrep
        stores no column.  An irrep outside the algebra's table never
        resolves."""
        alg, index = self.algebra, self._irrep_index
        resolved = None
        if index is not None:
            key = (pairs, index)
            resolved = alg._verma_resolved.get(key)
            if resolved is None:
                if key in alg._verma_applied:
                    resolved = alg._verma_resolved[key] = {}
                else:
                    alg._verma_applied.add(key)
        return alg.act_on_verma_terms(pairs), resolved

    @cached_property
    def _ys(self) -> list:
        """Each y_i, kept with its split for the life of the slice."""
        return [self.algebra.y(i + 1) for i in range(self.algebra.dim)]

    @cached_property
    def _gs(self) -> list:
        """Each group element g, kept with its split for the life of the slice."""
        return [self.algebra.g(g) for g in range(len(self.algebra.group))]

    @cached_property
    def _rho_columns(self) -> list:
        """Per group element h, the nonzero entries (row, entry) of each
        column of rho(h)."""
        d = self.irrep.dim
        return [
            [[(k2, row[k]) for k2, row in enumerate(m) if row[k]] for k in range(d)]
            for m in self.irrep.matrices
        ]

    def _apply(self, a: PBWElement, n: int, vec: dict, acc: dict) -> dict:
        """The degree rule of every action on the slice: each (shift, least
        |J|, pairs) entry of a's kept split (`PBWElement.degree_split`)
        sends the sparse degree-n vector to degree n + shift, added into
        acc[n + shift], and acts by zero when its least |J| exceeds n (that
        term keeps n + shift >= 0).  A degree n that some shift would raise
        past the cutoff raises CutoffExceeded, even where the vector is zero
        or the shift acts by zero.  Returns acc."""
        split = a.degree_split()
        if split and n + max(shift for shift, _, _ in split) > self.cutoff:
            raise CutoffExceeded(
                f"term raises degree {n} beyond the truncation {self.cutoff}"
            )
        for shift, least_j, pairs in split:
            if least_j <= n:
                acc[n + shift] = self._act(pairs, n, vec, acc.get(n + shift))
        return acc

    def _apply_full(self, a: PBWElement, n: int, vec: list):
        """An element of one degree shift on a dense ambient degree-n vector:
        (target degree, dense image), the image None when it acts by zero
        on degree n."""
        ((shift, _, _),) = a.degree_split()
        target = n + shift
        out = self._apply(a, n, linalg.sparse(vec), {}).get(target)
        return target, None if out is None else linalg.dense(out, self.full_dim(target))

    def apply_x_full(self, i: int, n: int, vec: list) -> list:
        """Action of x_i (0-based), the term (e_i, 1, 0), from degree n to
        n + 1.  ValueError for i outside 0..dim-1."""
        self._check_index(i, "x")
        return self._apply_full(self.algebra.x(i + 1), n, vec)[1]

    def apply_y_full(self, i: int, n: int, vec: list) -> list:
        """Action of y_i (0-based), the term (0, 1, e_i), from degree n to
        n - 1; degree 0 maps to the empty vector.  ValueError for i outside
        0..dim-1."""
        self._check_index(i, "y")
        return self._apply_full(self._ys[i], n, vec)[1] or []

    def _check_index(self, i: int, name: str):
        """Raise ValueError unless the 0-based generator index i is in 0..dim-1."""
        if not 0 <= i < self.algebra.dim:
            raise ValueError(f"{name} index {i} is outside 0..{self.algebra.dim - 1}")

    def apply_g_full(self, g: int, n: int, vec: list) -> list:
        """Action of the group element g, the term (0, g, 0), on degree n."""
        return self._apply_full(self.algebra.g(g), n, vec)[1]

    def apply_term_full(self, term, coef, n: int, vec: list):
        """One PBW monomial acting from degree n; returns (degree, vector),
        with the vector None when the term kills degree n.  A zero
        coefficient gives the zero vector where the term does not."""
        alg = self.algebra
        # a zero coefficient is kept, so the term still sets the degree rule
        return self._apply_full(PBWElement(alg, {alg._term(*term): Scalar.rational(coef)}), n, vec)

    def basis_vector(self, n: int, index: int) -> dict:
        vec = [ZERO] * self.dim(n)
        if not 0 <= index < len(vec):
            raise ValueError(f"index {index} is outside 0..{len(vec) - 1}")
        vec[index] = ONE
        return {n: vec}

    # -- quotienting --------------------------------------------------------

    def kill_submodule(self, n: int):
        """One upward step of the simple quotient: given the radical J_{n-1}
        in killed[n - 1], make killed[n] the radical J_n.

        J_n is R_n = sum_i x_i . J_{n-1} plus the singular vectors of the
        partial quotient (`singular_vectors`): the lifts of the joint kernel
        of the y's from degree n modulo R_n to degree n - 1 modulo J_{n-1}.
        No G-closure is needed: that kernel is G-stable, and x . J is
        G-stable whenever J is.  R_n comes from Groebner bookkeeping
        (`_x_step`), and the leads that degree n adds beyond x . LT(J_{n-1})
        become generators (`_add_generators`).

        The steps run in order: ValueError for n outside 1..cutoff, or unless
        n is one past the last degree built (1 on a fresh slice).  A step
        that raises leaves killed[n] and the bookkeeping as they were."""
        self._check_degree(n, 1)
        top = self._radical_top
        if n != top + 1:
            raise ValueError(
                f"the radical is built through degree {top}, so the next step is {top + 1}, not {n}"
            )
        saved = self.killed[n]
        try:
            killed, old_leads = self._x_step(n)
            self.killed[n] = killed
            for v in singular_vectors(self, n).vectors:
                linalg.extend_echelon(killed, v)
        except BaseException:
            self.killed[n] = saved
            raise
        self._add_generators(n, [p for p in sorted(killed) if p not in old_leads])
        self._radical_top = n

    def _x_step(self, n: int):
        """R_n = x . J_{n-1} as a fresh echelon basis, and its leads x . LT(J_{n-1}).

        A row's pivot, its least column, is its leading term: the lex-largest
        monomial, then the least component.  x^E acts by relabelling columns
        (`_shift`), and lex is a term order, so lead(x^E f) = x^E lead(f):
        the killed rows are a truncated Groebner basis of J.  So R_n is
        spanned by one x_i . row per lead in x . LT(J_{n-1}) and the
        S-vectors x^(L-a) f_a - x^(L-b) f_b of the generator pairs whose lcm
        L has degree n (Buchberger), less the pairs for which a third
        generator c of the component has a lead dividing L with lcm(a, c)
        and lcm(b, c) both unequal to L: both of those pairs have a lower
        degree, so their S-vectors reduce to zero, and so does (a, b)'s (the
        chain criterion; Gebauer and Moeller, J. Symbolic Comput. 6, 1988)."""
        below, alg = self.killed[n - 1], self.algebra
        # a lead keeps its x_i . row of the largest i: that one has the
        # fewest entries on other leads, so it takes the fewest reduction
        # steps (in all but 16 of 4,256 leads with a choice, s4 and dihedral:5)
        leads: dict = {}
        if below:
            for i in range(1, alg.dim + 1):
                cmap = self._shift(n - 1, alg._unit(i, 1, "x"))
                for p, row in below.items():
                    leads[cmap[p]] = cmap, row
        # the leads come in descending order, so a candidate reduced against
        # the rows so far keeps 1 at its lead, where no row has an entry: it
        # is its row of the reduced echelon basis as it stands
        killed: dict = {}
        for t in sorted(leads, reverse=True):
            cmap, row = leads[t]
            killed[t] = linalg.reduce_against({cmap[q]: v for q, v in row.items()}, killed)
        for k, a, b, lcm in self._pairs.get(n, ()):
            if not self._chain_skips(k, a, b, lcm):
                acc = self._lifted(a, lcm)
                for q, v in self._lifted(b, lcm).items():
                    _accumulate(acc, q, -v)
                linalg.extend_echelon(killed, _settle(acc))
        return killed, leads.keys()

    def _chain_skips(self, k: int, a: tuple, b: tuple, lcm: tuple) -> bool:
        """Whether a generator c of component k other than a and b has a lead
        dividing lcm, with lcm(a, c) != lcm and lcm(b, c) != lcm."""
        for c in self._generators[k]:
            mono = c[0]
            if (
                c is not a
                and c is not b
                and all(map(int.__le__, mono, lcm))
                and tuple(map(max, a[0], mono)) != lcm
                and tuple(map(max, b[0], mono)) != lcm
            ):
                return True
        return False

    def _lifted(self, gen: tuple, lcm: tuple) -> dict:
        """x^(lcm - lead) times the killed row of the generator (monomial,
        degree, pivot), a fresh dict."""
        mono, m, p = gen
        cmap = self._shift(m, tuple(u - e for u, e in zip(lcm, mono)))
        return {cmap[q]: v for q, v in self.killed[m][p].items()}

    def _add_generators(self, n: int, leads: list):
        """Keep the degree-n pivots `leads` as generators and bucket their
        pairs with the generators of their component by lcm degree, for the
        degrees up to the cutoff."""
        d, monos = self.irrep.dim, self._monos[n]
        for p in leads:
            new = (monos[p // d], n, p)
            gens = self._generators.setdefault(p % d, [])
            for old in gens:
                lcm = tuple(map(max, new[0], old[0]))
                if sum(lcm) <= self.cutoff:
                    self._pairs.setdefault(sum(lcm), []).append((p % d, new, old, lcm))
            gens.append(new)

    def _shift(self, m: int, e: tuple) -> list:
        """The relabelling by which x^e acts from degree m, cached per (m, e):
        column pos * dim W + k goes to the column of x^e x^M (x) w_k, M the
        monomial at pos, with coefficient 1."""
        cmap = self._shifts.get((m, e))
        if cmap is None:
            d, index = self.irrep.dim, self._mono_index[m + sum(e)]
            starts = [index[_add_deg(mono, e)] * d for mono in self._monos[m]]
            cmap = self._shifts[(m, e)] = [s + k for s in starts for k in range(d)]
        return cmap

    # -- characters ----------------------------------------------------------

    def trace(self, g: int, n: int) -> Scalar:
        """Trace of the group element g on the degree-n quotient slice: the
        Verma part (`_class_series`) minus the killed part (`_killed_trace`).
        ValueError for n outside 0..cutoff or g outside 0..|G|-1."""
        self._check_degree(n)
        group = self.algebra.group
        if not 0 <= g < len(group):
            raise ValueError(f"group element {g} is outside 0..{len(group) - 1}")
        return self._class_series[n][group.class_of[g]] - self._killed_trace(g, n)

    def _killed_trace(self, g: int, n: int) -> Scalar:
        """Trace of g on the killed subspace of degree n: the pivot
        coordinate of g . row for each killed row."""
        total = ZERO
        d, monos, rho = self.irrep.dim, self._monos[n], self.irrep.matrices[g]
        act = self.algebra.act_on_x_monomial
        for p, row in self.killed[n].items():
            target, rho_row = monos[p // d], rho[p % d]
            for q, v in row.items():
                if rho_row[q % d]:
                    coef = act(g, monos[q // d]).get(target)
                    if coef:
                        total = total + v * coef * rho_row[q % d]
        return total

    def multiplicities(self, n: int) -> dict:
        """Label -> multiplicity of each listed irrep E occurring in the
        degree-n quotient slice: the Verma part minus the killed part, and
        nothing on a degree whose quotient is zero.

        The Verma part is `_verma_levels` on a complete irrep table, and
        otherwise the class sum (`_class_sums`) of `_class_series`.  The
        killed part is the class sum of `_killed_trace`, taken only when
        degree n has killed rows.  A killed space that is not G-stable gives
        a non-integral or negative multiplicity, which raises RuntimeError.
        ValueError for n outside 0..cutoff."""
        if self.dim(n) == 0:
            return {}
        alg = self.algebra
        classes = [cls[0] for cls in alg.group.conjugacy_classes]
        levels = self._verma_levels
        values = levels[n] if levels else _class_sums(alg, self._class_series[n])
        if self.killed[n]:
            killed = _class_sums(alg, [self._killed_trace(g, n) for g in classes])
            values = [v - k for v, k in zip(values, killed)]
        level: dict[str, int] = {}
        for irr, mult in zip(alg.irreps, values):
            if mult:
                level[irr.label] = mult if type(mult) is int else _multiplicity(
                    mult, f"of {irr.label!r} at degree {n}; the killed space is not G-stable"
                )
        return level

    @cached_property
    def _verma_levels(self) -> list:
        """The slice's Verma part on a complete table (`_verma_series`)."""
        return _verma_series(self.algebra, self.irrep, self.cutoff)

    @cached_property
    def _class_series(self) -> list:
        """Degree n -> the trace of each class's first element g_C on S^n(h*)
        tensor lambda, in class order, for n = 0..cutoff: the Koszul series
        (`_koszul_series`) on the class basis, from v(0) = chi_lambda(g_C),
        with T_k diagonal of entries e_k(g_C) (`_exterior_traces`)."""
        group = self.algebra.group
        reps = [cls[0] for cls in group.conjugacy_classes]
        exterior = [_exterior_traces(group, g) for g in reps]
        tables = [
            [((c, e[k]),) if e[k] else () for c, e in enumerate(exterior)]
            for k in range(1, group.dimension + 1)
        ]
        return _koszul_series([self.irrep.character[g] for g in reps], tables, self.cutoff)

    def graded_character(self) -> dict:
        """Degree -> label -> nonzero multiplicity, for every degree
        0..cutoff (`multiplicities`)."""
        if not self.algebra.irreps:
            raise ValueError("the algebra carries no irrep table")
        return {n: self.multiplicities(n) for n in range(self.cutoff + 1)}


def _verma_series(algebra: CherednikAlgebra, irrep: Irrep, cutoff: int) -> list:
    """Degree n -> the multiplicity of each listed irrep E in S^n(h*) tensor
    lambda, for n = 0..cutoff: the Koszul series (`_koszul_series`) on the
    irrep basis, from v(0) = e_lambda with the Koszul tables
    (`_koszul_tables`), as fresh lists.  Empty when the irrep table is
    incomplete or lists no irrep with lambda's character: the recurrence
    closes only over every irrep."""
    start = [int(irr.character == irrep.character) for irr in algebra.irreps]
    if not _complete_table(algebra) or 1 not in start:
        return []
    return _koszul_series(start, _koszul_tables(algebra), cutoff)


def _class_sums(algebra: CherednikAlgebra, traces: list) -> list:
    """Per listed irrep E, sum_C |C| chi_E(g_C^-1) t_C / |G| for the traces
    t_C, one per conjugacy class in class order: the multiplicity of E in a
    representation whose character is t (Serre, Linear Representations of
    Finite Groups, 2.3)."""
    group = algebra.group
    classes = group.conjugacy_classes
    weighted = [len(cls) * t for cls, t in zip(classes, traces)]
    return [
        sum((irr.character[group.inv(cls[0])] * w for cls, w in zip(classes, weighted)), ZERO)
        / len(group)
        for irr in algebra.irreps
    ]


def _multiplicity(value: Scalar, where: str) -> int:
    """A multiplicity as an int.  One that is non-integral or negative is a
    bug, not a truncation effect, and raises RuntimeError saying where."""
    if not value.is_integer():
        raise RuntimeError(f"non-integral multiplicity {value} {where}")
    if value.as_int() < 0:
        raise RuntimeError(f"negative multiplicity {value} {where}")
    return value.as_int()


def _koszul_series(start: list, tables: list, cutoff: int) -> list:
    """Degree n -> v(n) for n = 0..cutoff, by the Koszul recurrence
    v(n) = sum_{k=1..min(n, dim)} (-1)^(k+1) T_k v(n - k) from v(0) = start,
    as C[h] tensor lambda has the character lambda / sum_k (-1)^k
    Lambda^k h* t^k.  tables[k - 1] lists, per coordinate f, the pairs
    (e, T_k[e][f]) with a nonzero entry; an entry nothing adds to is 0."""
    levels = [start]
    for n in range(1, cutoff + 1):
        out = [0] * len(start)
        for k, table in enumerate(tables[:n], 1):
            sign = 1 if k % 2 else -1
            for f, m in enumerate(levels[n - k]):
                if m:
                    for e, t in table[f]:
                        out[e] += sign * t * m
        levels.append(out)
    return levels


def _exterior_traces(group, g: int) -> tuple:
    """Traces e_0..e_dim of g on the exterior powers of h*, the
    coefficients of det(1 + t g|h*), by Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) tr(g^i|h*) e_{k-i}; g acts on the x's
    through M(g^-1), so tr(g^i|h*) = tr M(g^-i)."""
    dim, power, powers = group.dimension, group.identity, [None]
    for _ in range(dim):
        power = group.mul(power, group.inv(g))
        powers.append(sum((group.matrices[power][i][i] for i in range(dim)), ZERO))
    e = [ONE]
    for k in range(1, dim + 1):
        signed = (e[k - i] * powers[i] * (-1) ** (i - 1) for i in range(1, k + 1))
        e.append(sum(signed, ZERO) / k)
    return tuple(e)


def _koszul_tables(algebra: CherednikAlgebra) -> list:
    """The Koszul tables of a complete irrep table, computed on first use
    and kept on the algebra: entry k - 1 lists, per irrep F (by index), the
    pairs (E, T_k[E][F]) with T_k[E][F] = [Lambda^k h* tensor F : E] nonzero,
    for k = 1..dim, from the class sums (`_class_sums`) of the characters
    e_k chi_F, e_k the exterior traces (`_exterior_traces`).  An entry that
    is not a non-negative integer is a bug and raises RuntimeError."""
    tables = algebra._koszul
    if not tables:
        classes = [cls[0] for cls in algebra.group.conjugacy_classes]
        exterior = [_exterior_traces(algebra.group, g) for g in classes]
        built = []
        for k in range(1, algebra.dim + 1):
            table = []
            for f in algebra.irreps:
                traces = [e[k] * f.character[g] for e, g in zip(exterior, classes)]
                row = []
                for e, value in enumerate(_class_sums(algebra, traces)):
                    where = f"of {algebra.irreps[e].label!r} in Lambda^{k} h* (x) {f.label!r}"
                    count = _multiplicity(value, where)
                    if count:
                        row.append((e, count))
                table.append(tuple(row))
            built.append(table)
        tables.extend(built)
    return tables


def c_scalar(algebra: CherednikAlgebra, irrep: Irrep) -> Scalar:
    """The scalar by which the central Euler part dim/2 - sum_s kappa_s s
    acts on the irrep, read off its matrix sum coef * rho(g) over the
    part's terms, which must be scalar."""
    d = irrep.dim
    mat = [[ZERO] * d for _ in range(d)]
    for (_, g, _), coef in algebra.euler_central_part().terms.items():
        rho = irrep.matrices[g]
        for i in range(d):
            for j in range(d):
                if rho[i][j]:
                    mat[i][j] = mat[i][j] + coef * rho[i][j]
    value = mat[0][0]
    if mat != [[value if i == j else ZERO for j in range(d)] for i in range(d)]:
        raise NotScalarAction(
            f"central Euler part is not scalar on irrep {irrep.label!r}"
        )
    return value


def _c_values(algebra: CherednikAlgebra) -> dict:
    """Irrep label -> c_E for the irreps the algebra lists, computed on
    first use and kept on the algebra (only once every value is known)."""
    table = algebra._c_table
    if not table:
        table.update({irr.label: c_scalar(algebra, irr) for irr in algebra.irreps})
    return table


def _linkage(algebra: CherednikAlgebra, c: Scalar) -> dict:
    """Label -> n for each listed irrep E whose c_E - c is the integer n, in
    irrep order: the Euler linkage of category O (Ginzburg, Guay, Opdam and
    Rouquier), read by the singular degrees, the order and the blocks."""
    out = {}
    for label, c_e in _c_values(algebra).items():
        diff = c_e - c
        if diff.is_integer():
            out[label] = diff.as_int()
    return out


def verma_action(slice_: VermaSlice, a: PBWElement, mv: dict) -> dict:
    """Module action of a PBW element on a vector in slice coordinates;
    linear in the vector.  The terms act through one merged image per
    degree shift of the element's kept split (`PBWElement.degree_split`),
    each degree of the vector through the slice's one degree rule
    (`VermaSlice._apply`), so a degree that some term would raise past the
    cutoff raises CutoffExceeded.  A degree
    outside 0..cutoff, or coordinates not dim(n) long, raise ValueError."""
    if a.algebra is not slice_.algebra:
        raise AlgebraMismatch("element belongs to a different algebra")
    acc: dict[int, dict] = {}
    for n, freevec in mv.items():
        slice_._check_vector(n, freevec)
        slice_._apply(a, n, slice_.lift(n, freevec), acc)
    return _mv_prune({n: slice_.to_free(n, v) for n, v in acc.items()})


# ---------------------------------------------------------------------------
# Dunkl operator route (independent oracle for the lowering action)
# ---------------------------------------------------------------------------


def _add_or_drop(poly: dict, key, value: Scalar) -> None:
    """Add value to poly[key], dropping the key when the sum is zero."""
    total = poly.get(key, ZERO) + value
    if total:
        poly[key] = total
    else:
        poly.pop(key, None)


def _subst_dual(matrix_inv, mono: tuple) -> dict:
    """Expand the dual substitution x_b -> sum_i M(g^-1)[b][i] x_i on x^mono."""
    poly = {tuple(0 for _ in mono): ONE}
    for b, e in enumerate(mono):
        for _ in range(e):
            nxt: dict = {}
            for m, c in poly.items():
                for i, entry in enumerate(matrix_inv[b]):
                    if entry:
                        up = list(m)
                        up[i] += 1
                        _add_or_drop(nxt, tuple(up), c * entry)
            poly = nxt
    return poly


def _divide_by_linear(poly: dict, alpha) -> dict:
    """Exact division of a polynomial by the linear form sum alpha_i x_i."""
    p = next(i for i, a in enumerate(alpha) if a)
    lead_inv = alpha[p].inverse()
    quotient: dict = {}
    rest = dict(poly)
    while rest:
        top_deg = max(m[p] for m in rest)
        if top_deg == 0:
            if any(rest.values()):
                raise ArithmeticError("polynomial is not divisible by the form")
            break
        layer = {m: c for m, c in rest.items() if m[p] == top_deg}
        for m, c in layer.items():
            down = list(m)
            down[p] -= 1
            q = c * lead_inv
            _add_or_drop(quotient, tuple(down), q)
            # subtract q * x^down * alpha from rest
            for i, a in enumerate(alpha):
                if a:
                    up = list(down)
                    up[i] += 1
                    _add_or_drop(rest, tuple(up), -q * a)
    return quotient


def dunkl_action(slice_: VermaSlice, direction, mv: dict) -> dict:
    """Divided-difference evaluation of the lowering operator attached to a
    vector in h on polynomial-tensor-irrep vectors.

    This is an oracle route: it never consults the straightening caches.
    The vector is checked as in `verma_action`.
    """
    if slice_.quotiented:
        raise ValueError("the Dunkl route is defined on genuine Verma slices only")
    alg = slice_.algebra
    dim = alg.dim
    if isinstance(direction, int):
        coords = alg._unit(direction, ONE, "direction")
    else:
        coords = [Scalar.rational(x) for x in direction]
        if len(coords) != dim:
            raise ValueError(f"direction has {len(coords)} coordinates, not {dim}")
    d = slice_.irrep.dim
    refl = [
        (
            r.index,
            -alg.reflection_coefficient(r)
            * sum((coords[i] * r.covector[i] for i in range(dim)), ZERO),
            r.covector,
        )
        for r in alg.reflections
    ]
    out: dict[int, list] = {}
    for n, freevec in mv.items():
        slice_._check_vector(n, freevec)
        if n == 0:
            continue
        tgt = out.setdefault(n - 1, [ZERO] * slice_.full_dim(n - 1))
        for mi, mono in enumerate(slice_._monos[n]):
            src = mi * d
            if not any(freevec[src + k] for k in range(d)):
                continue
            # derivative part
            deriv: dict = {}
            for i in range(dim):
                if mono[i] and coords[i]:
                    down = list(mono)
                    down[i] -= 1
                    key = tuple(down)
                    deriv[key] = deriv.get(key, ZERO) + coords[i] * mono[i]
            for key, dcoef in deriv.items():
                base = slice_._mono_index[n - 1][key] * d
                for k in range(d):
                    v = freevec[src + k]
                    if v:
                        tgt[base + k] = tgt[base + k] + v * dcoef
            # reflection parts
            for s_idx, weight, alpha in refl:
                if not weight:
                    continue
                rho = slice_.irrep.matrices[s_idx]
                moved = _subst_dual(
                    alg.group.matrices[alg.group.inv(s_idx)], mono
                )
                diff = {m: -c for m, c in moved.items()}
                _add_or_drop(diff, mono, ONE)
                for key, qcoef in _divide_by_linear(diff, alpha).items():
                    base = slice_._mono_index[n - 1][key] * d
                    wq = weight * qcoef
                    for k in range(d):
                        v = freevec[src + k]
                        if not v:
                            continue
                        vw = v * wq
                        for k2 in range(d):
                            if rho[k2][k]:
                                tgt[base + k2] = tgt[base + k2] + vw * rho[k2][k]
    return _mv_prune(out)


# ---------------------------------------------------------------------------
# singular vectors and simple quotients
# ---------------------------------------------------------------------------


@dataclass
class SingularSpace:
    """Joint kernel of the lowering operators at one degree, together with
    its isotypic pieces, as sparse ambient rows in reduced echelon form."""

    vectors: list
    components: dict

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _y_kernel(slice_: VermaSlice, n: int, block: list) -> list:
    """The combinations of the degree-n block vectors (sparse ambient rows)
    that every y_i sends into killed[n - 1], one per row of the reduced
    echelon basis of their coefficients."""
    below = slice_.killed[n - 1]
    # one row per (i, coordinate of degree n - 1), one column per block vector
    stacked: dict = {}
    for i, y in enumerate(slice_._ys):
        for b, vec in enumerate(block):
            image = slice_._apply(y, n, vec, {}).get(n - 1, {})
            for q, x in linalg.reduce_against(image, below).items():
                stacked.setdefault((i, q), {})[b] = x
    basis = linalg.kernel(stacked.values(), len(block))
    out = []
    for p in sorted(basis):
        acc: dict = {}
        for b, c in basis[p].items():
            for j, x in block[b].items():
                _accumulate(acc, j, c * x)
        out.append(_settle(acc))
    return out


def _singular_parts(slice_: VermaSlice, n: int) -> dict:
    """Label -> reduced echelon basis, as sparse ambient rows reduced against
    the killed rows, of the E-part of the degree-n singular space, for each
    listed E that the Euler rule allows at degree n and that occurs there.

    A vector is singular when every y_i sends it into killed[n - 1]; that
    kernel is G-stable.  Its E-part is the G-span of its intersection with
    the image of the primitive idempotent e_E = dim E / |G| sum_g
    rho_E(g^-1)[0][0] g (Serre, Linear Representations of Finite Groups,
    2.7), and that image has the multiplicity m_E of E as its dimension.
    So the y's act on m_E block vectors only, and the G-span stops at
    dim E times the number of kernel vectors."""
    labels = slice_.singular_isotypes[n]
    mults = slice_.multiplicities(n) if labels else {}
    parts: dict[str, list] = {}
    for irr in slice_.algebra.irreps:
        m = mults.get(irr.label, 0)
        if irr.label not in labels or not m:
            continue
        kernel = _y_kernel(slice_, n, _isotypic_block(slice_, irr, n, m))
        if kernel:
            parts[irr.label] = _g_span(slice_, n, kernel, irr.dim * len(kernel))
    return parts


def _isotypic_block(slice_: VermaSlice, irr: Irrep, n: int, m: int) -> list:
    """A basis of e_E applied to degree n modulo killed[n], as m sparse
    ambient rows reduced against the killed rows: the images of free unit
    vectors, taken until they span m dimensions.  e_E acts as one content,
    so each unit takes one scatter."""
    alg = slice_.algebra
    group, zero = alg.group, alg._zero_deg
    weight = Scalar.rational(irr.dim) / len(group)
    e_E = alg.element(
        {(zero, g, zero): weight * irr.matrices[group.inv(g)][0][0] for g in range(len(group))}
    )
    images = (slice_._apply(e_E, n, {p: ONE}, {})[n] for p in slice_.free_positions(n))
    return _span(slice_, n, images, m)


def _g_span(slice_: VermaSlice, n: int, vectors: list, dim: int) -> list:
    """Reduced echelon basis (sparse ambient rows, reduced against the
    killed rows) of the G-span of the vectors, which has dimension dim."""
    images = (slice_._apply(g, n, v, {})[n] for g in slice_._gs for v in vectors)
    return _span(slice_, n, images, dim)


def _span(slice_: VermaSlice, n: int, images, dim: int) -> list:
    """Reduced echelon basis, as sparse rows in pivot order, of the degree-n
    images reduced against the killed rows, taken until it has dimension
    dim; falling short is a bug."""
    basis: dict = {}
    images = iter(images)
    while len(basis) < dim:
        image = next(images, None)
        if image is None:
            raise RuntimeError(f"the images span {len(basis)} < {dim} dimensions in degree {n}")
        linalg.extend_echelon(basis, linalg.reduce_against(image, slice_.killed[n]))
    return [basis[p] for p in sorted(basis)]


def singular_vectors(slice_: VermaSlice, n: int) -> SingularSpace:
    """Deterministic basis of the degree-n singular space with isotypic
    labels: the joint kernel of the y's on degree n, taken only at a degree
    where the Euler rule leaves room for a singular vector.

    The components are the parts of the isotypes the Euler rule allows at
    degree n; every other isotypic piece of the kernel is zero.  With a
    complete irrep table the kernel is the direct sum of the components.
    When the table is incomplete, the kernel is taken on the whole degree,
    so it may hold unlisted isotypes that no component names.  A negative
    degree raises ValueError, one above the cutoff CutoffExceeded."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    if n > slice_.cutoff:
        raise CutoffExceeded(f"degree {n} exceeds the cutoff {slice_.cutoff}")
    if slice_.dim(n) == 0 or n not in slice_.singular_isotypes:
        return SingularSpace([], {})
    parts = _singular_parts(slice_, n)
    if _complete_table(slice_.algebra):
        vectors = [row for part in parts.values() for row in part]
    else:
        vectors = _y_kernel(slice_, n, [{p: ONE} for p in slice_.free_positions(n)])
    return SingularSpace(_span(slice_, n, vectors, len(vectors)), parts)


def simple_quotient_slice(algebra: CherednikAlgebra, irrep: Irrep, cutoff: int):
    """The simple quotient L(lambda) in degrees 0..cutoff and its graded
    character (`VermaSlice.graded_character`), built in one pass upward
    through the degrees.

    The radical J of the Verma module satisfies J_0 = 0 and J_n = {v in
    degree n : y_i . v in J_{n-1} for all i} (Dunkl, de Jeu and Opdam), so
    `kill_submodule(n)` builds J_n from J_{n-1} for n = 1, 2, ...; the new
    kernel is nonzero only at the degrees `singular_isotypes` lists.  J_n
    depends only on degrees <= n, so the truncation is exact."""
    slice_ = VermaSlice(algebra, irrep, cutoff)
    for n in range(1, cutoff + 1):
        slice_.kill_submodule(n)
    return slice_, slice_.graded_character()


# ---------------------------------------------------------------------------
# highest-weight order, blocks, decomposition matrices
# ---------------------------------------------------------------------------


@dataclass
class OrderGraph:
    """Directed linkage graph: an edge (W, E) means c(E) - c(W) is a strictly
    positive rational integer.  c_values lists the labels in irrep order."""

    c_values: dict
    edges: list


def _complete_table(algebra: CherednikAlgebra) -> bool:
    """Whether the irrep table lists every irrep of the group: its irreps
    are validated irreducible and the algebra admits no repeated character,
    so squared dimensions summing to the group order mean all of them."""
    return sum(irr.dim**2 for irr in algebra.irreps) == len(algebra.group)


def highest_weight_order(algebra: CherednikAlgebra) -> OrderGraph:
    c_values = dict(_c_values(algebra))
    edges = [
        (w, e) for w, c in c_values.items() for e, n in _linkage(algebra, c).items() if n > 0
    ]
    return OrderGraph(c_values, edges)


def blocks(algebra: CherednikAlgebra) -> list:
    """Partition of the irrep labels by the symmetrized integer-linkage
    graph: the connected components of the highest-weight order.

    An integer difference of c-values is an equivalence relation, and inside
    one class the order has an edge between two labels exactly when their
    c-values differ.  So a label's linked class (`_linkage`) is its block
    when it holds a nonzero difference (a complete multipartite graph on at
    least two parts is connected), and otherwise the label alone is.  Each
    block is kept where it first appears, so blocks are ordered by their
    first label, members in irrep order."""
    out = []
    for label, c in _c_values(algebra).items():
        linked = _linkage(algebra, c)
        block = list(linked) if any(linked.values()) else [label]
        if block not in out:
            out.append(block)
    return out


def decompose_verma_character(
    algebra: CherednikAlgebra, irrep: Irrep, cutoff: int, simple_characters: dict
) -> dict:
    """Multiplicities of the truncated simple modules in the Verma character,
    solved degree by degree along the highest-weight order; simple_characters
    maps each label to a graded character (`VermaSlice.graded_character`).
    On an incomplete irrep table an unsolvable residual is InvalidInput: an
    unlisted composition factor may be left, which no cutoff removes."""
    irreps = algebra.irreps
    if not irreps:
        raise ValueError("the algebra carries no irrep table")
    if _complete_table(algebra):
        unsolvable, why = InconsistentTruncation, f"cutoff {cutoff} too small"
    else:
        unsolvable, why = InvalidInput, (
            f"the listed irreps' squared dimensions sum to {sum(i.dim**2 for i in irreps)} "
            f"< |G| = {len(algebra.group)}, so every irrep must be listed"
        )
    verma = VermaSlice(algebra, irrep, cutoff)
    residual = verma.graded_character()
    mults = {irr.label: 0 for irr in irreps}
    for d in range(cutoff + 1):
        level = residual[d]
        for label in sorted(verma.singular_isotypes.get(d, ())):
            m = level.get(label, 0)
            if m < 0:
                raise unsolvable(f"negative multiplicity for {label!r} at degree {d}; {why}")
            if m == 0:
                continue
            mults[label] = m
            simple = simple_characters[label]
            for n2 in range(d, cutoff + 1):
                lvl2 = residual[n2]
                for lbl2, mult2 in simple.get(n2 - d, {}).items():
                    lvl2[lbl2] = lvl2.get(lbl2, 0) - m * mult2
        if any(level.values()):
            raise unsolvable(f"characters do not cancel at degree {d}; {why}")
    return mults


def decomposition_matrix(algebra: CherednikAlgebra, cutoff: int):
    """Rows indexed by Verma labels, columns by simple labels.

    Each d_lambda,mu is read at degree c_mu - c_lambda of the Verma
    character, so on a complete irrep table row lambda is complete at its
    own cutoff N_lambda (`_row_cutoffs`): its radical, and the Verma slice
    it peels, stop at min(cutoff, N_lambda).  Row lambda reads L(mu) up to
    degree N_lambda - (c_mu - c_lambda) = N_mu, as linkage is an
    equivalence.  On an incomplete table every row stays at the cutoff."""
    if not algebra.irreps:
        raise ValueError("the algebra carries no irrep table")
    rows = _row_cutoffs(algebra)
    tops = [(w, cutoff if rows is None else min(cutoff, rows[w.label])) for w in algebra.irreps]
    simple = {w.label: simple_quotient_slice(algebra, w, top)[1] for w, top in tops}
    return {w.label: decompose_verma_character(algebra, w, top, simple) for w, top in tops}


def _row_cutoffs(algebra: CherednikAlgebra):
    """Label -> N_lambda, the largest integer difference c_mu - c_lambda over
    the listed mu linked to lambda (`_linkage`), on a complete irrep table;
    None on an incomplete one."""
    if not _complete_table(algebra):
        return None
    return {label: max(_linkage(algebra, c).values()) for label, c in _c_values(algebra).items()}


def certified_cutoff(algebra: CherednikAlgebra):
    """N0, the largest row cutoff N_lambda (`_row_cutoffs`), on a complete
    irrep table; None on an incomplete one.  The matrix at N0 is the matrix
    at every cutoff above it."""
    rows = _row_cutoffs(algebra)
    return None if rows is None else max(rows.values())


def simple_characters(algebra: CherednikAlgebra, irreps: list, cutoff: int) -> dict:
    """Label -> the graded character of L(lambda) in degrees 0..cutoff
    (`VermaSlice.graded_character`), for each of the listed irreps.

    On a complete irrep table with the cutoff above N0 (`certified_cutoff`),
    where every slice at N0 fits MAX_SLICE_DIM, no radical is built above
    N0: in the graded Grothendieck group [M(lambda)] = sum_mu d_lambda,mu
    t^(c_mu - c_lambda) [L(mu)], D unitriangular (Ginzburg, Guay, Opdam and
    Rouquier), so L(lambda)_n = v_lambda(n) - sum_{mu != lambda}
    d_lambda,mu L(mu)_{n - (c_mu - c_lambda)} with D at N0
    (`decomposition_matrix`) and the Verma parts v from the Koszul series
    (`_verma_series`), recursing over the mu above lambda.  Otherwise each
    character comes from its radical (`simple_quotient_slice`).  Either
    way the listed irreps keep the radicals' bound at the cutoff:
    SliceTooLarge where a slice would not fit.  A negative multiplicity is a
    bug and raises RuntimeError."""
    if not algebra.irreps:
        raise ValueError("the algebra carries no irrep table")
    for irr in irreps:
        _check_slice_size(algebra, irr, cutoff)
    n0 = certified_cutoff(algebra)
    if (
        n0 is None
        or cutoff <= n0
        or any(_slice_size(algebra, irr, n0) > MAX_SLICE_DIM for irr in algebra.irreps)
    ):
        return {irr.label: simple_quotient_slice(algebra, irr, cutoff)[1] for irr in irreps}
    matrix = decomposition_matrix(algebra, n0)
    c_values, table = _c_values(algebra), {irr.label: irr for irr in algebra.irreps}
    series: dict = {}

    def simple(label: str) -> list:
        levels = series.get(label)
        if levels is None:
            levels = _verma_series(algebra, table[label], cutoff)
            shifts = _linkage(algebra, c_values[label])
            for mu, d in matrix[label].items():
                if d and mu != label:
                    shift, above = shifts[mu], simple(mu)
                    for n in range(shift, cutoff + 1):
                        levels[n] = [v - d * w for v, w in zip(levels[n], above[n - shift])]
            series[label] = levels
        return levels

    out = {}
    for irr in irreps:
        character = out[irr.label] = {}
        for n, level in enumerate(simple(irr.label)):
            if min(level) < 0:
                raise RuntimeError(f"negative multiplicity in L({irr.label!r}) at degree {n}")
            character[n] = {lbl: m for lbl, m in zip(table, level) if m}
    return out
