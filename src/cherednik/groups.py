"""Finite matrix groups acting on K^n, their pseudo-reflections with
eigen-data, reflection functions, and validated irreducible representations.

Group elements are integral matrices over the exact coefficient field; a
pseudo-reflection is an element g with rank(g - 1) = 1, carrying its
nontrivial eigenvalue, the linear form cutting its fixed hyperplane, and
the dual eigenvector normalized so the pairing equals 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from . import linalg
from .scalars import Scalar, ZERO, ONE, decimal_int, parse_scalar, euler_phi, horner, is_prime
from .scalars import least_cyclotomic_root
from .scalars import ComputationLimit, ExprError, InvalidInput

Matrix = tuple  # tuple of row tuples of Scalar


# the most elements a group closure may reach
MAX_GROUP_ORDER = 10_000


class CapExceeded(ComputationLimit):
    """A group closure would hold more than MAX_GROUP_ORDER elements."""


class InfiniteOrder(CapExceeded):
    """A generator has infinite order, so its closure would pass MAX_GROUP_ORDER."""


class NonIntegralEntry(InvalidInput):
    """A generator matrix has an entry outside the ring of integers."""


class EigenvalueNotInField(InvalidInput):
    """A reflection eigenvalue does not lie in the declared coefficient field."""


class NotHomomorphism(InvalidInput):
    """Candidate representation matrices do not respect the group law."""


class NotIrreducible(InvalidInput):
    """Candidate representation has character norm > 1."""


def _freeze(rows) -> Matrix:
    return tuple(tuple(Scalar.rational(x) for x in row) for row in rows)


def _is_integral(mat: Matrix) -> bool:
    return all(x.den == 1 for row in mat for x in row)


def _int_mul(a, b) -> tuple:
    """`linalg.mat_mul` on matrices of ints: the product as int row tuples,
    skipping zero entries the same way."""
    out = []
    for arow in a:
        orow = [0] * len(b[0])
        for aik, brow in zip(arow, b):
            if aik:
                for j, y in enumerate(brow):
                    if y:
                        orow[j] += aik * y
        out.append(tuple(orow))
    return tuple(out)


def _thaw(mats) -> tuple:
    """Int matrices as Scalar matrices, with one Scalar per distinct int."""
    scalar = {x: Scalar.rational(x) for x in {x for m in mats for row in m for x in row}}
    scalar.update({0: ZERO, 1: ONE})
    return tuple(tuple(tuple(scalar[x] for x in row) for row in m) for m in mats)


def _kernel(mats):
    """(mul, mats, identity, thaw): the matrix product that a closure or a
    group law over the square Scalar matrices mats runs on, mats and the
    identity in its form, and the map from a list of its matrices back to
    Scalar matrices.  When every entry is a rational integer the products
    are exact on ints (`_int_mul`); otherwise they stay `linalg.mat_mul`.
    Either way a product is equal to the one `linalg.mat_mul` forms."""
    n = len(mats[0])
    if all(x.is_integer() for m in mats for row in m for x in row):
        ints = [tuple(tuple(x.coeffs[0] for x in row) for row in m) for m in mats]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return _int_mul, ints, ident, _thaw
    return linalg.mat_mul, mats, linalg.identity(n), tuple


@lru_cache(maxsize=None)
def _order_bound(n: int, ell: int) -> tuple[int, int, int]:
    """(N, p, r).  N is the lcm of the d with phi(lcm(ell, d)) <= n * phi(ell):
    the orders of the roots of unity of degree <= n over Q(zeta_ell).
    phi(d) >= sqrt(d/2), so no d above D = 2 (n * phi(ell))^2 qualifies.
    p > max(2^20, D) is a prime with p = 1 mod ell and r has order ell mod p:
    zeta_ell -> r is a ring map from Z[zeta_ell] onto Z/p."""
    room = n * euler_phi(ell)
    ds = range(1, 2 * room * room + 1)
    p = (max(2**20, len(ds)) // ell + 1) * ell + 1
    while not is_prime(p):
        p += ell
    r = least_cyclotomic_root(ell, p)
    return math.lcm(*(d for d in ds if euler_phi(math.lcm(ell, d)) <= room)), p, r


def _has_finite_order(g: Matrix) -> bool:
    """Whether g^N = I mod p, (N, p, r) = _order_bound(n, ell) for the field
    Q(zeta_ell) of g's entries.  A g of finite order has roots of unity of
    degree <= n over Q(zeta_ell) as eigenvalues, so its order divides N:
    False certifies infinite order.  Working mod p keeps the entries bounded
    however large N is.  p exceeds every d in N's lcm, so a unipotent I + M
    passes only if M = 0 mod p; any g of infinite order that passes is left
    to the closure's bound MAX_GROUP_ORDER."""
    n, ell = len(g), math.lcm(*(x.ell for row in g for x in row))
    bound, p, r = _order_bound(n, ell)
    power = g = [[horner(x.coeffs, pow(r, ell // x.ell, p), p) for x in row] for row in g]
    def mul(a, b):
        return [[sum(x * y for x, y in zip(u, v)) % p for v in zip(*b)] for u in a]
    for bit in bin(bound)[3:]:
        power = mul(power, power)
        if bit == "1":
            power = mul(power, g)
    return power == [[int(i == j) for j in range(n)] for i in range(n)]


class GroupAction:
    """A finite group of invertible integral matrices with its multiplication
    table, inverse table, and conjugacy classes.  Index 0 is the identity."""

    def __init__(self, dimension, matrices, mult_table, inverse, generators):
        self.dimension = dimension
        self.matrices = matrices
        self.mult_table = mult_table
        self.inverse = inverse
        self.generators = generators  # indices of the generators
        self.identity = 0
        self.conjugacy_classes = self._conjugacy_classes()
        self.class_of = [0] * len(matrices)
        for ci, cls in enumerate(self.conjugacy_classes):
            for g in cls:
                self.class_of[g] = ci

    def __len__(self) -> int:
        return len(self.matrices)

    def mul(self, a: int, b: int) -> int:
        return self.mult_table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def _conjugacy_classes(self):
        seen = set()
        classes = []
        for g in range(len(self.matrices)):
            if g in seen:
                continue
            orbit = {self.mul(self.mul(h, g), self.inv(h)) for h in range(len(self.matrices))}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=min)
        return classes


def enumerate_group(generators) -> GroupAction:
    """Breadth-first closure of a list of invertible integral matrices.

    Every generator must have finite order (checked before the closure
    starts), and a closure past MAX_GROUP_ORDER elements raises CapExceeded.
    Elements are numbered in breadth-first (element, generator) order.  The
    closure records step[a][i], the index of element a times generator i,
    and how each element was first reached.  The multiplication table is
    filled from those steps alone: if b was first reached as b' * s, then
    a * b = (a * b') * s, and b' comes before b.  Every step is an exact
    matrix product, so the table is associative by construction.  The
    products run on ints when every generator entry is a rational integer
    (`_kernel`).
    """
    gens = [_freeze(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    n = len(gens[0])
    if not n:
        raise ValueError("generators must act on a space of dimension >= 1")
    for number, g in enumerate(gens, 1):
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generators must be square matrices of equal size")
        if not _is_integral(g):
            raise NonIntegralEntry("generator entries must be algebraic integers")
        if linalg.rank(g) < n:
            raise ValueError("generators must be invertible")
        if not _has_finite_order(g):
            raise InfiniteOrder(f"generator {number} of {len(gens)} has infinite order")

    mul, gens, ident, thaw = _kernel(gens)
    elements = [ident]
    index = {ident: 0}
    origin = [None]  # (element, generator) that first reached each element
    step = []
    a = 0
    while a < len(elements):
        row = []
        for gi, g in enumerate(gens):
            prod = mul(elements[a], g)
            b = index.get(prod)
            if b is None:
                if len(elements) >= MAX_GROUP_ORDER:
                    raise CapExceeded(f"group closure exceeds MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
                b = index[prod] = len(elements)
                elements.append(prod)
                origin.append((a, gi))
            row.append(b)
        step.append(row)
        a += 1

    size = len(elements)
    reached = origin[1:]
    table = []
    for a in range(size):
        row = [a]
        for parent, gi in reached:
            row.append(step[row[parent]][gi])
        table.append(tuple(row))
    inverse = tuple(row.index(0) for row in table)
    return GroupAction(n, thaw(elements), tuple(table), inverse, tuple(step[0]))


@dataclass(frozen=True)
class PseudoReflection:
    """Reflection data: element index, nontrivial eigenvalue, the covector
    cutting the fixed hyperplane (first nonzero coordinate 1), and the dual
    eigenvector scaled so the natural pairing equals 2."""

    index: int
    eigenvalue: Scalar
    covector: tuple
    vector: tuple


def _rank_one(diff: Matrix) -> bool:
    """rank = 1 without elimination: the matrix is nonzero and every 2x2
    minor through a fixed nonzero entry diff[p][q] vanishes.  Those minors
    say that each row is diff[i][q] / diff[p][q] times row p, which forces
    every other 2x2 minor to vanish as well."""
    p = next((i for i, r in enumerate(diff) if any(r)), None)
    if p is None:
        return False
    row = diff[p]
    q = next(j for j, x in enumerate(row) if x)
    lead = row[q]
    return all(
        r[j] * lead == r[q] * row[j]
        for i, r in enumerate(diff)
        if i != p
        for j in range(len(row))
        if j != q
    )


def _minus(a, b) -> list:
    """The matrix a - b, entrywise."""
    return [[x - y for x, y in zip(arow, brow)] for arow, brow in zip(a, b)]


def find_reflections(group: GroupAction) -> list[PseudoReflection]:
    """All elements with rank(g - 1) = 1, with normalized eigen-data.  The
    rank test runs on ints when every entry is a rational integer
    (`_kernel`); the eigen-data is formed in Scalars for the elements that
    pass."""
    out = []
    n = group.dimension
    _, forms, ident, _ = _kernel(group.matrices)
    for gi, (mat, form) in enumerate(zip(group.matrices, forms)):
        if gi == group.identity or not _rank_one(_minus(form, ident)):
            continue
        diff = _minus(mat, linalg.identity(n))
        row = next(r for r in diff if any(r))
        lead = next(x for x in row if x)
        alpha = tuple(x / lead for x in row)
        col_j = next(j for j in range(n) if any(diff[i][j] for i in range(n)))
        u = [diff[i][col_j] for i in range(n)]
        gu = [sum((mat[i][j] * u[j] for j in range(n) if u[j]), ZERO) for i in range(n)]
        k = next(i for i in range(n) if u[i])
        lam = gu[k] / u[k]
        if any(gu[i] != lam * u[i] for i in range(n)):
            raise EigenvalueNotInField(
                f"element {gi} has no eigenvalue in the declared field"
            )
        pairing = sum((a * b for a, b in zip(u, alpha) if a and b), ZERO)
        scale = Scalar.rational(2) / pairing
        coroot = tuple(scale * x for x in u)
        out.append(PseudoReflection(gi, lam, alpha, coroot))
    return out


class ReflectionFunction:
    """Conjugation-invariant assignment of a scalar to each reflection class
    (one value for all, or one per class), kept with the pseudo-reflections."""

    def __init__(self, group: GroupAction, reflections, values):
        self.group = group
        self.reflections = list(reflections)
        self.classes = sorted({group.class_of[r.index] for r in self.reflections})
        values = [Scalar.rational(v) for v in values]
        if len(values) == 1:
            values = values * len(self.classes)
        if len(values) != len(self.classes):
            raise ValueError(
                f"expected {len(self.classes)} reflection-class values, got {len(values)}"
            )
        self.by_class = dict(zip(self.classes, values))

    def __call__(self, element_index: int) -> Scalar:
        return self.by_class[self.group.class_of[element_index]]

    def values(self) -> list[Scalar]:
        return [self.by_class[ci] for ci in self.classes]


@dataclass(frozen=True)
class Irrep:
    """A split irreducible representation, as `irrep_from_generators` builds
    and checks it: one matrix per element, indexed like the group.  Its
    dimension and character (the traces) are worked out from the matrices,
    so they cannot disagree with them."""

    label: str
    matrices: tuple  # Matrix per group element index
    dim: int = field(init=False)
    character: tuple = field(init=False)  # Scalar per group element index

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.matrices[0]))
        traces = (sum((m[i][i] for i in range(len(m))), ZERO) for m in self.matrices)
        object.__setattr__(self, "character", tuple(traces))


def _group_law(label: str, mats, gens, group: GroupAction, mul) -> None:
    """Form rho(a) rho(s) = mul(rho(a), rho(s)) once for each element a, in
    index order, and each generator s: it defines rho(a s) while that is
    None, and must equal it.

    mats starts with rho(identity) = I; gens are the generators' matrices.
    enumerate_group numbers elements in breadth-first (element, generator)
    order, so each element is first reached from a smaller index and is set
    before the loop reads it.  The law at every (a, s) gives
    rho(a) rho(b) = rho(a b) for every b, by induction on the length of a
    word b = b' s: rho(a) rho(b') rho(s) = rho(a b') rho(s) = rho(a b)."""
    for a in range(len(group)):
        for s, g in zip(group.generators, gens):
            prod, b = mul(mats[a], g), group.mul(a, s)
            if mats[b] is None:
                mats[b] = prod
            elif prod != mats[b]:
                raise NotHomomorphism(f"irrep {label!r} violates the group law at ({a}, {s})")


def irrep_from_generators(label: str, gen_matrices, group: GroupAction) -> Irrep:
    """Extend matrices given on the generators by the group law, then check
    irreducibility (character norm 1).  This is the one way an irrep is
    built: a full matrix table is checked by building from its generators'
    matrices and comparing.  The products run on ints when every generator
    entry is a rational integer (`_kernel`)."""
    gens = [_freeze(m) for m in gen_matrices]
    if len(gens) != len(group.generators):
        raise ValueError(f"irrep {label!r} needs {len(group.generators)} generator matrices")
    d = len(gens[0])
    if any(len(m) != d or any(len(row) != d for row in m) for m in gens):
        raise ValueError(f"irrep {label!r} needs square generator matrices of one size")
    mul, gens, ident, thaw = _kernel(gens)
    mats = [ident] + [None] * (len(group) - 1)
    _group_law(label, mats, gens, group, mul)
    irrep = Irrep(label, thaw(mats))
    chi = irrep.character
    norm = sum((chi[g] * chi[group.inv(g)] for g in range(len(group))), ZERO) / len(group)
    if norm != ONE:
        raise NotIrreducible(f"irrep {label!r} has character norm {norm}, expected 1")
    return irrep


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def _require_field(ell_needed: int, field_ell: int, what: str):
    if ell_needed <= 2:
        return
    if field_ell % ell_needed != 0:
        raise EigenvalueNotInField(
            f"{what} needs zeta_{ell_needed}; declare a cyclotomic field whose "
            f"index is a multiple of {ell_needed}"
        )


def cyclic_group(ell: int, field_ell: int = 1):
    """Z/ell acting on K^1 by multiplication by zeta_ell."""
    if not 1 <= ell <= 12:
        raise ValueError("built-in cyclic groups cover 1 <= ell <= 12")
    _require_field(ell, field_ell, f"the cyclic group of order {ell}")
    if ell <= 2:
        zeta = Scalar.rational(1 if ell == 1 else -1)
    else:
        zeta = Scalar.zeta(field_ell, field_ell // ell)
    group = enumerate_group([[[zeta]]])
    irreps = []
    for j in range(ell):
        label = "triv" if j == 0 else ("sgn" if ell == 2 and j == 1 else f"chi{j}")
        irreps.append(irrep_from_generators(label, [[[zeta**j]]], group))
    return group, irreps


def dihedral_group(ell: int, field_ell: int = 1):
    """Dihedral group of order 2*ell in its reflection representation."""
    if not 3 <= ell <= 8:
        raise ValueError("built-in dihedral groups cover 3 <= ell <= 8")
    _require_field(ell, field_ell, f"the dihedral group of order {2 * ell}")
    zeta = Scalar.zeta(field_ell, field_ell // ell) if ell > 2 else Scalar.rational(-1)
    rot = [[zeta, ZERO], [ZERO, zeta ** (ell - 1)]]
    flip = [[ZERO, ONE], [ONE, ZERO]]
    group = enumerate_group([rot, flip])
    irreps = [
        irrep_from_generators("triv", [[[ONE]], [[ONE]]], group),
        irrep_from_generators("det", [[[ONE]], [[-ONE]]], group),
    ]
    if ell % 2 == 0:
        irreps.append(irrep_from_generators("eps", [[[-ONE]], [[ONE]]], group))
        irreps.append(irrep_from_generators("epsdet", [[[-ONE]], [[-ONE]]], group))
    for k in range(1, (ell - 1) // 2 + 1):
        rk = [[zeta**k, ZERO], [ZERO, zeta ** ((ell - k) % ell)]]
        irreps.append(irrep_from_generators(f"rho{k}", [rk, flip], group))
    return group, irreps


_S3_GENS = [[[-1, 1], [0, 1]], [[1, 0], [1, -1]]]


def symmetric_3(field_ell: int = 1):
    """S3 in its 2-dimensional reflection representation over Q."""
    group = enumerate_group(_S3_GENS)
    one = [[1]]
    neg = [[-1]]
    irreps = [
        irrep_from_generators("triv", [one, one], group),
        irrep_from_generators("sgn", [neg, neg], group),
        irrep_from_generators("standard", _S3_GENS, group),
    ]
    return group, irreps


def symmetric_4(field_ell: int = 1):
    """S4 in its 3-dimensional reflection representation over Q."""
    s1 = [[-1, 1, 0], [0, 1, 0], [0, 0, 1]]
    s2 = [[1, 0, 0], [1, -1, 1], [0, 0, 1]]
    s3 = [[1, 0, 0], [0, 1, 0], [0, 1, -1]]
    group = enumerate_group([s1, s2, s3])
    one = [[1]]
    neg = [[-1]]
    t1, t2 = _S3_GENS
    irreps = [
        irrep_from_generators("triv", [one, one, one], group),
        irrep_from_generators("sgn", [neg, neg, neg], group),
        irrep_from_generators("standard", [s1, s2, s3], group),
        irrep_from_generators(
            "standard_sgn",
            [[[-x for x in row] for row in m] for m in (s1, s2, s3)],
            group,
        ),
        irrep_from_generators("dim2", [t1, t2, t1], group),
    ]
    return group, irreps


_BUILTINS = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "s3": symmetric_3,
    "s4": symmetric_4,
}


def builtin_group(spec: str, field_ell: int = 1):
    """Resolve a built-in family spec such as ``cyclic:4`` or ``s3``."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name not in _BUILTINS:
        raise ValueError(f"unknown built-in group {spec!r}")
    if name in ("cyclic", "dihedral"):
        order = decimal_int(arg)
        if order is None:
            raise ValueError(f"{name}:L needs an order L of decimal digits, got {arg!r}")
        return _BUILTINS[name](order, field_ell)
    if arg:
        raise ValueError(f"{name} takes no parameter")
    return _BUILTINS[name](field_ell)


# ---------------------------------------------------------------------------
# group/representation data files
# ---------------------------------------------------------------------------


class GroupFileError(InvalidInput):
    """Malformed group/representation data file."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def load_group_file(text: str, field_ell: int = 1):
    """Parse the documented group data format; returns (GroupAction, irreps).

    The format is line based: a ``dimension = n`` directive, then one
    ``begin generator`` ... ``end`` block per generator (n rows of n scalar
    expressions), then optional ``begin irrep NAME dim=d`` blocks holding one
    d x d matrix per generator, separated by ``gen`` lines.  n and d are
    positive decimal integers.  Unknown directives are rejected.
    """
    lines = text.splitlines()
    # (line number, text before any comment) of each line that is not blank
    stream = ((n, body) for n, raw in enumerate(lines, 1) if (body := raw.split("#")[0].strip()))

    def block(kind: str, width: int):
        """The nonempty matrices of the block just opened and its end line.
        gen starts a new matrix in an irrep block; a generator reads it as a row."""
        mats = [[]]
        for n, body in stream:
            if body == "end":
                return [m for m in mats if m], n
            if body == "gen" and kind == "irrep":
                mats.append([])
                continue
            parts = body.split()
            if len(parts) != width:
                raise GroupFileError(n, f"expected {width} entries, got {len(parts)}")
            try:
                mats[-1].append([parse_scalar(p, field_ell) for p in parts])
            except ExprError as exc:
                raise GroupFileError(n, str(exc)) from exc
        raise GroupFileError(len(lines), f"unterminated {kind} block")

    dimension, generators = 0, []
    irrep_specs = []  # (label, list of matrices, header line)
    for n, line in stream:
        if line.startswith("dimension"):
            key, _, value = line.partition("=")
            dimension = key.strip() == "dimension" and decimal_int(value.strip())
            if not dimension:
                raise GroupFileError(n, "malformed dimension directive")
        elif line == "begin generator":
            if not dimension:
                raise GroupFileError(n, "dimension must come first")
            mats, end = block("generator", dimension)
            if [len(m) for m in mats] != [dimension]:
                raise GroupFileError(end, f"generator needs {dimension} rows")
            generators += mats
        elif line.startswith("begin irrep"):
            head = line[len("begin irrep"):].split()
            dim = len(head) == 2 and head[1][:4] == "dim=" and decimal_int(head[1][4:])
            if not dim:
                raise GroupFileError(n, "expected: begin irrep NAME dim=D")
            mats, end = block("irrep", dim)
            if any(len(m) != dim for m in mats):
                raise GroupFileError(end, f"irrep {head[0]!r} matrices must be {dim}x{dim}")
            irrep_specs.append((head[0], mats, n))
        else:
            raise GroupFileError(n, f"unknown directive {line!r}")

    if not generators:
        raise GroupFileError(len(lines), "file must declare a dimension and generators")
    group = enumerate_group(generators)
    irreps = []
    for label, mats, header in irrep_specs:
        if len(mats) != len(generators):
            raise GroupFileError(header, f"irrep {label!r} needs one matrix per generator")
        irreps.append(irrep_from_generators(label, mats, group))
    return group, irreps
