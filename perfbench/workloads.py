"""The four workloads: their set-up, their fixed operation lists and the
checks on every operation's output.

An operation is timed on its own (`Op.run`); its check (`Op.check`) runs
outside the timed region.  A check returns "ok", "known" (the recorded
deep-degree defect) or an error string.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import jobs
import oracles

from cherednik import category_o, cli, groups, pbw
from cherednik.category_o import mv_eq, mv_scale
from cherednik.scalars import ONE

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
CLI_WORKLOADS = ("verma-q", "verma-cyclotomic", "pbw-banach")


def digest_key(command: str, config: str) -> str:
    return hashlib.sha256(f"{command}\n{config}".encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


class CliOp:
    """One `cherednik <command> --config <file> --out <file>` call."""

    def __init__(self, index: int, command: str, keys: dict, rundir: Path):
        self.command = command
        self.keys = keys
        self.config = jobs.config_text(keys)
        self.name = f"{index:02d}-{command}"
        self.cfg_path = rundir / f"{self.name}.cfg"
        self.out_path = rundir / f"{self.name}.tsv"
        self.cfg_path.write_text(self.config, encoding="utf-8")

    def run(self):
        self.out_path.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(
                [self.command, "--config", str(self.cfg_path), "--out", str(self.out_path)]
            )
        return code, err.getvalue()

    def keep(self, result):
        return None

    def check(self, result, digests: dict) -> str:
        code, err = result
        recorded = digests.get(digest_key(self.command, self.config))
        if recorded is None:
            return f"{self.name}: no recorded digest for this job"
        if code != 0:
            if recorded.get("exit") == code and jobs.DEEP_DEFECT in err:
                return "known"
            return f"{self.name}: exit {code}: {err.strip()[:200]}"
        text = self.out_path.read_text(encoding="utf-8")
        if jobs.is_deep_job(self.command, self.keys):
            # recorded as a failure; once it succeeds the closed form decides
            bad = oracles.deep_ws_report(text, 1500, Fraction(self.keys["c"]))
            return bad or "ok"
        sha = hashlib.sha256(text.encode()).hexdigest()
        if sha != recorded.get("sha256"):
            return f"{self.name}: report sha256 {sha[:12]} differs from the recorded digest"
        return self._oracle(text) or "ok"

    def _oracle(self, text: str) -> str | None:
        keys = self.keys
        if self.command == "verma-weights":
            ell = 1 if keys.get("field", "rational") == "rational" else int(keys["field"].split(":")[1])
            group, irreps = groups.builtin_group(keys["group"], ell)
            return oracles.verma_dims(text, group.dimension, {w.label: w.dim for w in irreps})
        if self.command == "singular" and keys["group"] == "cyclic:2":
            c = Fraction(keys["c"])
            return oracles.rank_one_law(text, int(2 * c), int(keys["cutoff"]))
        return None


class CliWorkload:
    """A list of CLI jobs; each job builds its own algebra, as a fresh
    `cherednik` process does."""

    def __init__(self, name: str, seed: int, rundir: Path):
        self.ops = [
            CliOp(i, command, keys, rundir)
            for i, (command, keys) in enumerate(jobs.cli_jobs(name, seed))
        ]
        self.digests = load_digests()

    def algebras(self):
        return []

    def check(self, op, result) -> str:
        return op.check(result, self.digests)

    def final_checks(self, results) -> list:
        return []


# -- session-warm --------------------------------------------------------------

SESSION_ALGEBRAS = (
    # key, group spec, field, c, slice cutoff
    ("s4", "s4", 1, Fraction(1, 2), 6),
    ("d5", "dihedral:5", 5, Fraction(1, 5), 15),
)
LAW_C = Fraction(1, 2)
LAW_MAX_N = 400
LAW_OPS = 8
PRODUCTS_PER_ALGEBRA = 80
PRODUCT_DEGREE = 2  # total degree bound of each monomial of a product factor
PRODUCT_SAMPLE = 10  # every tenth product is checked for associativity


def build_algebra(spec: str, ell: int, c: Fraction):
    group, irreps = groups.builtin_group(spec, ell)
    refl = groups.find_reflections(group)
    return pbw.CherednikAlgebra(
        group, groups.ReflectionFunction(group, refl, [c]), irreps=irreps, field_ell=ell
    )


def random_element(alg, rng: random.Random, terms: int = 6, max_degree: int = PRODUCT_DEGREE):
    """A seeded element with `terms` PBW monomials of total degree at most
    max_degree."""
    out = {}
    for _ in range(terms):
        total = rng.randint(1, max_degree)
        isum = rng.randint(0, total)
        ideg, jdeg = [0] * alg.dim, [0] * alg.dim
        for _ in range(isum):
            ideg[rng.randrange(alg.dim)] += 1
        for _ in range(total - isum):
            jdeg[rng.randrange(alg.dim)] += 1
        g = rng.randrange(len(alg.group))
        out[(tuple(ideg), g, tuple(jdeg))] = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3)))
    return alg.element(out)


class EulerOp:
    """The Euler element on every basis vector of a fresh Verma slice."""

    def __init__(self, key, alg, irrep, cutoff):
        self.name = f"euler-{key}-{irrep.label}"
        self.alg, self.irrep, self.cutoff = alg, irrep, cutoff

    def run(self):
        slice_ = category_o.VermaSlice(self.alg, self.irrep, self.cutoff)
        euler = self.alg.euler_element()
        images = []
        for n in range(self.cutoff + 1):
            for j in range(slice_.dim(n)):
                images.append(category_o.verma_action(slice_, euler, slice_.basis_vector(n, j)))
        return slice_, images

    def keep(self, result):
        return result[0]  # the slice, for the Dunkl sample

    def check(self, result) -> str:
        slice_, images = result
        c_w = oracles.euler_eigenvalue(self.alg, self.irrep)
        k = 0
        for n in range(self.cutoff + 1):
            for j in range(slice_.dim(n)):
                if not mv_eq(images[k], mv_scale(slice_.basis_vector(n, j), c_w + n)):
                    return f"{self.name}: degree {n} vector {j} is not an eigenvector for {c_w} + {n}"
                k += 1
        return "ok"


class ProductOp:
    """One PBW product on a warm session algebra.  A sampled product keeps
    its result and a third factor `c` for SessionWorkload.final_checks."""

    def __init__(self, key, alg, a, b, c=None):
        self.name = f"product-{key}"
        self.alg, self.a, self.b, self.c = alg, a, b, c

    def run(self):
        return self.alg.multiply(self.a, self.b)

    def keep(self, result):
        return None if self.c is None else result

    def check(self, result) -> str:
        return "ok"


class LawOp:
    """y1 * x1^N on a warm cyclic:2 algebra, checked against the closed form."""

    def __init__(self, alg, n):
        self.name = f"law-y1x1^{n}"
        self.alg, self.n = alg, n

    def run(self):
        return self.alg.multiply(self.alg.y(1), self.alg.x(1, self.n))

    def keep(self, result):
        return None

    def check(self, result) -> str:
        return oracles.y1_xn_law(result, self.n, LAW_C) or "ok"


class SessionWorkload:
    """One process builds its algebras, warms them once, then runs the module
    action and PBW products against the warm caches.

    The warm-up straightens every word the timed pass can meet: a dense
    vector through the Euler element at every degree, every y^J * x^I and
    g * x^m, y^m * g with degrees up to PRODUCT_DEGREE, and y1 * x1^LAW_MAX_N.
    The timed products are drawn from their own seeded stream, but they only
    hit the caches, so the cache size (and so peak memory) does not depend on
    the seed."""

    def __init__(self, seed: int, rundir: Path):
        self.specs = {key: (spec, ell, c) for key, spec, ell, c, _ in SESSION_ALGEBRAS}
        self.algs = {key: build_algebra(*spec) for key, spec in self.specs.items()}
        self.law_alg = build_algebra("cyclic:2", 1, LAW_C)
        for key, _spec, _ell, _c, cutoff in SESSION_ALGEBRAS:
            alg = self.algs[key]
            slice_ = category_o.VermaSlice(alg, alg.irreps[0], cutoff)
            euler = alg.euler_element()
            for n in range(cutoff + 1):
                category_o.verma_action(slice_, euler, {n: [ONE] * slice_.dim(n)})
            zero = (0,) * alg.dim
            words = [m for d in range(PRODUCT_DEGREE + 1) for m in pbw.monomials(alg.dim, d)]
            for j in words:
                for i in words:
                    alg.multiply(alg.monomial(zero, 0, j), alg.monomial(i, 0, zero))
            for g in range(len(alg.group)):
                for m in words:
                    alg.multiply(alg.g(g), alg.monomial(m, 0, zero))
                    alg.multiply(alg.monomial(zero, 0, m), alg.g(g))
        self.law_alg.multiply(self.law_alg.y(1), self.law_alg.x(1, LAW_MAX_N))
        # the timed operation list
        rng = random.Random(f"session-warm:{seed}")
        self.ops = []
        for key, _spec, _ell, _c, cutoff in SESSION_ALGEBRAS:
            alg = self.algs[key]
            self.ops.extend(EulerOp(key, alg, irr, cutoff) for irr in alg.irreps)
            for k in range(PRODUCTS_PER_ALGEBRA):
                a, b = random_element(alg, rng), random_element(alg, rng)
                c = random_element(alg, rng) if k % PRODUCT_SAMPLE == 0 else None
                self.ops.append(ProductOp(key, alg, a, b, c))
        self.ops.extend(LawOp(self.law_alg, rng.randint(2, LAW_MAX_N)) for _ in range(LAW_OPS))
        rng.shuffle(self.ops)

    def algebras(self):
        return list(self.algs.values()) + [self.law_alg]

    def check(self, op, result) -> str:
        return op.check(result)

    def final_checks(self, results) -> list:
        """Heavier oracles on one pass's results: associativity, and agreement
        with a separately built algebra whose caches saw only these products,
        on the sampled products; Dunkl agreement on a sample of basis vectors
        of every slice.  Returns (op name, error) pairs."""
        errors = []
        cold = {key: build_algebra(*spec) for key, spec in self.specs.items()}
        keys = {id(alg): key for key, alg in self.algs.items()}
        for op, ab in ((o, r) for o, r in results if isinstance(o, ProductOp)):
            alg, other = op.alg, cold[keys[id(op.alg)]]
            if alg.multiply(ab, op.c) != alg.multiply(op.a, alg.multiply(op.b, op.c)):
                errors.append((op.name, "product is not associative on the sample"))
            other_ab = other.multiply(other.parse_element(str(op.a)), other.parse_element(str(op.b)))
            if str(other_ab) != str(ab):
                errors.append((op.name, "warm product differs from the cold-cache product"))
        rng = random.Random(0)
        for op, slice_ in ((o, r) for o, r in results if isinstance(o, EulerOp)):
            alg = op.alg
            for _ in range(3):
                n = rng.randint(1, op.cutoff)
                j = rng.randrange(slice_.dim(n))
                vec = slice_.basis_vector(n, j)
                for i in range(1, alg.dim + 1):
                    if category_o.dunkl_action(slice_, i, vec) != category_o.verma_action(slice_, alg.y(i), vec):
                        errors.append((op.name, f"Dunkl route differs on y{i}, degree {n} vector {j}"))
        return errors


def make(name: str, seed: int, rundir: Path):
    if name in CLI_WORKLOADS:
        return CliWorkload(name, seed, rundir)
    if name == "session-warm":
        return SessionWorkload(seed, rundir)
    raise ValueError(f"unknown workload {name!r}")
