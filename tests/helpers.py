"""Helpers shared by the test modules: built-in algebras, the commutator
with the Euler element, random Banach elements, the Dunkl-route
singular-space oracle, the all-candidates radical oracle, a recorder of the
slices built, and the command line or Python run in a fresh interpreter."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cherednik import category_o, linalg
from cherednik.banach import BanachElement
from cherednik.category_o import VermaSlice, dunkl_action, singular_vectors
from cherednik.groups import ReflectionFunction, builtin_group, find_reflections
from cherednik.pbw import CherednikAlgebra
from cherednik.scalars import ZERO


def make_algebra(spec, ell, c_values):
    group, irreps = builtin_group(spec, ell)
    refl = find_reflections(group)
    c = ReflectionFunction(group, refl, c_values)
    return CherednikAlgebra(group, c, irreps=irreps)


def record_slices(monkeypatch):
    """Patch `category_o.VermaSlice` to record every slice built from then
    on, as (irrep label, cutoff) in build order; returns that list."""
    built = []
    real = category_o.VermaSlice

    class Recording(real):
        def __init__(self, algebra, irrep, cutoff):
            built.append((irrep.label, cutoff))
            super().__init__(algebra, irrep, cutoff)

    monkeypatch.setattr(category_o, "VermaSlice", Recording)
    return built


def ad_euler(alg, a):
    """The commutator e * a - a * e with the Euler element e of the algebra."""
    e = alg.euler_element()
    return e * a - a * e


def random_banach(alg, params, rng, terms=3, max_degree=4):
    el = alg.zero()
    for _ in range(terms):
        total = rng.randint(0, max_degree)
        isum = rng.randint(0, total)
        ideg = [0] * alg.dim
        for _ in range(isum):
            ideg[rng.randrange(alg.dim)] += 1
        jdeg = [0] * alg.dim
        for _ in range(total - isum):
            jdeg[rng.randrange(alg.dim)] += 1
        coeff = Fraction(
            rng.randint(-9, 9) * 5 ** rng.randint(0, 3), rng.randint(1, 9)
        )
        el = el + alg.monomial(tuple(ideg), rng.randrange(len(alg.group)), tuple(jdeg), coeff)
    return BanachElement.from_pbw(el, params)


def brute_force_singular_dims(alg, w, cutoff):
    """Oracle: nullspace of the stacked Dunkl matrices, built columnwise
    from the divided-difference route only."""
    slice_ = VermaSlice(alg, w, cutoff)
    dims = {}
    for n in range(1, cutoff + 1):
        cols = slice_.dim(n)
        rows = []
        images = []
        for j in range(cols):
            unit = slice_.basis_vector(n, j)
            img = {}
            for i in range(1, alg.dim + 1):
                part = dunkl_action(slice_, i, unit)
                img[i] = part.get(n - 1, [ZERO] * slice_.dim(n - 1))
            images.append(img)
        for i in range(1, alg.dim + 1):
            for r in range(slice_.dim(n - 1)):
                rows.append([images[j][i][r] for j in range(cols)])
        dims[n] = len(linalg.nullspace(rows)) if rows else cols
    return dims


def all_candidates_radical(alg, w, cutoff):
    """Oracle: the killed rows of the simple quotient of the Verma slice,
    built with every x_i . row of J_(n-1) as a candidate for degree n (no
    Groebner bookkeeping), then the singular vectors of that partial
    quotient."""
    slice_ = VermaSlice(alg, w, cutoff)
    xs = [alg.x(i + 1) for i in range(alg.dim)]
    for n in range(1, cutoff + 1):
        killed = slice_.killed[n]
        for row in slice_.killed[n - 1].values():
            for x in xs:
                linalg.extend_echelon(killed, slice_._apply(x, n - 1, row, {})[n])
        for v in singular_vectors(slice_, n).vectors:
            linalg.extend_echelon(killed, v)
    return slice_.killed


def group_file_text(spec, labels=None):
    """The built-in rational group spec in the group-file format: its
    generators in order, then its irreps in built-in order (those named in
    labels, when given), each with one matrix per generator."""
    group, irreps = builtin_group(spec)

    def block(mat):
        return [" ".join(map(str, row)) for row in mat]

    lines = [f"dimension = {group.dimension}"]
    for s in group.generators:
        lines += ["begin generator", *block(group.matrices[s]), "end"]
    for irr in irreps:
        if labels is None or irr.label in labels:
            lines.append(f"begin irrep {irr.label} dim={irr.dim}")
            for s in group.generators:
                lines += ["gen", *block(irr.matrices[s])]
            lines.append("end")
    return "\n".join(lines) + "\n"


def cli_job(tmp_path, command, config, timeout=10):
    """`cherednik <command>` on the config text, in a fresh process stopped
    after timeout seconds (subprocess.TimeoutExpired)."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(config)
    return python_job(["-m", "cherednik.cli", command, "--config", str(cfg)], timeout)


def python_job(args, timeout=10, cwd=None):
    """The interpreter on args, with src and the tests on its path, in a
    fresh process stopped after timeout seconds (subprocess.TimeoutExpired)."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout, cwd=cwd
    )
