"""The benchmark's tracer (perfbench/tracing.py) patches functions of the
package by name.  A renamed or deleted target breaks a traced benchmark run
(`perfbench/run.py --trace 1`), so every name it lists must still resolve,
and its hooks must still find what they read in each call."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import cherednik.cli  # noqa: F401  (the tracer patches every target module)
from cherednik import banach
from cherednik.category_o import VermaSlice
from cherednik.groups import ReflectionFunction, builtin_group, find_reflections
from cherednik.pbw import CherednikAlgebra
from cherednik.scalars import ONE, ZERO, PadicContext

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    for layer, name, modname, clsname, attr in tracing.TARGETS:
        assert layer in tracing.LAYERS, name
        module = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
        else:
            # the tracer patches the class attribute itself, not an inherited one
            cls = getattr(module, clsname)
            assert attr in cls.__dict__, f"{modname}.{clsname}.{attr}"


def test_cache_attributes_exist():
    tracing = load_tracing()
    group, irreps = builtin_group("s3", 1)
    c = ReflectionFunction(group, find_reflections(group), [Fraction(1, 2)])
    alg = CherednikAlgebra(group, c, irreps=irreps)
    for attr in tracing.CACHE_ATTRS:
        assert isinstance(getattr(alg, attr), dict), attr


def test_the_hooks_read_what_the_targets_pass():
    # the tracer's hooks read a lattice check's `.passed`, the (jdeg, ideg)
    # key of `_ji_cache`, and the dense vector at args[3] of apply_x_full and
    # args[4] of apply_term_full; a reshaped target breaks them here rather
    # than in a traced benchmark run
    tracing = load_tracing()
    group, irreps = builtin_group("s3", 1)
    c = ReflectionFunction(group, find_reflections(group), [Fraction(1, 3)])
    alg = CherednikAlgebra(group, c, irreps=irreps)
    ctx = PadicContext(3, 64)
    slice_ = VermaSlice(alg, irreps[2], 3)
    unit = [ONE] + [ZERO] * (slice_.full_dim(1) - 1)
    term = ((1, 0), alg.group.identity, (0, 0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # c = 1/3 has valuation -1 at p = 3: r = 1 passes at level 0, r = 0 fails
        assert banach.lattice_check(alg, ctx, 0, 1).passed
        assert not banach.lattice_check(alg, ctx, 0, 0).passed
        alg._straighten_ji((1, 0), (0, 1))
        alg._straighten_ji((1, 0), (0, 1))
        slice_.apply_x_full(0, 1, unit)
        slice_.apply_term_full(term, ONE, 1, unit)
    finally:
        tracer.uninstall()
    assert tracer.counts["lattice_check.passed"] == 1
    assert tracer.counts["straighten.hits"] >= 1
    assert tracer.counts["apply.inputs"] == 2 * len(unit)
