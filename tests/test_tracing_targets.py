"""The benchmark's tracer (perfbench/tracing.py) patches functions of the
package by name.  A renamed or deleted target breaks a traced benchmark run
(`perfbench/run.py --trace 1`), so every name it lists must still resolve."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from cherednik.groups import ReflectionFunction, builtin_group, find_reflections
from cherednik.pbw import CherednikAlgebra

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
