"""Span tracing installed from outside the package.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record one span (name, start, end, parent) per call and a few counters.
Every module-level binding of a wrapped function is patched, so callers that
imported a function by name (`banach` imports `verma_action` and `val`) go
through the wrapper too.  `uninstall()` restores the originals.

A function that is re-entered while it runs (recursion, or `choose_r`
rerunning `lattice_check`) has every call counted, but only the outermost
call is timed.  Spans live in flat arrays until `write_spans` saves them.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

LAYERS = ("scalars", "groups", "pbw", "linalg", "category_o", "banach", "cli")

# (layer, metric name, module, class or None, attribute)
TARGETS = (
    ("scalars", "val", "cherednik.scalars", None, "val"),
    ("scalars", "hensel_embed", "cherednik.scalars", None, "hensel_embed"),
    ("scalars", "Scalar.inverse", "cherednik.scalars", "Scalar", "inverse"),
    ("groups", "enumerate_group", "cherednik.groups", None, "enumerate_group"),
    ("groups", "irrep_from_generators", "cherednik.groups", None, "irrep_from_generators"),
    ("groups", "find_reflections", "cherednik.groups", None, "find_reflections"),
    ("pbw", "multiply", "cherednik.pbw", "CherednikAlgebra", "multiply"),
    ("pbw", "straighten", "cherednik.pbw", "CherednikAlgebra", "_straighten_ji"),
    ("pbw", "parse_element", "cherednik.pbw", "CherednikAlgebra", "parse_element"),
    ("linalg", "rref", "cherednik.linalg", None, "rref"),
    ("linalg", "nullspace", "cherednik.linalg", None, "nullspace"),
    ("linalg", "extend_echelon", "cherednik.linalg", None, "extend_echelon"),
    ("linalg", "reduce_against", "cherednik.linalg", None, "reduce_against"),
    ("category_o", "apply_x_full", "cherednik.category_o", "VermaSlice", "apply_x_full"),
    ("category_o", "apply_y_full", "cherednik.category_o", "VermaSlice", "apply_y_full"),
    ("category_o", "apply_g_full", "cherednik.category_o", "VermaSlice", "apply_g_full"),
    ("category_o", "apply_term_full", "cherednik.category_o", "VermaSlice", "apply_term_full"),
    ("category_o", "singular_vectors", "cherednik.category_o", None, "singular_vectors"),
    ("category_o", "simple_quotient_slice", "cherednik.category_o", None, "simple_quotient_slice"),
    ("category_o", "decomposition_matrix", "cherednik.category_o", None, "decomposition_matrix"),
    ("category_o", "kill_submodule", "cherednik.category_o", "VermaSlice", "kill_submodule"),
    ("category_o", "graded_character", "cherednik.category_o", "VermaSlice", "graded_character"),
    ("category_o", "verma_action", "cherednik.category_o", None, "verma_action"),
    ("banach", "lattice_check", "cherednik.banach", None, "lattice_check"),
    ("banach", "level_tower", "cherednik.banach", None, "level_tower"),
    ("banach", "from_pbw", "cherednik.banach", "BanachElement", "from_pbw"),
    ("banach", "gauss_norm", "cherednik.banach", None, "gauss_norm"),
    ("cli", "main", "cherednik.cli", None, "main"),
    ("cli", "build_algebra", "cherednik.cli", None, "build_algebra"),
    ("cli", "emit_report", "cherednik.cli", None, "emit_report"),
)

# the four straightening caches of a CherednikAlgebra
CACHE_ATTRS = ("_act_a_cache", "_act_b_cache", "_single_cache", "_ji_cache")


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, name, *_ in TARGETS]
        self.layers = [layer for layer, *_ in TARGETS]
        n = len(TARGETS)
        self.calls = [0] * n
        self._depth = [0] * n
        self._stack: list[int] = []
        self.span_fn = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # counters measured at the wrapped boundaries
        self.counts = dict.fromkeys(
            (
                "rref.cells", "rref.nonzero", "extend_echelon.new",
                "apply.inputs", "apply.nonzero", "straighten.hits",
                "lattice_check.passed",
            ),
            0,
        )
        self.algebras: dict[int, object] = {}
        self._patches: list = []
        self._extra_modules: list = []

    # -- hooks: counters measured where the work happens --------------------

    def _before(self, name, args):
        counts = self.counts
        if name == "straighten":
            alg, jdeg, ideg = args[0], args[1], args[2]
            self.algebras[id(alg)] = alg
            if (jdeg, ideg) in alg._ji_cache:
                counts["straighten.hits"] += 1
        elif name == "rref":
            rows = args[0]
            if rows:
                counts["rref.cells"] += len(rows) * len(rows[0])
                counts["rref.nonzero"] += sum(1 for r in rows for x in r if x)
        elif name == "apply_term_full":
            vec = args[4]
            counts["apply.inputs"] += len(vec)
            counts["apply.nonzero"] += sum(1 for x in vec if x)
        elif name.startswith("apply_"):
            vec = args[3]
            counts["apply.inputs"] += len(vec)
            counts["apply.nonzero"] += sum(1 for x in vec if x)
        elif name == "multiply":
            self.algebras[id(args[0])] = args[0]

    def _after(self, name, result):
        if name == "extend_echelon" and result:
            self.counts["extend_echelon.new"] += 1
        elif name == "lattice_check" and result.passed:
            self.counts["lattice_check.passed"] += 1

    _HOOKED_BEFORE = {"straighten", "rref", "apply_x_full", "apply_y_full",
                      "apply_g_full", "apply_term_full", "multiply"}
    _HOOKED_AFTER = {"extend_echelon", "lattice_check"}

    def _wrap(self, fid: int, name: str, fn):
        calls, depth, stack = self.calls, self._depth, self._stack
        sp_fn, sp_parent = self.span_fn, self.span_parent
        sp_start, sp_end = self.span_start, self.span_end
        before = self._before if name in self._HOOKED_BEFORE else None
        after = self._after if name in self._HOOKED_AFTER else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[fid] += 1
            if before is not None:
                before(name, args)
            if depth[fid]:
                result = fn(*args, **kwargs)
            else:
                depth[fid] = 1
                idx = len(sp_start)
                sp_fn.append(fid)
                sp_parent.append(stack[-1] if stack else -1)
                sp_start.append(0.0)
                sp_end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    depth[fid] = 0
                    sp_start[idx] = t0
                    sp_end[idx] = t1
            if after is not None:
                after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing -----------------------------------------------------------

    def install(self, extra_modules=()):
        """Patch every binding of every target in the package (and in the
        given benchmark modules)."""
        self._extra_modules = list(extra_modules)
        modules = [m for k, m in sys.modules.items() if k == "cherednik" or k.startswith("cherednik.")]
        modules.extend(self._extra_modules)
        for fid, (layer, name, modname, clsname, attr) in enumerate(TARGETS):
            module = sys.modules[modname]
            if clsname is None:
                original = getattr(module, attr)
                wrapper = self._wrap(fid, name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                cls = getattr(module, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(fid, name, raw.__func__))
                else:
                    wrapper = self._wrap(fid, name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the body untraced (used for checks between traced ops)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(self._extra_modules)

    def register_algebras(self, algebras):
        for alg in algebras:
            self.algebras[id(alg)] = alg

    def cache_entries(self) -> int:
        return sum(
            len(getattr(alg, attr)) for alg in self.algebras.values() for attr in CACHE_ATTRS
        )

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls / incl_s / self_s and per-layer totals."""
        n = len(TARGETS)
        count = len(self.span_start)
        child = [0.0] * count
        incl = [0.0] * n
        self_t = [0.0] * n
        layer_incl = dict.fromkeys(LAYERS, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        fn, parent = self.span_fn, self.span_parent
        start, end = self.span_start, self.span_end
        # parents always precede their children, so a reverse sweep has every
        # child's total ready before its parent is visited
        for i in range(count - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
        for i in range(count):
            dur = end[i] - start[i]
            f = fn[i]
            layer = self.layers[f]
            incl[f] += dur
            self_t[f] += dur - child[i]
            layer_self[layer] += dur - child[i]
            # inclusive layer time counts only spans with no same-layer ancestor
            p = parent[i]
            while p >= 0 and self.layers[fn[p]] != layer:
                p = parent[p]
            if p < 0:
                layer_incl[layer] += dur
        out = {}
        for f, name in enumerate(self.names):
            out[name] = {"calls": self.calls[f], "incl_s": incl[f], "self_s": self_t[f]}
        return {"functions": out, "layer_incl_s": layer_incl, "layer_self_s": layer_self}

    def write_spans(self, path):
        """Write every span as `name  parent  start_s  end_s` (tab separated)."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{names[self.span_fn[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
