"""Per-layer tracing of grassver, installed from outside the package.

The tracer wraps the public functions and methods of each grassver module
(the layers) and rebinds every name that refers to them, including names
that other modules bound at import time (``gf`` and ``geometry`` import
``rref2``, ``rank2``, ... by name).  Nothing under ``src/`` is edited.

Each wrapped call is a span.  Spans are not stored one by one: every call
adds to the in-memory totals of its function (calls, self time, inclusive
time, items yielded), and the totals are written out when the run ends.
Self time is a span's duration minus the durations of the spans it
caused.  Generators are timed only inside ``next()``, so the consumer's
work between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# module -> layer; the kernels layer is whatever backend grassver.kernels
# bound, so it is collected separately from the names below.
LAYER_MODULES = {
    "grassver.gf": "gf",
    "grassver.geometry": "geometry",
    "grassver.relations": "relations",
    "grassver.operators": "operators",
    "grassver.scalars": "scalars",
    "grassver.grassmann": "grassmann",
    "grassver.cli": "cli",
    "grassver.reports": "reports",
}
LAYERS = ("kernels", "gf", "geometry", "relations", "operators", "scalars",
          "grassmann", "cli", "reports")
KERNELS = ("rref2", "rank2", "rrefp", "rankp")

# dunder methods that are layer entry points; other dunders (hashing,
# equality of subspaces, repr) are left alone
DUNDERS = {
    "GeometryContext": ("__init__",),
    "SparseOperator": ("__matmul__", "__add__", "__sub__", "__neg__"),
    "QSqrtScalar": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                    "__mul__", "__rmul__", "__bool__", "__eq__"),
}

# the Q(sqrt q) field operations that scalars.ops counts; one that runs
# inside another (``__rsub__`` negates, then adds) is not counted again
SCALAR_OPS = {f"scalars.QSqrtScalar.{m}" for m in (
    "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "inverse")}

CALLS, SELF, TOTAL, YIELDED, HITS, NNZ = range(6)


class Tracer:
    """Wraps grassver's layers and accumulates per-function span totals."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self, total, ...]
        self.layer_of: dict[str, str] = {}
        self.contexts: list = []  # every GeometryContext built while traced
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._ops = [0, 0]  # scalar field operations counted, ops open
        self._t0 = None

    # -- wrappers ----------------------------------------------------------

    def _stat(self, key: str, layer: str) -> list:
        self.layer_of[key] = layer
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])

    def _wrap_function(self, fn, st, probe=None, post=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None and probe(args):
                st[HITS] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                el = clock() - t0
                st[CALLS] += 1
                st[SELF] += el - stack.pop()
                st[TOTAL] += el
                stack[-1] += el
            if post is not None:
                post(st, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, st):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st[CALLS] += 1
            it = fn(*args, **kwargs)  # creating a generator runs no code
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    el = clock() - t0
                    st[SELF] += el - stack.pop()
                    st[TOTAL] += el
                    stack[-1] += el
                st[YIELDED] += 1
                yield item

        return traced

    def _wrap(self, fn, key, layer):
        st = self._stat(key, layer)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, st)
        probe, post = _HOOKS.get(key, (None, None))
        if key == "geometry.GeometryContext.__init__":
            post = self._keep_context
        traced = self._wrap_function(fn, st, probe, post)
        return self._count_op(traced) if key in SCALAR_OPS else traced

    def _count_op(self, traced):
        ops = self._ops

        @functools.wraps(traced)
        def op(*args, **kwargs):
            if not ops[1]:
                ops[0] += 1
            ops[1] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                ops[1] -= 1

        return op

    def _keep_context(self, st, args, result) -> None:
        self.contexts.append(args[0])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer and rebind every grassver name that refers to
        a wrapped function.  Call after grassver is imported."""
        import grassver.kernels

        wrappers: dict = {}
        for name in KERNELS:
            fn = getattr(grassver.kernels, name)
            wrappers[fn] = self._wrap(fn, f"kernels.{name}", "kernels")
        for modname, layer in LAYER_MODULES.items():
            for fn, key in _public_callables(sys.modules[modname], layer):
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, key, layer)
        for modname, mod in list(sys.modules.items()):
            if modname == "grassver" or modname.startswith("grassver."):
                _rebind(mod, wrappers)
        self._t0 = time.perf_counter()

    # -- results -----------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, st in self.stats.items():
            out[self.layer_of[key]] += st[SELF]
        out["bench"] = self.elapsed() - self._stack[0]
        return out

    def table(self) -> dict:
        """Per-function totals, for the written trace."""
        return {
            key: {"layer": self.layer_of[key], "calls": st[CALLS],
                  "self_s": st[SELF], "total_s": st[TOTAL],
                  "yielded": st[YIELDED], "hits": st[HITS]}
            for key, st in sorted(self.stats.items()) if st[CALLS]
        }

    def metrics(self) -> dict[str, float]:
        """The named per-layer metrics, by metric name."""
        from grassver import relations

        st = self.stats

        def get(key):
            return st.get(key, [0, 0.0, 0.0, 0, 0, 0])

        out: dict[str, float] = {}
        for name, key, fields in NAMED:
            s = get(key)
            for f in fields:
                if f == "hit_ratio":
                    out[f"{name}.{f}"] = s[HITS] / s[CALLS] if s[CALLS] else 0.0
                else:
                    out[f"{name}.{f}"] = {
                        "calls": s[CALLS], "self_s": s[SELF], "s": s[TOTAL],
                        "yielded": s[YIELDED], "out_nnz": s[NNZ]}[f]
        out["geometry.strat_cache.entries"] = sum(
            len(ctx._strat_cache) for ctx in self.contexts)
        out["relations.typed_cache.entries"] = sum(
            len(relations._EVALUATORS[ctx]._typed) for ctx in self.contexts
            if ctx in relations._EVALUATORS)
        for layer, secs in self.layer_self_s().items():
            out[f"{layer}.self_s"] = secs
        out["scalars.ops"] = self._ops[0]
        return out


def _public_callables(mod, layer):
    """(function, key) for every public function and method of ``mod``."""
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            if not name.startswith("_"):
                yield obj, f"{layer}.{name}"
        elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
              and not name.startswith("_")):
            extra = DUNDERS.get(name, ())
            for attr, val in vars(obj).items():
                if attr.startswith("_") and attr not in extra:
                    continue
                fn = val.__func__ if isinstance(
                    val, (classmethod, staticmethod)) else val
                if inspect.isfunction(fn):
                    yield fn, f"{layer}.{name}.{fn.__name__}"


def _rebind(mod, wrappers) -> None:
    for name, val in list(vars(mod).items()):
        if _hashable(val) and val in wrappers:
            setattr(mod, name, wrappers[val])
        elif inspect.isclass(val) and val.__module__ == mod.__name__:
            for attr, member in list(vars(val).items()):
                if isinstance(member, (classmethod, staticmethod)):
                    if member.__func__ in wrappers:
                        setattr(val, attr,
                                type(member)(wrappers[member.__func__]))
                elif _hashable(member) and member in wrappers:
                    setattr(val, attr, wrappers[member])


def _hashable(val) -> bool:
    return callable(val) and getattr(val, "__hash__", None) is not None


def _probe_strat(args) -> bool:
    return args[1] in args[0]._strat_cache


def _probe_typed(args) -> bool:
    return args[1] in args[0]._typed


def _count_nnz(st, args, result) -> None:
    st[NNZ] += sum(len(row) for row in result.rows.values())


# key -> (probe, post) hooks
_HOOKS = {
    "geometry.GeometryContext.intersection_dim_with_y": (_probe_strat, None),
    "relations.ColumnEvaluator.typed_columns": (_probe_typed, None),
    "operators.SparseOperator.__matmul__": (None, _count_nnz),
}

# (metric prefix, function key, fields)
NAMED = [
    *[(f"kernels.{k}", f"kernels.{k}", ("calls", "self_s")) for k in KERNELS],
    ("gf.enumerate_subspaces", "gf.enumerate_subspaces",
     ("yielded", "self_s")),
    ("geometry.context_init", "geometry.GeometryContext.__init__",
     ("calls", "s")),
    ("geometry.superspaces_rows", "geometry.GeometryContext.superspaces_rows",
     ("yielded", "self_s")),
    ("geometry.hyperplanes_rows", "geometry.GeometryContext.hyperplanes_rows",
     ("yielded", "self_s")),
    ("geometry.typed_adjacency", "geometry.GeometryContext.typed_adjacency",
     ("calls", "yielded", "self_s")),
    ("geometry.intersection_dim_with_y",
     "geometry.GeometryContext.intersection_dim_with_y",
     ("calls", "hit_ratio", "self_s")),
    ("relations.typed_columns", "relations.ColumnEvaluator.typed_columns",
     ("calls", "hit_ratio", "self_s")),
    ("relations.verify_relation", "relations.verify_relation",
     ("calls", "self_s")),
    *[(f"relations.{m}", f"relations.ColumnEvaluator.{m}", ("calls", "self_s"))
      for m in ("evaluate_band_terms", "apply_band_int", "apply_terms")],
    ("operators.get", "operators.OperatorSet.get", ("calls", "self_s")),
    ("operators.evaluate_terms", "operators.OperatorSet.evaluate_terms",
     ("calls", "self_s")),
    ("operators.matmul", "operators.SparseOperator.__matmul__",
     ("calls", "self_s", "out_nnz")),
    *[(f"grassmann.{f}", f"grassmann.{f}", ("self_s",))
      for f in ("structure_constants", "count_edge_types",
                "verify_entry_table", "bfs_distances")],
    ("grassmann.orbit_partition", "grassmann.GrassmannInstance.orbit_partition",
     ("self_s",)),
    ("grassmann.vertex_neighbors_rows", "grassmann.vertex_neighbors_rows",
     ("yielded", "self_s")),
]
