"""Span tracing of detthick's layers, measured from outside the package.

A layer is one module of ``detthick``.  Every public callable a layer
defines that is not a class (a plain function, or one behind a decorator
such as ``functools.cache``), and every private one that another module
imports, is replaced, in each module namespace that binds it, by a wrapper
that records one span per call: name, start, end, parent span and op id.
Calls made inside the package go through the same module globals, so nested
calls are traced too.  ``install`` raises if a layer or a counter hook finds
nothing to wrap, so a renamed entry point cannot drop out of the trace.

``leq`` and ``Partition.__init__`` run hundreds of thousands of times per op
and stay unwrapped; their cost lands in the self time of their callers.
Methods are not wrapped either.  ``IdealSpec.__init__`` gets a counter (no
span), so ``ideals.gens`` counts the generators of every ideal built, once,
whichever function builds it.

Self time of a span is its duration minus the time its child spans cover.
A layer's busy time is the union of its spans' intervals, i.e. the summed
duration of its spans that have no ancestor span in the same layer.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("partitions", "ideals", "zset", "schur", "ext", "regularity", "kodaira", "cli")
UNWRAPPED = frozenset({"leq"})
BUILD_OP = -1  # op id of the spans made while building a pass's input ideals


def _modules():
    pkg = importlib.import_module("detthick")
    return pkg, {layer: importlib.import_module(f"detthick.{layer}") for layer in LAYERS}


def _defined_in(obj, module: str) -> bool:
    """Is obj a callable, not a class, that the named module defines?"""
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module
    )


def _traced_functions(mods) -> dict:
    """Map id of each traced callable to (callable, layer, name)."""
    bound_elsewhere = set()
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(obj) and not _defined_in(obj, mod.__name__):
                bound_elsewhere.add(id(obj))
    out = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if not _defined_in(obj, mod.__name__) or name in UNWRAPPED:
                continue
            if name.startswith("_") and id(obj) not in bound_elsewhere:
                continue
            out[id(obj)] = (obj, layer, name)
    return out


class Tracer:
    """Records spans in flat arrays and the per-layer counters the hooks add."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = BUILD_OP
        self.counts = {
            "zset.labels": 0,
            "ext.chains": 0,
            "ext.chains_feasible": 0,
            "ext.weights": 0,
            "ideals.gens": 0,
            "partitions.enumerated": 0,
            "regularity.brute_calls": 0,
            "regularity.brute_closed_proven": 0,
            "cli.out_bytes": 0,
        }
        self.zset_ideals: set = set()
        self.schur_args: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self.closed_form_valid = None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Patch every module namespace that binds a traced function."""
        pkg, mods = _modules()
        traced = _traced_functions(mods)
        self.closed_form_valid = mods["regularity"].closed_form_valid
        wrappers = {}
        for key, (fn, layer, name) in traced.items():
            self.names.append(f"{layer}.{name}")
            self.layer_of_name.append(layer)
            wrappers[key] = self._wrap(fn, len(self.names) - 1, _HOOKS.get(f"{layer}.{name}"))
        missing = sorted(set(LAYERS) - set(self.layer_of_name))
        missing += sorted(set(_HOOKS) - set(self.names))
        if missing:
            raise RuntimeError(f"nothing to trace for {', '.join(missing)}")
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is traced[id(obj)][0]:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        spec = mods["ideals"].IdealSpec
        self._patched.append((spec, "__init__", spec.__init__))
        spec.__init__ = self._count_gens(spec.__init__)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name_id: int, hook):
        stack = self.stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(tracer.op_id)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count_gens(self, init):
        counts = self.counts

        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts["ideals.gens"] += len(obj.gens)

        return counted

    # ------------------------------------------------------------ aggregate

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per layer plus the counters and ratios."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += dur[i]
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        span_layer = [layer_ids[self.layer_of_name[self.span_name[i]]] for i in range(n)]
        calls = [0] * len(LAYERS)
        busy = [0.0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            lay = span_layer[i]
            calls[lay] += 1
            self_s[lay] += dur[i] - covered[i]
            parent = self.span_parent[i]
            while parent >= 0 and span_layer[parent] != lay:
                parent = self.span_parent[parent]
            if parent < 0:
                busy[lay] += dur[i]
        out: dict[str, float] = {}
        for layer, k in layer_ids.items():
            out[f"{layer}.calls"] = calls[k]
            out[f"{layer}.busy_s"] = busy[k]
            out[f"{layer}.self_s"] = self_s[k]
        c = self.counts
        per_name = Counter(self.names[k] for k in self.span_name)
        out["zset.labels"] = c["zset.labels"]
        out["zset.distinct_ratio"] = _ratio(len(self.zset_ideals), per_name["zset.zset_general"])
        out["ext.chains"] = c["ext.chains"]
        out["ext.chains_feasible"] = c["ext.chains_feasible"]
        out["ext.weights"] = c["ext.weights"]
        out["schur.distinct_ratio"] = _ratio(len(self.schur_args), per_name["schur.schur_dim"])
        out["ideals.gens"] = c["ideals.gens"]
        out["ideals.member_calls"] = per_name["ideals.member"]
        out["partitions.enumerated"] = c["partitions.enumerated"]
        out["regularity.brute_calls"] = c["regularity.brute_calls"]
        out["regularity.closed_proven_ratio"] = _ratio(
            c["regularity.brute_closed_proven"], c["regularity.brute_calls"]
        )
        out["cli.out_bytes"] = c["cli.out_bytes"]
        out["trace.spans"] = n
        return out


def _ratio(num: int, den: int) -> float:
    # a ratio over no attempts reads 0, so the metric is always a number
    return num / den if den else 0.0


# ---------------------------------------------------------------- counter hooks
# Each hook runs after its span has ended and only reads the call's arguments
# and result, so it never changes what the program computes.


def _hook_zset_general(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["zset.labels"] += len(result.pairs)
    tr.zset_ideals.add(args[0] if args else kwargs["X"])


def _hook_enumerate_weights(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["ext.chains"] += 1
    tr.counts["ext.chains_feasible"] += bool(result)
    tr.counts["ext.weights"] += len(result)


def _hook_schur_dim(tr: Tracer, args, kwargs, result) -> None:
    lam = args[0] if args else kwargs["lam"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    tr.schur_args.add((tuple(lam), k))


def _hook_enumerate_partitions(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["partitions.enumerated"] += len(result)


def _hook_r_bruteforce(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["regularity.brute_calls"] += 1
    if tr.closed_form_valid(*args, **kwargs):
        tr.counts["regularity.brute_closed_proven"] += 1


def _hook_cli_run(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["cli.out_bytes"] += len(result.encode())


_HOOKS = {
    "zset.zset_general": _hook_zset_general,
    "ext.enumerate_weights": _hook_enumerate_weights,
    "schur.schur_dim": _hook_schur_dim,
    "partitions.enumerate_partitions": _hook_enumerate_partitions,
    "regularity.r_bruteforce": _hook_r_bruteforce,
    "cli.run": _hook_cli_run,
}
