"""Span tracing at the layer boundaries of p5tensor.

A `Tracer` replaces, for the duration of a `with` block, every name that
one p5tensor module imports from another (``invariants.center``, the
``families`` module object inside ``cli``, ...) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
Two names inside a layer get spans of their own because the per-layer
metrics ask for them: ``invariants.exterior_square`` and the
``pcgroup.PcGroup`` constructor, which is table construction
(``pcgroup.tables``).  Nothing inside ``src/`` is edited; the originals
are restored on exit.

Spans stay in memory; `summarize` folds them into per-name call counts,
inclusive time and self time (inclusive time minus the time covered by
direct children).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types

LAYERS = ("abelian", "pcgroup", "families", "oracles", "invariants", "cli")

# pcgroup functions that look up (and maybe build) the group's tables
GROUP_OPS = frozenset(
    "pcgroup." + n for n in (
        "multiply", "inverse", "conjugate", "commutator", "power",
        "order_of", "subgroup_closure", "normal_closure",
        "derived_subgroup", "center", "lower_central_series",
        "nilpotency_class", "exponent", "quotient",
        "abelian_invariants_of"))

# op kinds of the query-mix workload; their span durations are kept
QUERY_OPS = ("multiply", "inverse", "commutator", "power", "order_of",
             "normalize", "subgroup_closure", "normal_closure")
_KEEP_DURATIONS = frozenset("pcgroup." + op for op in QUERY_OPS)


def _letters(args, result):
    return sum(abs(int(exp)) for _, exp in args[0])


def _checked(args, result):
    return int(getattr(result, "checked", 0))


def _counter_for(name):
    if name == "pcgroup.normalize":
        return _letters
    if name.startswith("oracles."):
        return _checked
    return None


def _short(module):
    return module.__name__.rpartition(".")[2]


def _traceable(value):
    return callable(value) and not isinstance(value, (type, types.ModuleType))


class _Proxy:
    """Stands in for a layer module inside the module that imports it."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module
        self._wrapped = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name.startswith("_") or not _traceable(value):
            return value
        fn = self._wrapped.get(name)
        if fn is None or fn.__wrapped__ is not value:
            fn = self._tracer.wrap(value, f"{_short(self._module)}.{name}")
            self._wrapped[name] = fn
        return fn


class Tracer:
    """Records nested spans at p5tensor's layer boundaries."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, count]
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = _counter_for(name)
        clock = time.perf_counter

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def proxy(self, module):
        return _Proxy(self, module)

    def _patch(self, module, name, value):
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self):
        mods = {name: importlib.import_module(f"p5tensor.{name}")
                for name in LAYERS}
        layer_of = {m.__name__: name for name, m in mods.items()}
        for module in mods.values():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType):
                    if value.__name__ in layer_of and value is not module:
                        self._patch(module, name, self.proxy(value))
                elif (_traceable(value) and not name.startswith("_")
                      and getattr(value, "__module__", None) in layer_of
                      and value.__module__ != module.__name__):
                    lower = layer_of[value.__module__]
                    self._patch(module, name,
                                self.wrap(value, f"{lower}.{name}"))
        inv, pc = mods["invariants"], mods["pcgroup"]
        if hasattr(inv, "exterior_square"):
            self._patch(inv, "exterior_square", self.wrap(
                inv.exterior_square, "invariants.exterior_square"))
        if hasattr(pc, "PcGroup"):
            self._patch(pc, "PcGroup", self.wrap(pc.PcGroup,
                                                 "pcgroup.tables"))
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)
        return False


def summarize(passes):
    """Per span name, over one or more traced passes given as (spans,
    scale) pairs: calls, inclusive and self seconds (times `scale`),
    summed counter, and (for query-mix op kinds) the inclusive durations."""
    out = {}
    for spans, scale in passes:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, count) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "count": 0,
                                      "durations": []})
            s["calls"] += 1
            s["total_s"] += (end - start) * scale
            s["self_s"] += (end - start - covered[i]) * scale
            s["count"] += count
            if name in _KEEP_DURATIONS:
                s["durations"].append((end - start) * scale)
    return out


def layer_metrics(summary, passes, wall_untraced, wall_traced):
    """The per-layer metrics of BENCHMARK.json, per traced pass."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def family(prefix, key):
        return sum(s[key] for name, s in summary.items()
                   if name.startswith(prefix + "."))

    builds = get("pcgroup.tables", "calls")
    lookups = sum(get(name, "calls") for name in GROUP_OPS)
    m = {
        "pcgroup.exponent.s": get("pcgroup.exponent", "self_s") / passes,
        "pcgroup.tables.s": get("pcgroup.tables", "total_s") / passes,
        "pcgroup.tables.builds": builds / passes,
        "pcgroup.cache.hit_ratio": 1 - builds / lookups if lookups else 0.0,
    }
    for op in ("center", "derived_subgroup", "nilpotency_class",
               "abelian_invariants_of", "normalize"):
        m[f"pcgroup.{op}.s"] = get(f"pcgroup.{op}", "self_s") / passes
    m["pcgroup.normalize.calls"] = get("pcgroup.normalize", "calls") / passes
    m["pcgroup.normalize.letters"] = get("pcgroup.normalize", "count") / passes
    for op in QUERY_OPS:
        durations = summary.get(f"pcgroup.{op}", {}).get("durations")
        m[f"pcgroup.{op}.us_p50"] = (
            statistics.median(durations) * 1e6 if durations else 0.0)
    m["families.build.s"] = get("families.build", "self_s") / passes
    m["families.expected_record.s"] = get("families.expected_record",
                                          "self_s") / passes
    m["abelian.s"] = family("abelian", "self_s") / passes
    m["invariants.compute_record.self_s"] = get(
        "invariants.compute_record", "self_s") / passes
    m["invariants.exterior_square.s"] = get("invariants.exterior_square",
                                            "self_s") / passes
    m["invariants.validate.s"] = get("invariants.validate", "self_s") / passes
    m["oracles.s"] = family("oracles", "self_s") / passes
    m["oracles.checks"] = family("oracles", "count") / passes
    m["cli.verify.self_s"] = get("cli.verify", "self_s") / passes
    m["trace_overhead"] = wall_traced / wall_untraced - 1
    return m


PER_LAYER_UNITS = {
    "pcgroup.tables.builds": "count",
    "pcgroup.cache.hit_ratio": "ratio",
    "pcgroup.normalize.calls": "count",
    "pcgroup.normalize.letters": "count",
    "oracles.checks": "count",
    "trace_overhead": "ratio",
}


def unit_of(metric):
    if metric in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[metric]
    if metric.endswith(".us_p50"):
        return "us"
    return "s"
