"""Call tracing of the kenmotsu package, installed from outside it.

Every public function of the package's modules is wrapped wherever it is
bound: in the module that defines it and in every module that imported it
by name (``connection`` imports ``riemann_of_connection``, ``conditions``
imports ``curvature_bundle``, ``cli`` imports the ``check_*`` functions).
A few methods are wrapped on their classes.  Nothing in the package is
edited; :meth:`Tracer.uninstall` puts every original back.

A timed wrapper records a span ``(id, parent id, name, start, end)`` in
memory; spans are written out only when the caller asks, after the traced
work.  The ``tensors`` functions and the ``MultiTensor`` / ``MetricPair``
constructors are only counted: they are leaf calls made tens of thousands
of times, and a span would cost more than the work it measures.

Span names are ``<module>.<qualified name>``; the module is the layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict

MODULES = ("tensors", "charts", "structure", "connection", "conditions", "catalog", "report", "cli")
COUNT_ONLY_MODULES = ("tensors",)

TIMED_METHODS = {
    "charts.ChartManifold": ("metric_at", "metric_pair_at", "metric_partials_at"),
    "connection.NonMetricConnection": ("coefficients_at",),
    "catalog.NamedExample": ("sample_points",),
    "cli._ManifoldRunner": (
        "__init__",
        "_suite_axioms",
        "_suite_kenmotsu",
        "_suite_curvature",
        "_suite_connection",
        "_suite_irregularity",
        "_suite_semisymmetry",
        "_suite_weyl",
    ),
    "cli.RunReport": ("to_json",),
}
COUNTED_METHODS = {
    "tensors.MultiTensor": ("__init__",),
    "tensors.MetricPair": ("__init__",),
}


class Tracer:
    """Wraps the package's calls; spans and counts stay in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        # span name -> the original function or method it wraps
        self.wrapped: dict[str, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn):
        self.wrapped[name] = fn
        spans, counts, stack, ids = self.spans, self.counts, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return wrapper

    def _counted(self, name: str, fn):
        self.wrapped[name] = fn
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        package = importlib.import_module("kenmotsu")
        modules = {m: importlib.import_module(f"kenmotsu.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            wrap = self._counted if short in COUNT_ONLY_MODULES else self._timed
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapped)
        for table, wrap in ((TIMED_METHODS, self._timed), (COUNTED_METHODS, self._counted)):
            for owner, methods in table.items():
                short, cls_name = owner.split(".")
                cls = getattr(modules[short], cls_name)
                for method in methods:
                    self._patch(cls, method, wrap(f"{owner}.{method}", vars(cls)[method]))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive time, self time and layer self time.

        ``self`` is a span's duration minus the durations of its child spans.
        ``layer_self`` removes only the time spent in other layers: a child in
        the same module keeps its own layer time with the parent, a child in
        another module is removed whole.  Spans are appended when they end,
        so every child precedes its parent in ``self.spans``.
        """
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        layer_own: defaultdict[str, float] = defaultdict(float)
        child_total: defaultdict[int, float] = defaultdict(float)
        # per parent id: time to remove, split by the child's layer into
        # (whole duration, duration minus the child's own layer time)
        removed: defaultdict[int, dict[str, list[float]]] = defaultdict(dict)
        for sid, parent, name, start, end in self.spans:
            dur = end - start
            layer = name.split(".", 1)[0]
            inclusive[name] += dur
            own[name] += dur - child_total.pop(sid, 0.0)
            cut = 0.0
            for child_layer, (whole, beyond) in removed.pop(sid, {}).items():
                cut += beyond if child_layer == layer else whole
            x = dur - cut
            layer_own[name] += x
            child_total[parent] += dur
            acc = removed[parent].setdefault(layer, [0.0, 0.0])
            acc[0] += dur
            acc[1] += dur - x
        names = set(self.counts)
        return {
            name: {
                "calls": self.counts[name],
                "inclusive_s": inclusive.get(name, 0.0),
                "self_s": own.get(name, 0.0),
                "layer_self_s": layer_own.get(name, 0.0),
            }
            for name in sorted(names)
        }

    def write_spans(self, path: str) -> None:
        """One JSON list per line: id, parent id, name, start and end in s."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start - origin, end - origin]))
                fh.write("\n")
