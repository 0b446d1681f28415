"""In-memory span tracer that wraps hermicurv's public functions from outside.

The package binds names with ``from .x import y``, so a wrapper installed
only on the defining module would miss most calls.  ``install`` rebinds
every attribute, in every loaded ``hermicurv`` module, that refers to a
traced function, and ``uninstall`` puts the originals back.

A span is (name, parent, start, end), kept in flat arrays while the run is
live.  A layer's self time is its span's duration minus the durations of
its direct children; children of one span never overlap because the
program is single threaded.  ``numpy.einsum`` is wrapped as the kernel
layer; ``MetricDefinition.derivative`` is counted, not timed.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# module.function names of the traced layer boundaries, in pipeline order
TRACED = (
    "dsl.parse_metric",
    "dsl.evaluate",
    "field.jet_at",
    "field.real_jet_from_complex",
    "connection.real_christoffel",
    "connection.induced_real_connection",
    "connection.chern_coeffs",
    "connection.complexified_christoffel",
    "curvature.real_curvature",
    "curvature.chern_curvature",
    "curvature.complexify_curvature",
    "curvature.complexified_11_direct",
    "engine.geometry_at",
    "sectional.riemann_sectional",
    "sectional.chern_sectional",
    "sectional.holo_sectional",
    "sectional.holo_bisectional",
    "sectional.identity_suite",
    "analysis.classify",
    "analysis.extremal_sectional",
    "analysis.extremal_bisectional",
    "analysis.chern_gap_probe",
    "analysis.lu_inequality_check",
    "cli.run_main",
    "cli.render_report",
)

# spans of these layers are also kept per metric, as name[catalog/n]
PER_METRIC = ("field.jet_at", "engine.geometry_at")

OP = "op"


def metric_label(metric) -> str:
    return f"{getattr(metric, 'catalog_name', None) or 'file'}/{metric.n}"


class Tracer:
    """Collects spans and counters; cheap enough to wrap per-call layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, nid: int, fn, args, kwargs):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        per_metric = name in PER_METRIC

        def wrapper(*args, **kwargs):
            sid = self.name_id(f"{name}[{metric_label(args[0])}]") if per_metric else nid
            out = self.span(sid, fn, args, kwargs)
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "hermicurv" and not modname.startswith("hermicurv."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        after = {
            "analysis.extremal_sectional": self._count_search,
            "analysis.extremal_bisectional": self._count_search,
            "cli.render_report": self._count_report,
        }
        for name in TRACED:
            modname, attr = name.split(".")
            original = getattr(sys.modules[f"hermicurv.{modname}"], attr)
            self._rebind(original, self.wrap(name, original, after.get(name)))

        einsum = np.einsum
        self._restore.append((np, "einsum", einsum))
        np.einsum = self.wrap("numpy.einsum", einsum)

        cls = sys.modules["hermicurv.dsl"].MetricDefinition
        derivative = cls.derivative
        counters = self.counters

        def counted_derivative(metric, *args, **kwargs):
            # a memo hit leaves the definition's derivative cache unchanged
            cache = getattr(metric, "_deriv_cache", None)
            before = None if cache is None else len(cache)
            out = derivative(metric, *args, **kwargs)
            counters["dsl.derivative.calls"] += 1
            if before is not None and len(cache) == before:
                counters["dsl.derivative.hits"] += 1
            return out

        self._restore.append((cls, "derivative", derivative))
        cls.derivative = counted_derivative

    def uninstall(self):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def _count_search(self, result):
        self.counters["analysis.searches"] += 1
        self.counters["analysis.converged"] += bool(result.converged)

    def _count_report(self, text):
        self.counters["cli.report_bytes"] += len(text.encode())

    def op(self, fn):
        """Run one benchmark op under a root span."""
        return self.span(self.name_id(OP), fn, (), {})

    # -- output --------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def base_name(name: str) -> str:
    return name.split("[", 1)[0]


def layer_stats(names, name, parent, start, end) -> dict:
    """calls, busy_s and self_s per span name.

    busy_s sums the spans with no ancestor of the same base name, so a
    recursive layer is not counted twice; self_s subtracts each span's
    direct children.  Names tagged name[label] are reported under both the
    tagged and the base name.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    count = len(dur)
    bases = sorted({base_name(s) for s in names})
    base = np.array([bases.index(base_name(s)) for s in names], dtype=np.int64)[name]

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
    self_time = dur - child_time

    nested = np.zeros(count, dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        nested[live] |= base[anc[live]] == base[live]
        anc[live] = parent[anc[live]]
    outer = ~nested

    stats = {}
    for key, ids, size in ((names, name, len(names)), (bases, base, len(bases))):
        calls = np.bincount(ids, minlength=size)
        busy = np.bincount(ids[outer], weights=dur[outer], minlength=size)
        own = np.bincount(ids, weights=self_time, minlength=size)
        for k, label in enumerate(key):
            if calls[k]:
                stats[label] = {"calls": int(calls[k]), "busy_s": float(busy[k]),
                                "self_s": float(own[k])}
    return stats


def graph_size(metric) -> tuple[int, int]:
    """(tree_nodes, unique_nodes) over the entries and every derivative
    tree the jet evaluates, first and second, in both derivative orders.

    tree_nodes counts nodes as separate trees would; unique_nodes counts
    structurally distinct subtrees across all of them.
    """
    n = metric.n
    roots = []
    for a in range(n):
        for b in range(n):
            roots.append(metric.entry(a, b))
            for g in range(1, n + 1):
                roots.append(metric.derivative(a, b, (("z", g),)))
                roots.append(metric.derivative(a, b, (("zb", g),)))
                for m in range(1, n + 1):
                    for ops in ((("z", g), ("zb", m)), (("z", g), ("z", m)), (("zb", g), ("zb", m))):
                        roots.append(metric.derivative(a, b, ops))

    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    keys: dict = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in size:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if id(c) not in size)
                continue
            size[id(node)] = 1 + sum(size[id(c)] for c in node.children)
            key = (node.kind, node.value, tuple(canon[id(c)] for c in node.children))
            canon[id(node)] = keys.setdefault(key, len(keys))
    return sum(size[id(r)] for r in roots), len(keys)
