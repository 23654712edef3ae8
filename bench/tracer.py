"""Per-layer tracing of bngap from outside the package.

``Tracer.install`` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent span) per call; ``uninstall``
puts the originals back, so untraced runs pay nothing.  Because
``conjecture``, ``search``, ``stability`` and ``cli`` bind functions with
``from .x import y``, every module attribute that holds the original is
patched, not only the defining module.  ``Graph`` methods are patched on the
class; ``Graph.__post_init__`` is the validation every construction runs.

Spans stay in flat in-memory arrays until ``save`` writes them out after the
run.  A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, defining module, attribute path, modules whose binding is patched)
# An empty module list patches every bngap module that binds the function.
SPANS = (
    ("graphs.Graph", "bngap.graphs", "Graph.__post_init__", ()),
    ("graphs.with_edge", "bngap.graphs", "Graph.with_edge", ()),
    ("graphs.without_edge", "bngap.graphs", "Graph.without_edge", ()),
    ("graphs.edges", "bngap.graphs", "Graph.edges", ()),
    ("graphs.zykov", "bngap.graphs", "zykov", ()),
    ("graphs.clique_number", "bngap.graphs", "clique_number", ()),
    ("spectra.adjacency_matrix", "bngap.spectra", "adjacency_matrix", ()),
    ("spectra.eigenvalues", "bngap.spectra", "eigenvalues", ()),
    ("multipartite.multipartite_spectrum", "bngap.multipartite",
     "multipartite_spectrum", ()),
    ("multipartite.secular_roots", "bngap.multipartite", "secular_roots", ()),
    ("conjecture.bn_report", "bngap.conjecture", "bn_report", ()),
    ("conjecture.bn_report_multipartite", "bngap.conjecture",
     "bn_report_multipartite", ()),
    # A generator: each resumption is one span, so .calls counts them.
    ("search.partitions_into_parts", "bngap.search", "partitions_into_parts", ()),
    ("search.exhaustive_check", "bngap.search", "exhaustive_check", ()),
    ("search.hill_climb", "bngap.search", "hill_climb", ()),
    ("stability.edit_distance_local", "bngap.stability", "edit_distance_local", ()),
    ("stability.stability_experiment", "bngap.stability",
     "stability_experiment", ()),
    # Only the CLI's binding: dumps recurses through jsonutil's own global,
    # and those inner calls are not separate operations.
    ("jsonutil.dumps", "bngap.jsonutil", "dumps", ("bngap.cli",)),
    ("jsonutil.csv_cell", "bngap.jsonutil", "csv_cell", ()),
    ("cli.main", "bngap.cli", "main", ()),
)

# Functions too hot for a span (about 1.4M calls per sweep): counted only.
COUNTERS = (
    ("multipartite.secular_value", "bngap.multipartite", "secular_value"),
)


def _owner_and_attr(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, *_ in SPANS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_starts: list[int] = []
        self.run_counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_run(self) -> None:
        """Mark the start of one CLI invocation."""
        self.run_starts.append(len(self.start))
        self.run_counts.append({name: 0 for name, *_ in COUNTERS})

    def _wrap(self, nid: int, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(nid, fn)
        return self._span(nid, fn)

    def _span(self, nid: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
        return traced

    def _generator_span(self, nid: int, fn):
        step = self._span(nid, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item
        return traced

    def _counter(self, name: str, fn):
        counts = self.run_counts

        def counted(*args, **kwargs):
            counts[-1][name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module_name: str, path: str, only: tuple, wrap) -> None:
        owner, attr = _owner_and_attr(module_name, path)
        original = getattr(owner, attr)
        wrapper = wrap(original)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bngap" and not mod_name.startswith("bngap."):
                continue
            if only and mod_name not in only:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for nid, (_, module_name, path, only) in enumerate(SPANS):
            self._patch(module_name, path, only,
                        lambda original, nid=nid: self._wrap(nid, original))
        for name, module_name, path in COUNTERS:
            self._patch(module_name, path, (),
                        lambda original, name=name: self._counter(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        # Copies, so the arrays stay free to grow.
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def per_run(self) -> list[dict[str, float]]:
        """For each CLI invocation: ``<span>.calls``, ``<span>.self_s`` and
        ``<counter>.calls``."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        self_s = dur - child
        bounds = self.run_starts + [len(dur)]
        runs = []
        for (lo, hi), counts in zip(zip(bounds, bounds[1:]), self.run_counts):
            calls = np.bincount(name_id[lo:hi], minlength=len(self.names))
            selfs = np.bincount(name_id[lo:hi], weights=self_s[lo:hi],
                                minlength=len(self.names))
            run = {}
            for i, name in enumerate(self.names):
                run[name + ".calls"] = int(calls[i])
                run[name + ".self_s"] = float(selfs[i])
            run.update({name + ".calls": n for name, n in counts.items()})
            runs.append(run)
        return runs

    def save(self, path) -> None:
        name_id, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end,
                            run_starts=np.array(self.run_starts, dtype=np.int64))
