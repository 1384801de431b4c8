"""Span and count tracing of recdiv's layers, applied from outside.

A ``Tracer`` replaces public functions of the ``recdiv`` modules by
wrappers that record one span per call (name, start, end, parent) and,
for some boundaries, work counts.  Every module attribute bound to the
same object is replaced, so calls made through a re-export (``cli``
imports ``greedy_solve`` by name, ``synth`` and ``data`` call
``RecGraph``) are seen as well.  Nothing in ``src/`` changes; ``restore``
puts every original back.

Spans and counts stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _greedy_counts(tracer, original, args, kwargs):
    # collect_stats only changes what greedy_solve returns: its counters run
    # on every call, so asking for them adds no work to the solve.
    want_stats = kwargs.pop("collect_stats", False)
    sol, stats = original(*args, collect_stats=True, **kwargs)
    tracer.add("greedy.pops", stats["pops"])
    tracer.add("greedy.decrease_keys", stats["decrease_keys"])
    tracer.add("greedy.selected", sol.num_selected())
    return (sol, stats) if want_stats else sol


def _network_counts(tracer, original, args, kwargs):
    net, rmap = original(*args, **kwargs)
    tracer.add("flownet.nodes", net.node_count)
    tracer.add("flownet.arcs", net.arc_count)
    return net, rmap


def _flow_counts(tracer, original, args, kwargs):
    net = args[0]
    result = original(*args, **kwargs)
    tracer.add("mincostflow.arcs", net.arc_count)
    if result.feasible:
        tracer.add("mincostflow.units_routed", sum(s for s in net.supply if s > 0))
    return result


def _bytes_read(tracer, original, args, kwargs):
    tracer.add("data.bytes_read", _file_size(args[0]))
    return original(*args, **kwargs)


def _bytes_written(tracer, original, args, kwargs):
    result = original(*args, **kwargs)
    tracer.add("data.bytes_written", _file_size(args[1]))
    return result


# (span name, module under recdiv, attribute path, optional call observer).
# The list names the layer boundaries the per-layer metrics are built from;
# small helpers called once per edge or pair (Edge, _cosine_distance,
# largest_remainder) are left unwrapped so tracing stays cheap.
TARGETS = [
    ("synth.movielens_shaped", "synth", "movielens_shaped", None),
    ("graph.RecGraph", "graph", "RecGraph", None),
    ("graph.ThresholdTable_uniform", "graph", "ThresholdTable.uniform", None),
    ("graph.eval_objective", "graph", "eval_objective", None),
    ("graph.ranked_lists", "graph", "Solution.ranked_lists", None),
    ("greedy.greedy_solve", "greedy", "greedy_solve", _greedy_counts),
    ("mincostflow.solve_min_cost_flow", "mincostflow", "solve_min_cost_flow", _flow_counts),
    ("mincostflow.validate_flow", "mincostflow", "validate_flow", None),
    ("flownet.build_tdiv_network", "flownet", "build_tdiv_network", _network_counts),
    ("flownet.decode_solution", "flownet", "decode_solution", None),
    ("data.load_candidates", "data", "load_candidates", _bytes_read),
    ("data.load_grouping", "data", "load_grouping", _bytes_read),
    ("data.load_ratings", "data", "load_ratings", _bytes_read),
    ("data.load_thresholds", "data", "load_thresholds", _bytes_read),
    ("data.load_solution_lists", "data", "load_solution_lists", _bytes_read),
    ("data.split_folds", "data", "split_folds", None),
    ("data.save_ratings", "data", "save_ratings", _bytes_written),
    ("data.save_thresholds", "data", "save_thresholds", _bytes_written),
    ("data.save_solution", "data", "save_solution", _bytes_written),
    ("data.derive_user_thresholds", "data", "derive_user_thresholds", None),
    ("data.derive_item_thresholds", "data", "derive_item_thresholds", None),
    ("metrics.tudiv", "metrics", "tudiv", None),
    ("metrics.tidiv", "metrics", "tidiv", None),
    ("metrics.ild", "metrics", "ild", None),
    ("metrics.err_ia", "metrics", "err_ia", None),
    ("metrics.IntentProfile_from_graph", "metrics", "IntentProfile.from_graph", None),
    ("metrics.gini", "metrics", "gini", None),
    ("metrics.aggregate_diversity", "metrics", "aggregate_diversity", None),
    ("metrics.precision", "metrics", "precision", None),
    ("baselines.top_k", "baselines", "top_k", None),
    ("baselines.mmr", "baselines", "mmr", None),
    ("baselines.xquad", "baselines", "xquad", None),
    ("cli.split", "cli", "cmd_split", None),
    ("cli.derive-thresholds", "cli", "cmd_derive_thresholds", None),
    ("cli.diversify", "cli", "cmd_diversify", None),
    ("cli.evaluate", "cli", "cmd_evaluate", None),
]


# Work counts the observers above record; a layer that sits idle reads 0.
COUNTS = (
    "greedy.pops", "greedy.decrease_keys", "greedy.selected",
    "flownet.nodes", "flownet.arcs", "mincostflow.arcs", "mincostflow.units_routed",
    "data.bytes_read", "data.bytes_written",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name, original, observer):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                if observer is None:
                    return original(*args, **kwargs)
                return observer(tracer, original, args, kwargs)

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; call ``restore`` to undo."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "recdiv" or key.startswith("recdiv."))]
        for name, module_name, path, observer in TARGETS:
            module = sys.modules[f"recdiv.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, observer)))
                else:
                    self._set(cls, attr, self._wrap(name, raw, observer))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, observer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summaries -----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name, the total and the self time in seconds.  A span's
        self time is its duration minus the durations of its child spans;
        calls on one thread nest, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[k]
        return dict(total), dict(own)

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
