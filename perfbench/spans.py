"""Spans around the program's public layer calls, and the per-layer metrics derived from them.

Tracing lives in the benchmark, not in the program: ``Tracer.install``
replaces each layer function named in ``SPANNED`` with a wrapper wherever a
structctrl module refers to it, and ``Tracer.remove`` puts the originals
back.  A span is [id, name, start, end, parent id, op id]; spans stay in
memory until ``write`` at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from math import comb

# Layer boundaries: module -> public functions that get a span.
SPANNED = {
    "patterns": ("parse_pattern", "parse_statespace"),
    "bigraph": ("build_graph", "term_rank"),
    "reduction": ("remove_redundant_edges", "connected_components"),
    "decision": ("analyze", "analyze_reduction"),
    "statespace": ("controllability_pencil", "analyze_statespace"),
    "oracle": ("instantiate", "minor_gcd", "zero_set_empty", "zero_set_gcd_degrees", "kalman_controllable"),
}
MODULES = ("patterns", "bigraph", "reduction", "decision", "statespace", "oracle", "cli")

# Per-layer metrics, each a mean per traced op unless noted.
PER_LAYER = (
    ("patterns.parse_s", "s/op"),
    ("patterns.entries", "count/op"),
    ("bigraph.build_s", "s/op"),
    ("bigraph.edges", "count/op"),
    ("bigraph.match_s", "s/op"),
    ("reduction.reduce_s", "s/op"),
    ("reduction.classify_s", "s/op"),
    ("reduction.edges_classified", "count/op"),
    ("reduction.redundant_edges", "count/op"),
    ("reduction.redundant_ratio", "ratio"),
    ("reduction.components_s", "s/op"),
    ("reduction.components", "count/op"),
    ("decision.report_s", "s/op"),
    ("statespace.pencil_s", "s/op"),
    ("statespace.connectivity_s", "s/op"),
    ("statespace.states", "count/op"),
    ("oracle.instantiate_s", "s/op"),
    ("oracle.minor_gcd_s", "s/op"),
    ("oracle.seeds_tried", "count/op"),
    ("oracle.minors_bound", "count/op"),
    ("oracle.kalman_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.output_bytes", "B/op"),
    ("trace.overhead_frac", "ratio"),
)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_reduction(tracer, sid, args, kwargs, result):
    g = _first(args, kwargs, "g")
    tracer.counts["reduction.edges_classified"] += len(g.edges) - result.base_rank
    tracer.counts["reduction.redundant_edges"] += len(result.redundant)
    tracer.pending_match.append((sid, g))


def _count_minors(tracer, sid, args, kwargs, result):
    matrix = _first(args, kwargs, "matrix")
    size = args[1] if len(args) > 1 else kwargs["size"]
    tracer.counts["oracle.minors_bound"] += comb(matrix.rows, size) * comb(matrix.cols, size)


def _counter(metric, measure):
    def count(tracer, sid, args, kwargs, result):
        tracer.counts[metric] += measure(args, kwargs, result)

    return count


COUNTERS = {
    "patterns.parse_pattern": _counter("patterns.entries", lambda a, k, r: len(r.entries)),
    "patterns.parse_statespace": _counter("patterns.entries", lambda a, k, r: len(r.a_entries) + len(r.b_entries)),
    "bigraph.build_graph": _counter("bigraph.edges", lambda a, k, r: len(r.edges)),
    "reduction.remove_redundant_edges": _count_reduction,
    "reduction.connected_components": _counter("reduction.components", lambda a, k, r: len(r)),
    "statespace.analyze_statespace": _counter("statespace.states", lambda a, k, r: _first(a, k, "ss").n),
    "oracle.instantiate": _counter("oracle.seeds_tried", lambda a, k, r: 1),
    "oracle.minor_gcd": _count_minors,
}


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # (span id of a reduction, its graph): matched after the op, outside its timing
        self.pending_match: list[tuple[int, object]] = []
        self._term_rank = None

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer, span[0], args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every SPANNED function in every structctrl module that refers to it, and cli.main."""
        mods = {m: importlib.import_module(f"structctrl.{m}") for m in MODULES}
        wrapped = {}
        for owner, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[owner], fname)
                wrapped[id(fn)] = (fn, self._wrap(f"{owner}.{fname}", fn))
        self._term_rank = mods["bigraph"].term_rank
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        self._patches.append((mods["cli"], "main", mods["cli"].main))
        mods["cli"].main = self._wrap("cli.main", mods["cli"].main)

    def remove(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def end_op(self, output_bytes: int):
        """Close the current op: time term_rank on each graph the op reduced, as bigraph.term_rank
        spans whose parent is that reduction (so classify = reduce - match on the same graph)."""
        for sid, g in self.pending_match:
            span = [len(self.spans), "bigraph.term_rank", time.perf_counter(), 0.0, sid, self.op]
            self._term_rank(g)
            span[3] = time.perf_counter()
            self.spans.append(span)
        self.pending_match.clear()
        self.counts["cli.output_bytes"] += output_bytes
        self.op = None

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def layer_metrics(tracer: Tracer, ops: int, overhead_frac: float) -> dict[str, dict]:
    """Per-op means of layer times and counts.

    A span's self time is its duration minus the durations of its children
    that lie inside it; the deferred term_rank spans lie outside their
    reduction and are subtracted from it by name instead.
    """
    spans = tracer.spans
    nested = [0.0] * len(spans)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None and spans[parent][2] <= start and end <= spans[parent][3]:
            nested[parent] += end - start
    total: defaultdict[str, float] = defaultdict(float)
    self_total: defaultdict[str, float] = defaultdict(float)
    deferred_match = 0.0
    for sid, name, start, end, parent, _ in spans:
        total[name] += end - start
        self_total[name] += end - start - nested[sid]
        if name == "bigraph.term_rank" and parent is not None and start >= spans[parent][3]:
            deferred_match += end - start

    counts = tracer.counts
    classified = counts["reduction.edges_classified"]
    values = {
        "patterns.parse_s": total["patterns.parse_pattern"] + total["patterns.parse_statespace"],
        "patterns.entries": counts["patterns.entries"],
        "bigraph.build_s": total["bigraph.build_graph"],
        "bigraph.edges": counts["bigraph.edges"],
        "bigraph.match_s": total["bigraph.term_rank"],
        "reduction.reduce_s": total["reduction.remove_redundant_edges"],
        "reduction.classify_s": total["reduction.remove_redundant_edges"] - deferred_match,
        "reduction.edges_classified": classified,
        "reduction.redundant_edges": counts["reduction.redundant_edges"],
        "reduction.components_s": total["reduction.connected_components"],
        "reduction.components": counts["reduction.components"],
        "decision.report_s": self_total["decision.analyze_reduction"],
        "statespace.pencil_s": total["statespace.controllability_pencil"],
        "statespace.connectivity_s": self_total["statespace.analyze_statespace"],
        "statespace.states": counts["statespace.states"],
        "oracle.instantiate_s": total["oracle.instantiate"],
        "oracle.minor_gcd_s": total["oracle.minor_gcd"],
        "oracle.seeds_tried": counts["oracle.seeds_tried"],
        "oracle.minors_bound": counts["oracle.minors_bound"],
        "oracle.kalman_s": total["oracle.kalman_controllable"],
        "cli.self_s": self_total["cli.main"],
        "cli.output_bytes": counts["cli.output_bytes"],
    }
    values = {k: v / ops for k, v in values.items()}
    values["reduction.redundant_ratio"] = counts["reduction.redundant_edges"] / classified if classified else 0.0
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
