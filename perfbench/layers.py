"""Per-layer metrics from the spans written by ``traced_child.py``.

A span's self time is its duration minus the durations of its direct child
spans and the attribute cost of those children.  Layer times are sums of
self times; counts come from span counts and span attributes.  Every metric
is a total over the ops given, except ``cli.import_s`` (the median per
process) and ``classify.tables_per_op``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# metric name -> unit, in the order they are reported
METRICS = {
    "magnus.mul_count": "count",
    "magnus.mul_s": "s",
    "magnus.mul_madds": "count",
    "magnus.mul_bytes": "B",
    "magnus.inverse_count": "count",
    "magnus.inverse_s": "s",
    "magnus.object_fallbacks": "count",
    "invariants.table_count": "count",
    "invariants.entries": "count",
    "invariants.mu_calls": "count",
    "invariants.self_s": "s",
    "diagram.load_s": "s",
    "diagram.load_crossings": "count",
    "diagram.cable_s": "s",
    "diagram.cable_crossings": "count",
    "diagram.build_s": "s",
    "wirtinger.longitude_calls": "count",
    "wirtinger.longitude_misses": "count",
    "wirtinger.self_s": "s",
    "classify.self_s": "s",
    "classify.tables_per_op": "count/op",
    "cli.import_s": "s",
    "cli.emit_s": "s",
}

LOAD = {"diagram.load_diagram", "diagram.parse_pd"}


def _add_op(m, spans):
    child = [0.0] * len(spans)
    for _, start, end, parent, _, cost in spans:
        if parent >= 0:
            child[parent] += end - start + cost
    under_classify = [False] * len(spans)
    has_mul = [False] * len(spans)
    for i, (name, start, end, parent, attrs, _) in enumerate(spans):
        own = end - start - child[i]
        module, _, fn = name.partition(".")
        if parent >= 0:
            under_classify[i] = under_classify[parent] or spans[parent][0].startswith("classify.")
        if name == "magnus.Series.mul":
            m["magnus.mul_count"] += 1
            m["magnus.mul_s"] += own
            m["magnus.mul_madds"] += attrs[0]
            m["magnus.mul_bytes"] += attrs[1]
            m["magnus.object_fallbacks"] += attrs[2]
            # mark the enclosing spans up to the first one already marked
            j = parent
            while j >= 0 and not has_mul[j]:
                has_mul[j] = True
                j = spans[j][3]
        elif name == "magnus.Series.inverse":
            m["magnus.inverse_count"] += 1
            m["magnus.inverse_s"] += own
        elif module == "invariants":
            m["invariants.self_s"] += own
            if fn == "table":
                m["invariants.table_count"] += 1
                m["invariants.entries"] += attrs[0]
                m["classify.tables_per_op"] += under_classify[i]
            elif fn in ("mu", "mu_bar"):
                m["invariants.mu_calls"] += 1
        elif name in LOAD:
            m["diagram.load_s"] += own
            if attrs is not None:
                m["diagram.load_crossings"] += attrs[0]
        elif name == "diagram.cable":
            m["diagram.cable_s"] += own
            m["diagram.cable_crossings"] += attrs[0]
        elif module == "diagram":
            m["diagram.build_s"] += own
        elif module == "wirtinger":
            m["wirtinger.self_s"] += own
        elif module == "classify":
            m["classify.self_s"] += own
        elif name == "cli._emit":
            m["cli.emit_s"] += own
    for i, span in enumerate(spans):
        if span[0] == "wirtinger.longitude_series":
            m["wirtinger.longitude_calls"] += 1
            m["wirtinger.longitude_misses"] += has_mul[i]


def layer_metrics(traces) -> dict:
    """Metrics over the traces of one pass, one trace per op.  ``traces`` may
    be a generator, so that only one op's spans are held at a time."""
    m = defaultdict(int)
    import_s = []
    for trace in traces:
        _add_op(m, trace["spans"])
        import_s.append(trace["import_s"])
    if import_s:
        m["classify.tables_per_op"] /= len(import_s)
        m["cli.import_s"] = statistics.median(import_s)
    return {name: m[name] for name in METRICS}
