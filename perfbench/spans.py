"""Spans recorded from outside the program, around the calls into each layer.

The traced engine pass replays a query stage by stage through the public
functions the ``GQBE`` facade itself calls, with a span around each.
``repro.lattice.exploration`` reaches the join layer through two
module-level names (``extend_with_edge`` / ``evaluate_query_edges``);
those are wrapped for the duration of the pass so join time shows up as
a child of the exploration span.  Spans stay in memory until the pass
ends.  Spans *inside* the program are a later change (ROADMAP item 1).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# A span is a list so its end can be filled in when it closes:
# [name, start, end, parent index or -1, query id, attrs or None]
NAME, START, END, PARENT, QUERY, ATTRS = range(6)


class Recorder:
    """An in-memory span list with a current-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query_id: str | None = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query_id, None])
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """``with recorder.span(name) as attrs:`` — fill ``attrs`` to attach counts."""
        attrs: dict = {}
        index = self.open(name)
        try:
            yield attrs
        finally:
            self.close(index, attrs or None)


@contextmanager
def wrapped_joins(recorder: Recorder):
    """Record a ``storage.join`` span around every join the explorer issues."""
    from repro.exceptions import LatticeError
    from repro.lattice import exploration

    def wrap(function):
        def traced(*args, **kwargs):
            index = recorder.open("storage.join")
            try:
                relation = function(*args, **kwargs)
            except LatticeError:
                recorder.close(index, {"overflow": 1})
                raise
            recorder.close(index, {"rows_out": relation.num_rows})
            return relation

        return traced

    originals = (exploration.extend_with_edge, exploration.evaluate_query_edges)
    exploration.extend_with_edge = wrap(originals[0])
    exploration.evaluate_query_edges = wrap(originals[1])
    try:
        yield
    finally:
        exploration.extend_with_edge, exploration.evaluate_query_edges = originals


def staged_query(system, config, tuples, k: int, recorder: Recorder):
    """One query through the facade's own stages, a span around each.

    Mirrors ``GQBE.query`` / ``GQBE.query_multi``: per example tuple
    neighborhood -> reduction -> MQG discovery, a merge when there are
    several tuples, then lattice construction and best-first exploration.
    Returns the ``ExplorationResult``.
    """
    from repro.discovery.merge import merge_maximal_query_graphs
    from repro.discovery.mqg import discover_maximal_query_graph
    from repro.discovery.reduction import reduce_neighborhood_graph
    from repro.graph.neighborhood import neighborhood_graph
    from repro.lattice.exploration import BestFirstExplorer
    from repro.lattice.query_graph import LatticeSpace

    graph, statistics, store = system.graph, system.statistics, system.store
    with recorder.span("query") as query_attrs:
        mqgs = []
        for query_tuple in tuples:
            with recorder.span("graph.neighborhood") as attrs:
                neighborhood = neighborhood_graph(graph, query_tuple, d=config.d)
                attrs["edges_out"] = neighborhood.num_edges
            with recorder.span("discovery.reduction") as attrs:
                reduced = reduce_neighborhood_graph(neighborhood)
                attrs["edges_in"] = neighborhood.num_edges
                attrs["edges_out"] = reduced.num_edges
            with recorder.span("discovery.mqg") as attrs:
                mqgs.append(
                    discover_maximal_query_graph(
                        reduced, statistics, r=config.mqg_size, reduce_first=False
                    )
                )
                attrs["edges_in"] = reduced.num_edges
        if len(mqgs) > 1:
            with recorder.span("discovery.merge"):
                mqg = merge_maximal_query_graphs(mqgs, r=config.mqg_size)
        else:
            mqg = mqgs[0]
        with recorder.span("lattice.query_graph"):
            space = LatticeSpace(mqg)
        with recorder.span("lattice.exploration") as attrs:
            result = BestFirstExplorer(
                space,
                store,
                k=k,
                k_prime=config.k_prime,
                excluded_tuples={tuple(t) for t in tuples},
                max_rows=config.max_join_rows,
                node_budget=config.node_budget,
            ).run()
            counters = result.statistics
            attrs.update(
                nodes_evaluated=counters.nodes_evaluated,
                null_nodes=counters.null_nodes,
                nodes_skipped=counters.nodes_skipped,
                budget_exhausted=int(counters.node_budget_exhausted),
            )
        query_attrs["answers"] = len(result.answers)
    return result


def fastest_per_query(passes: list[list[list]]) -> list[list]:
    """Merge the span lists of identical passes, keeping each query's fastest run.

    Every pass holds one ``query`` root per query, in the same order,
    each followed by its subtree.  As in the untraced passes, a query
    counts at its faster execution, so a burst of machine noise during
    one pass does not pass for tracing overhead.
    """

    def trees(spans: list[list]) -> list[tuple[int, list[list]]]:
        roots = [i for i, span in enumerate(spans) if span[PARENT] < 0]
        return [(a, spans[a:b]) for a, b in zip(roots, roots[1:] + [len(spans)])]

    merged: list[list] = []
    for candidates in zip(*map(trees, passes)):
        root, tree = min(candidates, key=lambda c: c[1][0][END] - c[1][0][START])
        moved = len(merged) - root
        for span in tree:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += moved
            merged.append(span)
    return merged


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Fold a span list into the per-layer numbers the benchmark reports."""
    busy: dict[str, float] = {}
    own_by_name: dict[str, float] = {}
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        busy[name] = busy.get(name, 0.0) + span[END] - span[START]
        own_by_name[name] = own_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[ATTRS] or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    evaluated = totals.get("lattice.exploration.nodes_evaluated", 0)
    return {
        "graph.neighborhood.busy_s": busy.get("graph.neighborhood", 0.0),
        "graph.neighborhood.edges_out": totals.get("graph.neighborhood.edges_out", 0),
        "discovery.reduction.busy_s": busy.get("discovery.reduction", 0.0),
        "discovery.reduction.kept_ratio": ratio(
            totals.get("discovery.reduction.edges_out", 0),
            totals.get("discovery.reduction.edges_in", 0),
        ),
        "discovery.mqg.busy_s": busy.get("discovery.mqg", 0.0),
        "discovery.mqg.edges_in": totals.get("discovery.mqg.edges_in", 0),
        "discovery.merge.busy_s": busy.get("discovery.merge", 0.0),
        "lattice.query_graph.busy_s": busy.get("lattice.query_graph", 0.0),
        "lattice.exploration.busy_s": busy.get("lattice.exploration", 0.0),
        "lattice.exploration.self_s": own_by_name.get("lattice.exploration", 0.0),
        "lattice.exploration.nodes_evaluated": evaluated,
        "lattice.exploration.null_nodes": totals.get(
            "lattice.exploration.null_nodes", 0
        ),
        "lattice.exploration.nodes_skipped": totals.get(
            "lattice.exploration.nodes_skipped", 0
        ),
        "lattice.exploration.budget_exhausted": totals.get(
            "lattice.exploration.budget_exhausted", 0
        ),
        "lattice.exploration.useful_ratio": ratio(
            evaluated - totals.get("lattice.exploration.null_nodes", 0), evaluated
        ),
        "storage.join.busy_s": busy.get("storage.join", 0.0),
        "storage.join.calls": calls.get("storage.join", 0),
        "storage.join.rows_out": totals.get("storage.join.rows_out", 0),
        "storage.join.overflows": totals.get("storage.join.overflow", 0),
    }


def spans_as_json(spans: list[list]) -> list[dict]:
    """The trace-file form of a span list (times in seconds from the first span)."""
    origin = spans[0][START] if spans else 0.0
    return [
        {
            "index": index,
            "name": span[NAME],
            "start_s": span[START] - origin,
            "end_s": span[END] - origin,
            "parent": span[PARENT],
            "query": span[QUERY],
            **({"attrs": span[ATTRS]} if span[ATTRS] else {}),
        }
        for index, span in enumerate(spans)
    ]
