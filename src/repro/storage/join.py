"""Hash-join evaluation of query graphs over the vertical-partition store.

A query graph's nodes act as join variables; its edges are lookups into the
per-label tables.  The evaluator materializes *relations*: sets of variable
bindings (one row per candidate answer graph).  Definition 3 of the paper
requires the node mapping to be a bijection, so rows never bind two distinct
query nodes to the same data entity when ``injective=True`` (the default).

Column names (the ``variables``) are query-graph node strings; the row
*values* are the dense int ids of the store's
:class:`~repro.storage.vocabulary.MappedVocabulary`.  Callers that need entity
strings decode rows through ``store.vocabulary`` when materializing
answers.

A :class:`ColumnarRelation` holds one ``(width, rows)`` int32 matrix, a
row per variable.  Entity ids are dense vocabulary indexes capped at
``2**31 - 1`` (:data:`~repro.storage.vocabulary.MAX_ENTITY_ID`), so a
node's retained matches cost half what int64 ids would.  The label
tables hold int32 ids too, so the values a probe matches go into the
relation as they are.  Every join, of a one-row relation too, runs as
whole-array operations over the label table's probe index of the bound
side (:func:`extend_with_edge`); no per-row Python index of a table is
built.

A join that is handed the query nodes' own ids carries each row's
self-match signature along (:class:`ColumnarRelation`), and keeps row
order: an expansion emits each probe row's matches in probe-row order,
and a filter keeps the rows it keeps in order.  So a relation sorted by
its query-entity columns stays sorted through every extension, which is
how the lattice's answer fold reads it without a compare or a sort.

Two entry points:

* :func:`evaluate_query_edges` — evaluate a whole query graph from scratch
  using a right-deep chain of hash joins in a planned order.
* :func:`extend_with_edge` — the incremental step used by the lattice
  exploration (Sec. V-B): take the materialized answers of a child query
  graph ``Q' = Q − e`` as the probe relation and join one more edge ``e``.

The whole and the sliced expansion return the same rows in the same
order and raise ``max_rows`` overflow on the same inputs; the brute-force
Definition 3 join in ``tests/test_properties.py`` pins both.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

import numpy as np

from repro.exceptions import LatticeError
from repro.graph.knowledge_graph import Edge
from repro.storage.plan import plan_join_order
from repro.storage.store import VerticalPartitionStore

#: Probe expansions larger than this many candidate rows are processed in
#: slices so a hub-heavy join cannot materialize an arbitrarily large
#: intermediate array before the ``max_rows`` cap gets a chance to fire.
_EXPANSION_CHUNK_ROWS = 1 << 20


class ColumnarRelation:
    """A set of variable bindings as one int32 matrix.

    Logically an ordered multiset of rows, physically one ``(width,
    rows)`` int32 matrix: ``columns[i]`` binds ``variables[i]``.  The
    engine reads only the matrix; :meth:`to_rows` decodes python-int
    tuples on each call, for tests and diagnostics.  Callers must treat
    the matrix as immutable.

    A relation the join built with the query nodes' own ids
    (``node_ids``) also carries each row's *self-match signature*: bit
    ``i`` is set where ``columns[i]`` holds ``variables[i]``'s own id.
    It is int32 up to width 31 and int64 past that
    (:func:`_signature_dtype`), and ``None`` on a relation built any other
    way.
    """

    __slots__ = ("variables", "columns", "_index", "signature")

    def __init__(
        self,
        variables: tuple[str, ...],
        columns: "np.ndarray | Sequence[np.ndarray]",
        index: dict[str, int] | None = None,
        signature: "np.ndarray | None" = None,
    ) -> None:
        self.variables = variables
        self.signature = signature
        if not isinstance(columns, np.ndarray):
            # A list of column arrays (tests, callers outside the engine).
            columns = np.array(columns, dtype=np.int32).reshape(
                len(variables), len(columns[0]) if columns else 0
            )
        #: The ``(width, rows)`` matrix: row ``i`` is the column of
        #: ``variables[i]``.
        self.columns = columns
        self._index = (
            index
            if index is not None
            else {var: i for i, var in enumerate(variables)}
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(variables={self.variables!r}, "
            f"rows={self.num_rows})"
        )

    @property
    def num_rows(self) -> int:
        """Number of binding rows."""
        return self.columns.shape[1]

    def is_empty(self) -> bool:
        """Whether the relation has no rows."""
        return self.num_rows == 0

    def has_variable(self, variable: str) -> bool:
        """Whether ``variable`` is one of the columns."""
        return variable in self._index

    def column(self, variable: str) -> int:
        """Column index of ``variable``; raises ``KeyError`` if absent."""
        return self._index[variable]

    def column_values(self, variable: str) -> "np.ndarray":
        """The binding column of ``variable`` (the array itself)."""
        return self.columns[self._index[variable]]

    def to_rows(self) -> list[tuple[int, ...]]:
        """The rows as a new list of python-int tuples, row order preserved."""
        return list(zip(*self.columns.tolist()))

    def bindings(self) -> Iterable[dict[str, int]]:
        """Yield each row as a ``{variable: entity id}`` mapping."""
        for row in self.to_rows():
            yield dict(zip(self.variables, row))

    def project(self, variables: Sequence[str]) -> list[tuple[int, ...]]:
        """Project rows onto ``variables`` (order preserved, duplicates kept)."""
        indexes = [self._index[var] for var in variables]
        return [tuple(row[i] for i in indexes) for row in self.to_rows()]

    def distinct_projection(self, variables: Sequence[str]) -> set[tuple[int, ...]]:
        """Distinct projection of rows onto ``variables``."""
        return set(self.project(variables))


def _empty_relation() -> ColumnarRelation:
    return ColumnarRelation(variables=(), columns=[])


def _raise_max_rows(max_rows: int) -> None:
    raise LatticeError(f"intermediate relation exceeded max_rows={max_rows}")


def _signature_dtype(width: int) -> type:
    """The dtype of a width-``width`` relation's self-match signature."""
    return np.int32 if width <= 31 else np.int64


def _self_bit(values: "np.ndarray", own: int, column: int, width: int) -> "np.ndarray":
    """Bit ``column`` of a width-``width`` signature, set where ``values``
    holds ``own``."""
    return (values == own).astype(_signature_dtype(width)) << column


def _columns_from_rows(rows: list[tuple[int, ...]], width: int) -> "np.ndarray":
    """Materialized tuple rows as one ``(width, len(rows))`` int32 matrix."""
    flat = np.fromiter(chain.from_iterable(rows), np.int32, len(rows) * width)
    return flat.reshape(len(rows), width).T


def extend_with_edge(
    store: VerticalPartitionStore,
    relation: ColumnarRelation,
    edge: Edge,
    injective: bool = True,
    max_rows: int | None = None,
    node_ids: Mapping[str, int] | None = None,
) -> ColumnarRelation:
    """Join one more query-graph ``edge`` onto an existing ``relation``.

    The edge's subject/object are query-graph node names.  Whichever of the
    two is already a column of ``relation`` is used to probe the hash index
    of the edge's label table; unbound endpoints become new columns.

    Parameters
    ----------
    store:
        The vertical-partition store of the data graph.
    relation:
        Materialized bindings of the query graph evaluated so far.  Must be
        non-degenerate: at least one endpoint of ``edge`` must already be a
        column, unless ``relation`` has no columns at all (first edge).
    injective:
        Enforce the Definition-3 bijection (no two query nodes bound to the
        same entity).
    max_rows:
        Optional cap on the size of the output; exceeding it raises
        :class:`~repro.exceptions.LatticeError` so callers can fall back or
        abort gracefully rather than exhaust memory.  The cap is enforced
        on every appended row, including the self-loop
        (``subject_var == object_var``) path of the first edge.
    node_ids:
        Each query node's own entity id (-1 for none).  With it, the
        output carries its rows' self-match signature: the first edge
        compares its columns, a filter keeps the signature of the rows it
        keeps, and a probe gathers its probe rows' and sets one bit for
        the new column.  A probe relation without a signature gives an
        output without one.

    Three branches: first edge, pure filter (both endpoints bound) and
    one-sided probe.  The ``max_rows`` cap raises
    exactly when the surviving row count exceeds it, but most overflows
    are decided from the per-probe-row match counts alone, before
    anything is expanded: a table holds distinct ``(subj, obj)``
    pairs, so the ``c`` values matching one probe row are distinct and
    the injective filter — which drops a value already present among the
    row's ``w`` bindings — removes at most ``min(c, w)`` of them (none
    without it).  When that floor, summed over the probe rows, exceeds
    the cap, so does the result.  A capped expansion that passes it with
    more than ``min(max_rows + 1, _EXPANSION_CHUNK_ROWS)`` candidates is
    processed in probe-row slices of about that many, and raises once the
    survivors so far plus the floor of the probe rows left exceed the
    cap, before the rest is expanded.
    """
    table = store.table_or_empty(edge.label)
    subject_var, object_var = edge.subject, edge.object

    if not relation.variables:
        subjects, objects = table.subject_ids(), table.object_ids()
        if subject_var == object_var:
            loops = subjects[subjects == objects].astype(np.int32, copy=False)
            signature = None
            if node_ids is not None:
                signature = _self_bit(loops, node_ids[subject_var], 0, 1)
            out = ColumnarRelation((subject_var,), loops[None, :], signature=signature)
        else:
            pairs = np.array([subjects, objects], dtype=np.int32)
            if injective:
                pairs = pairs[:, subjects != objects]
            signature = None
            if node_ids is not None:
                signature = _self_bit(pairs[0], node_ids[subject_var], 0, 2)
                signature |= _self_bit(pairs[1], node_ids[object_var], 1, 2)
            out = ColumnarRelation((subject_var, object_var), pairs, signature=signature)
        if max_rows is not None and out.num_rows > max_rows:
            _raise_max_rows(max_rows)
        return out

    has_subject = relation.has_variable(subject_var)
    has_object = relation.has_variable(object_var)
    if not has_subject and not has_object:
        raise LatticeError(
            f"edge {edge!r} shares no variable with the probe relation "
            f"{relation.variables!r}; join plans must stay connected"
        )

    if has_subject and has_object:
        keep = table.contains_pairs(
            relation.columns[relation.column(subject_var)],
            relation.columns[relation.column(object_var)],
        )
        signature = relation.signature
        out = ColumnarRelation(
            relation.variables,
            relation.columns[:, keep],
            index=relation._index,
            signature=None if signature is None else signature[keep],
        )
        if max_rows is not None and out.num_rows > max_rows:
            _raise_max_rows(max_rows)
        return out

    # One-sided probe: expand each probe row by its matches in the table.
    if has_subject:
        bound = relation.columns[relation.column(subject_var)]
        probe, expand = table.probe_subject, table.expand_subject
        new_variable = object_var
    else:
        bound = relation.columns[relation.column(object_var)]
        probe, expand = table.probe_object, table.expand_object
        new_variable = subject_var
    new_variables = relation.variables + (new_variable,)

    counts, starts = probe(bound)
    total_candidates = int(counts.sum())
    # Past the cap, the candidates go in slices of one more than it: most
    # survive the injective filter, so such a join overflows inside its
    # first slice instead of after expanding every candidate.
    chunk = _EXPANSION_CHUNK_ROWS
    if max_rows is not None:
        chunk = min(chunk, max_rows + 1)
    if max_rows is not None and total_candidates >= chunk:
        # At least ``c - min(c, w)`` of a probe row's ``c`` distinct
        # matches survive the injective filter (docstring).
        spare = len(relation.columns) if injective else 0
        floors = np.maximum(counts - spare, 0).cumsum()
        if int(floors[-1]) > max_rows:
            _raise_max_rows(max_rows)

    def probe_slice(lo: int, hi: int) -> tuple["np.ndarray", "np.ndarray"]:
        probe_idx, new_values = expand(counts[lo:hi], starts[lo:hi])
        if injective and len(new_values):
            violates = np.zeros(len(new_values), dtype=bool)
            for column in relation.columns:
                violates |= column[lo:hi][probe_idx] == new_values
            keep = ~violates
            probe_idx, new_values = probe_idx[keep], new_values[keep]
        return probe_idx + lo, new_values

    if max_rows is None or total_candidates <= chunk:
        probe_idx, new_values = probe_slice(0, relation.num_rows)
        if max_rows is not None and len(new_values) > max_rows:
            _raise_max_rows(max_rows)
    else:
        # Split the probe rows so each slice expands to at most roughly
        # one chunk of candidate rows, raising as soon as the surviving
        # rows, plus the floor of the rows still to expand, pass the cap.
        boundaries = np.searchsorted(
            np.cumsum(counts),
            np.arange(chunk, total_candidates, chunk),
            side="left",
        )
        cut_points = [0, *(int(b) + 1 for b in boundaries), relation.num_rows]
        pieces: list[tuple[np.ndarray, np.ndarray]] = []
        kept = 0
        for lo, hi in zip(cut_points, cut_points[1:]):
            if lo >= hi:
                continue
            piece = probe_slice(lo, hi)
            kept += len(piece[0])
            if kept + int(floors[-1] - floors[hi - 1]) > max_rows:
                _raise_max_rows(max_rows)
            pieces.append(piece)
        probe_idx = np.concatenate([piece[0] for piece in pieces])
        new_values = np.concatenate([piece[1] for piece in pieces])

    out = np.empty((len(new_variables), len(probe_idx)), dtype=np.int32)
    # mode="clip" only skips numpy's bounce buffer; the indices are valid.
    np.take(relation.columns, probe_idx, axis=1, out=out[:-1], mode="clip")
    out[-1] = new_values
    signature = relation.signature
    if signature is not None and node_ids is not None:
        width = len(new_variables)
        signature = signature.take(probe_idx).astype(_signature_dtype(width), copy=False)
        signature |= _self_bit(new_values, node_ids[new_variable], width - 1, width)
    else:
        signature = None
    return ColumnarRelation(new_variables, out, signature=signature)


def _pad_empty_schema(
    relation: ColumnarRelation, plan_edges: Iterable[Edge]
) -> ColumnarRelation:
    """An empty relation carrying every node of the plan as a column.

    Joins short-circuit as soon as an intermediate relation runs dry; the
    full schema is preserved so projections still work downstream.
    """
    missing = [
        node
        for e in plan_edges
        for node in (e.subject, e.object)
        if node not in relation.variables
    ]
    variables = relation.variables + tuple(dict.fromkeys(missing))
    return ColumnarRelation(variables, np.empty((len(variables), 0), dtype=np.int32))


def evaluate_query_edges(
    store: VerticalPartitionStore,
    edges: Sequence[Edge],
    injective: bool = True,
    max_rows: int | None = None,
    node_ids: Mapping[str, int] | None = None,
) -> ColumnarRelation:
    """Evaluate a weakly connected query graph given as a list of edges.

    Returns the relation whose columns are the query graph's nodes and whose
    rows are all matches (answer-graph node mappings).  The relation is
    empty if the query graph has no answers.  With ``node_ids`` a
    non-empty result carries its self-match signature
    (:func:`extend_with_edge`).
    """
    if not edges:
        return _empty_relation()
    plan = plan_join_order(edges, store)
    # Read-ahead: open (and madvise) every shard this plan will probe
    # before execution starts; a no-op on non-sharded stores.
    store.prefetch_labels({edge.label for edge in plan.order})
    relation = _empty_relation()
    for edge in plan:
        relation = extend_with_edge(
            store, relation, edge, injective=injective, max_rows=max_rows, node_ids=node_ids
        )
        if relation.is_empty():
            return _pad_empty_schema(relation, plan)
    return relation
