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
node's retained matches cost half what int64 ids would; the label tables
stay int64, and the values a probe matches are narrowed once per
expansion slice.  Probes, filters and injectivity checks run as
whole-array operations (:func:`extend_with_edge`), with a scalar tail over
dict buckets for tiny probe relations (:func:`_extend_columnar_scalar`).

Two entry points:

* :func:`evaluate_query_edges` — evaluate a whole query graph from scratch
  using a right-deep chain of hash joins in a planned order.
* :func:`extend_with_edge` — the incremental step used by the lattice
  exploration (Sec. V-B): take the materialized answers of a child query
  graph ``Q' = Q − e`` as the probe relation and join one more edge ``e``.

The scalar tail, the bulk path and its sliced variant return the same
rows in the same order and raise ``max_rows`` overflow on the same
inputs; the brute-force Definition 3 join in ``tests/test_properties.py``
pins each of them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro._kernels import kernels
from repro.exceptions import LatticeError
from repro.graph.knowledge_graph import Edge
from repro.storage.plan import plan_join_order
from repro.storage.store import VerticalPartitionStore

#: Probe expansions larger than this many candidate rows are processed in
#: slices so a hub-heavy join cannot materialize an arbitrarily large
#: intermediate array before the ``max_rows`` cap gets a chance to fire.
_EXPANSION_CHUNK_ROWS = 1 << 20

#: Probe relations at or below this many rows take the scalar tail of the
#: engine: python loops over dict buckets.  Fixed numpy call overhead (~a
#: few µs per kernel) dominates whole-array wins below roughly this size,
#: and lattice explorations evaluate thousands of such tiny relations per
#: query.
_SCALAR_TAIL_ROWS = 64


class ColumnarRelation:
    """A set of variable bindings with a dual columnar/row layout.

    Logically an ordered multiset of rows, physically stored as one
    ``(width, rows)`` int32 matrix (``columns[i]`` binds ``variables[i]``),
    as a cached list of python-int tuple rows, or both.  The engine's bulk kernels read
    :attr:`columns`; its scalar tails (tiny relations, where fixed numpy
    call overhead dominates) read :meth:`to_rows`.  Each layout
    materializes lazily from the other on first use and is then cached,
    so a chain of scalar extensions joins without numpy and a chain of
    bulk extensions never builds tuples (the exploration's answer table
    reads the matrix of every node it keeps).  Callers must treat both
    layouts as immutable.
    """

    __slots__ = ("variables", "_columns", "_rows", "_index")

    def __init__(
        self,
        variables: tuple[str, ...],
        columns: "np.ndarray | Sequence[np.ndarray] | None" = None,
        index: dict[str, int] | None = None,
        rows: list[tuple[int, ...]] | None = None,
    ) -> None:
        if columns is None and rows is None:
            raise ValueError("a ColumnarRelation needs columns or rows")
        self.variables = variables
        if columns is not None and not isinstance(columns, np.ndarray):
            # A list of column arrays (tests, callers outside the engine).
            columns = np.array(columns, dtype=np.int32).reshape(
                len(variables), len(columns[0]) if columns else 0
            )
        self._columns = columns
        self._rows = rows
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
    def columns(self) -> "np.ndarray":
        """The ``(width, rows)`` matrix: row ``i`` is the column of
        ``variables[i]`` (materialized from cached rows if needed)."""
        if self._columns is None:
            self._columns = _columns_from_rows(self._rows, len(self.variables))
        return self._columns

    @property
    def num_rows(self) -> int:
        """Number of binding rows."""
        if self._rows is not None:
            return len(self._rows)
        return self._columns.shape[1]

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

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The rows as python-int tuples (cached; treat as read-only)."""
        return self.to_rows()

    def to_rows(self) -> list[tuple[int, ...]]:
        """The rows as a list of python-int tuples (row order preserved,
        materialized from the columns on first call, then cached)."""
        if self._rows is None:
            self._rows = list(zip(*self._columns.tolist()))
        return self._rows

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

    def prefers_columns(self) -> bool:
        """Whether bulk (vectorized) processing should be used.

        True for relations that are already column-backed and larger than
        the scalar-tail threshold; rows-backed or tiny relations are
        cheaper to process with the scalar code paths.
        """
        return self._columns is not None and self.num_rows > _SCALAR_TAIL_ROWS


def _empty_relation() -> ColumnarRelation:
    return ColumnarRelation(variables=(), columns=[])


def _raise_max_rows(max_rows: int) -> None:
    raise LatticeError(f"intermediate relation exceeded max_rows={max_rows}")


def _columns_from_rows(rows: list[tuple[int, ...]], width: int) -> "np.ndarray":
    """Materialized tuple rows as one ``(width, len(rows))`` int32 matrix."""
    flat = np.fromiter(chain.from_iterable(rows), np.int32, len(rows) * width)
    return flat.reshape(len(rows), width).T


def _extend_columnar_scalar(
    table,
    relation: ColumnarRelation,
    subject_var: str,
    object_var: str,
    has_subject: bool,
    has_object: bool,
    injective: bool,
    max_rows: int | None,
) -> ColumnarRelation:
    """The scalar tail of the engine, for tiny probe relations.

    Python loops over the table's lazy dict buckets, with the bulk path's
    match order and ``max_rows`` verdict.  Inputs and outputs use the
    relation's row layout; the column arrays materialize lazily when a
    bulk consumer asks for them.
    """
    in_rows = relation.to_rows()
    if has_subject and has_object:
        out_rows = kernels.filter_pairs(
            in_rows,
            relation.column(subject_var),
            relation.column(object_var),
            table._dedup_set(),
        )
        if max_rows is not None and len(out_rows) > max_rows:
            _raise_max_rows(max_rows)
        return ColumnarRelation(
            relation.variables, rows=out_rows, index=relation._index
        )

    if has_subject:
        buckets = table.subject_buckets()
        bound_col = relation.column(subject_var)
        new_variable = object_var
    else:
        buckets = table.object_buckets()
        bound_col = relation.column(object_var)
        new_variable = subject_var
    new_variables = relation.variables + (new_variable,)

    if max_rows is not None:
        # The floor of extend_with_edge's counts pre-pass, read off the
        # bucket lengths: a hub bucket is not expanded just to be discarded.
        counts = [
            len(matches) for row in in_rows if (matches := buckets.get(row[bound_col]))
        ]
        if sum(counts) > max_rows:
            spare = len(relation.variables) if injective else 0
            if sum(count - spare for count in counts if count > spare) > max_rows:
                _raise_max_rows(max_rows)
    out_rows = kernels.probe_tail(
        in_rows, buckets, bound_col, injective,
        -1 if max_rows is None else max_rows,
    )
    if out_rows is None:
        _raise_max_rows(max_rows)
    return ColumnarRelation(
        new_variables,
        rows=out_rows,
        index={**relation._index, new_variable: len(relation.variables)},
    )


def extend_with_edge(
    store: VerticalPartitionStore,
    relation: ColumnarRelation,
    edge: Edge,
    injective: bool = True,
    max_rows: int | None = None,
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

    Three branches: first edge, pure filter (both endpoints bound) and
    one-sided probe; a probe relation held as rows, or of at most
    ``_SCALAR_TAIL_ROWS`` rows, takes :func:`_extend_columnar_scalar`.
    The ``max_rows`` cap raises
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
            loops = subjects[subjects == objects].astype(np.int32)
            out = ColumnarRelation((subject_var,), loops[None, :])
        else:
            pairs = np.array([subjects, objects], dtype=np.int32)
            if injective:
                pairs = pairs[:, subjects != objects]
            out = ColumnarRelation((subject_var, object_var), pairs)
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

    if not relation.prefers_columns():
        return _extend_columnar_scalar(
            table, relation, subject_var, object_var,
            has_subject, has_object, injective, max_rows,
        )

    if has_subject and has_object:
        keep = table.contains_pairs(
            relation.columns[relation.column(subject_var)],
            relation.columns[relation.column(object_var)],
        )
        out = ColumnarRelation(
            relation.variables, relation.columns[:, keep], index=relation._index
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
        # The table's int64 values, narrowed to the relation's int32 once.
        new_values = new_values.astype(np.int32)
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
    return ColumnarRelation(new_variables, out)


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
    arena=None,
) -> ColumnarRelation:
    """Evaluate a weakly connected query graph given as a list of edges.

    Returns the relation whose columns are the query graph's nodes and whose
    rows are all matches (answer-graph node mappings).  The relation is
    empty if the query graph has no answers.

    ``arena`` — an optional :class:`~repro.storage.batch.JoinMemoArena` —
    memoizes the join plan and every plan-prefix relation so overlapping
    evaluations (across the lattice nodes of one query and across the
    queries of a batch) pay for each shared prefix once.  Results are
    byte-identical with or without an arena; an arena whose ``max_rows``
    does not match this call's (or a non-injective call) is ignored, since
    its memos would describe a different join.
    """
    if not edges:
        return _empty_relation()
    if arena is not None and (not injective or max_rows != arena.max_rows):
        arena = None
    if arena is None:
        plan = plan_join_order(edges, store)
        # Read-ahead: open (and madvise) every shard this plan will probe
        # before execution starts; a no-op on non-sharded stores.
        store.prefetch_labels({edge.label for edge in plan.order})
        relation = _empty_relation()
        for edge in plan:
            relation = extend_with_edge(
                store, relation, edge, injective=injective, max_rows=max_rows
            )
            if relation.is_empty():
                return _pad_empty_schema(relation, plan)
        return relation

    order = arena.plan_for(edges, store).order
    store.prefetch_labels({edge.label for edge in order})
    start, cached = arena.longest_prefix(order)
    if cached is not None:
        from repro.storage.batch import OVERFLOW

        if cached is OVERFLOW:
            _raise_max_rows(max_rows)
        relation = cached
    else:
        relation = arena.first_edge_relation(store, order[0], injective)
        if max_rows is not None and relation.num_rows > max_rows:
            _raise_max_rows(max_rows)
        arena.remember_prefix(order[:1], relation)
        start = 1
    if relation.is_empty():
        return _pad_empty_schema(relation, order)
    for at in range(start, len(order)):
        try:
            relation = extend_with_edge(
                store, relation, order[at], injective=injective, max_rows=max_rows
            )
        except LatticeError:
            from repro.storage.batch import OVERFLOW

            arena.remember_prefix(order[: at + 1], OVERFLOW)
            raise
        arena.remember_prefix(order[: at + 1], relation)
        if relation.is_empty():
            return _pad_empty_schema(relation, order)
    return relation
