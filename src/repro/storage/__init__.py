"""Relational-style storage and join engine for query graph evaluation.

GQBE stores the data graph with the *vertical partitioning* scheme
(Sec. V-A): one two-column ``(subj, obj)`` table per distinct edge label,
sorted by (subject, object), with a probe index on the object column,
and kept in memory.  Evaluating a query graph
is then a multi-way join over these tables; this package provides:

* :mod:`repro.storage.vocabulary` — the entity interning layer: entities
  are mapped to dense int ids once, offline, so the join engine hashes and
  compares machine ints instead of strings,
* :class:`~repro.storage.table.ColumnarEdgeTable` — the per-label table:
  parallel sorted numpy id columns and an object probe index,
* :class:`~repro.storage.store.VerticalPartitionStore` — the collection of
  all per-label tables for a data graph plus their shared vocabulary,
* :mod:`repro.storage.plan` — join-order planning for a query graph,
* :mod:`repro.storage.join` — the join evaluator (whole-array numpy
  operations over the sorted columns and indexes), including the one-edge
  *extension* step used by the lattice exploration to reuse a child query
  graph's materialized answers,
* :mod:`repro.storage.snapshot` — on-disk snapshots of the whole
  offline state (:class:`~repro.storage.snapshot.GraphStore`) for
  instant warm starts.
"""

from repro.storage.join import (
    ColumnarRelation,
    evaluate_query_edges,
    extend_with_edge,
)
from repro.storage.plan import JoinPlan, plan_join_order
from repro.storage.snapshot import GraphStore, read_snapshot_meta
from repro.storage.store import VerticalPartitionStore
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MappedVocabulary

__all__ = [
    "ColumnarEdgeTable",
    "MappedVocabulary",
    "VerticalPartitionStore",
    "GraphStore",
    "read_snapshot_meta",
    "JoinPlan",
    "plan_join_order",
    "ColumnarRelation",
    "evaluate_query_edges",
    "extend_with_edge",
]
