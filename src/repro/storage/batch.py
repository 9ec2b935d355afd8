"""Batch-scoped join memoization: evaluate shared lattice prefixes once.

One query's best-first exploration evaluates many lattice nodes *from
scratch* (the minimal query trees, Sec. V-B); a batch of queries over the
same graph multiplies that work.  Because join plans are deterministic and
sorted by table cardinality (:mod:`repro.storage.plan`), plans of
overlapping query graphs share long **prefixes** — both across the lattice
nodes of one MQG and across the MQGs of different queries whose
neighborhoods overlap (MQG nodes are data-graph entities, so shared graph
regions produce literally identical edges).

:class:`JoinMemoArena` is the per-batch cache that exploits this.
:meth:`GQBE.query_batch <repro.core.gqbe.GQBE.query_batch>` creates one
arena, threads it through every exploration of the batch, and discards it
when the batch completes.  The arena memoizes three exact (byte-identical)
units of work:

* **join plans** per edge set — :func:`~repro.storage.plan.plan_join_order`
  is a pure function of the edges and the store's cardinalities;
* **plan-prefix relations** — the intermediate relation after joining the
  first ``i`` edges of a plan is a pure function of that ordered prefix
  (identical rows in identical order), including its ``max_rows`` overflow
  behavior, which is memoized as an :data:`OVERFLOW` marker;
* **first-edge scans** per ``(label, self-loop, injective)`` — the initial
  full-table scan of a plan differs between query graphs only in its
  variable *names*, so the scanned id payload is cached once per label and
  re-wrapped under each caller's variable names.

Equivalence argument (pinned by ``tests/test_batch_equivalence.py``): every
memoized value is produced by the exact code path a sequential query would
run, keyed by everything that path depends on.  Replaying a memo hit is
therefore indistinguishable from recomputing — same rows, same row order,
same exceptions — so a batch returns answers byte-identical to N sequential
:meth:`~repro.core.gqbe.GQBE.query` calls, with identical exploration
statistics.

Memory stays bounded: the arena lives only as long as its batch, and
relations larger than ``cache_row_cap`` rows are never cached (the work is
redone instead, exactly as without an arena).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graph.knowledge_graph import Edge
from repro.storage.join import ColumnarRelation, extend_with_edge
from repro.storage.plan import JoinPlan, plan_join_order
from repro.storage.store import VerticalPartitionStore


class _Overflow:
    """Sentinel memo value: this prefix exceeded ``max_rows`` when joined."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "OVERFLOW"


#: Memoized marker for plan prefixes whose join raised ``max_rows`` overflow.
OVERFLOW = _Overflow()


class JoinMemoArena:
    """Cross-query memo of join plans, plan-prefix relations and base scans.

    Create one arena per batch of queries that share a store and a config
    (``max_rows`` is fixed at construction and callers must only use the
    arena for joins with the same cap — :func:`~repro.storage.join.
    evaluate_query_edges` enforces this).  All memoized relations are
    treated as immutable and may be shared between explorers.

    Parameters
    ----------
    max_rows:
        The ``max_join_rows`` cap the batch runs under (``None`` for no
        cap).  Part of every memo's implicit key.
    cache_row_cap:
        Relations with more rows than this are computed but not cached,
        bounding the arena's memory at roughly
        ``entries * cache_row_cap * width`` ids.  ``None`` caches
        everything.
    """

    __slots__ = (
        "max_rows",
        "cache_row_cap",
        "_plans",
        "_prefixes",
        "_first_edges",
        "_edge_ids",
        "_extended",
        "plan_hits",
        "plan_misses",
        "prefix_hits",
        "prefix_misses",
        "first_edge_hits",
        "first_edge_misses",
        "extended_hits",
        "extended_misses",
    )

    def __init__(
        self, max_rows: int | None = None, cache_row_cap: int | None = 1_000_000
    ) -> None:
        self.max_rows = max_rows
        self.cache_row_cap = cache_row_cap
        self._plans: dict[frozenset[Edge], JoinPlan] = {}
        #: ordered plan prefix -> ColumnarRelation | OVERFLOW
        self._prefixes: dict[tuple[Edge, ...], object] = {}
        #: (label, is_self_loop, injective) -> the scan's ``(width, rows)`` matrix
        self._first_edges: dict[tuple[str, bool, bool], object] = {}
        #: arena-interned edge id, assigned on first sight of each Edge;
        #: lets hot-path memo keys hash small ints instead of Edge tuples.
        self._edge_ids: dict[Edge, int] = {}
        #: edge-id set -> ColumnarRelation | OVERFLOW, from child-extension evaluations
        self._extended: dict[frozenset[int], object] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.first_edge_hits = 0
        self.first_edge_misses = 0
        self.extended_hits = 0
        self.extended_misses = 0

    # ------------------------------------------------------------------
    # join plans
    # ------------------------------------------------------------------
    def plan_for(
        self, edges: Sequence[Edge], store: VerticalPartitionStore
    ) -> JoinPlan:
        """The (memoized) deterministic join plan for ``edges``."""
        key = frozenset(edges)
        plan = self._plans.get(key)
        if plan is None:
            self.plan_misses += 1
            plan = plan_join_order(edges, store)
            self._plans[key] = plan
        else:
            self.plan_hits += 1
        return plan

    # ------------------------------------------------------------------
    # plan-prefix relations
    # ------------------------------------------------------------------
    def longest_prefix(
        self, order: tuple[Edge, ...]
    ) -> tuple[int, "ColumnarRelation | _Overflow | None"]:
        """Longest memoized prefix of ``order``: ``(length, value)``.

        ``(0, None)`` when nothing is cached.  The value is either the
        memoized relation of that prefix or :data:`OVERFLOW`.
        """
        prefixes = self._prefixes
        for length in range(len(order), 0, -1):
            value = prefixes.get(order[:length])
            if value is not None:
                self.prefix_hits += 1
                return length, value
        self.prefix_misses += 1
        return 0, None

    def remember_prefix(
        self,
        prefix: tuple[Edge, ...],
        value: "ColumnarRelation | _Overflow",
    ) -> None:
        """Memoize the relation (or overflow marker) of one plan prefix."""
        if value is not OVERFLOW:
            cap = self.cache_row_cap
            if cap is not None and value.num_rows > cap:
                return
        self._prefixes[prefix] = value

    # ------------------------------------------------------------------
    # child-extension relations (mask-level, across queries)
    # ------------------------------------------------------------------
    def intern_edges(self, edges: Sequence[Edge]) -> list[int]:
        """Arena-wide small-int ids for ``edges`` (one dict hit per edge).

        Explorers call this once per lattice space so that per-evaluation
        memo keys (:meth:`extended_get`) are built from int ids — hashing
        a handful of small ints per lookup instead of re-hashing Edge
        string tuples on the exploration's hot path.
        """
        ids = self._edge_ids
        out = []
        for edge in edges:
            known = ids.get(edge)
            if known is None:
                known = len(ids)
                ids[edge] = known
            out.append(known)
        return out

    def extended_get(
        self, edges: frozenset[int]
    ) -> "ColumnarRelation | _Overflow | None":
        """A memoized child-extension result for this exact edge set.

        A lattice node's match relation is a pure function of its edge set
        *as a row multiset*; any evaluation that extends a fully evaluated
        child produces that multiset (possibly in a different row order)
        and overflows ``max_rows`` iff the multiset is larger than the cap.
        Everything the exploration observes — row counts, emptiness, the
        recorded answer set — is row-order independent, so serving one
        child-extension's result to another is exact.  From-scratch
        evaluations are **not** served from this memo: they can overflow on
        an intermediate prefix even when the final multiset fits the cap,
        so replaying an extension result for them could diverge from the
        sequential skip behavior (they use the prefix memo instead).
        """
        value = self._extended.get(edges)
        if value is None:
            self.extended_misses += 1
            return None
        self.extended_hits += 1
        return value

    def extended_put(
        self,
        edges: frozenset[int],
        value: "ColumnarRelation | _Overflow",
    ) -> None:
        """Memoize one child-extension evaluation (or its overflow)."""
        if value is not OVERFLOW:
            cap = self.cache_row_cap
            if cap is not None and value.num_rows > cap:
                return
        self._extended[edges] = value

    # ------------------------------------------------------------------
    # first-edge scans
    # ------------------------------------------------------------------
    def first_edge_relation(
        self,
        store: VerticalPartitionStore,
        edge: Edge,
        injective: bool,
    ) -> ColumnarRelation:
        """The first-edge relation of a plan, cached per label.

        The full-table scan that opens every join plan depends on the edge
        only through its *label*, whether it is a self-loop and the
        injectivity flag; the variable names merely rename the columns.
        The scanned matrix is cached under that key and re-wrapped with
        the caller's variable names, preserving row order exactly.  No
        ``max_rows`` handling happens here: callers cap the returned
        relation's row count themselves (the first-edge output never
        exceeds the table size, so a post-hoc count check is equivalent to
        the engine's incremental one).  Scans larger than
        ``cache_row_cap`` are returned but not cached, like every other
        memo in the arena.
        """
        self_loop = edge.subject == edge.object
        key = (edge.label, self_loop, injective)
        columns = self._first_edges.get(key)
        if columns is None:
            self.first_edge_misses += 1
            relation = extend_with_edge(
                store,
                ColumnarRelation(variables=(), columns=[]),
                edge,
                injective=injective,
                max_rows=None,
            )
            cap = self.cache_row_cap
            if cap is None or relation.num_rows <= cap:
                self._first_edges[key] = relation.columns
            return relation
        self.first_edge_hits += 1
        variables = (
            (edge.subject,) if self_loop else (edge.subject, edge.object)
        )
        return ColumnarRelation(variables, columns=columns)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Hit/miss counters (diagnostics, the serve ``/stats`` endpoint)."""
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "first_edge_hits": self.first_edge_hits,
            "first_edge_misses": self.first_edge_misses,
            "extended_hits": self.extended_hits,
            "extended_misses": self.extended_misses,
            "cached_plans": len(self._plans),
            "cached_prefixes": len(self._prefixes),
            "cached_first_edges": len(self._first_edges),
            "cached_extensions": len(self._extended),
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"{type(self).__name__}(prefixes={len(self._prefixes)}, "
            f"plans={len(self._plans)}, hits={self.prefix_hits})"
        )
