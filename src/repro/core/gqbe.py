"""The GQBE system facade: query a knowledge graph by example entity tuples.

:class:`GQBE` wires the pipeline of the paper together:

1. offline precomputation — graph statistics (Sec. III-B) and the
   vertical-partition store (Sec. V-A) are built once per data graph, or
   loaded in one step from an index snapshot
   (:class:`~repro.storage.snapshot.GraphStore`, see
   :meth:`GQBE.from_snapshot`);
2. per query — neighborhood extraction (Def. 1), unimportant-edge
   reduction (Sec. III-C), MQG discovery (Alg. 1), optional multi-tuple
   merging (Sec. III-D), lattice construction (Sec. IV) and best-first
   exploration (Alg. 2/3), followed by the two-stage ranking (Sec. V-B).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from os import PathLike

from repro.core.answer import AnswerTuple, QueryResult, fan_out
from repro.core.config import GQBEConfig
from repro.discovery.merge import merge_maximal_query_graphs
from repro.discovery.mqg import MaximalQueryGraph, discover_maximal_query_graph
from repro.exceptions import QueryError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.neighborhood import neighborhood_graph
from repro.graph.statistics import GraphStatistics
from repro.lattice.exploration import BestFirstExplorer, ExplorationResult
from repro.lattice.query_graph import LatticeSpace
from repro.storage.snapshot import GraphStore
from repro.storage.store import VerticalPartitionStore


class GQBE:
    """Query-by-example over a knowledge graph (the system of the paper)."""

    def __init__(
        self,
        graph: KnowledgeGraph | None = None,
        config: GQBEConfig | None = None,
        graph_store: GraphStore | None = None,
    ) -> None:
        if (graph is None) == (graph_store is None):
            raise QueryError("pass exactly one of graph or graph_store")
        self.config = config or GQBEConfig()
        if graph_store is not None:
            # Warm start: adopt the precomputed offline state (a lazily
            # loaded bundle stays unmaterialized until the first query
            # touches it).
            self._graph_store = graph_store
        else:
            # Cold start: run the offline build now, in memory, into the
            # arrays a snapshot holds.  Entities are interned to dense int
            # ids, decoded back to strings only when answers are
            # materialized.
            self._graph_store = GraphStore.build(graph)
        #: Recently built lattice spaces, keyed by the identity of their
        #: MQG.  A LatticeSpace is a pure function of its MQG and carries
        #: warm memos (structure scores, minimal trees), so repeated
        #: explorations of the same MQG skip the rebuild.  Values hold a
        #: strong reference to the MQG, which keeps the ``id()`` key valid.
        self._space_cache: dict[int, tuple[MaximalQueryGraph, LatticeSpace]] = {}

    @property
    def graph(self):
        """The data graph: a :class:`~repro.graph.mapped.MappedKnowledgeGraph`,
        mapped on first access; :meth:`ingest` adds to its delta in place."""
        return self._graph_store.graph

    @property
    def statistics(self) -> GraphStatistics:
        """Offline, query-independent statistics (ief / participation degree)."""
        return self._graph_store.statistics

    @property
    def store(self) -> VerticalPartitionStore:
        """The in-memory vertical-partition store used by the join engine."""
        return self._graph_store.store

    @property
    def graph_store(self) -> GraphStore:
        """The offline-state bundle (graph + statistics + store)."""
        return self._graph_store

    @classmethod
    def from_snapshot(
        cls, path: str | PathLike, config: GQBEConfig | None = None
    ) -> "GQBE":
        """Warm-start a system from an on-disk index snapshot.

        Loads the :class:`~repro.storage.snapshot.GraphStore` saved by
        ``gqbe build-index`` (or :meth:`GraphStore.save`) and skips the
        entire offline build.  ``config`` defaults to ``GQBEConfig()``.

        Example::

            from repro import GQBE
            from repro.storage.snapshot import GraphStore

            GraphStore.build(graph).save("data.snap")   # offline, once
            system = GQBE.from_snapshot("data.snap")    # warm start
            result = system.query(("Jerry Yang", "Yahoo!"), k=10)
        """
        return cls(config=config, graph_store=GraphStore.load(path))

    # ------------------------------------------------------------------
    # query graph discovery
    # ------------------------------------------------------------------
    def discover_query_graph(self, query_tuple: Sequence[str]) -> MaximalQueryGraph:
        """Discover the maximal query graph of one example tuple."""
        neighborhood = neighborhood_graph(self.graph, query_tuple, d=self.config.d)
        return discover_maximal_query_graph(
            neighborhood, self.statistics, r=self.config.mqg_size
        )

    def discover_merged_query_graph(
        self, query_tuples: Sequence[Sequence[str]]
    ) -> tuple[MaximalQueryGraph, list[MaximalQueryGraph], list[float], float]:
        """Discover per-tuple MQGs and merge them (Sec. III-D).

        Returns ``(merged_mqg, per_tuple_mqgs, per_tuple_seconds, merge_seconds)``.
        """
        per_tuple_mqgs: list[MaximalQueryGraph] = []
        per_tuple_seconds: list[float] = []
        for query_tuple in query_tuples:
            started = time.perf_counter()
            per_tuple_mqgs.append(self.discover_query_graph(query_tuple))
            per_tuple_seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        merged = merge_maximal_query_graphs(per_tuple_mqgs, r=self.config.mqg_size)
        merge_seconds = time.perf_counter() - started
        return merged, per_tuple_mqgs, per_tuple_seconds, merge_seconds

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def explore_mqg(
        self,
        mqg: MaximalQueryGraph,
        k: int = 10,
        excluded_tuples: set[tuple[str, ...]] = frozenset(),
        k_prime: int | None = None,
    ) -> ExplorationResult:
        """Run the best-first lattice exploration over an existing MQG.

        Lets callers that cache or share discovered MQGs (e.g. the
        experiment harness, which feeds the same MQG to every compared
        system) skip re-discovery and pay only for query processing.
        """
        entry = self._space_cache.get(id(mqg))
        if entry is not None and entry[0] is mqg:
            space = entry[1]
        else:
            space = LatticeSpace(mqg)
            if len(self._space_cache) >= 16:
                self._space_cache.pop(next(iter(self._space_cache)))
            self._space_cache[id(mqg)] = (mqg, space)
        explorer = BestFirstExplorer(
            space,
            self.store,
            k=k,
            k_prime=k_prime if k_prime is not None else self.config.k_prime,
            excluded_tuples=excluded_tuples,
            max_rows=self.config.max_join_rows,
            node_budget=self.config.node_budget,
        )
        return explorer.run()

    @staticmethod
    def _to_answer_tuples(result: ExplorationResult) -> list[AnswerTuple]:
        return [
            AnswerTuple(
                entities=answer.entities,
                score=answer.score,
                structure_score=answer.structure_score,
                content_score=answer.content_score,
                rank=rank,
            )
            for rank, answer in enumerate(result.answers, start=1)
        ]

    def query(
        self, query_tuple: Sequence[str], k: int = 10, k_prime: int | None = None
    ) -> QueryResult:
        """Answer a single-tuple query: the top-k most similar entity tuples.

        ``k_prime`` overrides the configured stage-one oversampling for this
        query only (the efficiency experiments use ``k_prime = k``).  Stage
        one keeps at least ``k`` answers whatever ``k_prime`` says: a
        ``k_prime`` below ``k`` counts as ``k``.

        Example::

            from repro import GQBE, GQBEConfig
            from repro.datasets.example_graph import figure1_excerpt

            system = GQBE(figure1_excerpt(), config=GQBEConfig(mqg_size=10))
            result = system.query(("Jerry Yang", "Yahoo!"), k=5)
            for answer in result.answers:
                print(answer.rank, answer.entities, round(answer.score, 3))
        """
        entities = tuple(query_tuple)
        if not entities:
            raise QueryError("query tuples must contain at least one entity")
        started = time.perf_counter()
        mqg = self.discover_query_graph(entities)
        discovery_seconds = time.perf_counter() - started

        started = time.perf_counter()
        exploration = self.explore_mqg(
            mqg, k, excluded_tuples={entities}, k_prime=k_prime
        )
        processing_seconds = time.perf_counter() - started

        return QueryResult(
            query_tuples=(entities,),
            answers=self._to_answer_tuples(exploration),
            mqg=mqg,
            statistics=exploration.statistics,
            discovery_seconds=discovery_seconds,
            processing_seconds=processing_seconds,
            per_tuple_discovery_seconds=[discovery_seconds],
            merge_seconds=0.0,
        )

    def query_batch(
        self,
        query_tuples: Sequence[Sequence[str]],
        k: int = 10,
        k_prime: int | None = None,
    ) -> list[QueryResult]:
        """Answer a batch of single-tuple queries, in input order.

        Every tuple is validated first; each distinct tuple is then run
        once through :meth:`query` and its result fanned back out to
        every position that asked for it
        (:func:`~repro.core.answer.fan_out`), so the ranked answers are
        those of calling :meth:`query` once per tuple (pinned by
        ``tests/test_batch_equivalence.py``).  Queries share no join
        state: a batch holds at most one query's match relations at a
        time.  Each worker of a :class:`~repro.serving.pool.WorkerPool`
        runs it over its chunk.

        Example::

            results = system.query_batch(
                [("Jerry Yang", "Yahoo!"), ("Bill Gates", "Microsoft")], k=5
            )
            assert [r.query_tuples[0] for r in results] == [
                ("Jerry Yang", "Yahoo!"), ("Bill Gates", "Microsoft")
            ]
        """
        tuples = [tuple(t) for t in query_tuples]
        for entities in tuples:
            if not entities:
                raise QueryError("query tuples must contain at least one entity")
        by_tuple = {
            entities: self.query(entities, k, k_prime)
            for entities in dict.fromkeys(tuples)
        }
        return fan_out(tuples, by_tuple)

    # ------------------------------------------------------------------
    # live ingest (delta overlay)
    # ------------------------------------------------------------------
    @property
    def pending_delta(self) -> list[tuple[str, str, str]]:
        """Triples ingested since load, in application order.

        Snapshot-backed worker pools replay exactly this list so every
        worker reproduces the parent's delta state (and answers).
        """
        return self._graph_store.delta_triples

    def ingest(self, triples) -> dict:
        """Apply new triples to the live system; returns what happened.

        Delegates the mutation to
        :meth:`~repro.storage.snapshot.GraphStore.ingest` (graph +
        vocabulary + tables + statistics, deduplicated against the
        current graph), then drops every piece of derived state that
        described the pre-ingest graph: cached lattice spaces would
        otherwise keep serving answers over stale join tables.  Returns
        ``{"applied", "duplicates", "delta_edges"}``.
        """
        result = self._graph_store.ingest(triples)
        if result["applied"]:
            self._space_cache.clear()
        return result

    def query_multi(
        self,
        query_tuples: Sequence[Sequence[str]],
        k: int = 10,
        k_prime: int | None = None,
    ) -> QueryResult:
        """Answer a multi-tuple query using the merged MQG (Sec. III-D)."""
        tuples = tuple(tuple(t) for t in query_tuples)
        if not tuples:
            raise QueryError("multi-tuple queries need at least one example tuple")
        if len({len(t) for t in tuples}) != 1:
            raise QueryError("all example tuples must have the same number of entities")
        if len(tuples) == 1:
            return self.query(tuples[0], k=k, k_prime=k_prime)

        started = time.perf_counter()
        merged, _per_tuple, per_tuple_seconds, merge_seconds = (
            self.discover_merged_query_graph(tuples)
        )
        discovery_seconds = time.perf_counter() - started

        started = time.perf_counter()
        exploration = self.explore_mqg(
            merged, k, excluded_tuples=set(tuples), k_prime=k_prime
        )
        processing_seconds = time.perf_counter() - started

        return QueryResult(
            query_tuples=tuples,
            answers=self._to_answer_tuples(exploration),
            mqg=merged,
            statistics=exploration.statistics,
            discovery_seconds=discovery_seconds,
            processing_seconds=processing_seconds,
            per_tuple_discovery_seconds=per_tuple_seconds,
            merge_seconds=merge_seconds,
        )
