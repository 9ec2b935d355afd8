"""Result types returned by the GQBE facade."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.discovery.mqg import MaximalQueryGraph
from repro.lattice.exploration import ExplorationStatistics


@dataclass(frozen=True)
class AnswerTuple:
    """One ranked answer tuple.

    Attributes
    ----------
    entities:
        The answer entities, positionally aligned with the query tuple.
        Always decoded entity *strings*: the join engine works on interned
        int ids internally, but ids never escape past the exploration's
        final ranking.
    score:
        The full Eq. 5 score (structure + content) of the best answer graph
        projecting to this tuple.
    structure_score:
        The structure-only component (used for stage-one ranking).
    content_score:
        The content component of the best-scoring answer graph.
    rank:
        1-based rank in the returned answer list.
    """

    entities: tuple[str, ...]
    score: float
    structure_score: float
    content_score: float
    rank: int

    def __iter__(self):
        return iter(self.entities)

    def __len__(self) -> int:
        return len(self.entities)


@dataclass
class QueryResult:
    """Everything produced by one GQBE query.

    Attributes
    ----------
    query_tuples:
        The input example tuple(s).
    answers:
        Ranked answer tuples (best first).
    mqg:
        The (possibly merged) maximal query graph the query was evaluated
        against.
    statistics:
        Lattice exploration counters (nodes evaluated, null nodes, ...).
    discovery_seconds:
        Wall-clock time spent discovering (and merging) the MQG(s).
    processing_seconds:
        Wall-clock time spent exploring the lattice.
    per_tuple_discovery_seconds:
        For multi-tuple queries, the MQG discovery time of each input tuple.
    merge_seconds:
        Time spent merging per-tuple MQGs (0 for single-tuple queries).
    """

    query_tuples: tuple[tuple[str, ...], ...]
    answers: list[AnswerTuple]
    mqg: MaximalQueryGraph
    statistics: ExplorationStatistics
    discovery_seconds: float = 0.0
    processing_seconds: float = 0.0
    per_tuple_discovery_seconds: list[float] = field(default_factory=list)
    merge_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time (discovery + processing)."""
        return self.discovery_seconds + self.processing_seconds

    def answer_tuples(self) -> list[tuple[str, ...]]:
        """Just the entity tuples, in rank order."""
        return [answer.entities for answer in self.answers]

    def top(self, n: int) -> list[AnswerTuple]:
        """The first ``n`` answers."""
        return self.answers[:n]


def fan_out(
    tuples: Sequence[tuple[str, ...]],
    by_tuple: Mapping[tuple[str, ...], QueryResult],
) -> list[QueryResult]:
    """``by_tuple``'s result for each of ``tuples``, in input order.

    A batch runs each distinct tuple once; the pipeline is deterministic,
    so a repeat would return the same answers.  The first occurrence
    gets the result itself, every later one a copy with fresh mutable
    containers (answers, statistics, timings) over the same answers.
    """
    results: list[QueryResult] = []
    emitted: set[tuple[str, ...]] = set()
    for entities in tuples:
        result = by_tuple[entities]
        if entities in emitted:
            result = replace(
                result,
                answers=list(result.answers),
                statistics=replace(result.statistics),
                per_tuple_discovery_seconds=list(
                    result.per_tuple_discovery_seconds
                ),
            )
        else:
            emitted.add(entities)
        results.append(result)
    return results
