"""Exception hierarchy for the GQBE reproduction library.

All library-raised exceptions derive from :class:`GQBEError` so callers can
catch a single base class.  Specific subclasses signal which stage of the
pipeline failed (graph construction, query-tuple validation, query graph
discovery, lattice exploration, or dataset generation).
"""

from __future__ import annotations


class GQBEError(Exception):
    """Base class for every error raised by this library."""


class GraphError(GQBEError):
    """Raised for malformed graphs or invalid graph operations."""


class TripleParseError(GraphError):
    """Raised when a triple file contains a line that cannot be parsed."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        self.line_number = line_number
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class EntityIdOverflowError(GraphError):
    """Raised when interning would assign an id past the int32 ceiling.

    Join relations hold entity ids as int32, so no vocabulary assigns an
    id above ``2**31 - 1``
    (:data:`~repro.storage.vocabulary.MAX_ENTITY_ID`).
    """

    def __init__(self, entity_id: int) -> None:
        self.entity_id = entity_id
        super().__init__(
            f"entity id {entity_id} exceeds the int32 ceiling 2**31 - 1: "
            "the graph has more distinct entities than join relations can hold"
        )


class QueryError(GQBEError):
    """Raised for invalid query tuples (unknown entities, empty tuples...)."""


class UnknownEntityError(QueryError):
    """Raised when a query tuple references an entity not in the data graph."""

    def __init__(self, entity: str) -> None:
        self.entity = entity
        super().__init__(f"entity {entity!r} is not present in the data graph")


class DiscoveryError(GQBEError):
    """Raised when a maximal query graph cannot be discovered."""


class DisconnectedQueryError(DiscoveryError):
    """Raised when query entities are not connected within ``d`` hops."""

    def __init__(self, entities: tuple[str, ...], d: int) -> None:
        self.entities = entities
        self.d = d
        super().__init__(
            f"query entities {entities!r} are not weakly connected within "
            f"{d} undirected hops of each other"
        )


class LatticeError(GQBEError):
    """Raised for invalid lattice operations (bad query graphs, empty MQG)."""


class EvaluationError(GQBEError):
    """Raised when the experiment harness is configured inconsistently."""


class DatasetError(GQBEError):
    """Raised when a synthetic dataset cannot be generated as requested."""


class SnapshotError(GQBEError):
    """Raised for unreadable, corrupt or incompatible index snapshots."""
