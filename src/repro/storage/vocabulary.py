"""Entity vocabularies: interning data-graph entities as dense integers.

The join engine spends most of its time hashing and comparing entity
identifiers — once per probe, per row, per injectivity check.  Hashing a
Python string costs time proportional to its length, while hashing a small
``int`` is effectively free (CPython caches small ints and hashes them as
themselves).  Every entity string therefore maps to a dense integer id
exactly once, offline; all tables, hash indexes and intermediate join
relations carry ints, and answers are decoded back to entity strings only
when they are materialized for the user (``lattice.exploration`` /
``core.answer``).

:class:`MappedVocabulary` is that mapping, over a string arena
(:func:`arena_arrays`): the terms live in one UTF-8 blob addressed by an
int64 offset column, memory-mapped straight out of a snapshot's
vocabulary shard (:mod:`repro.storage.shards`) or computed in memory by
``GraphStore.build``.  ``term_of`` is an offset slice + decode; ``id_of``
is a binary search over a sort permutation of the terms — no eager
``dict`` (or term list) is ever rebuilt, which is what keeps a serve
worker's private RSS free of the vocabulary entirely.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.exceptions import EntityIdOverflowError

#: An entity identifier inside the engine: a dense vocabulary index.
EntityId = int

#: The largest id any vocabulary assigns.  Join relations hold entity ids
#: as int32 (:class:`~repro.storage.join.ColumnarRelation`); tables and
#: snapshot shards stay int64.
MAX_ENTITY_ID = 2**31 - 1


def check_entity_id(entity_id: int) -> int:
    """``entity_id`` itself, or :class:`~repro.exceptions.EntityIdOverflowError`
    if it is past :data:`MAX_ENTITY_ID`."""
    if entity_id > MAX_ENTITY_ID:
        raise EntityIdOverflowError(entity_id)
    return entity_id


def _term_ranks(ids: "np.ndarray", term_of: Callable[[int], str]) -> "np.ndarray":
    """Per id, the rank of its term among the distinct terms ``ids`` name."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    terms = list(map(term_of, distinct.tolist()))
    ranks = np.empty(len(terms), dtype=np.int64)
    ranks[sorted(range(len(terms)), key=terms.__getitem__)] = np.arange(len(terms))
    return ranks[inverse]


def arena_arrays(terms: Sequence[str]) -> dict[str, "np.ndarray"]:
    """The string arena of ``terms`` (id order): ``offsets``, ``sorted_ids``
    and ``blob``, the arrays a vocabulary shard holds."""
    encoded = [term.encode("utf-8") for term in terms]
    check_entity_id(len(encoded) - 1)
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(term) for term in encoded], out=offsets[1:])
    # Sorted by UTF-8 bytes (not str order — they differ beyond ASCII);
    # id_of binary-searches this permutation against encoded probes.
    sorted_ids = np.array(
        sorted(range(len(encoded)), key=encoded.__getitem__), dtype=np.int64
    )
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return {"offsets": offsets, "sorted_ids": sorted_ids, "blob": blob}


class MappedVocabulary:
    """A read-only vocabulary over a memory-mapped string arena.

    Backed by the three arrays of :func:`arena_arrays`, mapped from a
    snapshot's vocabulary arena shard or held in memory:

    ``blob``
        Every term's UTF-8 bytes, concatenated in id order.
    ``offsets``
        ``n + 1`` int64 offsets; term ``i`` is ``blob[offsets[i] :
        offsets[i + 1]]``.
    ``sorted_ids``
        The term ids sorted by UTF-8 byte order (which is code point
        order, Python's string order) — the binary-search index behind
        :meth:`id_of`, so the string→id direction also needs no
        materialized ``dict``, and the order :meth:`order_keys` reads.

    The mapped portion is immutable; :meth:`intern` of a *new* term goes
    to a small in-process overlay (ids continue past the mapped range,
    up to :data:`MAX_ENTITY_ID`) without ever touching the snapshot.
    """

    #: Bound on the hot-term decode cache.  Neighborhood extraction
    #: decodes the same region's terms query after query; caching them
    #: recovers dict-vocabulary speed while capping the private-memory
    #: cost at the *working set* (≤ ~64k strings) instead of the whole
    #: vocabulary.  The cache is cleared, not LRU-evicted, at the cap —
    #: eviction bookkeeping would cost more than the rare re-decode.
    DECODE_CACHE_LIMIT = 65536

    __slots__ = (
        "_offsets",
        "_sorted_ids",
        "_blob",
        "_base",
        "_extra_ids",
        "_extra_terms",
        "_extra_positions",
        "_ranks",
        "_decoded",
    )

    def __init__(
        self,
        offsets: "np.ndarray",
        sorted_ids: "np.ndarray",
        blob: "np.ndarray",
    ) -> None:
        # Per-element reads go through memoryviews of the mapped arrays:
        # indexing one yields a plain int (or a byte slice) where indexing
        # the ndarray would box a numpy scalar.
        self._offsets = memoryview(np.ascontiguousarray(offsets, dtype=np.int64))
        self._sorted_ids = memoryview(np.ascontiguousarray(sorted_ids, dtype=np.int64))
        self._blob = memoryview(np.ascontiguousarray(blob, dtype=np.uint8))
        self._base = len(offsets) - 1
        self._extra_ids: dict[str, int] = {}
        self._extra_terms: list[str] = []
        #: Per overlay term, how many mapped terms sort before it.
        self._extra_positions: list[int] = []
        #: Mapped id -> rank in string order, built on first use.
        self._ranks: "np.ndarray | None" = None
        self._decoded: dict[int, str] = {}

    # ------------------------------------------------------------------
    def _term_bytes(self, entity_id: int) -> bytes:
        offsets = self._offsets
        return bytes(self._blob[offsets[entity_id] : offsets[entity_id + 1]])

    def _find_mapped(self, term: str) -> tuple[int | None, int]:
        """Binary search the sort permutation for ``term``: its id (None if
        absent) and how many mapped terms sort before it."""
        encoded = term.encode("utf-8")
        sorted_ids = self._sorted_ids
        offsets = self._offsets
        blob = self._blob
        lo, hi = 0, self._base
        while lo < hi:
            mid = (lo + hi) // 2
            candidate_id = sorted_ids[mid]
            candidate = bytes(blob[offsets[candidate_id] : offsets[candidate_id + 1]])
            if candidate < encoded:
                lo = mid + 1
            elif candidate > encoded:
                hi = mid
            else:
                return candidate_id, mid
        return None, lo

    # ------------------------------------------------------------------
    def intern(self, term: str) -> int:
        """Return the id of ``term``, assigning an overlay id if new."""
        entity_id, position = self._find_mapped(term)
        if entity_id is None:
            entity_id = self._extra_ids.get(term)
        if entity_id is None:
            entity_id = check_entity_id(self._base + len(self._extra_terms))
            self._extra_ids[term] = entity_id
            self._extra_terms.append(term)
            self._extra_positions.append(position)
        return entity_id

    def id_of(self, term: str) -> int | None:
        """The id of ``term`` if present (binary search, no dict)."""
        entity_id = self._find_mapped(term)[0]
        if entity_id is None and self._extra_ids:
            return self._extra_ids.get(term)
        return entity_id

    def term_of(self, entity_id: int) -> str:
        """The entity string for ``entity_id`` (offset slice + decode).

        Decoded strings are cached up to :attr:`DECODE_CACHE_LIMIT` so
        the hot working set costs one decode, not one per touch.
        """
        decoded = self._decoded.get(entity_id)
        if decoded is not None:
            return decoded
        if entity_id >= self._base:
            return self._extra_terms[entity_id - self._base]
        if entity_id < 0:
            raise IndexError(f"negative entity id {entity_id}")
        decoded = self._term_bytes(entity_id).decode("utf-8")
        if len(self._decoded) >= self.DECODE_CACHE_LIMIT:
            self._decoded.clear()
        self._decoded[entity_id] = decoded
        return decoded

    def decode_row(self, row: Sequence[int]) -> tuple[str, ...]:
        """Decode a tuple of ids back to the entity strings."""
        return tuple(self.term_of(int(entity_id)) for entity_id in row)

    def order_keys(self, ids: "np.ndarray") -> "np.ndarray":
        """Int64 keys, one per id, whose order is the string order of the
        terms (equal ids, equal keys), decoding nothing.

        A mapped term's key is ``rank << 31`` plus :data:`MAX_ENTITY_ID`,
        its rank read off the inverse of the sort permutation.  An overlay
        term's is ``position << 31`` plus its rank among the overlay terms
        of ``ids``, where ``position`` counts the mapped terms before it
        (recorded by :meth:`intern`): it sorts after mapped rank
        ``position - 1`` and before mapped rank ``position``.  Keys
        compare within one call only.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if self._ranks is None:
            self._ranks = np.empty(self._base, dtype=np.int64)
            self._ranks[np.frombuffer(self._sorted_ids, dtype=np.int64)] = np.arange(self._base)
        keys = np.full(len(ids), MAX_ENTITY_ID, dtype=np.int64)
        mapped = ids < self._base
        keys[mapped] += self._ranks[ids[mapped]] << 31
        overlay = np.flatnonzero(~mapped)
        if len(overlay):
            extra = ids[overlay] - self._base
            positions = self._extra_positions
            keys[overlay] = (
                np.array([positions[i] for i in extra.tolist()], dtype=np.int64) << 31
            ) + _term_ranks(extra, self._extra_terms.__getitem__)
        return keys

    def __len__(self) -> int:
        return self._base + len(self._extra_terms)

    def __contains__(self, term: object) -> bool:
        return isinstance(term, str) and self.id_of(term) is not None

    def __iter__(self) -> Iterator[str]:
        for entity_id in range(self._base):
            yield self._term_bytes(entity_id).decode("utf-8")
        yield from self._extra_terms

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self)}, mapped={self._base}, "
            f"overlay={len(self._extra_terms)})"
        )
