"""Thread-safe LRU answer cache with generation-based invalidation.

The serve layer caches *serialized response payloads* keyed on the
canonicalized query (``(query tuples, k, k_prime)``).  Three properties
matter beyond plain LRU semantics:

* **Thread safety** — lookups happen on the server's event loop, puts on
  its executor threads; every cache operation holds one lock.
* **Staleness safety across snapshot reloads** — a request may be in
  flight (computing against the *old* snapshot) while an operator swaps
  in a new one.  A plain ``put`` after the swap would poison the cache
  with a stale answer.  The cache therefore carries a monotonically
  increasing *generation*: :meth:`AnswerCache.invalidate` clears all
  entries and bumps the generation, and :meth:`AnswerCache.put` requires
  the generation the caller observed *before* it started computing — a
  put tagged with an outdated generation is dropped.  This is pinned by
  ``tests/test_serving.py``.
* **Optional time-to-live** — with ``ttl_seconds`` set, an entry older
  than that is treated as a miss and evicted on access, so long-lived
  duplicate-heavy traffic cannot pin answers forever on a server that
  never reloads.  Duplicate queries answered here never consume an
  admission slot, which is what makes the cache an admission-control
  lever and not just a latency one.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any


class AnswerCache:
    """LRU mapping of canonical query keys to answer payloads.

    Parameters
    ----------
    capacity:
        Maximum number of cached answers; the least recently used entry
        is evicted first.  ``0`` disables caching entirely (every
        ``get`` misses, every ``put`` is dropped).
    ttl_seconds:
        Per-entry time-to-live; ``None`` (the default) disables expiry
        (pure LRU).
    clock:
        Injectable so expiry is testable without sleeping.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0 or None, got {ttl_seconds}")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._now = clock
        #: key -> (payload, expiry time or None)
        self._entries: OrderedDict[Hashable, tuple[Any, float | None]] = OrderedDict()
        self._lock = threading.Lock()
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.stale_puts = 0
        self.evictions = 0
        self.invalidations = 0
        self.expirations = 0

    @property
    def generation(self) -> int:
        """The current cache generation (bumped by :meth:`invalidate`)."""
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached payload for ``key`` (marking it recently used)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, expires_at = entry
                if expires_at is None or self._now() < expires_at:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value
                del self._entries[key]
                self.expirations += 1
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any, generation: int) -> bool:
        """Insert ``value`` if ``generation`` is still current.

        ``generation`` must be the value of :attr:`generation` read
        *before* the caller started computing ``value``; if the cache has
        been invalidated since, the value describes an outdated snapshot
        and is dropped.  Returns whether the value was stored.
        """
        with self._lock:
            if generation != self._generation:
                self.stale_puts += 1
                return False
            if self.capacity == 0:
                return False
            expires_at = (
                None if self.ttl_seconds is None else self._now() + self.ttl_seconds
            )
            self._entries[key] = (value, expires_at)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return True

    def invalidate(self) -> int:
        """Drop every entry and start a new generation; returns it."""
        with self._lock:
            self._entries.clear()
            self._generation += 1
            self.invalidations += 1
            return self._generation

    def stats(self) -> dict[str, float | None]:
        """Counter snapshot for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "generation": self._generation,
                "hits": self.hits,
                "misses": self.misses,
                "stale_puts": self.stale_puts,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "ttl_seconds": self.ttl_seconds,
                "expirations": self.expirations,
            }
