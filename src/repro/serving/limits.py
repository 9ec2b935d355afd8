"""Admission control for the serving frontend.

Two levers, applied by
:class:`~repro.serving.async_server.AsyncGQBEServer` (around the answer
cache, which absorbs duplicates between them) before a request is allowed
to touch the batcher/pool:

1. :class:`RateLimiter` — per-client token buckets keyed by API key
   (``Authorization`` header).  A client above its sustained rate is
   shed with ``429`` + ``Retry-After`` computed from its bucket's refill
   time, so one hot client cannot starve the rest.
2. :class:`AdmissionGate` — a bounded in-flight counter.  Past the
   high-water mark the request is shed with ``429`` + ``Retry-After``
   instead of queueing unboundedly.

Thread-safety note: :class:`RateLimiter` and :class:`AdmissionGate` are
**event-loop confined** — they are only ever touched from coroutines on
the server's loop thread, which serializes access, so they deliberately
own no locks.  Mutating them from a foreign thread would be a bug; the
``CON005`` analyzer (``tools/gqbecheck``) polices exactly that pattern.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Starts full (a well-behaved client gets its burst immediately).
    ``clock`` is injectable so refill behavior is testable without
    sleeping.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_now")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/second, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1 token, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._now = clock
        self._updated = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def allow(self) -> bool:
        """Spend one token if available."""
        self._refill(self._now())
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_seconds(self) -> float:
        """Seconds until one full token has accrued (0 if one is ready)."""
        self._refill(self._now())
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets keyed by the client's API key.

    ``max_clients`` bounds the bucket table: an attacker rotating keys
    cannot grow it without bound.  When full, the least recently used
    bucket is dropped — a returning client then starts from a full
    bucket, which errs toward admitting, never toward starving.

    Event-loop confined: no locks (see the module docstring).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        max_clients: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # Checked here, not only in TokenBucket: buckets are built on a
        # client's first request, too late to refuse a bad setting.
        if rate <= 0:
            raise ValueError(f"rate must be > 0 requests/second, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1 request, got {burst}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = max_clients
        self._now = clock
        self._buckets: dict[str, TokenBucket] = {}
        self.rejections = 0

    def check(self, client_id: str) -> float | None:
        """``None`` if the client may proceed, else suggested retry-after
        seconds (always > 0)."""
        bucket = self._buckets.pop(client_id, None)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._now)
            while len(self._buckets) >= self.max_clients:
                # dicts preserve insertion order; re-inserting on every
                # check makes the first key the least recently used.
                self._buckets.pop(next(iter(self._buckets)))
        self._buckets[client_id] = bucket
        if bucket.allow():
            return None
        self.rejections += 1
        return max(bucket.retry_after_seconds(), 1.0 / self.rate)

    def stats(self) -> dict[str, float]:
        return {
            "rate_rps": self.rate,
            "burst": self.burst,
            "tracked_clients": len(self._buckets),
            "rejections": self.rejections,
        }


class AdmissionGate:
    """Bounded count of in-flight admitted requests (the request queue).

    ``try_enter`` admits while fewer than ``high_water`` requests hold a
    slot; past the mark the caller sheds the request with ``429``.
    Event-loop confined: no locks (see the module docstring).
    """

    def __init__(self, high_water: int, retry_after_seconds: float = 1.0) -> None:
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1, got {high_water}")
        if retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be > 0, got {retry_after_seconds}"
            )
        self.high_water = high_water
        self.retry_after_seconds = retry_after_seconds
        self.depth = 0
        self.admitted = 0
        self.rejections = 0

    def try_enter(self) -> bool:
        if self.depth >= self.high_water:
            self.rejections += 1
            return False
        self.depth += 1
        self.admitted += 1
        return True

    def leave(self) -> None:
        if self.depth <= 0:
            raise RuntimeError("AdmissionGate.leave() without a matching enter")
        self.depth -= 1

    def stats(self) -> dict[str, int]:
        return {
            "high_water": self.high_water,
            "depth": self.depth,
            "admitted": self.admitted,
            "rejections": self.rejections,
        }


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` delay-seconds: a positive integer, rounded up."""
    return str(max(1, math.ceil(seconds)))
