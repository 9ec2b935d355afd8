"""Percentiles, digests and output checks shared by the runner and its tests.

Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections.abc import Iterable, Sequence

#: Percentiles the benchmark is ever asked for, ascending.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: The choosing-metrics rule: a percentile is reported only when at least
#: this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def allowed_percentile(n: int, wanted: float) -> float:
    """The highest ladder percentile <= ``wanted`` that ``n`` samples support.

    A percentile ``p`` is supported when ``n * (1 - p/100) >= 10``; the
    median is always allowed.  ``allowed_percentile(100, 99)`` is ``90``:
    a shrunk run cannot silently print a p99 of 100 samples.
    """
    best = 50.0
    for p in PERCENTILE_LADDER:
        if p > wanted:
            break
        # round(): 2500 * (1 - 0.99) is 24.999... in floating point.
        if p == 50.0 or round(n * (100.0 - p) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of unsorted ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * p / 100.0))
    return ordered[index]


def percentile_by_rule(samples: Sequence[float], wanted: float) -> tuple[float, float]:
    """``(value, percentile actually used)`` under the ten-beyond rule."""
    used = allowed_percentile(len(samples), wanted)
    if used == 50.0:
        return statistics.median(samples), used
    return percentile(samples, used), used


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 3 values)."""
    if len(values) < 3:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def sha256_json(value) -> str:
    """Digest of a JSON-serializable value in canonical form."""
    data = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def answer_digest(answers: Iterable[Sequence]) -> str:
    """Digest of one ranked answer list: entities and full-precision scores."""
    return sha256_json([[list(entities), repr(score)] for entities, score in answers])


def check_answers(
    answers: Sequence[Sequence], example_tuples: Iterable[Sequence[str]], k: int
) -> str | None:
    """Why a ranked answer list is wrong, or ``None`` when it passes.

    ``answers`` is a list of ``(entities, score)`` in rank order.  An
    empty list passes: a ``max_join_rows`` overflow legitimately leaves a
    query without answers, and the runner counts those separately.
    """
    if len(answers) > k:
        return f"{len(answers)} answers for k={k}"
    scores = [score for _, score in answers]
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        return "scores are not monotone non-increasing"
    examples = {tuple(t) for t in example_tuples}
    for entities, _ in answers:
        if tuple(entities) in examples:
            return f"answer echoes example tuple {tuple(entities)!r}"
    return None
