"""Zero-dependency Prometheus-text metrics for the serving frontend.

The async frontend (:mod:`repro.serving.async_server`) exposes a
``GET /metrics`` endpoint in the Prometheus text exposition format
(version 0.0.4) so a standard scraper can watch queue depth, cache
effectiveness, per-stage latency and the shed/timeout/error counters
without any client library.  Everything here is stdlib.

Three metric kinds, the Prometheus core set:

* :class:`Counter` — monotonically increasing totals, optionally split
  by label (``gqbe_http_requests_total{path="/query",code="200"}``);
* :class:`Gauge` — a value that goes up and down (queue depth).  A gauge
  may carry a ``callback`` so its value is *pulled* at render time from
  live state instead of being pushed on every change;
* :class:`Histogram` — bucketed observations with ``_bucket``/``_sum``/
  ``_count`` series (request latency per stage).

Thread safety: metrics are updated from the event loop, from handler
threads and from the engine threads, so every mutation and every render
holds the metric's lock.  :func:`parse_prometheus_text` is the
inverse of :meth:`MetricsRegistry.render` — the SLO gate
(``benchmarks/check_serve_slo.py``) uses it to reconcile the server's
counters against the load generator's ground truth.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence

#: Default latency buckets (seconds): 1ms .. 10s, roughly log-spaced.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_number(value: float) -> str:
    """Prometheus-style rendering: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Metric:
    """Shared name/help/label plumbing; subclasses render themselves."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _labels_of_key(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.label_names, key))

    def header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str] = ()):
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """The sum over every labelset (for quick assertions)."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            labels = _render_labels(self._labels_of_key(key))
            lines.append(f"{self.name}{labels} {_format_number(value)}")
        return lines


class Gauge(_Metric):
    """A value that can go up and down; optionally pulled via callback."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        callback: Callable[[], float] | None = None,
    ):
        super().__init__(name, help_text, ())
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        return [*self.header(), f"{self.name} {_format_number(self.value())}"]


class Histogram(_Metric):
    """Cumulative-bucket observations with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        label_names: Sequence[str] = (),
    ):
        super().__init__(name, help_text, label_names)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        #: labelset -> ([per-bucket counts..., +Inf count], sum)
        self._series: dict[tuple[str, ...], tuple[list[int], float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            counts, total = self._series.get(key, (None, 0.0))
            if counts is None:
                counts = [0] * (len(self.bounds) + 1)
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[index] += 1
            counts[-1] += 1  # the +Inf bucket counts every observation
            self._series[key] = (counts, total + value)

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            counts, _total = self._series.get(key, (None, 0.0))
            return counts[-1] if counts else 0

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(
                (key, (list(counts), total))
                for key, (counts, total) in self._series.items()
            )
        for key, (counts, total) in items:
            base_labels = self._labels_of_key(key)
            for index, bound in enumerate((*self.bounds, math.inf)):
                labels = _render_labels({**base_labels, "le": _format_number(bound)})
                lines.append(f"{self.name}_bucket{labels} {counts[index]}")
            labels = _render_labels(base_labels)
            lines.append(f"{self.name}_sum{labels} {_format_number(total)}")
            lines.append(f"{self.name}_count{labels} {counts[-1]}")
        return lines


class MetricsRegistry:
    """An ordered collection of metrics with one text exposition."""

    content_type = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._metrics: list[_Metric] = []
        self._lock = threading.Lock()

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if any(existing.name == metric.name for existing in self._metrics):
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics.append(metric)
        return metric

    def counter(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_text, label_names))  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help_text: str,
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        return self.register(Gauge(name, help_text, callback))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        label_names: Sequence[str] = (),
    ) -> Histogram:
        return self.register(Histogram(name, help_text, buckets, label_names))  # type: ignore[return-value]

    def render(self) -> str:
        with self._lock:
            metrics = list(self._metrics)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse an exposition back into ``{(name, sorted labels): value}``.

    The inverse of :meth:`MetricsRegistry.render`, used by the SLO gate
    and the tests to reconcile served counters with ground truth.  Label
    values may contain the standard escapes (``\\\\``, ``\\"``, ``\\n``).
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _parse_sample_line(line)
        samples[(name, tuple(sorted(labels.items())))] = value
    return samples


def _parse_sample_line(line: str) -> tuple[str, dict[str, str], float]:
    if "{" in line:
        name, _, rest = line.partition("{")
        label_text, _, value_text = rest.rpartition("}")
        labels = _parse_labels(label_text)
    else:
        name, _, value_text = line.rpartition(" ")
        labels = {}
    value_text = value_text.strip()
    value = math.inf if value_text == "+Inf" else float(value_text)
    return name.strip(), labels, value


def _parse_labels(label_text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    index = 0
    while index < len(label_text):
        equals = label_text.index("=", index)
        name = label_text[index:equals].strip(" ,")
        assert label_text[equals + 1] == '"', f"malformed labels: {label_text!r}"
        cursor = equals + 2
        value_chars: list[str] = []
        while label_text[cursor] != '"':
            char = label_text[cursor]
            if char == "\\":
                cursor += 1
                escaped = label_text[cursor]
                char = {"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped)
            value_chars.append(char)
            cursor += 1
        labels[name] = "".join(value_chars)
        index = cursor + 1
    return labels
