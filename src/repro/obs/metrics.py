"""Process-wide metrics registry: counters, gauges, histograms.

Stdlib-only, thread-safe, and no-op-cheap when disabled: the registry
is gated by the ``SIBYL_OBS`` knob (``off``, the default, or ``on``), and
:func:`active_registry` returns ``None`` when it is off, so a call
site's full disabled cost is one function call and a ``None`` branch.
Components that are *always* observable regardless of the knob — the
serve engine, whose metrics back the ``metrics`` protocol op — create
their own :class:`MetricsRegistry` instance instead of using the
process-wide one.

Instruments carry optional label sets (``registry.counter("store_get",
outcome="hit")``); each distinct ``(name, labels)`` pair is a distinct
instrument, created on first use and stable thereafter.  Histograms
use fixed bucket bounds chosen at creation, so merging and summarising
never re-bins.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple, Union

from .. import knobs

Number = Union[int, float]
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (milliseconds-flavoured, but
#: unit-agnostic): sub-tenth resolution at the fast end, coarse at the
#: tail.  An implicit +inf bucket always exists.
DEFAULT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)


class Counter:
    """A monotonically increasing numeric counter."""

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        """Create the counter at 0; use via a registry, not directly."""
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: Number = 0

    def add(self, n: Number = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {n})")
        with self._lock:
            self._value += n

    def inc(self) -> None:
        """Add 1 to the counter."""
        self.add(1)

    @property
    def value(self) -> Number:
        """Current counter value."""
        with self._lock:
            return self._value


class Gauge:
    """A settable instantaneous value (e.g. queue depth)."""

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        """Create the gauge at 0; use via a registry, not directly."""
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: Number = 0

    def set(self, value: Number) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = value

    def add(self, n: Number) -> None:
        """Add ``n`` (may be negative) to the gauge."""
        with self._lock:
            self._value += n

    def set_max(self, value: Number) -> None:
        """Raise the gauge to ``value`` if it is below it."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> Number:
        """Current gauge value."""
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram of observed values.

    Buckets are upper bounds in ascending order; an implicit +inf
    bucket catches the tail.  ``summary()`` reports count/sum/min/max
    plus per-bucket counts, and ``percentile()`` interpolates a
    bucket-resolution estimate (exact percentiles belong to the caller
    that kept the raw samples).
    """

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Create an empty histogram with the given bucket bounds."""
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be ascending")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-resolution estimate of the ``q``-th percentile (0-100)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return None
            rank = max(1, round(q / 100.0 * self._count))
            seen = 0
            for idx, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    if idx < len(self.bounds):
                        return self.bounds[idx]
                    return self._max
            return self._max

    def summary(self) -> Dict[str, object]:
        """Serializable snapshot: count, sum, min, max, mean, buckets."""
        with self._lock:
            mean = (self._sum / self._count) if self._count else None
            return {
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": self._min,
                "max": self._max,
                "mean": round(mean, 6) if mean is not None else None,
                "buckets": dict(zip(self.bounds, self._counts)),
                "overflow": self._counts[-1],
            }

    @property
    def count(self) -> int:
        """Number of observations recorded so far."""
        with self._lock:
            return self._count


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(labels: LabelKey) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class MetricsRegistry:
    """Thread-safe get-or-create home for a component's instruments.

    Instruments are addressed by ``(name, labels)``; the first call
    creates, later calls return the same object, so hot paths can hold
    an instrument directly and skip the lookup.  ``snapshot()`` renders
    everything to plain JSON-serializable data.
    """

    def __init__(self, enabled: bool = True) -> None:
        """Create an empty registry.

        ``enabled=False`` builds a registry whose instruments still
        work (useful for tests); gating belongs to call sites via
        :func:`active_registry`.
        """
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, key[1])
            return inst

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, key[1])
            return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``.

        ``buckets`` only applies on first creation; later calls return
        the existing instrument unchanged.
        """
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, key[1], buckets)
            return inst

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Render all instruments to plain serializable dicts."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {
                c.name + _label_str(c.labels): c.value for c in counters
            },
            "gauges": {
                g.name + _label_str(g.labels): g.value for g in gauges
            },
            "histograms": {
                h.name + _label_str(h.labels): h.summary() for h in histograms
            },
        }

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived daemons)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class RegistrySink:
    """Adapter feeding engine tick-domain counts into a registry.

    Bridges :class:`repro.obs.sink.ObservationSink` to
    :class:`MetricsRegistry`: ``count`` lands in a counter prefixed
    ``engine_``, ``record_max`` in a gauge holding the high-water mark.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        """Feed observations into ``registry``."""
        self.registry = registry

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the ``engine_<name>`` counter."""
        self.registry.counter("engine_" + name).add(n)

    def record_max(self, name: str, value: Number) -> None:
        """Raise the ``engine_<name>`` gauge high-water mark."""
        self.registry.gauge("engine_" + name).set_max(value)


_GLOBAL = MetricsRegistry(enabled=True)


def registry() -> MetricsRegistry:
    """The process-wide registry (always real; gate via active_registry)."""
    return _GLOBAL


def active_registry() -> Optional[MetricsRegistry]:
    """The process-wide registry when ``SIBYL_OBS=on``, else ``None``.

    This is the gate every optional call site goes through: the
    disabled cost is one env read and a ``None`` check, and no
    instrument objects are ever created.
    """
    if knobs.get("SIBYL_OBS") == "on":
        return _GLOBAL
    return None


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySink",
    "registry",
    "active_registry",
]
