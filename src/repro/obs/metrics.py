"""Fixed-bucket histograms for wall-clock durations.

Stdlib-only and thread-safe.  The placement daemon's engine holds one
:class:`Histogram` per request phase behind the ``metrics`` protocol
op; the bounds are chosen at creation, so summarising never re-bins.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (milliseconds-flavoured, but
#: unit-agnostic): sub-tenth resolution at the fast end, coarse at the
#: tail.  An implicit +inf bucket always exists.
DEFAULT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)


class Histogram:
    """A fixed-bucket histogram of observed values.

    Buckets are upper bounds in ascending order; an implicit +inf
    bucket catches the tail.  ``summary()`` reports count/sum/min/max
    plus per-bucket counts (exact percentiles belong to the caller that
    kept the raw samples).
    """

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Create an empty histogram with the given bucket bounds."""
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be ascending")
        self.name = name
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


__all__ = ["DEFAULT_BUCKETS", "Histogram"]
