"""Order statistics, regression bounds, and the harness's span log."""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "percentile",
    "tail_percentile",
    "quartiles",
    "summary",
    "spread",
    "worse_by",
    "within_bound",
    "SpanLog",
    "self_time",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted ``values``."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float], q: float) -> float:
    """``percentile`` when at least ten samples lie beyond ``q``, else 0.

    A tail read off fewer than ten samples is the maximum under another
    name; reporting 0 keeps it out of any comparison.
    """
    if len(values) * (100.0 - q) / 100.0 < 10 - 1e-9:
        return 0.0
    return percentile(values, q)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if not values:
        nan = float("nan")
        return nan, nan, nan
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles and the sample count beside it."""
    q1, _, q3 = quartiles(values)
    p50 = float(statistics.median(values)) if values else float("nan")
    return {"n": len(values), "p50": p50, "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(base: float, value: float, better: str) -> float:
    """Share of ``base`` by which ``value`` is worse (negative = better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if value == base else float("inf")
    delta = value - base if better == "lower" else base - value
    return delta / abs(base)


def within_bound(base: float, value: float, better: str, bound: float) -> bool:
    """True unless ``value`` is worse than ``base`` by more than ``bound``."""
    return worse_by(base, value, better) <= bound


class SpanLog:
    """Bench-side spans, kept in memory until the run ends.

    The harness is single-threaded, so the open-span stack gives each
    span its parent; ``rep`` tags every span of one repetition with the
    same id.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.rep: Optional[int] = None

    def now_us(self) -> float:
        """Microseconds since the log was created."""
        return (time.perf_counter() - self.origin) * 1e6

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        """Record ``name`` around the ``with`` body; yields the record."""
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "start": self.now_us(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
            "args": dict(args),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now_us()

    def trace_events(self) -> List[Dict[str, Any]]:
        """The closed spans as Chrome ``ph: "X"`` events."""
        pid = os.getpid()
        events = []
        for record in self.spans:
            if record["end"] is None:
                continue
            args = dict(record["args"])
            args.update(span=record["id"], parent=record["parent"],
                        rep=record["rep"])
            events.append({
                "name": record["name"],
                "cat": "bench",
                "ph": "X",
                "ts": round(record["start"], 3),
                "dur": round(record["end"] - record["start"], 3),
                "pid": pid,
                "tid": 0,
                "args": args,
            })
        return events


def self_time(span: Dict[str, Any], spans: Sequence[Dict[str, Any]]) -> float:
    """A span's duration minus the part its child spans cover.

    Children may overlap each other and may stick out of the parent;
    the covered part is the union of their intervals clipped to it.
    """
    lo, hi = span["start"], span["end"]
    pieces = sorted(
        (max(lo, child["start"]), min(hi, child["end"]))
        for child in spans
        if child["parent"] == span["id"] and child["end"] is not None
    )
    covered = 0.0
    cursor = lo
    for start, end in pieces:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return (hi - lo) - covered
