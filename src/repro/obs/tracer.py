"""Span tracer: Chrome-trace-event JSON in a bounded ring buffer.

Spans are wall-clock intervals — and wall clocks are exactly what
SBL-DET (``tests/contracts/test_contracts.py``) bans from the
bit-identity core — so everything in this module
lives outside the determinism scope and is only ever *called from*
driver-side code: ``sim/parallel`` dispatch, store I/O call sites, the
kernel build/invoke boundary in ``engine_c``, and the serve request
lifecycle.  The core itself never imports this module.

Events use the Chrome trace-event format (``ph="X"`` complete events
with microsecond ``ts``/``dur``), so a flushed file loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; see
``docs/observability.md`` for the span taxonomy.  The buffer is a
bounded deque — a runaway campaign drops its *oldest* spans instead of
growing without limit — and :meth:`SpanTracer.flush` writes the file
atomically (same-directory tmp + fsync + rename, one flush at a time),
so a reader never sees a torn trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

from .. import knobs

#: Default ring-buffer capacity (retained spans) of a tracer.
DEFAULT_CAPACITY = 65536


class SpanTracer:
    """Thread-safe ring buffer of Chrome trace events.

    One tracer serves the whole process; every recording helper takes
    the buffer lock, and timestamps are ``time.perf_counter()`` offsets
    from the tracer's creation (the trace origin is 0 µs).
    """

    def __init__(self, path: Optional[str] = None, capacity: int = DEFAULT_CAPACITY) -> None:
        """Create a tracer flushing to ``path`` with ``capacity`` spans;
        ``path=None`` means :meth:`flush` requires an explicit path."""
        self.path = path
        self.capacity = capacity
        self._events: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._pid = os.getpid()
        self._dropped = 0

    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def add_event(self, event: Dict[str, object]) -> None:
        """Append a raw trace event dict (caller supplies all fields)."""
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(event)

    def record(self, name: str, cat: str, started: float,
               tid: Optional[int] = None, **args: object) -> None:
        """Record a complete (``ph="X"``) event from ``started`` to now.

        ``started`` is a ``time.perf_counter()`` stamp.  For a span
        whose life is not one ``with`` body — a served request crosses
        turns of the daemon's loop — and that may need a row (``tid``)
        of its own to keep nesting valid; the default is the calling
        thread's row.
        """
        self.add_event(
            {
                "name": name,
                "cat": cat or "repro",
                "ph": "X",
                "ts": round((started - self._t0) * 1e6, 3),
                "dur": round((time.perf_counter() - started) * 1e6, 3),
                "pid": self._pid,
                "tid": threading.get_ident() % 2**31 if tid is None else tid,
                "args": args,
            }
        )

    @contextmanager
    def span(self, name: str, cat: str = "", **args: object) -> Iterator[None]:
        """Record a complete (``ph="X"``) event around the ``with`` body.

        ``args`` become the event's ``args`` payload and must be
        JSON-serializable; the ``with`` target is that dict, so the body
        can add what it learns by its end.  The event is recorded even
        when the body raises, with ``args["error"]`` set to the exception
        type.
        """
        started = time.perf_counter()
        try:
            yield args
        except BaseException as exc:
            args["error"] = type(exc).__name__
            raise
        finally:
            self.record(name, cat, started, **args)

    def instant(self, name: str, cat: str = "", **args: object) -> None:
        """Record an instant (``ph="i"``) event at the current time."""
        self.add_event(
            {
                "name": name,
                "cat": cat or "repro",
                "ph": "i",
                "s": "t",
                "ts": round(self._now_us(), 3),
                "pid": self._pid,
                "tid": threading.get_ident() % 2**31,
                "args": dict(args),
            }
        )

    def events(self) -> List[Dict[str, object]]:
        """Snapshot the buffered events (oldest first)."""
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer since creation."""
        with self._lock:
            return self._dropped

    def flush(self, path: Optional[str] = None) -> str:
        """Atomically write ``{"traceEvents": [...]}`` and return the path.

        Same-directory tmp file + fsync + ``os.replace``, so a crashed
        flush never leaves a torn file and a concurrent reader sees
        either the previous complete trace or the new one.  The whole
        flush runs under the tracer lock through a tmp name of its own:
        flushes from several threads land one after another, each a
        complete snapshot, the latest last.
        """
        target = path or self.path
        if not target:
            raise ValueError("no trace path: pass one or construct with path=")
        target = os.path.abspath(target)
        with self._lock:
            doc = {
                "traceEvents": list(self._events),
                "displayTimeUnit": "ms",
                "otherData": {
                    "dropped": self._dropped, "capacity": self.capacity,
                },
            }
            # One thread runs one flush at a time, so (pid, thread) names
            # a tmp file no other flush — of any tracer — is writing.
            tmp = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        return target


class _NullSpan:
    """Reusable no-op context manager for the disabled tracer path."""

    def __enter__(self) -> None:
        """No-op: the ``with`` target is ``None``, not an args dict."""
        return None

    def __exit__(self, *exc: object) -> bool:
        """No-op; never swallows exceptions."""
        return False


_NULL_SPAN = _NullSpan()
_tracer: Optional[SpanTracer] = None


def get_tracer() -> Optional[SpanTracer]:
    """The installed process tracer, or ``None``."""
    return _tracer


def set_tracer(tracer: Optional[SpanTracer]) -> Optional[SpanTracer]:
    """Install (or clear, with ``None``) the process tracer; return it."""
    global _tracer
    _tracer = tracer
    return tracer


def install_tracer(path: str, capacity: int = DEFAULT_CAPACITY) -> SpanTracer:
    """Create a :class:`SpanTracer` flushing to ``path`` and install it."""
    return set_tracer(SpanTracer(path=path, capacity=capacity))


def tracer_from_env() -> Optional[SpanTracer]:
    """Install a tracer when ``SIBYL_TRACE_PATH`` is set; else ``None``
    (an empty or unset path means tracing stays off)."""
    path = knobs.get("SIBYL_TRACE_PATH")
    return install_tracer(path) if path else None


def span(name: str, cat: str = "", **args: object):
    """A span on the installed tracer, or a shared no-op context.

    The module-level entry point for instrumented call sites: when no
    tracer is installed the cost is a global load, a ``None`` test, and
    re-entering a singleton no-op context manager.  ``with span(...) as
    args`` gives the recorded event's args dict, or ``None`` untraced.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, **args)


def flush_tracer() -> Optional[str]:
    """Flush the installed tracer to its path, if both exist."""
    tracer = _tracer
    if tracer is None or not tracer.path:
        return None
    return tracer.flush()


__all__ = [
    "SpanTracer",
    "get_tracer",
    "set_tracer",
    "install_tracer",
    "tracer_from_env",
    "span",
    "flush_tracer",
]
