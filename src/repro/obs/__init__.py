"""Unified observability: spans, histograms, and tick-domain sinks.

The repo's SBL-DET rule bans wall-clock reads inside the bit-identity
core (``repro.{sim,rl,hss,store}``), which makes "just add timers" the
wrong instinct.  This package splits telemetry into two domains:

- **Tick domain** (:mod:`repro.obs.sink`): clock-free counters the
  engines emit through :class:`~repro.obs.sink.ObservationSink` —
  ticks, fused forwards/rows, training events, kernel-barrier
  crossings — into the dict a caller hands ``run_lanes(stats=)``.
  Safe anywhere, including the core.
- **Wall-clock domain** (:mod:`repro.obs.tracer`,
  :mod:`repro.obs.metrics`): timed spans (Chrome-trace-event JSON,
  Perfetto-loadable) and the duration histograms behind the placement
  daemon's ``metrics`` op, recorded strictly from driver-side call
  sites *outside* the determinism scope.

Everything is stdlib-only.  Spans cost nothing unless a tracer is
installed (the ``SIBYL_TRACE_PATH`` knob or a ``--trace`` flag).  See
``docs/observability.md`` for the design and the span taxonomy.
"""

from __future__ import annotations

from .sink import DictSink, ObservationSink
from .tracer import (
    SpanTracer,
    flush_tracer,
    get_tracer,
    install_tracer,
    set_tracer,
    span,
    tracer_from_env,
)

__all__ = [
    "ObservationSink",
    "DictSink",
    "SpanTracer",
    "span",
    "get_tracer",
    "set_tracer",
    "install_tracer",
    "tracer_from_env",
    "flush_tracer",
]
