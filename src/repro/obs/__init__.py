"""Unified observability: spans and histograms.

The repo's SBL-DET contract (``tests/contracts/test_contracts.py``)
bans wall-clock reads inside the bit-identity core
(``repro.{sim,rl,hss,store}``), which makes "just add timers" the
wrong instinct.  Telemetry therefore lives in two domains:

- **Tick domain**: clock-free counters — ticks, forwards, training
  events, kernel-barrier crossings — that the engines add straight
  into the dict a caller hands ``run_lanes(stats=)``
  (:data:`repro.sim.lanes.ENGINE_COUNTERS`).  Safe anywhere,
  including the core; nothing in this package is involved.
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
    "SpanTracer",
    "span",
    "get_tracer",
    "set_tracer",
    "install_tracer",
    "tracer_from_env",
    "flush_tracer",
]
