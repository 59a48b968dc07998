"""Unified observability: metrics, spans, and tick-domain sinks.

The repo's SBL-DET rule bans wall-clock reads inside the bit-identity
core (``repro.{sim,rl,hss,store}``), which makes "just add timers" the
wrong instinct.  This package splits telemetry into two domains:

- **Tick domain** (:mod:`repro.obs.sink`): clock-free counters the
  engines emit through :class:`~repro.obs.sink.ObservationSink` —
  ticks, fused forwards/rows, training events, kernel-barrier
  crossings, store hits/misses.  Safe anywhere, including the core.
- **Wall-clock domain** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.tracer`): timed spans (Chrome-trace-event JSON,
  Perfetto-loadable) and duration histograms, recorded strictly from
  driver-side call sites *outside* the determinism scope.

Everything is stdlib-only and no-op-cheap when disabled: metrics gate
on ``SIBYL_OBS``, spans on whether a tracer is installed (the
``SIBYL_TRACE_PATH`` knob or a ``--trace`` flag).  See
``docs/observability.md`` for the design and the span taxonomy, and
:func:`engine_sink` for how the two domains meet at ``run_lanes``.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry, RegistrySink, active_registry, registry
from .sink import DictSink, ObservationSink, TeeSink, combine_sinks
from .tracer import (
    SpanTracer,
    flush_tracer,
    get_tracer,
    install_tracer,
    set_tracer,
    span,
    tracer_from_env,
)


def engine_sink() -> Optional[ObservationSink]:
    """A registry-backed sink when ``SIBYL_OBS=on``, else ``None``.

    The engines call this once per ``run_lanes`` invocation (never in
    the tick loop) to decide whether tick-domain counts should also
    feed the process-wide metrics registry.
    """
    reg = active_registry()
    if reg is None:
        return None
    return RegistrySink(reg)


__all__ = [
    "MetricsRegistry",
    "RegistrySink",
    "registry",
    "active_registry",
    "ObservationSink",
    "DictSink",
    "TeeSink",
    "combine_sinks",
    "SpanTracer",
    "span",
    "get_tracer",
    "set_tracer",
    "install_tracer",
    "tracer_from_env",
    "flush_tracer",
    "engine_sink",
]
