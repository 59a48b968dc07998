"""Environment knobs for the observability subsystem.

Three knobs control telemetry, all routed through the engine's shared
resolver contracts (:func:`repro.knobs.resolve_count_env` /
:func:`repro.knobs.resolve_choice_env`) so garbage values raise
instead of silently disabling instrumentation:

- ``SIBYL_OBS`` — ``off`` (default) or ``on``.  Gates the process-wide
  metrics registry: when off, :func:`repro.obs.metrics.active_registry`
  returns ``None`` and every call site degrades to a branch on ``None``.
- ``SIBYL_TRACE_PATH`` — when set, :func:`repro.obs.tracer.tracer_from_env`
  installs a span tracer that flushes Chrome-trace-event JSON to this
  path.  Unset (default) means no tracer.
- ``SIBYL_TRACE_BUFFER`` — ring-buffer capacity (span count) of the
  tracer; oldest spans are dropped first.  Default 65536.

The resolvers live here — outside the SBL-DET scope — because the
observability layer is the one place the repo reads wall clocks; the
bit-identity core (``repro.{sim,rl,hss,store}``) only ever counts ticks
through :class:`repro.obs.sink.ObservationSink`.
"""

from __future__ import annotations

from ..knobs import resolve_choice_env, resolve_count_env

#: Gate for the process-wide metrics registry (``off``/``on``).
OBS_ENV = "SIBYL_OBS"

#: Valid ``SIBYL_OBS`` tokens.
OBS_MODES = ("off", "on")

#: When set, the path span traces are flushed to (Chrome trace JSON).
TRACE_PATH_ENV = "SIBYL_TRACE_PATH"

#: Ring-buffer capacity (number of retained spans) of the tracer.
TRACE_BUFFER_ENV = "SIBYL_TRACE_BUFFER"

#: Default tracer ring-buffer capacity.
DEFAULT_TRACE_BUFFER = 65536


def resolve_obs_mode(default: str = "off") -> str:
    """``SIBYL_OBS`` via the shared choice contract (``off``/``on``)."""
    return resolve_choice_env(OBS_ENV, default, OBS_MODES)


def resolve_trace_buffer(default: int = DEFAULT_TRACE_BUFFER) -> int:
    """``SIBYL_TRACE_BUFFER`` via the shared count contract (>= 1)."""
    return max(1, resolve_count_env(TRACE_BUFFER_ENV, default))


__all__ = [
    "OBS_ENV",
    "OBS_MODES",
    "TRACE_PATH_ENV",
    "TRACE_BUFFER_ENV",
    "DEFAULT_TRACE_BUFFER",
    "resolve_obs_mode",
    "resolve_trace_buffer",
]
