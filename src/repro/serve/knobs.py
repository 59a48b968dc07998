"""Environment knobs of the placement daemon (``SIBYL_SERVE_*``).

Every knob routes through the shared env-parser contract
(:func:`repro.knobs.resolve_count_env` /
:func:`repro.knobs.resolve_choice_env`) so garbage and negative
values *raise* instead of silently changing how the daemon runs, and
every knob has a row in ``docs/configuration.md`` (both halves enforced
by the SBL-ENV lint rule).  Per-call constructor arguments
(:class:`repro.serve.daemon.PlacementDaemon`) always override the
environment.
"""

from __future__ import annotations

from ..knobs import resolve_choice_env, resolve_count_env

__all__ = [
    "SERVE_PORT_ENV",
    "SERVE_BACKLOG_ENV",
    "SERVE_WORKERS_ENV",
    "SERVE_BATCH_ENV",
    "SERVE_TRAIN_ENV",
    "TRAIN_MODES",
    "resolve_serve_port",
    "resolve_serve_backlog",
    "resolve_serve_workers",
    "resolve_serve_batch",
    "resolve_serve_train",
]

#: TCP port the daemon binds (0 = ephemeral, reported by ``address``).
SERVE_PORT_ENV = "SIBYL_SERVE_PORT"

#: Listen backlog of the accept socket.
SERVE_BACKLOG_ENV = "SIBYL_SERVE_BACKLOG"

#: Background trainer threads committing training events off the
#: request path.
SERVE_WORKERS_ENV = "SIBYL_SERVE_WORKERS"

#: Maximum placement queries fused into one engine round (one stacked
#: inference forward).
SERVE_BATCH_ENV = "SIBYL_SERVE_BATCH"

#: Training mode of newly opened tenants: ``async`` (default — events
#: commit on the trainer threads, off the request path), ``sync``
#: (inline on the request path, the serial agent's behaviour), ``off``
#: (inference-only serving, no training at all).
SERVE_TRAIN_ENV = "SIBYL_SERVE_TRAIN"

#: The sanctioned ``SIBYL_SERVE_TRAIN`` values.
TRAIN_MODES = ("async", "sync", "off")


def resolve_serve_port(default: int = 0) -> int:
    """Bind port from ``SIBYL_SERVE_PORT`` (0/unset = ephemeral)."""
    return resolve_count_env(SERVE_PORT_ENV, default)


def resolve_serve_backlog(default: int = 128) -> int:
    """Listen backlog from ``SIBYL_SERVE_BACKLOG`` (min 1)."""
    return max(1, resolve_count_env(SERVE_BACKLOG_ENV, default))


def resolve_serve_workers(default: int = 1) -> int:
    """Trainer thread count from ``SIBYL_SERVE_WORKERS`` (min 1)."""
    return max(1, resolve_count_env(SERVE_WORKERS_ENV, default))


def resolve_serve_batch(default: int = 64) -> int:
    """Engine round width from ``SIBYL_SERVE_BATCH`` (min 1)."""
    return max(1, resolve_count_env(SERVE_BATCH_ENV, default))


def resolve_serve_train(default: str = "async") -> str:
    """Tenant training mode from ``SIBYL_SERVE_TRAIN``."""
    return resolve_choice_env(SERVE_TRAIN_ENV, default, TRAIN_MODES)
