"""Shared parsing contract for the ``SIBYL_*`` environment knobs.

Every count- and choice-valued knob in the repo (engine, campaign pool,
serve daemon, telemetry, benchmarks) resolves through the two functions
here, so a misconfiguration raises the same way everywhere instead of
silently selecting a default.  The knob *names* stay with the modules
that own them; ``docs/configuration.md`` lists them all.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

__all__ = ["resolve_count_env", "resolve_choice_env"]


def resolve_count_env(
    env: str, default: int, aliases: Optional[Dict[str, int]] = None
) -> int:
    """Shared contract for the engine's count-valued environment knobs.

    ``""``/``"auto"`` → ``default``; an ``aliases`` token maps to its
    value; anything else must be a **non-negative integer** — garbage
    and negative values raise ``ValueError`` (a misconfiguration must
    never silently disable packing or parallelism).
    """
    raw = os.environ.get(env, "").strip().lower()
    if raw in ("", "auto"):
        return default
    if aliases and raw in aliases:
        return aliases[raw]
    try:
        value = int(raw)
    except ValueError:
        tokens = "'auto'" + "".join(f", {t!r}" for t in sorted(aliases or ()))
        raise ValueError(
            f"{env} must be {tokens} or a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{env} must be >= 0, got {value}")
    return value


def resolve_choice_env(
    env: str, default: str, choices: Sequence[str]
) -> str:
    """Shared contract for the engine's choice-valued environment knobs.

    The string sibling of :func:`resolve_count_env`: ``""`` (unset or
    blank) → ``default``; otherwise the lowered token must be one of
    ``choices`` — garbage raises ``ValueError``, because a typo in e.g.
    ``SIBYL_BACKEND`` must never silently select a different engine.
    """
    raw = os.environ.get(env, "").strip().lower()
    if raw == "":
        return default
    if raw in choices:
        return raw
    tokens = ", ".join(repr(c) for c in choices)
    raise ValueError(f"{env} must be one of {tokens}, got {raw!r}")
