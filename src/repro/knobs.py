"""Every ``SIBYL_*`` environment knob: one table, one reader.

This is the only module in the repo that touches the process
environment (the ``SBL-ENV`` lint rule holds the rest of the tree to
that).  :data:`TABLE` defines each knob once — kind, default, accepted
tokens, clamp — and :func:`get` reads one by its literal name, at call
time, so ``grep SIBYL_X`` finds the definition and every reader::

    seeds = knobs.get("SIBYL_BENCH_SEEDS")

All knobs share one parsing contract, so a misconfiguration raises the
same way everywhere instead of silently selecting a default: blank or
unset is the default, tokens are case-folded, and garbage or a negative
count is a ``ValueError``.  A value that arrives by constructor
argument or CLI flag instead is passed to :func:`get` as ``override``
and held to the same row.  ``python -m repro.knobs`` prints the table's
cells of ``docs/configuration.md``; ``scripts/check_docs.py`` fails when
the two drift.

Imports nothing from ``repro``: it is on every verb's import path.
"""

from __future__ import annotations

import os
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "Knob",
    "TABLE",
    "ROWS",
    "get",
    "doc_cells",
    "resolve_count_env",
    "resolve_choice_env",
]


class Knob(NamedTuple):
    """One row of :data:`TABLE`.

    ``kind`` is ``count`` (a non-negative integer, raised to
    ``minimum``; ``auto`` and the ``aliases`` tokens are accepted),
    ``choice`` (one of ``choices``) or ``path`` (blank means unset,
    read as ``None``).  A count whose ``default`` is ``None`` takes it
    from the reader (``SIBYL_PARALLEL``: the usable CPUs).
    """

    name: str
    kind: str
    default: Union[int, str, None] = None
    choices: Tuple[str, ...] = ()
    aliases: Optional[Dict[str, int]] = None
    minimum: int = 0


TABLE: Tuple[Knob, ...] = (
    Knob("SIBYL_PARALLEL", "count", aliases={"serial": 0}),
    Knob("SIBYL_BACKEND", "choice", "auto", ("auto", "numpy", "cext", "off")),
    Knob("SIBYL_BENCH_REQUESTS", "count", 10000, minimum=1),
    Knob("SIBYL_BENCH_WORKLOADS", "choice", "all", ("all", "quick")),
    Knob("SIBYL_BENCH_SEEDS", "count", 1, minimum=1),
    Knob("SIBYL_SERVE_PORT", "count", 0),
    Knob("SIBYL_SERVE_TRAIN", "choice", "sync", ("sync", "off")),
    Knob("SIBYL_TRACE_PATH", "path"),
    Knob("SIBYL_STORE", "path"),
)

#: :data:`TABLE` by variable name.
ROWS: Dict[str, Knob] = {row.name: row for row in TABLE}


def get(name: str, override=None, *, default: Optional[int] = None):
    """The value of knob ``name``, per its row.

    ``override`` — a constructor argument or CLI flag — wins over the
    environment when it is not ``None``, and is held to the same row:
    the same tokens pass, the same ``ValueError`` is raised, the same
    minimum clamps.  ``default`` replaces the row's (the counts whose
    default is computed pass theirs).  An unknown ``name`` is a
    ``KeyError``.
    """
    raw = os.environ.get(name, "") if override is None else str(override)
    return _parse(ROWS[name], raw, default)


def _parse(row: Knob, raw: str, default):
    raw = raw.strip()
    if row.kind == "path":
        return raw or None
    raw = raw.lower()
    if default is None:
        default = row.default
    if row.kind == "choice":
        return _parse_choice(row.name, raw, default, row.choices)
    return max(row.minimum, _parse_count(row.name, raw, default, row.aliases))


def resolve_count_env(
    env: str, default: int, aliases: Optional[Dict[str, int]] = None
) -> int:
    """The count contract, on any variable name.

    ``""``/``"auto"`` → ``default``; an ``aliases`` token maps to its
    value; anything else must be a **non-negative integer** — garbage
    and negative values raise ``ValueError`` (a misconfiguration must
    never silently disable packing or parallelism).
    """
    raw = os.environ.get(env, "").strip().lower()
    return _parse_count(env, raw, default, aliases)


def _parse_count(env, raw, default, aliases):
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
    """The choice contract, on any variable name.

    The string sibling of :func:`resolve_count_env`: ``""`` (unset or
    blank) → ``default``; otherwise the lowered token must be one of
    ``choices`` — garbage raises ``ValueError``, because a typo in e.g.
    ``SIBYL_BACKEND`` must never silently select a different engine.
    """
    raw = os.environ.get(env, "").strip().lower()
    return _parse_choice(env, raw, default, choices)


def _parse_choice(env, raw, default, choices):
    if raw == "":
        return default
    if raw in choices:
        return raw
    tokens = ", ".join(repr(c) for c in choices)
    raise ValueError(f"{env} must be one of {tokens}, got {raw!r}")


def doc_cells(row: Knob) -> Tuple[str, str, str]:
    """The ``Variable | Default | Values`` cells of ``row`` in
    ``docs/configuration.md`` (the ``Meaning`` cell is prose, kept
    there)."""
    name = f"`{row.name}`"
    if row.kind == "path":
        return name, "unset", "a path"
    if row.kind == "choice":
        return name, f"`{row.default}`", ", ".join(f"`{c}`" for c in row.choices)
    tokens = ["`auto`"] + [f"`{t}`" for t in sorted(row.aliases or ())]
    values = ", ".join(tokens) + " or an integer ≥ 0"
    if row.minimum:
        values += f" (raised to {row.minimum})"
    default = "`auto`" if row.default is None else f"`{row.default}`"
    return name, default, values


if __name__ == "__main__":
    print("| Variable | Default | Values |\n|---|---|---|")
    for _row in TABLE:
        print("| " + " | ".join(doc_cells(_row)) + " |")
