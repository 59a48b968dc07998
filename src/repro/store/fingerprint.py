"""Content-addressed cell identity: deterministic campaign fingerprints.

A sweep cell is a pure function of its parameters — the same
``(cell function, kwargs)`` pair always simulates the same trajectory
(that determinism is the repo's signature bit-identity guarantee, see
:mod:`repro.sim.parallel`).  The durable store exploits it: a cell's
**fingerprint** is a SHA-256 over the canonicalised cell description,
and a stored result is valid exactly as long as that description — the
cell function's qualified name, every keyword argument, the content
identity of any on-disk trace it names, the store schema version, and
the engine version — is unchanged.

Canonicalisation rules (:func:`canonicalize`): every value maps to
``None``/``True``/``False`` or a **tagged list** whose head names its
type — ``["i", n]`` for ints, ``["f", repr]`` for floats, ``["s", text]``
for strings, ``["l", ...]`` for sequences (lists/tuples unify), ``["d",
[key, value], ...]`` sorted for mappings, ``["fp", ...]`` for objects
exposing a ``fingerprint`` attribute (streaming traces), and ``["msrc",
path, size, mtime_ns]`` for ``"msrc:<path>"`` workload strings — the
same content identity :class:`repro.traces.msrc.StreamingMSRCTrace`
uses, so editing the trace file invalidates every cell that streamed
it.  Tagging *everything* is what makes the encoding injective: ``1``,
``1.0``, ``"1"``, and ``True`` never collide, and no plain value can
forge a tag (a literal list ``["msrc", ...]`` canonicalises to ``["l",
["s", "msrc"], ...]``).  Anything else is **uncacheable** and raises
:class:`Unfingerprintable` — a store must never guess at identity,
because a wrong guess would silently serve a stale result.

Version salts: :data:`SCHEMA_VERSION` (the on-disk blob format) and
:data:`ENGINE_VERSION` (the simulation code, bumped with the package
version) are folded into every fingerprint, so a schema change or an
engine release invalidates old cells by construction — they simply stop
being addressed, no migration pass needed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import __version__

__all__ = [
    "SCHEMA_VERSION",
    "ENGINE_VERSION",
    "Unfingerprintable",
    "canonicalize",
    "fingerprint_cell",
]

#: On-disk blob layout version.  Bump when the serialised form
#: changes incompatibly; every old fingerprint then stops matching.
SCHEMA_VERSION = 1

#: Simulation-code version folded into every fingerprint: results from
#: an older engine are never served to a newer one.
ENGINE_VERSION = __version__


class Unfingerprintable(TypeError):
    """A cell parameter has no canonical content identity.

    Raised instead of guessing — serving a cached result under an
    ambiguous key could silently return stale numbers, which is worse
    than not caching at all.  Callers treat the cell as uncacheable.
    """


def _msrc_identity(spec: str) -> list:
    """Content identity of an ``"msrc:<path>"`` workload string.

    Mirrors :attr:`repro.traces.msrc.StreamingMSRCTrace.fingerprint`:
    path plus file size and mtime, so rewriting the capture invalidates
    every cell that streamed it.  A missing file canonicalises to a
    "missing" marker (the cell itself will raise when it runs; the
    fingerprint just must not crash first).
    """
    path = Path(spec[len("msrc:"):])
    try:
        stat = path.stat()
    except OSError:
        return ["msrc", str(path), "missing"]
    return ["msrc", str(path), stat.st_size, stat.st_mtime_ns]


def canonicalize(value: Any) -> Any:
    """Reduce a cell parameter to a canonical JSON-able form.

    Deterministic across processes and runs, and **injective**: every
    value becomes ``None``/``True``/``False`` or a type-tagged list
    (module docstring), so distinct parameters can never share a
    canonical form — a collision here would silently serve one cell's
    stored result for another.  Raises :class:`Unfingerprintable` for
    values with no defined identity.
    """
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        # repr round-trips exactly; tag keeps 1.0 distinct from 1.
        return ["f", repr(value)]
    if isinstance(value, str):
        if value.startswith("msrc:"):
            return _msrc_identity(value)
        return ["s", value]
    if isinstance(value, Mapping):
        items = sorted(
            (
                (json.dumps(canonicalize(k), sort_keys=True), canonicalize(v))
                for k, v in value.items()
            ),
            key=lambda kv: kv[0],
        )
        return ["d"] + [[k, v] for k, v in items]
    if isinstance(value, (list, tuple)):
        return ["l"] + [canonicalize(v) for v in value]
    fp = getattr(value, "fingerprint", None)
    if fp is not None and not callable(fp):
        return ["fp", canonicalize(fp)]
    raise Unfingerprintable(
        f"no canonical content identity for {type(value).__name__}: "
        f"{value!r}"
    )


def _fn_name(fn: Callable) -> str:
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise Unfingerprintable(
            f"cell function {fn!r} is not an addressable module-level "
            "callable"
        )
    return f"{module}.{qualname}"


def fingerprint_cell(fn: Callable, kwargs: Mapping[str, Any]) -> str:
    """SHA-256 hex fingerprint of one sweep cell.

    Folds in the schema and engine versions, the cell function's
    qualified name, and the canonicalised kwargs.  Two cells share a
    fingerprint exactly when they are guaranteed to compute the same
    result.  Raises :class:`Unfingerprintable` when any parameter has
    no content identity (e.g. a closure or a live policy object).
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "engine": ENGINE_VERSION,
        "fn": _fn_name(fn),
        "kwargs": canonicalize(dict(kwargs)),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
