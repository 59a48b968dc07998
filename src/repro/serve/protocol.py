"""Wire protocol of the placement daemon: newline-delimited JSON.

One request frame per line, one response frame per line, UTF-8, no
framing beyond the newline — any language with a socket and a JSON
library is a client.  Every request carries an ``op`` and an optional
client-chosen ``id`` echoed verbatim in the response; every response
carries ``ok`` (boolean) and, when ``ok`` is false, an ``error`` code
from the closed set below plus a human-readable ``message``.

Request validation lives here so the engine only ever sees well-formed
queries: a malformed frame yields a structured error *response* (never
a daemon crash), and the error codes are part of the protocol contract
asserted by ``tests/serve/test_faults.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..hss.request import OpType, Request

__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "HYPERPARAM_FIELDS",
    "ERR_BAD_JSON",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_OP",
    "ERR_UNKNOWN_TENANT",
    "ERR_TENANT_EXISTS",
    "ERR_RELOAD_FAILED",
    "ERR_CHECKPOINT_FAILED",
    "ERR_SHUTTING_DOWN",
    "ERR_TIMEOUT",
    "ERR_INTERNAL",
    "ProtocolError",
    "Query",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "ok_frame",
    "parse_query",
]

#: Hard per-frame size bound: a line longer than this is malformed by
#: definition (placement queries are ~100 bytes), so a garbage or
#: hostile sender cannot make a handler buffer unbounded input.
MAX_FRAME_BYTES = 1 << 20

#: The protocol's operations.
OPS = ("ping", "open", "place", "save", "reload", "stats", "metrics",
       "drain", "shutdown")

#: Hyper-parameter overrides accepted by ``open`` (whitelist — the
#: values feed ``dataclasses.replace`` on the Table 2 defaults), each
#: with the JSON number types its field takes.
HYPERPARAM_FIELDS = {
    "learning_rate": (int, float),
    "discount": (int, float),
    "exploration_rate": (int, float),
    "batch_size": int,
    "buffer_capacity": int,
    "train_interval": int,
    "batches_per_training": int,
    "initial_random_requests": int,
}

ERR_BAD_JSON = "bad-json"
ERR_BAD_REQUEST = "bad-request"
ERR_UNKNOWN_OP = "unknown-op"
ERR_UNKNOWN_TENANT = "unknown-tenant"
ERR_TENANT_EXISTS = "tenant-exists"
ERR_RELOAD_FAILED = "reload-failed"
ERR_CHECKPOINT_FAILED = "checkpoint-failed"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_TIMEOUT = "timeout"
ERR_INTERNAL = "internal-error"


class ProtocolError(ValueError):
    """A frame the protocol rejects; carries the response error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Query:
    """One validated request frame, ready for the engine.

    ``fields`` holds the op-specific payload: ``place`` carries the
    parsed :class:`~repro.hss.request.Request` under ``"request"``,
    ``open`` the tenant construction parameters, ``save``/``reload``
    the checkpoint path.
    """

    op: str
    id: Optional[Any] = None
    tenant: Optional[str] = None
    fields: Dict[str, Any] = field(default_factory=dict)


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one raw line into a JSON object, or raise ProtocolError."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(ERR_BAD_JSON, "frame exceeds MAX_FRAME_BYTES")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERR_BAD_JSON, f"undecodable frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(ERR_BAD_JSON, "frame must be a JSON object")
    return obj


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one response frame (compact JSON + newline).

    ``json`` round-trips Python floats exactly (shortest-repr), which
    is what lets the equivalence tests compare served latencies
    bit-for-bit across the wire.
    """
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def error_frame(code: str, message: str, id: Any = None) -> Dict[str, Any]:
    """A structured error response."""
    out: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    if id is not None:
        out["id"] = id
    return out


def ok_frame(payload: Dict[str, Any], id: Any = None) -> Dict[str, Any]:
    """A success response wrapping ``payload``."""
    out: Dict[str, Any] = {"ok": True}
    if id is not None:
        out["id"] = id
    out.update(payload)
    return out


# ------------------------------------------------------------- validation
def _require(obj: Dict[str, Any], key: str, kind, what: str):
    value = obj.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(ERR_BAD_REQUEST, f"{key!r} must be {what}")
    return value


def _tenant_name(obj: Dict[str, Any]) -> str:
    name = _require(obj, "tenant", str, "a non-empty string")
    if not name:
        raise ProtocolError(ERR_BAD_REQUEST, "'tenant' must be non-empty")
    return name


def _parse_place(obj: Dict[str, Any]) -> Request:
    page = _require(obj, "page", int, "a non-negative integer")
    if page < 0:
        raise ProtocolError(ERR_BAD_REQUEST, "'page' must be >= 0")
    size = obj.get("size", 1)
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ProtocolError(ERR_BAD_REQUEST, "'size' must be an integer >= 1")
    t = obj.get("t", 0.0)
    if not isinstance(t, (int, float)) or isinstance(t, bool) \
            or not math.isfinite(t) or t < 0:
        raise ProtocolError(ERR_BAD_REQUEST, "'t' must be a finite number >= 0")
    rw = obj.get("rw", "R")
    try:
        op = OpType.parse(str(rw))
    except ValueError:
        raise ProtocolError(ERR_BAD_REQUEST, f"unrecognised 'rw': {rw!r}") from None
    return Request(timestamp=float(t), op=op, page=page, size=size)


def _parse_open(obj: Dict[str, Any]) -> Dict[str, Any]:
    fields: Dict[str, Any] = {}
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProtocolError(ERR_BAD_REQUEST, "'seed' must be an integer >= 0")
    fields["seed"] = seed
    config = obj.get("config", "H&M")
    if not isinstance(config, str) or not config:
        raise ProtocolError(ERR_BAD_REQUEST, "'config' must be a device string")
    fields["config"] = config
    head = obj.get("head", "c51")
    if head not in ("c51", "dqn"):
        raise ProtocolError(ERR_BAD_REQUEST, "'head' must be 'c51' or 'dqn'")
    fields["head"] = head
    caps = obj.get("capacity_pages", 1024)
    if isinstance(caps, int) and not isinstance(caps, bool):
        caps = [caps]
    if not (
        isinstance(caps, list)
        and caps
        and all(isinstance(c, int) and not isinstance(c, bool) and c >= 1
                for c in caps)
    ):
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "'capacity_pages' must be a positive integer or list thereof",
        )
    fields["capacity_pages"] = caps
    hp = obj.get("hyperparams", {})
    if not isinstance(hp, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "'hyperparams' must be an object")
    unknown = sorted(set(hp) - set(HYPERPARAM_FIELDS))
    if unknown:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"unknown hyperparams: {', '.join(unknown)}"
        )
    for name, value in hp.items():
        kind = HYPERPARAM_FIELDS[name]
        if (
            not isinstance(value, kind) or isinstance(value, bool)
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            what = "an integer" if kind is int else "a finite number"
            raise ProtocolError(
                ERR_BAD_REQUEST, f"hyperparams {name!r} must be {what}"
            )
    fields["hyperparams"] = hp
    return fields


def parse_query(obj: Dict[str, Any]) -> Query:
    """Validate a decoded frame into a :class:`Query`.

    Raises :class:`ProtocolError` with ``ERR_UNKNOWN_OP`` /
    ``ERR_BAD_REQUEST`` on anything the engine must never see.
    """
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            ERR_UNKNOWN_OP,
            f"unknown op {op!r}; expected one of {', '.join(OPS)}",
        )
    query = Query(op=op, id=obj.get("id"))
    if op in ("ping", "stats", "metrics", "drain", "shutdown"):
        return query
    query.tenant = _tenant_name(obj)
    if op == "place":
        query.fields["request"] = _parse_place(obj)
    elif op == "open":
        query.fields.update(_parse_open(obj))
    else:  # save / reload
        path = _require(obj, "checkpoint", str, "a filesystem path string")
        if not path:
            raise ProtocolError(ERR_BAD_REQUEST, "'checkpoint' must be non-empty")
        query.fields["checkpoint"] = path
    return query
