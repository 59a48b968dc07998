"""Durable campaign store: content-addressed cell cache + crash-safe resume.

The sweep engines (PR 1–4) made every figure a grid of pure,
deterministically seeded cells; this package makes those cells
**durable**.  Each ``(cell function, kwargs)`` pair — policy lineup,
config, trace identity, seed axis, engine version — hashes to a content
fingerprint (:mod:`repro.store.fingerprint`); finished cells persist as
atomic JSON blobs under a store directory
(:class:`~repro.store.store.CampaignStore`), and the blobs are the whole
store.  The result: a campaign killed at cell 180/200 is resumed by
rerunning it, which computes the missing 20, and a re-run benchmark
with a warm store performs **zero simulation ticks** while rendering
byte-identical reports (:mod:`repro.store.serialize` round-trips
results losslessly).

Wiring: pass ``store=`` to any :mod:`repro.sim.experiment` sweep (or
``--store`` on the CLI, or ``SIBYL_STORE`` for the figure benchmarks);
hits stream through ``on_cell`` exactly like fresh results.  See
``docs/store.md`` for the full contract.
"""

from .fingerprint import (
    ENGINE_VERSION,
    SCHEMA_VERSION,
    Unfingerprintable,
    canonicalize,
    fingerprint_cell,
)
from .serialize import Unstorable, decode_result, encode_result
from .store import (
    DEFAULT_STORE_DIR,
    MISS,
    CampaignStore,
    atomic_write_text,
    resolve_store,
    store_from_env,
)

__all__ = [
    "SCHEMA_VERSION",
    "ENGINE_VERSION",
    "Unfingerprintable",
    "canonicalize",
    "fingerprint_cell",
    "Unstorable",
    "encode_result",
    "decode_result",
    "MISS",
    "DEFAULT_STORE_DIR",
    "CampaignStore",
    "resolve_store",
    "store_from_env",
    "atomic_write_text",
]
