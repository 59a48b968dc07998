"""The durable campaign store: crash-safe on-disk cache of cell results.

:class:`CampaignStore` persists every finished sweep cell under a
store directory (default ``.sibyl-store/``) keyed by its content
fingerprint (:mod:`repro.store.fingerprint`).  The blobs are the whole
store:

```text
.sibyl-store/
    cells/<fp[:2]>/<fp>.json   # one atomic JSON blob per cell result
```

Nothing else under the root is written or read, so files an older
version left there change nothing.

Durability model — every guarantee a mid-campaign ``kill -9`` needs:

* **Atomic blobs.**  A cell blob is written to a temp file in the same
  directory, flushed, fsynced, then ``os.replace``d into place; readers
  only ever see a complete blob or no blob.  A write that fails (a full
  disk) removes its temp file and leaves the cell uncached.
* **A rerun is the resume.**  Re-running an interrupted sweep derives
  the same fingerprints, finds the blobs of the cells that finished, and
  computes only the rest.
* **Corruption never propagates.**  A truncated or garbage blob is
  logged at ``WARNING`` (logger ``repro.store``), treated as a miss,
  and recomputed — it cannot crash a campaign or poison a report
  (``tests/store/test_corruption.py``).
* **Versioned addressing.**  The schema and engine versions are folded
  into every fingerprint, so a schema/engine bump orphans old blobs
  instead of misreading them.

The cache contract mirrors the repo's bit-identity guarantee: a stored
result decodes to exactly the object the cell function returned
(:mod:`repro.store.serialize`), so warm campaigns render byte-identical
reports to cold ones.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Hashable, Optional, Union

from .. import knobs
from .fingerprint import (
    ENGINE_VERSION,
    SCHEMA_VERSION,
    Unfingerprintable,
    fingerprint_cell,
)
from .serialize import Unstorable, decode_result, encode_result

__all__ = [
    "MISS",
    "DEFAULT_STORE_DIR",
    "CampaignStore",
    "resolve_store",
    "store_from_env",
    "atomic_write_text",
]

logger = logging.getLogger("repro.store")

#: Default store directory (relative to the working directory).
DEFAULT_STORE_DIR = ".sibyl-store"

#: Sentinel for "no stored result" — distinct from any legal cell result.
MISS = object()


def atomic_write_text(path: Path, text: str) -> None:
    """Crash-safe file write: same-directory temp file + ``os.replace``.

    The rename is atomic on POSIX, so concurrent readers (and readers
    after a mid-write crash) see either the old content or the complete
    new content, never a torn file.  If the write fails, the temp file
    is removed before the error propagates, so a full disk does not keep
    the partial bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


class CampaignStore:
    """Content-addressed, crash-safe cache of campaign cell results.

    Construct one over a directory and hand it to any sweep
    (``store=`` on every :mod:`repro.sim.experiment` sweep, threaded
    through :func:`repro.sim.parallel.run_grid`/``run_many``): cells
    whose fingerprint is already stored are served from disk without a
    single simulation tick, freshly computed cells are persisted the
    moment they finish, and an interrupted campaign's rerun dispatches
    only its missing cells.

    ``hits`` / ``misses`` / ``puts`` count this instance's traffic —
    pure observation for tests and progress reporting, never behaviour.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # ------------------------------------------------------------ identity
    def fingerprint(self, fn: Callable, kwargs) -> Optional[str]:
        """Fingerprint of one cell, or ``None`` when uncacheable.

        Uncacheable cells (closure policies, live objects) are logged
        once and simply bypass the store — the campaign still runs.
        """
        try:
            return fingerprint_cell(fn, kwargs)
        except Unfingerprintable as exc:
            logger.info("cell not cacheable (%s); computing uncached", exc)
            return None

    # -------------------------------------------------------------- blobs
    def _blob_path(self, fingerprint: str) -> Path:
        return self.cells_dir / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Any:
        """The stored result for a fingerprint, or :data:`MISS`.

        A truncated or garbage blob is logged, counted as a miss, and
        left for the recompute's ``put`` to overwrite.
        """
        path = self._blob_path(fingerprint)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except (OSError, ValueError) as exc:
            logger.warning(
                "ignoring corrupt store blob %s (%s); recomputing", path, exc
            )
            self.misses += 1
            return MISS
        try:
            if payload["fingerprint"] != fingerprint:
                raise ValueError(
                    f"blob claims fingerprint {payload['fingerprint']!r}"
                )
            if payload["schema"] != SCHEMA_VERSION:
                raise ValueError(f"blob schema {payload['schema']!r}")
            result = decode_result(payload["result"])
        except (KeyError, TypeError, ValueError, Unstorable) as exc:
            logger.warning(
                "ignoring invalid store blob %s (%s); recomputing", path, exc
            )
            self.misses += 1
            return MISS
        self.hits += 1
        return result

    def put(
        self,
        fingerprint: str,
        result: Any,
        fn: Optional[Callable] = None,
        key: Optional[Hashable] = None,
    ) -> bool:
        """Persist one finished cell atomically; ``False`` if not stored.

        Never raises on content or disk problems: a result outside the
        serialiser's closed set, or a write the disk refuses, is logged
        and skipped, and the campaign continues uncached for that cell.
        """
        try:
            encoded = encode_result(result)
        except Unstorable as exc:
            logger.warning("not caching cell %r: %s", key, exc)
            return False
        payload = {
            "schema": SCHEMA_VERSION,
            "engine": ENGINE_VERSION,
            "fingerprint": fingerprint,
            "fn": getattr(fn, "__qualname__", None) and (
                f"{fn.__module__}.{fn.__qualname__}"
            ),
            "key": repr(key),
            "result": encoded,
        }
        # A full or read-only disk must degrade the cache, never abort
        # a campaign that already paid for the simulation.
        try:
            atomic_write_text(
                self._blob_path(fingerprint),
                json.dumps(payload, indent=1) + "\n",
            )
        except OSError as exc:
            logger.warning(
                "store write failed for cell %r (%s); continuing uncached",
                key,
                exc,
            )
            return False
        self.puts += 1
        return True

    def __len__(self) -> int:
        return sum(1 for _ in self.cells_dir.glob("*/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CampaignStore({str(self.root)!r})"


def resolve_store(
    store: Union[None, str, Path, CampaignStore]
) -> Optional[CampaignStore]:
    """Normalise a ``store=`` argument: path-likes open a store, ``None``
    and existing stores pass through."""
    if store is None or isinstance(store, CampaignStore):
        return store
    return CampaignStore(store)


def store_from_env() -> Optional[CampaignStore]:
    """The store ``SIBYL_STORE`` names, or ``None`` if unset.

    ``SIBYL_STORE=/path/to/store`` is how the figure benchmarks (and
    ``repro compare`` without explicit flags) keep repeated runs warm
    without touching their call sites.
    """
    path = knobs.get("SIBYL_STORE")
    return CampaignStore(path) if path else None
