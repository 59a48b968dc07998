"""The durable campaign store: crash-safe on-disk cache of cell results.

:class:`CampaignStore` persists every finished sweep cell under a
store directory (default ``.sibyl-store/``) keyed by its content
fingerprint (:mod:`repro.store.fingerprint`):

```text
.sibyl-store/
    store.json            # informational: schema + engine versions
    cells/<fp[:2]>/<fp>.json   # one atomic JSON blob per cell result
    index.jsonl           # append-only listing (advisory, rebuildable)
    journals/<grid>.json  # one journal per campaign grid
```

Durability model — every guarantee a mid-campaign ``kill -9`` needs:

* **Atomic blobs.**  A cell blob is written to a temp file in the same
  directory, flushed, fsynced, then ``os.replace``d into place; readers
  only ever see a complete blob or no blob.
* **Advisory index.**  ``index.jsonl`` is appended one line per stored
  cell for cheap listing; the blob files are authoritative, so a torn
  tail line (the one write that is *not* atomic) is skipped on read and
  :meth:`CampaignStore.rebuild_index` regenerates the file from blobs.
* **Corruption never propagates.**  A truncated or garbage blob, index
  line, or journal is logged at ``WARNING`` (logger ``repro.store``),
  treated as a miss, and recomputed — it cannot crash a campaign or
  poison a report (``tests/store/test_corruption.py``).
* **Versioned addressing.**  The schema and engine versions are folded
  into every fingerprint, so a schema/engine bump orphans old blobs
  instead of misreading them.

The cache contract mirrors the repo's bit-identity guarantee: a stored
result decodes to exactly the object the cell function returned
(:mod:`repro.store.serialize`), so warm campaigns render byte-identical
reports to cold ones.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Union

from .. import knobs
from .fingerprint import (
    ENGINE_VERSION,
    SCHEMA_VERSION,
    Unfingerprintable,
    fingerprint_cell,
)
from .journal import CampaignJournal, load_journal, write_journal
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
    new content, never a torn file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class CampaignStore:
    """Content-addressed, crash-safe cache of campaign cell results.

    Construct one over a directory and hand it to any sweep
    (``store=`` on every :mod:`repro.sim.experiment` sweep, threaded
    through :func:`repro.sim.parallel.run_many`/``iter_many``): cells
    whose fingerprint is already stored are served from disk without a
    single simulation tick, freshly computed cells are persisted the
    moment they finish, and an interrupted campaign resumes by
    dispatching only its missing cells.

    ``hits`` / ``misses`` / ``puts`` count this instance's traffic —
    pure observation for tests and progress reporting, never behaviour.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.journals_dir = self.root / "journals"
        self.index_path = self.root / "index.jsonl"
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._described = False

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

    def contains(self, fingerprint: str) -> bool:
        """Whether a valid-looking blob exists for this fingerprint."""
        return self._blob_path(fingerprint).is_file()

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
        """Persist one finished cell atomically; ``False`` if unstorable.

        Never raises on content problems: a result outside the
        serialiser's closed set is logged and skipped, and the campaign
        continues uncached for that cell.
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
            self._append_index(fingerprint, payload["fn"], payload["key"])
            self._describe()
        except OSError as exc:
            logger.warning(
                "store write failed for cell %r (%s); continuing uncached",
                key,
                exc,
            )
            return False
        self.puts += 1
        return True

    # -------------------------------------------------------------- index
    def _append_index(
        self, fingerprint: str, fn: Optional[str], key: str
    ) -> None:
        line = json.dumps(
            {"fingerprint": fingerprint, "fn": fn, "key": key}
        )
        self.index_path.parent.mkdir(parents=True, exist_ok=True)
        # Single buffered write of one line: a crash can tear at most
        # the final line, which readers skip (blobs stay authoritative).
        with open(self.index_path, "a") as handle:
            handle.write(line + "\n")

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Stream the advisory index; torn/garbage lines are skipped."""
        try:
            handle = open(self.index_path)
        except OSError:
            return
        with handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    entry["fingerprint"]  # required field
                except (ValueError, TypeError, KeyError):
                    logger.warning(
                        "skipping corrupt index line %s:%d",
                        self.index_path,
                        lineno,
                    )
                    continue
                yield entry

    def rebuild_index(self) -> int:
        """Regenerate ``index.jsonl`` from the authoritative blobs.

        Returns the number of valid blobs indexed.  Invalid blobs are
        logged and skipped exactly as :meth:`get` would skip them.
        """
        lines: List[str] = []
        for blob in sorted(self.cells_dir.glob("*/*.json")):
            try:
                payload = json.loads(blob.read_text())
                entry = {
                    "fingerprint": payload["fingerprint"],
                    "fn": payload.get("fn"),
                    "key": payload.get("key"),
                }
            except (OSError, ValueError, TypeError, KeyError) as exc:
                logger.warning(
                    "rebuild: skipping corrupt blob %s (%s)", blob, exc
                )
                continue
            lines.append(json.dumps(entry))
        atomic_write_text(
            self.index_path, "".join(line + "\n" for line in lines)
        )
        return len(lines)

    def __len__(self) -> int:
        return sum(1 for _ in self.cells_dir.glob("*/*.json"))

    # ----------------------------------------------------------- journals
    def begin_campaign(
        self, keys: Sequence[Hashable], fingerprints: Sequence[str]
    ) -> CampaignJournal:
        """Record a campaign grid durably *before* dispatching cells.

        Re-running the same grid lands on the same journal file; a
        prior ``"running"`` status means the last attempt was
        interrupted, and the run counter is bumped so the history stays
        visible.  Returns the journal now on disk.
        """
        journal = CampaignJournal.for_grid(keys, fingerprints)
        previous = load_journal(journal.path_in(self.journals_dir))
        if previous is not None and previous.grid == journal.grid:
            journal.runs = previous.runs + 1
            if previous.status != "complete":
                cached = sum(1 for fp in fingerprints if self.contains(fp))
                logger.info(
                    "resuming interrupted campaign %s: %d/%d cells cached",
                    journal.grid[:12],
                    cached,
                    len(journal.cells),
                )
        try:
            write_journal(journal, self.journals_dir)
        except OSError as exc:
            logger.warning(
                "could not persist campaign journal (%s); continuing", exc
            )
        return journal

    def finish_campaign(self, journal: CampaignJournal) -> None:
        """Mark a campaign's journal complete (atomic rewrite)."""
        journal.status = "complete"
        try:
            write_journal(journal, self.journals_dir)
        except OSError as exc:
            logger.warning(
                "could not persist campaign journal (%s); continuing", exc
            )

    # ------------------------------------------------------------- plumbing
    def _describe(self) -> None:
        """Drop an informational ``store.json`` next to the data once."""
        if self._described:
            return
        self._described = True
        marker = self.root / "store.json"
        if not marker.exists():
            atomic_write_text(
                marker,
                json.dumps(
                    {"schema": SCHEMA_VERSION, "engine": ENGINE_VERSION},
                    indent=1,
                )
                + "\n",
            )

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
