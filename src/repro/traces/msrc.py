"""MSRC block-trace I/O.

The paper evaluates on the Microsoft Research Cambridge block traces
(SNIA IOTTA).  Those CSVs have the schema::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

with ``Timestamp`` in Windows filetime ticks (100 ns units), ``Offset``
and ``Size`` in bytes.  This module converts between that format and the
repo-native :class:`~repro.hss.request.Request` list, so users who *do*
have the real traces can feed them straight into the harness, and the
synthetic generator can export its traces for inspection.
"""

from __future__ import annotations

import csv
import heapq
import io
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..hss.request import PAGE_SIZE_BYTES, OpType, Request

__all__ = [
    "load_msrc_csv",
    "dump_msrc_csv",
    "parse_msrc_rows",
    "iter_msrc_csv",
    "StreamingMSRCTrace",
]

#: Windows filetime resolution: 100 ns per tick.
_TICKS_PER_SECOND = 10_000_000

#: Default look-ahead of the streaming reader's reordering buffer.
DEFAULT_REORDER_WINDOW = 4096


def parse_msrc_rows(rows: Iterable[List[str]]) -> List[Request]:
    """Convert parsed CSV rows into a normalised, time-sorted trace.

    Timestamps are rebased so the first request issues at t=0; byte
    offsets/sizes become 4 KiB page numbers/counts (sizes round up).
    """
    raw = []
    for row in rows:
        if not row or row[0].startswith("#"):
            continue
        if len(row) < 6:
            raise ValueError(f"malformed MSRC row (need >= 6 fields): {row!r}")
        ticks = int(row[0])
        op = OpType.parse(row[3])
        offset = int(row[4])
        size = int(row[5])
        if size <= 0:
            continue  # zero-byte control requests appear in some traces
        raw.append((ticks, op, offset, size))
    if not raw:
        return []
    raw.sort(key=lambda r: r[0])
    t0 = raw[0][0]
    requests = []
    for ticks, op, offset, size in raw:
        page = offset // PAGE_SIZE_BYTES
        n_pages = max(1, -(-size // PAGE_SIZE_BYTES))  # ceil div
        requests.append(
            Request(
                timestamp=(ticks - t0) / _TICKS_PER_SECOND,
                op=op,
                page=page,
                size=n_pages,
            )
        )
    return requests


def load_msrc_csv(path: Union[str, Path, io.TextIOBase]) -> List[Request]:
    """Load an MSRC-format CSV file (or open text handle) into a trace."""
    if isinstance(path, io.TextIOBase):
        return parse_msrc_rows(csv.reader(path))
    with open(path, newline="") as handle:
        return parse_msrc_rows(csv.reader(handle))


def iter_msrc_csv(
    path: Union[str, Path],
    reorder_window: int = DEFAULT_REORDER_WINDOW,
) -> Iterator[Request]:
    """Stream an MSRC-format CSV as requests, one at a time.

    The full-length MSRC captures run to tens of millions of rows;
    materialising them (``load_msrc_csv``) costs gigabytes of request
    objects.  This iterator holds at most ``reorder_window`` pending
    rows: a bounded min-heap on (timestamp, row index) that re-sorts the
    mild timestamp jitter real captures exhibit.  Whenever every row
    sits within ``reorder_window`` positions of its globally sorted
    position — true for the published traces — the emitted sequence is
    exactly ``load_msrc_csv``'s (same stable timestamp order, same
    ``t=0`` rebase to the first emitted request).

    Feed it to ``run_policy``/``run_lanes`` directly, or wrap it in
    :class:`StreamingMSRCTrace` when the harness needs a sized,
    re-iterable source.

    The file opens lazily on the first ``next()`` and is closed in a
    ``finally`` the moment the generator ends — exhaustion, the
    reorder-window ``ValueError``, an explicit ``.close()``, or garbage
    collection of an abandoned generator all release the handle.
    Callers that stop consuming early (e.g. a truncating wrapper)
    should ``.close()`` the generator rather than leave the handle's
    lifetime to the collector.
    """
    if reorder_window < 1:
        raise ValueError("reorder_window must be >= 1")

    def entries(handle) -> Iterator[tuple]:
        for index, row in enumerate(csv.reader(handle)):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 6:
                raise ValueError(
                    f"malformed MSRC row (need >= 6 fields): {row!r}"
                )
            size = int(row[5])
            if size <= 0:
                continue  # zero-byte control requests appear in some traces
            yield int(row[0]), index, OpType.parse(row[3]), int(row[4]), size

    def emit(entry: tuple, t0: int) -> Request:
        ticks, _, op, offset, size = entry
        return Request(
            timestamp=(ticks - t0) / _TICKS_PER_SECOND,
            op=op,
            page=offset // PAGE_SIZE_BYTES,
            size=max(1, -(-size // PAGE_SIZE_BYTES)),  # ceil div
        )

    handle = None
    try:
        handle = open(path, newline="")
        heap: List[tuple] = []
        t0: Optional[int] = None
        last: Optional[int] = None
        for entry in entries(handle):
            if len(heap) < reorder_window:
                heapq.heappush(heap, entry)
                continue
            smallest = heapq.heappushpop(heap, entry)
            if t0 is None:
                t0 = smallest[0]
            if last is not None and smallest[0] < last:
                raise ValueError(
                    f"MSRC row at ticks {smallest[0]} arrived more than "
                    f"reorder_window={reorder_window} rows out of order; "
                    f"raise the window or sort the file"
                )
            last = smallest[0]
            yield emit(smallest, t0)
        while heap:
            smallest = heapq.heappop(heap)
            if t0 is None:
                t0 = smallest[0]
            yield emit(smallest, t0)
    finally:
        if handle is not None:
            handle.close()


class StreamingMSRCTrace:
    """Sized, re-iterable streaming view of an on-disk MSRC trace.

    Quacks enough like a sequence for the whole harness — ``len()`` (one
    cached counting pass), iteration (re-reads the file each time, so
    independent simulation lanes can stream the same trace
    concurrently), and a cheap ``fingerprint`` for the Fast-Only
    reference cache — while holding only the reader's reorder window in
    memory.  Pass ``"msrc:<path>"`` as a workload name to the sweep
    functions in :mod:`repro.sim.experiment` to use one as a cell's
    trace source.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_requests: Optional[int] = None,
        reorder_window: int = DEFAULT_REORDER_WINDOW,
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"no MSRC trace at {self.path}")
        if max_requests is not None and max_requests < 1:
            raise ValueError("max_requests must be >= 1 or None")
        self.max_requests = max_requests
        self.reorder_window = reorder_window
        self._length: Optional[int] = None
        self._working_set: Optional[int] = None

    def __iter__(self) -> Iterator[Request]:
        stream = iter_msrc_csv(self.path, reorder_window=self.reorder_window)
        if self.max_requests is not None:
            return self._truncate(stream, self.max_requests)
        return stream

    @staticmethod
    def _truncate(stream: Iterator[Request], limit: int) -> Iterator[Request]:
        """``islice`` that closes the source at the truncation point.

        A bare ``islice`` leaves the underlying generator suspended
        inside its open file once the limit is hit, pinning the handle
        until garbage collection; simulation lanes hold their iterators
        for a whole run, so truncated streaming lanes would each keep a
        stale descriptor open.  The ``finally`` also covers a consumer
        abandoning *this* wrapper and a pass failing mid-file, so the
        trace is always re-iterable afterwards with no handle left
        behind.
        """
        try:
            remaining = limit
            for request in stream:
                yield request
                remaining -= 1
                if remaining <= 0:
                    return
        finally:
            stream.close()

    def __len__(self) -> int:
        if self._length is None:
            self._length = sum(1 for _ in self)
        return self._length

    def count_working_set_pages(self) -> int:
        """Distinct pages touched, memoised: the HSS-sizing pass runs
        once per trace object, not once per simulation lane sharing it
        (see :func:`repro.traces.stats.working_set_pages`)."""
        if self._working_set is None:
            pages = set()
            count = 0
            for req in self:
                pages.update(req.pages)
                count += 1
            self._working_set = len(pages)
            self._length = count  # same pass, free length
        return self._working_set

    @property
    def fingerprint(self) -> tuple:
        """Value identity without reading the file (reference cache key)."""
        stat = self.path.stat()
        return (
            "msrc",
            str(self.path),
            stat.st_size,
            stat.st_mtime_ns,
            self.max_requests,
            self.reorder_window,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingMSRCTrace({str(self.path)!r}, "
            f"max_requests={self.max_requests})"
        )


def dump_msrc_csv(
    requests: Iterable[Request],
    path: Union[str, Path, io.TextIOBase],
    hostname: str = "synthetic",
    disk: int = 0,
) -> None:
    """Write a trace in MSRC CSV format (for interoperability/inspection)."""

    def _write(handle) -> None:
        writer = csv.writer(handle)
        for req in requests:
            writer.writerow(
                [
                    int(round(req.timestamp * _TICKS_PER_SECOND)),
                    hostname,
                    disk,
                    "Read" if req.is_read else "Write",
                    req.page * PAGE_SIZE_BYTES,
                    req.size * PAGE_SIZE_BYTES,
                    0,
                ]
            )

    if isinstance(path, io.TextIOBase):
        _write(path)
    else:
        with open(path, "w", newline="") as handle:
            _write(handle)
