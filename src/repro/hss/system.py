"""The hybrid storage system: unified address space, placement, migration.

This is the environment Sibyl interacts with (Fig. 6).  It owns:

* an ordered list of devices, **fastest first** (``H&M`` → ``[H, M]``);
* per-device usable capacities (the paper restricts the fast device to a
  fraction of the workload's working-set size so that evictions occur);
* the logical-page mapping table and the victim-selection policy;
* promotion / eviction / migration mechanics with full latency
  accounting, so that the per-request latency the policy observes
  embeds queueing delays, GC stalls, and background migration traffic.

``serve(request, action)`` is the single entry point: the policy decides
the target device for the requested data (the RL *action*), and the HSS
returns a :class:`ServeResult` carrying the foreground latency and the
eviction information the reward function needs (Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .device import StorageDevice
from .eviction import LRUVictimSelector, VictimSelector
from .hdd import HDDDevice
from .mapping import PageTable
from .request import OpType, Request
from .ssd import SSDDevice
from .tracking import PageAccessTracker

__all__ = ["ServeResult", "HSSStats", "HybridStorageSystem"]


def _contiguous_runs(sorted_pages: Sequence[int]):
    """Yield (start, length) for maximal contiguous runs of page numbers."""
    start = None
    prev = None
    length = 0
    for page in sorted_pages:
        if start is None:
            start, prev, length = page, page, 1
        elif page == prev + 1:
            prev, length = page, length + 1
        else:
            yield start, length
            start, prev, length = page, page, 1
    if start is not None:
        yield start, length


@dataclass(frozen=True, slots=True)
class ServeResult:
    """Outcome of serving one request.

    ``latency_s`` is the foreground request latency (the paper's ``L_t``)
    and ``eviction_time_s`` is the time spent evicting pages triggered by
    this request (the paper's ``L_e``), both feeding Eq. 1.

    ``action`` and ``pages_written_to_action`` support the endurance
    extension sketched in §11 ("to optimize for endurance, one might use
    the number of writes to an endurance-critical device in the reward
    function"): they record which device the policy targeted and how
    many pages this request programmed onto it (foreground write or
    read-triggered migration).
    """

    latency_s: float
    device: int
    eviction_occurred: bool
    eviction_time_s: float
    evicted_pages: int
    promoted_pages: int
    demoted_pages: int
    action: int = 0
    pages_written_to_action: int = 0


@dataclass(slots=True)
class HSSStats:
    """System-level counters for one simulation run."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    total_latency_s: float = 0.0
    eviction_events: int = 0
    evicted_pages: int = 0
    promoted_pages: int = 0
    demoted_pages: int = 0
    eviction_time_s: float = 0.0
    last_completion_s: float = 0.0
    placements: List[int] = field(default_factory=list)

    def reset(self, n_devices: int) -> None:
        self.requests = 0
        self.reads = 0
        self.writes = 0
        self.total_latency_s = 0.0
        self.eviction_events = 0
        self.evicted_pages = 0
        self.promoted_pages = 0
        self.demoted_pages = 0
        self.eviction_time_s = 0.0
        self.last_completion_s = 0.0
        self.placements = [0] * n_devices

    @property
    def avg_latency_s(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_latency_s / self.requests

    @property
    def iops(self) -> float:
        """Closed-loop IOPS: requests per second of foreground latency.

        See :meth:`HybridStorageSystem.throughput_iops` for the
        device-parallel throughput used by the Fig. 10 benchmark.
        """
        if self.requests == 0 or self.total_latency_s <= 0.0:
            return 0.0
        return self.requests / self.total_latency_s

    @property
    def eviction_fraction(self) -> float:
        """Eviction events per storage request (Fig. 18's metric)."""
        if self.requests == 0:
            return 0.0
        return self.eviction_events / self.requests


class HybridStorageSystem:
    """An N-device hybrid storage system with a flat logical address space.

    Parameters
    ----------
    devices:
        Ordered device list, fastest first.
    capacity_pages:
        Usable capacity per device in pages; ``None`` means unbounded
        (typically the last device).  The paper sets the fast device to
        10% of the workload's working set (§3) and, for tri-HSS, H to 5%
        and M to 10% (§8.7).
    victim_selector:
        Strategy for choosing eviction victims; defaults to LRU.
    tracker:
        Optional shared :class:`PageAccessTracker`; created if omitted.
    eviction_slack_pages:
        Extra victims evicted beyond the strictly needed amount, to
        amortise eviction cost over bursts.
    """

    def __init__(
        self,
        devices: Sequence[StorageDevice],
        capacity_pages: Sequence[Optional[int]],
        victim_selector: Optional[VictimSelector] = None,
        tracker: Optional[PageAccessTracker] = None,
        eviction_slack_pages: int = 0,
    ) -> None:
        if not devices:
            raise ValueError("need at least one device")
        if len(capacity_pages) != len(devices):
            raise ValueError("capacity_pages must match devices")
        for i, cap in enumerate(capacity_pages):
            if cap is not None and cap <= 0:
                raise ValueError(f"capacity for device {i} must be positive or None")
        if eviction_slack_pages < 0:
            raise ValueError("eviction_slack_pages must be >= 0")
        self.devices = list(devices)
        self.capacity_pages = list(capacity_pages)
        self.victim_selector: VictimSelector = victim_selector or LRUVictimSelector()
        self.tracker = tracker if tracker is not None else PageAccessTracker()
        self.eviction_slack_pages = eviction_slack_pages
        self.table = PageTable(len(devices))
        self.stats = HSSStats()
        self.stats.reset(len(devices))
        # Device-type dispatch flags, hoisted out of the per-request
        # path (isinstance checks on every access add up).
        self._is_hdd = [isinstance(d, HDDDevice) for d in self.devices]
        self._ssd = [d if isinstance(d, SSDDevice) else None for d in self.devices]
        # Effective utilisation denominators (usable capacity, falling
        # back to the raw device capacity when unbounded), hoisted out
        # of _update_utilization — it runs on every placement/eviction.
        self._util_cap = [
            (
                self.capacity_pages[i]
                if self.capacity_pages[i] is not None
                else (dev.spec.capacity_pages if dev is not None else None)
            )
            for i, dev in enumerate(self._ssd)
        ]

    # ------------------------------------------------------------- helpers
    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def slowest(self) -> int:
        return self.n_devices - 1

    @property
    def fastest(self) -> int:
        return 0

    def used_pages(self, device: int) -> int:
        return self.table.used_pages(device)

    def free_pages(self, device: int) -> Optional[int]:
        cap = self.capacity_pages[device]
        if cap is None:
            return None
        return cap - self.table.used_pages(device)

    def remaining_capacity_fraction(self, device: int) -> float:
        """Free fraction of the device's usable capacity (1.0 if unbounded)."""
        cap = self.capacity_pages[device]
        if cap is None:
            return 1.0
        return max(0.0, (cap - self.table.used_pages(device)) / cap)

    def page_location(self, page: int) -> Optional[int]:
        return self.table.location(page)

    def _update_utilization(self, device: int) -> None:
        dev = self._ssd[device]
        if dev is not None:
            dev.utilization = min(
                1.0, self.table.used_pages(device) / self._util_cap[device]
            )

    def _point_head(self, device: int, page: int) -> None:
        if self._is_hdd[device]:
            self.devices[device].target_page = page

    # ------------------------------------------------------------ eviction
    def _evict(self, device: int, n_pages: int, now: float) -> float:
        """Evict ``n_pages`` victims from ``device`` to the next device.

        Returns the total eviction time (read victims + write them out),
        cascading recursively if the destination also overflows.
        """
        destination = device + 1
        if destination >= self.n_devices:
            raise RuntimeError(
                "cannot evict from the slowest device; its capacity should "
                "be None (unbounded)"
            )
        victims = self.victim_selector.select(self.table, device, n_pages)
        if not victims:
            return 0.0
        if self.capacity_pages[destination] is None:
            cascade_time = 0.0  # unbounded destination never overflows
        else:
            cascade_time = self._ensure_capacity(destination, len(victims), now)
        # Victims are moved run-by-run: contiguous pages migrate as one
        # transfer, scattered victims each pay the per-access overhead —
        # eviction of a cold random working set is expensive, which is
        # the dynamic behind the paper's eviction penalty (Eq. 1).
        read_time = 0.0
        write_time = 0.0
        for run_start, run_len in _contiguous_runs(sorted(victims)):
            self._point_head(device, run_start)
            read_time += self.devices[device].background_access(
                now, OpType.READ, run_len
            )
            self._point_head(destination, run_start)
            write_time += self.devices[destination].background_access(
                now, OpType.WRITE, run_len
            )
        move = self.table.move
        for page in victims:
            move(page, destination)
        self._update_utilization(device)
        self._update_utilization(destination)
        stats = self.stats
        stats.eviction_events += 1
        stats.evicted_pages += len(victims)
        return cascade_time + read_time + write_time

    def _ensure_capacity(self, device: int, incoming: int, now: float) -> float:
        """Make room for ``incoming`` pages on ``device``; return L_e."""
        cap = self.capacity_pages[device]
        if cap is None:
            return 0.0
        used = self.table.used_pages(device)
        overflow = used + incoming - cap
        if overflow <= 0:
            return 0.0
        n_victims = min(overflow + self.eviction_slack_pages, used)
        if n_victims <= 0:
            return 0.0
        return self._evict(device, n_victims, now)

    # --------------------------------------------------------------- serve
    def serve(
        self, request: Request, action: int, now: Optional[float] = None
    ) -> ServeResult:
        """Serve ``request``, placing its data on device ``action``.

        ``now`` overrides the request's trace timestamp as the issue
        time; the runner uses this for closed-loop replay (the next
        request issues no earlier than the previous one completed),
        matching how block traces are replayed on real systems.

        Semantics (matching the paper's block-layer integration, §5-6):

        * **Write**: the data is written directly to the action device;
          stale copies elsewhere are invalidated.  If the action device
          is full, background evictions to the next slower device occur
          first (their latency is ``eviction_time_s``, the reward's L_e).
        * **Read**: served from wherever the pages currently reside
          (lazily initialised to the slowest device — data starts in the
          capacity tier).  If the action device differs, the pages are
          then migrated in the background (promotion or demotion).
        """
        if not 0 <= action < self.n_devices:
            raise ValueError(f"action {action} out of range [0, {self.n_devices})")
        if now is None:
            now = request.timestamp
        table = self.table
        location = table.location
        stats = self.stats
        pages = request.pages
        is_write = request.is_write
        eviction_time = 0.0
        promoted = 0
        demoted = 0
        evicted_before = stats.evicted_pages

        if is_write:
            touch = table.touch
            # One pass: count incoming pages and protect the pages being
            # rewritten from victim selection (touch = mark MRU).
            incoming = 0
            for p in pages:
                if location(p) == action:
                    touch(p)
                else:
                    incoming += 1
            if incoming > 0:
                eviction_time += self._ensure_capacity(action, incoming, now)
            self._point_head(action, pages[0])
            latency = self.devices[action].access(now, OpType.WRITE, len(pages))
            place = table.place
            for p in pages:
                place(p, action)
            self._update_utilization(action)
            served_device = action
            pages_written = len(pages)
        else:
            # Group the pages by residency, lazily mapping never-seen
            # pages to the slowest device, for per-device access latency.
            residency: Dict[int, List[int]] = {}
            for p in pages:
                loc = location(p)
                if loc is None:
                    loc = self.slowest
                    table.place(p, loc)
                residency.setdefault(loc, []).append(p)
            groups = sorted(residency.items())
            latency = 0.0
            served_device = action
            touch = table.touch
            for dev_idx, dev_pages in groups:
                self._point_head(dev_idx, dev_pages[0])
                lat = self.devices[dev_idx].access(
                    now, OpType.READ, len(dev_pages)
                )
                if lat >= latency:
                    latency = lat
                    served_device = dev_idx
                for p in dev_pages:
                    touch(p)
            # Apply the placement action: migrate non-resident pages.  The
            # set to move is fixed before _ensure_capacity, whose evictions
            # may push this request's own pages off the action device.
            n_move = len(pages) - len(residency.get(action, ()))
            if n_move:
                eviction_time += self._ensure_capacity(action, n_move, now)
                move = table.move
                for src, src_pages in groups:
                    if src == action:
                        continue
                    # Data was just read; only the write to the target is
                    # new device work.
                    self._point_head(action, src_pages[0])
                    self.devices[action].background_access(
                        now, OpType.WRITE, len(src_pages)
                    )
                    if action < src:
                        promoted += len(src_pages)
                    else:
                        demoted += len(src_pages)
                    for p in src_pages:
                        move(p, action)
                    self._update_utilization(src)
                self._update_utilization(action)
            pages_written = promoted + demoted  # migration programmes

        record = self.tracker.record
        for p in pages:
            record(p)

        stats.requests += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.total_latency_s += latency
        stats.eviction_time_s += eviction_time
        stats.promoted_pages += promoted
        stats.demoted_pages += demoted
        stats.placements[action] += 1
        stats.last_completion_s = max(stats.last_completion_s, now + latency)
        return ServeResult(
            latency_s=latency,
            device=served_device,
            eviction_occurred=eviction_time > 0.0,
            eviction_time_s=eviction_time,
            evicted_pages=stats.evicted_pages - evicted_before,
            promoted_pages=promoted,
            demoted_pages=demoted,
            action=action,
            pages_written_to_action=pages_written,
        )

    # ------------------------------------------------------------- metrics
    def throughput_iops(self) -> float:
        """Replay-rate throughput (Fig. 10's metric).

        The paper replays traces as fast as the storage allows, so idle
        host time compresses away and the completion rate is bounded by
        the busiest device's makespan.  Work a placement policy spreads
        across devices proceeds in parallel, so good placement raises
        throughput beyond what average latency alone implies.
        """
        makespan = max(dev.stats.busy_time_s for dev in self.devices)
        if self.stats.requests == 0 or makespan <= 0.0:
            return 0.0
        return self.stats.requests / makespan

    # --------------------------------------------------------------- reset
    def reset(self) -> None:
        """Return to a pristine state (devices, mapping, counters)."""
        for dev in self.devices:
            dev.reset()
        self.table = PageTable(self.n_devices)
        self.tracker.reset()
        self.stats.reset(self.n_devices)
