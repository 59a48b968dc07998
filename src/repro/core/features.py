"""Sibyl's state features (Table 1) and their binned encoding.

For every request Sibyl observes a 6-dimensional tuple

    O_t = (size_t, type_t, intr_t, cnt_t, cap_t, curr_t)

quantised into a small number of bins to shrink the state space (§5):

====== ============================================== ===== ========
feature description                                    bins  encoding
====== ============================================== ===== ========
size_t  request size in pages (sequential vs random)     8   8 bits
type_t  read/write                                       2   4 bits
intr_t  access interval of the requested page           64   8 bits
cnt_t   access count of the requested page              64   8 bits
cap_t   remaining capacity in the fast device            8   8 bits
curr_t  current placement of the requested page          2   4 bits
====== ============================================== ===== ========

For tri-HSS extensibility the paper adds "the remaining capacity in the
M device as a state feature" (§8.7): the extractor emits one capacity
feature per bounded device, so the observation grows to 7 dims for three
devices with no other change.

Fig. 13's ablation labels map onto Table 1 as follows (the paper states
``rt`` and ``ft`` each use "only one feature, just like CDE and HPS
do"; CDE keys on request randomness, HPS on access history):

* ``rt``  — request features only (size_t, type_t)
* ``ft``  — frequency feature only (cnt_t)
* ``mt``  — temporal reuse (intr_t)
* ``pt``  — placement (curr_t)
* capacity features (one per bounded device) belong to ``all`` only.

Every observation computes the full row — size, type, intr, cnt, one cap
per bounded device, curr — and projects it onto the feature set's own
column order, decided once per extractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hss.request import OpType, Request
from ..hss.system import HybridStorageSystem

__all__ = [
    "FeatureSpec",
    "FeatureExtractor",
    "FEATURE_SETS",
    "STATE_ENCODING_BITS",
    "log2_bin",
    "linear_bin",
]

#: Encoding widths from Table 1, used by the overhead analysis (§10.2).
STATE_ENCODING_BITS: Dict[str, int] = {
    "size": 8,
    "type": 4,
    "intr": 8,
    "cnt": 8,
    "cap": 8,
    "curr": 4,
}

#: Fig. 13 feature-set ablation (see module docstring for the mapping).
FEATURE_SETS: Dict[str, Tuple[str, ...]] = {
    "rt": ("size", "type"),
    "ft": ("cnt",),
    "rt+ft": ("size", "type", "cnt"),
    "rt+ft+mt": ("size", "type", "cnt", "intr"),
    "rt+ft+pt": ("size", "type", "cnt", "curr"),
    "all": ("size", "type", "intr", "cnt", "cap", "curr"),
}


def log2_bin(value: float, n_bins: int) -> int:
    """Logarithmic binning: bin i covers [2^i, 2^(i+1)); clamps at the top.

    Values below 1 land in bin 0; "no history" callers pass ``inf`` to
    land in the last bin.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    if value < 1:
        return 0
    if math.isinf(value):
        return n_bins - 1
    return min(n_bins - 1, int(math.log2(value)))


def linear_bin(fraction: float, n_bins: int) -> int:
    """Linear binning of a [0, 1] fraction into ``n_bins`` buckets."""
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    fraction = min(1.0, max(0.0, fraction))
    return min(n_bins - 1, int(fraction * n_bins))


@dataclass(frozen=True)
class FeatureSpec:
    """Bin counts per feature; defaults follow Table 1."""

    size_bins: int = 8
    type_bins: int = 2
    intr_bins: int = 64
    cnt_bins: int = 64
    cap_bins: int = 8
    curr_bins: int = 2  # grows to n_devices automatically

    def __post_init__(self) -> None:
        for field_name in (
            "size_bins",
            "type_bins",
            "intr_bins",
            "cnt_bins",
            "cap_bins",
            "curr_bins",
        ):
            if getattr(self, field_name) < 2:
                raise ValueError(f"{field_name} must be >= 2")


class FeatureExtractor:
    """Turns (request, HSS state) into Sibyl's normalised observation.

    Bin indices are normalised to [0, 1] (``bin / (bins - 1)``) before
    being fed to the network — the paper's "normalizing and casting the
    data to low precision data types" preprocessing step (§6.2.2).
    """

    def __init__(
        self,
        hss: HybridStorageSystem,
        feature_set: str = "all",
        spec: Optional[FeatureSpec] = None,
    ) -> None:
        if feature_set not in FEATURE_SETS:
            raise ValueError(
                f"unknown feature set {feature_set!r}; "
                f"available: {sorted(FEATURE_SETS)}"
            )
        self.hss = hss
        self.feature_set = feature_set
        self.features = FEATURE_SETS[feature_set]
        self.spec = spec or FeatureSpec()
        # One capacity feature per bounded (evictable) device: dual-HSS
        # has one (the fast device), tri-HSS has two (§8.7).
        self._bounded_devices = [
            i
            for i, cap in enumerate(hss.capacity_pages)
            if cap is not None
        ]
        # The column layout, decided once: the full row's columns, then
        # the feature set's own order over them.
        spec = self.spec
        row = [
            ("size", "size", spec.size_bins),
            ("type", "type", spec.type_bins),
            ("intr", "intr", spec.intr_bins),
            ("cnt", "cnt", spec.cnt_bins),
            *(("cap", f"cap[{d}]", spec.cap_bins) for d in self._bounded_devices),
            ("curr", "curr", max(spec.curr_bins, hss.n_devices)),
        ]
        columns = [i for f in self.features for i, c in enumerate(row) if c[0] == f]
        # (feature, name, bins) per observation component.
        self._layout = [row[i] for i in columns]
        self._columns = None if columns == list(range(len(row))) else columns
        # Hot-path caches: bin maxima are a pure function of the layout,
        # so compute them once; log2 bins repeat heavily across requests
        # (page intervals/counts/sizes revisit the same small integers),
        # so memoise them per (feature, value).
        self._maxima_arr = np.array(
            [bins - 1 for _, _, bins in self._layout], dtype=np.float64
        )
        self._size_bin_cache: Dict[int, int] = {}
        self._intr_bin_cache: Dict[float, int] = {}
        self._cnt_bin_cache: Dict[int, int] = {}
        # Full-observation memo: the normalised vector (and its float32
        # serialisation, used by the agent as a dedup/memo key) is a
        # pure function of the bin tuple, and traces revisit a small set
        # of bin tuples heavily.  Arrays handed out are shared and must
        # be treated as immutable (every consumer copies on store).
        self._obs_cache: Dict[tuple, tuple] = {}

    # ---------------------------------------------------------- dimension
    @property
    def n_features(self) -> int:
        return len(self._layout)

    def feature_names(self) -> List[str]:
        return [name for _, name, _ in self._layout]

    # ------------------------------------------------------------ extract
    def bins(self, request: Request) -> List[int]:
        """Raw bin indices for the current request (pre-serve)."""
        return list(self._bins(request))

    def _bins(self, request: Request) -> tuple:
        """Bin indices as a tuple (the observation-memo key): the full
        Table 1 row, projected onto the feature set's columns."""
        hss = self.hss
        tracker = hss.tracker
        page = request.page
        spec = self.spec

        size = request.size
        size_bin = self._size_bin_cache.get(size)
        if size_bin is None:
            size_bin = log2_bin(size, spec.size_bins)
            self._size_bin_cache[size] = size_bin

        interval = tracker.access_interval(page)
        if interval is None:
            interval = float("inf")
        intr_bin = self._intr_bin_cache.get(interval)
        if intr_bin is None:
            intr_bin = log2_bin(interval, spec.intr_bins)
            # Intervals are unbounded; don't let the memo grow past the
            # point where it stops paying for itself.
            if len(self._intr_bin_cache) < 1 << 16:
                self._intr_bin_cache[interval] = intr_bin

        cnt = tracker.access_count(page) + 1
        cnt_bin = self._cnt_bin_cache.get(cnt)
        if cnt_bin is None:
            cnt_bin = log2_bin(cnt, spec.cnt_bins)
            self._cnt_bin_cache[cnt] = cnt_bin

        row = [size_bin, int(request.op == OpType.WRITE), intr_bin, cnt_bin]
        cap_bins = spec.cap_bins
        for d in self._bounded_devices:
            # linear_bin of a fraction already within [0, 1].
            frac = hss.remaining_capacity_fraction(d)
            row.append(cap_bins - 1 if frac >= 1.0 else int(frac * cap_bins))
        loc = hss.page_location(page)
        row.append(hss.slowest if loc is None else loc)
        columns = self._columns
        return tuple(row) if columns is None else tuple(map(row.__getitem__, columns))

    def observe(self, request: Request) -> np.ndarray:
        """Normalised observation vector in [0, 1]^n_features."""
        # All maxima are >= 1 (every bin count is >= 2), so elementwise
        # division by the cached maxima reproduces the per-component
        # ``b / m`` exactly.
        return np.array(self._bins(request), dtype=np.float64) / self._maxima_arr

    def observe_keyed(self, request: Request):
        """``(observation, float32-bytes key)`` with full-vector memoisation.

        The returned array is shared across calls with the same bin
        tuple — callers must not mutate it.  The key equals
        ``np.asarray(obs, np.float32).tobytes()`` and doubles as the
        replay-dedup / action-memo key on the agent's hot path.
        """
        bins = self._bins(request)
        hit = self._obs_cache.get(bins)
        if hit is None:
            obs = np.array(bins, dtype=np.float64) / self._maxima_arr
            hit = (obs, obs.astype(np.float32).tobytes())
            if len(self._obs_cache) < 1 << 16:
                self._obs_cache[bins] = hit
        return hit

    # ------------------------------------------------------------ storage
    def state_bits(self) -> int:
        """Encoded state width in bits (§6.2.1 reports 40 for Table 1)."""
        return sum(STATE_ENCODING_BITS[f] for f, _, _ in self._layout)
