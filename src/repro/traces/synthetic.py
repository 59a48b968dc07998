"""Synthetic trace generator calibrated to published workload statistics.

The real MSRC traces are a gated SNIA download, so we generate traces
that match the per-workload
statistics the paper publishes in Table 4 — write ratio, average request
size, average per-page access count, working-set size — plus the
qualitative structure the paper highlights:

* **Hot/cold skew** (Fig. 3): page popularity follows a Zipf law whose
  exponent is tuned from the average access count.
* **Sequential runs** (randomness axis of Fig. 3): requests continue the
  previous address run with a probability derived from the average
  request size, so large-average-size workloads look sequential.
* **Dynamic phases** (Fig. 4): the hot set is re-drawn every
  ``phase_requests`` requests, and write-burst phases modulate the
  read/write mix, reproducing the "highly dynamic behaviour throughout
  execution" the paper observes.

Everything is driven by an explicit seed: the same spec + seed always
yields the identical trace.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..hss.request import OpType, Request
from .workloads import WorkloadSpec

__all__ = ["WorkloadSpec", "SyntheticTraceGenerator", "generate_trace"]


class SyntheticTraceGenerator:
    """Generate a :class:`Request` trace matching a :class:`WorkloadSpec`.

    Parameters
    ----------
    spec:
        Target workload statistics.
    n_requests:
        Number of requests to generate.
    seed:
        RNG seed; identical (spec, n_requests, seed) → identical trace.
    phase_requests:
        Requests between hot-set reshuffles (Fig. 4 dynamics).
    mean_interarrival_s:
        Mean host compute gap between requests.
    address_space_pages:
        Total logical address span the working set is scattered over.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        n_requests: int = 20_000,
        seed: int = 0,
        phase_requests: int = 4_000,
        mean_interarrival_s: float = 300e-6,
        address_space_pages: Optional[int] = None,
    ) -> None:
        if n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if phase_requests <= 0:
            raise ValueError("phase_requests must be positive")
        if mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be positive")
        self.spec = spec
        self.n_requests = n_requests
        self.seed = seed
        self.phase_requests = phase_requests
        self.mean_interarrival_s = mean_interarrival_s

        avg_pages = spec.avg_request_pages
        # Choose the unique-page pool so that total page touches / pool
        # size ≈ the target average access count.
        pool = int(round(n_requests * avg_pages / spec.avg_access_count))
        self.pool_pages = max(64, pool)
        self.address_space_pages = address_space_pages or max(
            self.pool_pages * 4, 1 << 16
        )
        # Zipf skew: hotter workloads get a steeper popularity law.
        self.zipf_s = float(np.clip(0.4 + 0.18 * np.log2(spec.avg_access_count + 1.0), 0.4, 1.6))
        # Probability of extending a sequential run, from the average
        # request size: sequential workloads re-use long runs.
        self.p_sequential = float(
            np.clip((spec.avg_request_size_kib - 4.0) / 64.0, 0.02, 0.85)
        )

    # ----------------------------------------------------------- internals
    def _popularity(self, rng: np.random.Generator) -> np.ndarray:
        """Zipf pmf over region indices."""
        n_regions = max(8, self.pool_pages // 32)
        ranks = np.arange(1, n_regions + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        return weights / weights.sum()

    def _region_bases(self, rng: np.random.Generator) -> np.ndarray:
        """Scatter region base addresses over the logical space."""
        n_regions = max(8, self.pool_pages // 32)
        region_span = max(32, self.pool_pages // n_regions)
        bases = rng.choice(
            max(1, self.address_space_pages - region_span),
            size=n_regions,
            replace=self.address_space_pages - region_span < n_regions,
        )
        return bases.astype(np.int64)

    def _request_size_pages(self, rng: np.random.Generator) -> int:
        """Sample a size with the spec's mean (geometric, ≥ 1 page)."""
        mean = max(1.0, self.spec.avg_request_pages)
        if mean <= 1.0:
            return 1
        size = 1 + rng.geometric(1.0 / mean)
        return int(min(size, 256))

    # ------------------------------------------------------------ generate
    def generate(self) -> List[Request]:
        rng = np.random.default_rng(self.seed)
        # ``Generator.choice(n, p=probs)`` re-validates and re-cumsums the
        # pmf on every call; its draw is exactly this CDF lookup on one
        # ``random()``, so hoisting the CDF keeps the RNG stream — and
        # therefore every trace — request-for-request identical.
        cdf = self._popularity(rng).cumsum()
        cdf /= cdf[-1]
        bases = self._region_bases(rng)
        n_regions = len(bases)
        region_span = max(32, self.pool_pages // n_regions)
        # Rank→region permutation, reshuffled each phase (Fig. 4).
        perm = rng.permutation(n_regions)

        requests: List[Request] = []
        clock = 0.0
        cur_page = int(bases[perm[0]])
        write_burst = False
        for i in range(self.n_requests):
            if i > 0 and i % self.phase_requests == 0:
                perm = rng.permutation(n_regions)
                # Occasionally flip into/out of a write-heavy phase.
                write_burst = rng.random() < 0.3
            size = self._request_size_pages(rng)
            if rng.random() < self.p_sequential:
                page = cur_page  # continue the current run
            else:
                rank = cdf.searchsorted(rng.random(), side="right")
                region = perm[rank]
                page = int(bases[region]) + int(rng.integers(0, region_span))
            cur_page = page + size

            w = self.spec.write_fraction
            if write_burst:
                w = min(1.0, w * 1.8 + 0.1)
            op = OpType.WRITE if rng.random() < w else OpType.READ
            # Host compute gap scales loosely with request size (bigger
            # transfers tend to follow longer compute, §3).
            gap = rng.exponential(self.mean_interarrival_s) * (
                0.5 + 0.5 * size / max(1.0, self.spec.avg_request_pages)
            )
            clock += gap
            requests.append(Request(timestamp=clock, op=op, page=page, size=size))
        return requests


def generate_trace(
    spec: WorkloadSpec,
    n_requests: int = 20_000,
    seed: int = 0,
    **kwargs,
) -> List[Request]:
    """Convenience wrapper: build a generator and produce the trace."""
    return SyntheticTraceGenerator(
        spec, n_requests=n_requests, seed=seed, **kwargs
    ).generate()
