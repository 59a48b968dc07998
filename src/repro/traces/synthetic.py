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

The per-request draws run in one of two loops over the same
``Generator``.  The compiled one (``sib_draw_trace`` in the library of
:mod:`repro.native`) calls NumPy's own C samplers — the functions
``Generator.random``/``geometric``/``exponential``/``integers`` call —
on the generator's own ``bitgen_t``, in the order of the Python loop,
so its trace is that loop's trace by construction.  Python keeps the
set-up and every phase boundary (the permutation, the write-burst coin)
and calls C once per phase.  The Python loop
(:meth:`SyntheticTraceGenerator._draw_python`) is the reference, and
the path wherever the ``draw`` row of the library's entry table
(:data:`repro.native.library.ENTRIES`) does not resolve.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..hss.request import OpType, Request
from ..obs.tracer import span
from .workloads import WorkloadSpec

__all__ = [
    "WorkloadSpec", "SyntheticTraceGenerator", "TraceColumns", "generate_trace",
]

_OPS = (OpType.READ, OpType.WRITE)


class TraceColumns(NamedTuple):
    """A trace as the compiled draw loop writes it: one array per field
    (``TraceSoA``'s column order)."""

    timestamps: np.ndarray  # float64
    ops: np.ndarray  # uint8, 0=read, 1=write
    pages: np.ndarray  # int64
    sizes: np.ndarray  # int64

    def requests(self) -> List[Request]:
        return [
            Request(t, _OPS[op], page, size)
            for t, op, page, size in zip(
                self.timestamps.tolist(), self.ops.tolist(),
                self.pages.tolist(), self.sizes.tolist(),
            )
        ]


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

    def _next_phase(self, rng: np.random.Generator, n_regions: int):
        """A phase boundary's draws: the new rank→region permutation,
        and whether the phase is write-heavy."""
        perm = rng.permutation(n_regions)
        # Occasionally flip into/out of a write-heavy phase.
        return perm, rng.random() < 0.3

    def _write_probability(self, write_burst: bool) -> float:
        w = self.spec.write_fraction
        if write_burst:
            w = min(1.0, w * 1.8 + 0.1)
        return w

    # ------------------------------------------------------------ generate
    def generate(self) -> List[Request]:
        return self.generate_with_columns()[0]

    def generate_with_columns(
        self,
    ) -> Tuple[List[Request], Optional[TraceColumns]]:
        """The trace, plus its columns when the compiled loop drew it
        (None from the Python loop)."""
        rng = np.random.default_rng(self.seed)
        # ``Generator.choice(n, p=probs)`` re-validates and re-cumsums the
        # pmf on every call; its draw is exactly this CDF lookup on one
        # ``random()``, so hoisting the CDF keeps the RNG stream — and
        # therefore every trace — request-for-request identical.
        cdf = self._popularity(rng).cumsum()
        cdf /= cdf[-1]
        bases = self._region_bases(rng)
        # Rank→region permutation, reshuffled each phase (Fig. 4).
        perm = rng.permutation(len(bases))
        from ..native import library

        draw, why = library.entry("draw")
        engine = {"engine": "cext"} if draw is not None else {
            "engine": "python", "reason": why,
        }
        with span(
            "traces.generate", cat="traces", **engine, requests=self.n_requests,
        ):
            if draw is None:
                return self._draw_python(rng, cdf, bases, perm), None
            columns = self._draw_compiled(draw, rng, cdf, bases, perm)
            return columns.requests(), columns

    def _draw_python(self, rng, cdf, bases, perm) -> List[Request]:
        """The reference loop, one request per iteration."""
        n_regions = len(bases)
        region_span = max(32, self.pool_pages // n_regions)
        requests: List[Request] = []
        clock = 0.0
        cur_page = int(bases[perm[0]])
        write_burst = False
        for i in range(self.n_requests):
            if i > 0 and i % self.phase_requests == 0:
                perm, write_burst = self._next_phase(rng, n_regions)
            size = self._request_size_pages(rng)
            if rng.random() < self.p_sequential:
                page = cur_page  # continue the current run
            else:
                rank = cdf.searchsorted(rng.random(), side="right")
                region = perm[rank]
                page = int(bases[region]) + int(rng.integers(0, region_span))
            cur_page = page + size

            w = self._write_probability(write_burst)
            op = OpType.WRITE if rng.random() < w else OpType.READ
            # Host compute gap scales loosely with request size (bigger
            # transfers tend to follow longer compute, §3).
            gap = rng.exponential(self.mean_interarrival_s) * (
                0.5 + 0.5 * size / max(1.0, self.spec.avg_request_pages)
            )
            clock += gap
            requests.append(Request(timestamp=clock, op=op, page=page, size=size))
        return requests

    def _draw_compiled(self, draw, rng, cdf, bases, perm) -> TraceColumns:
        """:meth:`_draw_python`'s loop in ``sib_draw_trace``, one call
        per phase; the phase boundaries' draws stay here, in between."""
        from ..native import abi, library

        n = self.n_requests
        n_regions = len(bases)
        columns = TraceColumns(
            np.empty(n, dtype=np.float64), np.empty(n, dtype=np.uint8),
            np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
        )
        ci = np.zeros(abi.CI_LEN, dtype=np.int64)
        cd = np.zeros(abi.CD_LEN, dtype=np.float64)
        phase_perm = perm.astype(np.int64)
        mean = max(1.0, self.spec.avg_request_pages)
        ci[abi.CI_TG_PAGE] = bases[perm[0]]
        ci[abi.CI_TG_NREGIONS] = n_regions
        ci[abi.CI_TG_SPAN] = max(32, self.pool_pages // n_regions)
        ci[abi.CI_TG_SIZED] = mean > 1.0  # else _request_size_pages draws nothing
        cd[abi.CD_TG_P_SEQ] = self.p_sequential
        cd[abi.CD_TG_GEOM_P] = 1.0 / mean
        cd[abi.CD_TG_MEAN_GAP] = self.mean_interarrival_s
        cd[abi.CD_TG_SIZE_DIV] = mean
        arrays = [None] * abi.P_NPTR
        arrays[abi.P_CTRL_I] = ci
        arrays[abi.P_CTRL_D] = cd
        arrays[abi.P_TG_CDF] = np.ascontiguousarray(cdf, dtype=np.float64)
        arrays[abi.P_TG_BASES] = bases
        arrays[abi.P_TG_PERM] = phase_perm
        arrays[abi.P_TG_FNS] = np.array(
            (rng.bit_generator.ctypes.bit_generator.value, *draw.resolved),
            dtype=np.uint64,
        )
        for k, column in zip(
            (abi.P_TG_TS, abi.P_TG_OP, abi.P_TG_PAGE, abi.P_TG_SIZE), columns
        ):
            arrays[k] = column
        ptrs = library.bind(arrays)
        write_burst = False
        for begin in range(0, n, self.phase_requests):
            if begin:
                phase_perm[:], write_burst = self._next_phase(rng, n_regions)
            ci[abi.CI_TG_BEGIN] = begin
            ci[abi.CI_TG_END] = min(n, begin + self.phase_requests)
            cd[abi.CD_TG_P_WRITE] = self._write_probability(write_burst)
            draw.call("sib_draw_trace", ptrs, ci)
        return columns


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
