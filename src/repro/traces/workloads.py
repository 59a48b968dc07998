"""Workload catalog: the paper's evaluated traces as generator specs.

Three groups, mirroring §7 "Workloads":

* the fourteen MSRC traces of Table 4 (hyper-parameter tuning set);
* the four FileBench workloads used for the unseen-workload study
  (§8.2) plus YCSB-C, used in the mixed-workload study (Table 5);
* helpers to instantiate any of them as a concrete trace.

The MSRC rows are transcribed verbatim from Table 4.  FileBench/YCSB
personalities are not tabulated in the paper, so we use the standard
personality definitions (fileserver ≈ 50/50 mix of whole-file reads and
writes/appends, oltp_rw ≈ read-heavy small random I/O with log writes,
varmail ≈ small-file sync-heavy mail mix, ntrx_rw ≈ write-heavy
transactional mix, YCSB-C = 100% reads, Zipfian).

The catalog and :class:`WorkloadSpec` are plain data and import no
NumPy — the CLI lists and validates workload names from here; only
:func:`make_trace` loads the generator (:mod:`repro.traces.synthetic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hss.request import PAGE_SIZE_BYTES, Request

__all__ = [
    "WorkloadSpec",
    "MSRC_WORKLOADS",
    "FILEBENCH_WORKLOADS",
    "YCSB_WORKLOADS",
    "ALL_WORKLOADS",
    "MOTIVATION_WORKLOADS",
    "workload_names",
    "get_workload",
    "workload_generator",
    "make_trace",
]

_KIB = 1024


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical fingerprint of one workload (one row of Table 4).

    Attributes
    ----------
    name:
        Workload identifier (``hm_1``, ``prxy_0``, ...).
    write_fraction:
        Fraction of requests that are writes.
    avg_request_size_kib:
        Mean request size in KiB (randomness proxy: larger = more
        sequential, §3).
    avg_access_count:
        Mean accesses per unique page (hotness proxy).
    unique_requests:
        The paper's working-set indicator; used to scale the address
        space when a target request count is chosen.
    source:
        Benchmark suite of origin (``msrc``, ``filebench``, ``ycsb``).
    tuning:
        True for the 14 MSRC workloads used to tune hyper-parameters;
        False for the unseen generalisation set (§8.2).
    """

    name: str
    write_fraction: float
    avg_request_size_kib: float
    avg_access_count: float
    unique_requests: int
    source: str = "msrc"
    tuning: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.avg_request_size_kib < 4.0:
            raise ValueError("avg_request_size_kib must be >= one page (4 KiB)")
        if self.avg_access_count <= 0:
            raise ValueError("avg_access_count must be positive")
        if self.unique_requests <= 0:
            raise ValueError("unique_requests must be positive")

    @property
    def read_fraction(self) -> float:
        return 1.0 - self.write_fraction

    @property
    def avg_request_pages(self) -> float:
        return self.avg_request_size_kib * _KIB / PAGE_SIZE_BYTES

    @property
    def is_sequential(self) -> bool:
        """Paper's cut in Fig. 3: avg request size above ~16 KiB."""
        return self.avg_request_size_kib >= 16.0

    @property
    def is_hot(self) -> bool:
        """Paper's cut in Fig. 3: avg access count above ~10."""
        return self.avg_access_count >= 10.0


#: Table 4 of the paper: (write %, avg request size KiB, avg access
#: count, number of unique requests).
_MSRC_TABLE4 = {
    "hm_1": (0.047, 15.2, 44.5, 6265),
    "mds_0": (0.881, 9.6, 3.5, 31933),
    "prn_1": (0.247, 20.0, 2.6, 6891),
    "proj_0": (0.875, 38.0, 48.3, 1381),
    "proj_2": (0.124, 42.4, 2.9, 27967),
    "proj_3": (0.052, 9.6, 3.6, 19397),
    "prxy_0": (0.969, 7.2, 95.7, 525),
    "prxy_1": (0.345, 12.8, 150.1, 6845),
    "rsrch_0": (0.907, 9.2, 34.7, 5504),
    "src1_0": (0.436, 43.2, 12.7, 13640),
    "stg_1": (0.363, 40.8, 1.1, 3787),
    "usr_0": (0.596, 22.8, 19.7, 2138),
    "wdev_2": (0.999, 8.0, 17.7, 4270),
    "web_1": (0.459, 29.6, 1.2, 6095),
}

MSRC_WORKLOADS: Dict[str, WorkloadSpec] = {
    name: WorkloadSpec(
        name=name,
        write_fraction=w,
        avg_request_size_kib=size,
        avg_access_count=cnt,
        unique_requests=uniq,
        source="msrc",
        tuning=True,
    )
    for name, (w, size, cnt, uniq) in _MSRC_TABLE4.items()
}

#: FileBench personalities (unseen workloads, §8.2).
FILEBENCH_WORKLOADS: Dict[str, WorkloadSpec] = {
    "fileserver": WorkloadSpec(
        name="fileserver",
        write_fraction=0.5,
        avg_request_size_kib=32.0,
        avg_access_count=4.0,
        unique_requests=20000,
        source="filebench",
        tuning=False,
    ),
    "ntrx_rw": WorkloadSpec(
        name="ntrx_rw",
        write_fraction=0.8,
        avg_request_size_kib=8.0,
        avg_access_count=30.0,
        unique_requests=4000,
        source="filebench",
        tuning=False,
    ),
    "oltp_rw": WorkloadSpec(
        name="oltp_rw",
        write_fraction=0.25,
        avg_request_size_kib=8.0,
        avg_access_count=60.0,
        unique_requests=3000,
        source="filebench",
        tuning=False,
    ),
    "varmail": WorkloadSpec(
        name="varmail",
        write_fraction=0.55,
        avg_request_size_kib=12.0,
        avg_access_count=12.0,
        unique_requests=8000,
        source="filebench",
        tuning=False,
    ),
}

#: YCSB workload C: 100% reads with Zipfian popularity (Table 5 mixes).
YCSB_WORKLOADS: Dict[str, WorkloadSpec] = {
    "YCSB_C": WorkloadSpec(
        name="YCSB_C",
        write_fraction=0.0,
        avg_request_size_kib=4.0,
        avg_access_count=25.0,
        unique_requests=10000,
        source="ycsb",
        tuning=False,
    ),
}

ALL_WORKLOADS: Dict[str, WorkloadSpec] = {
    **MSRC_WORKLOADS,
    **FILEBENCH_WORKLOADS,
    **YCSB_WORKLOADS,
}

#: The six workloads shown in the motivation study (Fig. 2).
MOTIVATION_WORKLOADS: List[str] = [
    "hm_1",
    "prn_1",
    "proj_2",
    "prxy_1",
    "usr_0",
    "wdev_2",
]


def workload_names(source: str = "all") -> List[str]:
    """Names in a source group: ``msrc``, ``filebench``, ``ycsb``, ``all``."""
    if source == "all":
        return list(ALL_WORKLOADS)
    return [n for n, s in ALL_WORKLOADS.items() if s.source == source]


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload spec by name."""
    try:
        return ALL_WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(ALL_WORKLOADS)}"
        ) from None


def workload_generator(name: str, n_requests: int = 20_000, seed: int = 0, **kwargs):
    """The :class:`~repro.traces.synthetic.SyntheticTraceGenerator` of a
    named workload, as :func:`make_trace` runs it.

    The seed is offset by a stable per-workload hash so that different
    workloads generated with the same user seed do not share address
    patterns.
    """
    from .synthetic import SyntheticTraceGenerator  # NumPy: only to generate

    spec = get_workload(name)
    offset = sum(ord(c) for c in name)
    return SyntheticTraceGenerator(
        spec, n_requests=n_requests, seed=seed + offset, **kwargs
    )


def make_trace(
    name: str, n_requests: int = 20_000, seed: int = 0, **kwargs
) -> List[Request]:
    """Instantiate a named workload as a concrete request trace."""
    return workload_generator(name, n_requests, seed, **kwargs).generate()
