"""Trace substrate: MSRC I/O, synthetic generation, catalog, mixing, stats."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # static readers; at run time a name imports on first access
    from .mixer import MIXES, MixSpec, make_mixed_trace, mix_traces
    from .msrc import dump_msrc_csv, load_msrc_csv, parse_msrc_rows
    from .stats import TraceStats, compute_stats, timeline, working_set_pages
    from .synthetic import SyntheticTraceGenerator, generate_trace
    from .transforms import (
        concatenate,
        filter_ops,
        rebase_timestamps,
        remap_addresses,
        scale_arrival_rate,
        slice_requests,
        slice_time,
    )
    from .workloads import (
        ALL_WORKLOADS,
        FILEBENCH_WORKLOADS,
        MOTIVATION_WORKLOADS,
        MSRC_WORKLOADS,
        YCSB_WORKLOADS,
        WorkloadSpec,
        get_workload,
        make_trace,
        workload_names,
    )

__all__ = [
    "ALL_WORKLOADS",
    "FILEBENCH_WORKLOADS",
    "MIXES",
    "MOTIVATION_WORKLOADS",
    "MSRC_WORKLOADS",
    "MixSpec",
    "SyntheticTraceGenerator",
    "TraceStats",
    "WorkloadSpec",
    "YCSB_WORKLOADS",
    "compute_stats",
    "concatenate",
    "dump_msrc_csv",
    "filter_ops",
    "generate_trace",
    "get_workload",
    "load_msrc_csv",
    "make_mixed_trace",
    "make_trace",
    "mix_traces",
    "parse_msrc_rows",
    "rebase_timestamps",
    "remap_addresses",
    "scale_arrival_rate",
    "slice_requests",
    "slice_time",
    "timeline",
    "workload_names",
    "working_set_pages",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".mixer": ["MIXES", "MixSpec", "make_mixed_trace", "mix_traces"],
    ".msrc": ["dump_msrc_csv", "load_msrc_csv", "parse_msrc_rows"],
    ".stats": ["TraceStats", "compute_stats", "timeline", "working_set_pages"],
    ".synthetic": ["SyntheticTraceGenerator", "generate_trace"],
    ".transforms": ["concatenate", "filter_ops", "rebase_timestamps",
        "remap_addresses", "scale_arrival_rate", "slice_requests",
        "slice_time"],
    ".workloads": ["ALL_WORKLOADS", "FILEBENCH_WORKLOADS",
        "MOTIVATION_WORKLOADS", "MSRC_WORKLOADS", "YCSB_WORKLOADS",
        "WorkloadSpec", "get_workload", "make_trace", "workload_names"],
})
