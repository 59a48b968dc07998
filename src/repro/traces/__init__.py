"""Trace substrate: MSRC I/O, synthetic generation, catalog, mixing, stats."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".mixer": ["MIXES", "MixSpec", "make_mixed_trace", "mix_traces"],
    ".msrc": ["dump_msrc_csv", "load_msrc_csv", "parse_msrc_rows"],
    ".stats": ["TraceStats", "compute_stats", "timeline", "working_set_pages"],
    ".synthetic": ["SyntheticTraceGenerator", "generate_trace"],
    ".transforms": ["rebase_timestamps", "slice_requests"],
    ".workloads": ["ALL_WORKLOADS", "FILEBENCH_WORKLOADS",
        "MOTIVATION_WORKLOADS", "MSRC_WORKLOADS", "YCSB_WORKLOADS",
        "WorkloadSpec", "get_workload", "make_trace", "workload_names"],
})
