"""repro — a from-scratch reproduction of Sibyl (ISCA 2022).

Sibyl is an online reinforcement-learning data-placement agent for
hybrid storage systems.  This package provides the agent, the HSS
simulator it runs against, the workload/trace infrastructure, every
baseline the paper compares with, and a benchmark harness regenerating
each table and figure of the paper's evaluation.

Quickstart::

    from repro import SibylAgent, make_trace, run_policy

    trace = make_trace("rsrch_0", n_requests=20_000)
    result = run_policy(SibylAgent(), trace, config="H&M")
    print(result.avg_latency_s, result.iops)
"""

from ._lazy import lazy_exports

#: Folded into every cell fingerprint of the durable campaign store.
__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".baselines": ["ArchivistPolicy", "CDEPolicy", "FastOnlyPolicy",
        "HPSPolicy", "OraclePolicy", "PlacementPolicy", "RNNHSSPolicy",
        "SlowOnlyPolicy", "TriHeuristicPolicy", "available_policies",
        "make_policy"],
    ".core": ["SIBYL_DEFAULT", "SIBYL_OPT", "FeatureExtractor",
        "LatencyReward", "SibylAgent", "SibylHyperParams", "compute_overhead"],
    ".hss": ["HybridStorageSystem", "OpType", "Request", "make_device",
        "make_devices"],
    ".sim": ["RunResult", "build_hss", "format_table", "run_normalized",
        "run_policy"],
    ".traces": ["ALL_WORKLOADS", "MSRC_WORKLOADS", "WorkloadSpec",
        "compute_stats", "generate_trace", "make_mixed_trace", "make_trace"],
})
__all__.append("__version__")
