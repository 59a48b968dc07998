"""Simulation harness: runners, experiment sweeps, campaigns, reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".adaptation": ["WindowMetrics", "run_with_timeline"],
    ".campaign": ["SeededResult", "aggregate_seeds", "bootstrap_ci",
        "resolve_seeds", "run_seeded_normalized"],
    ".experiment": ["DEFAULT_WARMUP", "ORACLE_HORIZONS", "buffer_size_sweep",
        "capacity_sweep", "compare_policies", "feature_ablation",
        "hyperparameter_sweep", "mixed_workload_comparison", "run_oracle_best",
        "standard_policies", "tri_hybrid_comparison",
        "unseen_workload_comparison"],
    ".lanes": ["LaneSpec", "run_lanes"],
    ".parallel": ["Cell", "run_grid", "run_many"],
    ".report": ["export_json", "format_band", "format_series", "format_table",
        "geomean", "to_jsonable"],
    ".runner": ["PolicyRun", "RunResult", "build_hss", "normalized_row",
        "reference_row", "run_normalized", "run_policy", "run_reference"],
})
