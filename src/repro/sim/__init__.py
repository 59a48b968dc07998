"""Simulation harness: runners, experiment sweeps, campaigns, reporting."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # static readers; at run time a name imports on first access
    from .adaptation import WindowMetrics, run_with_timeline
    from .campaign import (
        SeededResult,
        aggregate_seeds,
        bootstrap_ci,
        resolve_seeds,
        run_seeded_normalized,
    )
    from .experiment import (
        DEFAULT_WARMUP,
        ORACLE_HORIZONS,
        buffer_size_sweep,
        capacity_sweep,
        compare_policies,
        feature_ablation,
        hyperparameter_sweep,
        mixed_workload_comparison,
        run_oracle_best,
        standard_policies,
        tri_hybrid_comparison,
        unseen_workload_comparison,
    )
    from .lanes import LaneSpec, run_lanes
    from .parallel import Cell, iter_many, run_grid, run_many
    from .report import (
        export_json,
        format_band,
        format_series,
        format_table,
        geomean,
        to_jsonable,
    )
    from .runner import (
        PolicyRun,
        RunResult,
        build_hss,
        normalized_row,
        reference_row,
        run_normalized,
        run_policy,
        run_reference,
    )

__all__ = [
    "Cell",
    "DEFAULT_WARMUP",
    "LaneSpec",
    "ORACLE_HORIZONS",
    "PolicyRun",
    "RunResult",
    "SeededResult",
    "WindowMetrics",
    "aggregate_seeds",
    "bootstrap_ci",
    "buffer_size_sweep",
    "build_hss",
    "capacity_sweep",
    "compare_policies",
    "export_json",
    "feature_ablation",
    "format_band",
    "format_series",
    "format_table",
    "geomean",
    "hyperparameter_sweep",
    "iter_many",
    "mixed_workload_comparison",
    "normalized_row",
    "reference_row",
    "resolve_seeds",
    "run_grid",
    "run_lanes",
    "run_many",
    "run_normalized",
    "run_oracle_best",
    "run_policy",
    "run_reference",
    "run_seeded_normalized",
    "run_with_timeline",
    "standard_policies",
    "to_jsonable",
    "tri_hybrid_comparison",
    "unseen_workload_comparison",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptation": ["WindowMetrics", "run_with_timeline"],
    ".campaign": ["SeededResult", "aggregate_seeds", "bootstrap_ci",
        "resolve_seeds", "run_seeded_normalized"],
    ".experiment": ["DEFAULT_WARMUP", "ORACLE_HORIZONS", "buffer_size_sweep",
        "capacity_sweep", "compare_policies", "feature_ablation",
        "hyperparameter_sweep", "mixed_workload_comparison", "run_oracle_best",
        "standard_policies", "tri_hybrid_comparison",
        "unseen_workload_comparison"],
    ".lanes": ["LaneSpec", "run_lanes"],
    ".parallel": ["Cell", "iter_many", "run_grid", "run_many"],
    ".report": ["export_json", "format_band", "format_series", "format_table",
        "geomean", "to_jsonable"],
    ".runner": ["PolicyRun", "RunResult", "build_hss", "normalized_row",
        "reference_row", "run_normalized", "run_policy", "run_reference"],
})
