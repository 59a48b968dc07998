#!/usr/bin/env python3
"""Multi-seed confidence bands: quantify run-to-run variance for free.

The paper's figures are single-seed point estimates.  This example runs
the Fig. 9-style policy comparison as an N-seed *campaign*
(``docs/engines.md``, "Campaign engine"): every workload cell runs once
per seed, the seed replicas are extra lanes of the cell's one
``run_lanes`` call, and each metric comes back as a ``SeededResult``
band — mean, std, min/max, and a bootstrap 95% confidence interval —
instead of a bare number.  Per-seed results stream into the report as
each workload completes.

Run:  python examples/confidence_bands.py
"""

from repro.sim.campaign import SeededResult
from repro.sim.experiment import compare_policies
from repro.sim.report import export_json, format_table

N_REQUESTS = 6_000
N_SEEDS = 4
WORKLOADS = ("rsrch_0", "usr_0")


def main() -> None:
    print(
        f"Campaign: {len(WORKLOADS)} workloads x {N_SEEDS} seeds "
        f"({N_REQUESTS} requests each); the seed axis rides the lane "
        f"engine, so this costs little more than a single-seed run.\n"
    )

    def on_cell(workload, _result):
        # Fires as each workload's whole seed axis completes.
        print(f"  [done] {workload}: {N_SEEDS} seeds")

    results = compare_policies(
        list(WORKLOADS),
        config="H&M",
        n_requests=N_REQUESTS,
        n_seeds=N_SEEDS,
        on_cell=on_cell,
    )

    rows = []
    for workload, by_policy in results.items():
        row = {"workload": workload}
        for policy, metrics in by_policy.items():
            row[policy] = metrics["latency"]
        rows.append(row)
    print()
    print(format_table(
        rows,
        title=(
            "Normalized avg request latency vs Fast-Only (H&M) — "
            f"mean ±95% CI over {N_SEEDS} seeds"
        ),
    ))

    band = results[WORKLOADS[0]]["Sibyl"]["latency"]
    assert isinstance(band, SeededResult)
    print(
        f"\nSibyl on {WORKLOADS[0]}: mean {band.mean:.3f}, "
        f"std {band.std:.3f}, 95% CI [{band.ci_lo:.3f}, {band.ci_hi:.3f}], "
        f"seeds {band.seeds}"
    )
    print(f"per-seed values: {[round(v, 3) for v in band.values]}")

    # The same grid exports machine-readably (per-seed values included)
    # for plotting or CI checks:
    json_text = export_json({WORKLOADS[0]: {"Sibyl": band}})
    print(f"\nJSON export excerpt:\n{json_text}")


if __name__ == "__main__":
    main()
