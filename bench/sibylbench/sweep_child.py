"""The ``sibyl_sweep`` workload's program process.

A hyper-parameter sweep has no CLI verb, so this is the user's script:
import the library, run ``hyperparameter_sweep``, print the series and
export the grid — everything a sweep user pays, interpreter start
included.
"""

from __future__ import annotations

import argparse

from repro.obs.tracer import flush_tracer, install_tracer
from repro.sim.experiment import hyperparameter_sweep
from repro.sim.report import export_json, format_series


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--values", type=float, nargs="+", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--json", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.trace:
        install_tracer(args.trace)
    try:
        grid = hyperparameter_sweep(
            "learning_rate", args.values, workload=args.workload,
            config=args.config, n_requests=args.requests, n_seeds=args.seeds,
            seed=args.seed, max_workers=args.workers,
        )
        print(format_series(
            {value: row["latency"] for value, row in grid.items()},
            label="latency", title=f"learning_rate sweep on {args.workload}",
        ))
        export_json(grid, path=args.json)
    finally:
        flush_tracer()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
