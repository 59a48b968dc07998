"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the workload catalog with Table 4 statistics.
``run``
    Run one policy over one workload and print the metrics.
``compare``
    Run the full Fig. 9 lineup over workloads and print the table.
    ``--seeds N`` runs an N-seed campaign and prints mean ±95%
    confidence bands; ``--json PATH`` exports the machine-readable grid.
    ``--store PATH`` / ``--resume`` / ``--no-store`` control the durable
    campaign store (:mod:`repro.store`): with a store, finished cells
    persist on disk and reruns/resumed campaigns recompute only what is
    missing, rendering byte-identical output.
``overhead``
    Print the §10 overhead analysis.
``export-trace``
    Generate a synthetic workload and write it as an MSRC-format CSV.
``serve``
    Run the online placement daemon (:mod:`repro.serve`): a long-lived
    TCP service speaking newline-delimited JSON on one I/O loop that
    batches concurrent tenants' inference through one fused forward and
    runs each tenant's training event inline, inside the placement that
    triggers it.  Blocks until a client sends ``shutdown`` (or ^C).
``lint``
    Run the Sibyl contract analyzer (:mod:`repro.analysis`) over the
    given paths: static AST checks for the determinism, env-knob, and
    fork-safety invariants.  Exit status 0 = clean, 1 = findings, 2 =
    fatal error.

Fatal errors (unwritable ``--json`` target, missing lint path, bad
configuration) exit with status 2 and a one-line ``error: ...`` on
stderr — never a traceback.  ``compare`` checks its arguments before it
opens the store or dispatches a cell, so a bad ``--json``/``--seeds``
costs no simulation.

Imports are per verb: this module's top level loads what the parser
needs (the knob table, the workload catalog, the policy *names* — none
of them NumPy), and each ``_cmd_*`` imports what it runs, so ``repro
workloads`` or a ``compare`` served whole from the store never loads the
engine (``docs/architecture.md``, "What a process imports").
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import knobs
from .baselines import available_policies
from .sim.report import export_json, format_table
from .traces.workloads import ALL_WORKLOADS, make_trace

__all__ = ["main", "build_parser", "add_lint_arguments"]


def _knob_default(name: str) -> str:
    """A flag's ``--help`` default, read off the knob's table row."""
    return f"default: {name}, else {knobs.ROWS[name].default}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sibyl (ISCA 2022) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload catalog")

    run = sub.add_parser("run", help="run one policy over one workload")
    run.add_argument("--workload", default="rsrch_0",
                     choices=sorted(ALL_WORKLOADS))
    run.add_argument("--policy", default="sibyl",
                     choices=["sibyl"] + available_policies())
    run.add_argument("--config", default="H&M",
                     help="&-joined device list, e.g. H&M or H&M&L")
    run.add_argument("--requests", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--warmup", type=float, default=0.0,
                     help="fraction of the trace excluded from metrics")

    compare = sub.add_parser(
        "compare", help="compare the full policy lineup (Fig. 9 style)"
    )
    compare.add_argument("--workloads", nargs="+", default=["rsrch_0"],
                         choices=sorted(ALL_WORKLOADS))
    compare.add_argument("--config", default="H&M")
    compare.add_argument("--requests", type=int, default=10_000)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="run each workload on N seeds (base --seed upward) and "
             "report mean ±95%% confidence bands instead of point "
             "estimates (each seed is one more lane of the cell)",
    )
    compare.add_argument(
        "--json", metavar="PATH",
        help="also write the full (banded) result grid as JSON",
    )
    compare.add_argument(
        "--store", metavar="PATH",
        help="durable campaign store directory: finished cells persist "
             "there and already-stored cells are served from disk "
             "without re-simulation (default: the SIBYL_STORE "
             "environment variable, if set)",
    )
    compare.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign: shorthand for --store "
             ".sibyl-store when no --store/SIBYL_STORE is given (a "
             "warm store always resumes; this flag just picks the "
             "default location)",
    )
    compare.add_argument(
        "--no-store", action="store_true",
        help="force an undurable run even when SIBYL_STORE is set",
    )
    compare.add_argument(
        "--trace", metavar="PATH",
        help="write campaign/store spans as Chrome-trace-event JSON "
             "(Perfetto-loadable; default: SIBYL_TRACE_PATH, if set)",
    )

    sub.add_parser("overhead", help="print the Sec. 10 overhead analysis")

    lint = sub.add_parser(
        "lint",
        help="run the Sibyl contract analyzer (static AST invariant checks)",
    )
    add_lint_arguments(lint)

    serve = sub.add_parser(
        "serve", help="run the online placement daemon (NDJSON over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port; 0 binds an ephemeral port "
             f"({_knob_default('SIBYL_SERVE_PORT')})",
    )
    serve.add_argument(
        "--train", default=None,
        choices=knobs.ROWS["SIBYL_SERVE_TRAIN"].choices,
        help=f"training mode ({_knob_default('SIBYL_SERVE_TRAIN')})",
    )
    serve.add_argument(
        "--trace", metavar="PATH",
        help="write request/round/training spans as Chrome-trace-event "
             "JSON (Perfetto-loadable; default: SIBYL_TRACE_PATH)",
    )

    export = sub.add_parser(
        "export-trace", help="write a synthetic workload as MSRC CSV"
    )
    export.add_argument("--workload", default="rsrch_0",
                        choices=sorted(ALL_WORKLOADS))
    export.add_argument("--requests", type=int, default=20_000)
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--output", required=True)

    return parser


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options on ``parser`` (shared between the
    ``repro lint`` verb and ``python -m repro.analysis``; declared here
    so that parsing any other verb does not import the analyzer)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the versioned CI schema)",
    )
    parser.add_argument(
        "--rules", metavar="ID[,ID...]",
        help="run only these rule IDs (e.g. SBL-DET,SBL-ENV)",
    )
    parser.add_argument(
        "--det-scope", metavar="PREFIX[,PREFIX...]", default=None,
        help="dotted-module prefixes SBL-DET polices (default: the "
             "bit-identity core; 'all' = every file)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="BASE",
        help="lint only files reported by `git diff --name-only BASE` "
             "(default base: HEAD) — fast pre-push runs",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _cmd_workloads() -> int:
    rows = []
    for name, spec in sorted(ALL_WORKLOADS.items()):
        rows.append(
            {
                "workload": name,
                "source": spec.source,
                "write%": 100 * spec.write_fraction,
                "avg_size_kib": spec.avg_request_size_kib,
                "avg_access_cnt": spec.avg_access_count,
                "tuning_set": spec.tuning,
            }
        )
    print(format_table(rows, title="Workload catalog (Table 4 + unseen)",
                       precision=1))
    return 0


def _cmd_run(args) -> int:
    from .baselines import make_policy
    from .core.agent import SibylAgent
    from .core.hyperparams import SIBYL_DEFAULT
    from .sim.runner import run_policy

    trace = make_trace(args.workload, n_requests=args.requests,
                       seed=args.seed)
    if args.policy == "sibyl":
        policy = SibylAgent(hyperparams=SIBYL_DEFAULT, seed=args.seed)
    else:
        policy = make_policy(args.policy)
    result = run_policy(
        policy, trace, config=args.config, warmup_fraction=args.warmup
    )
    rows = [
        {"metric": "policy", "value": result.policy},
        {"metric": "config", "value": result.config},
        {"metric": "requests measured", "value": result.n_requests},
        {"metric": "avg latency (us)",
         "value": result.avg_latency_s * 1e6},
        {"metric": "IOPS", "value": result.iops},
        {"metric": "eviction fraction", "value": result.eviction_fraction},
        {"metric": "fast preference",
         "value": result.profile.fast_preference},
    ]
    print(format_table(rows, title=f"{args.workload} on {args.config}"))
    return 0


def _resolve_cli_store(args):
    """The compare command's store, from flags and ``SIBYL_STORE``.

    Precedence: ``--no-store`` disables everything; ``--store PATH``
    wins; otherwise the ``SIBYL_STORE`` environment variable; a bare
    ``--resume`` falls back to the default ``.sibyl-store/`` directory.
    """
    from .store import DEFAULT_STORE_DIR, CampaignStore, store_from_env

    if args.no_store:
        return None
    if args.store:
        return CampaignStore(args.store)
    env_store = store_from_env()
    if env_store is not None:
        return env_store
    if args.resume:
        return CampaignStore(DEFAULT_STORE_DIR)
    return None


def _check_compare_args(args) -> None:
    """Reject what would only fail after the campaign ran (and, without
    a store, lose it): a seed count below one, a ``--json`` target whose
    directory is missing or unwritable."""
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    if args.json:
        directory = os.path.dirname(os.path.abspath(args.json))
        if not os.access(directory, os.W_OK):  # missing counts as unwritable
            raise OSError(
                f"--json {args.json}: cannot write into {directory} "
                "(missing or not writable)"
            )


def _cmd_compare(args) -> int:
    from .sim.experiment import compare_policies

    _check_compare_args(args)
    n_seeds = args.seeds
    store = _resolve_cli_store(args)
    kwargs = dict(
        config=args.config, n_requests=args.requests, seed=args.seed,
        store=store,
    )
    if n_seeds > 1:
        # Stream per-workload completions so long multi-seed campaigns
        # show progress instead of going silent until the full grid is
        # materialised.
        def on_cell(key, _result):
            print(f"[campaign] {key}: {n_seeds} seeds done",
                  file=sys.stderr, flush=True)

        kwargs.update(n_seeds=n_seeds, on_cell=on_cell)
    results = compare_policies(args.workloads, **kwargs)
    if store is not None:
        print(
            f"[store] {store.root}: {store.hits} cell(s) served from "
            f"store, {store.puts} newly stored",
            file=sys.stderr, flush=True,
        )
    policies = list(next(iter(results.values())).keys())
    rows = []
    for workload, by_policy in results.items():
        row = {"workload": workload}
        for p in policies:
            row[p] = by_policy[p]["latency"]
        rows.append(row)
    title = f"Normalized avg request latency vs Fast-Only ({args.config})"
    if n_seeds > 1:
        title += f" — mean ±95% CI over {n_seeds} seeds"
    print(format_table(rows, title=title))
    if args.json:
        export_json(results, path=args.json)
        print(f"wrote JSON grid to {args.json}")
    return 0


def _cmd_overhead() -> int:
    from .core.overhead import compute_overhead

    report = compute_overhead()
    rows = [
        {"quantity": "inference neurons", "value": report.inference_neurons},
        {"quantity": "weights / inference MACs", "value": report.weights},
        {"quantity": "training MACs per step",
         "value": report.training_macs_per_step},
        {"quantity": "network storage (paper KiB)",
         "value": report.network_storage_reported_kib},
        {"quantity": "experience buffer (paper KiB)",
         "value": report.buffer_storage_reported_kib},
        {"quantity": "total (paper KiB)", "value": report.total_reported_kib},
        {"quantity": "metadata bits per page",
         "value": report.metadata_bits_per_page},
    ]
    print(format_table(rows, title="Sec. 10 overhead analysis", precision=1))
    return 0


def _cmd_export(args) -> int:
    from .traces.msrc import dump_msrc_csv

    trace = make_trace(args.workload, n_requests=args.requests,
                       seed=args.seed)
    dump_msrc_csv(trace, args.output, hostname=args.workload)
    print(f"wrote {len(trace)} requests to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .serve.daemon import PlacementDaemon
    from .sim.blas import set_blas_threads

    # A process whose whole job is computing is pinned once, at start,
    # as a campaign's pool workers are (docs/serve.md, "The daemon and
    # the BLAS thread count").
    set_blas_threads(1)
    daemon = PlacementDaemon(
        host=args.host, port=args.port, train_mode=args.train,
    )
    if threading.current_thread() is threading.main_thread():
        # SIGTERM is what a supervisor sends: tear down as on Ctrl-C.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with daemon:
            host, port = daemon.address
            print(f"serving on {host}:{port}", flush=True)
            daemon.serve_forever()
    except KeyboardInterrupt:
        pass  # close() ran on this thread as the ``with`` unwound
    return 0


def _cmd_lint(args) -> int:
    from .analysis.cli import run_lint_cli

    return run_lint_cli(args)


def _setup_tracing(args) -> None:
    """Install a span tracer from ``--trace`` or ``SIBYL_TRACE_PATH``."""
    from .obs.tracer import install_tracer, tracer_from_env

    if getattr(args, "trace", None):
        install_tracer(args.trace)
    else:
        tracer_from_env()


def _dispatch(args) -> int:
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "overhead":
        return _cmd_overhead()
    if args.command == "export-trace":
        return _cmd_export(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run one command.

    Expected failures — an unwritable ``--json``/``--output`` target, a
    missing lint path, an invalid knob or argument value — exit with
    status ``2`` and a single ``error: ...`` line on stderr instead of
    a traceback; genuine bugs still propagate loudly.
    """
    args = build_parser().parse_args(argv)
    from .obs.tracer import flush_tracer

    try:
        _setup_tracing(args)
        return _dispatch(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        flush_tracer()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
