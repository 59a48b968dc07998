"""The ``repro lint`` / ``python -m repro.analysis`` command line.

Exit status contract (what CI keys on):

* ``0`` — analyzed everything, zero unsuppressed findings;
* ``1`` — analyzed everything, at least one finding (printed);
* ``2`` — fatal error (missing path, unknown rule ID): the run itself
  could not complete.  Fatal errors print one ``error: ...`` line on
  stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from ..cli import add_lint_arguments
from .core import run_lint
from .reporters import render_json, render_text
from .rules import default_rules

__all__ = ["build_lint_parser", "add_lint_arguments", "run_lint_cli"]


def build_lint_parser() -> argparse.ArgumentParser:
    """Stand-alone parser for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Sibyl contract analyzer: static enforcement of the "
                    "repo's determinism, hook-pair, env-knob, and "
                    "fork-safety invariants",
    )
    add_lint_arguments(parser)
    return parser


def _changed_files(base: str) -> List[Path]:
    """Absolute paths ``git diff --name-only base`` reports.

    Raises ``ValueError`` (→ exit 2) outside a git checkout or for an
    unknown base, so ``--changed`` never silently lints everything.
    """
    def _git(*argv: str) -> str:
        proc = subprocess.run(
            ["git", *argv], capture_output=True, text=True
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            raise ValueError(
                f"--changed: git {argv[0]} failed: "
                f"{detail[0] if detail else 'unknown error'}"
            )
        return proc.stdout

    toplevel = Path(_git("rev-parse", "--show-toplevel").strip())
    names = _git("diff", "--name-only", base, "--").splitlines()
    return [toplevel / name for name in names if name.strip()]


def run_lint_cli(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.title}")
        return 0
    only = args.rules.split(",") if args.rules else None
    rules = default_rules(only)
    kwargs = {}
    if args.det_scope == "all":
        kwargs["determinism_scope"] = None
    elif args.det_scope:
        kwargs["determinism_scope"] = tuple(
            prefix for prefix in args.det_scope.split(",") if prefix
        )
    if args.changed is not None:
        kwargs["restrict"] = _changed_files(args.changed)
    report = run_lint(
        [Path(p) for p in args.paths],
        rules=rules,
        **kwargs,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    args = build_lint_parser().parse_args(argv)
    try:
        return run_lint_cli(args)
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
