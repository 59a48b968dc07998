"""Sibyl contract analyzer: static enforcement of the repo's invariants.

The reproduction's correctness rests on conventions that runtime tests
only defend after a 14-minute tier-1 run: strict determinism in the
bit-identity core, balanced ``*_begin``/``*_commit`` hook pairs, one
module owning the process environment, and fork-safe pool workers.
This package enforces that whole class at *lint time* with a
stdlib-``ast`` static analysis — no imports of the analyzed code, no
execution, sub-second over ``src/``.

Use it as ``repro lint [paths...]``, ``python -m repro.analysis``, or
programmatically::

    from pathlib import Path
    from repro.analysis import run_lint

    report = run_lint([Path("src")])
    assert report.ok, report.findings

Rule catalogue, rationale, and the ``# sibyl: ignore[RULE]``
suppression syntax live in ``docs/analysis.md``.
"""

from .core import (
    DEFAULT_DETERMINISM_SCOPE,
    FileContext,
    Finding,
    LintReport,
    Project,
    Rule,
    collect_files,
    run_lint,
)
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text
from .rules import (
    DeterminismRule,
    EnvKnobRule,
    ForkSafetyRule,
    HookPairRule,
    default_rules,
)

__all__ = [
    "DEFAULT_DETERMINISM_SCOPE",
    "JSON_SCHEMA_VERSION",
    "FileContext",
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "collect_files",
    "run_lint",
    "render_json",
    "render_text",
    "default_rules",
    "DeterminismRule",
    "EnvKnobRule",
    "ForkSafetyRule",
    "HookPairRule",
]
