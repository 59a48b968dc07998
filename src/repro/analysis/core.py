"""Checker framework: file contexts, the project index, suppressions.

The analyzer is a plain :mod:`ast` pass — no imports of the analyzed
code, no execution — so it can lint a broken tree, runs in well under a
second over ``src/``, and never perturbs the simulations it guards.

Structure:

* :class:`FileContext` — one parsed source file (tree, lines, module
  name, suppression table).
* :class:`Project` — every file of one lint run and the determinism
  scope.
* :class:`Rule` — base class; concrete rules live in
  :mod:`repro.analysis.rules` and yield :class:`Finding` objects.
* :func:`run_lint` — the driver: collect files, build the project,
  run every rule, apply ``# sibyl: ignore[...]`` suppressions.

Suppressions are line-scoped: a finding on line *N* is dropped when
line *N* carries ``# sibyl: ignore[RULE-ID]`` (several IDs may be
comma-separated; a bare ``# sibyl: ignore`` silences every rule on the
line).  Reviewed suppressions are the escape hatch for intentional
contract splits — a ``begin`` whose ``commit`` is owed to another
function by design — and each one should carry a justification comment
next to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "Project",
    "Rule",
    "LintReport",
    "DEFAULT_DETERMINISM_SCOPE",
    "PARSE_RULE_ID",
    "collect_files",
    "run_lint",
]

#: Rule ID attached to files the analyzer cannot parse at all.
PARSE_RULE_ID = "SBL-PARSE"

#: Module prefixes the determinism rule (SBL-DET) polices by default:
#: the subsystems whose bit-identity contract forbids ambient
#: nondeterminism.  ``None`` (everywhere) is available for tests.
DEFAULT_DETERMINISM_SCOPE = (
    "repro.sim",
    "repro.rl",
    "repro.hss",
    "repro.store",
)

_SUPPRESS_RE = re.compile(
    r"#\s*sibyl:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_\-, ]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``rule`` is the stable rule ID (``SBL-DET``, ``SBL-HOOK``, ...),
    ``path`` the file as given to the driver, ``line``/``col`` the
    1-based line and 0-based column of the offending node, and
    ``message`` a one-line explanation ending with what to do instead.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable ordering: by file, then position, then rule ID."""
        return (self.path, self.line, self.col, self.rule)


class FileContext:
    """One parsed source file plus its per-line suppression table."""

    def __init__(self, path: Path, display: str, source: str) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.lines = source.splitlines()
        self.module = _module_name(path)
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=display)
        except SyntaxError as exc:  # reported as an SBL-PARSE finding
            self.parse_error = exc
        #: line -> None (all rules) or the set of suppressed rule IDs.
        self.suppressions: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self.suppressions[lineno] = None
            else:
                self.suppressions[lineno] = {
                    token.strip().upper()
                    for token in rules.split(",")
                    if token.strip()
                }

    def is_suppressed(self, finding: Finding) -> bool:
        """True when the finding's line carries a matching suppression."""
        if finding.line not in self.suppressions:
            return False
        rules = self.suppressions[finding.line]
        return rules is None or finding.rule.upper() in rules

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` in this file."""
        return Finding(
            rule=rule,
            path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Project:
    """Every file of one lint run, and which of them SBL-DET polices."""

    def __init__(
        self,
        files: Sequence[FileContext],
        determinism_scope: Optional[Tuple[str, ...]] = DEFAULT_DETERMINISM_SCOPE,
    ) -> None:
        self.files = list(files)
        self.determinism_scope = determinism_scope

    def in_determinism_scope(self, ctx: FileContext) -> bool:
        """Whether SBL-DET polices ``ctx`` (``None`` scope = everywhere)."""
        if self.determinism_scope is None:
            return True
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.determinism_scope
        )


class Rule:
    """Base class for one project invariant.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding a :class:`Finding` per violation.  Rules must be pure
    functions of the parsed tree — no filesystem access beyond what the
    :class:`Project` gathers — so a lint run is deterministic and
    order-independent.
    """

    #: Stable rule identifier, e.g. ``"SBL-DET"``; used in reports and
    #: in ``# sibyl: ignore[...]`` suppressions.  Never renumber.
    id: str = "SBL-???"
    #: One-line summary shown by ``repro lint --list-rules``.
    title: str = ""

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError
        yield  # pragma: no cover


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``findings`` are the surviving (unsuppressed) violations in stable
    order; ``suppressed`` counts findings silenced by reviewed
    ``# sibyl: ignore`` comments; ``n_files`` is how many files were
    analyzed.  The process exit code derives from ``findings`` alone.
    """

    findings: List[Finding]
    suppressed: int
    n_files: int

    @property
    def ok(self) -> bool:
        """True when no unsuppressed finding survived."""
        return not self.findings


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories are walked recursively; ``__pycache__`` and hidden
    directories are skipped.  Raises ``FileNotFoundError`` for a path
    that does not exist — a lint run over nothing must be an error, not
    a silent success.
    """
    out: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in sub.relative_to(path).parts
                ):
                    continue
                out.append(sub)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(out))


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    determinism_scope: Optional[Tuple[str, ...]] = DEFAULT_DETERMINISM_SCOPE,
    restrict: Optional[Iterable[Path]] = None,
) -> LintReport:
    """Lint ``paths`` with ``rules`` (default: every registered rule).

    ``determinism_scope`` restricts SBL-DET to the given dotted-module
    prefixes (``None`` = police every file).  ``restrict`` further
    limits the run to files in the given set (``repro lint
    --changed``): collection still walks
    ``paths``, but only the intersection is analyzed — an empty
    intersection is a clean zero-file report, not an error.  Returns a
    :class:`LintReport`; parse failures surface as ``SBL-PARSE``
    findings instead of crashing the run.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    files = collect_files(paths)
    if restrict is not None:
        allowed = {Path(p).resolve() for p in restrict}
        files = [path for path in files if path.resolve() in allowed]
    contexts = [
        FileContext(path, display=str(path), source=path.read_text())
        for path in files
    ]
    project = Project(contexts, determinism_scope=determinism_scope)
    findings: List[Finding] = []
    suppressed = 0
    for ctx in contexts:
        raw: List[Finding] = []
        if ctx.parse_error is not None:
            raw.append(
                Finding(
                    rule=PARSE_RULE_ID,
                    path=ctx.display,
                    line=ctx.parse_error.lineno or 1,
                    col=(ctx.parse_error.offset or 1) - 1,
                    message=f"file does not parse: {ctx.parse_error.msg}",
                )
            )
        else:
            for rule in rules:
                raw.extend(rule.check(ctx, project))
        for finding in raw:
            if ctx.is_suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=findings, suppressed=suppressed, n_files=len(contexts)
    )


def _module_name(path: Path) -> str:
    """Best-effort dotted module name of a source file.

    Files under a ``repro`` package directory get their real dotted
    path (``src/repro/sim/lanes.py`` -> ``repro.sim.lanes``), which is
    what the determinism scope and per-module exemptions match;
    anything else falls back to its bare stem.
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts)
    return parts[-1] if parts else path.stem
