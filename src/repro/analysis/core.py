"""Checker framework: file contexts, the project index, suppressions.

The analyzer is a plain :mod:`ast` pass — no imports of the analyzed
code, no execution — so it can lint a broken tree, runs in well under a
second over ``src/``, and never perturbs the simulations it guards.

Structure:

* :class:`FileContext` — one parsed source file (tree, lines, module
  name, suppression table).
* :class:`Project` — every file of one lint run plus the cross-file
  index rules need: module-level constant assignments and import maps
  (so a rule can resolve ``TRACE_PATH_ENV`` through a ``from .knobs
  import TRACE_PATH_ENV``), and the set of knobs documented in
  ``docs/configuration.md``.
* :class:`Rule` — base class; concrete rules live in
  :mod:`repro.analysis.rules` and yield :class:`Finding` objects.
* :func:`run_lint` — the driver: collect files, build the project,
  run every rule, apply ``# sibyl: ignore[...]`` suppressions.

Suppressions are line-scoped: a finding on line *N* is dropped when
line *N* carries ``# sibyl: ignore[RULE-ID]`` (several IDs may be
comma-separated; a bare ``# sibyl: ignore`` silences every rule on the
line).  Reviewed suppressions are the escape hatch for intentional
contract splits — e.g. ``SibylAgent.feedback`` owes its
``train_commit`` to the serve engine's trainer threads under
``external_training`` — and each one should carry a justification
comment next to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
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


@dataclass
class _ImportMap:
    """Name bindings one file gains from its import statements."""

    #: ``from mod import name as alias`` -> alias: (resolved mod, name)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: ``import mod as alias`` -> alias: dotted module path
    modules: Dict[str, str] = field(default_factory=dict)


class Project:
    """Every file of one lint run plus the cross-file resolution index.

    The index is deliberately shallow — module-level ``NAME = <expr>``
    assignments and ``from``-imports, keyed by a best-effort dotted
    module name — but that is exactly enough for the rules that need
    cross-file facts: chasing an environment-knob name like
    ``TRACE_PATH_ENV`` through one or two imports.
    """

    def __init__(
        self,
        files: Sequence[FileContext],
        documented_knobs: Optional[Set[str]] = None,
        determinism_scope: Optional[Tuple[str, ...]] = DEFAULT_DETERMINISM_SCOPE,
    ) -> None:
        self.files = list(files)
        self.documented_knobs = documented_knobs
        self.determinism_scope = determinism_scope
        self.constants: Dict[Tuple[str, str], ast.expr] = {}
        self.imports: Dict[str, _ImportMap] = {}
        for ctx in self.files:
            if ctx.tree is None:
                continue
            self.imports[ctx.module] = _build_import_map(ctx)
            for node in ctx.tree.body:
                if isinstance(node, ast.Assign) and node.value is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.constants[(ctx.module, target.id)] = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        self.constants[(ctx.module, node.target.id)] = node.value

    def in_determinism_scope(self, ctx: FileContext) -> bool:
        """Whether SBL-DET polices ``ctx`` (``None`` scope = everywhere)."""
        if self.determinism_scope is None:
            return True
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.determinism_scope
        )

    def resolve_constant(
        self, module: str, name: str, depth: int = 4
    ) -> Optional[ast.expr]:
        """The module-level expression ``name`` is bound to, if indexed.

        Chases ``NAME = OTHER_NAME`` chains and ``from mod import NAME``
        re-exports up to ``depth`` hops; returns ``None`` when the chain
        leaves the analyzed file set.
        """
        for _ in range(depth):
            expr = self.constants.get((module, name))
            if expr is None:
                imported = self.imports.get(module, _ImportMap()).from_imports.get(name)
                if imported is None:
                    return None
                module, name = imported
                continue
            if isinstance(expr, ast.Name):
                name = expr.id
                continue
            return expr
        return None


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


#: Pattern of a Sibyl environment-knob name.
_KNOB_RE = re.compile(r"^SIBYL_[A-Z0-9_]+$")


def documented_knobs_from(docs_path: Optional[Path]) -> Optional[Set[str]]:
    """The set of ``SIBYL_*`` knob names a configuration doc mentions.

    ``None`` (no doc given, or the file is missing) disables the
    documentation cross-check rather than failing every knob.
    """
    if docs_path is None:
        return None
    docs_path = Path(docs_path)
    if not docs_path.is_file():
        return None
    return set(re.findall(r"SIBYL_[A-Z0-9_]+", docs_path.read_text()))


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    docs_path: Optional[Path] = None,
    determinism_scope: Optional[Tuple[str, ...]] = DEFAULT_DETERMINISM_SCOPE,
    restrict: Optional[Iterable[Path]] = None,
) -> LintReport:
    """Lint ``paths`` with ``rules`` (default: every registered rule).

    ``docs_path`` names the configuration reference the env-knob rule
    cross-checks (``None`` skips that sub-check); ``determinism_scope``
    restricts SBL-DET to the given dotted-module prefixes (``None`` =
    police every file).  ``restrict`` further limits the run to files
    in the given set (``repro lint --changed``): collection still walks
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
    project = Project(
        contexts,
        documented_knobs=documented_knobs_from(docs_path),
        determinism_scope=determinism_scope,
    )
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


# ---------------------------------------------------------------------------
# Module naming and import resolution.
# ---------------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Best-effort dotted module name of a source file.

    Files under a ``repro`` package directory get their real dotted
    path (``src/repro/sim/lanes.py`` -> ``repro.sim.lanes``) so imports
    between analyzed files resolve; anything else falls back to its
    bare stem.  The scheme only needs to be *consistent* across the
    file set — both index keys and import resolutions use it.
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts)
    return parts[-1] if parts else path.stem


def _build_import_map(ctx: FileContext) -> _ImportMap:
    """Record the name bindings ``ctx``'s import statements create."""
    imap = _ImportMap()
    package = ctx.module.rsplit(".", 1)[0] if "." in ctx.module else ""
    assert ctx.tree is not None
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imap.modules[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    imap.modules[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: resolve against this file's package.
                pkg_parts = package.split(".") if package else []
                cut = len(pkg_parts) - (node.level - 1)
                pkg_parts = pkg_parts[: max(cut, 0)]
                base = ".".join(pkg_parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imap.from_imports[bound] = (base, alias.name)
    return imap
