"""SBL-ENV: ``SIBYL_*`` knobs are parsed centrally and documented.

Every behavioural environment variable in this repo shares one parsing
contract — :func:`repro.knobs.resolve_count_env` for count-valued
knobs, :func:`repro.store.store.store_from_env` for the store,
:func:`repro.obs.tracer.tracer_from_env` for the trace sink — so
garbage and negative values *raise* instead of silently changing the
execution mode (the ``SIBYL_PARALLEL=-4``-quietly-meant-serial bug).
And every knob has a row in ``docs/configuration.md``, because an
undocumented knob is a knob nobody can audit.

This rule enforces both halves statically:

1. **Routing.** A read of a ``SIBYL_*`` name via ``os.environ[...]``,
   ``os.environ.get``, or ``os.getenv`` is flagged unless it happens

   * inside one of the sanctioned accessor functions
     (:data:`SANCTIONED_ACCESSORS`), or
   * directly in a module-level assignment to a constant-style name
     (``N_REQUESTS = int(os.environ.get("SIBYL_BENCH_REQUESTS",
     "10000"))``) — the *registered constant* pattern, which gives the
     knob a single greppable home.

   Count-valued knobs should go further and call
   ``resolve_count_env`` so misconfiguration raises.

2. **Documentation.** Every knob name discovered — as an env-read key,
   as the value of a ``*_ENV`` module constant, or as the first
   argument of a sanctioned-accessor call — must appear in
   ``docs/configuration.md`` (the driver passes the documented set in;
   without a docs file this half is skipped).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from ..core import FileContext, Finding, Project, Rule

__all__ = ["EnvKnobRule", "SANCTIONED_ACCESSORS"]

#: Functions allowed to read knob values directly: the shared parsing
#: contract (``repro.knobs`` plus the store and tracer factories;
#: everything else routes through them).
SANCTIONED_ACCESSORS = (
    "resolve_count_env",
    "resolve_choice_env",
    "store_from_env",
    "tracer_from_env",
)

_KNOB_RE = re.compile(r"^SIBYL_[A-Z0-9_]+$")
_CONST_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


class EnvKnobRule(Rule):
    """Route ``SIBYL_*`` reads through the shared contract; keep docs."""

    id = "SBL-ENV"
    title = "SIBYL_* knobs parse via the shared contract and stay documented"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        """Scan env reads and knob registrations in ``ctx``."""
        if ctx.tree is None:
            return
        knobs: List[Tuple[str, ast.AST]] = []
        enclosing = _enclosing_function_names(ctx.tree)
        module_assign_lines = _registered_constant_lines(ctx.tree)
        for node in ast.walk(ctx.tree):
            read = _env_read(node)
            if read is not None:
                key_expr, kind = read
                knob = _knob_name(key_expr, ctx, project)
                if knob is not None:
                    knobs.append((knob, node))
                if knob is None and not _is_literal(key_expr):
                    # A read through a variable/parameter: only the
                    # sanctioned accessors may do that.
                    if enclosing.get(id(node)) not in SANCTIONED_ACCESSORS:
                        yield ctx.finding(
                            self.id, node,
                            f"environment read via {kind} with a "
                            "computed key; only the sanctioned accessors "
                            f"({', '.join(SANCTIONED_ACCESSORS)}) may "
                            "read knobs indirectly",
                        )
                    continue
                if knob is None:
                    continue
                if enclosing.get(id(node)) in SANCTIONED_ACCESSORS:
                    continue
                if getattr(node, "lineno", None) in module_assign_lines:
                    continue  # registered-constant pattern
                yield ctx.finding(
                    self.id, node,
                    f"direct read of `{knob}`; route it through "
                    "`resolve_count_env`/`store_from_env` or register it "
                    "as a module-level constant so it has one auditable "
                    "home",
                )
            elif isinstance(node, ast.Call):
                name = _call_final_name(node)
                if name in SANCTIONED_ACCESSORS and node.args:
                    first = node.args[0]
                    if (
                        isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and _KNOB_RE.match(first.value)
                    ):
                        knobs.append((first.value, first))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id.endswith("_ENV")
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                        and _KNOB_RE.match(node.value.value)
                    ):
                        knobs.append((node.value.value, node))
        if project.documented_knobs is not None:
            for knob, node in knobs:
                if knob not in project.documented_knobs:
                    yield ctx.finding(
                        self.id, node,
                        f"knob `{knob}` has no row in "
                        "docs/configuration.md; every environment knob "
                        "must be documented where users can audit it",
                    )


def _env_read(node: ast.AST) -> Optional[Tuple[ast.expr, str]]:
    """``(key expr, how)`` when ``node`` reads an environment variable."""
    # os.environ[KEY] / environ[KEY]  (loads only — writes are tests' business)
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Load)
        and _is_environ(node.value)
    ):
        return node.slice, "os.environ[...]"
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and _is_environ(func.value)
            and node.args
        ):
            return node.args[0], "os.environ.get"
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "getenv"
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and node.args
        ):
            return node.args[0], "os.getenv"
        if isinstance(func, ast.Name) and func.id == "getenv" and node.args:
            return node.args[0], "getenv"
    return None


def _is_environ(expr: ast.expr) -> bool:
    """Whether ``expr`` denotes ``os.environ`` (or a bare ``environ``)."""
    if isinstance(expr, ast.Attribute) and expr.attr == "environ":
        return isinstance(expr.value, ast.Name) and expr.value.id == "os"
    return isinstance(expr, ast.Name) and expr.id == "environ"


def _is_literal(expr: ast.expr) -> bool:
    """Whether the key expression is a plain string literal."""
    return isinstance(expr, ast.Constant) and isinstance(expr.value, str)


def _knob_name(
    key_expr: ast.expr, ctx: FileContext, project: Project
) -> Optional[str]:
    """The ``SIBYL_*`` name a key expression denotes, if resolvable.

    Literals match directly; a ``Name`` is chased through module-level
    constants (``STORE_ENV = "SIBYL_STORE"``) via the project index.
    """
    if _is_literal(key_expr):
        return key_expr.value if _KNOB_RE.match(key_expr.value) else None
    if isinstance(key_expr, ast.Name):
        resolved = project.resolve_constant(ctx.module, key_expr.id)
        if (
            resolved is not None
            and isinstance(resolved, ast.Constant)
            and isinstance(resolved.value, str)
            and _KNOB_RE.match(resolved.value)
        ):
            return resolved.value
    return None


def _call_final_name(node: ast.Call) -> str:
    """Trailing name of the called function."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _enclosing_function_names(tree: ast.Module) -> dict:
    """Map ``id(node)`` -> name of the innermost enclosing function."""
    out: dict = {}

    def visit(node: ast.AST, current: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        for child in ast.iter_child_nodes(node):
            out[id(child)] = current
            visit(child, current)

    visit(tree, None)
    return out


def _registered_constant_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside module-level constant assignments.

    A knob read is "registered" when it happens directly in a
    module-level ``CONST_NAME = ...`` statement; every line the
    statement spans qualifies, so wrapped ``int(os.environ.get(...))``
    expressions count too.
    """
    lines: Set[int] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if not targets or not all(
            isinstance(t, ast.Name) and _CONST_NAME_RE.match(t.id)
            for t in targets
        ):
            continue
        end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
        lines.update(range(stmt.lineno, end + 1))
    return lines
