"""SBL-HOOK: ``*_begin`` / ``*_commit`` hook pairs balance on all paths.

:class:`repro.core.agent.SibylAgent` splits its two heavy operations
into externally drivable halves — ``place_begin``/``place_commit`` for
inference and ``train_begin``/``train_commit`` for training — so a
driver (the placement daemon's fused inference round) can batch the
middle across tenant lanes.  The
contract is strict: a ``begin`` leaves the agent with a pending job,
and every non-raising control path must discharge it with the matching
``commit`` (or, for inference, ``place_abort`` on an unwind path) before
the caller returns.  An unbalanced pair is exactly the bug class behind the PR 3
lane-resync incident: the agent silently carries stale pending state
into the next event and every later result is wrong.

The check is a CFG-lite walk over each function body.  For every
``*_begin`` call it asks whether the continuation — the statements
after the call, including enclosing ``try``/``finally`` bodies and the
code following enclosing ``if``/``with``/loop blocks — *guarantees* a
matching discharge call on all non-raising paths:

* an ``if`` guarantees only when both branches do;
* a ``try`` guarantees when its ``finally`` does, or when its body and
  every handler do;
* a ``raise`` ends a raising path (exempt by contract);
* a ``return`` without a prior discharge is a violation;
* loop bodies may run zero times, so they never guarantee by
  themselves.

A call site that splits the pair across functions *by design* would
carry a reviewed ``# sibyl: ignore[SBL-HOOK]`` suppression with a
justification; the shipped tree has none.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Tuple

from ..core import FileContext, Finding, Project, Rule

__all__ = ["HookPairRule", "DEFAULT_PAIRS"]

#: The audited hook pairs: begin name -> names that discharge it.
DEFAULT_PAIRS: Dict[str, Tuple[str, ...]] = {
    "place_begin": ("place_commit", "place_abort"),
    "train_begin": ("train_commit",),
}

# Three-valued outcome of executing a statement sequence:
_COMMIT = "commit"   # every non-raising path discharges the hook
_FALL = "fall"       # some path falls through without discharging
_BAD = "bad"         # some non-raising path leaves the function undischarged


class HookPairRule(Rule):
    """Prove every ``*_begin`` is discharged on all non-raising paths."""

    id = "SBL-HOOK"
    title = "place/train begin..commit hook pairs balance on every path"

    def __init__(self, pairs: Dict[str, Tuple[str, ...]] = None) -> None:
        """``pairs`` overrides the audited begin->discharge name map."""
        self.pairs = dict(DEFAULT_PAIRS if pairs is None else pairs)

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        """Scan every function body in ``ctx`` for unbalanced begins."""
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # The defining methods themselves are not call sites.
                if node.name in self.pairs:
                    continue
                yield from self._scan(ctx, node.body, [])

    # ----------------------------------------------------------- traversal
    def _scan(
        self,
        ctx: FileContext,
        stmts: Sequence[ast.stmt],
        continuations: List[Sequence[ast.stmt]],
    ) -> Iterator[Finding]:
        """Visit ``stmts``; ``continuations`` are the statement lists
        control falls into after this block, innermost first."""
        for index, stmt in enumerate(stmts):
            rest = stmts[index + 1:]
            for call, begin_name in self._begin_calls(stmt):
                frames = [rest] + continuations
                if not self._discharged(frames, self.pairs[begin_name]):
                    wanted = " / ".join(
                        f"`{name}`" for name in self.pairs[begin_name]
                    )
                    yield ctx.finding(
                        self.id, call,
                        f"`{begin_name}` is not matched by {wanted} on "
                        "every non-raising path of this function; commit "
                        "in a `finally`, on both branches, or before "
                        "returning",
                    )
            yield from self._scan_children(ctx, stmt, rest, continuations)

    def _scan_children(self, ctx, stmt, rest, continuations):
        """Recurse into ``stmt``'s nested blocks with updated frames."""
        after = [rest] + continuations
        if isinstance(stmt, (ast.If, ast.While)):
            yield from self._scan(ctx, stmt.body, after)
            yield from self._scan(ctx, stmt.orelse, after)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield from self._scan(ctx, stmt.body, after)
            yield from self._scan(ctx, stmt.orelse, after)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from self._scan(ctx, stmt.body, after)
        elif isinstance(stmt, ast.Try):
            # From inside the try body, control flows through finally
            # (if any) and then the code after the try.
            through_finally = [list(stmt.finalbody) + list(rest)] + continuations
            yield from self._scan(ctx, stmt.body, through_finally)
            yield from self._scan(ctx, stmt.orelse, through_finally)
            for handler in stmt.handlers:
                yield from self._scan(ctx, handler.body, through_finally)
            yield from self._scan(ctx, stmt.finalbody, after)
        # Nested function definitions are NOT recursed into here: the
        # top-level walk in :meth:`check` visits every def (including
        # nested ones) exactly once, each with a fresh continuation.

    # ------------------------------------------------------------ analysis
    def _begin_calls(self, stmt: ast.stmt):
        """``(call, begin_name)`` pairs in ``stmt``'s own expressions
        (nested blocks are visited by the recursion, not here)."""
        for expr in _own_expressions(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name in self.pairs:
                        yield node, name

    def _discharged(
        self,
        frames: Sequence[Sequence[ast.stmt]],
        discharge_names: Tuple[str, ...],
    ) -> bool:
        """Whether the continuation frames guarantee a discharge call."""
        for frame in frames:
            outcome = self._outcome(frame, discharge_names)
            if outcome == _COMMIT:
                return True
            if outcome == _BAD:
                return False
        return False  # fell off the end of the function

    def _outcome(self, stmts: Sequence[ast.stmt], names) -> str:
        """Fold per-statement outcomes over a sequence."""
        for stmt in stmts:
            outcome = self._stmt_outcome(stmt, names)
            if outcome in (_COMMIT, _BAD):
                return outcome
        return _FALL

    def _stmt_outcome(self, stmt: ast.stmt, names) -> str:
        """Outcome of one statement (see module docstring for rules)."""
        if isinstance(stmt, ast.Raise):
            return _COMMIT  # raising paths are exempt by contract
        if isinstance(stmt, ast.Return):
            if stmt.value is not None and _has_call(stmt.value, names):
                return _COMMIT
            return _BAD
        if isinstance(stmt, ast.If):
            if _has_call(stmt.test, names):
                return _COMMIT
            body = self._outcome(stmt.body, names)
            orelse = self._outcome(stmt.orelse, names)
            if _BAD in (body, orelse):
                return _BAD
            if body == orelse == _COMMIT:
                return _COMMIT
            return _FALL
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if self._outcome(stmt.body, names) == _BAD:
                return _BAD
            return _FALL  # the body may run zero times
        if isinstance(stmt, ast.Try):
            final = self._outcome(stmt.finalbody, names)
            if final in (_COMMIT, _BAD):
                return final
            body = self._outcome(list(stmt.body) + list(stmt.orelse), names)
            handlers = [self._outcome(h.body, names) for h in stmt.handlers]
            if body == _BAD or _BAD in handlers:
                return _BAD
            if body == _COMMIT and all(h == _COMMIT for h in handlers):
                return _COMMIT
            return _FALL
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._outcome(stmt.body, names)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return _FALL  # a nested definition does not execute here
        for expr in _own_expressions(stmt):
            if _has_call(expr, names):
                return _COMMIT
        return _FALL


def _call_name(node: ast.Call) -> str:
    """Final name a call invokes: ``a.b.place_begin(...)`` -> that attr."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _has_call(expr: ast.expr, names: Sequence[str]) -> bool:
    """Whether ``expr`` contains a call to any of ``names``."""
    return any(
        isinstance(node, ast.Call) and _call_name(node) in names
        for node in ast.walk(expr)
    )


def _own_expressions(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a statement evaluates *itself* — excluding any
    nested statement blocks, which the traversal visits separately."""
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Assert):
        return [stmt.test]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    return []
