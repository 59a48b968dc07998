"""SBL-DET: no ambient nondeterminism inside the bit-identity core.

The repo's signature guarantee is that the serial, process-parallel,
and SoA kernel engines produce **bit-identical** results, and
that the durable store may replay any cell from disk
(:mod:`repro.sim.parallel`, :mod:`repro.store`).  Both collapse the
moment simulation code observes something outside its seeded inputs:
wall-clock reads, the *global* (unseeded) RNGs, directory listings in
filesystem order, ``id()``-keyed ordering (addresses differ per
process), or iteration over a ``set`` (string hashing is randomized
per process) feeding results.

Within the policed modules (``repro.sim``, ``repro.rl``, ``repro.hss``,
``repro.store`` by default) this rule flags:

* clock reads — ``time.time``/``time_ns``/``monotonic``/
  ``perf_counter``/``process_time``, ``datetime.now``/``utcnow``/
  ``today`` (simulations must derive time from request timestamps);
* the global RNGs — any ``random.*`` call and any ``np.random.*`` call
  except the explicit-generator constructors (``default_rng``,
  ``Generator``, ``RandomState``, ``SeedSequence``, ``PCG64``);
* unsorted directory enumeration — ``os.listdir``, ``os.scandir``,
  ``glob.glob``/``iglob``, ``Path.glob``/``iterdir`` — unless the
  result feeds ``sorted(...)`` or an order-insensitive aggregate
  (``sum``/``len``/``any``/``all``/``min``/``max``/``set``);
* ``id()`` used as an ordering key (``sorted(xs, key=id)``);
* ``for``/comprehension iteration directly over a ``set`` display,
  ``set(...)``/``frozenset(...)`` call, or set comprehension.

Identity-keyed *lookup* (``{id(x): ...}``) is deliberately allowed —
the engines use it for within-process bookkeeping that never orders
results.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import FileContext, Finding, Project, Rule

__all__ = ["DeterminismRule"]

_CLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "localtime",
        "gmtime", "ctime", "asctime",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: ``np.random.X`` calls that *construct seeded generators* — the
#: sanctioned way to get randomness — rather than drawing from the
#: global stream.
_NP_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence",
                 "PCG64", "Philox", "SFC64", "MT19937"}

#: Consumers that make an unsorted directory listing harmless: either
#: they impose an order (``sorted``) or they are order-insensitive.
_ORDER_SAFE_CONSUMERS = {"sorted", "sum", "len", "any", "all", "min", "max",
                         "set", "frozenset"}

_LISTING_ATTRS = {"listdir", "scandir", "glob", "iglob", "iterdir", "rglob"}


def _call_chain(node: ast.expr) -> Optional[str]:
    """Dotted name of a ``Name``/``Attribute`` chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismRule(Rule):
    """Flag ambient-nondeterminism sources in the bit-identity core."""

    id = "SBL-DET"
    title = "no wall-clock, global RNG, fs-order, id()-order, or set-order"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        """Scan ``ctx`` when it lies inside the determinism scope."""
        if ctx.tree is None or not project.in_determinism_scope(ctx):
            return
        parents = _parent_map(ctx.tree)
        random_names = _global_random_names(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, parents, random_names)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                if _is_set_expr(iter_expr):
                    yield ctx.finding(
                        self.id, iter_expr,
                        "iteration over a set feeds results in "
                        "hash/insertion order, which is process-dependent "
                        "for strings; sort it (`sorted(...)`) or use an "
                        "ordered container",
                    )

    # ------------------------------------------------------------- helpers
    def _check_call(self, ctx, node, parents, random_names):
        chain = _call_chain(node.func)
        if chain is None:
            return
        parts = chain.split(".")
        # Clock reads: time.time(), datetime.now(), datetime.datetime.now().
        if len(parts) >= 2 and parts[-1] in _CLOCK_ATTRS.get(parts[-2], ()):
            root = parts[0]
            if root in ("time", "datetime") or parts[-2] in ("datetime", "date"):
                yield ctx.finding(
                    self.id, node,
                    f"wall-clock read `{chain}()` inside the deterministic "
                    "core; derive time from request timestamps or pass it "
                    "in as a parameter",
                )
                return
        # Global RNG draws: random.x(...) or `from random import x` names.
        if len(parts) == 2 and parts[0] == "random" and parts[0] not in (
            random_names["shadowed"]
        ):
            yield ctx.finding(
                self.id, node,
                f"global-RNG call `{chain}()`; use an explicitly seeded "
                "`np.random.default_rng(seed)` / `random.Random(seed)` "
                "threaded through the caller",
            )
            return
        if len(parts) == 1 and parts[0] in random_names["from_random"]:
            yield ctx.finding(
                self.id, node,
                f"global-RNG call `{chain}()` (imported from `random`); "
                "use an explicitly seeded generator instead",
            )
            return
        # numpy global RNG: np.random.x(...) for any non-constructor x.
        if (
            len(parts) == 3
            and parts[1] == "random"
            and parts[0] in ("np", "numpy")
            and parts[2] not in _NP_RANDOM_OK
        ):
            yield ctx.finding(
                self.id, node,
                f"global numpy RNG call `{chain}()`; draw from an "
                "explicitly seeded `np.random.default_rng(seed)`",
            )
            return
        # Unsorted directory enumeration.
        if parts[-1] in _LISTING_ATTRS and len(parts) >= 2:
            if not _order_safe(node, parents):
                yield ctx.finding(
                    self.id, node,
                    f"`{chain}(...)` yields entries in filesystem order; "
                    "wrap it in `sorted(...)` before anything "
                    "order-sensitive consumes it",
                )
            return
        # id() as an ordering key.
        if parts == ["sorted"] or parts[-1] == "sort":
            for kw in node.keywords:
                if kw.arg == "key" and _mentions_id(kw.value):
                    yield ctx.finding(
                        self.id, kw.value,
                        "`id()` as a sort key orders by memory address, "
                        "which differs per process; key on a stable field "
                        "instead",
                    )


def _global_random_names(ctx: FileContext) -> dict:
    """Names bound from the stdlib ``random`` module in this file."""
    from_random = set()
    shadowed = set()
    assert ctx.tree is not None
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in ("Random", "SystemRandom"):
                    from_random.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "random":
                    shadowed.add("random")
    return {"from_random": from_random, "shadowed": shadowed}


def _parent_map(tree: ast.AST) -> dict:
    """Child-to-parent links, for walking up expression nests."""
    parents: dict = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _order_safe(node: ast.Call, parents: dict) -> bool:
    """Whether a directory-listing call feeds an order-safe consumer.

    Walks up the expression ancestry: a ``sorted(...)`` or an
    order-insensitive aggregate anywhere above the call (within the
    same statement) makes the listing harmless.
    """
    current: ast.AST = node
    for _ in range(32):
        parent = parents.get(current)
        if parent is None or isinstance(parent, ast.stmt):
            return False
        if isinstance(parent, ast.Call):
            chain = _call_chain(parent.func)
            if chain is not None and chain.split(".")[-1] in _ORDER_SAFE_CONSUMERS:
                return True
        current = parent
    return False


def _mentions_id(expr: ast.expr) -> bool:
    """True when ``expr`` is ``id`` or calls ``id(...)`` anywhere."""
    if isinstance(expr, ast.Name) and expr.id == "id":
        return True
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(expr)
    )


def _is_set_expr(expr: ast.expr) -> bool:
    """Whether ``expr`` is syntactically a set being built."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )
