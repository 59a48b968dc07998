"""The repo's three code contracts, held over every file it ships.

Each contract is a plain function from a parsed module to a list of
``(line, message)`` findings.  The tests run them over every ``.py``
file under ``src/``, ``benchmarks/``, ``scripts/`` and ``examples/``,
and over the seeded fixtures beside this module.  Nothing here imports
or runs the checked code, and a file that does not parse fails.

``SBL-DET``
    No ambient nondeterminism inside the bit-identity core
    (``repro.sim``, ``repro.rl``, ``repro.hss``, ``repro.store``).
    Serial, parallel and compiled runs must produce the same bits, and
    the store replays any cell from disk; both break the moment
    simulation code observes something outside its seeded inputs.  It
    flags clock reads; the global RNGs (any stdlib ``random`` call but
    the seeded ``random.Random``, any ``np.random`` call but the
    generator constructors); directory listings that reach no
    ``sorted(...)`` or order-free aggregate; ``id()`` as a sort key;
    and iteration over a set built in place.  Imported names and module
    aliases are resolved first, so ``from time import perf_counter``
    is a clock read too.  Identity-keyed *lookup* (``{id(x): ...}``)
    is allowed: it never orders results.
``SBL-ENV``
    Only ``repro/knobs.py`` touches the process environment.  Every
    ``SIBYL_*`` variable is a row of ``repro.knobs.TABLE`` read with
    ``knobs.get("SIBYL_X")``, so a bad value raises instead of silently
    changing the mode, and ``scripts/check_docs.py`` checks
    ``docs/configuration.md`` against that one table.
``SBL-FORK``
    In a module that imports a process pool, no function it submits to
    the pool, nor a same-module function those call (two levels deep),
    reads a mutable module-level global.  Each worker holds its own
    copy, so results would depend on which worker ran which cell.

The IDs ``SBL-HOOK`` and ``SBL-FPR`` are retired and not reused:
``docs/architecture.md`` ("The begin/commit pairs") and
``tests/sim/test_golden_sweeps.py`` hold what they checked.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
SHIPPED_TREES = ("src", "benchmarks", "scripts", "examples")

#: Module prefixes SBL-DET polices: the bit-identity core.
DET_SCOPE = ("repro.sim", "repro.rl", "repro.hss", "repro.store")

Finding = Tuple[int, str]


def _dotted(node: ast.expr) -> Optional[str]:
    """Dotted name of a ``Name``/``Attribute`` chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_names(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the absolute dotted name an import bound it to."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _resolve(written: str, imported: Dict[str, str]) -> str:
    """``written`` with its root replaced by what the import bound."""
    root, dot, rest = written.partition(".")
    return imported.get(root, root) + dot + rest


# ------------------------------------------------------------- SBL-DET

_CLOCKS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "localtime",
        "gmtime", "ctime", "asctime",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: ``np.random.X`` that construct a seeded generator rather than draw
#: from the global stream.
_NP_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence",
                 "PCG64", "Philox", "SFC64", "MT19937"}

#: Consumers that make an unsorted listing harmless: they impose an
#: order (``sorted``) or do not depend on one.
_ORDER_FREE = {"sorted", "sum", "len", "any", "all", "min", "max", "set",
               "frozenset"}

_LISTINGS = {"listdir", "scandir", "glob", "iglob", "iterdir", "rglob"}


def sbl_det(tree: ast.Module) -> List[Finding]:
    """Ambient-nondeterminism sources in ``tree``."""
    imported = _imported_names(tree)
    random_rebound = any(
        isinstance(target, ast.Name) and target.id == "random"
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets
    )
    parents = {
        child: parent
        for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)
    }
    found: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            found.extend(_det_call(node, imported, random_rebound, parents))
        elif isinstance(node, (ast.For, ast.comprehension)) and _builds_set(
            node.iter
        ):
            found.append((
                node.iter.lineno,
                "iteration over a set feeds results in hash/insertion order, "
                "which is process-dependent for strings; sort it "
                "(`sorted(...)`) or use an ordered container",
            ))
    return found


def _det_call(node: ast.Call, imported: Dict[str, str], random_rebound: bool,
              parents: Dict[ast.AST, ast.AST]) -> Iterator[Finding]:
    written = _dotted(node.func)
    if written is None:
        return
    parts = _resolve(written, imported).split(".")
    if (
        len(parts) >= 2
        and parts[-1] in _CLOCKS.get(parts[-2], ())
        and (parts[0] in ("time", "datetime") or parts[-2] in ("datetime", "date"))
    ):
        yield node.lineno, (
            f"wall-clock read `{written}()` inside the deterministic core; "
            "derive time from request timestamps or pass it in as a parameter"
        )
        return
    if (
        len(parts) == 2 and parts[0] == "random" and parts[1] != "Random"
        and not (written.startswith("random.") and random_rebound)
    ):
        yield node.lineno, (
            f"global-RNG call `{written}()`; use an explicitly seeded "
            "`np.random.default_rng(seed)` / `random.Random(seed)` threaded "
            "through the caller"
        )
        return
    if (
        len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random"
        and parts[2] not in _NP_RANDOM_OK
    ):
        yield node.lineno, (
            f"global numpy RNG call `{written}()`; draw from an explicitly "
            "seeded `np.random.default_rng(seed)`"
        )
        return
    if len(parts) >= 2 and parts[-1] in _LISTINGS:
        if not _feeds_order_free(node, parents):
            yield node.lineno, (
                f"`{written}(...)` yields entries in filesystem order; wrap it "
                "in `sorted(...)` before anything order-sensitive consumes it"
            )
        return
    if parts == ["sorted"] or parts[-1] == "sort":
        for kw in node.keywords:
            if kw.arg == "key" and _mentions_id(kw.value):
                yield kw.value.lineno, (
                    "`id()` as a sort key orders by memory address, which "
                    "differs per process; key on a stable field instead"
                )


def _feeds_order_free(node: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether an order-free consumer encloses ``node`` in its statement."""
    current: ast.AST = node
    for _ in range(32):
        parent = parents.get(current)
        if parent is None or isinstance(parent, ast.stmt):
            return False
        if isinstance(parent, ast.Call):
            chain = _dotted(parent.func)
            if chain is not None and chain.split(".")[-1] in _ORDER_FREE:
                return True
        current = parent
    return False


def _mentions_id(expr: ast.expr) -> bool:
    """True when ``expr`` is ``id`` or calls ``id(...)`` anywhere."""
    if isinstance(expr, ast.Name) and expr.id == "id":
        return True
    return any(
        isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(expr)
    )


def _builds_set(expr: ast.expr) -> bool:
    """Whether ``expr`` is syntactically a set being built."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


# ------------------------------------------------------------- SBL-ENV

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def sbl_env(tree: ast.Module) -> List[Finding]:
    """Every reach into the process environment in ``tree``."""
    imported = _imported_names(tree)
    found: List[Finding] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and imported.get(node.value.id, node.value.id) == "os"
        ):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(
            (node.lineno,
             f"`os.{name}` outside repro/knobs.py; give the variable a row in "
             "`repro.knobs.TABLE` and read it with `knobs.get(\"SIBYL_X\")`")
            for name in names if name in _ENV_NAMES
        )
    return found


# ------------------------------------------------------------ SBL-FORK

_POOL_METHODS = {"submit", "map", "imap", "imap_unordered", "apply_async",
                 "starmap"}

_MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict",
                      "deque", "Counter"}


def sbl_fork(tree: ast.Module) -> List[Finding]:
    """Mutable module globals read by the pool workers of ``tree``."""
    if not _imports_process_pool(tree):
        return []
    mutable = _mutable_globals(tree)
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    submitted = {
        node.args[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in _POOL_METHODS and node.args
        and isinstance(node.args[0], ast.Name)
    }
    found: List[Finding] = []
    seen: Set[str] = set()
    queue = [(name, 0) for name in sorted(submitted) if name in functions]
    while queue:
        name, depth = queue.pop()
        if name in seen or depth > 2:
            continue
        seen.add(name)
        local = _locally_bound(functions[name])
        for node in ast.walk(functions[name]):
            if (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in mutable and node.id not in local
            ):
                found.append((
                    node.lineno,
                    f"pool worker `{name}` reaches mutable module global "
                    f"`{node.id}` (defined line {mutable[node.id]}); workers "
                    "get a per-process copy, so results depend on worker "
                    "placement; pass the state in as a parameter or make it "
                    "immutable",
                ))
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions and node.func.id not in local
            ):
                queue.append((node.func.id, depth + 1))
    return found


def _imports_process_pool(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "multiprocessing"
            or any(alias.name == "ProcessPoolExecutor" for alias in node.names)
        ):
            return True
        if isinstance(node, ast.Import) and any(
            alias.name.startswith("multiprocessing") for alias in node.names
        ):
            return True
    return False


def _mutable_globals(tree: ast.Module) -> Dict[str, int]:
    """Module-level names bound to a mutable container -> their line."""
    out: Dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        else:
            continue
        if _is_mutable_container(value):
            out.update(
                (target.id, stmt.lineno)
                for target in targets if isinstance(target, ast.Name)
            )
    return out


def _is_mutable_container(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _MUTABLE_FACTORIES
    return False


def _locally_bound(fndef: ast.FunctionDef) -> Set[str]:
    """Parameters, assigned names and nested defs inside ``fndef``."""
    args = fndef.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
    for node in ast.walk(fndef):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node is not fndef
        ):
            names.add(node.name)
    return names


# ------------------------------------------------------------- scoping

CHECKS = {"SBL-DET": sbl_det, "SBL-ENV": sbl_env, "SBL-FORK": sbl_fork}


def module_name(path: Path) -> str:
    """``repro.sim.lanes`` for ``src/repro/sim/lanes.py``, else the stem."""
    rel = path.relative_to(REPO).with_suffix("")
    if rel.parts[0] != "src":
        return rel.name
    parts = rel.parts[1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def rules_for(path: Path) -> List[str]:
    """The contracts a shipped file is held to."""
    module = module_name(path)
    rules = []
    if any(module == prefix or module.startswith(prefix + ".") for prefix in DET_SCOPE):
        rules.append("SBL-DET")
    if module != "repro.knobs":
        rules.append("SBL-ENV")
    rules.append("SBL-FORK")
    return rules


@lru_cache(maxsize=None)
def shipped_files() -> Tuple[Path, ...]:
    """Every ``.py`` file in the shipped trees, skipping caches and dot dirs."""
    files = []
    for tree in SHIPPED_TREES:
        root = REPO / tree
        files.extend(
            path for path in sorted(root.rglob("*.py"))
            if not any(part == "__pycache__" or part.startswith(".")
                       for part in path.relative_to(root).parts)
        )
    return tuple(files)


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _fixture(name: str) -> ast.Module:
    return parse(FIXTURES / f"{name}.py")


def _marked_lines(name: str, rule: str) -> List[int]:
    """Lines of a fixture whose trailing comment names ``rule``."""
    lines = (FIXTURES / f"{name}.py").read_text().splitlines()
    return [i for i, line in enumerate(lines, start=1) if f"# {rule}" in line]


# --------------------------------------------------------------- tests


@pytest.mark.parametrize("rule", sorted(CHECKS))
def test_shipped_trees_hold(rule):
    files = [path for path in shipped_files() if rule in rules_for(path)]
    assert len(files) > 20  # really walked the trees
    broken = [
        f"{path.relative_to(REPO)}:{line}: {rule} {message}"
        for path in files for line, message in CHECKS[rule](parse(path))
    ]
    assert broken == [], "\n".join(broken)


def test_every_shipped_file_parses():
    assert len(shipped_files()) > 100
    failures = []
    for path in shipped_files():
        try:
            parse(path)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(REPO)}:{exc.lineno}: {exc.msg}")
    assert failures == [], "\n".join(failures)


def test_a_file_that_does_not_parse_fails(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n    pass\n")
    with pytest.raises(SyntaxError):
        parse(broken)


def test_SBL_DET_catches_every_violation_class():
    found = sbl_det(_fixture("det_violation"))
    assert sorted(line for line, _ in found) == _marked_lines(
        "det_violation", "SBL-DET"
    )
    # one finding per class: clock, global RNG, numpy global RNG,
    # fs-order listing, id() sort key, set iteration
    assert len(found) == 6
    messages = " | ".join(message for _, message in found)
    for needle in ("wall-clock", "random.random", "np.random.rand",
                   "os.listdir", "id()", "set"):
        assert needle in messages


def test_SBL_DET_allows_a_sorted_listing():
    source = (FIXTURES / "det_violation.py").read_text().splitlines()
    safe_line = next(i for i, line in enumerate(source, start=1)
                     if "sorted(os.listdir" in line)
    assert safe_line not in {line for line, _ in sbl_det(_fixture("det_violation"))}


def test_SBL_DET_resolves_imported_names():
    found = sbl_det(_fixture("det_imported"))
    assert sorted(line for line, _ in found) == _marked_lines(
        "det_imported", "SBL-DET"
    )
    messages = " | ".join(message for _, message in found)
    assert "SystemRandom" in messages and "perf_counter" in messages


def test_SBL_DET_scope_is_the_bit_identity_core():
    src = REPO / "src" / "repro"
    assert "SBL-DET" in rules_for(src / "sim" / "lanes.py")
    assert "SBL-DET" in rules_for(src / "store" / "__init__.py")
    for outside in ("serve/engine.py", "obs/tracer.py", "cli.py", "simulate.py"):
        assert "SBL-DET" not in rules_for(src / outside)
    assert "SBL-DET" not in rules_for(FIXTURES / "det_violation.py")
    policed = {
        module_name(path).split(".")[1]
        for path in shipped_files() if "SBL-DET" in rules_for(path)
    }
    assert policed == {"sim", "rl", "hss", "store"}


def test_SBL_ENV_flags_the_stray_environment_read():
    found = sbl_env(_fixture("env_violation"))
    assert [line for line, _ in found] == _marked_lines("env_violation", "SBL-ENV")
    ((_, message),) = found
    assert "os.environ" in message and "knobs.get" in message


def test_SBL_ENV_catches_aliases_and_the_other_environment_calls():
    found = sbl_env(_fixture("env_aliased"))
    assert sorted(line for line, _ in found) == _marked_lines(
        "env_aliased", "SBL-ENV"
    )
    messages = " | ".join(message for _, message in found)
    for name in ("os.environ", "os.unsetenv", "os.environb"):
        assert f"`{name}`" in messages
    imported = ast.parse("from os import getenv, putenv, path\n")
    assert len(sbl_env(imported)) == 2


def test_SBL_ENV_knobs_module_is_the_one_exemption():
    exempt = [path for path in shipped_files() if "SBL-ENV" not in rules_for(path)]
    assert exempt == [REPO / "src" / "repro" / "knobs.py"]
    # the exemption is load-bearing: the knob table really reads os.environ
    assert sbl_env(parse(exempt[0]))


def test_SBL_FORK_flags_mutable_global_reached_from_pool():
    found = sbl_fork(_fixture("fork_violation"))
    assert sorted(line for line, _ in found) == _marked_lines(
        "fork_violation", "SBL-FORK"
    )
    assert all("`_RESULTS`" in message for _, message in found)
    assert not any("LIMIT" in message for _, message in found)


def test_clean_fixture_passes_every_contract():
    tree = _fixture("clean")
    assert {rule: check(tree) for rule, check in CHECKS.items()} == {
        rule: [] for rule in CHECKS
    }
