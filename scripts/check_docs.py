#!/usr/bin/env python3
"""Docs smoke checker: executable code fences, docstring coverage and
the knob tables.

Three checks keep the documentation honest:

1. **Code fences execute.**  Every ```` ```python ```` fence in
   ``docs/*.md`` runs in a fresh namespace (with ``src/`` on the
   path).  A fence that raises fails the check — documentation that
   drifts from the code stops merging instead of quietly rotting.
   Fences are self-contained by convention; non-runnable snippets use a
   different info string (```` ```text ````, ```` ```bash ````).

2. **Public API is documented.**  Every public function and class of
   the audited modules (``repro.sim.campaign``, ``repro.sim.report``,
   and the durable-store package ``repro.store.*``) must carry a
   docstring — for the store, public *methods* too: a persistence
   layer's contract lives in its method docs.

3. **The knob tables are the knob table.**  The rows of
   ``docs/configuration.md`` carry exactly the ``Variable | Default |
   Values`` cells ``python -m repro.knobs`` prints from
   ``repro.knobs.TABLE`` — no undocumented knob, no documented ghost, no
   stale default.  The ``Meaning`` prose is the doc's own.

Run:  python scripts/check_docs.py
Exit status is non-zero on any failure; CI runs this as the docs job.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import traceback
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS_DIR = REPO_ROOT / "docs"
AUDITED_MODULES = (
    "repro.knobs",
    "repro.sim.campaign",
    "repro.sim.report",
    "repro.store.fingerprint",
    "repro.store.serialize",
    "repro.store.journal",
    "repro.store.store",
    "repro.analysis.core",
    "repro.analysis.reporters",
    "repro.analysis.cli",
    "repro.analysis.rules",
    "repro.analysis.rules.determinism",
    "repro.analysis.rules.hookpairs",
    "repro.analysis.rules.envknobs",
    "repro.analysis.rules.forksafety",
    "repro.sim.kernels.abi",
    "repro.serve.protocol",
    "repro.serve.lane",
    "repro.serve.engine",
    "repro.serve.daemon",
    "repro.serve.loadgen",
    "repro.obs.sink",
    "repro.obs.metrics",
    "repro.obs.tracer",
)

#: Modules whose public *methods* are audited too (the store's
#: durability contract is a method-level API; the analyzer's rule and
#: framework classes are a subclassing surface; the daemon and engine
#: are the serve layer's operational contract).
METHOD_AUDITED_MODULES = (
    "repro.store.store",
    "repro.store.journal",
    "repro.analysis.core",
    "repro.serve.engine",
    "repro.serve.daemon",
    "repro.obs.metrics",
    "repro.obs.tracer",
)

_FENCE_RE = re.compile(
    r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL
)


def iter_python_fences(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, source)`` for each ```python fence."""
    text = path.read_text()
    for match in _FENCE_RE.finditer(text):
        line = text[: match.start()].count("\n") + 1
        yield line, match.group(1)


def check_fences(docs_dir: Path = DOCS_DIR) -> List[str]:
    """Execute every python fence under ``docs_dir``; return failures."""
    failures: List[str] = []
    paths = sorted(docs_dir.glob("*.md"))
    if not paths:
        return [f"no markdown files found under {docs_dir}"]
    n_fences = 0
    for path in paths:
        for line, source in iter_python_fences(path):
            n_fences += 1
            label = f"{path.relative_to(REPO_ROOT)}:{line}"
            try:
                exec(compile(source, str(label), "exec"), {"__name__": f"docfence_{n_fences}"})
            except Exception:
                failures.append(
                    f"{label}: fence raised\n{traceback.format_exc()}"
                )
            else:
                print(f"ok: {label}")
    if n_fences == 0:
        failures.append(
            f"no executable ```python fences under {docs_dir} — the docs "
            "job would be vacuous"
        )
    return failures


def check_docstrings(module_names=AUDITED_MODULES) -> List[str]:
    """Require docstrings on the audited modules' public surface."""
    failures: List[str] = []
    for name in module_names:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            failures.append(f"{name}: missing module docstring")
        for attr in dir(module):
            if attr.startswith("_"):
                continue
            obj = getattr(module, attr)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != name:
                continue  # re-export; audited where it is defined
            if not (inspect.getdoc(obj) or "").strip():
                failures.append(f"{name}.{attr}: missing docstring")
                continue
            if inspect.isclass(obj) and name in METHOD_AUDITED_MODULES:
                # vars() sees the raw class dict, so classmethods,
                # staticmethods, and properties are audited too (and
                # inherited members are naturally skipped — they are
                # audited on the class that defines them).
                for meth_name, raw in vars(obj).items():
                    if meth_name.startswith("_"):
                        continue
                    if isinstance(raw, property):
                        target = raw.fget
                    elif isinstance(raw, (classmethod, staticmethod)):
                        target = raw.__func__
                    elif inspect.isfunction(raw):
                        target = raw
                    else:
                        continue
                    if not (inspect.getdoc(target) or "").strip():
                        failures.append(
                            f"{name}.{attr}.{meth_name}: missing docstring"
                        )
    return failures


_KNOB_ROW_RE = re.compile(
    r"^\| (`SIBYL_[A-Z0-9_]+`) \| (.*?) \| (.*?) \|", re.MULTILINE
)


def check_knob_table(doc: Path = DOCS_DIR / "configuration.md") -> List[str]:
    """Compare ``doc``'s knob rows with ``repro.knobs.TABLE``, both ways."""
    knobs = importlib.import_module("repro.knobs")
    documented = {
        match.group(1): match.groups()
        for match in _KNOB_ROW_RE.finditer(doc.read_text())
    }
    failures: List[str] = []
    for row in knobs.TABLE:
        cells = knobs.doc_cells(row)
        found = documented.pop(cells[0], None)
        if found is None:
            failures.append(
                f"{doc.name}: no row for {cells[0]}; add `| "
                + " | ".join(cells) + " | <meaning> |`"
            )
        elif found != cells:
            failures.append(
                f"{doc.name}: row {cells[0]} reads {' | '.join(found[1:])!r}, "
                f"repro.knobs.TABLE says {' | '.join(cells[1:])!r}"
            )
    failures += [
        f"{doc.name}: row {name} is not in repro.knobs.TABLE"
        for name in documented
    ]
    return failures


def main() -> int:
    """Run every check; print a summary and return the exit status."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    failures = check_fences()
    failures += check_docstrings()
    failures += check_knob_table()
    if failures:
        print(f"\n{len(failures)} docs check failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("docs checks OK (fences executed, public API documented, "
          "knob tables match repro.knobs.TABLE)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
