"""SBL-ENV: only ``repro/knobs.py`` touches the process environment.

Every ``SIBYL_*`` variable is a row of :data:`repro.knobs.TABLE`, read
with ``knobs.get("SIBYL_X")`` — so garbage and negative values *raise*
instead of silently changing the execution mode (the
``SIBYL_PARALLEL=-4``-quietly-meant-serial bug), and the table, not a
hand-kept list, is what ``docs/configuration.md`` is checked against
(``scripts/check_docs.py``).  What is left for lint is the one fact
that keeps the table complete: ``os.environ``, ``os.getenv`` and
``os.putenv`` appear in no other linted file, by attribute or by
``from os import``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Project, Rule

__all__ = ["EnvKnobRule"]

_ENV_NAMES = ("environ", "getenv", "putenv")


class EnvKnobRule(Rule):
    """Flag every use of the process environment outside ``repro.knobs``."""

    id = "SBL-ENV"
    title = "the process environment is touched only by repro/knobs.py"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        """Yield each ``os.environ``/``os.getenv`` reference in ``ctx``."""
        if ctx.tree is None or ctx.module == "repro.knobs":
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                if name in _ENV_NAMES:
                    yield ctx.finding(
                        self.id, node,
                        f"`os.{name}` outside repro/knobs.py; give the "
                        "variable a row in `repro.knobs.TABLE` and read it "
                        "with `knobs.get(\"SIBYL_X\")`",
                    )
