"""The project rule catalogue (stable IDs; see ``docs/analysis.md``).

==========  ===========================================================
ID          Invariant
==========  ===========================================================
SBL-DET     No ambient nondeterminism (clocks, global RNGs, fs order,
            ``id()`` ordering, set iteration) inside the bit-identity
            core (``repro.sim``/``rl``/``hss``/``store``).
SBL-ENV     The process environment is touched only by
            ``repro/knobs.py`` (every knob is a row of its table).
SBL-FORK    Pool worker functions touch no mutable module-level state.
SBL-PARSE   (framework) the file must parse at all.
==========  ===========================================================

Rule IDs are append-only: never renumber or reuse one, because
``# sibyl: ignore[...]`` suppressions in the tree reference them.
(``SBL-FPR`` is retired: sweep cells are built through one helper, not
at literal ``Cell(fn=<Name>)`` sites, and ``tests/sim/
test_golden_sweeps.py`` checks the real cells instead.  ``SBL-HOOK`` is
retired: a begun placement that is never committed is replaced by the
next ``place_begin``, and ``train_begin`` raises on a pending job, so
an unpaired begin cannot corrupt an agent.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import Rule
from .determinism import DeterminismRule
from .envknobs import EnvKnobRule
from .forksafety import ForkSafetyRule

__all__ = [
    "DeterminismRule",
    "EnvKnobRule",
    "ForkSafetyRule",
    "default_rules",
]


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the full rule set, optionally filtered by rule ID.

    ``only`` is a sequence of rule IDs (case-insensitive); unknown IDs
    raise ``ValueError`` so a typo'd ``--rules SBL-DTE`` cannot
    silently lint nothing.
    """
    rules: List[Rule] = [
        DeterminismRule(),
        EnvKnobRule(),
        ForkSafetyRule(),
    ]
    if only is None:
        return rules
    wanted = {token.strip().upper() for token in only if token.strip()}
    known = {rule.id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule ID(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [rule for rule in rules if rule.id in wanted]
