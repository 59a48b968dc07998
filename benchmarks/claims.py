"""The paper's comparative claims as data, each with a computed verdict.

Each row of :data:`CLAIMS` is one claim of the paper's evaluation and
the place a figure benchmark measures it: the result grid it reads
(``results/<source>.json``, written by that benchmark), two selections
from the grid whose ratio is the statistic, the side of ``null`` the
paper puts that ratio on, and the paper's value of it where the paper
states one.  :func:`statistic` takes the ratio once per seed,
:func:`verdict` maps the band over seeds to one of :data:`VERDICTS`,
and :func:`render` writes the ledger, ``EXPERIMENTS.md``, one row per
claim.  Nothing else states a claim or a verdict: a figure benchmark
runs its campaign, writes its grid, and calls :func:`check`.

Rewrite the ledger from the grids in ``results/`` (no simulation)::

    PYTHONPATH=src python benchmarks/claims.py
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import product
from pathlib import Path
from statistics import fmean
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.sim.campaign import SeededResult
from repro.sim.report import geomean

RESULTS = Path(__file__).resolve().parent / "results"
LEDGER = RESULTS.parent.parent / "EXPERIMENTS.md"

#: The per-seed aggregates a selection may take over a grid's rows.
AGGREGATES = {"geomean": geomean, "mean": fmean}

#: A grid key, or a tuple of alternatives: seed by seed, the claim is
#: held against whichever alternative is least favourable to it.
Key = Union[str, Tuple[str, ...]]


class Sel(NamedTuple):
    """One side of a claim's ratio, selected from a result grid.

    ``path`` names a policy, x-value or feature set, then a metric.  It
    walks down from every row of the grid (a workload, a capacity) when
    ``over`` names an aggregate of :data:`AGGREGATES`, and from the
    grid's root otherwise.
    """

    path: Tuple[Key, ...]
    over: Optional[str] = None


def geo(*path: Key) -> Sel:
    """The geometric mean of ``path`` over the figure's rows."""
    return Sel(path, "geomean")


def mean(*path: Key) -> Sel:
    """The arithmetic mean of ``path`` over the figure's rows."""
    return Sel(path, "mean")


def at(*path: Key) -> Sel:
    """``path`` from the grid's root: one x-value of a sweep."""
    return Sel(path)


class Claim(NamedTuple):
    """One comparative claim of the paper, and where it is measured."""

    id: str
    figure: str
    source: str
    num: Sel
    den: Sel
    side: str  # "<" or ">": where the paper puts num/den against `null`
    paper: Optional[float]  # the paper's num/den; None: it states a side only
    null: float = 1.0


BASELINES = ("CDE", "HPS", "Archivist", "RNN-HSS")
LATENCY_VS_BASELINES = (geo("Sibyl", "latency"), geo(BASELINES, "latency"))

#: The paper's percentages are read as ``1 - ratio`` for latency
#: ("21.6% faster" is 0.784) and ``1 + gain`` for throughput and for a
#: baseline's loss against Oracle; a range is held to its low end.
CLAIMS = (
    Claim("fig2a", "Fig. 2(a)", "fig2a_motivation_hm",
          geo(BASELINES, "latency"), geo("Oracle", "latency"), ">", 1.34),
    Claim("fig2b", "Fig. 2(b)", "fig2b_motivation_hl",
          geo(BASELINES, "latency"), geo("Oracle", "latency"), ">", 1.33),
    Claim("fig8", "Fig. 8", "fig8_buffer_size",
          at("1000"), at(("1", "10", "100")), "<", None),
    Claim("fig9a", "Fig. 9(a)", "fig9a_latency_hm", *LATENCY_VS_BASELINES, "<", 0.784),
    Claim("fig9b", "Fig. 9(b)", "fig9b_latency_hl", *LATENCY_VS_BASELINES, "<", 0.801),
    Claim("fig10a", "Fig. 10(a)", "fig10a_throughput_hm",
          geo("Sibyl", "iops"), geo(BASELINES, "iops"), ">", 1.219),
    Claim("fig10b", "Fig. 10(b)", "fig10b_throughput_hl",
          geo("Sibyl", "iops"), geo(BASELINES, "iops"), ">", 1.228),
    Claim("fig11a-rnn", "Fig. 11(a)", "fig11a_unseen_hm",
          geo("Sibyl", "latency"), geo("RNN-HSS", "latency"), "<", 0.539),
    Claim("fig11a-archivist", "Fig. 11(a)", "fig11a_unseen_hm",
          geo("Sibyl", "latency"), geo("Archivist", "latency"), "<", 0.915),
    Claim("fig11b-rnn", "Fig. 11(b)", "fig11b_unseen_hl",
          geo("Sibyl", "latency"), geo("RNN-HSS", "latency"), "<", 0.454),
    Claim("fig11b-archivist", "Fig. 11(b)", "fig11b_unseen_hl",
          geo("Sibyl", "latency"), geo("Archivist", "latency"), "<", 0.559),
    Claim("fig12a", "Fig. 12(a)", "fig12a_mixed_hm",
          geo("Sibyl_Def", "latency"), geo(BASELINES, "latency"), "<", None),
    Claim("fig12a-opt", "Fig. 12(a)", "fig12a_mixed_hm",
          geo("Sibyl_Opt", "latency"), geo("Sibyl_Def", "latency"), "<", 0.95),
    Claim("fig12b", "Fig. 12(b)", "fig12b_mixed_hl",
          geo("Sibyl_Def", "latency"), geo(BASELINES, "latency"), "<", None),
    Claim("fig12b-opt", "Fig. 12(b)", "fig12b_mixed_hl",
          geo("Sibyl_Opt", "latency"), geo("Sibyl_Def", "latency"), "<", 0.95),
    Claim("fig13", "Fig. 13", "fig13_features",
          geo("all", "latency"),
          geo(("rt", "ft", "rt+ft", "rt+ft+mt", "rt+ft+pt"), "latency"), "<", None),
    Claim("fig14a", "Fig. 14(a)", "fig14a_discount",
          at("0.9", "iops"), at("0.0", "iops"), ">", None),
    Claim("fig14b", "Fig. 14(b)", "fig14b_learning_rate",
          at("0.0001", "iops"), at(("1e-05", "0.1"), "iops"), ">", None),
    Claim("fig14c", "Fig. 14(c)", "fig14c_exploration",
          at("0.001", "iops"), at("1.0", "iops"), ">", None),
    Claim("fig15a", "Fig. 15(a)", "fig15a_capacity_hm", *LATENCY_VS_BASELINES, "<", None),
    Claim("fig15b", "Fig. 15(b)", "fig15b_capacity_hl", *LATENCY_VS_BASELINES, "<", None),
    Claim("fig16a", "Fig. 16(a)", "fig16a_trihybrid_hml",
          geo("Sibyl", "latency"), geo("Heuristic-Tri-Hybrid", "latency"), "<", 0.761),
    Claim("fig16b", "Fig. 16(b)", "fig16b_trihybrid_hml_ssd",
          geo("Sibyl", "latency"), geo("Heuristic-Tri-Hybrid", "latency"), "<", 0.518),
    Claim("fig17", "Fig. 17", "fig17_preference",
          mean("H&L", "fast_preference"), mean("H&M", "fast_preference"), ">", None),
    Claim("fig18a-sibyl", "Fig. 18(a)", "fig18a_evictions_hm",
          mean(BASELINES, "eviction_fraction"),
          mean("Sibyl", "eviction_fraction"), ">", None),
    Claim("fig18a-cde", "Fig. 18(a)", "fig18a_evictions_hm",
          mean(BASELINES[1:], "eviction_fraction"),
          mean("CDE", "eviction_fraction"), "<", None),
    Claim("fig18b-cde", "Fig. 18(b)", "fig18b_evictions_hl",
          mean(BASELINES[1:], "eviction_fraction"),
          mean("CDE", "eviction_fraction"), "<", None),
    Claim("ablation-head", "§6.2.1", "ablation_head",
          geo("Sibyl[C51]", "latency"), geo("Sibyl[DQN]", "latency"), "<", None),
    Claim("ablation-reward", "§11", "ablation_reward",
          geo("Sibyl[latency]", "latency"),
          geo(("Sibyl[hit_rate]", "Sibyl[eviction_penalty]"), "latency"), "<", None),
    Claim("ablation-reward-pref", "§11", "ablation_reward",
          mean("Sibyl[eviction_penalty]", "fast_preference"),
          mean("Sibyl[latency]", "fast_preference"), "<", None),
    Claim("ext-endurance", "§11", "ext_endurance",
          at("1.0", "fast_pages_written"), at("0.0", "fast_pages_written"), "<", None),
)


def _select(sel: Sel, grid: Dict) -> List[List[float]]:
    """Per-seed values of every alternative ``sel`` names in ``grid``."""
    rows = list(grid.values()) if sel.over else [grid]
    out = []
    for path in product(*((key,) if isinstance(key, str) else key for key in sel.path)):
        per_row = []
        for node in rows:
            for key in path:
                node = node[key]
            per_row.append(node["values"])
        if sel.over:
            out.append([AGGREGATES[sel.over](seed) for seed in zip(*per_row)])
        else:
            out.append(per_row[0])
    return out


def statistic(claim: Claim, grid: Dict) -> List[float]:
    """``num / den`` of ``claim`` once per seed, from the per-seed
    ``values`` of the bands in ``grid`` (an exported result grid).

    Against alternatives each seed takes the one least favourable to the
    claim — for ``<`` the largest numerator and the smallest
    denominator, for ``>`` the reverse, which is the least favourable
    ratio because every metric is non-negative — so an alternative that
    is not chosen may be zero.
    """
    worst_num, worst_den = (max, min) if claim.side == "<" else (min, max)
    nums, dens = _select(claim.num, grid), _select(claim.den, grid)
    return [
        worst_num(num[seed] for num in nums) / worst_den(den[seed] for den in dens)
        for seed in range(len(nums[0]))
    ]


#: The four verdicts, in ledger order, with what each means.
VERDICTS = {
    "reproduced": "the band is on the paper's side of the null and reaches "
                  "the paper's value, or the paper states only the side",
    "direction only": "the band is on the paper's side of the null, short "
                      "of the paper's value",
    "not reproduced": "the band lies on the null or on its other side",
    "unresolved": "the band straddles the null",
}


def verdict(claim: Claim, band: SeededResult) -> str:
    """The verdict of :data:`VERDICTS` that ``band`` — the statistic's
    95% interval over seeds — earns for ``claim``.

    A one-seed band is its point, so a single seed decides direction;
    "reaches" means the band's end nearer the paper's side passes the
    paper's value.
    """
    sign = 1.0 if claim.side == "<" else -1.0
    lo, hi = sorted((sign * band.ci_lo, sign * band.ci_hi))
    null = sign * claim.null
    if lo >= null:
        return "not reproduced"
    if hi >= null:
        return "unresolved"
    if claim.paper is None or lo <= sign * claim.paper:
        return "reproduced"
    return "direction only"


class Row(NamedTuple):
    """One rendered ledger row."""

    claim: str
    figure: str
    statistic: str
    side: str
    paper: str
    measured: str
    seeds: str
    scale: str
    verdict: str


def _describe(sel: Sel) -> str:
    return " ".join(
        key if isinstance(key, str) else f"strongest of ({', '.join(key)})"
        for key in sel.path
    )


def row(claim: Claim, results: Path = RESULTS) -> Row:
    """``claim``'s ledger row, measured in the grids under ``results``."""
    grid = json.loads((results / f"{claim.source}.json").read_text())
    band = SeededResult.from_values(statistic(claim, grid))
    scale = json.loads((results / "scale.json").read_text())[claim.source]
    text = f"{_describe(claim.num)} ÷ {_describe(claim.den)}"
    if claim.num.over:
        text += f", {claim.num.over}"
    measured = f"{band.mean:.3f}"
    if len(band.values) > 1:
        measured += f" [{band.ci_lo:.3f}, {band.ci_hi:.3f}]"
    return Row(
        claim=f"`{claim.id}`",
        figure=f"[{claim.figure}](benchmarks/results/{claim.source}.json)",
        statistic=text,
        side=f"{claim.side} {claim.null:g}",
        paper="–" if claim.paper is None else f"{claim.paper:.3f}",
        measured=measured,
        seeds=str(len(band.values)),
        scale=f"{scale['requests']} req, {scale['workloads']}",
        verdict=verdict(claim, band),
    )


def _line(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def summary(rows: List[Row]) -> str:
    """The ledger's one-line count of verdicts, as README quotes it."""
    counts = Counter(r.verdict for r in rows)
    seeds = sorted({int(r.seeds) for r in rows})
    span = f"{seeds[0]}" if len(seeds) == 1 else f"{seeds[0]}–{seeds[-1]}"
    return (
        " · ".join(f"{counts[name]} {name}" for name in VERDICTS)
        + f", at {span} seed{'' if seeds == [1] else 's'}"
    )


HEADER = """\
# EXPERIMENTS — the paper's claims, measured

Written by `PYTHONPATH=src python benchmarks/claims.py` from the result
grids in `benchmarks/results/`, which the figure benchmarks write
(`benchmarks/README.md`).  Change a claim in that module's `CLAIMS`,
never here: a tier-1 test and CI's `docs` job re-render this file and
fail on any difference.

**{summary}.**

Each row is one claim.  Its statistic is the ratio of two selections
from the figure's grid, taken once per seed; against a *strongest of*
set, each seed's ratio is the one least favourable to the claim.  The
paper puts the statistic on the *Side* shown, and *Paper* is its value
where the paper states one.  *Measured* is the mean over seeds, with
the bootstrap 95% interval once there are several.  *Scale* is the
`SIBYL_BENCH_REQUESTS` and `SIBYL_BENCH_WORKLOADS` of the run that wrote
the grid.  The verdicts, from the band:

{verdicts}

The numbers come from a latency-model simulator on synthetic traces, not
from the paper's hardware, so each statistic compares policies within
one simulated campaign.

"""


def render(results: Path = RESULTS) -> str:
    """The ledger's text, from the grids under ``results``."""
    rows = [row(claim, results) for claim in CLAIMS]
    verdicts = "\n".join(f"- **{name}**: {meaning}." for name, meaning in VERDICTS.items())
    head = HEADER.format(summary=summary(rows), verdicts=verdicts)
    table = [_line(f.capitalize() for f in Row._fields), _line("---" for _ in Row._fields)]
    return head + "\n".join(table + [_line(r) for r in rows]) + "\n"


def ledger(text: str) -> Dict[str, Row]:
    """The rows of a rendered ledger, by claim cell."""
    rows = (
        Row(*(cell.strip() for cell in line.strip().strip("|").split("|")))
        for line in text.splitlines()
        if line.startswith("| `")
    )
    return {r.claim: r for r in rows}


def check(source: str, results: Path = RESULTS, ledger_path: Path = LEDGER) -> List[Row]:
    """Print the rows of the claims measured in ``results/<source>.json``
    and, for each claim the ledger records at the same scale and seed
    count, fail unless its verdict is the ledger's.  At any other scale
    the rows are printed, not compared."""
    recorded = ledger(ledger_path.read_text())
    rows = [row(claim, results) for claim in CLAIMS if claim.source == source]
    assert rows, f"no claim reads {source}.json"
    for new in rows:
        print(_line(new))
        old = recorded.get(new.claim)
        if old is not None and (old.seeds, old.scale) == (new.seeds, new.scale):
            assert new.verdict == old.verdict, (
                f"{new.claim} is now {new.verdict!r}; EXPERIMENTS.md says "
                f"{old.verdict!r} — rerun benchmarks/claims.py and report the flip"
            )
    return rows


if __name__ == "__main__":
    LEDGER.write_text(render())
    print(f"wrote {LEDGER}")
