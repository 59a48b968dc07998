"""The claim ledger: ``benchmarks/claims.py``'s verdict and statistic,
the checked-in ``EXPERIMENTS.md`` as the render of the committed grids,
and the figure benchmarks' summary rows and seed axis.

Only the last test simulates: it runs the Fig. 8 benchmark at a small
scale in a copy of ``benchmarks/``.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.campaign import SeededResult

REPO = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"benchmarks_{name}", REPO / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


claims = _load("claims")


def band(*values):
    return SeededResult.from_values(values)


def claim(side="<", paper=0.8):
    return claims.Claim("c", "Fig. X", "grid", claims.at("a"), claims.at("b"), side, paper)


class TestVerdict:
    @pytest.mark.parametrize("values, side, paper, expected", [
        ((0.70, 0.72, 0.75), "<", 0.8, "reproduced"),
        ((0.75, 0.85, 0.80), "<", 0.8, "reproduced"),  # the band reaches 0.8
        ((0.90, 0.92, 0.95), "<", 0.8, "direction only"),
        ((1.10, 1.20, 1.15), "<", 0.8, "not reproduced"),
        ((0.90, 1.10, 1.00, 0.95), "<", 0.8, "unresolved"),
        ((1.30, 1.35), ">", 1.2, "reproduced"),
        ((1.05, 1.10), ">", 1.2, "direction only"),
        ((0.80, 0.90), ">", 1.2, "not reproduced"),
        ((0.90, 1.10, 1.00, 1.05), ">", 1.2, "unresolved"),
    ])
    def test_four_verdicts_on_either_side(self, values, side, paper, expected):
        assert expected in claims.VERDICTS
        assert claims.verdict(claim(side, paper), band(*values)) == expected

    @pytest.mark.parametrize("value, expected", [
        (0.79, "reproduced"),
        (0.81, "direction only"),
        (1.0, "not reproduced"),  # on the null is not the paper's side
        (1.01, "not reproduced"),
    ])
    def test_a_one_seed_band_is_its_point(self, value, expected):
        point = band(value)
        assert point.ci_lo == point.ci_hi == value
        assert claims.verdict(claim(), point) == expected

    def test_a_band_straddling_the_null_is_unresolved_whatever_its_mean(self):
        for values in ((0.5, 1.02), (0.98, 1.5)):
            straddle = band(*values)
            assert straddle.ci_lo < 1.0 < straddle.ci_hi
            assert claims.verdict(claim(), straddle) == "unresolved"

    def test_a_claim_of_direction_only_is_reproduced_on_its_side(self):
        assert claims.verdict(claim(paper=None), band(0.99)) == "reproduced"
        assert claims.verdict(claim(">", None), band(1.01)) == "reproduced"
        assert claims.verdict(claim(paper=None), band(1.01)) == "not reproduced"


def cell(*values):
    return {"values": list(values)}


#: Per-seed geomeans over w1/w2: A (2, 4), B (2, 4), C (4, 1).
GRID = {
    "w1": {"A": {"m": cell(1, 2)}, "B": {"m": cell(1, 4)}, "C": {"m": cell(4, 1)}},
    "w2": {"A": {"m": cell(4, 8)}, "B": {"m": cell(4, 4)}, "C": {"m": cell(4, 1)}},
}


class TestStatistic:
    def test_ratio_of_aggregates_per_seed(self):
        geo = claims.Claim("c", "", "", claims.geo("A", "m"), claims.geo("C", "m"), "<", None)
        assert claims.statistic(geo, GRID) == pytest.approx([0.5, 4.0])
        mean = geo._replace(num=claims.mean("A", "m"), den=claims.mean("B", "m"))
        assert claims.statistic(mean, GRID) == pytest.approx([2.5 / 2.5, 5.0 / 4.0])

    def test_alternatives_take_the_ratio_least_favourable_to_the_claim(self):
        num, den = claims.geo("A", "m"), claims.geo(("B", "C"), "m")
        below = claims.Claim("c", "", "", num, den, "<", None)
        # "<" divides by the smaller of B and C: B (2) at seed 0, C (1) at seed 1.
        assert claims.statistic(below, GRID) == pytest.approx([1.0, 4.0])
        above = below._replace(side=">")
        assert claims.statistic(above, GRID) == pytest.approx([0.5, 1.0])
        zero = {"w": {"A": {"m": cell(1.0)}, "B": {"m": cell(2.0)}, "C": {"m": cell(0.0)}}}
        fractions = above._replace(num=claims.mean("A", "m"), den=claims.mean(("B", "C"), "m"))
        # ">" divides by the larger one, so C's zero is never a denominator.
        assert claims.statistic(fractions, zero) == [0.5]

    def test_a_sweep_point_is_read_from_the_root(self):
        sweep = {"10": cell(3.0, 6.0), "20": cell(1.5, 2.0)}
        point = claims.Claim("c", "", "", claims.at("10"), claims.at("20"), "<", None)
        assert claims.statistic(point, sweep) == [2.0, 3.0]


class TestClaimsTable:
    def test_rows_are_well_formed(self):
        ids = [c.id for c in claims.CLAIMS]
        assert len(ids) == len(set(ids))
        for c in claims.CLAIMS:
            assert c.side in ("<", ">"), c.id
            assert c.num.over == c.den.over, c.id
            assert c.num.over is None or c.num.over in claims.AGGREGATES, c.id
            assert (claims.RESULTS / f"{c.source}.json").is_file(), c.id
            if c.paper is not None:  # the paper's value lies on its own side
                assert (c.paper < c.null) == (c.side == "<"), c.id


class TestLedger:
    def test_ledger_is_the_render_of_the_committed_grids(self):
        rendered = claims.render()
        assert rendered == claims.LEDGER.read_text(), (
            "EXPERIMENTS.md is stale: run `PYTHONPATH=src python benchmarks/claims.py`"
        )
        assert list(claims.ledger(rendered)) == [f"`{c.id}`" for c in claims.CLAIMS]

    def test_readme_quotes_the_ledger_counts(self):
        rows = list(claims.ledger(claims.LEDGER.read_text()).values())
        assert claims.summary(rows) in (REPO / "README.md").read_text()

    def _copy(self, tmp_path):
        results = tmp_path / "results"
        shutil.copytree(claims.RESULTS, results)
        return results

    def _perturb(self, results, source, policy, factor):
        path = results / f"{source}.json"
        grid = json.loads(path.read_text())
        for row in grid.values():
            row[policy]["latency"]["values"] = [
                v * factor for v in row[policy]["latency"]["values"]
            ]
        path.write_text(json.dumps(grid))

    def test_a_flipped_verdict_fails_its_figure_test(self, tmp_path):
        results = self._copy(tmp_path)
        (fig9b,) = claims.check("fig9b_latency_hl", results=results)
        assert fig9b.verdict == "not reproduced"
        self._perturb(results, "fig9b_latency_hl", "Sibyl", 0.5)
        with pytest.raises(AssertionError, match="fig9b"):
            claims.check("fig9b_latency_hl", results=results)

    def test_other_scales_print_without_comparing(self, tmp_path, capsys):
        results = self._copy(tmp_path)
        self._perturb(results, "fig9b_latency_hl", "Sibyl", 0.5)
        scales = json.loads((results / "scale.json").read_text())
        scales["fig9b_latency_hl"]["requests"] = 1000
        (results / "scale.json").write_text(json.dumps(scales))
        (fig9b,) = claims.check("fig9b_latency_hl", results=results)
        assert fig9b.verdict == "reproduced"
        assert "| `fig9b` |" in capsys.readouterr().out


def test_a_zero_bearing_column_gets_a_mean_row():
    common = _load("common")

    def seeded(*values):
        return SeededResult.from_values(values, seeds=(0, 1))

    results = {
        "w1": {"CDE": {"eviction_fraction": seeded(0.0, 0.0), "latency": seeded(1.0, 4.0)}},
        "w2": {"CDE": {"eviction_fraction": seeded(0.4, 0.2), "latency": seeded(4.0, 4.0)}},
    }
    evictions = common.metric_table(results, "eviction_fraction")[-1]
    assert evictions["workload"] == "MEAN"
    assert evictions["CDE"].values == pytest.approx((0.2, 0.1))
    latency = common.metric_table(results, "latency")[-1]
    assert latency["workload"] == "GEOMEAN"
    assert latency["CDE"].values == pytest.approx((2.0, 4.0))


def test_fig8_grid_carries_every_seed(tmp_path):
    """``SIBYL_BENCH_SEEDS`` reaches the Fig. 8 sweep: its JSON cells are
    two-seed bands (and, off the ledger's scale, its check only prints)."""
    shutil.copytree(
        REPO / "benchmarks", tmp_path / "benchmarks",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(claims.LEDGER, tmp_path)
    env = dict(
        os.environ, PYTHONPATH=str(REPO / "src"),
        SIBYL_BENCH_SEEDS="2", SIBYL_BENCH_REQUESTS="400",
    )
    env.pop("SIBYL_STORE", None)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_fig8_buffer_size.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    grid = json.loads(
        (tmp_path / "benchmarks" / "results" / "fig8_buffer_size.json").read_text()
    )
    assert {size: len(c["values"]) for size, c in grid.items()} == dict.fromkeys(
        ("1", "10", "100", "1000", "10000"), 2
    )
