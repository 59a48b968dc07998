"""Interrupt/resume equivalence: the store's acceptance contract.

Three guarantees, asserted end-to-end through the real sweep stack:

1. **Resume equivalence** — a campaign killed mid-grid and resumed
   recomputes only the missing cells and produces a report (table +
   ``export_json``) byte-identical to an uninterrupted cold run.
2. **Warm zero-work** — a fully-warm rerun performs **zero simulation
   ticks**, observed through the ``run_lanes(stats=)`` engine counters.
3. **Transparent delivery** — store hits stream through ``on_cell``
   exactly like fresh results.
"""

import pytest

from repro.core.agent import SibylAgent
from repro.sim.campaign import aggregate_seeds, run_seeded_normalized
from repro.sim.experiment import buffer_size_sweep, compare_policies
from repro.sim.parallel import Cell, run_many
from repro.sim.report import export_json, format_series, format_table
from repro.sim.runner import clear_reference_cache
from repro.store import CampaignStore
from repro.traces.workloads import make_trace

SIZES = (30, 60, 120, 240)
N = 250  # requests per cell: small but exercises training + eviction


@pytest.fixture(autouse=True)
def _fresh_reference_cache():
    # The per-process Fast-Only memo must not leak warmth between the
    # cold/interrupted/resumed phases of these tests.
    clear_reference_cache()
    yield
    clear_reference_cache()


def seeded_cell(workload, n_requests, seeds, stats=None):
    """Module-level seeded cell carrying a ``run_lanes(stats=)`` probe."""
    seeds = list(seeds)
    per_seed = run_seeded_normalized(
        seeds,
        [make_trace(workload, n_requests=n_requests, seed=s) for s in seeds],
        [[SibylAgent(seed=s)] for s in seeds],
        stats=stats,
    )
    return aggregate_seeds(per_seed, seeds=seeds)


class Interrupter:
    """``on_cell`` hook that simulates a crash after ``allow`` cells."""

    def __init__(self, allow):
        self.allow = allow
        self.seen = []

    def __call__(self, key, _result):
        self.seen.append(key)
        if len(self.seen) >= self.allow:
            raise KeyboardInterrupt("simulated mid-grid crash")


class TestInterruptResume:
    def test_resume_recomputes_only_missing_and_matches_cold(self, tmp_path):
        cold = buffer_size_sweep(SIZES, n_requests=N, max_workers=0)
        cold_table = format_series(cold, label="latency")
        cold_json = export_json(cold)

        # Campaign dies after 2 of 4 cells.
        store_dir = tmp_path / "store"
        interrupter = Interrupter(allow=2)
        clear_reference_cache()
        with pytest.raises(KeyboardInterrupt):
            buffer_size_sweep(
                SIZES,
                n_requests=N,
                max_workers=0,
                store=CampaignStore(store_dir),
                on_cell=interrupter,
            )
        crashed = CampaignStore(store_dir)
        assert len(crashed) == 2  # completed cells survived the crash

        # Resume: only the 2 missing cells recompute.
        clear_reference_cache()
        resumed_store = CampaignStore(store_dir)
        resumed = buffer_size_sweep(
            SIZES, n_requests=N, max_workers=0, store=resumed_store
        )
        assert resumed_store.hits == 2
        assert resumed_store.misses == 2
        assert resumed_store.puts == 2

        # Bit-identical result objects, byte-identical report + JSON.
        assert resumed == cold
        assert format_series(resumed, label="latency") == cold_table
        assert export_json(resumed) == cold_json


class TestWarmZeroTicks:
    def test_fully_warm_rerun_simulates_nothing(self, tmp_path):
        store_dir = tmp_path / "store"

        def cells(stats):
            return [
                Cell(
                    key=workload,
                    fn=seeded_cell,
                    kwargs=dict(
                        workload=workload,
                        n_requests=N,
                        seeds=(0, 1),
                        stats=stats,
                    ),
                )
                for workload in ("rsrch_0", "usr_0")
            ]

        cold_stats = {}
        cold = run_many(
            cells(cold_stats), max_workers=0, store=CampaignStore(store_dir)
        )
        assert cold_stats["ticks"] > 0  # the cold run really simulated

        clear_reference_cache()
        warm_stats = {}
        warm_store = CampaignStore(store_dir)
        warm = run_many(
            cells(warm_stats), max_workers=0, store=warm_store
        )
        # Zero simulation ticks: the engine counters were never touched.
        assert warm_stats == {}
        assert warm_store.hits == 2 and warm_store.misses == 0
        assert warm == cold  # exact equality, SeededResult bands included

    def test_warm_seeded_sweep_byte_identical_reports(self, tmp_path):
        store_dir = tmp_path / "store"
        kwargs = dict(
            workloads=["rsrch_0"],
            n_requests=N,
            n_seeds=2,
            max_workers=0,
        )
        cold = compare_policies(store=CampaignStore(store_dir), **kwargs)
        clear_reference_cache()
        warm_store = CampaignStore(store_dir)
        warm = compare_policies(store=warm_store, **kwargs)
        assert warm_store.hits == 1 and warm_store.misses == 0
        assert warm == cold
        rows = [
            [
                {"workload": w, **{p: m["latency"] for p, m in row.items()}}
                for w, row in grid.items()
            ]
            for grid in (cold, warm)
        ]
        assert format_table(rows[0]) == format_table(rows[1])
        assert export_json(cold) == export_json(warm)


class TestTransparentDelivery:
    def test_hits_stream_through_on_cell_like_fresh_results(self, tmp_path):
        store_dir = tmp_path / "store"
        fresh_seen = []
        cold = buffer_size_sweep(
            SIZES,
            n_requests=N,
            max_workers=0,
            store=CampaignStore(store_dir),
            on_cell=lambda key, result: fresh_seen.append((key, result)),
        )
        clear_reference_cache()
        warm_seen = []
        warm = buffer_size_sweep(
            SIZES,
            n_requests=N,
            max_workers=0,
            store=CampaignStore(store_dir),
            on_cell=lambda key, result: warm_seen.append((key, result)),
        )
        assert warm == cold
        assert sorted(warm_seen) == sorted(fresh_seen)
        assert [key for key, _ in warm_seen] == list(SIZES)

    def test_cli_store_flags(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        args = ["compare", "--workloads", "usr_0", "--requests", "300"]
        assert main(args + ["--store", "cli-store"]) == 0
        cold_out = capsys.readouterr().out
        # The store is its blobs: nothing is written beside cells/.
        assert [p.name for p in (tmp_path / "cli-store").iterdir()] == [
            "cells"
        ]
        clear_reference_cache()
        assert main(args + ["--store", "cli-store"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold_out  # warm table byte-identical
        assert "1 cell(s) served from store" in captured.err

        # --no-store wins over SIBYL_STORE; nothing is created.
        monkeypatch.setenv("SIBYL_STORE", str(tmp_path / "env-store"))
        clear_reference_cache()
        assert main(args + ["--no-store"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "env-store").exists()
