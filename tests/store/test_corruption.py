"""Store corruption hardening: damaged state is logged, ignored, recomputed.

The durability contract's hostile half: a crash (or a stray editor) can
leave a truncated or garbage blob.  That may not crash a campaign or
poison a report — the store must treat every unreadable blob as a cache
miss, say so in the log, and let the recompute heal it.  Files other
than blobs, such as the ones older versions wrote beside them, are
never read at all.
"""

import json

import pytest

from repro.sim.campaign import seeded_buffer_size_cell
from repro.sim.parallel import Cell, run_grid, run_many
from repro.store import MISS, CampaignStore


def _cells(sizes=(40, 80)):
    return [
        Cell(
            key=size,
            fn=seeded_buffer_size_cell,
            kwargs=dict(
                size=size,
                workload="rsrch_0",
                config="H&M",
                n_requests=250,
                seeds=(0,),
                warmup_fraction=0.3,
            ),
        )
        for size in sizes
    ]


@pytest.fixture
def warm_store(tmp_path):
    """A store holding the two-cell grid's results, plus the cells."""
    store = CampaignStore(tmp_path / "store")
    cells = _cells()
    baseline = run_many(cells, max_workers=0, store=store)
    return store, cells, dict(baseline)


def _blob_paths(store):
    return sorted(store.cells_dir.glob("*/*.json"))


class TestBlobCorruption:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.write_text("{ not json"),
            lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
            lambda p: p.write_text(""),
            lambda p: p.write_text('{"fingerprint": "wrong", "schema": 1}'),
            lambda p: p.write_text(
                '{"fingerprint": "%s", "schema": 9999, "result": 1}'
                % p.stem
            ),
            lambda p: p.write_text(
                '{"fingerprint": "%s", "schema": 1, "result": '
                '{"__kind__": "martian"}}' % p.stem
            ),
        ],
        ids=[
            "garbage",
            "truncated",
            "empty",
            "wrong-fingerprint",
            "wrong-schema",
            "unknown-kind",
        ],
    )
    def test_damaged_blob_is_miss_logged_recomputed(
        self, warm_store, caplog, damage
    ):
        store, cells, baseline = warm_store
        victim = _blob_paths(store)[0]
        damage(victim)
        fresh = CampaignStore(store.root)
        with caplog.at_level("WARNING", logger="repro.store"):
            results = run_grid(cells, max_workers=0, store=fresh)
        assert "store blob" in caplog.text  # corruption was reported
        assert fresh.misses == 1 and fresh.hits == 1
        # The recompute healed the blob and the report is unpoisoned.
        assert results == baseline
        healed = CampaignStore(store.root)
        assert all(healed.get(p.stem) is not MISS for p in _blob_paths(store))

    def test_get_never_raises_on_garbage(self, warm_store, caplog):
        store, _, _ = warm_store
        victim = _blob_paths(store)[0]
        victim.write_bytes(b"\x00\xff\xfe garbage \x00")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get(victim.stem) is MISS


class TestOlderLayout:
    def test_leftover_files_beside_the_blobs_are_ignored(self, warm_store):
        """A store written by an older version also holds an index, a
        campaign record directory and a marker file; damaged or not,
        they change nothing, and the store is served fully warm."""
        store, cells, baseline = warm_store
        (store.root / "index.jsonl").write_text(
            '{"fingerprint": "ab"}\n{"fingerprint": "torn-li'
        )
        (store.root / "journals").mkdir(exist_ok=True)
        (store.root / "journals" / "x.json").write_text("{ torn mid-write")
        (store.root / "store.json").write_text("\x00garbage")
        fresh = CampaignStore(store.root)
        assert run_grid(cells, max_workers=0, store=fresh) == baseline
        assert fresh.hits == 2 and fresh.misses == 0


class TestWholeStoreAbuse:
    def test_every_blob_corrupted_full_recompute(self, warm_store, caplog):
        store, cells, baseline = warm_store
        for blob in _blob_paths(store):
            blob.write_text(json.dumps({"schema": "??"}))
        fresh = CampaignStore(store.root)
        with caplog.at_level("WARNING", logger="repro.store"):
            results = run_grid(cells, max_workers=0, store=fresh)
        assert results == baseline
        assert fresh.misses == 2 and fresh.puts == 2
