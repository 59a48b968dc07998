#!/usr/bin/env python3
"""CI store-smoke: interrupt a campaign mid-grid, resume, assert equivalence.

The durable store's headline contract, exercised the way a user would
hit it:

1. run a small banded campaign **cold** (no store) — the reference;
2. run it again against a fresh store and **kill it mid-grid**
   (simulated interrupt after K cells) — exactly K blobs survive;
3. **resume** by rerunning with the same store — assert only the
   missing cells recompute (store miss counter) and the final JSON
   export matches the uninterrupted run **byte for byte**;
4. run once more fully **warm** — assert zero recomputation and the
   same bytes again.

After every phase the store directory must hold nothing but cell blobs
(``cells/<fp[:2]>/<fp>.json``).

Run:  python scripts/store_smoke.py
Exit status is non-zero on any violated assertion; CI runs this as the
store-smoke job.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.experiment import buffer_size_sweep  # noqa: E402
from repro.sim.report import export_json  # noqa: E402
from repro.sim.runner import clear_reference_cache  # noqa: E402
from repro.store import CampaignStore  # noqa: E402

SIZES = (25, 50, 100, 200)
N_REQUESTS = 400
KILL_AFTER = 2
BLOB = re.compile(r"cells/([0-9a-f]{2})/\1[0-9a-f]{62}\.json")


class SimulatedInterrupt(Exception):
    """Stands in for the SIGKILL a real crashed campaign would take."""


def run_sweep(store=None, on_cell=None):
    clear_reference_cache()  # each phase starts as cold as a new process
    return buffer_size_sweep(
        SIZES,
        n_requests=N_REQUESTS,
        max_workers=1,  # in-process so the simulated interrupt lands
        store=store,
        on_cell=on_cell,
    )


def assert_only_blobs(root: str) -> None:
    """Every file under the store root is a cell blob."""
    strays = [
        path.relative_to(root).as_posix()
        for path in Path(root).rglob("*")
        if path.is_file()
        and not BLOB.fullmatch(path.relative_to(root).as_posix())
    ]
    assert not strays, f"store holds files that are not blobs: {strays}"


def main() -> int:
    print(f"store smoke: {len(SIZES)} cells x {N_REQUESTS} requests")

    cold = run_sweep()
    cold_json = export_json(cold)
    print(f"1. cold reference computed ({len(cold)} cells)")

    with tempfile.TemporaryDirectory(prefix="sibyl-store-smoke-") as root:
        completed = []

        def killer(key, _result):
            completed.append(key)
            if len(completed) >= KILL_AFTER:
                raise SimulatedInterrupt(key)

        try:
            run_sweep(store=CampaignStore(root), on_cell=killer)
        except SimulatedInterrupt:
            pass
        else:
            print("FAIL: the simulated interrupt never fired")
            return 1
        crashed = CampaignStore(root)
        assert len(crashed) == KILL_AFTER, (
            f"expected {KILL_AFTER} surviving blobs, found {len(crashed)}"
        )
        assert_only_blobs(root)
        print(
            f"2. killed mid-grid after {KILL_AFTER} cells; "
            f"{len(crashed)} blobs survived, nothing else on disk"
        )

        resumed_store = CampaignStore(root)
        resumed = run_sweep(store=resumed_store)
        missing = len(SIZES) - KILL_AFTER
        assert resumed_store.hits == KILL_AFTER, resumed_store.hits
        assert resumed_store.misses == missing, resumed_store.misses
        assert resumed_store.puts == missing, resumed_store.puts
        resumed_json = export_json(resumed)
        assert resumed_json == cold_json, (
            "resumed JSON differs from the uninterrupted run"
        )
        assert_only_blobs(root)
        print(
            f"3. resumed: {resumed_store.hits} cells from store, "
            f"{resumed_store.misses} recomputed; JSON byte-identical"
        )

        warm_store = CampaignStore(root)
        warm = run_sweep(store=warm_store)
        assert warm_store.hits == len(SIZES), warm_store.hits
        assert warm_store.misses == 0 and warm_store.puts == 0
        assert export_json(warm) == cold_json
        assert_only_blobs(root)
        print(
            f"4. fully warm rerun: {warm_store.hits}/{len(SIZES)} cells "
            "served from store, zero recomputation, JSON byte-identical"
        )

    print("store smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
