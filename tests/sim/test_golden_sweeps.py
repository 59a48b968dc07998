"""Golden exports of all eight public sweeps, single-seed and seeded.

``golden_sweeps.json`` was captured at the commit *before* the
single-seed cells of :mod:`repro.sim.experiment` were deleted and every
sweep became the seed axis of the seeded cells in
:mod:`repro.sim.campaign`, so the one sweep path must reproduce both
historical outputs — plain floats without a seed axis, confidence bands
with one — byte for byte through :func:`repro.sim.report.export_json`.

Regenerate (only when a result change is *intended*) with
``PYTHONPATH=src python tests/sim/test_golden_sweeps.py``.

The same table of sweeps carries the store-address contract that the
retired ``SBL-FPR`` lint rule approximated from ``Cell(fn=<Name>)``
literals: the cells every sweep *really* builds must pickle (workers)
and fingerprint (the durable store), checked on the objects themselves.
"""

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim import experiment
from repro.sim.campaign import seeded_buffer_size_cell
from repro.sim.experiment import (
    buffer_size_sweep,
    capacity_sweep,
    compare_policies,
    feature_ablation,
    hyperparameter_sweep,
    mixed_workload_comparison,
    tri_hybrid_comparison,
    unseen_workload_comparison,
)
from repro.sim.parallel import Cell
from repro.sim.report import export_json
from repro.store import Unfingerprintable, fingerprint_cell

GOLDEN_PATH = Path(__file__).with_name("golden_sweeps.json")
N = 800
COMMON = dict(seed=3, max_workers=1)

SWEEPS = {
    "compare_policies": lambda **kw: compare_policies(
        ["usr_0", "hm_1"], n_requests=N, **COMMON, **kw
    ),
    "capacity_sweep": lambda **kw: capacity_sweep(
        "rsrch_0", (0.05, 0.2), n_requests=N, **COMMON, **kw
    ),
    "hyperparameter_sweep": lambda **kw: hyperparameter_sweep(
        "discount", (0.0, 0.9), workload="usr_0", n_requests=N, **COMMON, **kw
    ),
    "feature_ablation": lambda **kw: feature_ablation(
        ["usr_0", "hm_1"], ("rt", "all"), n_requests=N, **COMMON, **kw
    ),
    "buffer_size_sweep": lambda **kw: buffer_size_sweep(
        (16, 200), workload="usr_0", n_requests=N, **COMMON, **kw
    ),
    "tri_hybrid_comparison": lambda **kw: tri_hybrid_comparison(
        ["usr_0"], n_requests=N, **COMMON, **kw
    ),
    "mixed_workload_comparison": lambda **kw: mixed_workload_comparison(
        ["mix2"], n_requests_per_component=N // 2, **COMMON, **kw
    ),
    "unseen_workload_comparison": lambda **kw: unseen_workload_comparison(
        ["oltp_rw"], n_requests=N, **COMMON, **kw
    ),
}

SEED_AXES = {"single": {}, "seeded": {"n_seeds": 2}}


def _capture() -> dict:
    return {
        axis: {name: json.loads(export_json(sweep(**kw))) for name, sweep in SWEEPS.items()}
        for axis, kw in SEED_AXES.items()
    }


@pytest.mark.parametrize("axis", sorted(SEED_AXES))
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_export_matches_golden(name, axis):
    golden = json.loads(GOLDEN_PATH.read_text())[axis][name]
    # Shortest-repr floats and insertion-ordered dicts round-trip
    # through json exactly, so re-dumping the golden is its export text.
    assert export_json(SWEEPS[name](**SEED_AXES[axis])) == json.dumps(golden, indent=2)


def storable(cell: Cell) -> str:
    """The cell's store address, having survived a pickle round trip."""
    clone = pickle.loads(pickle.dumps(cell))
    assert clone.fn is cell.fn and clone.kwargs == cell.kwargs
    return fingerprint_cell(cell.fn, cell.kwargs)


@pytest.mark.parametrize("axis", sorted(SEED_AXES))
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_cells_pickle_and_fingerprint(monkeypatch, name, axis):
    cells = []

    def capture(grid, **_):
        cells.extend(grid)
        return {cell.key: None for cell in grid}

    monkeypatch.setattr(experiment, "run_grid", capture)
    SWEEPS[name](**SEED_AXES[axis])
    assert cells
    addresses = {storable(cell) for cell in cells}
    assert len(addresses) == len(cells)  # one blob per grid point


def test_storable_rejects_what_the_store_cannot_address():
    good = Cell(
        key=16,
        fn=seeded_buffer_size_cell,
        kwargs=dict(
            size=16, workload="usr_0", config="H&M", n_requests=N,
            seeds=(3,), warmup_fraction=0.3,
        ),
    )
    storable(good)

    def closure_cell(**kwargs):
        return good

    for bad in (
        replace(good, fn=lambda **kwargs: 0.0),
        replace(good, fn=closure_cell),
        replace(good, kwargs={**good.kwargs, "size": {16}}),
    ):
        with pytest.raises(
            (pickle.PicklingError, AttributeError, Unfingerprintable)
        ):
            storable(bad)


def _write_golden(golden: dict) -> None:
    """One compact line per (axis, sweep): diffable by sweep, not 6k lines."""
    axes = [
        ' "%s": {\n%s\n }' % (
            axis,
            ",\n".join(
                '  "%s": %s' % (name, json.dumps(grid, separators=(",", ":")))
                for name, grid in sweeps.items()
            ),
        )
        for axis, sweeps in golden.items()
    ]
    GOLDEN_PATH.write_text("{\n%s\n}\n" % ",\n".join(axes))


if __name__ == "__main__":
    _write_golden(_capture())
