"""Tests for the multi-seed campaign engine (repro.sim.campaign).

The contract that matters is **bit-identity per seed** — an N-seed
campaign's seed ``i`` results equal the corresponding serial single-seed
run exactly (float equality, never approx), across heuristic and RL
policies and seed counts {1, 4}.  The reference is always serial
``run_policy`` plus ``normalized_row`` — never another route through
the cell functions, which are the only sweep path and would be compared
with themselves.
"""

import pytest

from repro.baselines import OraclePolicy
from repro.baselines.cde import CDEPolicy
from repro.baselines.extremes import FastOnlyPolicy
from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.sim.campaign import (
    SeededResult,
    aggregate_seeds,
    bootstrap_ci,
    compare_cell_seeds,
    oracle_row,
    resolve_seeds,
    run_seeded_normalized,
    seeded_buffer_size_cell,
    seeded_compare_cell,
    seeded_hyperparameter_cell,
)
from repro.sim.experiment import (
    ORACLE_HORIZONS,
    buffer_size_sweep,
    compare_policies,
    standard_policies,
)
from repro.sim.runner import normalized_row, reference_row, run_policy, run_reference
from repro.store import CampaignStore, fingerprint_cell
from repro.traces.workloads import make_trace

N = 700  # small but non-trivial trace length


def serial_sibyl_row(workload, seed, hyperparams=SIBYL_DEFAULT, warmup=0.3):
    """One Sibyl agent's normalised row, from serial ``run_policy`` only."""
    trace = make_trace(workload, n_requests=N, seed=seed)
    reference = run_policy(
        FastOnlyPolicy(), trace, config="H&M", warmup_fraction=warmup
    )
    result = run_policy(
        SibylAgent(hyperparams=hyperparams, seed=seed),
        trace,
        config="H&M",
        warmup_fraction=warmup,
    )
    return normalized_row(result, reference)


class TestResolveSeeds:
    def test_n_seeds_from_base(self):
        assert resolve_seeds(n_seeds=3, base_seed=5) == (5, 6, 7)

    def test_explicit_seeds(self):
        assert resolve_seeds(seeds=[4, 1, 9]) == (4, 1, 9)

    def test_exactly_one_required(self):
        with pytest.raises(ValueError):
            resolve_seeds()
        with pytest.raises(ValueError):
            resolve_seeds(seeds=[1], n_seeds=2)

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            resolve_seeds(seeds=[])
        with pytest.raises(ValueError):
            resolve_seeds(seeds=[1, 2, 1])
        with pytest.raises(ValueError):
            resolve_seeds(n_seeds=0)


class TestBootstrapCI:
    def test_deterministic(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_single_value_degenerates(self):
        assert bootstrap_ci([7.5]) == (7.5, 7.5)

    def test_interval_brackets_mean_region(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95]
        lo, hi = bootstrap_ci(values)
        assert min(values) <= lo <= hi <= max(values)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)


class TestSeededResult:
    def test_from_values_stats(self):
        stat = SeededResult.from_values([1.0, 3.0], seeds=(0, 1))
        assert stat.mean == 2.0
        assert stat.min == 1.0 and stat.max == 3.0
        assert stat.std == pytest.approx(2.0 ** 0.5)
        assert stat.ci_lo <= stat.mean <= stat.ci_hi
        assert stat.values == (1.0, 3.0)
        assert stat.seeds == (0, 1)

    def test_single_seed_degenerate_band(self):
        stat = SeededResult.from_values([2.5])
        assert stat.std == 0.0
        assert (stat.ci_lo, stat.ci_hi) == (2.5, 2.5)

    def test_seed_value_mismatch_raises(self):
        with pytest.raises(ValueError):
            SeededResult.from_values([1.0, 2.0], seeds=(0,))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SeededResult.from_values([])


class TestAggregateSeeds:
    def test_nested_structure(self):
        per_seed = [
            {"Sibyl": {"latency": 1.0, "name": "a"}},
            {"Sibyl": {"latency": 3.0, "name": "a"}},
        ]
        out = aggregate_seeds(per_seed, seeds=(0, 1))
        band = out["Sibyl"]["latency"]
        assert isinstance(band, SeededResult)
        assert band.values == (1.0, 3.0)
        # Non-numeric leaves keep the first seed's value.
        assert out["Sibyl"]["name"] == "a"

    def test_scalar_leaves(self):
        band = aggregate_seeds([1.0, 2.0, 3.0])
        assert isinstance(band, SeededResult)
        assert band.mean == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_seeds([])


class TestSeedAxisBitIdentity:
    """Each seed of a campaign must equal the serial single-seed run
    with float equality — ``run_lanes``' contract lifted one level."""

    @pytest.mark.parametrize("n_seeds", [1, 4])
    def test_heuristic_and_rl_lanes_match_serial(self, n_seeds):
        seeds = tuple(range(n_seeds))
        traces = [make_trace("rsrch_0", n_requests=N, seed=s) for s in seeds]
        per_seed = run_seeded_normalized(
            seeds,
            traces,
            [[CDEPolicy(), SibylAgent(seed=s)] for s in seeds],
            config="H&M",
        )
        for s, trace, row in zip(seeds, traces, per_seed):
            reference = run_reference(trace, config="H&M")
            expected = {
                "Fast-Only": reference_row(reference),
                "CDE": normalized_row(
                    run_policy(CDEPolicy(), trace, config="H&M"), reference
                ),
                "Sibyl": normalized_row(
                    run_policy(SibylAgent(seed=s), trace, config="H&M"),
                    reference,
                ),
            }
            assert row == expected  # float equality: bit-identical or bust

    def test_compare_cell_per_seed_matches_single_seed_cell(self):
        seeds = (0, 1)
        per_seed = compare_cell_seeds("usr_0", "H&M", N, seeds=seeds)
        for i, s in enumerate(seeds):
            trace = make_trace("usr_0", n_requests=N, seed=s)
            reference = run_policy(
                FastOnlyPolicy(), trace, config="H&M", warmup_fraction=0.3
            )
            serial = {"Fast-Only": reference_row(reference)}
            for policy in standard_policies(seed=s):
                result = run_policy(
                    policy, trace, config="H&M", warmup_fraction=0.3
                )
                serial[result.policy] = normalized_row(result, reference)
            oracle = min(
                (
                    run_policy(
                        OraclePolicy(horizon_scale=horizon),
                        trace,
                        config="H&M",
                        warmup_fraction=0.3,
                    )
                    for horizon in ORACLE_HORIZONS
                ),
                key=lambda result: result.avg_latency_s,
            )
            serial["Oracle"] = oracle_row(oracle, serial["Fast-Only"])
            assert per_seed[i] == serial
            assert list(per_seed[i]) == list(serial)  # row order too

    def test_hyperparameter_cell_values_match_single_seed(self):
        seeds = (2, 5)
        banded = seeded_hyperparameter_cell(
            "discount", 0.9, "usr_0", "H&M", N, seeds=seeds
        )
        hp = SIBYL_DEFAULT.replace(discount=0.9)
        for i, s in enumerate(seeds):
            serial = serial_sibyl_row("usr_0", s, hyperparams=hp)
            assert set(banded) == set(serial)
            for metric, band in banded.items():
                assert band.values[i] == serial[metric]

    def test_buffer_cell_values_match_single_seed(self):
        seeds = (0, 3)
        band = seeded_buffer_size_cell(64, "usr_0", "H&M", N, seeds=seeds)
        hp = SIBYL_DEFAULT.replace(
            buffer_capacity=64, batch_size=min(SIBYL_DEFAULT.batch_size, 64)
        )
        assert band.values == tuple(
            serial_sibyl_row("usr_0", s, hyperparams=hp)["latency"]
            for s in seeds
        )


class TestSweepsWithSeedAxis:
    def test_compare_policies_banded_structure(self):
        out = compare_policies(
            ["usr_0"], n_requests=N, n_seeds=2, max_workers=1
        )
        row = out["usr_0"]
        assert set(row) >= {"Fast-Only", "Sibyl", "Oracle"}
        band = row["Sibyl"]["latency"]
        assert isinstance(band, SeededResult)
        assert band.seeds == (0, 1)
        assert band.min <= band.mean <= band.max
        assert row["Fast-Only"]["latency"].mean == 1.0

    def test_sweep_banded_values_match_single_seed_sweeps(self):
        seeds = (3, 5)
        banded = buffer_size_sweep(
            (16,), workload="usr_0", n_requests=N, seeds=seeds, max_workers=1
        )
        for i, s in enumerate(seeds):
            single = buffer_size_sweep(
                (16,), workload="usr_0", n_requests=N, seed=s, max_workers=1
            )
            assert banded[16].values[i] == single[16]

    def test_parallel_fanout_matches_serial(self):
        kwargs = dict(workload="usr_0", n_requests=N, seeds=(0, 1))
        serial = buffer_size_sweep((8, 32), max_workers=1, **kwargs)
        fanned = buffer_size_sweep((8, 32), max_workers=2, **kwargs)
        assert serial == fanned

    def test_on_cell_streams_completions(self):
        seen = []
        out = buffer_size_sweep(
            (8, 16),
            workload="usr_0",
            n_requests=N,
            seeds=(0, 1),
            max_workers=1,
            on_cell=lambda key, result: seen.append((key, result)),
        )
        assert [key for key, _ in seen] == [8, 16]
        assert dict(seen) == out

    def test_single_seed_path_unchanged(self):
        """No seed axis → the historical scalar output, bit-identical."""
        out = buffer_size_sweep(
            (16,), workload="usr_0", n_requests=N, max_workers=1
        )
        assert isinstance(out[16], float)

    def test_single_seed_and_one_seed_campaign_share_stored_cells(
        self, tmp_path
    ):
        """A plain sweep is the seed axis of length one: an ``n_seeds=1``
        campaign over the same grid finds every cell already stored."""
        store = CampaignStore(tmp_path / "store")
        kwargs = dict(n_requests=N, seed=4, max_workers=1, store=store)
        single = compare_policies(["usr_0", "hm_1"], **kwargs)
        assert (store.hits, store.puts) == (0, 2)
        banded = compare_policies(["usr_0", "hm_1"], n_seeds=1, **kwargs)
        assert (store.hits, store.puts) == (2, 2)
        for workload, row in single.items():
            for policy, metrics in row.items():
                for metric, value in metrics.items():
                    assert isinstance(value, float)
                    band = banded[workload][policy][metric]
                    assert band.values == (value,) and band.seeds == (4,)


def test_cell_addresses_survive_the_one_sweep_path():
    """The seeded cells' names and kwargs are the store's addresses:
    this fingerprint was captured at the commit before the single-seed
    twins were deleted, so campaign stores written then stay warm."""
    kwargs = dict(
        workload="rsrch_0",
        config="H&M",
        n_requests=300,
        seeds=(0, 1),
        warmup_fraction=0.3,
    )
    assert fingerprint_cell(seeded_compare_cell, kwargs) == (
        "835ec102c15540f95f343e43ba2d317f721f847742f4ffa692913ec3accabeb3"
    )
