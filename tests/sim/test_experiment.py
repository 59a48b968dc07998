"""Tests for the experiment sweeps (small instances of each figure)."""

import pytest

from repro.sim import campaign, runner
from repro.sim.campaign import _resolve_trace
from repro.sim.experiment import (
    ORACLE_HORIZONS,
    buffer_size_sweep,
    capacity_sweep,
    compare_policies,
    feature_ablation,
    hyperparameter_sweep,
    mixed_workload_comparison,
    run_oracle_best,
    standard_policies,
    tri_hybrid_comparison,
    unseen_workload_comparison,
)
from repro.traces.msrc import dump_msrc_csv
from repro.traces.workloads import make_trace

N = 3000  # small but non-trivial trace length for sweep tests


class TestStandardPolicies:
    def test_lineup(self):
        names = [p.name for p in standard_policies()]
        assert names == [
            "Slow-Only",
            "CDE",
            "HPS",
            "Archivist",
            "RNN-HSS",
            "Sibyl",
        ]

    def test_without_sibyl(self):
        names = [p.name for p in standard_policies(include_sibyl=False)]
        assert "Sibyl" not in names


class TestOracleBest:
    def test_picks_minimum(self):
        trace = make_trace("usr_0", n_requests=N, seed=0)
        best = run_oracle_best(trace, "H&M")
        assert best.policy == "Oracle"
        assert best.avg_latency_s > 0
        assert len(ORACLE_HORIZONS) >= 2


class TestComparePolicies:
    def test_structure(self):
        out = compare_policies(["usr_0"], config="H&M", n_requests=N)
        assert set(out) == {"usr_0"}
        row = out["usr_0"]
        assert "Sibyl" in row and "Oracle" in row and "Fast-Only" in row
        assert row["Fast-Only"]["latency"] == 1.0

    def test_all_latencies_at_least_reference(self):
        out = compare_policies(["usr_0"], config="H&M", n_requests=N)
        for policy, metrics in out["usr_0"].items():
            assert metrics["latency"] > 0

    def test_accepts_msrc_workloads(self, tmp_path):
        """A streamed capture is resolved like every cell's trace, with
        or without a seed axis."""
        path = tmp_path / "capture.csv"
        dump_msrc_csv(make_trace("rsrch_0", n_requests=150, seed=0), path)
        name = f"msrc:{path}"
        plain = compare_policies([name], n_requests=120)
        lineup = [p.name for p in standard_policies()]
        assert list(plain[name]) == ["Fast-Only", *lineup, "Oracle"]
        banded = compare_policies([name], n_requests=120, n_seeds=2)
        assert banded[name]["CDE"]["latency"].values[0] == (
            plain[name]["CDE"]["latency"]
        )


class TestSweeps:
    def test_capacity_sweep(self):
        out = capacity_sweep("usr_0", fractions=(0.05, 0.5), n_requests=N)
        assert set(out) == {0.05, 0.5}
        # More fast capacity should not hurt Sibyl's latency much; at
        # minimum the sweep must produce finite positive values.
        for frac, row in out.items():
            assert row["Sibyl"]["latency"] > 0

    def test_capacity_sweep_rejects_zero(self):
        with pytest.raises(ValueError):
            capacity_sweep("usr_0", fractions=(0.0,), n_requests=N)

    def test_hyperparameter_sweep(self):
        out = hyperparameter_sweep(
            "discount", (0.0, 0.9), workload="usr_0", n_requests=N
        )
        assert set(out) == {0.0, 0.9}

    def test_buffer_size_sweep(self):
        out = buffer_size_sweep((10, 100), workload="usr_0", n_requests=N)
        assert set(out) == {10, 100}
        assert all(v > 0 for v in out.values())

    def test_feature_ablation(self):
        out = feature_ablation(
            ["usr_0"], feature_sets=("rt", "all"), n_requests=N
        )
        assert set(out["usr_0"]) == {"rt", "all"}


class TestTriHybrid:
    def test_structure(self):
        out = tri_hybrid_comparison(["usr_0"], config="H&M&L", n_requests=N)
        row = out["usr_0"]
        assert "Heuristic-Tri-Hybrid" in row
        assert "Sibyl" in row


class TestMixedAndUnseen:
    def test_mixed(self):
        out = mixed_workload_comparison(
            ["mix2"], n_requests_per_component=N // 2
        )
        row = out["mix2"]
        assert "Sibyl_Def" in row and "Sibyl_Opt" in row

    def test_unseen(self):
        out = unseen_workload_comparison(["oltp_rw"], n_requests=N)
        row = out["oltp_rw"]
        assert "Sibyl" in row and "Archivist" in row and "RNN-HSS" in row


class TestTraceMemo:
    """Synthetic traces are generated once per process, not per cell."""

    def test_second_call_returns_the_same_immutable_object(self):
        runner.clear_reference_cache()
        first = _resolve_trace("rsrch_0", 400, 3)
        assert _resolve_trace("rsrch_0", 400, 3) is first
        assert isinstance(first, tuple)
        assert list(first) == make_trace("rsrch_0", n_requests=400, seed=3)

    def test_keyed_by_workload_length_and_seed(self):
        runner.clear_reference_cache()
        base = _resolve_trace("rsrch_0", 300, 0)
        assert _resolve_trace("hm_1", 300, 0) != base
        assert len(_resolve_trace("rsrch_0", 200, 0)) == 200
        assert _resolve_trace("rsrch_0", 300, 1) != base
        assert _resolve_trace("rsrch_0", 300, 0) is base

    def test_eviction_is_bounded_and_least_recently_used(self):
        runner.clear_reference_cache()
        limit = runner.synthetic_trace.cache_info().maxsize
        first = _resolve_trace("rsrch_0", 50, 0)
        for seed in range(1, limit):
            _resolve_trace("rsrch_0", 50, seed)
        assert _resolve_trace("rsrch_0", 50, 0) is first  # refreshes seed 0
        _resolve_trace("rsrch_0", 50, limit)  # evicts seed 1, the oldest
        assert runner.synthetic_trace.cache_info().currsize == limit
        assert _resolve_trace("rsrch_0", 50, 0) is first
        misses = runner.synthetic_trace.cache_info().misses
        _resolve_trace("rsrch_0", 50, 1)
        assert runner.synthetic_trace.cache_info().misses == misses + 1

    def test_msrc_sources_bypass_the_memo(self, tmp_path):
        runner.clear_reference_cache()
        path = tmp_path / "capture.csv"
        dump_msrc_csv(make_trace("rsrch_0", n_requests=60, seed=0), path)
        first = _resolve_trace(f"msrc:{path}", 40, 0)
        second = _resolve_trace(f"msrc:{path}", 40, 0)
        assert first is not second
        assert list(first) == list(second) and len(list(first)) == 40
        assert runner.synthetic_trace.cache_info().currsize == 0

    def test_memoised_campaign_equals_unmemoised(self, monkeypatch):
        kwargs = dict(workload="rsrch_0", n_requests=600, max_workers=1)
        values = (1e-4, 1e-3)
        runner.clear_reference_cache()
        hyperparameter_sweep("learning_rate", values, **kwargs)  # fills it
        assert runner.synthetic_trace.cache_info().currsize == 1
        memoised = hyperparameter_sweep("learning_rate", values, **kwargs)
        monkeypatch.setattr(
            campaign, "_resolve_trace",
            lambda workload, n, seed: make_trace(workload, n, seed),
        )
        runner.clear_reference_cache()
        fresh = hyperparameter_sweep("learning_rate", values, **kwargs)
        assert runner.synthetic_trace.cache_info().currsize == 0
        assert memoised == fresh  # float equality: bit-identical or bust
