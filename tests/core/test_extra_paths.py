"""Coverage for less-travelled paths across packages."""


from repro.baselines.extremes import FastOnlyPolicy
from repro.cli import main as cli_main
from repro.core.features import FeatureExtractor
from repro.hss.devices import make_devices
from repro.hss.request import OpType, Request
from repro.hss.system import HybridStorageSystem
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace


class TestFeatureNames:
    def test_ablation_set_names(self, hm_system):
        ex = FeatureExtractor(hm_system, feature_set="rt+ft+pt")
        assert ex.feature_names() == ["size", "type", "cnt", "curr"]

    def test_tri_names_include_both_caps(self, tri_system):
        names = FeatureExtractor(tri_system).feature_names()
        assert names.count("cap[0]") == 1
        assert names.count("cap[1]") == 1


class TestRunnerExplicitHSS:
    def test_explicit_hss_is_used(self):
        trace = make_trace("usr_0", n_requests=300, seed=0)
        hss = HybridStorageSystem(make_devices("H&M"), [None, None])
        result = run_policy(FastOnlyPolicy(), trace, hss=hss)
        assert hss.stats.requests == 300
        assert result.n_requests == 300

    def test_explicit_hss_not_rebuilt_per_policy(self):
        """Passing an hss bypasses build_hss (and its unbounded logic)."""
        trace = make_trace("usr_0", n_requests=200, seed=0)
        hss = HybridStorageSystem(make_devices("H&M"), [8, None])
        run_policy(FastOnlyPolicy(), trace, hss=hss)
        # Fast-Only against a *bounded* explicit system does evict.
        assert hss.stats.eviction_events > 0


class TestCLITri:
    def test_run_on_tri_config(self, capsys):
        assert cli_main([
            "run", "--policy", "tri-heuristic", "--workload", "usr_0",
            "--config", "H&M&L", "--requests", "300",
        ]) == 0
        assert "H&M&L" in capsys.readouterr().out


class TestSystemEdges:
    def test_write_spanning_devices_consolidates(self, hm_system):
        hm_system.serve(Request(0.0, OpType.WRITE, 10, 1), action=0)
        hm_system.serve(Request(1.0, OpType.WRITE, 11, 1), action=1)
        hm_system.serve(Request(2.0, OpType.WRITE, 10, 2), action=0)
        assert hm_system.page_location(10) == 0
        assert hm_system.page_location(11) == 0

    def test_read_spanning_unmapped_and_mapped(self, hm_system):
        hm_system.serve(Request(0.0, OpType.WRITE, 10, 1), action=0)
        result = hm_system.serve(Request(1.0, OpType.READ, 10, 3), action=0)
        # Pages 11, 12 were unmapped -> slowest, then promoted by action.
        assert result.promoted_pages == 2
        assert all(hm_system.page_location(p) == 0 for p in (10, 11, 12))
