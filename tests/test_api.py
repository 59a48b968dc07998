"""Public API surface tests: imports, __all__ consistency, version."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_quickstart_docstring_flow(self):
        """The package docstring's example actually runs."""
        trace = repro.make_trace("rsrch_0", n_requests=300)
        result = repro.run_policy(
            repro.SibylAgent(seed=0), trace, config="H&M"
        )
        assert result.avg_latency_s > 0
        assert result.iops > 0


@pytest.mark.parametrize(
    "module",
    [
        "repro.rl",
        "repro.hss",
        "repro.traces",
        "repro.core",
        "repro.baselines",
        "repro.sim",
        "repro.cli",
    ],
)
class TestSubpackages:
    def test_all_exports_exist(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.hss",
        "repro.traces",
        "repro.core",
        "repro.baselines",
        "repro.sim",
    ],
)
class TestLazyPackages:
    """These packages resolve their exports on first access (PEP 562);
    introspection and star-imports must not be able to tell."""

    def test_dir_lists_every_export(self, package):
        mod = importlib.import_module(package)
        assert set(mod.__all__) <= set(dir(mod))

    def test_star_import_binds_every_export(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        mod = importlib.import_module(package)
        for name in mod.__all__:
            assert namespace[name] is getattr(mod, name)

    def test_unknown_name_is_an_attribute_error(self, package):
        mod = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            mod.no_such_name


class TestCrossPackageConsistency:
    def test_policy_registry_matches_classes(self):
        from repro.baselines import available_policies, make_policy
        from repro.baselines.base import PlacementPolicy

        for name in available_policies():
            assert isinstance(make_policy(name), PlacementPolicy)

    def test_device_registry_matches_specs(self):
        from repro.hss import available_devices, make_device

        for name in available_devices():
            device = make_device(name)
            assert device.spec.name == name

    def test_workload_catalog_consistent_with_table4(self):
        from repro.traces import MSRC_WORKLOADS, get_workload

        for name, spec in MSRC_WORKLOADS.items():
            assert get_workload(name) is spec
