"""Each analyzer rule catches its seeded fixture violation — and only it."""

from pathlib import Path

from repro.analysis import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, **kwargs):
    kwargs.setdefault("determinism_scope", None)
    return run_lint([FIXTURES / f"{name}.py"], **kwargs)


class TestDeterminismRule:
    def test_catches_every_violation_class(self):
        report = lint_fixture("det_violation")
        det = [f for f in report.findings if f.rule == "SBL-DET"]
        assert len(det) == len(report.findings) == 6
        # one finding per violation class: clock, global RNG, numpy
        # global RNG, fs-order listing, id() sort key, set iteration
        messages = " | ".join(f.message for f in det)
        assert "wall-clock" in messages
        assert "random.random" in messages
        assert "np.random.rand" in messages
        assert "os.listdir" in messages
        assert "id()" in messages
        assert "set" in messages

    def test_sorted_listing_is_allowed(self):
        report = lint_fixture("det_violation")
        src = (FIXTURES / "det_violation.py").read_text().splitlines()
        safe_line = next(i + 1 for i, line in enumerate(src)
                         if "sorted(os.listdir" in line)
        assert safe_line not in {f.line for f in report.findings}

    def test_scope_excludes_modules_outside_the_core(self):
        # Under the default scope (repro.sim/rl/hss/store) a fixture
        # module named `det_violation` is out of scope: no findings.
        report = run_lint([FIXTURES / "det_violation.py"])
        assert report.findings == []


class TestHookPairRule:
    def test_flags_unbalanced_begins_only(self):
        report = lint_fixture("hook_violation")
        assert {f.rule for f in report.findings} == {"SBL-HOOK"}
        assert len(report.findings) == 3
        src = (FIXTURES / "hook_violation.py").read_text().splitlines()
        flagged = "".join(src[f.line - 1] for f in report.findings)
        # the three seeded violations...
        assert flagged.count("begin") == 3
        # ...and none of the balanced shapes
        for f in report.findings:
            assert f.line < src.index("class BalancedFinally:") + 1 or \
                f.line > len(src) - 5  # LoopNotGuaranteed at the tail

    def test_finally_branch_raise_and_abort_all_discharge(self):
        report = lint_fixture("hook_violation")
        lines = {f.line for f in report.findings}
        src = (FIXTURES / "hook_violation.py").read_text().splitlines()
        for marker in ("finally always commits", "both branches discharge",
                       "the non-commit path raises"):
            lineno = next(i + 1 for i, line in enumerate(src)
                          if marker in line)
            assert lineno not in lines


class TestEnvKnobRule:
    def test_flags_the_stray_environment_read(self):
        report = lint_fixture("env_violation")
        assert [f.rule for f in report.findings] == ["SBL-ENV"]
        (finding,) = report.findings
        assert "os.environ" in finding.message
        assert "knobs.get" in finding.message

    def test_knobs_module_is_the_one_exemption(self, tmp_path):
        source = (FIXTURES / "env_violation.py").read_text()
        owner = tmp_path / "repro" / "knobs.py"
        other = tmp_path / "repro" / "other.py"
        owner.parent.mkdir()
        owner.write_text(source)
        other.write_text(source + "from os import getenv  # flagged too\n")
        report = run_lint([tmp_path])
        assert {f.path for f in report.findings} == {str(other)}
        assert len(report.findings) == 2


class TestForkSafetyRule:
    def test_flags_mutable_global_reached_from_pool(self):
        report = lint_fixture("fork_violation")
        assert {f.rule for f in report.findings} == {"SBL-FORK"}
        assert all("_RESULTS" in f.message for f in report.findings)
        # the immutable LIMIT constant is not flagged
        assert not any("LIMIT" in f.message for f in report.findings)


class TestCleanFixture:
    def test_no_rule_fires(self):
        report = lint_fixture("clean")
        assert report.findings == []
        assert report.ok
