"""The shipped tree itself lints clean — the analyzer's reason to exist.

This is the same gate CI's ``lint`` job enforces; keeping it in tier-1
means a violation fails fast locally instead of one workflow later.
"""

from pathlib import Path

from repro.analysis import run_lint

REPO = Path(__file__).resolve().parents[2]


class TestShippedTree:
    def test_src_is_clean(self):
        report = run_lint([REPO / "src"])
        assert report.findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}"
            for f in report.findings
        )
        assert report.ok
        assert report.n_files > 50  # really walked the tree

    def test_benchmarks_and_scripts_are_clean(self):
        report = run_lint(
            [REPO / "benchmarks", REPO / "scripts", REPO / "examples"]
        )
        assert report.findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}"
            for f in report.findings
        )

    def test_suppressions_in_src_are_few_and_reviewed(self):
        # None since the serve engine stopped owning the commit of an
        # externally trained agent.  A growing count means new
        # suppressions landed without review — update this number only
        # alongside a justification comment.
        report = run_lint([REPO / "src"])
        assert report.suppressed == 0

    def test_kernels_dir_is_clean_with_zero_suppressions(self):
        # The kernels are the innermost bit-identity core: SBL-DET and
        # SBL-FORK must pass outright here, so the pin is zero — not
        # "few".  (The Python/C boundary itself is generated from
        # native/abi.py and checked at runtime, not by lint.)
        report = run_lint([REPO / "src" / "repro" / "sim" / "kernels"])
        assert report.findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}"
            for f in report.findings
        )
        assert report.suppressed == 0
