"""The lint CLI surface and the CLI's fatal-error exit contract.

Exit codes: 0 = clean, 1 = findings, 2 = fatal (one ``error:`` line on
stderr, never a traceback) — for both ``repro lint`` and
``python -m repro.analysis``.
"""

import json
import shutil
import subprocess
from pathlib import Path

from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
CLEAN = str(FIXTURES / "clean.py")
DIRTY = str(FIXTURES / "det_violation.py")


class TestAnalysisMain:
    def test_clean_exits_zero(self, capsys):
        assert analysis_main([CLEAN, "--det-scope", "all"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert analysis_main([DIRTY, "--det-scope", "all"]) == 1
        assert "SBL-DET" in capsys.readouterr().out

    def test_missing_path_exits_two_without_traceback(self, capsys):
        assert analysis_main(["definitely-not-here"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_unknown_rule_exits_two(self, capsys):
        assert analysis_main(["--rules", "SBL-NOPE", CLEAN]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rule_filter(self, capsys):
        # only SBL-ENV requested: the determinism violations are moot
        assert analysis_main(
            [DIRTY, "--det-scope", "all", "--rules", "SBL-ENV"]
        ) == 0

    def test_json_format(self, capsys):
        assert analysis_main([DIRTY, "--det-scope", "all",
                              "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["counts"]["SBL-DET"] > 0

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line]
        assert listed == ["SBL-DET", "SBL-ENV", "SBL-FORK"]


class TestChangedFlag:
    """``--changed [BASE]`` restricts the run to git-modified files."""

    def _repo(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        fixtures = Path(__file__).parent / "fixtures"
        shutil.copy(fixtures / "clean.py", tmp_path / "clean.py")
        shutil.copy(fixtures / "det_violation.py", tmp_path / "dirty.py")
        env = {
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
        }
        subprocess.run(["git", "-C", str(tmp_path), "add", "-A"],
                       check=True)
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t",
             "-c", "user.email=t@t", "commit", "-q", "-m", "seed"],
            check=True, env={**env},
        )
        return tmp_path

    def test_changed_skips_committed_files(self, tmp_path, monkeypatch,
                                           capsys):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        # Nothing modified since HEAD: even the dirty fixture is skipped.
        assert analysis_main([".", "--det-scope", "all", "--changed"]) == 0
        assert "0 file(s) analyzed" in capsys.readouterr().out

    def test_changed_lints_modified_files(self, tmp_path, monkeypatch,
                                          capsys):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        dirty = repo / "dirty.py"
        dirty.write_text(dirty.read_text() + "\n# touched\n")
        assert analysis_main([".", "--det-scope", "all", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "SBL-DET" in out
        assert "1 file(s) analyzed" in out

    def test_changed_outside_git_exits_two(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.py").write_text("x = 1\n")
        assert analysis_main([".", "--changed"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_changed_unknown_base_exits_two(self, tmp_path, monkeypatch,
                                            capsys):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        assert analysis_main([".", "--changed", "no-such-ref"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReproLintVerb:
    def test_lint_clean_fixture(self, capsys):
        assert repro_main(["lint", CLEAN, "--det-scope", "all"]) == 0

    def test_lint_findings(self, capsys):
        assert repro_main(["lint", DIRTY, "--det-scope", "all"]) == 1

    def test_lint_missing_path_exits_two(self, capsys):
        assert repro_main(["lint", "definitely-not-here"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestFatalErrorContract:
    def test_compare_unwritable_json_exits_two(self, tmp_path, capsys):
        # the historical bug: an unwritable --json target printed a
        # traceback and exited 1 via the interpreter's default handler
        target = tmp_path / "no-such-dir" / "out.json"
        code = repro_main([
            "compare", "--workloads", "usr_0", "--requests", "120",
            "--no-store", "--json", str(target),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: " in captured.err
        assert "Traceback" not in captured.err

    def test_export_trace_unwritable_exits_two(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "trace.csv"
        code = repro_main([
            "export-trace", "--requests", "50", "--output", str(target),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
