"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "rsrch_0"
        assert args.policy == "sibyl"
        assert args.config == "H&M"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "rsrch_0" in out and "fileserver" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "124.4" in out

    def test_run_heuristic(self, capsys):
        assert main([
            "run", "--policy", "cde", "--workload", "usr_0",
            "--requests", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert "CDE" in out
        assert "avg latency" in out

    def test_run_sibyl(self, capsys):
        assert main([
            "run", "--policy", "sibyl", "--workload", "usr_0",
            "--requests", "400", "--warmup", "0.25",
        ]) == 0
        assert "Sibyl" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main([
            "compare", "--workloads", "usr_0", "--requests", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "Oracle" in out and "Sibyl" in out

    def test_export_trace(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main([
            "export-trace", "--workload", "hm_1", "--requests", "100",
            "--output", str(target),
        ]) == 0
        assert target.exists()
        assert len(target.read_text().splitlines()) == 100


class TestCompareValidatesBeforeItSimulates:
    """A bad ``--json``/``--seeds`` is a one-line error and exit 2
    before the store is opened or a cell dispatched."""

    def test_missing_json_directory_runs_no_cell(self, tmp_path, capsys):
        store = tmp_path / "store"
        target = tmp_path / "no-such-dir" / "grid.json"
        assert main([
            "compare", "--workloads", "usr_0", "--requests", "120",
            "--store", str(store), "--json", str(target),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --json ")
        assert captured.err.count("\n") == 1
        assert not store.exists()  # never opened, so nothing ran into it

    def test_unwritable_json_directory_runs_no_cell(self, tmp_path, capsys):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            if os.access(locked, os.W_OK):
                pytest.skip("running as a user no directory is read-only for")
            assert main([
                "compare", "--workloads", "usr_0", "--requests", "120",
                "--store", str(tmp_path / "store"),
                "--json", str(locked / "grid.json"),
            ]) == 2
        finally:
            locked.chmod(0o700)
        assert capsys.readouterr().err.startswith("error: --json ")
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_is_rejected(self, tmp_path, capsys, seeds):
        store = tmp_path / "store"
        assert main([
            "compare", "--workloads", "usr_0", "--requests", "120",
            "--store", str(store), "--seeds", seeds,
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: --seeds must be >= 1, got {seeds}\n"
        )
        assert not store.exists()
