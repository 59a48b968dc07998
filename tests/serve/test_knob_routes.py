"""One value, one validation: the daemon's knobs by environment,
constructor argument and ``repro serve`` flag (the parsing contract
itself is ``tests/test_knobs.py``, over every table row)."""

from __future__ import annotations

import pytest

from repro import knobs
from repro.cli import main as repro_main
from repro.serve.engine import PlacementEngine


def test_engine_constructor_overrides_environment(monkeypatch):
    """Per-call arguments beat the environment, per the contract."""
    monkeypatch.setenv("SIBYL_SERVE_TRAIN", "off")
    assert PlacementEngine(train_mode="sync").train_mode == "sync"
    assert PlacementEngine().train_mode == "off"


def test_an_unknown_training_mode_raises_by_either_route(monkeypatch):
    """``async`` went with the trainer threads: no alias, it raises
    like any other unknown choice."""
    for mode in ("turbo", "async"):
        monkeypatch.delenv("SIBYL_SERVE_TRAIN", raising=False)
        with pytest.raises(ValueError, match="SIBYL_SERVE_TRAIN must be one of"):
            PlacementEngine(train_mode=mode)
        monkeypatch.setenv("SIBYL_SERVE_TRAIN", mode)
        with pytest.raises(ValueError, match="SIBYL_SERVE_TRAIN must be one of"):
            PlacementEngine()


def test_serve_flags_are_held_to_the_rows(capsys):
    assert repro_main(["serve", "--port", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: SIBYL_SERVE_PORT must be >= 0, got -1\n"
    )


def test_serve_rejects_the_async_mode_by_flag_and_by_environment(
    monkeypatch, capsys
):
    """By flag argparse refuses it (its choices are the row's); by
    environment the knob table's own error line does.  Exit 2 both."""
    with pytest.raises(SystemExit) as by_flag:
        repro_main(["serve", "--train", "async"])
    assert by_flag.value.code == 2
    assert "invalid choice: 'async'" in capsys.readouterr().err
    monkeypatch.setenv("SIBYL_SERVE_TRAIN", "async")
    assert repro_main(["serve"]) == 2
    assert capsys.readouterr().err == (
        "error: SIBYL_SERVE_TRAIN must be one of 'sync', 'off', got 'async'\n"
    )


def test_serve_help_takes_each_default_from_its_row(capsys):
    with pytest.raises(SystemExit):
        repro_main(["serve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in ("SIBYL_SERVE_PORT", "SIBYL_SERVE_TRAIN"):
        assert f"default: {name}, else {knobs.ROWS[name].default}" in text
