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
    monkeypatch.setenv("SIBYL_SERVE_BATCH", "5")
    monkeypatch.setenv("SIBYL_SERVE_TRAIN", "off")
    engine = PlacementEngine(batch=9, workers=1, train_mode="sync")
    assert engine.batch == 9
    assert engine.train_mode == "sync"
    from_env = PlacementEngine(workers=1)
    assert from_env.batch == 5
    assert from_env.train_mode == "off"


@pytest.mark.parametrize(
    "env,argument",
    [("SIBYL_SERVE_WORKERS", "workers"), ("SIBYL_SERVE_BATCH", "batch")],
)
def test_a_negative_count_raises_by_either_route(env, argument, monkeypatch):
    monkeypatch.setenv(env, "-3")
    with pytest.raises(ValueError) as from_env:
        PlacementEngine()
    monkeypatch.delenv(env)
    with pytest.raises(ValueError) as from_argument:
        PlacementEngine(**{argument: -3})
    assert str(from_env.value) == str(from_argument.value) == (
        f"{env} must be >= 0, got -3"
    )


def test_zero_clamps_to_the_row_minimum_by_either_route(monkeypatch):
    assert PlacementEngine(batch=0, workers=1).batch == 1
    monkeypatch.setenv("SIBYL_SERVE_BATCH", "0")
    assert PlacementEngine(workers=1).batch == 1


def test_an_unknown_training_mode_raises_by_either_route(monkeypatch):
    with pytest.raises(ValueError, match="SIBYL_SERVE_TRAIN must be one of"):
        PlacementEngine(workers=1, train_mode="turbo")
    monkeypatch.setenv("SIBYL_SERVE_TRAIN", "turbo")
    with pytest.raises(ValueError, match="SIBYL_SERVE_TRAIN must be one of"):
        PlacementEngine(workers=1)


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--workers", "-3"], "SIBYL_SERVE_WORKERS must be >= 0, got -3"),
        (["--batch", "-1"], "SIBYL_SERVE_BATCH must be >= 0, got -1"),
        (["--port", "-1"], "SIBYL_SERVE_PORT must be >= 0, got -1"),
    ],
)
def test_serve_flags_are_held_to_the_rows(flags, message, capsys):
    assert repro_main(["serve", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_serve_help_takes_each_default_from_its_row(capsys):
    with pytest.raises(SystemExit):
        repro_main(["serve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in ("SIBYL_SERVE_PORT", "SIBYL_SERVE_WORKERS",
                 "SIBYL_SERVE_BATCH", "SIBYL_SERVE_TRAIN"):
        assert f"default: {name}, else {knobs.ROWS[name].default}" in text
