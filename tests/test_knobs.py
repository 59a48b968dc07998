"""The knob contract, once, over every row of ``repro.knobs.TABLE``.

Whatever a module reads with ``knobs.get("SIBYL_X")`` parses the same
way: unset/blank (and ``auto`` for counts) is the default, tokens are
case-folded, garbage and negative counts raise, a count is raised to
its row's minimum, and a constructor/flag override beats the
environment while being held to the same row.  The last test walks the
source tree so a typo'd ``knobs.get("SIBYL_PARALEL")`` fails here, not
in a run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro import knobs

REPO = Path(__file__).resolve().parents[1]

#: Stands in for a default the reader computes (``SIBYL_PARALLEL``
#: passes its usable-CPU count).
COMPUTED = 5

COUNTS = [row for row in knobs.TABLE if row.kind == "count"]
CHOICES = [row for row in knobs.TABLE if row.kind == "choice"]
PATHS = [row for row in knobs.TABLE if row.kind == "path"]


def rows(subset):
    return pytest.mark.parametrize("row", subset, ids=lambda row: row.name)


def is_computed(row):
    return row.kind == "count" and row.default is None


def default_of(row):
    return COMPUTED if is_computed(row) else row.default


def read(row, override=None):
    return knobs.get(
        row.name, override, default=COMPUTED if is_computed(row) else None
    )


def test_table_is_well_formed():
    assert len(knobs.ROWS) == len(knobs.TABLE) == 9
    for row in knobs.TABLE:
        assert row.name.startswith("SIBYL_")
        assert row.kind in ("count", "choice", "path")
        if row.kind == "choice":
            assert row.default in row.choices
        if row.kind == "path":
            assert row.default is None


@rows(knobs.TABLE)
def test_unset_and_blank_are_the_default(row, monkeypatch):
    monkeypatch.delenv(row.name, raising=False)
    assert read(row) == default_of(row)
    for blank in ("", "   "):
        monkeypatch.setenv(row.name, blank)
        assert read(row) == default_of(row)


@rows(COUNTS)
def test_auto_is_the_default_of_a_count(row, monkeypatch):
    monkeypatch.setenv(row.name, " AUTO ")
    assert read(row) == default_of(row)


@rows(COUNTS)
def test_count_reads_an_integer_at_call_time(row, monkeypatch):
    monkeypatch.setenv(row.name, " 7 ")
    assert read(row) == 7
    monkeypatch.setenv(row.name, "9")
    assert read(row) == 9


@rows(COUNTS)
def test_count_garbage_and_negatives_raise(row, monkeypatch):
    aliases = "".join(f", {token!r}" for token in sorted(row.aliases or ()))
    monkeypatch.setenv(row.name, "many")
    with pytest.raises(ValueError) as garbage:
        read(row)
    assert str(garbage.value) == (
        f"{row.name} must be 'auto'{aliases} or a non-negative integer, "
        "got 'many'"
    )
    monkeypatch.setenv(row.name, "-3")
    with pytest.raises(ValueError) as negative:
        read(row)
    assert str(negative.value) == f"{row.name} must be >= 0, got -3"


@rows(COUNTS)
def test_count_is_raised_to_the_minimum(row, monkeypatch):
    monkeypatch.setenv(row.name, "0")
    assert read(row) == row.minimum


@rows([row for row in COUNTS if row.aliases])
def test_aliases_map(row, monkeypatch):
    for token, value in row.aliases.items():
        monkeypatch.setenv(row.name, token.upper())
        assert read(row) == value


@rows(CHOICES)
def test_choices_are_case_folded(row, monkeypatch):
    for choice in row.choices:
        monkeypatch.setenv(row.name, f"  {choice.upper()} ")
        assert read(row) == choice


@rows(CHOICES)
def test_choice_garbage_names_the_variable_and_the_choices(row, monkeypatch):
    monkeypatch.setenv(row.name, "Fortran")
    with pytest.raises(ValueError) as excinfo:
        read(row)
    tokens = ", ".join(repr(choice) for choice in row.choices)
    assert str(excinfo.value) == (
        f"{row.name} must be one of {tokens}, got 'fortran'"
    )


@rows(PATHS)
def test_path_is_stripped_and_blank_is_none(row, monkeypatch):
    monkeypatch.setenv(row.name, "  /tmp/somewhere ")
    assert read(row) == "/tmp/somewhere"
    monkeypatch.setenv(row.name, " ")
    assert read(row) is None


@rows(knobs.TABLE)
def test_override_wins_and_is_held_to_the_row(row, monkeypatch):
    # "-1" is unreadable for counts and choices: under an override the
    # environment is not even parsed.
    monkeypatch.setenv(row.name, "-1")
    if row.kind == "count":
        assert read(row, override=3) == 3
        assert read(row, override=0) == row.minimum
        with pytest.raises(ValueError, match=f"{row.name} must be >= 0, got -3"):
            read(row, override=-3)
    elif row.kind == "choice":
        assert read(row, override=row.choices[-1]) == row.choices[-1]
        with pytest.raises(ValueError, match=f"{row.name} must be one of"):
            read(row, override="fortran")
    else:
        assert read(row, override="/from/flag") == "/from/flag"


def test_unknown_name_is_a_key_error():
    with pytest.raises(KeyError):
        knobs.get("SIBYL_PARALEL")


@pytest.mark.parametrize(
    "name,value",
    [
        ("SIBYL_BENCH_WORKLOADS", "quik"),  # used to run `all`
        ("SIBYL_BENCH_SEEDS", "-2"),        # used to mean one seed
        ("SIBYL_BENCH_REQUESTS", "-5"),     # used to reach make_trace
    ],
)
def test_figure_benchmarks_refuse_a_bad_knob_at_import(name, value, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "benchmarks_common", REPO / "benchmarks" / "common.py"
    )
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _knob_names_in(tree):
    """The first argument of every ``knobs.get(...)`` call in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "knobs"
        ):
            yield node.args[0]


def test_every_call_site_names_a_row_and_every_row_has_a_reader():
    read_names = set()
    for top in ("src", "benchmarks", "scripts", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for arg in _knob_names_in(tree):
                where = f"{path.relative_to(REPO)}:{arg.lineno}"
                assert isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ), f"{where}: knob name must be a string literal"
                assert arg.value in knobs.ROWS, (
                    f"{where}: {arg.value!r} is not a row of knobs.TABLE"
                )
                read_names.add(arg.value)
    assert read_names == set(knobs.ROWS)
