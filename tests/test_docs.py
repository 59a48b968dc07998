"""The docs job's checks, runnable inside the test suite.

CI runs ``scripts/check_docs.py`` standalone (the docs job); these
tests exercise the same functions so a broken doc fence or an
undocumented public function also fails the local tier-1 run.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    docs = REPO_ROOT / "docs"
    for name in ("architecture.md", "engines.md", "configuration.md"):
        assert (docs / name).is_file(), f"docs/{name} missing"


def test_doc_fences_execute():
    check_docs = _load_check_docs()
    failures = check_docs.check_fences()
    assert not failures, "\n".join(failures)


def test_public_api_docstrings():
    check_docs = _load_check_docs()
    failures = check_docs.check_docstrings()
    assert not failures, "\n".join(failures)


def test_knob_tables_match_the_table(tmp_path):
    check_docs = _load_check_docs()
    failures = check_docs.check_knob_table()
    assert not failures, "\n".join(failures)
    # ... and the check has teeth in both directions.
    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    missing = tmp_path / "missing.md"
    missing.write_text(doc.replace("| `SIBYL_STORE` |", "| `SIBYL_GHOST` |"))
    assert len(check_docs.check_knob_table(missing)) == 2
    stale = tmp_path / "stale.md"
    stale.write_text(doc.replace("| `SIBYL_BENCH_REQUESTS` | `10000` |",
                                 "| `SIBYL_BENCH_REQUESTS` | `5000` |"))
    assert len(check_docs.check_knob_table(stale)) == 1


def test_readme_links_docs():
    """The docs tree is discoverable from the front door."""
    readme = (REPO_ROOT / "README.md").read_text()
    for target in (
        "docs/architecture.md",
        "docs/engines.md",
        "docs/configuration.md",
        "examples/confidence_bands.py",
    ):
        assert target in readme, f"README does not reference {target}"
