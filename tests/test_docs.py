"""Documentation integrity, wired into the fast suite.

Runs the checks of ``scripts/check_docs.py`` against the repository:
every intra-repo markdown link resolves, every ``src/repro`` package is
mentioned in ``docs/ARCHITECTURE.md``, registered headings exist, and
the hot-path packages keep full public docstring coverage.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs  # noqa: E402  (path set up above)


def test_no_broken_intra_repo_links():
    assert check_docs.check_links(REPO_ROOT) == []


def test_architecture_doc_covers_every_package():
    assert check_docs.check_architecture_coverage(REPO_ROOT) == []


def test_package_discovery_sees_known_packages():
    packages = check_docs.repro_packages(REPO_ROOT)
    for expected in ("btb", "core", "engine", "experiments", "preload",
                     "trace", "workloads", "metrics", "caches", "isa"):
        assert expected in packages


def test_required_headings_present():
    assert check_docs.check_required_headings(REPO_ROOT) == []


def test_required_headings_cover_observability_docs():
    # The telemetry docs are load-bearing (cross-referenced from the CLI
    # and CI); their sections must stay registered.
    assert ("## Observability"
            in check_docs.REQUIRED_HEADINGS["docs/ARCHITECTURE.md"])
    assert ("## Tracing, timelines, and profiles"
            in check_docs.REQUIRED_HEADINGS["docs/EXPERIMENTS.md"])


def test_performance_doc_is_registered():
    # docs/PERFORMANCE.md is load-bearing: the README, ARCHITECTURE.md,
    # and the bench modules all point readers at its sections.
    headings = check_docs.REQUIRED_HEADINGS["docs/PERFORMANCE.md"]
    assert "## Engine modes" in headings
    assert "## Reading the BENCH files" in headings


def test_docstring_coverage_clean():
    assert check_docs.check_docstring_coverage(REPO_ROOT) == []


def test_docstring_coverage_floor_packages():
    # The engine and BTB packages are the documented hot path; the
    # coverage floor must keep including them.
    assert "engine" in check_docs.DOCSTRING_PACKAGES
    assert "btb" in check_docs.DOCSTRING_PACKAGES


def test_docstring_coverage_reports_missing(tmp_path):
    pkg = tmp_path / "src" / "repro" / "engine"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""pkg."""\n')
    (pkg / "bare.py").write_text(
        "def visible():\n    pass\n\n"
        "class Thing:\n"
        '    """doc."""\n'
        "    def method(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
    )
    problems = check_docs.check_docstring_coverage(tmp_path)
    assert any("bare.py: missing module docstring" in p for p in problems)
    assert any("missing docstring on 'visible'" in p for p in problems)
    assert any("missing docstring on 'Thing.method'" in p for p in problems)
    assert not any("_private" in p for p in problems)
    assert any("src/repro/btb: package does not exist" in p
               for p in problems)


def test_required_headings_reports_missing(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("# nothing\n")
    problems = check_docs.check_required_headings(tmp_path)
    assert any("missing heading '## Observability'" in p for p in problems)
    assert any("EXPERIMENTS.md does not exist" in p for p in problems)


def test_link_extraction_skips_code_fences():
    text = "a [ok](target.md)\n```\n[no](missing.md)\n```\n"
    assert check_docs.extract_links(text) == ["target.md"]


def test_checker_cli_exit_status():
    assert check_docs.main([str(REPO_ROOT)]) == 0
