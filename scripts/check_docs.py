#!/usr/bin/env python3
"""Documentation checker: links, coverage, headings, docstrings.

Four checks, all wired into the test suite (``tests/test_docs.py``) and
runnable standalone::

    python scripts/check_docs.py [repo_root]

1. **Link integrity** — every relative markdown link ``[text](target)`` in
   the repo's ``*.md`` files must point at an existing file or directory
   (``#anchors`` are stripped; ``http(s)://`` and ``mailto:`` links are
   out of scope).
2. **Architecture coverage** — every package under ``src/repro`` (a
   directory with an ``__init__.py``) must be mentioned by name in
   ``docs/ARCHITECTURE.md``, so the module map cannot silently rot as the
   codebase grows.
3. **Required headings** — sections other parts of the repo rely on
   (e.g. the observability and tracing how-tos that ARCHITECTURE.md and
   the CLI docs cross-reference) must keep existing under their
   registered titles.
4. **Docstring coverage** — the packages registered in
   ``DOCSTRING_PACKAGES`` must carry docstrings on every module and
   every public class, function, and method, so the prose layer of the
   hot-path code (``repro.engine``, ``repro.btb``) cannot regress.

Exit status 0 when clean; 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Markdown inline links: [text](target).  Images ![alt](target) match too
#: via the optional leading "!".
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Directories never scanned for markdown (caches, VCS, build output).
_SKIP_DIRS = {".git", ".results_cache", ".trace_cache", "__pycache__",
              ".pytest_cache", "build", "dist", ".eggs", "node_modules"}

ARCHITECTURE_DOC = Path("docs") / "ARCHITECTURE.md"

#: Doc -> headings that must exist verbatim (line-anchored).  Sections
#: other code or docs link to by name register here so a rename or
#: deletion fails the suite instead of silently orphaning the reference.
REQUIRED_HEADINGS: dict[str, tuple[str, ...]] = {
    "docs/ARCHITECTURE.md": (
        "## Observability",
        "## Auditing & invariants",
        "## Sampling & checkpoints",
        "## Checkpoint-parallel simulation",
        "## Distributed observability",
        "## Simulation service",
        "## Predictor zoo",
        "## Verification",
    ),
    "docs/OBSERVABILITY.md": (
        "## The telemetry relay",
        "## The metrics registry",
        "## Live monitoring: repro top",
        "## Perfetto recipe",
        "## CI gates",
    ),
    "docs/PERFORMANCE.md": (
        "## Engine modes",
        "## Benchmark methodology",
        "## Measured throughput",
        "## Interval scaling: the checkpoint-parallel fan-out",
        "## Reading the BENCH files",
    ),
    "docs/TESTING.md": (
        "## Test taxonomy",
        "## Tiers and markers",
        "## The predictor conformance contract",
        "## Regenerating golden baselines",
        "## Reading a divergence report",
        "## Coverage ratchet",
    ),
    "docs/EXPERIMENTS.md": (
        "## Cross-predictor ablations: `repro ablation`",
        "## Tracing, timelines, and profiles",
        "## Auditing and fuzzing: `--audit` / `REPRO_AUDIT`",
        "## Sampled runs and checkpoints: `--sampled` / `repro checkpoint`",
        "## Checkpoint-parallel runs: `--parallel-intervals` / `--backend`",
    ),
    "docs/SERVICE.md": (
        "## API reference",
        "## Session lifecycle",
        "## Backpressure & eviction",
        "## Deployment notes",
        "## Parity guarantees",
    ),
}


def markdown_files(root: Path) -> list[Path]:
    """All markdown files in the repo, skipping cache/VCS directories."""
    found = []
    for path in sorted(root.rglob("*.md")):
        parts = set(path.relative_to(root).parts[:-1])
        if parts & _SKIP_DIRS:
            continue
        found.append(path)
    return found


def extract_links(text: str) -> list[str]:
    """All link targets in ``text``, fenced code blocks excluded."""
    links: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        links.extend(_LINK.findall(line))
    return links


def check_links(root: Path) -> list[str]:
    """Broken relative links, as ``file: target`` problem strings."""
    problems = []
    for path in markdown_files(root):
        for target in extract_links(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link -> {target}"
                )
    return problems


def repro_packages(root: Path) -> list[str]:
    """Names of all python packages under ``src/repro`` (recursive)."""
    base = root / "src" / "repro"
    names = []
    for init in sorted(base.rglob("__init__.py")):
        package = init.parent
        if package == base:
            continue
        names.append(str(package.relative_to(base)).replace("/", "."))
    return names


def check_architecture_coverage(root: Path) -> list[str]:
    """Packages missing from the module map in docs/ARCHITECTURE.md."""
    doc = root / ARCHITECTURE_DOC
    if not doc.exists():
        return [f"{ARCHITECTURE_DOC} does not exist"]
    text = doc.read_text()
    problems = []
    for package in repro_packages(root):
        leaf = package.rsplit(".", 1)[-1]
        if not re.search(rf"\b{re.escape(leaf)}\b", text):
            problems.append(
                f"{ARCHITECTURE_DOC}: package 'repro.{package}' not mentioned"
            )
    return problems


def check_required_headings(root: Path) -> list[str]:
    """Registered headings missing from their documents."""
    problems = []
    for doc, headings in REQUIRED_HEADINGS.items():
        path = root / doc
        if not path.exists():
            problems.append(f"{doc} does not exist")
            continue
        lines = {line.rstrip() for line in path.read_text().splitlines()}
        for heading in headings:
            if heading not in lines:
                problems.append(f"{doc}: missing heading '{heading}'")
    return problems


#: Packages (relative to ``src/repro``) whose public surface must be
#: fully docstringed.  The engine and BTB hierarchy are the hot-path
#: code documented by docs/PERFORMANCE.md; the predictor zoo is the
#: formal contract documented by docs/TESTING.md; their prose must not
#: rot.
DOCSTRING_PACKAGES: tuple[str, ...] = ("engine", "btb", "service",
                                       "predictors")


def _public_defs(body: list[ast.stmt], *, in_class: bool):
    """Public ``def``/``class`` nodes in ``body`` needing docstrings."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        if in_class and any(
            isinstance(deco, ast.Name) and deco.id == "overload"
            for deco in getattr(node, "decorator_list", [])
        ):
            continue
        yield node


def check_docstring_coverage(root: Path) -> list[str]:
    """Public names without docstrings in the registered packages.

    Walks every module of each package in :data:`DOCSTRING_PACKAGES` and
    reports a problem string per missing docstring: the module itself,
    each public class and function, and each public method (dunders and
    ``_private`` names are exempt, as are ``@overload`` stubs).
    """
    problems = []
    for package in DOCSTRING_PACKAGES:
        base = root / "src" / "repro" / package
        if not base.is_dir():
            problems.append(f"src/repro/{package}: package does not exist")
            continue
        for source in sorted(base.rglob("*.py")):
            rel = source.relative_to(root)
            tree = ast.parse(source.read_text(), filename=str(rel))
            if ast.get_docstring(tree) is None:
                problems.append(f"{rel}: missing module docstring")
            for node in _public_defs(tree.body, in_class=False):
                if ast.get_docstring(node) is None:
                    problems.append(
                        f"{rel}:{node.lineno}: missing docstring "
                        f"on '{node.name}'"
                    )
                if isinstance(node, ast.ClassDef):
                    for method in _public_defs(node.body, in_class=True):
                        if ast.get_docstring(method) is None:
                            problems.append(
                                f"{rel}:{method.lineno}: missing docstring "
                                f"on '{node.name}.{method.name}'"
                            )
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    problems = (check_links(root) + check_architecture_coverage(root)
                + check_required_headings(root)
                + check_docstring_coverage(root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print(f"docs OK: {len(markdown_files(root))} markdown files, "
          f"{len(repro_packages(root))} repro packages covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
