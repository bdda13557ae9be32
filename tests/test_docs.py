"""The docs tree stays true: links resolve, examples run.

Three gates for the ``docs/`` pages (and the README that links into
them) and the package's docstrings, run as ordinary tier-1 tests and by
CI's docs job:

* every relative markdown link — including ``#anchor`` fragments —
  must resolve to a real file and, for fragments, a real heading;
* every example in ``docs/protocol.md`` is a doctest and must pass
  against the live implementation, so the wire-spec page can never
  drift from the code;
* every ``>>>`` example in a ``src/repro`` docstring must pass too.
"""

import doctest
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
PAGES = sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]
SRC_DIR = REPO_ROOT / "src"


def _doctested_modules() -> list[str]:
    """Dotted names of every ``src/repro`` module with a ``>>> `` line."""
    names = []
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        if ">>> " in path.read_text():
            parts = path.relative_to(SRC_DIR).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            names.append(".".join(parts))
    return names

#: ``[text](target)`` — good enough for these hand-written pages.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _anchors(markdown: str) -> set[str]:
    """GitHub-style slugs for every heading in *markdown*."""
    slugs = set()
    for heading in _HEADING.findall(markdown):
        text = re.sub(r"[`*_]", "", heading).strip().lower()
        slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
        slugs.add(slug)
    return slugs


def _links(markdown: str):
    for target in _LINK.findall(markdown):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


def test_docs_tree_exists():
    names = {page.name for page in DOCS_DIR.glob("*.md")}
    assert {"architecture.md", "operations.md", "protocol.md"} <= names


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_internal_links_resolve(page):
    markdown = page.read_text()
    broken = []
    for target in _links(markdown):
        path_part, _, fragment = target.partition("#")
        resolved = page if not path_part else \
            (page.parent / path_part).resolve()
        if not resolved.exists():
            broken.append(f"{target}: no such file {resolved}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors(resolved.read_text()):
                broken.append(f"{target}: no heading #{fragment} "
                              f"in {resolved.name}")
    assert not broken, f"{page.name} has broken links:\n" + "\n".join(broken)


def test_readme_links_into_docs():
    markdown = (REPO_ROOT / "README.md").read_text()
    targets = set(_links(markdown))
    for name in ("architecture.md", "operations.md", "protocol.md"):
        assert any(t.split("#")[0] == f"docs/{name}" for t in targets), (
            f"README must link to docs/{name}"
        )


def test_protocol_page_doctests_pass():
    results = doctest.testfile(str(DOCS_DIR / "protocol.md"),
                               module_relative=False,
                               optionflags=doctest.ELLIPSIS)
    assert results.attempted > 10, (
        "docs/protocol.md lost its doctests — the wire-spec examples "
        "must stay executable"
    )
    assert results.failed == 0


def test_protocol_page_has_example_per_version():
    """The consolidated spec keeps a runnable example for each of the
    two protocol versions."""
    markdown = (DOCS_DIR / "protocol.md").read_text()
    for marker in ("## Protocol v2", "## Protocol v3"):
        start = markdown.index(marker)
        end = markdown.find("\n## ", start + 1)
        section = markdown[start:end if end != -1 else None]
        assert ">>> " in section, f"section {marker!r} has no doctest"


@pytest.mark.parametrize("name", _doctested_modules())
def test_docstring_examples_pass(name):
    results = doctest.testmod(importlib.import_module(name),
                              optionflags=doctest.ELLIPSIS)
    assert results.attempted > 0
    assert results.failed == 0
