#!/usr/bin/env python3
"""Verify that internal markdown links in the project docs resolve.

Checks every ``[text](target)`` link in the top-level manuals plus
**every** ``docs/*.md`` file (auto-discovered, so a new document is
covered the moment it lands): relative file targets must exist on disk,
and ``#anchor`` fragments must match a heading slug in the target
document (GitHub slug rules: lowercase, punctuation stripped, spaces to
dashes).  External ``http(s)`` links are ignored — CI must not depend
on the network.

It also checks backticked repository paths — `` `tests/…` ``,
`` `src/…` ``, `` `benchmarks/…` ``, `` `tools/…` ``, `` `examples/…` ``,
`` `docs/…` ``, and module paths such as `` `core/engine.py` `` that
name a package under ``src/repro`` — in every checked document but
ROADMAP.md, which names files that do not exist yet.  A ``::test`` or
``:name`` suffix is dropped, and a glob must match at least one file.

Run directly (``python tools/check_docs_links.py``) or through the
``tests/test_docs_links.py`` wrapper; exits non-zero listing every broken
link and missing path.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOP_LEVEL_DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
]


def discover_docs(root: Path = ROOT) -> list[str]:
    """The checked set: top-level manuals + every ``docs/*.md``."""
    found = sorted(
        str(path.relative_to(root)) for path in (root / "docs").glob("*.md")
    )
    return TOP_LEVEL_DOCS + found


# Kept as a module attribute for the test wrapper / introspection; the
# authoritative set is recomputed per check_links() call.
DOCS = discover_docs()

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_CODE_SPAN = re.compile(r"`([^`\s]+)`")

#: Top-level directories a backticked path may start with.
REPO_DIRS = ("tests", "src", "benchmarks", "tools", "examples", "docs")

#: Documents whose backticked paths are not checked: the roadmap names
#: files that do not exist yet.
PATHS_UNCHECKED = {"ROADMAP.md"}


def repo_path(span: str, root: Path = ROOT) -> Path | None:
    """The repository path a backticked span names, or None if it names
    none: a path under one of :data:`REPO_DIRS`, or a module path under
    ``src/repro`` (``core/engine.py``)."""
    path = span.split(":", 1)[0]
    head = path.split("/", 1)[0]
    if "/" not in path or not head:
        return None
    if head in REPO_DIRS:
        return root / path
    if (root / "src" / "repro" / head).is_dir():
        return root / "src" / "repro" / path
    return None


def path_exists(path: Path, root: Path = ROOT) -> bool:
    """True if ``path`` exists, or if it is a glob, matches something."""
    relative = path.relative_to(root).as_posix()
    if "*" in relative:
        return any(root.glob(relative))
    return path.exists()


def heading_slugs(path: Path) -> set[str]:
    """GitHub-style anchor slugs for every heading in a markdown file."""
    slugs: set[str] = set()
    in_code = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        match = _HEADING.match(line)
        if match:
            title = re.sub(r"`([^`]*)`", r"\1", match.group(1)).strip()
            slug = re.sub(r"[^\w\s-]", "", title.lower())
            slugs.add(re.sub(r"\s+", "-", slug).strip("-"))
    return slugs


def check_links(root: Path = ROOT, docs: list[str] | None = None) -> list[str]:
    """Returns one error string per broken link or missing backticked
    repo path (empty = all good)."""
    errors: list[str] = []
    for doc in docs if docs is not None else discover_docs(root):
        path = root / doc
        if not path.exists():
            errors.append(f"{doc}: document missing")
            continue
        in_code = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            if doc not in PATHS_UNCHECKED:
                for span in _CODE_SPAN.findall(line):
                    named = repo_path(span, root)
                    if named is not None and not path_exists(named, root):
                        errors.append(f"{doc}:{lineno}: missing repo path {span!r}")
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                file_part, __, anchor = target.partition("#")
                resolved = (path.parent / file_part) if file_part else path
                if not resolved.exists():
                    errors.append(f"{doc}:{lineno}: broken link target {target!r}")
                    continue
                if anchor and resolved.suffix == ".md":
                    if anchor.lower() not in heading_slugs(resolved):
                        errors.append(
                            f"{doc}:{lineno}: no heading for anchor {target!r}"
                        )
    return errors


def main() -> int:
    errors = check_links()
    for error in errors:
        print(error, file=sys.stderr)
    checked = ", ".join(discover_docs())
    if errors:
        print(f"docs link check: {len(errors)} broken link(s) or path(s)", file=sys.stderr)
        return 1
    print(f"docs link check: OK ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
