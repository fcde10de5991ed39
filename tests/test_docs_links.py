"""Internal links in the project docs must resolve (tools/check_docs_links).

Runs the same checker CI's docs job runs, so a broken README/DESIGN/
OPERATIONS link fails the tier-1 suite locally too.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs_links", ROOT / "tools" / "check_docs_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs_links", module)
    spec.loader.exec_module(module)
    return module


def test_all_internal_doc_links_resolve():
    checker = _load_checker()
    errors = checker.check_links()
    assert not errors, "\n".join(errors)


def test_checker_flags_broken_links(tmp_path):
    checker = _load_checker()
    (tmp_path / "A.md").write_text(
        "# Title\n[good](B.md)\n[bad](missing.md)\n[anchor](B.md#nope)\n"
    )
    (tmp_path / "B.md").write_text("# Section One\n")
    errors = checker.check_links(tmp_path, ["A.md"])
    assert len(errors) == 2
    assert any("missing.md" in e for e in errors)
    assert any("nope" in e for e in errors)
    assert not checker.check_links(tmp_path, ["B.md"])


def test_checker_flags_missing_backticked_repo_paths(tmp_path):
    checker = _load_checker()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_here.py").write_text("")
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "core" / "engine.py").write_text("")
    text = (
        "# Title\n"
        "`tests/test_here.py::test_one` `tests/test_*.py` `core/engine.py:restore`\n"
        "`tests/fixtures/gone/` `core/gone.py` `tests/nothing_*.py`\n"
        "`a/b` `sum/count` `/dev/shm` `perf/`\n"
        "```\n`tests/in_a_code_block.py`\n```\n"
    )
    (tmp_path / "A.md").write_text(text)
    (tmp_path / "ROADMAP.md").write_text(text)
    errors = checker.check_links(tmp_path, ["A.md", "ROADMAP.md"])
    assert [e.split(": ", 1)[1] for e in errors] == [
        "missing repo path 'tests/fixtures/gone/'",
        "missing repo path 'core/gone.py'",
        "missing repo path 'tests/nothing_*.py'",
    ]
    assert all(e.startswith("A.md:3:") for e in errors)


def test_discovery_covers_every_docs_file():
    checker = _load_checker()
    discovered = set(checker.discover_docs())
    assert {"docs/OPERATIONS.md", "docs/ARCHITECTURE.md", "docs/METRICS.md"} <= discovered
    assert {"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} <= discovered
    on_disk = {f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")}
    assert on_disk <= discovered
