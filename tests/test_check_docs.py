"""Tests for ``tools.check_docs`` — the documentation checker CI runs.

The live tree must pass, and a temporary tree whose source names a
Markdown page that does not exist must fail with ``file:line`` — for
that reference only, not for pages that exist or for URLs.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # ``tools`` lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.check_docs import check  # noqa: E402


def _tree(root: Path, module_text: str) -> None:
    (root / "README.md").write_text("# Project\n\n[Guide](docs/guide.md)\n")
    (root / "docs").mkdir()
    (root / "docs" / "guide.md").write_text("# Guide\n")
    module = root / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(module_text)


def test_live_tree_passes():
    assert check() == []


def test_dangling_source_references_fail_with_file_and_line(tmp_path):
    _tree(
        tmp_path,
        '"""Module.\n\nSee DESIGN.md for the note.\n"""\n'
        "X = 1  # moved to docs/gone.md\n"
        "URL = 'https://example.org/docs/remote.md'\n"
        "# Resolving: docs/guide.md and README.md.\n",
    )
    assert check(tmp_path) == [
        "src/pkg/mod.py:3: reference to missing file -> DESIGN.md",
        "src/pkg/mod.py:5: reference to missing file -> docs/gone.md",
    ]
