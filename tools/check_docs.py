#!/usr/bin/env python3
"""Documentation link checker (stdlib only; used by the CI docs job).

Scans the repository's Markdown (root ``*.md`` + ``docs/``) and checks
that every relative link resolves:

* ``[text](path)`` — the target file/directory must exist (relative to
  the containing file);
* ``[text](path#anchor)`` / ``[text](#anchor)`` — the target heading
  must exist in the (target or same) file, using GitHub's slugging
  (lowercase, spaces → ``-``, punctuation dropped);
* ``http(s)://`` and ``mailto:`` links are skipped (no network in CI).

It also flags **orphaned pages**: a file under ``docs/`` that no other
Markdown file links to is unreachable from the entry points and fails
the check (root-level ``*.md`` are the entry points and are exempt).

Finally it flags **dangling source references**: a ``*.md`` path named
anywhere in a ``src/**/*.py`` file (docstrings, comments, help text)
must exist, resolved against the repository root — so a docstring can
never point readers at a page that is not there.

Exit status: 0 when every link and source reference resolves and no
page is orphaned, 1 otherwise (each failure is listed as ``file:line: message``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: [text](target) — won't match images' leading '!' capture; images are
#: links too and are checked the same way.
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
#: A Markdown path in source text (``docs/api.md``, ``README.md``); the
#: lookbehind keeps it from starting mid-path or mid-URL.
SOURCE_MD_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md)\b")


def markdown_files(root: Path = ROOT) -> list[Path]:
    files = sorted(root.glob("*.md"))
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return [path for path in files if path.is_file()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markdown, lowercase, drop punctuation,
    spaces to hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(1)))
    return anchors


def iter_links(path: Path):
    """(line_number, target) pairs, skipping fenced code blocks."""
    in_fence = False
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            yield number, match.group(1)


def source_reference_failures(root: Path = ROOT) -> list[str]:
    """``file:line`` failures for ``*.md`` paths named in ``src/**/*.py``
    that do not exist under ``root``."""
    failures = []
    for path in sorted((root / "src").glob("**/*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            for match in SOURCE_MD_RE.finditer(line):
                target = match.group(1)
                if not (root / target).exists():
                    failures.append(
                        f"{path.relative_to(root)}:{number}:"
                        f" reference to missing file -> {target}"
                    )
    return failures


def check(root: Path = ROOT) -> list[str]:
    failures = []
    anchor_cache: dict = {}
    linked_targets: set = set()
    files = markdown_files(root)
    for path in files:
        for line_number, target in iter_links(path):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            where = f"{path.relative_to(root)}:{line_number}"
            target, _, fragment = target.partition("#")
            if target:
                resolved = (path.parent / target).resolve()
                if not resolved.exists():
                    failures.append(f"{where}: broken link -> {target}")
                    continue
                if resolved != path.resolve():
                    linked_targets.add(resolved)
            else:
                resolved = path
            if fragment:
                if not resolved.is_file() or resolved.suffix != ".md":
                    continue  # anchors into non-markdown: not checkable
                if resolved not in anchor_cache:
                    anchor_cache[resolved] = anchors_of(resolved)
                if fragment.lower() not in anchor_cache[resolved]:
                    failures.append(
                        f"{where}: missing anchor"
                        f" #{fragment} in {resolved.name}"
                    )
    # Orphan detection: every page under docs/ must be reachable from
    # some *other* markdown file, or readers will never find it.
    # Root-level pages (README.md, ROADMAP.md, ...) are entry points and
    # exempt.
    for path in files:
        if path.parent == root:
            continue
        if path.resolve() not in linked_targets:
            failures.append(
                f"{path.relative_to(root)}: orphaned page — not linked"
                f" from any other markdown file"
            )
    failures.extend(source_reference_failures(root))
    return failures


def main() -> int:
    files = markdown_files()
    failures = check()
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        print(f"\n{len(failures)} documentation problem(s)", file=sys.stderr)
        return 1
    total = sum(1 for path in files for _ in iter_links(path))
    print(f"checked {total} links across {len(files)} markdown files: all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
