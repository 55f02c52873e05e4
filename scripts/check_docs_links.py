#!/usr/bin/env python
"""Check that README/docs markdown links resolve.

Scans the given markdown files (default: README.md and docs/*.md) for inline
``[text](target)`` links and verifies that

* relative file targets exist on disk (anchors stripped),
* same-file ``#anchor`` targets match a heading in the file (GitHub slug
  rules: lowercase, punctuation dropped, spaces to dashes),
* a backticked repo path (``scripts/lint.py``, ``core/sketch.py``,
  ``src/repro/api/``) names something on disk — prose keeps pointing at
  files long after they are deleted, and nothing else notices — and
* every page under ``docs/`` carries at least one runnable doctest
  (``>>>`` block), except the pages grandfathered in
  :data:`DOCTEST_EXEMPT_PAGES` — new documentation must be executable.

External links (``http://``, ``https://``, ``mailto:``) are not fetched —
CI must not depend on the network — they are only counted.  Exits non-zero
listing every broken link, so the CI docs job fails loudly.

Usage::

    python scripts/check_docs_links.py [files...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")
_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`\s]+)`")
#: A code span that reads as a path into the repo: plain segments ending in
#: a directory slash or a source/config extension.  Data files (``.npz``,
#: ``.csv``) are run outputs and globs/placeholders are not paths.
_REPO_PATH = re.compile(r"^[\w.\-]+(/[\w.\-]+)*(/|\.(py|md|json|ya?ml|ini|toml))$")

#: Pages that must exist (relative to the repo root).  A doc page that is
#: deleted or renamed without updating this registry fails the docs job even
#: if nothing links to it any more.
REQUIRED_PAGES = (
    "README.md",
    "docs/api.md",
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/invariants.md",
    "docs/planner.md",
    "docs/scaling.md",
    "docs/service.md",
)

#: Pages under docs/ allowed to ship without a doctest.  This list is frozen
#: to the pages that predate the rule — a NEW page under docs/ must either
#: contain a ``>>>`` doctest (and be folded into the tier-1 run via
#: pytest.ini) or be consciously added here with a reason.
DOCTEST_EXEMPT_PAGES = (
    "docs/api.md",          # reference tables; examples live in module doctests
    "docs/architecture.md",  # diagrams and prose only
    "docs/benchmarks.md",    # points at perf/ and the `repro experiment` tables
)


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def default_files(root: Path) -> List[Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def check_file(path: Path, root: Path) -> Tuple[List[str], int]:
    """Return (broken link descriptions, number of external links)."""
    text = path.read_text(encoding="utf-8")
    slugs = {github_slug(h) for h in _HEADING.findall(text)}
    broken: List[str] = []
    external = 0
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            external += 1
            continue
        if target.startswith("#"):
            if target[1:] not in slugs:
                broken.append(f"{path.relative_to(root)}: no heading for {target}")
            continue
        file_part = target.split("#", 1)[0]
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            broken.append(f"{path.relative_to(root)}: missing file {target}")
    # Docs write paths from the repo root, from the page, or from the package
    # root (``core/sketch.py``).
    bases = (root, path.parent, root / "src" / "repro")
    for span in sorted(set(_CODE_SPAN.findall(_FENCE.sub("", text)))):
        if _REPO_PATH.match(span) and not any((b / span).exists() for b in bases):
            broken.append(f"{path.relative_to(root)}: no such path `{span}`")
    return broken, external


def main(argv: List[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    files = [Path(arg) for arg in argv] if argv else default_files(root)
    if not files:
        print("no markdown files found to check", file=sys.stderr)
        return 1
    all_broken: List[str] = []
    if not argv:
        all_broken += [
            f"required page missing: {page}"
            for page in REQUIRED_PAGES
            if not (root / page).exists()
        ]
        for page in sorted((root / "docs").glob("*.md")):
            rel = page.relative_to(root).as_posix()
            if rel in DOCTEST_EXEMPT_PAGES:
                continue
            if ">>> " not in page.read_text(encoding="utf-8"):
                all_broken.append(
                    f"doctest-less page: {rel} has no '>>>' example "
                    f"(add one, register it in pytest.ini, or exempt it in "
                    f"DOCTEST_EXEMPT_PAGES with a reason)"
                )
    total_links = 0
    for path in files:
        broken, external = check_file(path, root)
        all_broken += broken
        total_links += external
    for line in all_broken:
        print(f"BROKEN: {line}", file=sys.stderr)
    print(
        f"checked {len(files)} files: "
        f"{len(all_broken)} broken, {total_links} external (not fetched)"
    )
    return 1 if all_broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
