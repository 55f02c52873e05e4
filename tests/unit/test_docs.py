"""The documentation front door stays present and internally consistent.

README/docs are part of the product surface: these tests keep the files
present, their relative links resolving, and the link checker itself honest.
(The README quickstart additionally runs as a doctest via pytest.ini's
``--doctest-glob``.)
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_docs_links", ROOT / "scripts" / "check_docs_links.py"
)
check_docs_links = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs_links", check_docs_links)
_spec.loader.exec_module(check_docs_links)


@pytest.mark.parametrize("relative", [
    "README.md",
    "docs/architecture.md",
    "docs/api.md",
    "docs/benchmarks.md",
])
def test_documentation_files_exist(relative):
    assert (ROOT / relative).is_file(), f"{relative} is missing"


def test_readme_covers_the_front_door():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for anchor in ("CorrelationSession", "dangoron", "tsubasa",
                   "repro experiment", "perf/run.py", "workers"):
        assert anchor in text, f"README.md no longer mentions {anchor}"


def test_all_relative_links_resolve():
    broken = []
    for path in check_docs_links.default_files(ROOT):
        file_broken, _ = check_docs_links.check_file(path, ROOT)
        broken += file_broken
    assert not broken, "broken documentation links:\n" + "\n".join(broken)


def test_link_checker_detects_breakage(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "# Title\n[ok](#title) [gone](./missing.md) [bad](#nope) "
        "[ext](https://example.org)\n"
        "`page.md` is here, `scripts/gone.py` and `old_dir/` are not; "
        "`out.npz`, `*.py` and `a.b` are not repo paths\n",
        encoding="utf-8",
    )
    broken, external = check_docs_links.check_file(page, tmp_path)
    assert len(broken) == 4
    assert [line.split(": ")[1] for line in broken[2:]] == [
        "no such path `old_dir/`", "no such path `scripts/gone.py`",
    ]
    assert external == 1


def test_github_slug_rules():
    assert check_docs_links.github_slug("30-second quickstart") == (
        "30-second-quickstart"
    )
    assert check_docs_links.github_slug("`workers=` — sharded parallel execution") == (
        "workers--sharded-parallel-execution"
    )
