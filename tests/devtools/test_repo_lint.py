"""The meta-test: the repository itself must pass its own lint.

Runs the full five-rule lint over ``src/`` + ``scripts/`` inside tier-1, so
an invariant violation fails ``pytest`` locally before CI ever sees it.  The
companion tests prove the guard rails are load-bearing:
stripping a blessed-module entry, a ``# requires-lock`` vouch, or a
``with`` block from the *real* sources makes the lint go red.
"""

from pathlib import Path

from repro.devtools import Baseline, LintConfig, lint_paths, lint_source
from repro.devtools.linter import BASELINE_FILENAME

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
LINTED_PATHS = [REPO_ROOT / "src", REPO_ROOT / "scripts"]


def test_repository_passes_its_own_lint():
    findings = lint_paths(LINTED_PATHS)
    baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
    diff = baseline.diff(findings)
    rendered = "\n".join(f.render() for f in diff.new)
    assert not diff.new, f"new repro-lint findings:\n{rendered}"
    assert not diff.stale, (
        f"baseline entries that no longer occur (regenerate the baseline "
        f"with scripts/lint.py --write-baseline): {diff.stale}"
    )


def test_unblessing_sketch_py_surfaces_its_reductions():
    """core/sketch.py really contains stat reductions the allowlist blesses.

    If this fails, RPR003 has stopped seeing the canonical helpers — which
    would also mean it cannot see a rogue reduction anywhere else.
    """
    config = LintConfig(blessed_accumulation_modules=())
    source = (REPO_ROOT / "src" / "repro" / "core" / "sketch.py").read_text()
    found = lint_source(
        source, module_path="repro/core/sketch.py", config=config, codes=["RPR003"]
    )
    assert any(f.code == "RPR003" for f in found)


def test_stripping_a_requires_lock_vouch_turns_cache_red():
    """The cache's # requires-lock annotations are what keep RPR005 green."""
    source = (REPO_ROOT / "src" / "repro" / "storage" / "cache.py").read_text()
    assert "# requires-lock: _lock" in source
    stripped = source.replace("# requires-lock: _lock", "")
    found = lint_source(
        stripped, module_path="repro/storage/cache.py", codes=["RPR005"]
    )
    assert any(f.code == "RPR005" for f in found)
    # ...and the committed file, vouches intact, is clean.
    assert lint_source(
        source, module_path="repro/storage/cache.py", codes=["RPR005"]
    ) == []


def test_stripping_a_service_lock_vouch_turns_service_red():
    source = (REPO_ROOT / "src" / "repro" / "service" / "service.py").read_text()
    assert "# requires-lock: lock" in source
    stripped = source.replace("# requires-lock: lock", "", 1)
    found = lint_source(
        stripped, module_path="repro/service/service.py", codes=["RPR005"]
    )
    assert any(f.code == "RPR005" for f in found)


def test_unlocking_the_batches_map_turns_service_red():
    """Replacing the open-batch lock with a different one is caught."""
    source = (REPO_ROOT / "src" / "repro" / "service" / "service.py").read_text()
    assert "with runtime.batches_lock:" in source
    swapped = source.replace(
        "with runtime.batches_lock:", "with self._runtimes_lock:"
    )
    found = lint_source(
        swapped, module_path="repro/service/service.py", codes=["RPR005"]
    )
    assert any("batches" in f.message for f in found if f.code == "RPR005")


def test_widening_rpr001_scope_finds_nothing_hidden():
    """No module sneaks banned raises past the scope patterns.

    The committed tree passes with the *widest* possible RPR001 scope, so
    the per-module scope list is a formality rather than a loophole.
    """
    config = LintConfig(rpr001_modules=("*",), rpr001_exempt=("tests/*", "*/conftest.py"))
    findings = [
        f
        for f in lint_paths(LINTED_PATHS, config=config, codes=["RPR001"])
        if f.code == "RPR001"
    ]
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"banned raises outside the default scope:\n{rendered}"
