"""Command-line entry point for repro-lint.

Usage::

    python -m repro.devtools src scripts
    python scripts/lint.py src --rules RPR001,RPR005
    python scripts/lint.py src --write-baseline

Exit codes: 0 — clean (or only baselined findings), 1 — new findings,
2 — usage / framework error (bad path, unreadable baseline, syntax error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.config import DEFAULT_CONFIG
from repro.devtools.linter import (
    BASELINE_FILENAME,
    Baseline,
    available_rules,
    lint_paths,
)
from repro.exceptions import LintError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static invariant checker for the Dangoron reproduction: "
            "exception taxonomy, out-of-core, bit-identity, engine protocol "
            "and lock disciplines (see docs/invariants.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file of grandfathered findings "
        f"(default: ./{BASELINE_FILENAME} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather all current findings",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary line, not individual findings",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for code, cls in available_rules().items():
            print(f"{code}  {cls.name:32s} {cls.summary}")
        return 0

    paths: List[Path] = options.paths or [Path("src")]
    codes = None
    if options.rules:
        codes = [code.strip() for code in options.rules.split(",") if code.strip()]

    try:
        findings = lint_paths(paths, config=DEFAULT_CONFIG, codes=codes)

        baseline_path = options.baseline
        if baseline_path is None:
            default_path = Path(BASELINE_FILENAME)
            baseline_path = default_path if default_path.exists() else None

        if options.write_baseline:
            target = options.baseline or Path(BASELINE_FILENAME)
            Baseline.from_findings(findings).write(target)
            print(f"wrote {len(findings)} finding(s) to baseline {target}")
            return 0

        if options.no_baseline or baseline_path is None:
            baseline = Baseline()
        else:
            baseline = Baseline.load(baseline_path)
    except LintError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    diff = baseline.diff(findings)

    if not options.quiet:
        for finding in diff.new:
            print(finding.render())
        for finding in diff.grandfathered:
            print(f"{finding.render()}  [baselined]")
        for fingerprint in diff.stale:
            print(f"stale baseline entry (no longer occurs): {fingerprint}")

    print(
        f"repro-lint: {len(diff.new)} new finding(s), "
        f"{len(diff.grandfathered)} baselined, "
        f"{len(diff.stale)} stale baseline entr(y/ies)"
    )
    return 1 if diff.new else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
