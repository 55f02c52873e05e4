#!/usr/bin/env python3
"""Run repro-lint from a repo checkout without installing the package.

Equivalent to ``PYTHONPATH=src python -m repro.devtools`` but callable from
any working directory::

    python scripts/lint.py src scripts
    python scripts/lint.py --list-rules
    python scripts/lint.py src --write-baseline

Exits 0 when only baselined findings remain, 1 on new findings, 2 on
usage errors.  The rule catalogue is documented in ``docs/invariants.md``.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.devtools.cli import main  # noqa: E402  (needs the path bootstrap)

if __name__ == "__main__":
    # Resolve the default baseline relative to the repo root, so the exit
    # status does not depend on the caller's working directory.
    os.chdir(REPO_ROOT)
    sys.exit(main())
