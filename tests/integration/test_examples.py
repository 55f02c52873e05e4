"""Every script in ``examples/`` runs to completion against the library.

The examples are the library's runnable documentation: each is started as its
own interpreter with ``PYTHONPATH=src``, as a reader would run it, and must
exit 0.  ``streaming_monitor.py`` is also the end-to-end check of the window
step: its last line compares the standing query with the offline session
window by window and must report every window identical.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_example(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(path):
    completed = run_example(path)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples print their results"
    if path.name == "streaming_monitor.py":
        last = completed.stdout.strip().splitlines()[-1]
        match = re.search(r"(\d+)/(\d+) windows with identical edge sets", last)
        assert match, last
        identical, total = map(int, match.groups())
        assert total > 0 and identical == total, last
