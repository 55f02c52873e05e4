"""The package has one process pool: the service's forked ``WorkerPool``.

Sharded scans fan out on threads (``repro.parallel.executor``); a second
pool of processes inside the library could not run inside the service's
daemonic workers anyway.  This check fails when ``multiprocessing`` or
``ProcessPoolExecutor`` appears in any ``src/repro`` module other than
``service/workers.py``.
"""

import re
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: The one module allowed to start processes.
POOL_MODULE = "service/workers.py"

PROCESS_POOL_WORDS = re.compile(r"\b(multiprocessing|ProcessPoolExecutor)\b")


def _offences(root: Path = SRC_ROOT):
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative == POOL_MODULE:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            match = PROCESS_POOL_WORDS.search(line)
            if match:
                found.append(f"src/repro/{relative}:{number} {match.group(1)}")
    return found


def test_only_the_service_worker_pool_starts_processes():
    offences = _offences()
    assert not offences, (
        "process pools outside src/repro/" + POOL_MODULE + ":\n" + "\n".join(offences)
    )


@pytest.mark.parametrize(
    "line",
    [
        "import multiprocessing",
        "from concurrent.futures import ProcessPoolExecutor",
    ],
)
def test_a_process_pool_outside_the_service_is_flagged(tmp_path, line):
    (tmp_path / "service").mkdir()
    (tmp_path / "parallel").mkdir()
    (tmp_path / POOL_MODULE).write_text(line + "\n")
    (tmp_path / "parallel" / "executor.py").write_text('"""Shards."""\n' + line + "\n")
    word = PROCESS_POOL_WORDS.search(line).group(1)
    assert _offences(tmp_path) == [f"src/repro/parallel/executor.py:2 {word}"]

