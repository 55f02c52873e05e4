"""Lifecycle of the server under test: catalog, start, readiness, memory, teardown.

The untraced server is plain ``python -m repro.cli serve``; the traced one
is ``perf/serve_traced.py`` (wrappers first, then the same CLI).  Both run
in their own session so teardown can signal the whole process tree, with
``TMPDIR`` pointed inside the run's scratch directory — the service's mmap
segment exports land there and vanish with it.
"""

from __future__ import annotations

import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

READY_DEADLINE = 60.0
STOP_DEADLINE = 15.0


def child_env(tmpdir: Path) -> Dict[str, str]:
    """Environment of every process under test (library child, server tree).

    ``TMPDIR`` keeps what the program writes inside the run's scratch
    directory.  ``NUMPY_MADVISE_HUGEPAGE=0`` stops numpy asking for
    transparent huge pages: the reference box is a microVM with free-page
    reporting, where a huge-page fault tends to land on memory the host has
    taken back and costs ~30 ms — sketch extension read 60-400 ms with the
    default against a steady 8-14 ms without, and the cold query's run-to-run
    spread halved (README, "What repeats").

    The two ``MALLOC_`` settings make glibc keep freed memory in the
    process (arrays up to 32 MB come from the heap, and the heap is never
    trimmed) for the same reason: a cold query frees and re-allocates a
    48 MB sketch per op, and every page handed back to the kernel may be one
    the host takes and charges for again — in the box's worst phase fresh
    memory arrives at 5 MB/s, and the cold query read 0.58 s against 0.2 s.
    """
    env = dict(os.environ)
    env["TMPDIR"] = str(tmpdir)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    env["MALLOC_TRIM_THRESHOLD_"] = str(4 * 1024 ** 3)
    return env


def build_catalog(directory: Path, values: np.ndarray, name: str) -> None:
    """Write ``values`` as the one dataset of a new catalog (public API only)."""
    from repro.storage.catalog import Catalog
    from repro.storage.chunk_store import ChunkStore

    store = ChunkStore(values.shape[0], chunk_columns=1024)
    store.append(values)
    Catalog(directory).add_dataset(name, store)


def _descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it (via ``/proc/.../children``)."""
    found = [pid]
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    kids = [int(k) for k in handle.read().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` subprocess tree and its scratch directory."""

    def __init__(
        self,
        catalog: Path,
        scratch: Path,
        workers: int,
        basic_window: int,
        trace_dir: Optional[Path] = None,
    ) -> None:
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.port: Optional[int] = None
        self.queue_depth_max = 0
        self._sampling = threading.Event()
        self._sampler: Optional[threading.Thread] = None
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [
                sys.executable,
                str(ROOT / "perf" / "serve_traced.py"),
                "--trace-dir", str(trace_dir),
            ]
        command += [
            "serve",
            "--catalog", str(catalog),
            "--port", "0",
            "--basic-window", str(basic_window),
            "--service-workers", str(workers),
            "--cost-calibration", "fixture",
        ]
        env = child_env(self.scratch)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        self._reader = threading.Thread(target=self._read_output, daemon=True)
        self._reader.start()

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self.log.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    # -------------------------------------------------------------- readiness
    def wait_ready(self, deadline: float = READY_DEADLINE) -> None:
        """Block until ``/healthz`` answers 200, or raise after ``deadline``."""
        limit = time.monotonic() + deadline
        while self.port is None:
            remaining = limit - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not announce its port in time")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    "server exited before listening:\n" + "\n".join(self.log[-20:])
                )
            match = re.search(r"on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
        while time.monotonic() < limit:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=2.0) as reply:
                    if reply.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError("server exited while starting")
            time.sleep(0.02)
        raise RuntimeError("server /healthz did not answer 200 in time")

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def metrics(self) -> dict:
        """The program's own ``GET /metrics`` document."""
        with urllib.request.urlopen(self.url + "/metrics", timeout=10.0) as reply:
            return json.loads(reply.read())

    # ----------------------------------------------------------------- memory
    def peak_memory_mb(self) -> float:
        """Peak memory of the server's process tree so far, in MB.

        Summed PSS now (shared segment pages counted once) plus each
        process's RSS high-water headroom (``VmHWM - VmRSS``, the transient
        arrays it has since freed).  Read from the kernel's own high-water
        marks, so it does not depend on catching a peak with a sampler.
        """
        total_kb = 0
        for pid in _descendants(self.process.pid):
            headroom = _status_kb(pid, "VmHWM") - _status_kb(pid, "VmRSS")
            total_kb += _pss_kb(pid) + max(0, headroom)
        return total_kb / 1024.0

    def worker_rss_anon_mb(self) -> float:
        """Largest anonymous RSS among the pool workers (children of the server)."""
        kids = [pid for pid in _descendants(self.process.pid) if pid != self.process.pid]
        return max((_status_kb(pid, "RssAnon") for pid in kids), default=0) / 1024.0

    def start_sampling(self, interval: float = 0.2) -> None:
        """Poll ``/metrics`` for the admission queue depth (traced runs only:
        the poll takes the dataset lock) until :meth:`stop_sampling`."""

        def loop() -> None:
            while not self._sampling.wait(interval):
                try:
                    datasets = self.metrics()["datasets"].values()
                except (OSError, ValueError, KeyError):
                    continue
                for dataset in datasets:
                    depth = int(dataset["admission"]["queue_depth"])
                    self.queue_depth_max = max(self.queue_depth_max, depth)

        self._sampling.clear()
        self._sampler = threading.Thread(target=loop, daemon=True)
        self._sampler.start()

    def stop_sampling(self) -> None:
        self._sampling.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5.0)
            self._sampler = None

    # --------------------------------------------------------------- teardown
    def stop(self) -> None:
        """Stop the tree on every exit path: SIGINT (clean shutdown, so traced
        processes write their spans), then SIGKILL; always reap; drop scratch."""
        self.stop_sampling()
        try:
            if self.process.poll() is None:
                self._signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=STOP_DEADLINE)
                except subprocess.TimeoutExpired:
                    pass
            self._signal(signal.SIGKILL)
            self.process.wait()
            self._reader.join(timeout=5.0)
            if self.process.stdout is not None:
                self.process.stdout.close()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self.process.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass
