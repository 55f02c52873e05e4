"""Run one workload once: set up, measure, verify, summarise.

``run`` is the one entry point.  It sets up once or several times (the
last set-up is the one measured on; ``setup_s`` is the median), runs the timed
ops in a child process — the library child, or a ``repro serve`` tree —
verifies every answer against the oracle off the clock, and returns a
:class:`RunResult`.  A traced run additionally loads the spans its child
processes wrote and derives the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perf import datagen, layers, loadgen, oracle, stats, trace, workloads
from perf.server import ROOT, Server, build_catalog, child_env

OUT = ROOT / "perf" / "out"
CHILD_DEADLINE = 120.0
#: Validity limits of a run (see ``RunResult.invalid``).
MAX_LATE_SHARE = 0.10
MAX_GENERATOR_CPU = 0.5
#: Set-ups per untraced run (``setup_s`` is their median).  A library set-up
#: starts the child (the imports are most of it) and runs the warm-up ops; a
#: service set-up starts a server and answers one request per client (one
#: segment export).
SETUP_REPEATS = {"library": 3, "service": 3}
#: Seconds the repeated set-ups of a run may take together: on a host where
#: they would not fit, fewer are made (at least one).
SETUP_BUDGET = 40.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    wrong: int
    metrics: Dict[str, float]
    #: Percentile each ``*_tail_s`` metric was read at, and its sample count.
    tails: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    #: Why the numbers should not be trusted (generator too late or too busy).
    invalid: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    env: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """Every op was answered, and answered right.  (Whether the numbers
        can be trusted is ``invalid``: a late generator gives slow answers,
        not wrong ones.)"""
        return self.failed == 0 and self.wrong == 0


@dataclass
class Measured:
    """What the timed phase of a service workload produced."""

    #: ``(op, exchange)`` of every query sent, for verification.
    queries: List[Tuple[workloads.Op, loadgen.Exchange]]
    #: Client-observed latency of every successful op, by op id.
    latency: Dict[str, float]
    metrics: Dict[str, float]
    tails: Dict[str, Tuple[float, int]]
    attempted: int
    failed: int
    #: Start of the throughput window, and ``id -> completion time`` of the
    #: ops sent inside it.
    started: float
    rated: Dict[str, float]
    #: How many of the plan's timed ops were sent before the deadline.
    ops_run: int
    #: Open loop only: p90 of how late the generator sent its ops.
    late_p90: float = 0.0


def environment(seed: int, values: np.ndarray, plan: workloads.Plan, ops_run: int) -> Dict[str, object]:
    """What a comparison must hold equal, recorded in every result.

    ``ops_run`` is below ``ops_planned`` when the deadline dropped ops.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed,
        "data_sha256": datagen.data_sha256(values),
        "op_sequence_sha256": _sha(plan.op_sequence()),
        "ops_planned": len(plan.timed),
        "ops_run": ops_run,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "clients": workloads.clients(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "git_commit": commit,
    }


def _sha(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _measured_on(repeat: int, setups: int, setup_times: Sequence[float]) -> bool:
    """Whether set-up ``repeat``, about to start, is the one measured on: the
    last of ``setups``, or an earlier one when it and one more would overrun
    ``SETUP_BUDGET``."""
    if repeat == setups - 1:
        return True
    return sum(setup_times) + 2 * max(setup_times, default=0.0) > SETUP_BUDGET


def _summarise(samples: Sequence[float], prefix: str, metrics, tails) -> None:
    """``<prefix>_p50_s`` and ``<prefix>_tail_s`` of a latency sample."""
    if not samples:
        return
    metrics[f"{prefix}_p50_s"] = stats.median(samples)
    value, pct = stats.tail(samples)
    metrics[f"{prefix}_tail_s"] = value
    tails[f"{prefix}_tail_s"] = (pct, len(samples))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _verify(op: workloads.Op, answer, values: np.ndarray, reference: np.ndarray) -> oracle.Verdict:
    """Check one decoded answer of a query op against the oracle."""
    grid = (op.start, op.end, datagen.WINDOW, datagen.STEP)
    if op.kind == "threshold":
        return oracle.check_threshold(answer, oracle.grid_slice(reference, *grid), op.threshold)
    if op.kind == "topk":
        return oracle.check_topk(answer, oracle.grid_slice(reference, *grid), op.k)
    return oracle.check_lagged(answer, oracle.lag_windows(values, *grid), op.max_lag)


def _library_answer(index: int, op: workloads.Op, arrays) -> object:
    if op.kind == "lagged":
        return list(zip(arrays[f"{index}_corr"], arrays[f"{index}_lag"]))
    bounds = np.concatenate([[0], np.cumsum(arrays[f"{index}_sizes"])])
    rows, cols, values = (arrays[f"{index}_{part}"] for part in ("rows", "cols", "values"))
    return [
        (rows[a:b], cols[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _wire_answer(op: workloads.Op, document: Dict[str, object]) -> object:
    """Decode a threshold or top-k ``repro.result/v1`` body; raises on a
    malformed shape."""
    if document.get("kind") != op.kind:
        raise ValueError(f"kind {document.get('kind')!r}, expected {op.kind!r}")
    windows = document["windows"]
    if len(windows) != document["num_windows"]:
        raise ValueError("num_windows disagrees with the windows list")
    answer = [
        (
            np.asarray(w["rows"], dtype=np.int64),
            np.asarray(w["cols"], dtype=np.int64),
            np.asarray(w["values"], dtype=np.float64),
        )
        for w in windows
    ]
    if op.include_edges and len(document["edges"]) != sum(len(r) for r, _, _ in answer):
        raise ValueError("edge list length disagrees with the windows")
    return answer


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

class _LibraryChild:
    """One ``perf/libchild.py`` process, parked at its ``ready`` line."""

    def __init__(self, data: Path, plan_file: Path, out_stem: Path, trace_dir: Optional[Path]) -> None:
        command = [
            sys.executable, str(ROOT / "perf" / "libchild.py"),
            "--data", str(data), "--plan", str(plan_file), "--out", str(out_stem),
            "--workers", str(workloads.clients()),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=child_env(out_stem.parent), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if line.strip() != "ready":
            self.finish("quit")
            raise HarnessError(f"library child did not get ready (said {line!r})")

    def finish(self, word: str) -> int:
        """Send ``go`` or ``quit`` and wait for the child to end."""
        try:
            try:
                self.process.stdin.write(word + "\n")
                self.process.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            return self.process.wait(timeout=CHILD_DEADLINE)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise HarnessError("library child overran its deadline")
        finally:
            self.process.stdin.close()
            self.process.stdout.close()


def _run_library(plan: workloads.Plan, seed: int, setups: int, scratch: Path,
                 trace_dir: Optional[Path]) -> RunResult:
    data_file, plan_file, out_stem = scratch / "data.npy", scratch / "plan.json", scratch / "result"
    setup_times = []
    child = None
    for repeat in range(setups):
        started = time.perf_counter()
        values = datagen.generate(seed)
        reference = oracle.window_reference(values, datagen.WINDOW, datagen.STEP)
        np.save(data_file, values)
        with open(plan_file, "w", encoding="utf-8") as handle:
            json.dump(
                {"warmup": [o.as_dict() for o in plan.warmup],
                 "timed": [o.as_dict() for o in plan.timed],
                 "deadline": plan.deadline, "block": plan.block},
                handle,
            )
        last = _measured_on(repeat, setups, setup_times)
        child = _LibraryChild(data_file, plan_file, out_stem, trace_dir if last else None)
        setup_times.append(time.perf_counter() - started)
        if last:
            break
        child.finish("quit")
    main_pid = child.process.pid
    if child.finish("go") != 0:
        raise HarnessError("library child failed; see its traceback above")
    with open(str(out_stem) + ".json", "r", encoding="utf-8") as handle:
        outcome = json.load(handle)
    arrays = np.load(str(out_stem) + ".npz")

    records = outcome["records"]
    timed = plan.timed[: len(records)]  # all of them, unless the deadline cut in
    verdicts: Dict[str, oracle.Verdict] = {}
    problems = []
    for index, op in enumerate(timed):
        verdict = _verify(op, _library_answer(index, op, arrays), values, reference)
        verdicts[op.id] = verdict
        if not verdict.ok:
            problems.append(f"{op.id}: {verdict.reason}")
    latency = {r["id"]: r["end"] - r["start"] for r in records}
    metrics: Dict[str, float] = {}
    tails: Dict[str, Tuple[float, int]] = {}
    by_kind = lambda kind: [latency[o.id] for o in timed if o.kind == kind]  # noqa: E731
    _summarise(by_kind("threshold"), "query", metrics, tails)
    for kind, name in (("topk", "topk_p50_s"), ("lagged", "lagged_p50_s")):
        if by_kind(kind):
            metrics[name] = stats.median(by_kind(kind))
    wrong = len(problems)
    metrics["setup_s"] = stats.median(setup_times)
    metrics["throughput_qps"] = stats.block_rate(
        [r["end"] for r in records if verdicts[r["id"]].ok], outcome["started"], plan.block
    )
    metrics["error_rate"] = wrong / len(timed)
    metrics["edge_recall"] = oracle.recall(
        [verdicts[o.id] for o in timed if o.kind == "threshold"]
    )
    metrics["peak_rss_mb"] = outcome["peak_rss_mb"]
    result = RunResult(
        workload=plan.name, seed=seed, traced=trace_dir is not None,
        attempted=len(timed), failed=0, wrong=wrong, metrics=metrics,
        tails=tails, problems=problems, env=environment(seed, values, plan, len(timed)),
    )
    if trace_dir is not None:
        engine = [r["stats"] for r in records if r["stats"]]
        counters = {
            "core.dangoron.exact_evaluations": sum(s["exact_evaluations"] for s in engine),
            "core.dangoron.skipped_by_jumping": sum(s["skipped_by_jumping"] for s in engine),
            "core.horizontal.pruned_pairs": sum(s["pruned_horizontally"] for s in engine),
            "horizontal_exact_evaluations": sum(
                s["exact_evaluations"] for s in engine if s["pruned_horizontally"]
            ),
            "core.sketch.memory_mb": max((s["sketch_memory_bytes"] for s in engine), default=0.0) / 1e6,
            "core.sketch.extended_windows": outcome["cache"]["extended_windows"],
            "storage.cache.hits": outcome["cache"]["hits"],
            "storage.cache.misses": outcome["cache"]["misses"],
            "storage.cache.builds": outcome["cache"]["builds"],
            "storage.cache.extensions": outcome["cache"]["extensions"],
        }
        window = (records[0]["start"], records[-1]["end"])
        result.layer_metrics = _layer_metrics(
            trace_dir, latency, counters, [main_pid], window
        )
    return result


# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------

def _query_path() -> str:
    return f"/datasets/{workloads.DATASET}/query"


def _append_path() -> str:
    return f"/datasets/{workloads.DATASET}/append"


def _dataset_counters(document: Dict[str, object]) -> Dict[str, float]:
    """The program's own counters out of a ``GET /metrics`` document."""
    dataset = document["datasets"].get(workloads.DATASET, {})
    cache = dataset.get("sketch_cache", {})
    pool = document.get("worker_pool") or {}
    return {
        "storage.cache.hits": cache.get("hits", 0),
        "storage.cache.misses": cache.get("misses", 0),
        "storage.cache.builds": cache.get("builds", 0),
        "storage.cache.extensions": cache.get("extensions", 0),
        "core.sketch.extended_windows": cache.get("extended_windows", 0),
        "storage.shared.exports": dataset.get("segments", {}).get("exports", 0),
        "service.service.executed": dataset.get("executed", 0),
        "service.service.coalesced": dataset.get("coalesced", 0),
        "service.service.batched": dataset.get("batched", 0),
        "service.service.shed": dataset.get("admission", {}).get("shed", 0),
        "service.workers.restarts": pool.get("restarts", 0),
    }


def _run_service(plan: workloads.Plan, seed: int, setups: int, scratch: Path,
                 trace_dir: Optional[Path]) -> RunResult:
    clients = workloads.clients()
    setup_times = []
    server = None
    try:
        for repeat in range(setups):
            last = _measured_on(repeat, setups, setup_times)
            started = time.perf_counter()
            values = datagen.generate(seed)
            reference = oracle.window_reference(values, datagen.WINDOW, datagen.STEP)
            catalog = scratch / f"catalog-{repeat}"
            build_catalog(catalog, values[:, : plan.base_length], workloads.DATASET)
            server = Server(
                catalog, scratch / f"server-{repeat}", clients, datagen.BASIC_WINDOW,
                trace_dir=trace_dir if last else None,
            )
            server.wait_ready()
            warm, _ = loadgen.run_closed(
                server.port,
                [(op.id, _query_path(), loadgen.encode(op.wire_query())) for op in plan.warmup],
                clients if plan.period is None else 1,
            )
            if not all(exchange.ok for exchange in warm):
                raise HarnessError("a warm-up request failed: " + "; ".join(
                    f"{e.op_id}: {e.status} {e.error}" for e in warm if not e.ok))
            setup_times.append(time.perf_counter() - started)
            if last:
                break
            server.stop()
            server = None
            shutil.rmtree(catalog, ignore_errors=True)
        before = _dataset_counters(server.metrics())
        if trace_dir is not None:
            server.start_sampling()
        cpu_started = time.process_time()
        window_start = time.perf_counter()
        if plan.period is None:
            measured = _measure_closed(plan, server, clients)
        else:
            measured = _measure_append(plan, server, values)
        window = (window_start, time.perf_counter())
        cpu_share = (time.process_time() - cpu_started) / (window[1] - window[0])
        server.stop_sampling()
        try:
            after = _dataset_counters(server.metrics())
            rss_anon = server.worker_rss_anon_mb()
        except OSError:  # a dead server: the ops already failed, counters are gone
            after, rss_anon = dict(before), 0.0
        main_pid = server.process.pid
        peak_memory = server.peak_memory_mb()
        queue_depth = server.queue_depth_max
    finally:
        if server is not None:
            server.stop()

    metrics, tails, failed, attempted = (
        measured.metrics, measured.tails, measured.failed, measured.attempted
    )
    problems = []
    verdicts = []
    engine_stats = []
    response_bytes = []
    right = set(measured.latency)  # answered; wrong answers leave below
    for op, exchange in measured.queries:
        if not exchange.ok:
            continue
        response_bytes.append(len(exchange.body))
        try:
            document = json.loads(exchange.body)
            verdict = _verify(op, _wire_answer(op, document), values, reference)
        except (ValueError, KeyError, TypeError) as error:
            verdict = oracle.Verdict(False, f"malformed response: {error}")
        if not verdict.ok:
            problems.append(f"{op.id}: {verdict.reason}")
            right.discard(op.id)
        elif op.kind == "threshold":
            verdicts.append(verdict)
            engine_stats.append(document.get("stats") or {})
    wrong = len(problems)
    metrics["setup_s"] = stats.median(setup_times)
    metrics["throughput_qps"] = stats.block_rate(
        [done for op_id, done in measured.rated.items() if op_id in right],
        measured.started, plan.block,
    )
    metrics["error_rate"] = (failed + wrong) / attempted
    metrics["edge_recall"] = oracle.recall(verdicts)
    metrics["peak_rss_mb"] = peak_memory
    late_p90 = measured.late_p90
    invalid = None
    if plan.period is not None and late_p90 > MAX_LATE_SHARE * plan.period:
        invalid = f"generator ran late: p90 {late_p90:.3f}s of a {plan.period}s period"
    elif cpu_share > MAX_GENERATOR_CPU:
        invalid = f"generator used {cpu_share:.2f} of a core"
    result = RunResult(
        workload=plan.name, seed=seed, traced=trace_dir is not None,
        attempted=attempted, failed=failed, wrong=wrong, metrics=metrics, tails=tails,
        invalid=invalid, problems=problems,
        env=environment(seed, values, plan, measured.ops_run),
    )
    if trace_dir is not None:
        counters = {key: after[key] - before.get(key, 0) for key in after}
        counters.update({
            "core.dangoron.exact_evaluations": sum(s.get("exact_evaluations", 0) for s in engine_stats),
            "core.dangoron.skipped_by_jumping": sum(s.get("skipped_by_jumping", 0) for s in engine_stats),
            "core.horizontal.pruned_pairs": sum(s.get("pruned_horizontally", 0) for s in engine_stats),
            "horizontal_exact_evaluations": sum(
                s.get("exact_evaluations", 0) for s in engine_stats if s.get("pruned_horizontally")
            ),
            "core.sketch.memory_mb": max(
                (s.get("extra", {}).get("sketch_memory_bytes", 0.0) for s in engine_stats),
                default=0.0) / 1e6,
            "service.wire.response_mb": stats.median(response_bytes) / 1e6 if response_bytes else 0.0,
            "service.service.queue_depth_max": queue_depth,
            "service.workers.rss_anon_mb": rss_anon,
            "generator.late_p90_s": late_p90,
            "generator.cpu_share": cpu_share,
        })
        result.layer_metrics = _layer_metrics(
            trace_dir, measured.latency, counters, [main_pid], window
        )
    return result


def _measure_closed(plan: workloads.Plan, server: Server, clients: int) -> Measured:
    def send(ops, deadline, minimum):
        return loadgen.run_closed(
            server.port,
            [(op.id, _query_path(), loadgen.encode(op.wire_query())) for op in ops],
            clients, deadline, minimum,
        )

    # The first touches go out before the throughput clock starts.
    first, _ = send(plan.timed[: plan.first_touches], workloads.FIRST_TOUCH_DEADLINE, clients)
    steady, started = send(plan.timed[plan.first_touches :], plan.deadline, plan.block)
    by_id = {exchange.op_id: exchange for exchange in first + steady}
    queries = [(op, by_id[op.id]) for op in plan.timed if op.id in by_id]
    ok = [exchange for _, exchange in queries if exchange.ok]
    latency = {exchange.op_id: exchange.latency for exchange in ok}
    metrics: Dict[str, float] = {}
    tails: Dict[str, Tuple[float, int]] = {}
    _summarise(list(latency.values()), "query", metrics, tails)
    return Measured(
        queries, latency, metrics, tails,
        attempted=len(queries), failed=len(queries) - len(ok), started=started,
        rated={exchange.op_id: exchange.done for exchange in steady},
        ops_run=len(queries),
    )


def _measure_append(plan: workloads.Plan, server: Server, values: np.ndarray) -> Measured:
    appends = [
        (
            op.id,
            loadgen.encode({"columns": values[:, op.columns[0] : op.columns[1]].T.tolist()}),
            op.columns[1],
        )
        for op in plan.timed
    ]

    def panel(length: int, position: int) -> workloads.Op:
        return workloads.Op(
            id="", kind="threshold", end=length,
            threshold=workloads.PANEL_THRESHOLDS[position],
        )

    append_results, query_results, schedule = loadgen.run_open_append(
        server.port, appends, plan.period, _append_path(), _query_path(),
        lambda length: [
            loadgen.encode(panel(length, position).wire_query())
            for position in range(len(workloads.PANEL_THRESHOLDS))
        ],
        plan.deadline, plan.block,
    )
    appends = appends[: len(append_results)]  # all of them, unless the deadline cut in
    queries = []
    for exchange, length, position in query_results:
        op = panel(length, position)
        op.id = exchange.op_id
        queries.append((op, exchange))
    ok_appends = [e for e in append_results if e.ok]
    ok_queries = [(e, length) for e, length, _ in query_results if e.ok]
    # Freshness: append due -> arrival of the first answer that includes it.
    fresh = []
    for exchange, (_, _, length_after) in zip(append_results, appends):
        arrivals = [q.done for q, length in ok_queries if length >= length_after]
        if exchange.ok and arrivals:
            fresh.append(min(arrivals) - exchange.due)
    latency = {e.op_id: e.latency for e in ok_appends}
    latency.update({e.op_id: e.latency for e, _ in ok_queries})
    metrics: Dict[str, float] = {}
    tails: Dict[str, Tuple[float, int]] = {}
    _summarise([e.latency for e, _ in ok_queries], "query", metrics, tails)
    _summarise([e.done - e.due for e in ok_appends], "append", metrics, tails)
    _summarise(fresh, "fresh", metrics, tails)
    # Failed: appends refused, queries unanswered, and acknowledged appends
    # that no answer ever included.
    attempted = len(appends) + len(query_results)
    failed = (
        (len(appends) - len(ok_appends))
        + (len(query_results) - len(ok_queries))
        + (len(ok_appends) - len(fresh))
    )
    # The feed is open loop, so its throughput is its own: appends
    # acknowledged per second, block by block.  (How many refreshes the reader got
    # through beside it follows the export's mood; see ``PANEL_THRESHOLDS``.)
    return Measured(
        queries, latency, metrics, tails, attempted=attempted, failed=failed,
        started=schedule.started, rated={e.op_id: e.done for e in append_results},
        ops_run=len(appends),
        late_p90=stats.percentile(schedule.lateness, 90.0) if schedule.lateness else 0.0,
    )


# ---------------------------------------------------------------------------
# Shared
# ---------------------------------------------------------------------------

def _layer_metrics(trace_dir: Path, latency, counters, main_pids, window) -> Dict[str, float]:
    spans = trace.load_spans(sorted(trace_dir.glob("spans-*.jsonl")))
    return layers.layer_metrics(spans, latency, counters, main_pids, window)


def run(
    workload: str,
    seed: int,
    seconds: float,
    scale: float = 1.0,
    traced: bool = False,
    repeat_setup: bool = False,
) -> RunResult:
    """One complete run of one workload (see module docstring).

    ``repeat_setup`` sets up ``SETUP_REPEATS`` times instead of once, for a
    steadier ``setup_s``.
    """
    plan = workloads.build(workload, seed, seconds, scale)
    setups = SETUP_REPEATS[plan.mode] if repeat_setup else 1
    scratch = OUT / f"tmp-{os.getpid()}-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    trace_dir = None
    if traced:
        trace_dir = OUT / f"trace-{os.getpid()}-{workload}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    try:
        runner = _run_library if plan.mode == "library" else _run_service
        return runner(plan, seed, setups, scratch, trace_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
