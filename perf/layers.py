"""Per-layer metrics of a traced run, read off its spans and counters.

A layer is a module path of ``src/repro``.  ``_s`` metrics are medians per
call of the layer's span; counts and ratios are per run and come from the
program's own public counters (``EngineStats`` on results, ``CacheStats``,
``GET /metrics``) gathered by the caller into ``counters``.  A metric a
workload does not exercise reads 0 — the bypass prediction made visible.

``<layer>.self_share`` is the layer's summed self time over the timed ops
as a share of those ops' summed latency.  Two layers do work the parent's
spans cannot see and are settled at aggregate level instead:

* ``service.workers`` — ``WorkerPool.run_query`` spans minus everything the
  pool workers themselves recorded (their spans are root spans of other
  processes): what is left is pickling, the pipe and the wait for a free
  worker;
* ``parallel.executor`` — each ``ShardedExecutor.run`` span minus its
  in-process children and the busiest shard process's scan time: pool
  start-up, dispatch and straggler wait.

``service.http`` is the client-observed latency minus the matching
``CorrelationService`` span: socket, handler, JSON and admission.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence

from perf import stats
from perf.metrics import PER_LAYER, SHARE_LAYERS
from perf.trace import self_times

#: Span name -> the layer whose self time it is.
_SPAN_LAYER = {
    "core.sketch.build": "core.sketch",
    "core.sketch.extend": "core.sketch",
    "core.dangoron.scan": "core.dangoron",
    "core.horizontal.scan": "core.horizontal",
    "core.topk.scan": "core.topk",
    "core.lag.scan": "core.lag",
    "api.planner.plan": "api.planner",
    "api.planner.execute": "api.planner",
    "api.planner.materialize_sketch": "api.planner",
    "storage.cache.acquire": "storage.cache",
    "storage.cache.fingerprint": "storage.cache",
    "storage.cache.extend_chain": "storage.cache",
    "storage.shared.export": "storage.shared",
    "storage.shared.ensure": "storage.shared",
    "storage.chunk_store.append": "storage.chunk_store",
    "parallel.merge.merge": "parallel.executor",
    "service.wire.decode": "service.wire",
    "service.wire.encode": "service.wire",
    "service.service.query": "service.service",
    "service.service.append": "service.service",
}

BASELINE_OP = "baseline"


def _median(values: Sequence[float]) -> float:
    return stats.median(values) if values else 0.0


def _durations(spans: Iterable[dict]) -> List[float]:
    return [span["end"] - span["start"] for span in spans]


def layer_metrics(
    spans: Sequence[dict],
    latencies: Mapping[str, float],
    counters: Mapping[str, float],
    main_pids: Sequence[int],
    window: Sequence[float],
) -> Dict[str, float]:
    """Every per-layer metric (``perf.metrics.PER_LAYER``) of one traced run.

    ``latencies`` maps each timed op id to its client-observed latency;
    spans of other ops (warm-up, the baseline repeats) are set aside.
    ``main_pids`` are the processes that own ops — the library child, or
    the server parent; spans of any other pid come from pool workers, which
    the op id does not reach, so those count when they fall inside
    ``window``, the ``(start, end)`` of the timed phase on the shared
    monotonic clock.
    """
    own = self_times(spans)
    timed = [
        s for s in spans
        if s["op"] != BASELINE_OP
        and (
            s["op"] in latencies
            if s["pid"] in main_pids
            else window[0] <= s["start"] and s["end"] <= window[1]
        )
    ]
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in timed:
        by_name[span["name"]].append(span)
    baseline: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["op"] == BASELINE_OP:
            baseline[span["name"]].append(span)

    def med(name: str) -> float:
        return _median(_durations(by_name[name]))

    def med_self(name: str) -> float:
        return _median([own[(s["pid"], s["id"])] for s in by_name[name]])

    out: Dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    out.update({key: float(value) for key, value in counters.items() if key in out})

    out["core.sketch.build_s"] = med("core.sketch.build")
    out["core.sketch.build_count"] = float(len(by_name["core.sketch.build"]))
    out["core.sketch.extend_s"] = med("core.sketch.extend")
    out["core.sketch.extend_count"] = float(len(by_name["core.sketch.extend"]))
    out["core.dangoron.scan_s"] = med("core.dangoron.scan")
    out["core.horizontal.scan_s"] = med("core.horizontal.scan")
    out["core.topk.scan_s"] = med("core.topk.scan")
    out["core.lag.scan_s"] = med("core.lag.scan")
    out["api.planner.plan_s"] = med("api.planner.plan")
    out["api.planner.execute_self_s"] = med_self("api.planner.execute")
    out["storage.cache.acquire_self_s"] = med_self("storage.cache.acquire")
    out["storage.cache.fingerprint_s"] = med("storage.cache.fingerprint")
    out["storage.chunk_store.append_s"] = med("storage.chunk_store.append")
    out["storage.shared.export_s"] = med("storage.shared.export")
    out["storage.shared.export_mb"] = _median(
        [s["export_mb"] for s in by_name["storage.shared.export"] if "export_mb" in s]
    )
    out["parallel.executor.run_s"] = med("parallel.executor.run")
    out["parallel.merge.merge_s"] = med("parallel.merge.merge")
    out["service.wire.decode_s"] = med("service.wire.decode")
    out["service.wire.encode_s"] = med("service.wire.encode")
    out["service.service.query_self_s"] = med_self("service.service.query")
    out["service.service.append_s"] = med("service.service.append")
    out["service.workers.run_query_s"] = med("service.workers.run_query")
    out["service.workers.transport_s"] = _median(
        [
            (s["end"] - s["start"]) - s["worker_wall"]
            for s in by_name["service.workers.run_query"]
            if "worker_wall" in s
        ]
    )

    scans = by_name["core.dangoron.scan"] + by_name["core.horizontal.scan"]
    scan_seconds = sum(_durations(scans))
    pair_windows = out["core.dangoron.exact_evaluations"] + out["core.dangoron.skipped_by_jumping"]
    if pair_windows:
        out["core.dangoron.jump_skip_ratio"] = out["core.dangoron.skipped_by_jumping"] / pair_windows
    if scan_seconds:
        out["core.dangoron.pair_windows_per_s"] = pair_windows / scan_seconds
    lookups = out["storage.cache.hits"] + out["storage.cache.misses"]
    if lookups:
        out["storage.cache.hit_ratio"] = out["storage.cache.hits"] / lookups
    # Of the pair-windows the pruned scans had to decide, the share the
    # triangle bound settled without an exact evaluation.
    decided = out["core.horizontal.pruned_pairs"] + counters.get("horizontal_exact_evaluations", 0.0)
    if decided:
        out["core.horizontal.prune_ratio"] = out["core.horizontal.pruned_pairs"] / decided
    tsubasa = _median(_durations(baseline["baselines.tsubasa.scan"]))
    dangoron = _median(_durations(baseline["core.dangoron.scan"]))
    out["baselines.tsubasa.scan_s"] = tsubasa
    if dangoron:
        out["core.dangoron.speedup_vs_tsubasa"] = tsubasa / dangoron

    executes = by_name["api.planner.execute"]
    if executes:
        out["api.planner.sharded_share"] = sum(
            1 for s in executes if s.get("execution") == "sharded"
        ) / len(executes)
    out["api.planner.plan_flips"] = float(_plan_flips(executes))

    overheads = _executor_overheads(by_name["parallel.executor.run"], timed, own, main_pids)
    out["parallel.executor.overhead_s"] = _median(overheads)

    service_spans = {
        s["op"]: s
        for s in by_name["service.service.query"] + by_name["service.service.append"]
        if s["pid"] in main_pids
    }
    http_overheads = [
        latencies[op] - (span["end"] - span["start"])
        for op, span in service_spans.items()
        if op in latencies
    ]
    out["service.http.overhead_s"] = _median(http_overheads)

    total_latency = sum(latencies.values())
    if total_latency > 0:
        totals: Dict[str, float] = defaultdict(float)
        for span in timed:
            layer = _SPAN_LAYER.get(span["name"])
            if layer is not None:
                totals[layer] += own[(span["pid"], span["id"])]
        totals["parallel.executor"] += sum(overheads)
        totals["service.http"] = sum(http_overheads)
        worker_roots = sum(
            s["end"] - s["start"]
            for s in timed
            if s["pid"] not in main_pids and s["parent"] is None
        )
        run_query_total = sum(_durations(by_name["service.workers.run_query"]))
        if run_query_total:
            totals["service.workers"] = max(0.0, run_query_total - worker_roots)
        for layer in SHARE_LAYERS:
            out[f"{layer}.self_share"] = totals[layer] / total_latency
    return out


def _plan_flips(executes: Sequence[dict]) -> int:
    """Times a workload shape was executed under a different plan than last time.

    Plans are compared per *decision* — the cost key minus its candidate
    part — so a flip is the planner changing its mind (say sharded to serial
    once feedback arrives), not two different queries.
    """
    last: Dict[str, str] = {}
    flips = 0
    for span in sorted(executes, key=lambda s: (s["pid"], s["start"])):
        key = span.get("cost_key")
        if not key:
            continue
        decision = "|".join(
            part for part in key.split("|")
            if not part.startswith(("exec=", "build=", "sketch="))
        )
        decision = f"{span['pid']}|{span.get('planner')}|{decision}"
        choice = f"{span.get('execution')}+{span.get('sketch_build')}"
        if decision in last and last[decision] != choice:
            flips += 1
        last[decision] = choice
    return flips


def _executor_overheads(
    runs: Sequence[dict],
    spans: Sequence[dict],
    own: Mapping,
    main_pids: Sequence[int],
) -> List[float]:
    """Per sharded run: its self time minus the busiest shard process's scans."""
    shard_scans = [
        s for s in spans
        if s["pid"] not in main_pids and s["name"] in ("core.dangoron.scan", "core.horizontal.scan")
    ]
    overheads = []
    for run in runs:
        per_pid: Dict[int, float] = defaultdict(float)
        for scan in shard_scans:
            if scan["start"] >= run["start"] and scan["end"] <= run["end"]:
                per_pid[scan["pid"]] += scan["end"] - scan["start"]
        busiest = max(per_pid.values(), default=0.0)
        overheads.append(max(0.0, own[(run["pid"], run["id"])] - busiest))
    return overheads
