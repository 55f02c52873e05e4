"""The benchmark's metric table: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root is the contract the driver reads;
``perf/tests/test_contract.py`` checks that it names exactly what this table
declares.  The driver gates every end-to-end metric on every workload, on
medians over ten seeds, and refuses one whose seed-to-seed spread exceeds
its bound (at most 25 %).  So the gated set is the metrics that all four
workloads define and that are never zero; ``perf/README.md`` ("Gate
coverage") says what each of them means on each workload.  The rest are
end-to-end metrics all the same — measured untraced — but informational:
reported with the per-layer set, where ``perf/agree.py`` still holds them
to the bounds below.

* ``topk_p50_s``, ``lagged_p50_s``, ``append_*``, ``fresh_*``: one workload
  only.
* ``error_rate``: always 0, which the driver's never-zero rule excludes
  (failures still reach the driver as ``failed``/``correct``).
* ``query_tail_s``: on ``serve-closed`` it is the miss path — a sketch
  build plus a ~23 MB segment export — whose cost on the reference box's
  filesystem swings with the disk's state.  A tail that cannot repeat
  within its bound is demoted rather than given a looser one (ISSUE 11's
  rule).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median the metric may worsen by (end-to-end only).
    bound: Optional[float] = None
    #: Workloads the metric is defined on (``None``: all four).
    workloads: Optional[Tuple[str, ...]] = None
    #: Workloads on which it is reported without a bound (it does not repeat).
    demoted: Tuple[str, ...] = ()


#: Gated by the driver: defined and never zero on every workload.  Timing
#: bounds are what the reference box can hold (README, "What repeats"), not
#: ISSUE 11's 10 %: one seed's cold query, run back to back, already moves
#: +-12 %.  ``edge_recall`` repeats exactly for one seed but differs between
#: seeds by up to 0.14 % (inter-quartile), and the driver's medians are over
#: seeds.  ``peak_rss_mb`` is 15 %, not 10 %: the ``cold-batch`` child peaks at
#: 140 to 150 MB depending on the seed (its edge counts decide the heap's
#: layout; one seed always gives one value), so two sets of seeds can differ
#: by most of 10 % with nothing changed.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_p50_s", "s", "lower", 0.25),
    Metric("throughput_qps", "1/s", "higher", 0.25),
    Metric("edge_recall", "ratio", "higher", 0.005),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
]

#: ``perf/agree.py`` compares runs of one seed, where ``edge_recall`` is
#: deterministic, so there it is held to ISSUE 11's -0.001.
SAME_SEED_BOUNDS = {"edge_recall": 0.001}

#: End-to-end too, but informational for the driver (see module docstring).
#: ``perf/agree.py`` holds those with a bound to it.  Those without one do
#: not repeat on the reference box (ten-seed spreads in the comments; README,
#: "What repeats") and are demoted by ISSUE 11's rule rather than given a
#: looser bound: every one of them is a segment export into fresh page cache.
WORKLOAD_END_TO_END: List[Metric] = [
    # Spread 0.08-0.12 on the library workloads; 0.18-0.63 @ serve-closed (the
    # first touches) and 0.55-0.80 @ serve-append (the refresh).
    Metric("query_tail_s", "s", "lower", 0.20, None, ("serve-closed", "serve-append")),
    Metric("topk_p50_s", "s", "lower", 0.10, ("warm-sweep",)),
    Metric("lagged_p50_s", "s", "lower", 0.10, ("warm-sweep",)),
    Metric("append_p50_s", "s", "lower", None, ("serve-append",)),  # 0.13-0.27
    Metric("append_tail_s", "s", "lower", None, ("serve-append",)),
    Metric("fresh_p50_s", "s", "lower", None, ("serve-append",)),  # 0.57-0.81
    Metric("fresh_tail_s", "s", "lower", None, ("serve-append",)),
    Metric("error_rate", "ratio", "lower", 0.0),
]

#: Layers whose share of per-op self time the prediction table is read off.
SHARE_LAYERS = (
    "core.sketch",
    "core.dangoron",
    "core.horizontal",
    "core.topk",
    "core.lag",
    "api.planner",
    "storage.cache",
    "storage.shared",
    "storage.chunk_store",
    "parallel.executor",
    "service.wire",
    "service.http",
    "service.service",
    "service.workers",
)

_LAYER_ROWS = """
core.sketch.build_s s lower
core.sketch.build_count count lower
core.sketch.extend_s s lower
core.sketch.extend_count count lower
core.sketch.extended_windows count lower
core.sketch.memory_mb MB lower
core.dangoron.scan_s s lower
core.dangoron.exact_evaluations count lower
core.dangoron.skipped_by_jumping count higher
core.dangoron.jump_skip_ratio ratio higher
core.dangoron.pair_windows_per_s 1/s higher
core.dangoron.speedup_vs_tsubasa ratio higher
baselines.tsubasa.scan_s s lower
core.horizontal.scan_s s lower
core.horizontal.pruned_pairs count higher
core.horizontal.prune_ratio ratio higher
core.topk.scan_s s lower
core.lag.scan_s s lower
api.planner.plan_s s lower
api.planner.execute_self_s s lower
api.planner.sharded_share ratio lower
api.planner.plan_flips count lower
storage.cache.acquire_self_s s lower
storage.cache.fingerprint_s s lower
storage.cache.hits count higher
storage.cache.misses count lower
storage.cache.builds count lower
storage.cache.extensions count higher
storage.cache.hit_ratio ratio higher
storage.chunk_store.append_s s lower
storage.shared.export_s s lower
storage.shared.exports count lower
storage.shared.export_mb MB lower
parallel.executor.run_s s lower
parallel.executor.overhead_s s lower
parallel.merge.merge_s s lower
service.wire.decode_s s lower
service.wire.encode_s s lower
service.wire.response_mb MB lower
service.http.overhead_s s lower
service.service.query_self_s s lower
service.service.append_s s lower
service.service.executed count lower
service.service.coalesced count higher
service.service.batched count higher
service.service.shed count lower
service.service.queue_depth_max count lower
service.workers.run_query_s s lower
service.workers.transport_s s lower
service.workers.restarts count lower
service.workers.rss_anon_mb MB lower
trace.overhead_ratio ratio lower
generator.late_p90_s s lower
generator.cpu_share ratio lower
"""

PER_LAYER: List[Metric] = (
    [Metric(*row.split()) for row in _LAYER_ROWS.strip().splitlines()]
    + [Metric(f"{layer}.self_share", "ratio", "lower") for layer in SHARE_LAYERS]
    + [Metric(m.name, m.unit, m.better) for m in WORKLOAD_END_TO_END]
)

#: Program counters that must repeat exactly between two runs of one commit
#: and seed (``perf/agree.py`` checks them).
EXACT_COUNTERS = (
    "core.dangoron.exact_evaluations",
    "core.dangoron.skipped_by_jumping",
    "core.sketch.build_count",
    "core.sketch.extend_count",
    "core.sketch.extended_windows",
    "storage.cache.hits",
    "storage.cache.builds",
    "storage.cache.extensions",
    "storage.shared.exports",
    "edge_recall",
)


def units() -> Dict[str, str]:
    return {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_document(run_seconds: int, workloads: Dict[str, str]) -> Dict[str, object]:
    """The ``BENCHMARK.json`` this table declares."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in workloads.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
