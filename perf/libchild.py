"""Child process of the library workloads: the program plus a thin op loop.

Running the ops in a process of their own keeps the harness (generator,
oracle, verification) out of ``peak_rss_mb`` and lets the traced run install
its wrappers before ``repro`` does any work.  Protocol with the parent:

1. load the array and the op plan, build the sessions, run the warm-up ops;
2. print ``ready`` and wait for one line on stdin — ``go`` or ``quit``
   (``quit`` lets the parent time set-up several times without measuring);
3. on ``go`` run every timed op — one wall clock around the call —
   keep the answers, then write timings and counters (JSON) and answers
   (``.npz``) for the parent to verify off the clock.  Past the plan's
   deadline (and its first block of ops) the remaining ops are dropped.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402


def _query_for(op):
    from repro import LaggedQuery, ThresholdQuery, TopKQuery
    from perf.datagen import STEP, WINDOW

    grid = dict(start=op["start"], end=op["end"], window=WINDOW, step=STEP)
    if op["kind"] == "topk":
        return TopKQuery(k=op["k"], **grid)
    if op["kind"] == "lagged":
        return LaggedQuery(max_lag=op["max_lag"], threshold=op["threshold"], **grid)
    return ThresholdQuery(threshold=op["threshold"], **grid)


class Sessions:
    """The sessions a plan's ops name, all over one matrix.

    ``main``, ``pruned`` and ``sharded`` share one long-lived ``SketchCache``
    (and so one ``FeedbackStore``); ``fresh`` is a new session — a new
    cache — on every call.  The fixture calibration pins plan choice so it
    does not depend on a micro-benchmark of this machine.
    """

    def __init__(self, matrix, workers: int) -> None:
        from repro import CorrelationSession, QueryPlanner
        from repro.api.cost import CostModel
        from repro.storage.cache import SketchCache
        from perf.datagen import BASIC_WINDOW

        self._session = CorrelationSession
        self._planner = QueryPlanner
        self.matrix = matrix
        self.basic_window = BASIC_WINDOW
        self.cost_model = CostModel.fixture()
        self.cache = SketchCache()
        self._fresh_counters = dict.fromkeys(
            ("hits", "misses", "builds", "extensions", "extended_windows"), 0
        )
        self._warm = {
            "main": self._shared(),
            "pruned": self._shared(engine_options={"use_horizontal_pruning": True}),
            "sharded": self._shared(workers=workers),
        }

    def _shared(self, **options):
        return self._session(
            self.matrix,
            planner=self._planner(
                basic_window_size=self.basic_window,
                sketch_cache=self.cache,
                cost_model=self.cost_model,
                **options,
            ),
        )

    def run(self, name: str, query):
        """Answer ``query`` on the named session.

        ``fresh`` is the cold path a one-shot caller pays — construct a
        session, run, drop it — so its sketch is garbage before the next op.
        """
        if name != "fresh":
            return self._warm[name].run(query)
        session = self._session(
            self.matrix,
            basic_window_size=self.basic_window,
            cost_model=self.cost_model,
        )
        result = session.run(query)
        for key, value in self._counters_of(session.sketch_cache).items():
            self._fresh_counters[key] += value
        return result

    @staticmethod
    def _counters_of(cache):
        return {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "builds": cache.builds,
            "extensions": cache.stats.sketch_extensions,
            "extended_windows": cache.stats.extended_windows,
        }

    def cache_counters(self):
        shared = self._counters_of(self.cache)
        return {key: shared[key] + self._fresh_counters[key] for key in shared}


def _answer_arrays(index: int, op, result, out) -> None:
    """Flatten one result into the arrays the parent verifies."""
    if op["kind"] == "lagged":
        out[f"{index}_corr"] = np.stack([w.best_corr for w in result.windows])
        out[f"{index}_lag"] = np.stack([w.best_lag for w in result.windows])
        return
    if op["kind"] == "topk":
        windows = [(w.rows, w.cols, w.values) for w in result.windows]
    else:
        windows = [(m.rows, m.cols, m.values) for m in result.matrices]
    out[f"{index}_sizes"] = np.array([len(r) for r, _, _ in windows], dtype=np.int64)
    out[f"{index}_rows"] = np.concatenate([r for r, _, _ in windows]).astype(np.int32)
    out[f"{index}_cols"] = np.concatenate([c for _, c, _ in windows]).astype(np.int32)
    out[f"{index}_values"] = np.concatenate([v for _, _, v in windows]).astype(np.float64)


def _stats_of(result):
    stats = getattr(result, "stats", None)
    if stats is None:
        return None
    return {
        "exact_evaluations": int(stats.exact_evaluations),
        "skipped_by_jumping": int(stats.skipped_by_jumping),
        "pruned_horizontally": int(stats.pruned_horizontally),
        "query_seconds": float(stats.query_seconds),
        "sketch_memory_bytes": float(stats.extra.get("sketch_memory_bytes", 0.0)),
    }


def _baseline(tracer, sessions, repeats: int = 5) -> None:
    """TSUBASA and Dangoron on the same sketch and query (traced run only).

    Spans carry the op id ``baseline`` so they stay out of the workload's
    own scan medians; ``core.dangoron.speedup_vs_tsubasa`` is their ratio.
    """
    from repro import DangoronEngine, ThresholdQuery, TsubasaEngine
    from perf.datagen import LENGTH, STEP, WINDOW

    query = ThresholdQuery(start=0, end=LENGTH, window=WINDOW, step=STEP, threshold=0.7)
    tsubasa = TsubasaEngine(basic_window_size=sessions.basic_window)
    dangoron = DangoronEngine(basic_window_size=sessions.basic_window)
    sketch = sessions.cache.get_or_build(sessions.matrix, dangoron.plan_layout(query))
    tracer.op = "baseline"
    for _ in range(repeats):
        tsubasa.run(sessions.matrix, query, sketch=sketch)
        dangoron.run(sessions.matrix, query, sketch=sketch)
    tracer.op = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True, help="result stem: <out>.json + <out>.npz")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir:
        from perf import trace

        tracer = trace.install(Path(args.trace_dir), "lib")

    from repro import TimeSeriesMatrix

    with open(args.plan, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    matrix = TimeSeriesMatrix(np.load(args.data))
    sessions = Sessions(matrix, args.workers)
    for op in plan["warmup"]:
        sessions.run(op["session"], _query_for(op))
    warm_counters = sessions.cache_counters()

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    records = []
    answers = {}
    run_started = time.perf_counter()
    for index, op in enumerate(plan["timed"]):
        if index >= plan["block"] and time.perf_counter() - run_started > plan["deadline"]:
            break
        query = _query_for(op)
        if tracer is not None:
            tracer.op = op["id"]
        started = time.perf_counter()
        result = sessions.run(op["session"], query)
        ended = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        records.append(
            {"id": op["id"], "start": started, "end": ended, "stats": _stats_of(result)}
        )
        _answer_arrays(index, op, result, answers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counters = sessions.cache_counters()
    for key, value in warm_counters.items():
        counters[key] -= value
    if tracer is not None:
        _baseline(tracer, sessions)

    np.savez(args.out + ".npz", **answers)
    with open(args.out + ".json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "records": records,
                "started": run_started,
                "peak_rss_mb": peak_rss_mb,
                "cache": counters,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
