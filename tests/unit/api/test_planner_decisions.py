"""Golden table of planner decisions: every choice and its stated reason.

Each scenario configures a planner + workload, and the table pins the full
decision — execution, workers, build, budget, the ordered reason list and
the rendered ``describe()`` line including the cost ranking.  The cost
model is the committed fixture calibration (deterministic by construction;
``conftest.py`` pins ``REPRO_COST_CALIBRATION=off`` repo-wide), injected
explicitly here so the table holds even if the suite-level pin moves.

The comparison is one dict against one dict, so any drift shows the *whole*
diff at once: a changed worker count, a reworded reason and a shifted cost
line all surface in a single failure, not one assert at a time.  If a
change here is intentional, update the table — that review moment is the
point of the test.
"""

import numpy as np
import pytest

from repro.api import (
    CostModel,
    LaggedQuery,
    QueryPlanner,
    ThresholdQuery,
    TopKQuery,
)
from repro.api.planner import ExecutionPlan
from repro.core.basic_window import BasicWindowLayout
from repro.storage.cache import SketchCache
from repro.timeseries.matrix import TimeSeriesMatrix

LENGTH = 256
WINDOW = 64
STEP = 32
BASIC = 16
N = 8
DENSE_BYTES = N * LENGTH * 8


def _matrix(num_series=N, length=LENGTH, seed=7):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(length)
    values = 0.6 * base + rng.standard_normal((num_series, length))
    return TimeSeriesMatrix(values)


def _threshold(**overrides):
    spec = dict(start=0, end=LENGTH, window=WINDOW, step=STEP, threshold=0.4)
    spec.update(overrides)
    return ThresholdQuery(**spec)


def _planner(**overrides):
    config = dict(basic_window_size=BASIC, cost_model=CostModel.fixture())
    config.update(overrides)
    return QueryPlanner(**config)


def _chained_setup():
    """The append-chain recipe (mirrors docs/scaling.md): 16 of 18 windows
    cached, two arriving via O(Δ) extension."""
    rng = np.random.default_rng(0)
    cache = SketchCache()
    history = TimeSeriesMatrix(rng.standard_normal((8, 512)))
    cache.get_or_build(history, BasicWindowLayout.for_range(0, 512, 32))
    delta = rng.standard_normal((8, 64))
    fingerprint = cache.extend_chain(history, delta)
    grown = TimeSeriesMatrix(np.concatenate([history.values, delta], axis=1))
    cache.adopt_fingerprint(grown, fingerprint)
    planner = _planner(basic_window_size=32, sketch_cache=cache)
    query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
    return planner, grown, query


def _scenarios():
    """name -> (planner, matrix, query): the workloads the table pins."""
    scenarios = {
        # The no-choice baseline: nothing configured, one candidate, and the
        # historic single-candidate plan string (no cost suffix).
        "threshold-cold-serial": (
            _planner(),
            _matrix(),
            _threshold(),
        ),
        # Workers configured and every sharding gate passes: the ranking
        # prices serial against the configured worker count.
        "threshold-sharded-4w": (
            _planner(workers=4, parallel_min_pairs=1, parallel_mode="thread"),
            _matrix(),
            _threshold(),
        ),
        # Workers configured but the pair count is under the default floor:
        # a policy decline, named on the plan.
        "threshold-declined-pair-floor": (
            _planner(workers=4),
            _matrix(),
            _threshold(),
        ),
        # Unseeded random pivots cannot shard (each shard would draw its own
        # pivots): the engine gate declines.
        "threshold-declined-engine-gate": (
            _planner(
                engine_options={
                    "use_horizontal_pruning": True,
                    "pivot_strategy": "random",
                },
                workers=2,
                parallel_min_pairs=1,
            ),
            _matrix(),
            _threshold(),
        ),
        # Unaligned windows under a worker request (TSUBASA plans a layout
        # even there, arming the alignment gate).
        "threshold-declined-unaligned": (
            _planner(
                engine="tsubasa", workers=2, parallel_min_pairs=1,
                parallel_mode="thread",
            ),
            _matrix(),
            _threshold(window=50, step=25),
        ),
        # Budget below the data: tiled, in tiles of the whole budget (the
        # one tiled candidate, so no cost line).
        "threshold-tiled-budget": (
            _planner(memory_budget=DENSE_BYTES // 2),
            _matrix(),
            _threshold(),
        ),
        # Budget the data fits in: dense, with the fit stated.
        "threshold-budget-fits": (
            _planner(memory_budget=DENSE_BYTES),
            _matrix(),
            _threshold(),
        ),
        # Pruning reads raw values: a configured budget falls back to dense
        # and the plan says why.
        "threshold-pruned-stays-dense": (
            _planner(
                engine_options={
                    "use_horizontal_pruning": True,
                    "pivot_strategy": "kcenter",
                    "num_pivots": 2,
                },
                memory_budget=DENSE_BYTES // 2,
            ),
            _matrix(),
            _threshold(),
        ),
        # Both axes constrained at once: the engine gate declines sharding
        # AND pruning pins the build dense — both reasons must render.
        "threshold-both-axes-declined": (
            _planner(
                engine_options={
                    "use_horizontal_pruning": True,
                    "pivot_strategy": "random",
                },
                workers=2,
                parallel_min_pairs=1,
                memory_budget=DENSE_BYTES // 2,
            ),
            _matrix(),
            _threshold(),
        ),
        # Top-k shards without an engine gate (its path accepts subsets).
        "topk-sharded-2w": (
            _planner(workers=2, parallel_min_pairs=1, parallel_mode="thread"),
            _matrix(),
            TopKQuery(start=0, end=LENGTH, window=WINDOW, step=STEP, k=5),
        ),
        # Lagged under a budget below the data: streamed window buffers
        # ("tiled"), the only feasible build.
        "lagged-streamed-buffers": (
            _planner(memory_budget=DENSE_BYTES // 2),
            _matrix(),
            LaggedQuery(
                start=0, end=LENGTH, window=WINDOW, step=STEP, max_lag=4,
                threshold=0.4,
            ),
        ),
        # Lagged with workers requested: the lag kernel is one BLAS product
        # per window, so the plan stays serial and says why.
        "lagged-declined-workers": (
            _planner(workers=2, parallel_min_pairs=1, parallel_mode="thread"),
            _matrix(),
            LaggedQuery(
                start=0, end=LENGTH, window=WINDOW, step=STEP, max_lag=4,
                threshold=0.4,
            ),
        ),
        # A chained cache prefix: incremental beats dense on cost and the
        # reason names the covered prefix.
        "incremental-chained-prefix": _chained_setup(),
    }
    return scenarios


def _snapshot(plan):
    return {
        "execution": plan.execution,
        "workers": plan.workers,
        "sketch_build": plan.sketch_build,
        "memory_budget": plan.memory_budget,
        "reasons": plan.reasons(),
        "cost_source": plan.cost_source,
        "describe": plan.describe(),
    }


#: The pinned decisions.  Costs are exact: fixture-calibration arithmetic
#: over integer workload sizes is deterministic on any IEEE-754 machine.
GOLDEN = {
    "threshold-cold-serial": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal, b<=16] "
            "sketch=b=16 x 16 exec=serial"
        ),
    },
    "threshold-sharded-4w": {
        "execution": "sharded",
        "workers": 4,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal, b<=16] "
            "sketch=b=16 x 16 exec=sharded(workers=4) "
            "cost: sharded(4w)=7.37e-05s < serial=0.000206s, "
            "source=calibration"
        ),
    },
    "threshold-declined-pair-floor": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (
            ("execution", "pair count below parallel_min_pairs=4096"),
        ),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal, b<=16] "
            "sketch=b=16 x 16 exec=serial "
            "(pair count below parallel_min_pairs=4096)"
        ),
    },
    "threshold-declined-engine-gate": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (
            (
                "execution",
                "engine dangoron[temporal+horizontal(4), b<=16] does not "
                "support pair subsets",
            ),
        ),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal+horizontal(4), b<=16] "
            "sketch=b=16 x 16 exec=serial (engine "
            "dangoron[temporal+horizontal(4), b<=16] does not support pair "
            "subsets)"
        ),
    },
    "threshold-declined-unaligned": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (("execution", "windows not basic-window aligned"),),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=tsubasa[b=16] sketch=b=16 x 16 "
            "exec=serial (windows not basic-window aligned)"
        ),
    },
    "threshold-tiled-budget": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "tiled",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal, b<=16] "
            "sketch=b=16 x 16 exec=serial build=tiled(budget=8192B)"
        ),
    },
    "threshold-budget-fits": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": DENSE_BYTES,
        "reasons": (("build", "raw data fits the budget"),),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal, b<=16] "
            "sketch=b=16 x 16 exec=serial build=dense "
            "(raw data fits the budget)"
        ),
    },
    "threshold-pruned-stays-dense": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (("build", "engine needs raw values (pivot selection)"),),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal+horizontal(2), b<=16] "
            "sketch=b=16 x 16 exec=serial build=dense "
            "(engine needs raw values (pivot selection))"
        ),
    },
    "threshold-both-axes-declined": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (
            (
                "execution",
                "engine dangoron[temporal+horizontal(4), b<=16] does not "
                "support pair subsets",
            ),
            ("build", "engine needs raw values (pivot selection)"),
        ),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal+horizontal(4), b<=16] "
            "sketch=b=16 x 16 exec=serial (engine "
            "dangoron[temporal+horizontal(4), b<=16] does not support pair "
            "subsets) build=dense (engine needs raw values "
            "(pivot selection))"
        ),
    },
    "topk-sharded-2w": {
        "execution": "sharded",
        "workers": 2,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (),
        "cost_source": "calibration",
        "describe": (
            "plan[topk] engine=- sketch=b=16 x 16 exec=sharded(workers=2) "
            "cost: sharded(2w)=0.000121s < serial=0.000206s, "
            "source=calibration"
        ),
    },
    "lagged-streamed-buffers": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "tiled",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (),
        "cost_source": "calibration",
        "describe": (
            "plan[lagged] engine=- sketch=raw exec=serial "
            "build=tiled(budget=8192B)"
        ),
    },
    "lagged-declined-workers": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (
            ("execution", "lagged scans are one BLAS product per window"),
        ),
        "cost_source": "calibration",
        "describe": (
            "plan[lagged] engine=- sketch=raw exec=serial "
            "(lagged scans are one BLAS product per window)"
        ),
    },
    "incremental-chained-prefix": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "incremental",
        "memory_budget": None,
        "reasons": (
            ("build", "chained sketch covers 16/18 basic windows"),
        ),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[temporal, b<=32] "
            "sketch=b=32 x 18 exec=serial "
            "build=incremental(chained sketch covers 16/18 basic windows) "
            "cost: incremental=0.000423s < dense=0.000443s, "
            "source=calibration"
        ),
    },
}


def test_golden_table_covers_every_scenario():
    assert set(_scenarios()) == set(GOLDEN)


def test_all_plan_decisions_match_the_golden_table():
    actual = {}
    for name, (planner, matrix, query) in _scenarios().items():
        actual[name] = _snapshot(planner.plan(matrix, query))
    assert actual == GOLDEN


# --------------------------------------------------------------- reason list
def test_reasons_renders_execution_then_build_in_order():
    """The unified reason list: one ordered source for describe().

    Historically ``execution_reason`` and ``build_reason`` were rendered by
    separate ad-hoc branches; :meth:`ExecutionPlan.reasons` is now the
    single ordered source, so neither can shadow or drop the other.
    """
    plan = ExecutionPlan(
        query=_threshold(),
        kind="threshold",
        execution_reason="why serial",
        build_reason="why dense",
    )
    assert plan.reasons() == (
        ("execution", "why serial"),
        ("build", "why dense"),
    )
    description = plan.describe()
    assert description.index("why serial") < description.index("why dense")

    assert ExecutionPlan(query=_threshold(), kind="threshold").reasons() == ()
    only_build = ExecutionPlan(
        query=_threshold(), kind="threshold", build_reason="why dense"
    )
    assert only_build.reasons() == (("build", "why dense"),)


# ------------------------------------------------------------- feedback flips
def test_feedback_overrides_calibration_once_every_candidate_is_observed():
    """Observed runtimes flip the decision — and the source says so.

    The fixture calibration prefers sharded(4w) for this workload; after
    every candidate has MIN_FEEDBACK_SAMPLES observations showing serial is
    actually fastest on "this machine", the planner must choose serial and
    attribute the choice to feedback.
    """
    planner = _planner(
        workers=4, parallel_min_pairs=1, parallel_mode="thread"
    )
    matrix = _matrix()
    query = _threshold()

    first = planner.plan(matrix, query)
    assert first.execution == "sharded" and first.cost_source == "calibration"

    walls = {"serial": 0.001, "sharded@4": 0.020}
    for candidate in planner.candidate_plans(matrix, query):
        exec_tag = (
            "serial"
            if candidate.execution == "serial"
            else f"sharded@{candidate.workers}"
        )
        for _ in range(3):
            planner.sketch_cache.feedback.record(
                candidate.cost_key, walls[exec_tag]
            )

    relearned = planner.plan(matrix, query)
    assert relearned.execution == "serial"
    assert relearned.cost_source == "feedback(n=3)"
    assert "source=feedback(n=3)" in relearned.describe()


def test_partial_feedback_coverage_stays_on_calibration():
    """An observed mean must never be ranked against a calibrated guess."""
    planner = _planner(
        workers=4, parallel_min_pairs=1, parallel_mode="thread"
    )
    matrix = _matrix()
    query = _threshold()
    candidates = planner.candidate_plans(matrix, query)
    # Observe only one candidate, heavily.
    for _ in range(10):
        planner.sketch_cache.feedback.record(candidates[-1].cost_key, 1e-9)
    plan = planner.plan(matrix, query)
    assert plan.cost_source == "calibration"
    assert plan.execution == "sharded" and plan.workers == 4


def test_candidate_plans_rank_cheapest_first_and_agree_with_plan():
    planner = _planner(
        workers=4, parallel_min_pairs=1, parallel_mode="thread"
    )
    matrix = _matrix()
    candidates = planner.candidate_plans(matrix, _threshold())
    costs = [plan.predicted_seconds for plan in candidates]
    assert costs == sorted(costs)
    assert candidates[0].describe() == planner.plan(matrix, _threshold()).describe()
    # Only the chosen plan carries the rendered ranking.
    assert candidates[0].cost_detail is not None
    assert all(plan.cost_detail is None for plan in candidates[1:])


def test_feedback_keys_separate_engine_configurations():
    """Sessions sharing one cache record under their own engine configuration.

    A pruned or prefix-combination session runs at a different speed from
    the default one; pooling their walls under one key would rank every
    session against the others' runs.
    """
    cache = SketchCache()
    configurations = [
        {},
        {"use_horizontal_pruning": True},
        {"prefix_combination": True},
        {"slack": 0.1},
    ]
    plans = [
        _planner(engine_options=options, sketch_cache=cache).plan(
            _matrix(), _threshold()
        )
        for options in configurations
    ]
    assert len({plan.cost_key for plan in plans}) == len(configurations)
    assert [plan.engine.describe() for plan in plans] == [
        "dangoron[temporal, b<=16]",
        "dangoron[temporal+horizontal(4), b<=16]",
        "dangoron[temporal, b<=16, prefix]",
        "dangoron[temporal, b<=16, slack=0.1]",
    ]
    assert plans[0].describe() == GOLDEN["threshold-cold-serial"]["describe"]
    assert "|engine=dangoron[temporal, b<=16]|" in plans[0].cost_key
