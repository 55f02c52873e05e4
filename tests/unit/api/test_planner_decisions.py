"""Golden table of planner decisions: every choice and its stated reason.

Each scenario configures a planner + workload, and the table pins the full
decision — execution, workers, build, budget, the ordered reason list and
the rendered ``describe()`` line including the cost ranking of the one
priced decision, serial vs sharded.  The cost model is the committed
fixture calibration (deterministic by construction, and what every planner
without an injected model prices with), injected explicitly here so the
table states what it pins.

The comparison is one dict against one dict, so any drift shows the *whole*
diff at once: a changed worker count, a reworded reason and a shifted cost
line all surface in a single failure, not one assert at a time.  If a
change here is intentional, update the table — that review moment is the
point of the test.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import (
    CostModel,
    LaggedQuery,
    QueryPlanner,
    ThresholdQuery,
    TopKQuery,
)
from repro.api.planner import ExecutionPlan
from repro.exceptions import ExperimentError
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


def _chained_setup(**overrides):
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
    config = dict(basic_window_size=32, sketch_cache=cache)
    config.update(overrides)
    query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
    return _planner(**config), grown, query


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
            _planner(workers=4, parallel_min_pairs=1),
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
        # An engine that cannot run on a pair subset (brute force) cannot
        # shard: the engine gate declines.
        "threshold-declined-engine-gate": (
            _planner(engine="brute_force", workers=2, parallel_min_pairs=1),
            _matrix(),
            _threshold(),
        ),
        # Unaligned windows under a worker request (TSUBASA plans a layout
        # even there, arming the alignment gate).
        "threshold-declined-unaligned": (
            _planner(engine="tsubasa", workers=2, parallel_min_pairs=1),
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
        # Both axes constrained at once: the engine gate declines sharding
        # AND an engine without a sketch layout pins the build dense — both
        # reasons must render.
        "threshold-both-axes-declined": (
            _planner(
                engine="brute_force",
                workers=2,
                parallel_min_pairs=1,
                memory_budget=DENSE_BYTES // 2,
            ),
            _matrix(),
            _threshold(),
        ),
        # Top-k shards without an engine gate (its path accepts subsets).
        "topk-sharded-2w": (
            _planner(workers=2, parallel_min_pairs=1),
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
            _planner(workers=2, parallel_min_pairs=1),
            _matrix(),
            LaggedQuery(
                start=0, end=LENGTH, window=WINDOW, step=STEP, max_lag=4,
                threshold=0.4,
            ),
        ),
        # A chained cache prefix: the build rule picks incremental (no
        # price) and the reason names the covered prefix.
        "incremental-chained-prefix": _chained_setup(),
        # Both decisions at once: the rule picks the build, the price picks
        # the execution — the cost line ranks executions only.
        "incremental-chained-sharded-2w": _chained_setup(
            workers=2, parallel_min_pairs=1
        ),
        # A chain exists but holds no prefix at this basic-window size: the
        # decline is named on the dense plan.
        "incremental-declined-no-prefix": _chained_setup(basic_window_size=16),
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
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact "
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
            "plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact "
            "sketch=b=16 x 16 exec=sharded(workers=4) "
            "cost: sharded(4w)=6.35e-05s < serial=0.000196s, "
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
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact "
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
            ("execution", "engine brute_force does not support pair subsets"),
        ),
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=brute_force answer=exact sketch=raw "
            "exec=serial (engine brute_force does not support pair subsets)"
        ),
    },
    "threshold-declined-unaligned": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (("execution", "windows not basic-window aligned"),),
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=tsubasa[b=16] answer=exact sketch=b=16 x 16 "
            "exec=serial (windows not basic-window aligned)"
        ),
    },
    "threshold-tiled-budget": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "tiled",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (),
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact "
            "sketch=b=16 x 16 exec=serial build=tiled(budget=8192B)"
        ),
    },
    "threshold-budget-fits": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": DENSE_BYTES,
        "reasons": (("build", "raw data fits the budget"),),
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact "
            "sketch=b=16 x 16 exec=serial build=dense "
            "(raw data fits the budget)"
        ),
    },
    "threshold-both-axes-declined": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (
            ("execution", "engine brute_force does not support pair subsets"),
            ("build", "execution path plans no sketch layout"),
        ),
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=brute_force answer=exact sketch=raw "
            "exec=serial (engine brute_force does not support pair subsets) "
            "build=dense (execution path plans no sketch layout)"
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
            "cost: sharded(2w)=0.000111s < serial=0.000196s, "
            "source=calibration"
        ),
    },
    "lagged-streamed-buffers": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "tiled",
        "memory_budget": DENSE_BYTES // 2,
        "reasons": (),
        "cost_source": None,
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
        "cost_source": None,
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
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=32] answer=exact "
            "sketch=b=32 x 18 exec=serial "
            "build=incremental(chained sketch covers 16/18 basic windows)"
        ),
    },
    "incremental-chained-sharded-2w": {
        "execution": "sharded",
        "workers": 2,
        "sketch_build": "incremental",
        "memory_budget": None,
        "reasons": (
            ("build", "chained sketch covers 16/18 basic windows"),
        ),
        "cost_source": "calibration",
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=32] answer=exact "
            "sketch=b=32 x 18 exec=sharded(workers=2) "
            "build=incremental(chained sketch covers 16/18 basic windows) "
            "cost: sharded(2w)=0.000233s < serial=0.00042s, "
            "source=calibration"
        ),
    },
    "incremental-declined-no-prefix": {
        "execution": "serial",
        "workers": 1,
        "sketch_build": "dense",
        "memory_budget": None,
        "reasons": (
            (
                "build",
                "incremental declined: no chained sketch entry covers a "
                "prefix of this layout",
            ),
        ),
        "cost_source": None,
        "describe": (
            "plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact "
            "sketch=b=16 x 36 exec=serial build=dense (incremental "
            "declined: no chained sketch entry covers a prefix of this "
            "layout)"
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
    planner = _planner(workers=4, parallel_min_pairs=1)
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
    planner = _planner(workers=4, parallel_min_pairs=1)
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
    planner = _planner(workers=4, parallel_min_pairs=1)
    matrix = _matrix()
    candidates = planner.candidate_plans(matrix, _threshold())
    costs = [plan.predicted_seconds for plan in candidates]
    assert costs == sorted(costs)
    assert candidates[0].describe() == planner.plan(matrix, _threshold()).describe()
    # Only the chosen plan carries the rendered ranking.
    assert candidates[0].cost_detail is not None
    assert all(plan.cost_detail is None for plan in candidates[1:])


class _RefusingCostModel(CostModel):
    """A cost model that fails the test if anything asks it for a price."""

    def __init__(self):
        super().__init__(CostModel.fixture().calibration)

    def predict(self, *args, **kwargs):
        raise AssertionError("a single-candidate plan was priced")


@pytest.mark.parametrize(
    "name",
    sorted(name for name, row in GOLDEN.items() if row["cost_source"] is None),
)
def test_single_candidate_plans_are_not_priced(name):
    """Only serial vs sharded is priced; with one candidate there is no
    decision, so the cost model is never consulted and the plan carries no
    prediction."""
    planner, matrix, query = _scenarios()[name]
    planner.cost_model = _RefusingCostModel()
    plan = planner.plan(matrix, query)
    assert plan.predicted_seconds is None and plan.cost_detail is None
    assert plan.cost_key is not None  # execute still records its wall time


def test_a_planner_without_workers_never_calibrates():
    """No workers, no decision: planning and running never consult the
    cost model."""
    planner = QueryPlanner(basic_window_size=BASIC, cost_model=_RefusingCostModel())
    planner.run(_matrix(), _threshold())


#: A default planner (no injected model) planning a two-worker threshold
#: query, run in a fresh interpreter so nothing cached in this one leaks in.
_DEFAULT_PLANNER_SCRIPT = f"""
import numpy as np
from repro.api import QueryPlanner, ThresholdQuery
from repro.timeseries.matrix import TimeSeriesMatrix
matrix = TimeSeriesMatrix(np.random.default_rng(7).standard_normal(({N}, {LENGTH})))
query = ThresholdQuery(start=0, end={LENGTH}, window={WINDOW}, step={STEP}, threshold=0.4)
planner = QueryPlanner(basic_window_size={BASIC}, workers=2, parallel_min_pairs=1)
print(planner.plan(matrix, query).describe())
"""


def test_a_default_planner_prices_with_the_fixture_whatever_the_environment(
    monkeypatch,
):
    """The environment selects no calibration: a planner nobody hands a
    model prices serial vs sharded with the committed fixture numbers."""
    matrix = TimeSeriesMatrix(np.random.default_rng(7).standard_normal((N, LENGTH)))
    fixture = _planner(workers=2, parallel_min_pairs=1).plan(matrix, _threshold())
    assert fixture.cost_source == "calibration"
    assert "sharded(2w)" in fixture.describe()
    src = Path(repro.__file__).resolve().parents[1]
    monkeypatch.setenv("PYTHONPATH", str(src))
    retired_knob = "REPRO_COST_CALIBRATION"  # once selected a measured model
    for setting in (None, "measured"):
        if setting is None:
            monkeypatch.delenv(retired_knob, raising=False)
        else:
            monkeypatch.setenv(retired_knob, setting)
        done = subprocess.run(
            [sys.executable, "-c", _DEFAULT_PLANNER_SCRIPT],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == fixture.describe(), setting


def test_feedback_keys_separate_engine_configurations():
    """Sessions sharing one cache record under their own engine configuration.

    Another engine, or the same engine with other options, runs at a
    different speed from the default one; pooling their walls under one key
    would rank every session against the others' runs.
    """
    cache = SketchCache()
    configurations = [
        ("dangoron", {}),
        ("dangoron", {"basic_window_size": 8}),
        ("tsubasa", {}),
        ("parcorr", {"verify": False}),
    ]
    plans = [
        _planner(engine=engine, engine_options=options, sketch_cache=cache).plan(
            _matrix(), _threshold()
        )
        for engine, options in configurations
    ]
    assert len({plan.cost_key for plan in plans}) == len(configurations)
    assert [plan.engine.describe() for plan in plans] == [
        "dangoron[no-pruning, b<=16]",
        "dangoron[no-pruning, b<=8]",
        "tsubasa[b=16]",
        "parcorr[k=64, approximate]",
    ]
    assert plans[0].describe() == GOLDEN["threshold-cold-serial"]["describe"]
    assert "|engine=dangoron[no-pruning, b<=16]|" in plans[0].cost_key


def test_horizontal_pruning_plans_the_grid():
    """Pivots are no product option: a session asking for horizontal
    pruning plans ``no-pruning`` and answers with the exact grid, bit for
    bit what the default session answers."""
    matrix, query = _matrix(), _threshold()
    pruned = _planner(
        engine_options={
            "use_horizontal_pruning": True,
            "num_pivots": 2,
            "pivot_strategy": "random",
        },
        workers=2,
        parallel_min_pairs=1,
    )
    plan = pruned.plan(matrix, query)
    assert plan.engine.describe() == "dangoron[no-pruning, b<=16]"
    assert plan.execution == "sharded"  # no random-pivot gate left to decline
    ours = pruned.run(matrix, query)
    theirs = _planner().run(matrix, query)
    assert ours.stats.pruned_horizontally == 0
    assert sum(m.num_edges for m in theirs.matrices) > 0
    for a, b in zip(ours.matrices, theirs.matrices):
        assert a.rows.tobytes() == b.rows.tobytes()
        assert a.cols.tobytes() == b.cols.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("name,value", [
    ("use_horizontal_pruning", True),
    ("num_pivots", 2),
    ("pivot_strategy", "random"),
    ("seed", 7),
])
def test_each_pivot_option_is_dropped(name, value):
    """Sessions that still name a pivot option keep planning the exact grid
    (the benchmark's pruned session is one): the planner drops every option
    of the horizontal-pruning ablation for Dangoron."""
    planner = _planner(engine_options={name: value})
    engine = planner.resolve_engine()
    assert engine.describe() == "dangoron[no-pruning, b<=16]"
    assert not hasattr(engine, name)


@pytest.mark.parametrize("engine,options", [
    ("dangoron", {"use_temporal_pruning": True}),
    ("dangoron", {"slack": 0.1, "use_horizontal_pruning": True}),
    ("tsubasa", {"num_pivots": 2}),
])
def test_options_no_engine_takes_are_rejected_by_name(engine, options):
    """Jumping is an experiment engine, and pivots are dropped for Dangoron
    only: any other option the engine does not take reaches the engine
    registry, which rejects it with a named error listing what it accepts."""
    planner = QueryPlanner(engine=engine, basic_window_size=BASIC, engine_options=options)
    with pytest.raises(ExperimentError) as excinfo:
        planner.plan(_matrix(), _threshold())
    message = str(excinfo.value)
    assert message.startswith(f"invalid options for engine '{engine}'")
    assert next(iter(options)) in message
    assert "accepted options: ['basic_window_size'" in message
