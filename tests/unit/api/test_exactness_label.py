"""Every surface says whether a threshold answer is exact or heuristic.

The product's Dangoron answers exactly; the paper's Eq. 2 jumping is an
experiment engine (:class:`~repro.experiments.jumping.JumpingEngine`) whose
answers can miss edges.  The label rides on ``EngineStats.exactness`` and
shows in the result's ``describe()``, the plan string, the wire result's
stats and ``repro query``'s summary.  Pivot options are dropped by the
planner (horizontal pruning is an experiment-only ablation), so the answer
stays ``exact``.  No registered engine is approximate, so the approximate
row hands an experiment engine (ParCorr) to the planner.
"""

import json

import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.cli import main
from repro.core.result import EXACTNESS_EXACT
from repro.datasets.loaders import write_wide_csv
from repro.experiments.approximate import EXACTNESS_APPROXIMATE, ParCorrEngine
from repro.experiments.jumping import EXACTNESS_JUMPING, JumpingEngine
from repro.parallel import ShardedExecutor
from repro.service.wire import encode_result, result_from_wire

QUERY = ThresholdQuery(start=0, end=512, window=128, step=32, threshold=0.6)

CONFIGURATIONS = [
    ("dangoron", {}, EXACTNESS_EXACT),
    ("dangoron", {"use_horizontal_pruning": True}, EXACTNESS_EXACT),
    ("parcorr", {}, EXACTNESS_APPROXIMATE),
]


@pytest.mark.parametrize("engine,options,label", CONFIGURATIONS)
def test_stats_describe_plan_and_wire_carry_the_label(
    small_matrix, engine, options, label
):
    # ParCorr is no registered engine: the planner is handed the object.
    override = ParCorrEngine(**options) if engine == "parcorr" else None
    session = CorrelationSession(
        small_matrix,
        engine="dangoron" if override else engine,
        basic_window_size=32,
        engine_options={} if override else options,
    )
    planner = session.planner
    assert f" answer={label} " in planner.plan(small_matrix, QUERY, engine=override).describe()
    result = planner.run(small_matrix, QUERY, engine=override)
    assert result.stats.exactness == label
    assert result.stats.as_dict()["exactness"] == label
    assert f"edges ({label})" in result.describe()
    document = json.loads(encode_result({"plan": "-"}, result))
    assert document["stats"]["exactness"] == label
    assert result_from_wire(document).stats.exactness == label


def test_the_jumping_experiment_keeps_its_heuristic_label(small_matrix):
    assert JumpingEngine().exactness() == EXACTNESS_JUMPING
    sharded = ShardedExecutor(workers=2).run(
        JumpingEngine(basic_window_size=32), small_matrix, QUERY
    )
    assert sharded.stats.exactness == EXACTNESS_JUMPING
    exact = ShardedExecutor(workers=2).run(
        JumpingEngine(basic_window_size=32, use_temporal_pruning=False),
        small_matrix, QUERY,
    )
    assert exact.stats.exactness == EXACTNESS_EXACT


def test_repro_query_summary_names_the_label(tmp_path, small_matrix, capsys):
    path = tmp_path / "data.csv"
    write_wide_csv(small_matrix, path)
    assert main(["query", str(path), "--window", "128", "--step", "32",
                 "--basic-window", "32", "--threshold", "0.6"]) == 0
    output = capsys.readouterr().out
    assert f"answer={EXACTNESS_EXACT}" in output
    assert f"edges ({EXACTNESS_EXACT})" in output
