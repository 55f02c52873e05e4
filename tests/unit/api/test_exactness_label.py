"""Every surface says whether a threshold answer is exact or heuristic.

Dangoron's Eq. 2 jumping can miss edges; the product default (the planner's
``use_temporal_pruning=False``) answers exactly.  The label rides on
``EngineStats.exactness`` and shows in the result's ``describe()``, the plan
string, the wire result's stats and ``repro query``'s summary, in both
configurations.  Pivot options without jumping are dropped by the planner
(horizontal pruning is an experiment-only ablation), so the answer stays
``exact``.
"""

import json

import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.cli import main
from repro.core.dangoron import DangoronEngine
from repro.core.result import EXACTNESS_EXACT, EXACTNESS_JUMPING
from repro.datasets.loaders import write_wide_csv
from repro.parallel import ShardedExecutor
from repro.service.wire import encode_result, result_from_wire

QUERY = ThresholdQuery(start=0, end=512, window=128, step=32, threshold=0.6)

CONFIGURATIONS = [
    ({}, EXACTNESS_EXACT),
    ({"use_temporal_pruning": False}, EXACTNESS_EXACT),
    ({"use_horizontal_pruning": True}, EXACTNESS_EXACT),
    ({"use_temporal_pruning": True}, EXACTNESS_JUMPING),
]


@pytest.mark.parametrize("options,label", CONFIGURATIONS)
def test_stats_describe_plan_and_wire_carry_the_label(small_matrix, options, label):
    session = CorrelationSession(small_matrix, basic_window_size=32, engine_options=options)
    assert f" answer={label} " in session.plan(QUERY).describe()
    result = session.run(QUERY)
    assert result.stats.exactness == label
    assert result.stats.as_dict()["exactness"] == label
    assert f"edges ({label})" in result.describe()
    document = json.loads(encode_result({"plan": "-"}, result))
    assert document["stats"]["exactness"] == label
    assert result_from_wire(document).stats.exactness == label


def test_the_engine_class_keeps_the_papers_jumping_default(small_matrix):
    assert DangoronEngine().exactness() == EXACTNESS_JUMPING
    sharded = ShardedExecutor(workers=2).run(
        DangoronEngine(basic_window_size=32), small_matrix, QUERY
    )
    assert sharded.stats.exactness == EXACTNESS_JUMPING
    exact = ShardedExecutor(workers=2).run(
        DangoronEngine(basic_window_size=32, use_temporal_pruning=False),
        small_matrix, QUERY,
    )
    assert exact.stats.exactness == EXACTNESS_EXACT


@pytest.mark.parametrize("flags,label", [
    ([], EXACTNESS_EXACT),
    (["--engine-opt", "use_temporal_pruning=true"], EXACTNESS_JUMPING),
])
def test_repro_query_summary_names_the_label(tmp_path, small_matrix, capsys, flags, label):
    path = tmp_path / "data.csv"
    write_wide_csv(small_matrix, path)
    assert main(["query", str(path), "--window", "128", "--step", "32",
                 "--basic-window", "32", "--threshold", "0.6", *flags]) == 0
    output = capsys.readouterr().out
    assert f"answer={label}" in output
    assert f"edges ({label})" in output
