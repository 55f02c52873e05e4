"""The scenario matrix: every query family on every execution strategy.

This is the conformance harness for the planner's full routing space — the
cross product

    family    = threshold | topk | lagged
    execution = serial | sharded
    build     = dense | tiled
    pruning   = off | on           (horizontal pruning, a threshold-engine option)

Every cell is classified in :data:`EXPECTED_SUPPORT` with one of four
outcomes:

``supported``
    The planner plans exactly the requested strategy and the result is
    **bit-identical** to the serial/dense reference run with the same
    pruning configuration.
``dense-fallback``
    The cell runs, but the build honestly stays dense and the plan records
    why (``build_reason``) — e.g. pruned threshold queries read raw values
    for pivot selection, so a tiled build cannot bound their memory.
    The result is still bit-identical to the reference.
``serial-fallback``
    The cell runs, but the execution honestly stays serial and the plan
    records why (``execution_reason``) — lagged scans are one BLAS product
    per window, which already spreads over the cores.
``inapplicable``
    The cell cannot even be requested: pruning is an option of the
    threshold engine, and the planner rejects engine overrides for
    top-k/lagged queries with :class:`ExperimentError` instead of silently
    ignoring them.

The table is *exhaustive* (a test asserts its keys equal the full product)
and *honest in both directions*: supported cells must plan the strategy they
claim, and excluded cells must be rejected or declined with a reason that
``plan.describe()`` surfaces.  When the planner learns a new cell, the cell's
classification here goes stale and the drift tests fail loudly — updating
this table is part of supporting a new cell.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    Calibration,
    CostModel,
    LaggedQuery,
    QueryPlanner,
    ThresholdQuery,
    TopKQuery,
)
from repro.api.planner import (
    EXECUTION_SERIAL,
    EXECUTION_SHARDED,
    SKETCH_BUILD_DENSE,
    SKETCH_BUILD_TILED,
)
from repro.config import FLOAT_DTYPE
from repro.core.engine import create_engine
from repro.exceptions import ExperimentError
from repro.timeseries.matrix import TimeSeriesMatrix

# --------------------------------------------------------------------- matrix
FAMILIES = ("threshold", "topk", "lagged")
EXECUTIONS = (EXECUTION_SERIAL, EXECUTION_SHARDED)
BUILDS = (SKETCH_BUILD_DENSE, SKETCH_BUILD_TILED)
PRUNING = (False, True)

SUPPORTED = "supported"
DENSE_FALLBACK = "dense-fallback"
SERIAL_FALLBACK = "serial-fallback"
INAPPLICABLE = "inapplicable"

EXPECTED_SUPPORT = {
    # threshold: the engine path; every strategy pair works, but pruning pins
    # the build dense (pivot selection reads raw values).
    ("threshold", "serial", "dense", False): SUPPORTED,
    ("threshold", "serial", "dense", True): SUPPORTED,
    ("threshold", "serial", "tiled", False): SUPPORTED,
    ("threshold", "serial", "tiled", True): DENSE_FALLBACK,
    ("threshold", "sharded", "dense", False): SUPPORTED,
    ("threshold", "sharded", "dense", True): SUPPORTED,
    ("threshold", "sharded", "tiled", False): SUPPORTED,
    ("threshold", "sharded", "tiled", True): DENSE_FALLBACK,
    # topk: sketch path, no engine — pruning cannot be requested.
    ("topk", "serial", "dense", False): SUPPORTED,
    ("topk", "serial", "tiled", False): SUPPORTED,
    ("topk", "sharded", "dense", False): SUPPORTED,
    ("topk", "sharded", "tiled", False): SUPPORTED,
    ("topk", "serial", "dense", True): INAPPLICABLE,
    ("topk", "serial", "tiled", True): INAPPLICABLE,
    ("topk", "sharded", "dense", True): INAPPLICABLE,
    ("topk", "sharded", "tiled", True): INAPPLICABLE,
    # lagged: raw-value path; "tiled" means streamed window buffers.  The
    # lag kernel is one BLAS product per window, so requested workers stay
    # serial.
    ("lagged", "serial", "dense", False): SUPPORTED,
    ("lagged", "serial", "tiled", False): SUPPORTED,
    ("lagged", "sharded", "dense", False): SERIAL_FALLBACK,
    ("lagged", "sharded", "tiled", False): SERIAL_FALLBACK,
    ("lagged", "serial", "dense", True): INAPPLICABLE,
    ("lagged", "serial", "tiled", True): INAPPLICABLE,
    ("lagged", "sharded", "dense", True): INAPPLICABLE,
    ("lagged", "sharded", "tiled", True): INAPPLICABLE,
}

#: Cells this repo learned in the scenario-matrix PR; they must stay
#: ``supported`` — regressing one of these is an API break, not a tweak.
NEWLY_SUPPORTED = (
    ("lagged", "serial", "tiled", False),
    ("topk", "sharded", "dense", False),
    ("topk", "sharded", "tiled", False),
    ("threshold", "sharded", "dense", True),
)

# Query geometry shared by every cell: basic-window aligned (so sharding and
# tiled sketch builds are eligible) and small enough for property runs.
LENGTH = 256
WINDOW = 64
STEP = 32
BASIC = 16

#: Deterministic pruning configuration — shard-safe by construction.
PRUNED_OPTIONS = {
    "use_horizontal_pruning": True,
    "pivot_strategy": "kcenter",
    "num_pivots": 2,
}


def _matrix(num_series: int, seed: int) -> TimeSeriesMatrix:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(LENGTH)
    values = 0.6 * base + rng.standard_normal((num_series, LENGTH))
    return TimeSeriesMatrix(values)


def _query(family: str):
    bounds = dict(start=0, end=LENGTH, window=WINDOW, step=STEP)
    if family == "threshold":
        return ThresholdQuery(threshold=0.4, **bounds)
    if family == "topk":
        return TopKQuery(k=5, **bounds)
    return LaggedQuery(max_lag=4, threshold=0.4, **bounds)


def _planner(execution: str, build: str, pruned: bool, num_series: int) -> QueryPlanner:
    """A planner configured to *request* the cell's strategy pair.

    ``tiled`` is requested via a budget below the dense matrix but above one
    ``(N, window)`` buffer; ``sharded`` via two thread workers with the pair
    floor dropped to 1 so the small property matrices still shard.
    """
    itemsize = np.dtype(FLOAT_DTYPE).itemsize
    budget = num_series * LENGTH * itemsize // 2 if build == "tiled" else None
    return QueryPlanner(
        engine="dangoron",
        engine_options=dict(PRUNED_OPTIONS) if pruned else None,
        basic_window_size=BASIC,
        workers=2 if execution == "sharded" else None,
        parallel_min_pairs=1,
        parallel_mode="thread",
        memory_budget=budget,
    )


def _canonical(family: str, result):
    """A family-specific bytes-level fingerprint (bit-identity, not closeness)."""
    if family == "threshold":
        return [
            (m.rows.tobytes(), m.cols.tobytes(), m.values.tobytes())
            for m in result.matrices
        ]
    if family == "topk":
        return [
            (w.window_index, w.rows.tobytes(), w.cols.tobytes(), w.values.tobytes())
            for w in result.windows
        ]
    return [
        (w.window_index, w.best_corr.tobytes(), w.best_lag.tobytes())
        for w in result.windows
    ]


RUNNABLE_CELLS = sorted(
    cell for cell, outcome in EXPECTED_SUPPORT.items() if outcome != INAPPLICABLE
)
INAPPLICABLE_CELLS = sorted(
    cell for cell, outcome in EXPECTED_SUPPORT.items() if outcome == INAPPLICABLE
)


# ----------------------------------------------------------- table invariants
def test_expected_support_table_is_exhaustive():
    """Every cell of the product is classified — no silent gaps.

    A new family/strategy axis value must be added here explicitly; a missing
    or extra key is a hard failure, not a skip.
    """
    full_product = set(itertools.product(FAMILIES, EXECUTIONS, BUILDS, PRUNING))
    assert set(EXPECTED_SUPPORT) == full_product


def test_newly_supported_cells_stay_supported():
    for cell in NEWLY_SUPPORTED:
        assert EXPECTED_SUPPORT[cell] == SUPPORTED, (
            f"{cell} was promised by the scenario-matrix PR and may not regress"
        )


# ------------------------------------------------- plans match their cells
@pytest.mark.parametrize("cell", RUNNABLE_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_plan_matches_expected_support(cell):
    """Each runnable cell plans exactly what the table claims.

    ``supported`` cells get the requested execution *and* build; a
    ``dense-fallback`` cell keeps the requested execution but records a
    ``build_reason`` that ``describe()`` surfaces, and a ``serial-fallback``
    cell keeps the requested build but runs serial with an
    ``execution_reason``.  If the planner starts honouring a cell the table
    calls a fallback, this fails — update the table (and the docs matrix)
    with the new capability.
    """
    family, execution, build, pruned = cell
    matrix = _matrix(8, seed=7)
    planner = _planner(execution, build, pruned, matrix.num_series)
    plan = planner.plan(matrix, _query(family))
    if EXPECTED_SUPPORT[cell] == SERIAL_FALLBACK:
        assert plan.execution == EXECUTION_SERIAL
        assert plan.execution_reason is not None
        assert f"exec=serial ({plan.execution_reason})" in plan.describe()
        assert plan.sketch_build == build
        return
    assert plan.execution == execution
    assert plan.execution_reason is None
    if EXPECTED_SUPPORT[cell] == SUPPORTED:
        assert plan.sketch_build == build
        assert plan.build_reason is None
    else:  # dense-fallback: requested tiled, planner honestly declined
        assert plan.sketch_build == SKETCH_BUILD_DENSE
        assert plan.build_reason is not None
        assert f"build=dense ({plan.build_reason})" in plan.describe()


@pytest.mark.parametrize(
    "cell", INAPPLICABLE_CELLS, ids=lambda c: "-".join(map(str, c))
)
def test_inapplicable_cells_reject_the_request(cell):
    """Pruning rides on the threshold engine; other families refuse it loudly.

    The only way to request pruning is an engine override, and the planner
    raises :class:`ExperimentError` for overrides on fixed-path queries —
    never a silent ignore.
    """
    family, execution, build, _ = cell
    matrix = _matrix(8, seed=7)
    planner = _planner(execution, build, pruned=False, num_series=8)
    pruned_engine = create_engine(
        "dangoron", basic_window_size=BASIC, **PRUNED_OPTIONS
    )
    with pytest.raises(ExperimentError, match="threshold queries only"):
        planner.plan(matrix, _query(family), engine=pruned_engine)


# ---------------------------------------------------------------- bit-identity
@settings(max_examples=6, deadline=None)
@given(
    num_series=st.integers(min_value=6, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_runnable_cell_is_bit_identical_to_reference(num_series, seed):
    """The conformance sweep: all runnable cells vs the serial/dense reference.

    One reference run per pruning configuration (serial, dense, same engine
    options); every other cell of that family must reproduce it byte for
    byte — sharded, tiled/streamed, and pruned-sharded alike.
    """
    matrix = _matrix(num_series, seed)
    references = {}
    for family, pruned in {(c[0], c[3]) for c in RUNNABLE_CELLS}:
        planner = _planner("serial", "dense", pruned, num_series)
        result = planner.run(matrix, _query(family))
        references[(family, pruned)] = _canonical(family, result)
    for cell in RUNNABLE_CELLS:
        family, execution, build, pruned = cell
        planner = _planner(execution, build, pruned, num_series)
        result = planner.run(matrix, _query(family))
        assert _canonical(family, result) == references[(family, pruned)], (
            f"cell {cell} diverged from the serial/dense reference"
        )


# --------------------------------------------- cost-chosen plans stay identical
def _calibrations():
    """Arbitrary-but-valid calibrations, spanning ~10 orders of magnitude.

    Drawn as exponents so extreme machines (a throughput of 1e2 next to one
    of 1e12) are as likely as plausible ones — the point is that *no*
    calibration, however skewed, may change an answer.
    """
    throughput = st.floats(min_value=2.0, max_value=12.0).map(lambda e: 10.0**e)
    overhead = st.floats(min_value=-9.0, max_value=-2.0).map(lambda e: 10.0**e)
    return st.builds(
        Calibration,
        sketch_build_elems_per_s=throughput,
        sketch_extend_elems_per_s=throughput,
        pair_scan_pair_windows_per_s=throughput,
        merge_pair_windows_per_s=throughput,
        shard_dispatch_seconds=overhead,
        parallel_efficiency=st.floats(min_value=0.05, max_value=1.0),
        tile_io_bytes_per_s=throughput,
        tile_overhead_seconds=overhead,
    )


@settings(max_examples=10, deadline=None)
@given(calibration=_calibrations(), seed=st.integers(min_value=0, max_value=2**16))
def test_cost_chosen_plans_are_bit_identical_whatever_the_calibration(
    calibration, seed
):
    """The cost model may only pick *which* candidate runs, never *what* it
    answers: under any injected calibration — so any reachable choice of
    execution, worker count and tile size — every family's chosen plan
    reproduces the serial/dense reference byte for byte.
    """
    num_series = 7
    matrix = _matrix(num_series, seed)
    for family in FAMILIES:
        reference = _planner("serial", "dense", False, num_series).run(
            matrix, _query(family)
        )
        chooser = _planner("sharded", "tiled", False, num_series)
        chooser.cost_model = CostModel(calibration)
        plan = chooser.plan(matrix, _query(family))
        assert plan.cost_source == "calibration"
        result = chooser.execute(matrix, plan)
        assert _canonical(family, result) == _canonical(family, reference), (
            f"{family} diverged under plan {plan.describe()!r} "
            f"with calibration {calibration}"
        )


# ------------------------------------------------------- declined, with reasons
def test_declined_sharding_names_the_reason_in_describe():
    """Policy declines stay serial and ``describe()`` says why — each gate."""
    matrix = _matrix(8, seed=7)

    # Unseeded random pivots: each shard would draw different pivots.
    planner = QueryPlanner(
        engine="dangoron",
        engine_options={"use_horizontal_pruning": True, "pivot_strategy": "random"},
        basic_window_size=BASIC,
        workers=2,
        parallel_min_pairs=1,
        parallel_mode="thread",
    )
    plan = planner.plan(matrix, _query("threshold"))
    assert plan.execution == EXECUTION_SERIAL
    assert "does not support pair subsets" in plan.describe()

    # Below the pair floor: dispatch overhead would dominate.
    planner = QueryPlanner(basic_window_size=BASIC, workers=2)
    plan = planner.plan(matrix, _query("threshold"))
    assert plan.execution == EXECUTION_SERIAL
    assert "pair count below parallel_min_pairs=" in plan.describe()

    # Unaligned windows: every shard would repeat the dense edge correction.
    # (TSUBASA plans a layout even for unaligned windows, which is what arms
    # this gate; Dangoron plans no layout there and shards on raw values.)
    planner = QueryPlanner(
        engine="tsubasa", basic_window_size=BASIC, workers=2, parallel_min_pairs=1,
        parallel_mode="thread",
    )
    unaligned = ThresholdQuery(start=0, end=LENGTH, window=50, step=25, threshold=0.4)
    plan = planner.plan(matrix, unaligned)
    assert plan.execution == EXECUTION_SERIAL
    assert "windows not basic-window aligned" in plan.describe()

    # Lagged: the lag kernel is one BLAS product per window.
    planner = _planner("sharded", "dense", False, 8)
    plan = planner.plan(matrix, _query("lagged"))
    assert plan.execution == EXECUTION_SERIAL
    assert "lagged scans are one BLAS product per window" in plan.describe()


def test_impossible_lagged_budget_raises_naming_family_and_strategy():
    """A budget below one window buffer is impossible, not a policy decline."""
    matrix = _matrix(8, seed=7)
    itemsize = np.dtype(FLOAT_DTYPE).itemsize
    planner = QueryPlanner(
        basic_window_size=BASIC,
        memory_budget=8 * WINDOW * itemsize - 1,  # one byte short of a buffer
    )
    with pytest.raises(ExperimentError) as excinfo:
        planner.plan(matrix, _query("lagged"))
    message = str(excinfo.value)
    assert "lagged" in message
    assert "tiled" in message
    assert "window buffer" in message
