"""Request merging: one scan at ``min(threshold)``, filtered per caller.

Concurrent requests merge through one mechanism, :class:`QueryBatch`.
*Identical* requests of any family coalesce onto one member slot and share
its execution for the scan's whole duration.  Concurrent **threshold**
queries that differ *only* in their threshold — same dataset, same window
grid, same ``threshold_mode``, same transport fields — additionally share a
batch, because the engine's scan at the *lowest* requested threshold
computes a superset of every member's answer with bit-identical values:

every execution strategy in this repo emits bit-identical correlation
values for a surviving pair regardless of the threshold (the canonical
layout + pairwise-sum invariants, property-tested per strategy), so deriving
a member's result is a pure order-preserving subset filter of the floor
scan's entries through the member query's own ``keep_mask``.
:func:`filter_threshold_result` is that filter; the Hypothesis property
suite asserts it is bit-identical to an independent per-threshold run
across random thresholds, layouts and batch compositions.

One engine mechanism is excluded from batch scans: Dangoron's *temporal
jumping* (Eq. 2, which a service runs only when its engine options ask for
it) is a threshold-dependent recall heuristic — under its
stationarity assumption a below-threshold pair skips windows, and a pair
whose correlation rises faster than the bound predicts is caught late.
Which windows get skipped depends on the scan's threshold, so a floor scan
with jumping on could not reproduce each member's own schedule.  Batch
leaders therefore run the floor scan with :func:`exact_scan_options`
(jumping disabled, so the window-axis grid answers): the scan's survivor
set is exactly ``{corr >= floor}``, derivation is
bit-identical to an independent exact run of each member's query, and the
answer is independent of batch composition.  Single-threshold batches are
pure coalescing and keep the normal plan untouched.

The bookkeeping classes (:class:`BatchMember`, :class:`QueryBatch`) carry
one open batch per ``(dataset, batch key)``: the first arrival becomes the
leader, compatible arrivals join until the leader *closes* the batch at
execution time, and everyone wakes on one event with their own payload.
Instances are shared across request threads; every mutation happens under
the owning runtime's ``batches_lock`` (see
:meth:`repro.service.service.CorrelationService.query`) or before the
batch is published to it.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional

from repro.core.engine import engine_options
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.exceptions import ServiceError

#: A request is batchable when it is a threshold query with a numeric
#: threshold; everything else (top-k, lagged) only ever coalesces with its
#: exact duplicates (see :func:`batch_key_for`).
BATCHABLE_MODE = "threshold"


def canonical_request_key(request: Dict[str, object]) -> str:
    """The exact-identity key of a request: its canonical JSON."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def is_batchable(request: Dict[str, object]) -> bool:
    threshold = request.get("threshold")
    return (
        request.get("mode") == BATCHABLE_MODE
        and isinstance(threshold, (int, float))
        and not isinstance(threshold, bool)
    )


def batch_key_for(request: Dict[str, object]) -> str:
    """The compatibility key: the request minus its threshold, canonically.

    Everything else — window grid, ``threshold_mode``, ``include_edges`` —
    must match for two requests to share a scan; a
    differing ``threshold_mode`` changes the keep predicate and therefore
    the key, never silently the semantics.  A request :func:`is_batchable`
    rejects is compatible only with itself: its key is its exact identity,
    so its batch holds one member slot that duplicates coalesce onto.
    """
    if not is_batchable(request):
        return canonical_request_key(request)
    spec = {key: value for key, value in request.items() if key != "threshold"}
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def exact_scan_options(engine: str, options: Dict[str, object]) -> Dict[str, object]:
    """Engine options making ``engine``'s threshold scans threshold-exact.

    For engines with Dangoron's temporal-jumping knob the heuristic is
    switched off (its skip schedule depends on the scan threshold — see the
    module docstring); engines without the knob run exhaustive or
    soundly-pruned scans already and keep their options untouched.
    """
    if "use_temporal_pruning" in engine_options(engine):
        return {**options, "use_temporal_pruning": False}
    return dict(options)


def filter_threshold_result(
    result: CorrelationSeriesResult, query: SlidingQuery
) -> CorrelationSeriesResult:
    """Derive ``query``'s result from a floor scan at a threshold ``<=`` its own.

    ``result`` must be the answer to the same query at a lower-or-equal
    threshold (same grid, same ``threshold_mode``), produced by a
    threshold-exact scan (see :func:`exact_scan_options`); each window's
    surviving entries are filtered through ``query.keep_mask`` — an
    order-preserving subset, bit-identical to an independent exact run of
    ``query``.  The engine statistics are the floor scan's (one scan
    happened; per-member work counters would be fiction).
    """
    floor = result.query
    if query.with_threshold(floor.threshold) != floor:
        raise ServiceError(
            "batched filter requires queries differing only in threshold: "
            f"cannot derive {query!r} from a scan of {floor!r}"
        )
    if floor.threshold > query.threshold:
        raise ServiceError(
            f"floor scan threshold {floor.threshold} exceeds the member "
            f"threshold {query.threshold}; the scan is not a superset"
        )
    matrices: List[ThresholdedMatrix] = []
    for window in result.matrices:
        mask = query.keep_mask(window.values)
        matrices.append(
            ThresholdedMatrix(
                window.num_series,
                rows=window.rows[mask],
                cols=window.cols[mask],
                values=window.values[mask],
            )
        )
    return CorrelationSeriesResult(
        query, matrices, stats=result.stats, series_ids=result.series_ids
    )


class BatchMember:
    """One distinct request inside a batch (duplicates share the slot).

    ``query`` is the parsed :class:`~repro.core.query.SlidingQuery` — callers
    validate their own request *before* joining, so a malformed body fails
    its sender alone instead of poisoning the batch.
    """

    __slots__ = ("query", "payload")

    def __init__(self, query: SlidingQuery) -> None:
        self.query = query
        self.payload: Optional[bytes] = None  # the encoded response body


class QueryBatch:
    """One open (then closed) batch of compatible requests.

    Members join under the runtime's ``batches_lock`` while ``closed`` is
    false; the leader flips ``closed`` (same lock) when execution starts,
    removes the batch from the open map, runs the floor scan, fills every
    member's ``payload`` (or ``error``), and sets ``event``.
    """

    __slots__ = ("members", "closed", "event", "error")

    def __init__(self) -> None:
        self.members: Dict[str, BatchMember] = {}
        self.closed = False
        self.event = threading.Event()
        self.error: Optional[BaseException] = None

    def join(self, exact_key: str, query: SlidingQuery) -> tuple:
        """Add a parsed request; returns ``(member, created)``.

        ``created`` is true when this request opened a new member slot (a
        distinct threshold — it will be *batched*); false when it joined an
        existing slot (an exact duplicate — it is *coalesced*).  Caller
        holds the runtime's ``batches_lock``.
        """
        member = self.members.get(exact_key)
        if member is not None:
            return member, False
        member = BatchMember(query)
        self.members[exact_key] = member
        return member, True
